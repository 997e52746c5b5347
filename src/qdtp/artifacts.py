"""Reading and writing run artifacts: packets.csv, queues.csv, summary.json.

Schemas are stable interfaces. packets.csv carries integer-nanosecond
timestamps; empty cells mean "not applicable" (dropped packets).
"""
from __future__ import annotations

import csv
import json
import os
from typing import Optional, Sequence

from . import metrics
from .errors import ContractViolation
from .simulator import PacketRecord, TraceSeries

PACKET_FIELDS = [
    "id",
    "source",
    "is_attack",
    "a",
    "t",
    "service_start",
    "service_end",
    "dropped",
    "drop_reason",
]

__all__ = [
    "PACKET_FIELDS",
    "write_packets_csv",
    "read_packets_csv",
    "write_queues_csv",
    "read_queues_csv",
    "write_summary_json",
    "read_summary_json",
    "write_comparison_csv",
    "write_histogram_csv",
    "trace_from_records",
    "write_run_dir",
]


def _cell(value: Optional[int]) -> str:
    return "" if value is None else str(value)


def write_packets_csv(records: Sequence[PacketRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PACKET_FIELDS)
        for r in records:
            writer.writerow(
                [
                    r.id,
                    r.source,
                    int(r.is_attack),
                    r.a_ns,
                    _cell(r.t_ns),
                    _cell(r.service_start_ns),
                    _cell(r.service_end_ns),
                    int(r.dropped),
                    r.drop_reason or "",
                ]
            )


def read_packets_csv(path) -> list[PacketRecord]:
    records = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != PACKET_FIELDS:
            raise ContractViolation(f"{path}: unexpected packet columns {reader.fieldnames}")
        for row in reader:
            try:
                records.append(
                    PacketRecord(
                        id=int(row["id"]),
                        source=int(row["source"]),
                        is_attack=bool(int(row["is_attack"])),
                        a_ns=int(row["a"]),
                        t_ns=int(row["t"]) if row["t"] else None,
                        service_start_ns=int(row["service_start"]) if row["service_start"] else None,
                        service_end_ns=int(row["service_end"]) if row["service_end"] else None,
                        dropped=bool(int(row["dropped"])),
                        drop_reason=row["drop_reason"] or None,
                    )
                )
            except (KeyError, ValueError) as exc:
                raise ContractViolation(f"{path}: bad packet row {row!r}: {exc}") from exc
    return records


def write_queues_csv(trace: TraceSeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_ns", "sqf_len", "server_len"])
        for t, q, s in zip(trace.times_ns, trace.sqf_counts, trace.server_counts):
            writer.writerow([t, q, s])


def read_queues_csv(path) -> tuple[list[int], list[int], list[int]]:
    times, sqf, server = [], [], []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["time_ns", "sqf_len", "server_len"]:
            raise ContractViolation(f"{path}: unexpected queue columns")
        for row in reader:
            times.append(int(row["time_ns"]))
            sqf.append(int(row["sqf_len"]))
            server.append(int(row["server_len"]))
    return times, sqf, server


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_summary_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_comparison_csv(comparison: metrics.RunComparison, path) -> None:
    ratios = comparison.ratios("server")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["time_ns", "sqf_a", "server_a", "sqf_b", "server_b", "server_ratio_a_over_b"]
        )
        for i, t in enumerate(comparison.times_ns):
            writer.writerow(
                [
                    t,
                    comparison.sqf_a[i],
                    comparison.server_a[i],
                    comparison.sqf_b[i],
                    comparison.server_b[i],
                    f"{ratios[i]:.6g}",
                ]
            )


def write_histogram_csv(edges: Sequence[float], columns: dict, path) -> None:
    """Aligned histograms; ``columns`` maps column name to per-bin counts.

    ``edges`` are in milliseconds and are written as given.
    """
    names = list(columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo_ms", "bin_hi_ms"] + names)
        for i in range(len(edges) - 1):
            writer.writerow(
                [f"{edges[i]:.6g}", f"{edges[i + 1]:.6g}"]
                + [columns[n][i] for n in names]
            )


def trace_from_records(
    records: Sequence[PacketRecord],
    sampling_interval: float = 0.1,
    *,
    d_ns: Optional[int] = None,
    mitigation: Optional[tuple[int, int]] = None,
    attack_window_ns: Optional[tuple[int, int]] = None,
    seed: Optional[int] = None,
) -> TraceSeries:
    """Rebuild a TraceSeries (sampled queue curves included) from records."""
    grid, sqf_counts, server_counts = metrics.sample_queues(records, sampling_interval)
    return TraceSeries(
        sampling_interval=sampling_interval,
        times_ns=grid,
        sqf_counts=sqf_counts,
        server_counts=server_counts,
        per_packet=list(records),
        d_ns=d_ns,
        mitigation=mitigation,
        attack_window_ns=attack_window_ns,
        seed=seed,
    )


def write_run_dir(trace: TraceSeries, out_dir) -> dict:
    """Write the three standard artifacts for one run; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "packets": os.path.join(out_dir, "packets.csv"),
        "queues": os.path.join(out_dir, "queues.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
    }
    write_packets_csv(trace.per_packet, paths["packets"])
    write_queues_csv(trace, paths["queues"])
    write_summary_json(metrics.run_summary(trace), paths["summary"])
    return paths
