"""Reading and writing run artifacts: packets.csv, queues.csv, summary.json.

Schemas are stable interfaces. packets.csv carries integer-nanosecond
timestamps; empty cells mean "not applicable" (dropped packets), which
``simulator.Packets`` holds as ``ABSENT_NS``.  Its
``id`` and ``dropped`` columns are derived: ``id`` is the row index and
``dropped`` is 1 exactly when ``drop_reason`` is set.
"""
from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from itertools import repeat
from operator import is_not
from pathlib import Path
from typing import Optional, Sequence

from . import metrics
from .errors import ContractViolation, InvariantViolation
from .forked import Forked
from .simulator import ABSENT_NS, Packets, TraceSeries, _trace, check_records, verify_trace

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


# one row of packets.csv as csv.writer writes it (no cell needs quoting: ints
# and the two drop reasons); ABSENT_NS timestamps and None reasons go in as ""
_PACKET_ROW = "%d,%d,%d,%d,%s,%s,%s,%d,%s\r\n"


def write_packets_csv(packets: Packets, path) -> None:
    times = (packets.t_ns, packets.start_ns, packets.end_ns)
    if packets.drop_reason.count(None) == len(packets):  # nothing dropped: no empty cell
        dropped, why = repeat(0), repeat("")
    else:
        blank = {ABSENT_NS: "", None: ""}.get  # blank(x, x): "" for ABSENT_NS or None
        times = (map(blank, column, column) for column in times)
        dropped = map(is_not, packets.drop_reason, repeat(None))
        why = map(blank, packets.drop_reason, packets.drop_reason)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(PACKET_FIELDS) + "\r\n")
        fh.writelines(map(_PACKET_ROW.__mod__, zip(
            range(len(packets)), packets.source, packets.is_attack, packets.a_ns,
            *times, dropped, why,
        )))


@contextmanager
def _open_utf8(path):
    """``path`` open as UTF-8 text; bytes that do not decode raise ContractViolation."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:  # raised where the reader pulls a line
        raise ContractViolation(f"{path}: not UTF-8 text ({exc})") from exc


# Rows are parsed into lists and join the typed columns in batches:
# list.append plus one array.fromlist per batch costs less than an
# array.append per cell.
_BATCH_ROWS = 4096


def read_packets_csv(path) -> Packets:
    """Read packets.csv back into columns; an empty timestamp is ABSENT_NS.

    Rejects, with ContractViolation, bytes that are not UTF-8, a header
    other than PACKET_FIELDS, a malformed row, an ``id`` that is not the row
    index, a ``dropped`` flag that disagrees with ``drop_reason``, and a
    number too large for its column (64-bit timestamps, 32-bit sources).
    """
    packets = Packets()
    typed = (packets.source, packets.a_ns, packets.t_ns, packets.start_ns, packets.end_ns)
    batch = tuple([] for _ in typed)
    add_source, add_a, add_t, add_start, add_end = (cells.append for cells in batch)
    add_attack, add_why = packets.is_attack.append, packets.drop_reason.append

    def flush(rows: int) -> None:
        try:
            for column, cells in zip(typed, batch):
                column.fromlist(cells)
                cells.clear()
        except OverflowError as exc:
            raise ContractViolation(
                f"{path}: a number in packet rows {rows - len(batch[-1])}..{rows - 1} "
                f"does not fit its column ({exc})"
            ) from exc

    with _open_utf8(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != PACKET_FIELDS:
            raise ContractViolation(f"{path}: unexpected packet columns {header}")
        index = -1
        for index, row in enumerate(filter(None, reader)):  # skip blank lines
            try:
                pid, source, attack, a, t, start, end, dropped, why = row
                if int(pid) != index:
                    raise ValueError(f"id {pid} is not the row index {index}")
                if bool(int(dropped)) != bool(why):
                    raise ValueError("dropped flag disagrees with drop_reason")
                # check_records' test, made on the cells: a cell of -1 would
                # read back as ABSENT_NS and pass it there
                if why and (t or start or end):
                    raise InvariantViolation(
                        f"packet {index}: dropped yet has gate/device timestamps"
                    )
                add_source(int(source))
                add_attack(bool(int(attack)))
                add_a(int(a))
                add_t(int(t) if t else ABSENT_NS)
                add_start(int(start) if start else ABSENT_NS)
                add_end(int(end) if end else ABSENT_NS)
                add_why(why or None)
            except ValueError as exc:
                raise ContractViolation(f"{path}: bad packet row {row!r}: {exc}") from exc
            if len(batch[-1]) == _BATCH_ROWS:
                flush(index + 1)
        flush(index + 1)
    return packets


def write_queues_csv(trace: TraceSeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_ns", "sqf_len", "server_len"])
        for t, q, s in zip(trace.times_ns, trace.sqf_counts, trace.server_counts):
            writer.writerow([t, q, s])


def read_queues_csv(path) -> tuple[list[int], list[int], list[int]]:
    times, sqf, server = [], [], []
    with _open_utf8(path) as fh:
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


def _read_json(source, error: type[Exception]):
    """The JSON in ``source``, a Path or a package resource, read as UTF-8.

    Bytes that do not decode and bad syntax both raise ``error`` naming
    the file: each caller says what an unreadable file of its kind means.
    """
    try:
        return json.loads(source.read_bytes().decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
        raise error(f"{source}: not UTF-8 JSON ({exc})") from exc


def read_summary_json(path) -> dict:
    summary = _read_json(Path(path), ContractViolation)
    if not isinstance(summary, dict):
        raise ContractViolation(f"{path}: not a JSON object")
    return summary


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
    packets: Packets,
    sampling_interval: float = 0.1,
    *,
    d_ns: Optional[int] = None,
    mitigation: Optional[tuple[int, int]] = None,
    attack_window_ns: Optional[tuple[int, int]] = None,
    seed: Optional[int] = None,
) -> TraceSeries:
    """Rebuild a TraceSeries from packets that pass ``check_records`` (no recursion replay)."""
    check_records(packets)
    return _trace(
        packets,
        sampling_interval,
        d_ns=d_ns,
        mitigation=mitigation,
        attack_window_ns=attack_window_ns,
        seed=seed,
    )


def write_run_dir(trace: TraceSeries, out_dir) -> dict:
    """Verify one run, then write its three standard artifacts; returns their paths.

    ``verify_trace`` passes before anything is written, so a run that fails
    it leaves no directory.  ``metrics.run_summary`` runs in a forked child
    meanwhile: the three passes over the trace are independent and read it
    only, so the summary overlaps the verification and the CSV writes.  The
    summary forks a child of its own for half its statistics, so three
    processes share the cores; killing the summary's child kills that one too.
    """
    with Forked(f"summarizing {out_dir}", metrics.run_summary, trace) as summary:
        verify_trace(trace)
        os.makedirs(out_dir, exist_ok=True)
        paths = {
            "packets": os.path.join(out_dir, "packets.csv"),
            "queues": os.path.join(out_dir, "queues.csv"),
            "summary": os.path.join(out_dir, "summary.json"),
        }
        write_packets_csv(trace.packets, paths["packets"])
        write_queues_csv(trace, paths["queues"])
        write_summary_json(summary.result(), paths["summary"])
    return paths
