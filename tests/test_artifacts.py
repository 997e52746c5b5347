"""Round-trip tests for the CSV/JSON artifact schemas."""
import csv
import io
from dataclasses import fields

import pytest

from qdtp.artifacts import (
    PACKET_FIELDS,
    read_packets_csv,
    read_queues_csv,
    read_summary_json,
    trace_from_records,
    write_packets_csv,
    write_queues_csv,
    write_run_dir,
    write_summary_json,
)
from qdtp.errors import ContractViolation
from qdtp.metrics import run_summary
from qdtp.mitigation import MitigationPolicy
from qdtp.recursions import QdtpConfig
from qdtp.simulator import Packets, simulate_sequences


def columns(packets):
    """Each column as a list: the engine hands over tuples, the reader lists."""
    return {f.name: list(getattr(packets, f.name)) for f in fields(packets)}


def sample_trace():
    return simulate_sequences(
        [0.0, 0.0, 0.0005, 0.001, 0.3],
        [0.002, 0.003, 0.001, 0.002, 0.001],
        QdtpConfig.from_seconds(0.003),
        MitigationPolicy(3, 2),
        sampling_interval=0.001,
    )


class TestPacketsCsv:
    def test_roundtrip_exact(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "packets.csv"
        write_packets_csv(trace.packets, path)
        back = read_packets_csv(path)
        assert columns(back) == columns(trace.packets)

    def test_header_is_stable(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "packets.csv"
        write_packets_csv(trace.packets, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(PACKET_FIELDS)
        assert header == "id,source,is_attack,a,t,service_start,service_end,dropped,drop_reason"

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("id,a\n0,1\n")
        with pytest.raises(ContractViolation):
            read_packets_csv(path)

    def test_bad_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(PACKET_FIELDS) + "\n0,0,0,zero,,,,0,\n"
        )
        with pytest.raises(ContractViolation):
            read_packets_csv(path)

    @pytest.mark.parametrize("packets", [
        Packets(),
        sample_trace().packets,  # two packets dropped by the mitigation gate
        # as the device stub records: t = a, lists, a mixed is_attack column
        Packets([0, 1, 0], [False, True, False], [0, 5, 9], [0, 5, 9],
                [3, 8, 12], [7, 11, 15], [None, None, None]),
    ], ids=["empty", "dropped", "stub"])
    def test_bytes_match_csv_writer(self, tmp_path, packets):
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(PACKET_FIELDS)
        writer.writerows(zip(
            range(len(packets)),
            packets.source,
            map(int, packets.is_attack),
            packets.a_ns,
            packets.t_ns,
            packets.start_ns,
            packets.end_ns,
            [0 if why is None else 1 for why in packets.drop_reason],
            packets.drop_reason,
        ))
        path = tmp_path / "packets.csv"
        write_packets_csv(packets, path)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_deterministic_bytes(self, tmp_path):
        trace = sample_trace()
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_packets_csv(trace.packets, p1)
        write_packets_csv(trace.packets, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestQueuesCsv:
    def test_roundtrip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "queues.csv"
        write_queues_csv(trace, path)
        times, sqf, server = read_queues_csv(path)
        assert tuple(times) == trace.times_ns
        assert tuple(sqf) == trace.sqf_counts
        assert tuple(server) == trace.server_counts


class TestSummaryJson:
    def test_roundtrip(self, tmp_path):
        summary = run_summary(sample_trace())
        path = tmp_path / "summary.json"
        write_summary_json(summary, path)
        assert read_summary_json(path) == summary


class TestRunDir:
    def test_write_run_dir_creates_all(self, tmp_path):
        trace = sample_trace()
        paths = write_run_dir(trace, tmp_path / "run")
        assert sorted(p.rsplit("/", 1)[-1] for p in paths.values()) == [
            "packets.csv",
            "queues.csv",
            "summary.json",
        ]
        back = read_packets_csv(paths["packets"])
        assert columns(back) == columns(trace.packets)

    def test_trace_from_records_rebuilds_series(self, tmp_path):
        trace = sample_trace()
        paths = write_run_dir(trace, tmp_path / "run")
        packets = read_packets_csv(paths["packets"])
        rebuilt = trace_from_records(
            packets, trace.sampling_interval, d_ns=trace.d_ns
        )
        assert rebuilt.times_ns == trace.times_ns
        assert rebuilt.sqf_counts == trace.sqf_counts
        assert rebuilt.server_counts == trace.server_counts
