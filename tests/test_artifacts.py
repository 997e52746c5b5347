"""Round-trip tests for the CSV/JSON artifact schemas."""
import csv
import io
from array import array
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
from qdtp.errors import ContractViolation, InvariantViolation
from qdtp.metrics import run_summary
from qdtp.mitigation import MitigationPolicy
from qdtp.recursions import QdtpConfig
from qdtp.simulator import ABSENT_NS, Packets, simulate_sequences


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
        sample_trace().packets,  # one packet dropped by the mitigation gate
        # as the device stub records: t = a, lists, a mixed is_attack column
        Packets([0, 1, 0], [False, True, False], [0, 5, 9], [0, 5, 9],
                [3, 8, 12], [7, 11, 15], [None, None, None]),
    ], ids=["empty", "dropped", "stub"])
    def test_bytes_match_csv_writer(self, tmp_path, packets):
        def cells(column):  # an absent timestamp is an empty cell
            return ["" if x == ABSENT_NS else x for x in column]

        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(PACKET_FIELDS)
        writer.writerows(zip(
            range(len(packets)),
            packets.source,
            map(int, packets.is_attack),
            packets.a_ns,
            cells(packets.t_ns),
            cells(packets.start_ns),
            cells(packets.end_ns),
            [0 if why is None else 1 for why in packets.drop_reason],
            packets.drop_reason,
        ))
        path = tmp_path / "packets.csv"
        write_packets_csv(packets, path)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_reader_returns_typed_columns(self, tmp_path):
        path = tmp_path / "packets.csv"
        write_packets_csv(sample_trace().packets, path)
        back = read_packets_csv(path)
        for column in (back.a_ns, back.t_ns, back.start_ns, back.end_ns):
            assert isinstance(column, array) and column.typecode == "q"
            assert column.itemsize == 8
        assert isinstance(back.source, array) and back.source.typecode == "i"
        assert type(back.is_attack) is bytearray
        assert type(back.drop_reason) is list

    def test_none_round_trips_as_empty_cells(self, tmp_path):
        # built from lists, as a caller outside the package would: None marks
        # the dropped packet's timestamps
        packets = Packets([0, 0, 1], [False, False, True], [0, 1, 2], [0, None, 2],
                          [0, None, 5], [3, None, 9], [None, "capacity", None])
        assert list(packets.t_ns) == [0, ABSENT_NS, 2]
        path = tmp_path / "packets.csv"
        write_packets_csv(packets, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[2] == ["1", "0", "0", "1", "", "", "", "1", "capacity"]
        assert columns(read_packets_csv(path)) == columns(packets)

    def test_sentinel_never_written(self, tmp_path):
        packets = sample_trace().packets  # the mitigation gate drops packet 3
        assert packets.drop_reason.count("mitigation") == 1
        assert packets.t_ns[3] == packets.start_ns[3] == packets.end_ns[3] == ABSENT_NS
        path = tmp_path / "packets.csv"
        write_packets_csv(packets, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert str(ABSENT_NS) not in [cell for row in rows for cell in row]
        assert rows[4][4:7] == ["", "", ""]

    def test_dropped_row_with_a_minus_one_timestamp_rejected(self, tmp_path):
        # -1 is ABSENT_NS in memory; the file must not smuggle a time in as it
        path = tmp_path / "minus_one.csv"
        path.write_text(",".join(PACKET_FIELDS) + "\n0,0,0,5,-1,,,1,capacity\n")
        with pytest.raises(InvariantViolation, match="packet 0: dropped yet has gate/device"):
            read_packets_csv(path)

    def test_number_too_large_for_its_column_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(
            ",".join(PACKET_FIELDS) + f"\n0,0,0,0,0,0,{2**63},0,\n"
        )
        with pytest.raises(ContractViolation, match="does not fit its column"):
            read_packets_csv(path)

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
