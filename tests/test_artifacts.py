"""Round-trip tests for the CSV/JSON artifact schemas."""
import csv
import io
from array import array
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as own
from qdtp import artifacts
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
from qdtp.simulator import ABSENT_NS, DROP_REASONS, Packets, simulate_sequences


def columns(packets):
    """Each column as a list: ``drop_reason`` as its codes."""
    return {f.name: list(getattr(packets, f.name)) for f in fields(packets)}


def sample_trace():
    return simulate_sequences(
        [0, 0, 500_000, 1_000_000, 300_000_000],
        [2_000_000, 3_000_000, 1_000_000, 2_000_000, 1_000_000],
        3_000_000,
        MitigationPolicy(3, 2),
        interval_ns=1_000_000,
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
        # every reason the writer pastes into a "%" row format, with admitted
        # rows and without; test_reason_outside_the_table_never_reaches_the_writer
        # rejects the reasons that hold "%" before they get here
        Packets([0, 1, 0, 1], [False, True, False, True], [0, 5, 9, 10], [0, None, None, 12],
                [3, None, None, 14], [7, None, None, 20], [None, "mitigation", "capacity", None]),
        Packets([0, 1], [False, True], [0, 5], [None, None],
                [None, None], [None, None], ["capacity", "mitigation"]),
    ], ids=["empty", "dropped", "stub", "percent_mixed", "percent_only"])
    def test_bytes_match_csv_writer(self, tmp_path, packets):
        def cells(column):  # an absent timestamp is an empty cell
            return ["" if x == ABSENT_NS else x for x in column]

        reasons = [DROP_REASONS[code] for code in packets.drop_reason]
        assert not any("%" in why for why in reasons if why is not None)
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
            [0 if why is None else 1 for why in reasons],
            reasons,
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
        assert type(back.drop_reason) is bytearray

    @pytest.mark.parametrize("reasons", [[None, "50%", "%d"], ["%d", "%d"]],
                             ids=["percent_mixed", "percent_only"])
    def test_reason_outside_the_table_never_reaches_the_writer(self, reasons):
        # the writer pastes each name of the closed table into a row format,
        # so a name holding "%" or a cell that needs quoting must not exist
        assert not any(set(why) & set('%,"\r\n') for why in DROP_REASONS[1:])
        n = len(reasons)
        with pytest.raises(ContractViolation, match="unknown drop reason"):
            Packets([0] * n, [False] * n, range(n), [None] * n, [None] * n, [None] * n,
                    reasons)

    def test_unknown_reason_cell_rejected_naming_the_row(self, tmp_path):
        path = tmp_path / "packets.csv"
        path.write_text(",".join(PACKET_FIELDS)
                        + "\n0,0,0,5,5,5,9,0,\n1,0,0,6,,,,1,overflow\n")
        with pytest.raises(ContractViolation) as err:
            read_packets_csv(path)
        assert str(err.value).endswith(
            "bad packet row ['1', '0', '0', '6', '', '', '', '1', 'overflow']: "
            "drop_reason 'overflow' of row 1 is not one of ('mitigation', 'capacity')"
        )

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
        assert packets.drop_reason.count(DROP_REASONS.index("mitigation")) == 1
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

    @pytest.mark.parametrize("cell", ['"capacity"', "cap\racity"], ids=["quote", "lone_cr"])
    def test_quote_or_lone_carriage_return_rejected(self, tmp_path, cell):
        # the csv module reads the first as capacity and the second as two
        # lines; neither is ever written
        path = tmp_path / "quoted.csv"
        path.write_text(",".join(PACKET_FIELDS) + f"\n0,0,0,5,,,,1,{cell}\n")
        with pytest.raises(ContractViolation,
                           match="packet row 0 holds a quote or a carriage return"):
            read_packets_csv(path)

    def test_rows_past_the_first_block(self, tmp_path):
        # about 30 characters a row: the log spans several blocks, and a
        # fault in a later one names its row by the row's index in the file
        n = 3 * artifacts._BLOCK_CHARS // 30
        packets = Packets([0] * n, [False] * n, range(n), range(n), range(n),
                          range(1, n + 1), [None] * n)
        path = tmp_path / "packets.csv"
        write_packets_csv(packets, path)
        assert columns(read_packets_csv(path)) == columns(packets)
        rows = path.read_bytes().split(b"\r\n")
        rows[n - 5] = rows[n - 5].replace(b"%d," % (n - 6), b"7,", 1)
        path.write_bytes(b"\r\n".join(rows))
        with pytest.raises(ContractViolation, match=f"id 7 is not the row index {n - 6}"):
            read_packets_csv(path)

    def test_deterministic_bytes(self, tmp_path):
        trace = sample_trace()
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_packets_csv(trace.packets, p1)
        write_packets_csv(trace.packets, p2)
        assert p1.read_bytes() == p2.read_bytes()


def read_with_csv_module(path) -> Packets:
    """packets.csv read one row at a time with ``csv.reader``, as the reader once did."""
    packets = Packets()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != PACKET_FIELDS:
            raise ContractViolation("unexpected packet columns")
        for index, row in enumerate(filter(None, reader)):  # skip blank lines
            try:
                pid, source, attack, a, t, start, end, dropped, why = row
                if int(pid) != index or bool(int(dropped)) != bool(why):
                    raise ValueError("bad id or dropped flag")
                if why and (t or start or end):
                    raise InvariantViolation("dropped yet has gate/device timestamps")
                packets.source.append(int(source))
                packets.is_attack.append(bool(int(attack)))
                packets.a_ns.append(int(a))
                packets.t_ns.append(int(t) if t else ABSENT_NS)
                packets.start_ns.append(int(start) if start else ABSENT_NS)
                packets.end_ns.append(int(end) if end else ABSENT_NS)
                packets.drop_reason.append(DROP_REASONS.index(why or None))
            except (ValueError, OverflowError) as exc:
                raise ContractViolation(f"bad packet row {row!r}") from exc
    return packets


@st.composite
def logs_with_drops(draw) -> Packets:
    """A simulated log behind a gate, with mitigation or capacity drops, and mixed sources."""
    times, durations = draw(own.arrivals_with_services(min_size=0, max_size=12))
    trace = simulate_sequences(
        times, durations, draw(own.spacing_ns),
        draw(st.none() | st.tuples(st.integers(1, 3), st.integers(1, 3))),
        sqf_capacity=draw(st.integers(1, 2) | st.none()),
    )
    packets, n = trace.packets, len(trace.packets)
    packets.source = array("i", draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    packets.is_attack = bytearray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return packets


CELLS = st.sampled_from(
    ["-1", str(2**63), str(2**31), "zero", " ", "", "0", "1", " 1", "capacity", "overflow"]
) | st.integers(-2, 10**7).map(str)


# a changed cell is drawn most often: most of the reader's checks are on cells
MUTATIONS = ["none", *["cell"] * 5, "comma", "blank", "lf", "no_end", "quote", "cr"]


@st.composite
def mutated_packets_text(draw, text: str) -> str:
    """``text`` with one mutation: a cell, a comma, a blank line, a line end, a quote or a CR."""
    # positions come from a uniform random stream (hypothesis' own draws
    # lean to small values); half the time the line is a dropped packet's
    rng = draw(st.randoms(use_true_random=True))
    lines = text.split("\r\n")[:-1]  # the header and the rows, each without its CRLF
    dropped = [i for i, line in enumerate(lines) if line.endswith(("mitigation", "capacity"))]
    where = rng.choice(dropped) if dropped and rng.random() < 0.5 else rng.randrange(len(lines))
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "cell":
        cells = lines[where].split(",")
        cells[rng.randrange(len(cells))] = draw(CELLS)
        lines[where] = ",".join(cells)
    elif kind == "comma":
        line = lines[where]
        commas = [i for i, c in enumerate(line) if c == ","]
        if commas and rng.random() < 0.5:
            i = rng.choice(commas)
            lines[where] = line[:i] + line[i + 1:]
        else:
            i = rng.randrange(len(line) + 1)
            lines[where] = line[:i] + "," + line[i:]
    elif kind == "blank":
        lines.insert(rng.randrange(len(lines) + 1), "")
    text = "\r\n".join(lines) + "\r\n"
    if kind == "lf":
        text = text.replace("\r\n", "\n", -1 if rng.random() < 0.5 else 1)
    elif kind == "no_end":
        text = text[:-2]
    elif kind in ("quote", "cr"):
        i = rng.randrange(len(text) + 1)
        text = text[:i] + ('"' if kind == "quote" else "\r") + text[i:]
    return text


def read_or_none(reader, path):
    try:
        return columns(reader(path))
    except (ContractViolation, InvariantViolation):
        return None


class TestReaderAgainstCsvModule:
    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), packets=logs_with_drops())
    def test_same_columns_or_rejected(self, tmp_path_factory, data, packets):
        path = tmp_path_factory.getbasetemp() / "differential_packets.csv"
        write_packets_csv(packets, path)
        text = data.draw(mutated_packets_text(path.read_bytes().decode("utf-8")))
        path.write_bytes(text.encode("utf-8"))
        got = read_or_none(read_packets_csv, path)
        expected = read_or_none(read_with_csv_module, path)
        if got is not None:
            assert got == expected
        # the two deliberate narrowings: csv unquotes a quoted cell and ends
        # a line at a lone carriage return; everything else csv accepts, so
        # does the reader
        elif '"' not in text and "\r" not in text.replace("\r\n", ""):
            assert expected is None


class TestQueuesCsv:
    def test_roundtrip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "queues.csv"
        write_queues_csv(trace, path)
        times, sqf, server = read_queues_csv(path)
        assert array("q", times) == trace.times_ns
        assert array("q", sqf) == trace.sqf_counts
        assert array("q", server) == trace.server_counts


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
            packets, trace.interval_ns, d_ns=trace.d_ns
        )
        assert rebuilt.times_ns == trace.times_ns
        assert rebuilt.sqf_counts == trace.sqf_counts
        assert rebuilt.server_counts == trace.server_counts
