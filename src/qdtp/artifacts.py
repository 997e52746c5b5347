"""Reading and writing run artifacts: packets.csv, queues.csv, summary.json.

Schemas are stable interfaces. packets.csv carries integer-nanosecond
timestamps; empty cells mean "not applicable" (dropped packets), which
``simulator.Packets`` holds as ``ABSENT_NS``.  Its
``id`` and ``dropped`` columns are derived: ``id`` is the row index and
``dropped`` is 1 exactly when ``drop_reason`` is set.  A ``drop_reason``
cell is empty or one of the names in ``DROP_REASONS``, which ``Packets``
holds as that name's index in the table (0 for an empty cell); the writer
formats rows from the codes and the reader turns cells back into them.
queues.csv is written from the trace's ``array('q')`` series, and the
comparison CSV streams its ratio column.
"""
from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from itertools import chain, compress, count, repeat
from operator import mod, ne, truth
from pathlib import Path
from typing import NoReturn, Optional, Sequence

from . import metrics
from .errors import ContractViolation, InvariantViolation
from .forked import Forked
from .simulator import (
    ABSENT_NS,
    DROP_REASONS,
    Packets,
    TraceSeries,
    _trace,
    check_records,
    verify_trace,
)
from .timebase import NS_PER_MS

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


# packets.csv rows as csv.writer writes them (no cell needs quoting: ints and
# the names in DROP_REASONS).  An admitted row has all its timestamps.  A
# dropped row is its first four cells, three empty timestamps, 1 and its
# reason; a chunk of mixed rows hands every row all seven numbers, and each
# "%.0s" prints nothing for one of a dropped row's ABSENT_NS.  Indexed by
# drop reason code: the format of a chunk of such rows and the columns it
# takes, and the format of one such row in a mixed chunk
_ADMITTED_ROW = "%d,%d,%d,%d,%d,%d,%d,0,\r\n"
_UNIFORM_ROWS = [(_ADMITTED_ROW, 6)] + [
    (f"%d,%d,%d,%d,,,,1,{why}\r\n", 3) for why in DROP_REASONS[1:]
]
_MIXED_ROWS = [_ADMITTED_ROW] + [
    f"%d,%d,%d,%d,%.0s,%.0s,%.0s,1,{why}\r\n" for why in DROP_REASONS[1:]
]

# rows formatted and written at a time
_WRITE_ROWS = 4096


def write_packets_csv(packets: Packets, path) -> None:
    """Write the packet log as packets.csv, a chunk of rows at a time.

    Follows the ``Packets`` contract: an admitted row's timestamps are
    written as numbers, and a dropped row's as empty cells.
    """
    columns = (packets.source, packets.is_attack, packets.a_ns,
               packets.t_ns, packets.start_ns, packets.end_ns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(PACKET_FIELDS) + "\r\n")
        for lo in range(0, len(packets), _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            chunk = packets.drop_reason[lo:hi]
            if chunk.count(chunk[0]) == len(chunk):
                row, width = _UNIFORM_ROWS[chunk[0]]
                rows = map(row.__mod__,
                           zip(range(lo, hi), *(column[lo:hi] for column in columns[:width])))
            else:
                rows = map(mod, map(_MIXED_ROWS.__getitem__, chunk),
                           zip(range(lo, hi), *(column[lo:hi] for column in columns)))
            fh.write("".join(rows))


@contextmanager
def _open_utf8(path):
    """``path`` open as UTF-8 text; bytes that do not decode raise ContractViolation."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:  # raised where the reader pulls text
        raise ContractViolation(f"{path}: not UTF-8 text ({exc})") from exc


# packets.csv is read about this many characters (some 500 rows) at a time,
# plus the rest of the line they end in; blocks of 64K characters left the
# peak memory of `analyze` about 0.25 MB higher and saved no measurable time
_BLOCK_CHARS = 1 << 15

_ABSENT_CELL = {"": str(ABSENT_NS)}.get  # _ABSENT_CELL(cell, cell): "" reads as ABSENT_NS
# a drop_reason cell's code: "" is 0, each name its index in DROP_REASONS
_REASON_CODES = {why or "": code for code, why in enumerate(DROP_REASONS)}


def read_packets_csv(path) -> Packets:
    """Read packets.csv back into columns; an empty timestamp is ABSENT_NS.

    Lines end in CRLF or LF, blank lines are skipped, and the last line
    may lack its line end.  Rejects, with ContractViolation, bytes that are
    not UTF-8, a header other than PACKET_FIELDS, a malformed row, an
    ``id`` that is not the row index, a ``dropped`` flag that disagrees with
    ``drop_reason``, a ``drop_reason`` outside ``DROP_REASONS``, and a
    number too large for its column (64-bit timestamps, 32-bit sources).  A
    dropped row with a gate/device timestamp raises InvariantViolation.  No
    cell is ever quoted, so a ``"`` is rejected, and so is a carriage return
    that does not end a line.

    The file is read a block of lines at a time, and each block's checks
    and conversions run on whole columns; only a block that fails them is
    walked row by row, to name its first bad row.
    """
    packets = Packets()
    with _open_utf8(path) as fh:
        line = fh.readline()
        cells = line.rstrip("\r\n")  # csv.reader reads a blank line as []
        header = cells.split(",") if cells else [] if line else None
        if header != PACKET_FIELDS:
            raise ContractViolation(f"{path}: unexpected packet columns {header}")
        rows = 0
        while block := fh.read(_BLOCK_CHARS) + fh.readline():
            lines = list(filter(None, block.replace("\r\n", "\n").split("\n")))
            try:
                _add_rows(packets, lines, rows)
            except (ValueError, OverflowError) as exc:
                _reject_rows(path, lines, rows, exc)
            rows += len(lines)
    return packets


def _add_rows(packets: Packets, lines: list[str], first: int) -> None:
    """Append the rows ``lines``, the first of them row ``first``, to ``packets``.

    Every check is made on whole columns; a failed one raises ValueError
    or OverflowError, and ``packets`` is then left part-way through.
    """
    if not lines:
        return
    text = ",".join(lines)
    if set(map(str.count, lines, repeat(","))) != {8} or '"' in text or "\r" in text:
        raise ValueError("a row is not 9 plain cells")
    cells = text.split(",")
    pid, source, attack, a, t, start, end, dropped, why = (cells[k::9] for k in range(9))
    if any(map(ne, map(int, pid), count(first))):
        raise ValueError("an id is not its row index")
    n = len(lines)
    if why.count("") == n and dropped.count("0") == n:  # nothing dropped
        codes = bytes(n)
    else:
        flagged = list(map(truth, why))
        if list(map(truth, map(int, dropped))) != flagged:
            raise ValueError("a dropped flag disagrees with drop_reason")
        if not _REASON_CODES.keys() >= set(why):
            raise ValueError("a drop_reason is outside DROP_REASONS")
        # check_records' test, made on the cells: a cell of -1 would read
        # back as ABSENT_NS and pass it there
        if any(chain.from_iterable(compress(column, flagged) for column in (t, start, end))):
            raise ValueError("a dropped row has gate/device timestamps")
        codes = bytes(map(_REASON_CODES.__getitem__, why))
    packets.source.extend(map(int, source))
    packets.is_attack.extend(map(truth, map(int, attack)))
    packets.a_ns.extend(map(int, a))
    for column, cells in ((packets.t_ns, t), (packets.start_ns, start), (packets.end_ns, end)):
        column.extend(map(int, map(_ABSENT_CELL, cells, cells) if "" in cells else cells))
    packets.drop_reason.extend(codes)


def _reject_rows(path, lines: list[str], first: int, exc: Exception) -> NoReturn:
    """Raise for the first bad row of ``lines``, which ``_add_rows`` rejected with ``exc``.

    The rows are checked one by one, in the order of the message each fault
    gets; when every row passes, a number did not fit its column.
    """
    for index, line in enumerate(lines, first):
        if '"' in line or "\r" in line:
            raise ContractViolation(
                f"{path}: packet row {index} holds a quote or a carriage return "
                f"inside a line: {line!r}"
            )
        row = line.split(",")
        try:
            pid, source, attack, a, t, start, end, dropped, why = row
            if int(pid) != index:
                raise ValueError(f"id {pid} is not the row index {index}")
            if bool(int(dropped)) != bool(why):
                raise ValueError("dropped flag disagrees with drop_reason")
            if why not in _REASON_CODES:
                raise ValueError(f"drop_reason {why!r} of row {index} is not one of "
                                 f"{DROP_REASONS[1:]}")
            if why and (t or start or end):
                raise InvariantViolation(
                    f"packet {index}: dropped yet has gate/device timestamps"
                )
            for cell in (source, attack, a, *filter(None, (t, start, end))):
                int(cell)
        except ValueError as err:
            raise ContractViolation(f"{path}: bad packet row {row!r}: {err}") from err
    raise ContractViolation(
        f"{path}: a number in packet rows {first}..{first + len(lines) - 1} "
        f"does not fit its column ({exc})"
    ) from exc


def write_queues_csv(trace: TraceSeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_ns", "sqf_len", "server_len"])
        writer.writerows(zip(trace.times_ns, trace.sqf_counts, trace.server_counts))


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["time_ns", "sqf_a", "server_a", "sqf_b", "server_b", "server_ratio_a_over_b"]
        )
        writer.writerows(zip(
            comparison.times_ns,
            comparison.sqf_a,
            comparison.server_a,
            comparison.sqf_b,
            comparison.server_b,
            map("{:.6g}".format, comparison.ratios("server")),
        ))


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
    interval_ns: int = 100 * NS_PER_MS,
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
        interval_ns,
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
