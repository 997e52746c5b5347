"""Measurement helpers: summary statistics, queue sampling, histograms.

A packet log is a ``simulator.Packets``: per-packet columns (``a_ns``,
``t_ns``, ``start_ns``, ``end_ns``, ``drop_reason``, ...), whether the
engine filled them or ``artifacts.read_packets_csv`` read them back.
Nothing here validates a log: ``simulator.check_records`` does, first.
The queue series (:func:`sample_queues`, :func:`compare_runs`) are
``array('q')`` columns too, so no per-packet or per-sample value is a
Python object of its own.

Every occupancy and delay figure reads the admitted packets, which the
trace selects once (``TraceSeries.admitted``, the log itself when nothing
was dropped).  :func:`queue_intervals` names the columns that bound each
queue; sampling, exact peak, drain time and the occupancy integral (one
sweep per queue, in the child process that :func:`run_summary` forks)
read them in place.  They never need a sort: ``check_records`` orders them.

No sample is held as a list of floats.  :func:`summarize` sorts a sample in
runs of ``SORT_RUN`` values into one ``array('d')`` and reads its
percentiles as exact order statistics across the runs; its mean and
variance are ``math.fsum`` sums, exact in any order.  So the numbers are
those of one sorted list, bit for bit.  :func:`histogram_counts` bins with
a C-level ``bisect_right`` per value.
"""
from __future__ import annotations

import math
import statistics
import struct
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import not_, sub, truediv
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ConfigurationError, ContractViolation
from .forked import Forked
from .timebase import DROP_REASONS, ns_to_s

__all__ = [
    "SummaryStats",
    "RunComparison",
    "SORT_RUN",
    "summarize",
    "admitted_ids",
    "admitted",
    "queue_intervals",
    "MAX_SAMPLE_POINTS",
    "sample_queues",
    "occupancy_counts",
    "littles_law_check",
    "drain_time",
    "compare_runs",
    "MAX_HISTOGRAM_BINS",
    "fd_bin_edges",
    "histogram_counts",
    "run_summary",
]


@dataclass(frozen=True)
class SummaryStats:
    """Moments and nearest-rank percentiles of a sample (seconds)."""

    count: int
    mean: float
    variance: float  # population variance
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float
    p999: float

    def to_ms_dict(self) -> dict:
        """The same numbers in milliseconds (variance in ms^2)."""
        return {
            "count": self.count,
            "mean_ms": self.mean * 1e3,
            "variance_ms2": self.variance * 1e6,
            "min_ms": self.minimum * 1e3,
            "max_ms": self.maximum * 1e3,
            "p50_ms": self.p50 * 1e3,
            "p95_ms": self.p95 * 1e3,
            "p99_ms": self.p99 * 1e3,
            "p999_ms": self.p999 * 1e3,
        }


# summarize sorts its sample in runs of this many values, into one
# array('d'), and reads each order statistic across the runs; the only
# per-value Python objects alive at once are one run's
SORT_RUN = 4096

_DOUBLE, _BITS = struct.Struct("<d"), struct.Struct("<Q")
_SIGN, _ALL = 1 << 63, (1 << 64) - 1


def _key(x: float) -> int:
    """An int that orders as the non-NaN double ``x`` does (-0.0 just below 0.0)."""
    bits = _BITS.unpack(_DOUBLE.pack(x))[0]
    return bits ^ _ALL if bits & _SIGN else bits | _SIGN


def _from_key(key: int) -> float:
    return _DOUBLE.unpack(_BITS.pack(key ^ _SIGN if key & _SIGN else key ^ _ALL))[0]


_KEY_RANGE = (_key(-math.inf), _key(math.inf))


def _sorted_runs(values: Iterable[float]) -> array:
    """``values`` in one array('d'), each run of SORT_RUN values sorted."""
    data, values = array("d"), iter(values)
    while run := sorted(islice(values, SORT_RUN)):
        data.extend(run)
    return data


def _order_statistic(runs: array, rank: int) -> float:
    """The value a stable sort of the whole sample puts at ``rank`` (0-based).

    Bisects over the doubles' bit patterns for the smallest value with more
    than ``rank`` values at or below it, counting with one ``bisect_right``
    per run; each run's search narrows to the window the earlier steps left.
    Then it takes the occurrence of that value the stable sort would put
    there, so even the sign of a zero is the one the sample holds there.
    """
    n = len(runs)
    lows = range(0, n, SORT_RUN)
    highs = [min(lo + SORT_RUN, n) for lo in lows]
    before = sum(lows)  # bisect gives positions in the array, not in the run
    lo, hi = _KEY_RANGE
    while lo < hi:
        mid = (lo + hi) // 2
        ends = list(map(bisect_right, repeat(runs), repeat(_from_key(mid)), lows, highs))
        if sum(ends) - before > rank:
            hi, highs = mid, ends
        else:
            lo, lows = mid + 1, ends
    # highs are now where each run's values above x start
    x = _from_key(lo)
    firsts = list(map(bisect_left, repeat(runs), repeat(x), lows, highs))
    nth = rank + before - sum(firsts)
    for first, end in zip(firsts, highs):
        if nth < end - first:
            break
        nth -= end - first
    return runs[first + nth]


def _nearest_rank(runs: array, p: float) -> float:
    return _order_statistic(runs, max(math.ceil(p * len(runs)) - 1, 0))


def summarize(values: Iterable[float]) -> SummaryStats:
    """Summary statistics; population variance, nearest-rank percentiles."""
    return _summary(_sorted_runs(values))


def _summary(runs: array) -> SummaryStats:
    """``summarize`` of a sample already sorted in runs (``_sorted_runs``)."""
    if not runs:
        raise ContractViolation("cannot summarize an empty sample")
    # fsum is exact, so neither sum depends on the order of the values
    mean = statistics.fmean(runs)
    if math.isnan(mean):
        raise ContractViolation("cannot summarize a sample holding NaN")
    minimum, maximum = _order_statistic(runs, 0), _order_statistic(runs, len(runs) - 1)
    if minimum == maximum:
        variance = 0.0  # constant sample; avoids float-summation dust
    else:
        # pow(x - mean, 2), not d * d: it calls libm pow, and d * d differs
        # from pow(d, 2) in the last bit for some d, which would change
        # summary.json (see CHANGES.md for the measured share)
        variance = math.fsum(map(pow, map(sub, runs, repeat(mean)), repeat(2))) / len(runs)
    return SummaryStats(
        count=len(runs),
        mean=mean,
        variance=variance,
        minimum=minimum,
        maximum=maximum,
        p50=_nearest_rank(runs, 0.50),
        p95=_nearest_rank(runs, 0.95),
        p99=_nearest_rank(runs, 0.99),
        p999=_nearest_rank(runs, 0.999),
    )


def admitted_ids(packets) -> Optional[array]:
    """Ids of the packets whose ``drop_reason`` code is 0, in an array('q').

    None when none was dropped.  Both the count and the selection read the
    bytearray of codes at C level.
    """
    reasons = packets.drop_reason
    if reasons.count(0) == len(reasons):
        return None
    return array("q", compress(range(len(reasons)), map(not_, reasons)))


def admitted(column, ids: Optional[array]):
    """``column``'s entries for the admitted packets, as a column of its own type.

    ``ids`` is what :func:`admitted_ids` returns; without ids (nothing was
    dropped) this is ``column`` itself, not a copy.  The cost follows the
    number of admitted packets, not the length of the log.
    """
    if ids is None:
        return column
    kept = column[:0]
    kept.extend(map(column.__getitem__, ids))
    return kept


def queue_intervals(admitted) -> dict[str, tuple[array, array]]:
    """Each queue's sorted (entries, exits): columns of the admitted packets.

    The shaping gate holds a packet on ``[a, t)``; the device holds it on
    ``[t, service_end)`` -- a packet in service still occupies the device.
    The gate's exits are the device's entries, so the two share one column.
    ``admitted`` holds only admitted packets (``TraceSeries.admitted``), whose
    ``a``, ``t`` and ``end`` are each sorted once the log passes
    ``simulator.check_records``.
    """
    return {"sqf": (admitted.a_ns, admitted.t_ns), "server": (admitted.t_ns, admitted.end_ns)}


def occupancy_counts(
    entries: Sequence[int], exits: Sequence[int], grid_ns: Sequence[int]
) -> array:
    """Occupancy at each grid instant, in an array('q'): entries so far minus exits so far.

    ``entries`` and ``exits`` must be sorted.  An exit at exactly the grid
    instant has already left (intervals are half-open on the right).
    """
    return array("q", map(sub, map(bisect_right, repeat(entries), grid_ns),
                          map(bisect_right, repeat(exits), grid_ns)))


def _sweep(entries: Sequence[int], exits: Sequence[int]) -> tuple[int, int]:
    """Exact peak and time integral of occupancy, in one sorted merge.

    The loop walks the entries; before each one, the exits at or before it
    leave (intervals are half-open), and the exits left over leave last.
    """
    peak = level = integral = prev = 0
    j, m = 0, len(exits)
    x = exits[0] if m else math.inf  # the next exit
    for e in entries:
        while x <= e:
            integral += level * (x - prev)
            level -= 1
            prev = x
            j += 1
            x = exits[j] if j < m else math.inf
        integral += level * (e - prev)
        level += 1
        if level > peak:
            peak = level
        prev = e
    for x in islice(exits, j, None):
        integral += level * (x - prev)
        level -= 1
        prev = x
    return peak, integral


# the most instants sample_queues samples at; the bundled runs take at most
# 40,230, and a run of scenario times near 2**63 ns would take billions
MAX_SAMPLE_POINTS = 1_000_000


def sample_queues(admitted, interval_ns: int) -> tuple[array, array, array]:
    """Sample both queues' occupancy every ``interval_ns`` from zero.

    ``admitted`` holds only admitted packets, as :func:`queue_intervals`
    reads them.  Returns ``(grid_ns, sqf_counts, server_counts)``, three
    ``array('q')`` columns.  The grid extends one step past the last service
    end, the last exit from either queue, so both series return to zero.  An
    empty packet log yields the single grid instant 0.  A grid of more than
    MAX_SAMPLE_POINTS instants raises ConfigurationError naming the smallest
    interval that fits, and so does a grid whose last instant does not fit
    in 64-bit nanoseconds.
    """
    if not (isinstance(interval_ns, int) and interval_ns >= 1):
        raise ContractViolation(f"sampling interval of {interval_ns!r} ns is not an int >= 1")
    last = admitted.end_ns[-1] if len(admitted) else 0
    points = -(-last // interval_ns) + 1
    if points > MAX_SAMPLE_POINTS:
        fits_ns = -(-last // (MAX_SAMPLE_POINTS - 1))
        raise ConfigurationError(
            f"sampling interval of {interval_ns / 1e6:.15g} ms takes {points} queue samples "
            f"up to {last} ns, more than MAX_SAMPLE_POINTS ({MAX_SAMPLE_POINTS}); "
            f"the smallest interval that fits is {fits_ns / 1e6!r} ms"
        )
    if (points - 1) * interval_ns >> 63:
        raise ConfigurationError(
            f"sampling interval of {interval_ns / 1e6:.15g} ms puts the last of {points} "
            "queue samples past 64-bit nanoseconds"
        )
    grid = array("q", range(0, points * interval_ns, interval_ns))
    intervals = queue_intervals(admitted)
    return (
        grid,
        occupancy_counts(*intervals["sqf"], grid),
        occupancy_counts(*intervals["server"], grid),
    )


def littles_law_check(entries: Sequence[int], exits: Sequence[int]) -> dict:
    """Integrated occupancy and summed sojourn time, with the exact peak.

    This computes an accounting identity; it is not a check.  For sorted
    integer entries and exits of equal length the time integral of the
    queue length equals the sum of exits minus the sum of entries, so
    ``ok`` is always true, whatever the trace.  Returns both sides, ``ok``
    and the exact peak occupancy the same merge yields.
    """
    dwell_sum = sum(exits) - sum(entries)
    peak, integral = _sweep(entries, exits)
    return {
        "peak": peak,
        "occupancy_integral_ns": integral,
        "sojourn_sum_ns": dwell_sum,
        "ok": integral == dwell_sum,
    }


def drain_time(trace, queue: str = "server") -> float:
    """Seconds from the end of the attack window to the queue's last exit.

    That is the last exit of the whole run, not the first instant the queue
    is empty after the attack: when benign traffic goes on after the
    attack, it is the last benign exit (see ROADMAP.md, item 4).  Zero when
    there is no attack or no exit falls after the attack's end.
    """
    intervals = queue_intervals(trace.admitted)
    if queue not in intervals:
        raise ContractViolation(f"unknown queue {queue!r}")
    exits = intervals[queue][1]
    if trace.attack_window_ns is None or not exits:
        return 0.0
    overrun = exits[-1] - trace.attack_window_ns[1]
    return ns_to_s(overrun) if overrun > 0 else 0.0


def _ratio(x: int, y: int) -> float:
    if y == 0:
        return 1.0 if x == 0 else math.inf
    return x / y


@dataclass(frozen=True)
class RunComparison:
    """Pointwise queue-length comparison of two runs on a shared grid.

    The grid and the four series are ``array('q')`` columns of one length.
    """

    interval_ns: int
    times_ns: array
    sqf_a: array
    sqf_b: array
    server_a: array
    server_b: array

    def ratios(self, queue: str) -> Iterator[float]:
        """Per-sample a/b ratio, streamed; 1 when both empty, inf when only b is."""
        if queue == "sqf":
            return map(_ratio, self.sqf_a, self.sqf_b)
        return map(_ratio, self.server_a, self.server_b)

    @property
    def peak_server_a(self) -> int:
        return max(self.server_a) if self.server_a else 0

    @property
    def peak_server_b(self) -> int:
        return max(self.server_b) if self.server_b else 0


# the most bins fd_bin_edges gives; a flood's sojourns span orders of
# magnitude, and fixed-width bins over them would number in the millions
MAX_HISTOGRAM_BINS = 1000


def fd_bin_edges(
    reference: Sequence[float], cover: Optional[Sequence[float]] = None
) -> list[float]:
    """Histogram edges, width from Freedman-Diaconis, at most MAX_HISTOGRAM_BINS bins.

    The width is sized on the reference sample; the edge range is extended
    to also cover ``cover``, so a second sample can be binned on the same
    grid and the two histograms stay visually aligned.  When fixed-width
    bins would outnumber the cap, there are MAX_HISTOGRAM_BINS bins instead,
    their edges log-spaced from the lowest value to the highest.
    """
    ref = _sorted_runs(reference)
    if not ref:
        raise ContractViolation("cannot bin an empty sample")
    iqr = _nearest_rank(ref, 0.75) - _nearest_rank(ref, 0.25)
    width = 2.0 * iqr / len(ref) ** (1.0 / 3.0)
    lo, hi = _order_statistic(ref, 0), _order_statistic(ref, len(ref) - 1)
    if cover:
        lo = min(lo, min(cover))
        hi = max(hi, max(cover))
    if width <= 0:
        # degenerate (near-constant) sample: one bin covering everything
        width = (hi - lo) or max(abs(hi), 1e-9)
    steps = max(1, math.ceil((hi - lo) / width + 1e-12))
    if steps <= MAX_HISTOGRAM_BINS:
        return [lo + k * width for k in range(steps + 1)]
    # x - lo + base grows geometrically from base to hi - lo + base; base is
    # lo itself (plain log spacing) unless lo is below the width, e.g. zero
    base = max(lo, width)
    growth, n = (hi - lo + base) / base, MAX_HISTOGRAM_BINS
    return [lo, *(lo - base + base * growth ** (k / n) for k in range(1, n)), hi]


def histogram_counts(values: Iterable[float], edges: Sequence[float]) -> list[int]:
    """Counts per bin; the top edge is inclusive, out-of-range is clipped."""
    if len(edges) < 2:
        raise ContractViolation("need at least one bin")
    # bisect_right is 0 below the lowest edge and len(edges) from the top one up
    found = Counter(map(bisect_right, repeat(edges), values))
    counts = [found[k] for k in range(1, len(edges))]
    counts[0] += found[0]
    counts[-1] += found[len(edges)]
    return counts


def _maybe_summary_ms(values: Iterable[float]) -> Optional[dict]:
    runs = _sorted_runs(values)
    return _summary(runs).to_ms_dict() if runs else None


def _seconds(later, earlier, rows=None):
    """(later - earlier) / 1e9 per packet, no Python loop; ``rows`` selects packets."""
    if rows is not None:
        later, earlier = compress(later, rows), compress(earlier, rows)
    return map(truediv, map(sub, later, earlier), repeat(1e9))


def _whole_run_summary(trace) -> dict:
    """``run_summary``'s packet counts, config, whole-run samples and spacing advisor."""
    p, kept = trace.packets, trace.admitted
    a, t, start, end = kept.a_ns, kept.t_ns, kept.start_ns, kept.end_ns
    completed, *dropped = map(p.drop_reason.count, range(len(DROP_REASONS)))
    services = _maybe_summary_ms(_seconds(end, start))
    summary = {
        "packets": {
            "total": len(p),
            "completed": completed,
            "dropped": sum(dropped),
            "drop_reasons": {why: k for why, k in zip(DROP_REASONS[1:], dropped) if k},
        },
        "config": {
            "d_ms": trace.d_ns / 1e6 if trace.d_ns is not None else None,
            "mitigation": list(trace.mitigation) if trace.mitigation else None,
            "seed": trace.seed,
            "sampling_interval_s": ns_to_s(trace.interval_ns),
        },
        "service_ms": services,
        "server_wait_ms": _maybe_summary_ms(_seconds(start, t)),
        "server_sojourn_ms": _maybe_summary_ms(_seconds(end, t)),
        "total_delay_ms": _maybe_summary_ms(_seconds(end, a)),
    }
    if trace.d_ns is not None:
        summary["gate_delay_ms"] = _maybe_summary_ms(_seconds(t, a))

    # spacing advisor: the smallest D that keeps the device idle is just
    # above the largest processing time seen in this run
    if services:
        max_service_ms = services["max_ms"]
        summary["spacing_advisor"] = {
            "max_service_ms": max_service_ms,
            "suggested_d_ms": round(max_service_ms * 1.01, 4),
            "d_exceeds_max_service": (
                trace.d_ns > max(map(sub, end, start))
                if trace.d_ns is not None
                else None
            ),
        }
    else:
        summary["spacing_advisor"] = None
    return summary


def _benign_before(is_attack, a_ns, start_ns: int) -> bytearray:
    """Selectors of the benign packets that arrived before ``start_ns``.

    ``a_ns`` is sorted, so those packets are among the first
    ``bisect_left(a_ns, start_ns)``; the selectors stop there, and
    ``itertools.compress`` stops with them.
    """
    return bytearray(map(not_, is_attack[:bisect_left(a_ns, start_ns)]))


def _queues_and_attack_summary(trace) -> dict:
    """``run_summary``'s ``queues`` (one sweep per queue) and ``attack`` sections."""
    kept = trace.admitted
    a, t, start, end, attack = kept.a_ns, kept.t_ns, kept.start_ns, kept.end_ns, kept.is_attack
    queues = {}
    for which, pair in queue_intervals(kept).items():
        law = littles_law_check(*pair)
        queues[which] = {
            "peak": law["peak"],
            "sampled_peak": max(getattr(trace, f"{which}_counts"), default=0),
            "drain_s": drain_time(trace, which),
            "littles_law_ok": law["ok"],
        }
    if trace.attack_window_ns is None:
        return {"queues": queues, "attack": None}
    start_ns, end_ns = trace.attack_window_ns
    baseline = _benign_before(attack, a, start_ns)
    return {
        "queues": queues,
        "attack": {
            "window_s": [start_ns / 1e9, end_ns / 1e9],
            "offered": sum(trace.packets.is_attack),
            "admitted": sum(attack),
            "baseline_sojourn_ms": _maybe_summary_ms(_seconds(end, t, baseline)),
            "attack_sojourn_ms": _maybe_summary_ms(_seconds(end, t, attack)),
            "baseline_service_ms": _maybe_summary_ms(_seconds(end, start, baseline)),
            "attack_service_ms": _maybe_summary_ms(_seconds(end, start, attack)),
        },
    }


def run_summary(trace) -> dict:
    """Aggregate one finished trace into the exported summary mapping.

    Everything downstream (CLI, acceptance checks, humans reading
    summary.json) consumes this; times are reported in milliseconds.
    Each sample lives only while its own statistics are computed.  The
    summary uses two cores: a forked child computes the ``queues`` and
    ``attack`` sections while this process computes the rest, both from
    ``trace.admitted``.
    """
    with Forked("summarizing the queues and the attack window",
                _queues_and_attack_summary, trace) as half:
        summary = _whole_run_summary(trace)
        summary.update(half.result())
    return summary


def _pad(counts: Sequence[int], n: int) -> array:
    return array("q", counts) + array("q", [0]) * (n - len(counts))


def compare_runs(a, b) -> RunComparison:
    """Line up two traces' queue series on one grid, as ``array('q')`` columns.

    Both traces must have been sampled with the same interval; the shorter
    series are zero-padded, since a drained queue simply stays empty.
    """
    if a.interval_ns != b.interval_ns:
        raise ContractViolation("runs were sampled on different grids")
    n = max(len(a.times_ns), len(b.times_ns))
    return RunComparison(
        interval_ns=a.interval_ns,
        times_ns=array("q", range(0, n * a.interval_ns, a.interval_ns)),
        sqf_a=_pad(a.sqf_counts, n),
        sqf_b=_pad(b.sqf_counts, n),
        server_a=_pad(a.server_counts, n),
        server_b=_pad(b.server_counts, n),
    )
