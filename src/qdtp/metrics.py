"""Measurement helpers: summary statistics, queue sampling, histograms.

A packet log is a ``simulator.Packets``: per-packet columns (``a_ns``,
``t_ns``, ``start_ns``, ``end_ns``, ``drop_reason``, ...), whether the
engine filled them or ``artifacts.read_packets_csv`` read them back.
Nothing here validates a log: ``simulator.check_records`` does, first.

Every occupancy and delay figure reads the admitted packets, which the
trace selects once (``TraceSeries.admitted``, the log itself when nothing
was dropped).  :func:`queue_intervals` names the columns that bound each
queue; sampling, exact peak, drain time and the occupancy integral (one
sweep per queue, in the child process that :func:`run_summary` forks)
read them in place.  They never need a sort: ``check_records`` orders them.
"""
from __future__ import annotations

import math
import statistics
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import sub, truediv
from typing import Iterable, Optional, Sequence

from .errors import ConfigurationError, ContractViolation
from .forked import Forked
from .timebase import ns_to_s, s_to_ns

__all__ = [
    "SummaryStats",
    "RunComparison",
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


def _nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    idx = math.ceil(p * len(sorted_values)) - 1
    if idx < 0:
        idx = 0
    return sorted_values[idx]


def summarize(values: Iterable[float]) -> SummaryStats:
    """Summary statistics; population variance, nearest-rank percentiles."""
    data = sorted(values)
    if not data:
        raise ContractViolation("cannot summarize an empty sample")
    mean = statistics.fmean(data)
    if data[0] == data[-1]:
        variance = 0.0  # constant sample; avoids float-summation dust
    else:
        # keep (x - mean) ** 2: it calls libm pow, and d * d differs from
        # pow(d, 2) in the last bit for some d, which would change
        # summary.json (see CHANGES.md for the measured share)
        variance = math.fsum((x - mean) ** 2 for x in data) / len(data)
    return SummaryStats(
        count=len(data),
        mean=mean,
        variance=variance,
        minimum=data[0],
        maximum=data[-1],
        p50=_nearest_rank(data, 0.50),
        p95=_nearest_rank(data, 0.95),
        p99=_nearest_rank(data, 0.99),
        p999=_nearest_rank(data, 0.999),
    )


def admitted_ids(packets) -> Optional[array]:
    """Ids of the packets whose ``drop_reason`` is None; None when none was dropped."""
    reasons = packets.drop_reason
    if reasons.count(None) == len(reasons):
        return None
    return array("q", [pid for pid, why in enumerate(reasons) if why is None])


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
) -> list[int]:
    """Occupancy at each grid instant: entries so far minus exits so far.

    ``entries`` and ``exits`` must be sorted.  An exit at exactly the grid
    instant has already left (intervals are half-open on the right).
    """
    return [
        bisect_right(entries, g) - bisect_right(exits, g) for g in grid_ns
    ]


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


def sample_queues(
    admitted, interval: float
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Sample both queues' occupancy every ``interval`` seconds from zero.

    ``admitted`` holds only admitted packets, as :func:`queue_intervals`
    reads them.  Returns ``(grid_ns, sqf_counts, server_counts)``.  The grid
    extends one step past the last service end, the last exit from either
    queue, so both series return to zero.  An empty packet log yields the
    single grid instant 0.  A grid of more than MAX_SAMPLE_POINTS instants
    raises ConfigurationError naming the smallest interval that fits.
    """
    interval_ns = s_to_ns(interval) if math.isfinite(interval) else 0
    if interval_ns <= 0:
        raise ContractViolation("sampling interval must be positive")
    last = admitted.end_ns[-1] if len(admitted) else 0
    points = -(-last // interval_ns) + 1
    if points > MAX_SAMPLE_POINTS:
        fits_ns = -(-last // (MAX_SAMPLE_POINTS - 1))
        raise ConfigurationError(
            f"sampling interval of {interval * 1e3:.15g} ms takes {points} queue samples "
            f"up to {last} ns, more than MAX_SAMPLE_POINTS ({MAX_SAMPLE_POINTS}); "
            f"the smallest interval that fits is {fits_ns / 1e6!r} ms"
        )
    grid = [k * interval_ns for k in range(points)]
    intervals = queue_intervals(admitted)
    return (
        tuple(grid),
        tuple(occupancy_counts(*intervals["sqf"], grid)),
        tuple(occupancy_counts(*intervals["server"], grid)),
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
    attack, it is the last benign exit (see ROADMAP.md, item 6).  Zero when
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


@dataclass(frozen=True)
class RunComparison:
    """Pointwise queue-length comparison of two runs on a shared grid."""

    interval: float
    times_ns: tuple[int, ...]
    sqf_a: tuple[int, ...]
    sqf_b: tuple[int, ...]
    server_a: tuple[int, ...]
    server_b: tuple[int, ...]

    def ratios(self, queue: str) -> list[float]:
        """Per-sample a/b ratio; 1 when both empty, inf when only b is."""
        xs = self.sqf_a if queue == "sqf" else self.server_a
        ys = self.sqf_b if queue == "sqf" else self.server_b
        out = []
        for x, y in zip(xs, ys):
            if y == 0:
                out.append(1.0 if x == 0 else math.inf)
            else:
                out.append(x / y)
        return out

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
    ref = sorted(reference)
    if not ref:
        raise ContractViolation("cannot bin an empty sample")
    iqr = _nearest_rank(ref, 0.75) - _nearest_rank(ref, 0.25)
    width = 2.0 * iqr / len(ref) ** (1.0 / 3.0)
    lo, hi = ref[0], ref[-1]
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
    counts = [0] * (len(edges) - 1)
    for v in values:
        idx = bisect_right(edges, v) - 1
        if idx < 0:
            idx = 0
        elif idx >= len(counts):
            idx = len(counts) - 1
        counts[idx] += 1
    return counts


def _maybe_summary_ms(values: Iterable[float]) -> Optional[dict]:
    values = iter(values)
    first = next(values, None)
    return None if first is None else summarize(chain((first,), values)).to_ms_dict()


def _seconds(later, earlier, rows=None):
    """(later - earlier) / 1e9 per packet, no Python loop; ``rows`` selects packets."""
    if rows is not None:
        later, earlier = compress(later, rows), compress(earlier, rows)
    return map(truediv, map(sub, later, earlier), repeat(1e9))


def _whole_run_summary(trace) -> dict:
    """``run_summary``'s packet counts, config, whole-run samples and spacing advisor."""
    p, kept = trace.packets, trace.admitted
    a, t, start, end = kept.a_ns, kept.t_ns, kept.start_ns, kept.end_ns
    drops = Counter(p.drop_reason)
    completed = drops.pop(None, 0)
    services = _maybe_summary_ms(_seconds(end, start))
    summary = {
        "packets": {
            "total": len(p),
            "completed": completed,
            "dropped": sum(drops.values()),
            "drop_reasons": dict(drops),
        },
        "config": {
            "d_ms": trace.d_ns / 1e6 if trace.d_ns is not None else None,
            "mitigation": list(trace.mitigation) if trace.mitigation else None,
            "seed": trace.seed,
            "sampling_interval_s": trace.sampling_interval,
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
    baseline = [not atk and x < start_ns for atk, x in zip(attack, a)]
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


def _pad(counts: Sequence[int], n: int) -> tuple[int, ...]:
    return tuple(counts) + (0,) * (n - len(counts))


def compare_runs(a, b) -> RunComparison:
    """Line up two traces' queue series on one grid.

    Both traces must have been sampled with the same interval; the shorter
    series are zero-padded, since a drained queue simply stays empty.
    """
    if a.sampling_interval != b.sampling_interval:
        raise ContractViolation("runs were sampled on different grids")
    n = max(len(a.times_ns), len(b.times_ns))
    interval_ns = s_to_ns(a.sampling_interval)
    return RunComparison(
        interval=a.sampling_interval,
        times_ns=tuple(k * interval_ns for k in range(n)),
        sqf_a=_pad(a.sqf_counts, n),
        sqf_b=_pad(b.sqf_counts, n),
        server_a=_pad(a.server_counts, n),
        server_b=_pad(b.server_counts, n),
    )
