"""Measurement helpers: summary statistics, queue sampling, checks.

Records are duck-typed: anything with ``a_ns``, ``t_ns``, ``service_start_ns``,
``service_end_ns`` and ``dropped`` works, so the functions apply equally to
simulator output and to packet logs read back from disk.
"""
from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import ContractViolation
from .timebase import s_to_ns

__all__ = [
    "SummaryStats",
    "RunComparison",
    "summarize",
    "queue_intervals",
    "sample_queues",
    "occupancy_counts",
    "peak_occupancy",
    "littles_law_check",
    "compare_runs",
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


def queue_intervals(records, which: str) -> tuple[list[int], list[int]]:
    """Sorted (entries, exits) of one queue's occupancy intervals.

    The shaping gate holds a packet on ``[a, t)``; the device holds it on
    ``[t, service_end)`` -- a packet in service still occupies the device.
    Dropped packets occupy nothing.
    """
    if which not in ("sqf", "server"):
        raise ContractViolation(f"unknown queue {which!r}")
    entries: list[int] = []
    exits: list[int] = []
    for rec in records:
        if rec.dropped:
            continue
        if which == "sqf":
            enter, leave = rec.a_ns, rec.t_ns
        else:
            enter, leave = rec.t_ns, rec.service_end_ns
        if enter is None or leave is None:
            raise ContractViolation("record is missing queue timestamps")
        if leave < enter:
            raise ContractViolation("queue exit precedes entry")
        entries.append(enter)
        exits.append(leave)
    entries.sort()
    exits.sort()
    return entries, exits


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


def peak_occupancy(entries: Sequence[int], exits: Sequence[int]) -> int:
    """Exact maximum occupancy (not limited by any sampling grid)."""
    peak = 0
    level = 0
    i = j = 0
    n, m = len(entries), len(exits)
    while i < n:
        # exits at time <= next entry leave first (half-open intervals)
        if j < m and exits[j] <= entries[i]:
            level -= 1
            j += 1
        else:
            level += 1
            i += 1
            if level > peak:
                peak = level
    return peak


def sample_queues(
    records, interval: float
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Sample both queues' occupancy every ``interval`` seconds from zero.

    Returns ``(grid_ns, sqf_counts, server_counts)``.  The grid extends one
    step past the last exit from either queue, so both series return to
    zero.  An empty record set yields the single grid instant 0.
    """
    interval_ns = s_to_ns(interval)
    if interval_ns <= 0:
        raise ContractViolation("sampling interval must be positive")
    sqf_entries, sqf_exits = queue_intervals(records, "sqf")
    srv_entries, srv_exits = queue_intervals(records, "server")
    last = max(sqf_exits[-1] if sqf_exits else 0, srv_exits[-1] if srv_exits else 0)
    grid = [k * interval_ns for k in range(-(-last // interval_ns) + 1)]
    return (
        tuple(grid),
        tuple(occupancy_counts(sqf_entries, sqf_exits, grid)),
        tuple(occupancy_counts(srv_entries, srv_exits, grid)),
    )


def littles_law_check(records, which: str, *, tolerance: float = 1e-6) -> dict:
    """Compare integrated occupancy with summed sojourn time.

    For any finite trace the time integral of the queue length equals the
    sum of per-packet dwell times exactly; with integer timestamps the two
    integer sums must match to the nanosecond.  Returns both sides and the
    verdict.
    """
    entries, exits = queue_intervals(records, which)
    dwell_sum = sum(exits) - sum(entries)
    # integral of the step function via its jump points
    events = sorted([(t, +1) for t in entries] + [(t, -1) for t in exits])
    integral = 0
    level = 0
    prev = None
    for t, delta in events:
        if prev is not None:
            integral += level * (t - prev)
        level += delta
        prev = t
    ok = abs(integral - dwell_sum) <= tolerance * max(1, dwell_sum)
    return {
        "queue": which,
        "occupancy_integral_ns": integral,
        "sojourn_sum_ns": dwell_sum,
        "ok": ok,
    }


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


def fd_bin_edges(
    reference: Sequence[float], cover: Optional[Sequence[float]] = None
) -> list[float]:
    """Fixed-width histogram edges, width from Freedman-Diaconis.

    The width is sized on the reference sample; the edge range is extended
    to also cover ``cover``, so a second sample can be binned on the same
    grid and the two histograms stay visually aligned.
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
    return [lo + k * width for k in range(steps + 1)]


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


def _maybe_summary_ms(values: list) -> Optional[dict]:
    return summarize(values).to_ms_dict() if values else None


def run_summary(trace) -> dict:
    """Aggregate one finished trace into the exported summary mapping.

    Everything downstream (CLI, acceptance checks, humans reading
    summary.json) consumes this; times are reported in milliseconds.
    """
    from .simulator import drain_time  # local import to avoid a cycle

    records = trace.per_packet
    completed = [r for r in records if not r.dropped]
    drops: dict[str, int] = {}
    for r in records:
        if r.dropped:
            drops[r.drop_reason] = drops.get(r.drop_reason, 0) + 1

    services = [r.service_ns / 1e9 for r in completed]
    waits = [r.server_wait_ns / 1e9 for r in completed]
    sojourns = [r.sojourn_ns / 1e9 for r in completed]
    totals = [r.total_delay_ns / 1e9 for r in completed]

    summary = {
        "packets": {
            "total": len(records),
            "completed": len(completed),
            "dropped": sum(drops.values()),
            "drop_reasons": drops,
        },
        "config": {
            "d_ms": trace.d_ns / 1e6 if trace.d_ns is not None else None,
            "mitigation": list(trace.mitigation) if trace.mitigation else None,
            "seed": trace.seed,
            "sampling_interval_s": trace.sampling_interval,
        },
        "service_ms": _maybe_summary_ms(services),
        "server_wait_ms": _maybe_summary_ms(waits),
        "server_sojourn_ms": _maybe_summary_ms(sojourns),
        "total_delay_ms": _maybe_summary_ms(totals),
    }
    if trace.d_ns is not None:
        summary["gate_delay_ms"] = _maybe_summary_ms(
            [r.gate_delay_ns / 1e9 for r in completed]
        )

    queues = {}
    for which in ("sqf", "server"):
        entries, exits = queue_intervals(records, which)
        queues[which] = {
            "peak": peak_occupancy(entries, exits),
            "sampled_peak": max(
                getattr(trace, f"{which}_counts"), default=0
            ),
            "drain_s": drain_time(trace, which),
            "littles_law_ok": littles_law_check(records, which)["ok"],
        }
    summary["queues"] = queues

    if trace.attack_window_ns is not None:
        start_ns, end_ns = trace.attack_window_ns
        offered = [r for r in records if r.is_attack]
        admitted = [r for r in offered if not r.dropped]
        baseline = [r for r in completed if not r.is_attack and r.a_ns < start_ns]
        summary["attack"] = {
            "window_s": [start_ns / 1e9, end_ns / 1e9],
            "offered": len(offered),
            "admitted": len(admitted),
            "baseline_sojourn_ms": _maybe_summary_ms(
                [r.sojourn_ns / 1e9 for r in baseline]
            ),
            "attack_sojourn_ms": _maybe_summary_ms(
                [r.sojourn_ns / 1e9 for r in admitted]
            ),
            "baseline_service_ms": _maybe_summary_ms(
                [r.service_ns / 1e9 for r in baseline]
            ),
            "attack_service_ms": _maybe_summary_ms(
                [r.service_ns / 1e9 for r in admitted]
            ),
        }
    else:
        summary["attack"] = None

    # spacing advisor: the smallest D that keeps the device idle is just
    # above the largest processing time seen in this run
    if services:
        max_service_ms = max(services) * 1e3
        summary["spacing_advisor"] = {
            "max_service_ms": max_service_ms,
            "suggested_d_ms": round(max_service_ms * 1.01, 4),
            "d_exceeds_max_service": (
                trace.d_ns > max(r.service_ns for r in completed)
                if trace.d_ns is not None
                else None
            ),
        }
    else:
        summary["spacing_advisor"] = None
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
