"""Deterministic event-driven simulator for the gate + device pipeline.

The model is a two-stage tandem: packets from all sources arrive at a
shaping gate (optional -- omit the pacing config to model traffic hitting
the device directly), the gate forwards them FIFO with minimum spacing D,
and a single-server FIFO device processes them.  While the device's input
queue holds more packets than the scenario's congestion threshold, service
times are drawn from the degraded model.

Everything runs on integer nanoseconds, and only three future events can
exist at any moment: the next raw arrival, the gate's next release, and the
device's completion.  On ties the completion is processed first, then the
gate, then the arrival.

The simulator never uses the closed-form recursions from
:mod:`qdtp.recursions`; it advances explicit queue/busy state.  That makes
the exact agreement of the two routes (``verify_trace``) a real check
rather than a tautology.
"""
from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, fields
from itertools import compress, count, islice
from operator import gt, ne, sub
from typing import Callable, Iterable, Optional, Sequence

from . import metrics
from .errors import ConfigurationError, ContractViolation, InvariantViolation
from .mitigation import MitigationGate, MitigationPolicy
from .recursions import (
    ArrivalSequence,
    _lindley,
    _paced,
    qdtp_schedule,  # unused here; bench/selftest.py reaches it through this module
)
from .scenario import LabeledArrivals, Scenario, ServiceSampler, generate_arrivals
from .timebase import ABSENT_NS, s_to_ns

__all__ = [
    "ABSENT_NS",
    "Packets",
    "TraceSeries",
    "simulate",
    "simulate_sequences",
    "check_records",
    "verify_trace",
]

# Columns hold times below _NO_FIT.  No event reaches _INF, "no event":
# arrivals and D are checked to be below _NO_FIT, a release is a stored time
# plus D, and a service end is stored as soon as it is computed, so one past
# the columns fails there.  An int of this size compares as fast as 1 << 62.
_NO_FIT = 1 << 63
_INF = 1 << 64


def _is_array(column, typecode: str) -> bool:
    return isinstance(column, array) and column.typecode == typecode


@dataclass
class Packets:
    """The packet log as columns, one entry per packet; a packet's id is its index.

    Timestamps are nanoseconds in ``array('q')`` columns, ``source`` is an
    ``array('i')``, ``is_attack`` a ``bytearray`` of 0/1 and ``drop_reason``
    a list.  A packet is dropped exactly when its ``drop_reason`` is not
    None, and then its ``t_ns``, ``start_ns`` and ``end_ns`` hold
    ``ABSENT_NS``.  Without a gate, ``t_ns`` equals ``a_ns``.  Columns given
    as other sequences are converted once, here, with None in those three
    columns read as ``ABSENT_NS``; the CSV reader and the device stub then
    append to the arrays.
    """

    source: Sequence[int] = ()
    is_attack: Sequence[bool] = ()
    a_ns: Sequence[int] = ()
    t_ns: Sequence[Optional[int]] = ()
    start_ns: Sequence[Optional[int]] = ()
    end_ns: Sequence[Optional[int]] = ()
    drop_reason: Sequence[Optional[str]] = ()

    def __post_init__(self) -> None:
        if not _is_array(self.source, "i"):
            self.source = array("i", self.source)
        if not isinstance(self.is_attack, bytearray):
            self.is_attack = bytearray(self.is_attack)
        if not _is_array(self.a_ns, "q"):
            self.a_ns = array("q", self.a_ns)
        for name in ("t_ns", "start_ns", "end_ns"):
            column = getattr(self, name)
            if not _is_array(column, "q"):
                column = [ABSENT_NS if x is None else x for x in column]
                setattr(self, name, array("q", column))
        if not isinstance(self.drop_reason, list):
            self.drop_reason = list(self.drop_reason)
        lengths = {f.name: len(getattr(self, f.name)) for f in fields(self)}
        if len(set(lengths.values())) > 1:
            raise ContractViolation(f"packet columns differ in length: {lengths}")

    def __len__(self) -> int:
        return len(self.a_ns)


@dataclass
class TraceSeries:
    """One simulation run: sampled queue lengths plus the full packet log."""

    sampling_interval: float
    times_ns: tuple[int, ...]
    sqf_counts: tuple[int, ...]
    server_counts: tuple[int, ...]
    packets: Packets
    # the admitted packets' rows, selected once; ``packets`` itself when
    # nothing was dropped
    admitted: Packets
    d_ns: Optional[int] = None
    mitigation: Optional[tuple[int, int]] = None
    attack_window_ns: Optional[tuple[int, int]] = None
    seed: Optional[int] = None


def _trace(packets: Packets, sampling_interval: float, **rest) -> TraceSeries:
    """``packets`` as a TraceSeries; ``rest`` holds its other fields."""
    ids = metrics.admitted_ids(packets)
    kept = packets if ids is None else Packets(
        *(metrics.admitted(column, ids) for column in (
            packets.source, packets.is_attack, packets.a_ns,
            packets.t_ns, packets.start_ns, packets.end_ns)),
        [None] * len(ids),
    )
    grid, sqf_counts, server_counts = metrics.sample_queues(kept, sampling_interval)
    return TraceSeries(
        sampling_interval, grid, sqf_counts, server_counts, packets, kept, **rest
    )


def _check_interval(seconds: float) -> None:
    """Reject a sampling interval setting that is not finite or rounds to 0 ns."""
    if not math.isfinite(seconds) or s_to_ns(seconds) <= 0:
        raise ConfigurationError("sampling interval must be finite and at least 1 ns")


def _engine(
    labeled: LabeledArrivals,
    service_source: Callable[[int, bool], int],
    d_ns: Optional[int],
    mitigation,
    *,
    sampling_interval: float,
    congestion_threshold: int,
    attack_window_ns: Optional[tuple[int, int]],
    seed: Optional[int],
    sqf_capacity: Optional[int],
) -> TraceSeries:
    _check_interval(sampling_interval)
    use_gate = d_ns is not None
    if mitigation is not None and not use_gate:
        raise ConfigurationError("mitigation is defined in units of D; configure the gate")
    if sqf_capacity is not None and not use_gate:
        raise ConfigurationError("gate capacity without a gate")
    if use_gate and d_ns < 1:
        raise ConfigurationError(f"spacing D of {d_ns} ns is below 1 ns")

    d = d_ns if use_gate else 0
    at = labeled.arrivals.times_ns
    n = len(at)
    if d >= _NO_FIT or n and at[-1] >= _NO_FIT:
        raise ConfigurationError(
            f"spacing D of {d} ns or last arrival at {at[-1] if n else 0} ns "
            "does not fit in 64-bit nanoseconds"
        )
    gate_filter = None
    if mitigation is not None:
        gate_filter = MitigationGate(MitigationPolicy.coerce(mitigation), d)

    t_out = array("q", [ABSENT_NS]) * n
    ss_out = array("q", [ABSENT_NS]) * n
    se_out = array("q", [ABSENT_NS]) * n
    drop_reason: list[Optional[str]] = [None] * n

    gate_fifo: deque[int] = deque()
    gate_open = 0  # earliest instant the next release may happen
    gate_at = _INF  # pending release event
    server_fifo: deque[int] = deque()
    busy = -1  # packet index in service, -1 when idle
    done_at = _INF

    def start_service(j: int, now: int) -> None:
        nonlocal busy, done_at
        ss_out[j] = now
        busy = j
        done_at = now + service_source(j, len(server_fifo) + 1 > congestion_threshold)
        se_out[j] = done_at  # stored now, so an end past the columns fails at once

    def release(j: int, now: int) -> None:  # through the gate (if any) into the device
        nonlocal gate_open, gate_at
        t_out[j] = now
        gate_open = now + d
        gate_at = gate_open if gate_fifo else _INF
        if busy >= 0:
            server_fifo.append(j)
        else:
            start_service(j, now)

    i = now = 0
    next_arr = at[0] if n else _INF
    try:
        while True:
            if done_at <= gate_at and done_at <= next_arr:
                if done_at == _INF:
                    break
                now = done_at
                busy = -1
                done_at = _INF
                if server_fifo:
                    start_service(server_fifo.popleft(), now)
            elif gate_at <= next_arr:
                now = gate_at
                release(gate_fifo.popleft(), now)
            else:
                now = next_arr
                j = i
                i += 1
                next_arr = at[i] if i < n else _INF
                if gate_filter is not None and not gate_filter.step(now):
                    drop_reason[j] = "mitigation"
                    continue
                if use_gate:
                    if not gate_fifo and now >= gate_open:
                        release(j, now)
                    elif sqf_capacity is not None and len(gate_fifo) >= sqf_capacity:
                        drop_reason[j] = "capacity"
                    else:
                        gate_fifo.append(j)
                        if gate_at == _INF:
                            gate_at = gate_open
                else:
                    release(j, now)
    except OverflowError:  # a release (now) or a service end did not fit its column
        raise ConfigurationError(
            f"event time {now if now >= _NO_FIT else done_at} ns "
            "does not fit in 64-bit nanoseconds"
        ) from None

    if gate_fifo or server_fifo or busy >= 0:
        raise InvariantViolation("simulation ended with packets in flight")

    packets = Packets(
        labeled.source_ids, labeled.is_attack, at, t_out, ss_out, se_out, drop_reason
    )
    return _trace(
        packets,
        sampling_interval,
        d_ns=d_ns,
        mitigation=(
            (gate_filter.policy.n_threshold, gate_filter.policy.k_factor)
            if gate_filter is not None
            else None
        ),
        attack_window_ns=attack_window_ns,
        seed=seed,
    )


def simulate(
    s: Scenario,
    d_ns: Optional[int] = None,
    mitigation=None,
    *,
    sampling_interval: float = 0.1,
    sqf_capacity: Optional[int] = None,
) -> TraceSeries:
    """Run one scenario to completion (all generated packets resolved).

    ``d_ns=None`` models the unprotected device: traffic hits it directly.
    ``mitigation`` may be a MitigationPolicy or an (N, K) pair and requires
    a gate.  The run always continues past the scenario horizon until every
    queue drains, so traces are complete by construction.
    """
    labeled = generate_arrivals(s)
    sampler = ServiceSampler(s)
    return _engine(
        labeled,
        lambda _j, congested: sampler.draw_ns(congested),
        d_ns,
        mitigation,
        sampling_interval=sampling_interval,
        congestion_threshold=s.congestion_threshold,
        attack_window_ns=s.attack_window_ns,
        seed=s.seed,
        sqf_capacity=sqf_capacity,
    )


def simulate_sequences(
    arrivals_ns: Sequence[int],
    services_ns: Sequence[int],
    d_ns: Optional[int] = None,
    mitigation=None,
    *,
    sampling_interval: float = 0.1,
    congestion_threshold: int = 100,
    sqf_capacity: Optional[int] = None,
) -> TraceSeries:
    """Run the engine on explicit arrival/service sequences, in nanoseconds.

    ``services_ns[i]`` belongs to packet ``i`` whether or not earlier
    packets are dropped; drops simply leave their duration unused.  Handy
    for pinning the simulator against hand-computed examples.
    """
    a = ArrivalSequence(arrivals_ns)
    if len(a) != len(services_ns):
        raise ContractViolation("need one service duration per arrival")
    if min(services_ns, default=1) <= 0:
        raise ContractViolation("service durations must be positive")
    labeled = LabeledArrivals(
        arrivals=a,
        source_ids=array("i", [0]) * len(a),
        is_attack=bytearray(len(a)),
    )
    return _engine(
        labeled,
        lambda j, _congested: services_ns[j],
        d_ns,
        mitigation,
        sampling_interval=sampling_interval,
        congestion_threshold=congestion_threshold,
        attack_window_ns=None,
        seed=None,
        sqf_capacity=sqf_capacity,
    )


def _match(name: str, expected: Iterable[int], recorded: Iterable[int], packets) -> None:
    """Raise naming the first packet where a recursion and the trace differ."""
    for k, (want, got) in enumerate(zip(expected, recorded)):
        if want != got:
            ids = metrics.admitted_ids(packets)
            raise InvariantViolation(
                f"{name} disagrees with the trace at packet {k if ids is None else ids[k]}: "
                f"expected {want} ns, recorded {got} ns"
            )


def check_records(packets: Packets) -> None:
    """Check a packet log's consistency.

    Arrivals never decrease, dropped packets included.  Drop reasons match
    the timestamps, ``a <= t <= start <= end``, FIFO order holds and
    services never overlap, all in one walk of the columns.  So the
    admitted packets' ``a``, ``t`` and ``end`` are each sorted.  No arrival
    is negative, which with the order bounds every timestamp.  No recursion
    is replayed, so live recordings pass too.  Raises InvariantViolation on
    the first failure.
    """
    arrivals = packets.a_ns
    late = next(compress(count(1), map(gt, arrivals, islice(arrivals, 1, None))), None)
    if late is not None:
        raise InvariantViolation(
            f"packet {late}: arrivals out of order: a={arrivals[late]} ns after "
            f"the previous packet's a={arrivals[late - 1]} ns"
        )
    if arrivals and arrivals[0] < 0:
        raise InvariantViolation(f"packet 0: negative arrival time {arrivals[0]} ns")
    prev_t = prev_start = prev_end = None  # the previous admitted packet's
    columns = zip(packets.a_ns, packets.t_ns, packets.start_ns, packets.end_ns,
                  packets.drop_reason)
    for pid, (a, t, start, end, why) in enumerate(columns):
        if why is not None:
            if why not in ("mitigation", "capacity"):
                raise InvariantViolation(f"packet {pid}: dropped with reason {why!r}")
            if t != ABSENT_NS or start != ABSENT_NS or end != ABSENT_NS:
                raise InvariantViolation(f"packet {pid}: dropped yet has gate/device timestamps")
            continue
        if not (a <= t <= start <= end):  # a missing one fails too: ABSENT_NS < 0 <= a
            what = ("admitted packet missing timestamps" if ABSENT_NS in (t, start, end)
                    else "packet timestamps out of order")
            raise InvariantViolation(
                f"packet {pid}: {what}: a={a}, t={t}, start={start}, end={end} ns"
            )
        if prev_t is not None:
            if t < prev_t or start < prev_start:
                raise InvariantViolation(
                    f"packet {pid}: FIFO order violated: t={t}, start={start} ns after "
                    f"the previous admitted packet's t={prev_t}, start={prev_start} ns"
                )
            if start < prev_end:
                raise InvariantViolation(
                    f"packet {pid}: service overlap at the device: start={start} ns "
                    f"before the previous admitted packet's end={prev_end} ns"
                )
        prev_t, prev_start, prev_end = t, start, end


def verify_trace(trace: TraceSeries) -> None:
    """Cross-check a finished run against the closed-form recursions.

    The packet log must pass :func:`check_records`.  The admitted packets
    (``trace.admitted``, selected from the log when the trace was built) have
    their releases replayed from their arrivals by the loop behind
    ``qdtp_schedule`` (without a gate, ``t`` must equal ``a``), and their
    device waits from the recorded ``t`` and services by the loop behind
    ``server_waits`` (``lindley_waits`` without a gate).  Both must agree with
    the trace to the nanosecond, pair by pair as they stream; a mismatch
    names the recursion, the first diverging packet id and both values.
    """
    check_records(trace.packets)
    kept = trace.admitted
    a, t, start, end = kept.a_ns, kept.t_ns, kept.start_ns, kept.end_ns

    # simulate_sequences' check on services; check_records ordered the arrivals
    if min(map(sub, end, start), default=1) <= 0:
        raise ContractViolation("service durations must be positive")
    if trace.d_ns is not None:
        _match("qdtp_schedule", _paced(a, trace.d_ns), t, trace.packets)
        name = "server_waits"
    else:
        if any(map(ne, t, a)):
            raise InvariantViolation("no gate configured yet t differs from a")
        name = "lindley_waits"
    _match(name, _lindley(t, map(sub, end, start)), map(sub, start, t), trace.packets)
