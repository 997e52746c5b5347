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

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import metrics
from .errors import ConfigurationError, ContractViolation, InvariantViolation
from .mitigation import MitigationGate, MitigationPolicy
from .recursions import (
    ArrivalSequence,
    ConfigLike,
    QdtpConfig,
    ServiceSequence,
    _as_arrivals,
    _as_config,
    _as_services,
    lindley_waits,
    qdtp_delays_ns,
    qdtp_schedule,
    server_waits,
)
from .scenario import LabeledArrivals, Scenario, ServiceSampler, generate_arrivals
from .timebase import ns_to_s

__all__ = [
    "PacketRecord",
    "TraceSeries",
    "simulate",
    "simulate_sequences",
    "drain_time",
    "verify_trace",
]

_INF = 1 << 62


@dataclass(slots=True)
class PacketRecord:
    """Everything that happened to one packet.

    Timestamps are nanoseconds; ``t_ns`` onwards are None for dropped
    packets.  Without a gate, ``t_ns`` equals ``a_ns``.
    """

    id: int
    source: int
    is_attack: bool
    a_ns: int
    t_ns: Optional[int]
    service_start_ns: Optional[int]
    service_end_ns: Optional[int]
    dropped: bool
    drop_reason: Optional[str]

    @property
    def gate_delay_ns(self) -> Optional[int]:
        if self.t_ns is None:
            return None
        return self.t_ns - self.a_ns

    @property
    def server_wait_ns(self) -> Optional[int]:
        if self.service_start_ns is None:
            return None
        return self.service_start_ns - self.t_ns

    @property
    def service_ns(self) -> Optional[int]:
        if self.service_end_ns is None:
            return None
        return self.service_end_ns - self.service_start_ns

    @property
    def sojourn_ns(self) -> Optional[int]:
        """Wait plus processing at the device (excludes gate delay)."""
        if self.service_end_ns is None:
            return None
        return self.service_end_ns - self.t_ns

    @property
    def total_delay_ns(self) -> Optional[int]:
        if self.service_end_ns is None:
            return None
        return self.service_end_ns - self.a_ns


@dataclass
class TraceSeries:
    """One simulation run: sampled queue lengths plus the full packet log."""

    sampling_interval: float
    times_ns: tuple[int, ...]
    sqf_counts: tuple[int, ...]
    server_counts: tuple[int, ...]
    per_packet: list[PacketRecord]
    d_ns: Optional[int] = None
    mitigation: Optional[tuple[int, int]] = None
    attack_window_ns: Optional[tuple[int, int]] = None
    seed: Optional[int] = None
    # congestion flag at each service start, in service order; feeding these
    # back through scenario.sample_services reproduces the drawn durations
    service_regime: list[bool] = field(default_factory=list)

    def completed(self) -> list[PacketRecord]:
        return [r for r in self.per_packet if not r.dropped]

    def dropped(self) -> list[PacketRecord]:
        return [r for r in self.per_packet if r.dropped]


def _engine(
    labeled: LabeledArrivals,
    service_source: Callable[[int, bool], int],
    cfg: Optional[ConfigLike],
    mitigation,
    *,
    sampling_interval: float,
    congestion_threshold: int,
    attack_window_ns: Optional[tuple[int, int]],
    seed: Optional[int],
    sqf_capacity: Optional[int],
) -> TraceSeries:
    if sampling_interval <= 0:
        raise ConfigurationError("sampling interval must be positive")
    if mitigation is not None and cfg is None:
        raise ConfigurationError("mitigation is defined in units of D; configure the gate")
    if sqf_capacity is not None and cfg is None:
        raise ConfigurationError("gate capacity without a gate")

    use_gate = cfg is not None
    d = _as_config(cfg).d_ns if use_gate else 0
    gate_filter = None
    if mitigation is not None:
        gate_filter = MitigationGate(MitigationPolicy.coerce(mitigation), d)

    at = labeled.arrivals.times_ns
    n = len(at)
    t_out: list[Optional[int]] = [None] * n
    ss_out: list[Optional[int]] = [None] * n
    se_out: list[Optional[int]] = [None] * n
    drop_reason: list[Optional[str]] = [None] * n
    regime: list[bool] = []

    gate_fifo: deque[int] = deque()
    gate_open = 0  # earliest instant the next release may happen
    gate_at = _INF  # pending release event
    server_fifo: deque[int] = deque()
    busy = -1  # packet index in service, -1 when idle
    done_at = _INF

    def start_service(j: int, now: int) -> None:
        nonlocal busy, done_at
        ss_out[j] = now
        congested = len(server_fifo) + 1 > congestion_threshold
        regime.append(congested)
        busy = j
        done_at = now + service_source(j, congested)

    def enter_server(j: int, now: int) -> None:
        if busy >= 0:
            server_fifo.append(j)
        else:
            start_service(j, now)

    def release(j: int, now: int) -> None:
        nonlocal gate_open, gate_at
        t_out[j] = now
        gate_open = now + d
        gate_at = gate_open if gate_fifo else _INF
        enter_server(j, now)

    i = 0
    next_arr = at[0] if n else _INF
    while True:
        if done_at <= gate_at and done_at <= next_arr:
            if done_at == _INF:
                break
            now = done_at
            se_out[busy] = now
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
                t_out[j] = now
                enter_server(j, now)

    if gate_fifo or server_fifo or busy >= 0:
        raise InvariantViolation("simulation ended with packets in flight")

    records = [
        PacketRecord(
            id=j,
            source=labeled.source_ids[j],
            is_attack=labeled.is_attack[j],
            a_ns=at[j],
            t_ns=t_out[j],
            service_start_ns=ss_out[j],
            service_end_ns=se_out[j],
            dropped=drop_reason[j] is not None,
            drop_reason=drop_reason[j],
        )
        for j in range(n)
    ]

    grid, sqf_counts, server_counts = metrics.sample_queues(records, sampling_interval)
    return TraceSeries(
        sampling_interval=sampling_interval,
        times_ns=grid,
        sqf_counts=sqf_counts,
        server_counts=server_counts,
        per_packet=records,
        d_ns=d if use_gate else None,
        mitigation=(
            (gate_filter.policy.n_threshold, gate_filter.policy.k_factor)
            if gate_filter is not None
            else None
        ),
        attack_window_ns=attack_window_ns,
        seed=seed,
        service_regime=regime,
    )


def simulate(
    s: Scenario,
    cfg: Optional[QdtpConfig] = None,
    mitigation=None,
    *,
    sampling_interval: float = 0.1,
    sqf_capacity: Optional[int] = None,
) -> TraceSeries:
    """Run one scenario to completion (all generated packets resolved).

    ``cfg=None`` models the unprotected device: traffic hits it directly.
    ``mitigation`` may be a MitigationPolicy or an (N, K) pair and requires
    a gate.  The run always continues past the scenario horizon until every
    queue drains, so traces are complete by construction.
    """
    labeled = generate_arrivals(s)
    sampler = ServiceSampler(s)
    return _engine(
        labeled,
        lambda _j, congested: sampler.draw_ns(congested),
        cfg,
        mitigation,
        sampling_interval=sampling_interval,
        congestion_threshold=s.congestion_threshold,
        attack_window_ns=s.attack_window_ns,
        seed=s.seed,
        sqf_capacity=sqf_capacity,
    )


def simulate_sequences(
    arrivals,
    services,
    cfg: Optional[QdtpConfig] = None,
    mitigation=None,
    *,
    sampling_interval: float = 0.1,
    congestion_threshold: int = 100,
    sqf_capacity: Optional[int] = None,
) -> TraceSeries:
    """Run the engine on explicit arrival/service sequences.

    ``services[i]`` belongs to packet ``i`` whether or not earlier packets
    are dropped; drops simply leave their duration unused.  Handy for
    pinning the simulator against hand-computed examples.
    """
    a = _as_arrivals(arrivals)
    svc = _as_services(services)
    if len(a) != len(svc):
        raise ContractViolation("need one service duration per arrival")
    labeled = LabeledArrivals(
        arrivals=a,
        source_ids=tuple([0] * len(a)),
        is_attack=tuple([False] * len(a)),
    )
    dur = svc.durations_ns
    return _engine(
        labeled,
        lambda j, _congested: dur[j],
        cfg,
        mitigation,
        sampling_interval=sampling_interval,
        congestion_threshold=congestion_threshold,
        attack_window_ns=None,
        seed=None,
        sqf_capacity=sqf_capacity,
    )


def drain_time(trace: TraceSeries, queue: str = "server") -> float:
    """Seconds between the end of the attack window and the queue emptying.

    Zero when there is no attack or the queue was already clear at the
    attack's end.  Traces produced by :func:`simulate` are always complete;
    a trace with unresolved packets is rejected.
    """
    if queue not in ("sqf", "server"):
        raise ContractViolation(f"unknown queue {queue!r}")
    for rec in trace.per_packet:
        if not rec.dropped and rec.service_end_ns is None:
            raise ContractViolation("trace has unresolved packets")
    if trace.attack_window_ns is None:
        return 0.0
    _, attack_end = trace.attack_window_ns
    last = 0
    for rec in trace.per_packet:
        if rec.dropped:
            continue
        leave = rec.t_ns if queue == "sqf" else rec.service_end_ns
        if leave > last:
            last = leave
    if last <= attack_end:
        return 0.0
    return ns_to_s(last - attack_end)


def _match(name: str, expected: tuple, recorded: tuple, admitted) -> None:
    """Raise naming the first packet where a recursion and the trace differ."""
    if expected == recorded:
        return
    for rec, want, got in zip(admitted, expected, recorded):
        if want != got:
            raise InvariantViolation(
                f"{name} disagrees with the trace at packet {rec.id}: "
                f"expected {want} ns, recorded {got} ns"
            )
    raise InvariantViolation(f"{name} and the trace differ in length")


def verify_trace(trace: TraceSeries) -> None:
    """Cross-check a finished run against the closed-form recursions.

    Admitted packets are replayed through ``qdtp_schedule`` /
    ``qdtp_delays_ns`` / ``server_waits`` (or ``lindley_waits`` when no gate
    was configured) and must agree with the recorded timestamps to the
    nanosecond; a mismatch names the recursion, the first diverging packet
    and both values.  Every record must be consistently admitted or dropped,
    and FIFO order and the occupancy identity are checked as well.  Raises
    InvariantViolation on the first failure.
    """
    records = trace.per_packet
    admitted = []
    for r in records:
        if r.dropped:
            if r.drop_reason not in ("mitigation", "capacity"):
                raise InvariantViolation(f"packet {r.id}: dropped with reason {r.drop_reason!r}")
            if r.t_ns is not None or r.service_start_ns is not None or r.service_end_ns is not None:
                raise InvariantViolation(f"packet {r.id}: dropped yet has gate/device timestamps")
            continue
        if r.drop_reason is not None:
            raise InvariantViolation(f"packet {r.id}: admitted yet has a drop reason")
        if r.t_ns is None or r.service_start_ns is None or r.service_end_ns is None:
            raise InvariantViolation("admitted packet missing timestamps")
        if not (r.a_ns <= r.t_ns <= r.service_start_ns <= r.service_end_ns):
            raise InvariantViolation("packet timestamps out of order")
        admitted.append(r)
    for prev, cur in zip(admitted, admitted[1:]):
        if cur.t_ns < prev.t_ns or cur.service_start_ns < prev.service_start_ns:
            raise InvariantViolation("FIFO order violated")
        if cur.service_start_ns < prev.service_end_ns:
            raise InvariantViolation("service overlap at the device")
    if not admitted:
        return

    a = ArrivalSequence(tuple(r.a_ns for r in admitted))
    services = ServiceSequence(tuple(r.service_ns for r in admitted))
    if trace.d_ns is not None:
        cfg = QdtpConfig(trace.d_ns)
        sched = qdtp_schedule(a, cfg)
        _match("qdtp_schedule", sched.times_ns, tuple(r.t_ns for r in admitted), admitted)
        _match(
            "qdtp_delays_ns",
            tuple(qdtp_delays_ns(a, cfg)),
            tuple(r.gate_delay_ns for r in admitted),
            admitted,
        )
        waits = server_waits(sched, services)
    else:
        if any(r.t_ns != r.a_ns for r in admitted):
            raise InvariantViolation("no gate configured yet t differs from a")
        waits = lindley_waits(a, services)
    _match(
        "server_waits" if trace.d_ns is not None else "lindley_waits",
        waits.waits_ns,
        tuple(r.server_wait_ns for r in admitted),
        admitted,
    )

    for which in ("sqf", "server"):
        if not metrics.littles_law_check(records, which)["ok"]:
            raise InvariantViolation(f"occupancy integral mismatch on {which}")
