"""Exact per-packet recursions for FIFO service and spaced forwarding.

This module is the analytical core of the package.  It implements four
public recursions over packet sequences:

* ``lindley_waits`` -- waiting times in a plain FIFO single-server queue,
  i.e. what a device experiences when traffic hits it directly.
* ``qdtp_schedule`` -- the forwarding instants of a pacing gate that
  releases packets in arrival order but never closer than ``D`` apart:
  ``t[0] = a[0]``, ``t[n+1] = max(t[n] + D, a[n+1])``.
* ``qdtp_delays_ns`` -- the queueing delay inside that gate, computed as a
  FIFO queue whose every service time is ``D``
  (``q[n+1] = max(q[n] + D - (a[n+1] - a[n]), 0)``) rather than by
  subtracting schedule values, so the two routes can be cross-checked for
  exact equality.
* ``server_waits`` -- waiting times of a FIFO server that is fed by the
  paced stream instead of the raw arrivals.

``lindley_waits``, ``qdtp_delays_ns`` and ``server_waits`` are the same
Lindley recursion on different inputs and share one loop, ``_lindley``.

All sequences carry integer nanoseconds internally.  Constructors accept
floats in seconds and convert once; results expose both representations.
Computations on the integer values are exact, which is what makes the
"two independent routes agree bit-for-bit" checks meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterable, Sequence, Union

from .errors import ContractViolation
from .timebase import ns_to_s, s_to_ns

__all__ = [
    "ArrivalSequence",
    "ServiceSequence",
    "QdtpConfig",
    "ForwardSchedule",
    "WaitSequence",
    "lindley_waits",
    "qdtp_schedule",
    "qdtp_delays",
    "qdtp_delays_ns",
    "server_waits",
    "check_result1",
    "end_to_end_delay",
]


@dataclass(frozen=True)
class ArrivalSequence:
    """Packet arrival instants, non-negative and non-decreasing."""

    times_ns: tuple[int, ...]

    def __post_init__(self) -> None:
        t = self.times_ns
        if t and t[0] < 0:
            raise ContractViolation("arrival instants must be non-negative")
        for prev, cur in zip(t, t[1:]):
            if cur < prev:
                raise ContractViolation("arrival instants must be non-decreasing")

    @classmethod
    def from_seconds(cls, times: Iterable[float]) -> "ArrivalSequence":
        return cls(tuple(s_to_ns(x) for x in times))

    @property
    def seconds(self) -> list[float]:
        return [ns_to_s(x) for x in self.times_ns]

    def __len__(self) -> int:
        return len(self.times_ns)


@dataclass(frozen=True)
class ServiceSequence:
    """Per-packet processing durations, strictly positive."""

    durations_ns: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(d <= 0 for d in self.durations_ns):
            raise ContractViolation("service durations must be positive")

    @classmethod
    def from_seconds(cls, durations: Iterable[float]) -> "ServiceSequence":
        return cls(tuple(s_to_ns(x) for x in durations))

    @property
    def seconds(self) -> list[float]:
        return [ns_to_s(x) for x in self.durations_ns]

    def __len__(self) -> int:
        return len(self.durations_ns)


@dataclass(frozen=True)
class QdtpConfig:
    """Pacing parameters: the minimum forwarding spacing D."""

    d_ns: int

    def __post_init__(self) -> None:
        if self.d_ns <= 0:
            raise ContractViolation("spacing D must be positive")

    @classmethod
    def from_seconds(cls, d: float) -> "QdtpConfig":
        return cls(s_to_ns(d))

    @property
    def d(self) -> float:
        """The spacing in seconds."""
        return ns_to_s(self.d_ns)


@dataclass(frozen=True)
class ForwardSchedule:
    """Forwarding instants produced by the pacing gate, plus the per-packet
    delays the gate imposed and the spacing it was built with.

    Invariants are re-checked at construction so schedules assembled by any
    other code path (e.g. replayed from a capture) cannot silently violate
    them: consecutive instants at least ``d_ns`` apart, the first packet
    forwarded immediately, and no packet forwarded before it arrived.
    """

    times_ns: tuple[int, ...]
    delays_ns: tuple[int, ...]
    d_ns: int

    def __post_init__(self) -> None:
        if self.d_ns <= 0:
            raise ContractViolation("spacing D must be positive")
        if len(self.times_ns) != len(self.delays_ns):
            raise ContractViolation("schedule and delay lengths differ")
        if self.delays_ns:
            if self.delays_ns[0] != 0:
                raise ContractViolation("first packet must be forwarded on arrival")
            if any(q < 0 for q in self.delays_ns):
                raise ContractViolation("gate delays cannot be negative")
        for prev, cur in zip(self.times_ns, self.times_ns[1:]):
            if cur - prev < self.d_ns:
                raise ContractViolation("forwarding instants closer than D")

    @property
    def times(self) -> list[float]:
        return [ns_to_s(x) for x in self.times_ns]

    @property
    def delays(self) -> list[float]:
        return [ns_to_s(x) for x in self.delays_ns]

    def __len__(self) -> int:
        return len(self.times_ns)


@dataclass(frozen=True)
class WaitSequence:
    """Non-negative per-packet waiting times with a tag saying which queue
    they belong to (``server`` for direct feed, ``paced_server`` for a
    server fed through the gate, ``gate`` for delay inside the gate)."""

    waits_ns: tuple[int, ...]
    queue: str = "server"

    def __post_init__(self) -> None:
        if self.waits_ns:
            if self.waits_ns[0] != 0:
                raise ContractViolation("first packet never waits")
            if any(w < 0 for w in self.waits_ns):
                raise ContractViolation("waits cannot be negative")

    @property
    def seconds(self) -> list[float]:
        return [ns_to_s(x) for x in self.waits_ns]

    def __len__(self) -> int:
        return len(self.waits_ns)


ArrivalsLike = Union[ArrivalSequence, Sequence[float]]
ServicesLike = Union[ServiceSequence, Sequence[float]]
ConfigLike = Union[QdtpConfig, float]


def _as_arrivals(arrivals: ArrivalsLike) -> ArrivalSequence:
    if isinstance(arrivals, ArrivalSequence):
        return arrivals
    return ArrivalSequence.from_seconds(arrivals)


def _as_services(services: ServicesLike) -> ServiceSequence:
    if isinstance(services, ServiceSequence):
        return services
    return ServiceSequence.from_seconds(services)


def _as_config(cfg: ConfigLike) -> QdtpConfig:
    if isinstance(cfg, QdtpConfig):
        return cfg
    return QdtpConfig.from_seconds(float(cfg))


def _lindley(times_ns: Sequence[int], services_ns: Iterable[int]) -> list[int]:
    """FIFO waits: ``w[0] = 0``, ``w[n+1] = max(w[n] + s[n] - (x[n+1] - x[n]), 0)``."""
    if not times_ns:
        return []
    waits = [0]
    w = 0
    for s, prev, cur in zip(services_ns, times_ns, islice(times_ns, 1, None)):
        w += s - (cur - prev)
        if w < 0:
            w = 0
        waits.append(w)
    return waits


def lindley_waits(arrivals: ArrivalsLike, services: ServicesLike) -> WaitSequence:
    """Waiting times of a FIFO single-server queue fed directly.

    Classic Lindley recursion: ``L[0] = 0`` and
    ``L[n+1] = max(L[n] + T[n] - (a[n+1] - a[n]), 0)``.
    A packet whose service outlasts the gap to its successor makes the
    successor wait strictly longer -- this is the mechanism by which a
    flood of closely spaced packets snowballs the backlog.

    Empty inputs yield an empty sequence.
    """
    a = _as_arrivals(arrivals)
    t = _as_services(services)
    if len(a) != len(t):
        raise ContractViolation("need one service duration per arrival")
    return WaitSequence(tuple(_lindley(a.times_ns, t.durations_ns)), queue="server")


def qdtp_schedule(arrivals: ArrivalsLike, cfg: ConfigLike) -> ForwardSchedule:
    """Forwarding instants of the pacing gate.

    ``t[0] = a[0]``; afterwards each packet leaves as soon as it may:
    ``t[n+1] = max(t[n] + D, a[n+1])``.
    """
    a = _as_arrivals(arrivals)
    c = _as_config(cfg)
    times: list[int] = []
    delays: list[int] = []
    prev = None
    for an in a.times_ns:
        if prev is None:
            tn = an
        else:
            tn = prev + c.d_ns
            if an > tn:
                tn = an
        times.append(tn)
        delays.append(tn - an)
        prev = tn
    return ForwardSchedule(tuple(times), tuple(delays), c.d_ns)


def qdtp_delays_ns(arrivals: ArrivalsLike, cfg: ConfigLike) -> list[int]:
    """Gate queueing delays in nanoseconds, via the standalone recursion.

    ``q[0] = 0``, ``q[n+1] = max(q[n] + D - (a[n+1] - a[n]), 0)``: the
    Lindley recursion with every service time equal to D.  This is
    deliberately *not* computed from :func:`qdtp_schedule`; agreement of the
    two routes on the integer values is one of the package self-checks.
    """
    a = _as_arrivals(arrivals)
    c = _as_config(cfg)
    return _lindley(a.times_ns, repeat(c.d_ns))


def qdtp_delays(arrivals: ArrivalsLike, cfg: ConfigLike) -> list[float]:
    """Gate queueing delays in seconds.  See :func:`qdtp_delays_ns`."""
    return [ns_to_s(q) for q in qdtp_delays_ns(arrivals, cfg)]


def server_waits(schedule: ForwardSchedule, services: ServicesLike) -> WaitSequence:
    """Waiting times of a FIFO server fed by the paced stream.

    Same Lindley mechanics as :func:`lindley_waits`, but the inter-arrival
    gaps seen by the server are the schedule gaps ``t[n+1] - t[n]``, each of
    which is at least D by construction.  Hence the server backlog can only
    grow on packets whose processing exceeds D -- and never grows at all if
    D dominates every processing time (see :func:`check_result1`).
    """
    t = _as_services(services)
    if len(schedule) != len(t):
        raise ContractViolation("need one service duration per scheduled packet")
    return WaitSequence(
        tuple(_lindley(schedule.times_ns, t.durations_ns)), queue="paced_server"
    )


def check_result1(services: ServicesLike, cfg: ConfigLike) -> bool:
    """True when D strictly exceeds every supplied processing time.

    Under that condition a server behind the gate never queues: each packet
    is done before the next one can legally be forwarded.  Vacuously true
    for an empty sequence.
    """
    t = _as_services(services)
    c = _as_config(cfg)
    if not t.durations_ns:
        return True
    return c.d_ns > max(t.durations_ns)


def end_to_end_delay(
    arrivals: ArrivalsLike,
    schedule: ForwardSchedule,
    waits: WaitSequence,
    services: ServicesLike,
) -> list[float]:
    """Total per-packet latency through gate and server, in seconds.

    Sum of gate delay ``t[n] - a[n]``, wait at the server, and the packet's
    own processing time.
    """
    a = _as_arrivals(arrivals)
    t = _as_services(services)
    if not (len(a) == len(schedule) == len(waits) == len(t)):
        raise ContractViolation("sequence lengths differ")
    out = []
    for an, tn, wn, dn in zip(a.times_ns, schedule.times_ns, waits.waits_ns, t.durations_ns):
        if tn < an:
            raise ContractViolation("packet forwarded before it arrived")
        out.append(ns_to_s((tn - an) + wn + dn))
    return out
