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
  subtracting schedule values, so the tests can cross-check the two routes
  for exact equality.
* ``server_waits`` -- waiting times of a FIFO server that is fed by the
  paced stream instead of the raw arrivals.

``lindley_waits``, ``qdtp_delays_ns`` and ``server_waits`` are the same
Lindley recursion on different inputs and share one loop, ``_lindley``;
``qdtp_schedule`` runs its own, ``_paced``.  Both are generators, so
``simulator.verify_trace`` can replay a trace without materialising it.

All times are integer nanoseconds; seconds are converted where they enter
the package (CLI, manifest, scenario, forwarder), never here.  The
computations are therefore exact, which is what makes the "two independent
routes agree bit-for-bit" checks meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise, repeat, starmap
from operator import gt, sub
from typing import Iterable, Iterator, Sequence

from .errors import ContractViolation

__all__ = [
    "ArrivalSequence",
    "QdtpConfig",
    "ForwardSchedule",
    "lindley_waits",
    "qdtp_schedule",
    "qdtp_delays_ns",
    "server_waits",
]


@dataclass(frozen=True)
class ArrivalSequence:
    """Packet arrival instants, non-negative and non-decreasing.

    ``times_ns`` is a tuple, or the ``array('q')`` that
    ``scenario.generate_arrivals`` builds.
    """

    times_ns: Sequence[int]

    def __post_init__(self) -> None:
        t = self.times_ns
        if t and t[0] < 0:
            raise ContractViolation("arrival instants must be non-negative")
        if any(starmap(gt, pairwise(t))):
            raise ContractViolation("arrival instants must be non-decreasing")

    def __len__(self) -> int:
        return len(self.times_ns)


@dataclass(frozen=True)
class QdtpConfig:
    """Pacing parameters: the minimum forwarding spacing D."""

    d_ns: int

    def __post_init__(self) -> None:
        if self.d_ns <= 0:
            raise ContractViolation("spacing D must be positive")


@dataclass(frozen=True)
class ForwardSchedule:
    """Forwarding instants produced by the pacing gate, plus the per-packet
    delays the gate imposed."""

    times_ns: tuple[int, ...]
    delays_ns: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.times_ns)


def _lindley(times_ns: Iterable[int], services_ns: Iterable[int]) -> Iterator[int]:
    """FIFO waits: ``w[0] = 0``, ``w[n+1] = max(w[n] + s[n] - (x[n+1] - x[n]), 0)``."""
    times = iter(times_ns)
    prev = next(times, None)
    if prev is None:
        return
    w = 0
    yield w
    for s, cur in zip(services_ns, times):
        w += s - (cur - prev)
        if w < 0:
            w = 0
        yield w
        prev = cur


def _paced(arrivals_ns: Iterable[int], d_ns: int) -> Iterator[int]:
    """Gate release instants: ``t[0] = a[0]``, ``t[n+1] = max(t[n] + D, a[n+1])``."""
    arrivals = iter(arrivals_ns)
    t = next(arrivals, None)
    if t is None:
        return
    yield t
    for a in arrivals:
        t += d_ns
        if a > t:
            t = a
        yield t


def lindley_waits(arrivals: ArrivalSequence, services_ns: Sequence[int]) -> list[int]:
    """Waiting times of a FIFO single-server queue fed directly.

    Classic Lindley recursion: ``L[0] = 0`` and
    ``L[n+1] = max(L[n] + T[n] - (a[n+1] - a[n]), 0)``.
    A packet whose service outlasts the gap to its successor makes the
    successor wait strictly longer -- this is the mechanism by which a
    flood of closely spaced packets snowballs the backlog.

    Empty inputs yield an empty list.
    """
    if len(arrivals) != len(services_ns):
        raise ContractViolation("need one service duration per arrival")
    return list(_lindley(arrivals.times_ns, services_ns))


def qdtp_schedule(arrivals: ArrivalSequence, cfg: QdtpConfig) -> ForwardSchedule:
    """Forwarding instants of the pacing gate.

    ``t[0] = a[0]``; afterwards each packet leaves as soon as it may:
    ``t[n+1] = max(t[n] + D, a[n+1])``.
    """
    times = tuple(_paced(arrivals.times_ns, cfg.d_ns))
    return ForwardSchedule(times, tuple(map(sub, times, arrivals.times_ns)))


def qdtp_delays_ns(arrivals: ArrivalSequence, cfg: QdtpConfig) -> list[int]:
    """Gate queueing delays in nanoseconds, via the standalone recursion.

    ``q[0] = 0``, ``q[n+1] = max(q[n] + D - (a[n+1] - a[n]), 0)``: the
    Lindley recursion with every service time equal to D.  This is
    deliberately *not* computed from :func:`qdtp_schedule`; the tests check
    that the two routes agree.  ``verify_trace`` need not replay it: a ``t``
    that matches the schedule gives ``q = t - a`` by induction.
    """
    return list(_lindley(arrivals.times_ns, repeat(cfg.d_ns)))


def server_waits(schedule: ForwardSchedule, services_ns: Sequence[int]) -> list[int]:
    """Waiting times of a FIFO server fed by the paced stream.

    Same Lindley mechanics as :func:`lindley_waits`, but the inter-arrival
    gaps seen by the server are the schedule gaps ``t[n+1] - t[n]``, each of
    which is at least D by construction.  Hence the server backlog can only
    grow on packets whose processing exceeds D -- and never grows at all if
    D exceeds every processing time (Result 1).
    """
    if len(schedule) != len(services_ns):
        raise ContractViolation("need one service duration per scheduled packet")
    return list(_lindley(schedule.times_ns, services_ns))
