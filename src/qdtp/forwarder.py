"""Live UDP shaping forwarder and a service-emulating server stub.

The forwarder binds a listen socket, stamps every datagram with a monotonic
receive time, and retransmits byte-identical payloads to the upstream
address no closer together than D.  Planned departure instants follow the
same recursion as the offline schedule (t[n+1] = max(t[n] + D, a[n+1])), so
a recorded run can be replayed through ``qdtp_schedule`` and compared.

Three cooperating threads, one shared FIFO:

* ingress  -- recvfrom, mitigation decision, enqueue.  Never blocks on the
  send path; over-capacity packets are counted and discarded here.
* pacer    -- dequeue, sleep until the planned instant, sendto.
* control  -- optional; accepts ``DROP <seconds>\\n`` datagrams that force
  the mitigation gate shut for the given duration (the upstream device's
  way of asking for relief).

All counters live behind one lock, so a stats snapshot always satisfies
received = forwarded + dropped + queued.  Pacing uses the monotonic clock
exclusively; wall-clock time never matters.  Upstream sends are
fire-and-forget: UDP has no acknowledgements here, and an unreachable
upstream must not stall the gate, so send errors are swallowed.
"""
from __future__ import annotations

import json
import os
import random
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Optional

from .errors import ConfigurationError
from .mitigation import MitigationGate, MitigationPolicy
from .scenario import ServiceModel
from .simulator import Packets

__all__ = [
    "DEFAULT_TOLERANCE_US",
    "PAYLOAD_SIZE",
    "ForwarderConfig",
    "ForwarderStats",
    "UdpForwarder",
    "UdpServerStub",
    "run_forwarder",
    "run_server_stub",
    "make_payload",
    "parse_payload",
    "parse_addr",
    "sleep_until_ns",
]

# Declared scheduling tolerance: commodity OS timers overshoot; anything
# within epsilon of the planned instant counts as on time.
DEFAULT_TOLERANCE_US = 500
# Interpreter thread-switch interval while pacing is active.  The default
# 5 ms lets the ingress thread hold the GIL long enough to push a departure
# several tolerances late; a sub-tolerance slice keeps handoff latency well
# inside epsilon.
PACING_SWITCH_INTERVAL_S = 0.0002

RECV_BUFFER_BYTES = 4 * 1024 * 1024
PAYLOAD_SIZE = 64
_PAYLOAD_MAGIC = b"QD"


def sleep_until_ns(target_ns: int) -> int:
    """Sleep until the monotonic clock reaches target; returns actual time.

    Sleeps for the whole remaining time and re-checks the clock, so it
    never returns early and never busy-waits.  A SCHED_FIFO thread has no
    timer slack: in the live benchmark (D = 100 us, 2-vCPU VM) its
    departures leave about 10 us after plan at p50 and 26 us at p99, far
    inside DEFAULT_TOLERANCE_US.  A timeshare thread adds the default
    50 us slack.
    """
    while True:
        now = time.monotonic_ns()
        remaining = target_ns - now
        if remaining <= 0:
            return now
        time.sleep(remaining / 1e9)


def try_realtime_priority(priority: int = 10) -> bool:
    """Move the calling thread to SCHED_FIFO if the OS lets us.

    Ordinary timeshare scheduling occasionally parks a woken thread for
    multiple milliseconds under load, which is fatal for sub-millisecond
    pacing.  Realtime priority removes those stalls; lacking the privilege
    we proceed anyway and rely on the declared tolerance.
    """
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(priority))
        return True
    except (AttributeError, PermissionError, OSError):
        return False


def parse_addr(text: str) -> tuple[str, int]:
    """Parse ``host:port``; host may be empty for wildcard."""
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ConfigurationError(f"address {text!r} must be host:port")
    try:
        port_num = int(port)
    except ValueError as exc:
        raise ConfigurationError(f"bad port in {text!r}") from exc
    if not 0 <= port_num <= 65535:
        raise ConfigurationError(f"port out of range in {text!r}")
    return (host or "0.0.0.0", port_num)


def make_payload(seq: int, is_attack: bool = False, size: int = PAYLOAD_SIZE) -> bytes:
    """Fixed-size datagram: magic, label byte, sequence number, padding."""
    head = _PAYLOAD_MAGIC + bytes([1 if is_attack else 0]) + seq.to_bytes(8, "big")
    if size < len(head):
        raise ConfigurationError("payload size too small")
    return head + b"\x00" * (size - len(head))


def parse_payload(data: bytes) -> Optional[tuple[int, bool]]:
    """Inverse of make_payload; None when the datagram is foreign."""
    if len(data) < 11 or data[:2] != _PAYLOAD_MAGIC:
        return None
    return int.from_bytes(data[3:11], "big"), bool(data[2])


@dataclass(frozen=True)
class ForwarderConfig:
    listen: tuple[str, int]
    upstream: tuple[str, int]
    d_us: int
    mitigation: Optional[tuple[int, int]] = None
    queue_capacity: Optional[int] = None
    stats_interval: float = 5.0
    control: Optional[tuple[str, int]] = None
    record_log: bool = False

    def __post_init__(self) -> None:
        resolution_ns = time.get_clock_info("monotonic").resolution * 1e9
        if self.d_us < 1 or self.d_us * 1000 < resolution_ns:
            raise ConfigurationError("spacing below clock resolution")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ConfigurationError("queue capacity must be at least 1 when bounded")
        # Event.wait returns at once on NaN and overflows past TIMEOUT_MAX
        if not 0 < self.stats_interval <= threading.TIMEOUT_MAX:
            raise ConfigurationError("stats interval must be positive and finite")
        if self.mitigation is not None:
            MitigationPolicy.coerce(self.mitigation)

    @property
    def d_ns(self) -> int:
        return self.d_us * 1000


@dataclass(frozen=True)
class ForwarderStats:
    received: int
    forwarded: int
    dropped_mitigation: int
    dropped_capacity: int
    queue_len: int
    inter_departure_min_us: Optional[float]
    pacing_violations: int

    @property
    def conserved(self) -> bool:
        return self.received == (
            self.forwarded
            + self.dropped_mitigation
            + self.dropped_capacity
            + self.queue_len
        )

    def to_dict(self) -> dict:
        return asdict(self)


class UdpForwarder:
    """The shaping gate on real sockets.  start() / stop() lifecycle."""

    def __init__(self, cfg: ForwarderConfig):
        self.cfg = cfg
        # the gate exists even without a mitigation policy so that control
        # channel DROP commands always have something to act on
        policy = MitigationPolicy.coerce(cfg.mitigation) if cfg.mitigation else None
        self._gate = MitigationGate(policy, cfg.d_ns)
        self._cond = threading.Condition()
        self._fifo: deque[tuple[int, bytes]] = deque()
        self._in_flight = False
        self._received = 0
        self._forwarded = 0
        self._dropped_mitigation = 0
        self._dropped_capacity = 0
        self._min_gap_us: Optional[float] = None
        self._pacing_violations = 0
        self._last_planned_ns: Optional[int] = None
        self._last_actual_ns: Optional[int] = None
        # (receive_ns, planned_ns, actual_ns) per forwarded packet
        self.departure_log: list[tuple[int, int, int]] = []
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._listen_sock: Optional[socket.socket] = None
        self._send_sock: Optional[socket.socket] = None
        self._control_sock: Optional[socket.socket] = None
        self._saved_switch_interval: Optional[float] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        self._saved_switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(PACING_SWITCH_INTERVAL_S)
        try:
            self._listen_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self._listen_sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, RECV_BUFFER_BYTES
            )
            self._listen_sock.bind(self.cfg.listen)
            self._send_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            if self.cfg.control is not None:
                self._control_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                self._control_sock.bind(self.cfg.control)
        except OSError:
            self.close_sockets()
            sys.setswitchinterval(self._saved_switch_interval)
            self._saved_switch_interval = None
            raise
        self._threads = [
            threading.Thread(target=self._ingress_loop, name="qdtp-ingress", daemon=True),
            threading.Thread(target=self._pacer_loop, name="qdtp-pacer", daemon=True),
        ]
        if self._control_sock is not None:
            self._threads.append(
                threading.Thread(target=self._control_loop, name="qdtp-control", daemon=True)
            )
        for t in self._threads:
            t.start()

    def stop(self) -> None:
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        self.close_sockets()
        for t in self._threads:
            t.join(timeout=2.0)
        self._threads = []
        if self._saved_switch_interval is not None:
            sys.setswitchinterval(self._saved_switch_interval)
            self._saved_switch_interval = None

    def close_sockets(self) -> None:
        for sock in (self._listen_sock, self._send_sock, self._control_sock):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass

    @property
    def listen_port(self) -> int:
        return self._listen_sock.getsockname()[1]

    # -- threads ----------------------------------------------------------

    def _ingress_loop(self) -> None:
        # same class as the pacer, one step below: a timeshare thread that
        # stalls while holding the GIL would stall the pacer with it
        try_realtime_priority(9)
        sock = self._listen_sock
        capacity = self.cfg.queue_capacity
        while not self._stop.is_set():
            try:
                data, _ = sock.recvfrom(65535)
            except OSError:
                break
            now = time.monotonic_ns()
            # gate state is only stepped here; the control thread merely
            # extends the forced window, which is a single field write
            admit = self._gate.step(now)
            with self._cond:
                self._received += 1
                if not admit:
                    self._dropped_mitigation += 1
                elif capacity is not None and len(self._fifo) >= capacity:
                    self._dropped_capacity += 1
                else:
                    self._fifo.append((now, data))
                    self._cond.notify()

    def _pacer_loop(self) -> None:
        try_realtime_priority()
        d_ns = self.cfg.d_ns
        tol_ns = DEFAULT_TOLERANCE_US * 1000
        while True:
            with self._cond:
                if self._stop.is_set():
                    return
                while not self._fifo:
                    self._cond.wait(0.05)
                    if self._stop.is_set():
                        return
                recv_ns, data = self._fifo.popleft()
                self._in_flight = True
            if self._last_planned_ns is None:
                planned = recv_ns
            else:
                planned = self._last_planned_ns + d_ns
                if recv_ns > planned:
                    planned = recv_ns
            self._last_planned_ns = planned
            sleep_until_ns(planned)
            try:
                self._send_sock.sendto(data, self.cfg.upstream)
            except OSError:
                pass  # fire-and-forget by design
            actual = time.monotonic_ns()
            with self._cond:
                self._forwarded += 1
                self._in_flight = False
                if self._last_actual_ns is not None:
                    gap_ns = actual - self._last_actual_ns
                    gap_us = gap_ns / 1000.0
                    if self._min_gap_us is None or gap_us < self._min_gap_us:
                        self._min_gap_us = gap_us
                    if gap_ns < d_ns - tol_ns:
                        self._pacing_violations += 1
                self._last_actual_ns = actual
                if self.cfg.record_log:
                    self.departure_log.append((recv_ns, planned, actual))

    def _control_loop(self) -> None:
        try_realtime_priority(9)
        sock = self._control_sock
        while not self._stop.is_set():
            try:
                data, addr = sock.recvfrom(1024)
            except OSError:
                break
            reply = b"ERR\n"
            words = data.decode("ascii", "replace").split()
            if len(words) == 2 and words[0].upper() == "DROP":
                try:
                    seconds = float(words[1])
                except ValueError:
                    seconds = -1.0
                if seconds >= 0:
                    self._gate.force_drop(time.monotonic_ns(), round(seconds * 1e9))
                    reply = b"OK\n"
            try:
                sock.sendto(reply, addr)
            except OSError:
                pass

    # -- inspection -------------------------------------------------------

    def snapshot_stats(self) -> ForwarderStats:
        with self._cond:
            return ForwarderStats(
                received=self._received,
                forwarded=self._forwarded,
                dropped_mitigation=self._dropped_mitigation,
                dropped_capacity=self._dropped_capacity,
                queue_len=len(self._fifo) + (1 if self._in_flight else 0),
                inter_departure_min_us=self._min_gap_us,
                pacing_violations=self._pacing_violations,
            )

    def wait_for_forwarded(self, count: int, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._cond:
                if self._forwarded >= count:
                    return True
            time.sleep(0.005)
        return False


def run_forwarder(cfg: ForwarderConfig, stop_event: Optional[threading.Event] = None,
                  stream=None) -> ForwarderStats:
    """Blocking entry point: run until interrupted, emitting JSON stat lines."""
    stream = stream if stream is not None else sys.stdout
    fwd = UdpForwarder(cfg)
    fwd.start()
    stop_event = stop_event or threading.Event()
    try:
        while not stop_event.wait(cfg.stats_interval):
            print(json.dumps(fwd.snapshot_stats().to_dict()), file=stream, flush=True)
    except KeyboardInterrupt:
        pass
    finally:
        fwd.stop()
    final = fwd.snapshot_stats()
    print(json.dumps(final.to_dict()), file=stream, flush=True)
    return final


class UdpServerStub:
    """Emulates the protected device: FCFS, one sampled sleep per packet.

    Arrivals are stamped on receipt (rebased so the first packet is t=0)
    and appended to ``packets``, the same columns the simulator fills, so
    the same analysis tooling applies.  With no shaping in front of it, a burst
    makes the recorded waits grow exactly like the direct-feed recursion
    predicts -- that contrast with the forwarder-protected runs is the
    point of the stub.
    """

    def __init__(self, listen: tuple[str, int], service_model: ServiceModel,
                 *, seed: int = 0):
        self.listen = listen
        self.model = service_model
        self._rng = random.Random(seed)
        self._cond = threading.Condition()
        self._fifo: deque[tuple[int, bytes, int]] = deque()
        self._base_ns: Optional[int] = None
        self._source_ids: dict = {}
        self.packets = Packets()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._sock: Optional[socket.socket] = None

    def start(self) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RECV_BUFFER_BYTES)
        self._sock.bind(self.listen)
        self._threads = [
            threading.Thread(target=self._ingress_loop, name="stub-ingress", daemon=True),
            threading.Thread(target=self._worker_loop, name="stub-worker", daemon=True),
        ]
        for t in self._threads:
            t.start()

    def stop(self) -> None:
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        if self._sock is not None:
            # close() alone leaves a thread blocked in recvfrom; shutdown
            # wakes it (with an empty read), though on an unconnected UDP
            # socket it also raises ENOTCONN
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
        for t in self._threads:
            t.join(timeout=2.0)
        self._threads = []

    @property
    def listen_port(self) -> int:
        return self._sock.getsockname()[1]

    def _ingress_loop(self) -> None:
        try_realtime_priority(9)
        while not self._stop.is_set():
            try:
                data, addr = self._sock.recvfrom(65535)
            except OSError:
                break
            if self._stop.is_set():  # the wake-up read of stop(), not a datagram
                break
            now = time.monotonic_ns()
            with self._cond:
                if addr not in self._source_ids:
                    self._source_ids[addr] = len(self._source_ids)
                self._fifo.append((now, data, self._source_ids[addr]))
                self._cond.notify()

    def _worker_loop(self) -> None:
        try_realtime_priority()
        while True:
            with self._cond:
                if self._stop.is_set():
                    return
                while not self._fifo:
                    self._cond.wait(0.05)
                    if self._stop.is_set():
                        return
                recv_ns, data, src = self._fifo.popleft()
            start_ns = time.monotonic_ns()
            duration = self.model.draw_ns(self._rng.random(), self._rng.gauss(0.0, 1.0))
            sleep_until_ns(start_ns + duration)
            end_ns = time.monotonic_ns()
            with self._cond:
                if self._base_ns is None:
                    self._base_ns = recv_ns
                base = self._base_ns
                parsed = parse_payload(data)
                p = self.packets
                p.source.append(src)
                p.is_attack.append(parsed[1] if parsed else False)
                p.a_ns.append(recv_ns - base)
                p.t_ns.append(recv_ns - base)
                p.start_ns.append(start_ns - base)
                p.end_ns.append(end_ns - base)
                p.drop_reason.append(None)

    def snapshot_records(self) -> Packets:
        """A copy of the packet columns, consistent under the lock."""
        with self._cond:
            return Packets(*(getattr(self.packets, f.name)[:] for f in fields(Packets)))

    def wait_for_processed(self, count: int, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._cond:
                if len(self.packets) >= count:
                    return True
            time.sleep(0.005)
        return False


def run_server_stub(listen: tuple[str, int], service_model: ServiceModel, *,
                    seed: int = 0, out: Optional[str] = None,
                    stop_event: Optional[threading.Event] = None, stream=None) -> int:
    """Blocking entry point for the stub.

    On shutdown writes ``<out>/packets.csv`` (same layout the simulator
    uses, so a recorded live session feeds straight into the analyze
    command).
    """
    from .artifacts import write_packets_csv

    stream = stream if stream is not None else sys.stdout
    stub = UdpServerStub(listen, service_model, seed=seed)
    stub.start()
    stop_event = stop_event or threading.Event()
    try:
        while not stop_event.wait(1.0):
            with stub._cond:
                done = len(stub.packets)
                pending = len(stub._fifo)
            print(json.dumps({"processed": done, "queued": pending}), file=stream, flush=True)
    except KeyboardInterrupt:
        pass
    finally:
        stub.stop()
    packets = stub.snapshot_records()
    if out is not None:
        os.makedirs(out, exist_ok=True)
        write_packets_csv(packets, os.path.join(out, "packets.csv"))
    print(json.dumps({"processed": len(packets), "written": out}), file=stream, flush=True)
    return len(packets)
