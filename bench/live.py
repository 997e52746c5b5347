"""``live_flood_100us``: an open-loop periodic flood through the live gate.

One attempt: spawn ``fwd_child.py`` (the forwarder, D = 100 µs), then from
this single thread send N datagrams at 1.2 / D to it on a fixed schedule
and receive them on a sink socket that stands in for the device.  The
sender never waits for the sink (open loop); its lateness against the
schedule is reported.  The offered rate exceeds 1 / D so the gate builds a
backlog, and stays below the ingress ceiling so a quiet host drops nothing.

The sink asks the kernel for receive timestamps (SO_TIMESTAMPNS), so the
spacing it reports is what the device would see, independent of when this
loop gets round to reading and of the forwarder's own report.
"""
from __future__ import annotations

import json
import math
import random
import select
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from common import BENCH_DIR, CHILD_TIMEOUT_S, Proc, spawn, wait_child

D_US = 100
D_NS = D_US * 1000
OFFERED_OVER_CAPACITY = 1.2
COUNT = 18_000
PAYLOAD_SIZE = 64
SO_TIMESTAMPNS = 35  # Linux socket(7); Python does not export it
SINK_RCVBUF = 8 << 20
QUIET_S = 0.3  # the gate is drained once the sink has been idle this long
READY_TIMEOUT_S = 30.0
# spawn-only forwarder starts timed for setup_s: SETUP_BATCH before every
# attempt, topped up to SETUP_PROBES per run (~0.2 s each)
SETUP_BATCH = 4
SETUP_PROBES = 20


def percentile(values, p: float):
    """Nearest-rank percentile of a non-empty sample, ``p`` in [0, 100]."""
    values = sorted(values)
    return values[max(1, min(len(values), math.ceil(len(values) * p / 100))) - 1]


def flood_payloads(seed: int, count: int = COUNT) -> list[bytes]:
    """Datagram k: magic, label byte, k as 8 bytes, seeded random padding."""
    rng = random.Random(seed)
    pad = PAYLOAD_SIZE - 11
    return [b"QD\x00" + k.to_bytes(8, "big") + rng.randbytes(pad) for k in range(count)]


@dataclass
class SinkReport:
    delivered: int  # in sequence and byte-identical
    corrupt: int  # payload differs from what was sent for that sequence
    out_of_order: int  # duplicate or sequence went backwards
    rate_ratio: float
    spacing_ok_frac: float


def judge_sink(received: list[tuple[int, bytes]], payloads: list[bytes], d_ns: int) -> SinkReport:
    """Score what reached the sink against what was offered.

    ``received`` is (kernel receive ns, payload) in arrival order.  Lost
    datagrams lower ``delivered`` only; a corrupt, duplicated or reordered
    one is counted separately so the attempt can be failed.
    """
    delivered = corrupt = out_of_order = 0
    last_seq = -1
    for _, data in received:
        seq = int.from_bytes(data[3:11], "big") if len(data) >= 11 else -1
        if not 0 <= seq < len(payloads) or data != payloads[seq]:
            corrupt += 1
        elif seq <= last_seq:
            out_of_order += 1
        else:
            delivered += 1
            last_seq = seq
    stamps = [t for t, _ in received]
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    span = stamps[-1] - stamps[0] if len(stamps) > 1 else 0
    return SinkReport(
        delivered=delivered,
        corrupt=corrupt,
        out_of_order=out_of_order,
        rate_ratio=(len(gaps) * d_ns / span) if span > 0 else 0.0,
        spacing_ok_frac=(sum(1 for g in gaps if g >= d_ns) / len(gaps)) if gaps else 0.0,
    )


def queue_peak(log) -> int:
    """Exact backlog high-water from (receive, planned, actual) stamps."""
    events = sorted([(r, 1) for r, _, _ in log] + [(a, -1) for _, _, a in log],
                    key=lambda e: (e[0], e[1]))
    level = peak = 0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    return peak


@dataclass
class Attempt:
    problems: list = field(default_factory=list)
    setup_s: float = 0.0
    wall_s: float = 0.0
    proc: Proc = None
    e2e: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def _open_sink() -> socket.socket:
    sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sink.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, SINK_RCVBUF)
    sink.setsockopt(socket.SOL_SOCKET, SO_TIMESTAMPNS, 1)
    sink.bind(("127.0.0.1", 0))
    sink.setblocking(False)
    return sink


def _drain(sink, received: list) -> None:
    anc = socket.CMSG_SPACE(16)
    while True:
        try:
            data, cmsgs, _, _ = sink.recvmsg(2048, anc)
        except BlockingIOError:
            return
        stamp = None
        for level, kind, raw in cmsgs:
            if level == socket.SOL_SOCKET and kind == SO_TIMESTAMPNS:
                sec, nsec = struct.unpack("qq", raw[:16])
                stamp = sec * 1_000_000_000 + nsec
        received.append((stamp if stamp is not None else time.time_ns(), data))


def _spawn_forwarder(upstream_port: int, out_json: Path):
    """Start a forwarder child and wait until it reports its port.

    Returns the child, its spawn time, the port (``None`` when it never
    reported one) and the seconds from spawn to that report.
    """
    t0 = time.perf_counter()
    child = spawn(
        [sys.executable, str(BENCH_DIR / "fwd_child.py"),
         "--upstream", f"127.0.0.1:{upstream_port}",
         "--d-us", str(D_US), "--out", str(out_json)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    ready, _, _ = select.select([child.stdout], [], [], READY_TIMEOUT_S)
    line = child.stdout.readline() if ready else b""
    setup_s = time.perf_counter() - t0
    return child, t0, (json.loads(line)["port"] if line else None), setup_s


def _stop_forwarder(child: subprocess.Popen, t0: float) -> Proc:
    try:
        child.stdin.write(b"stop\n")
        child.stdin.close()
    except BrokenPipeError:
        pass
    proc = wait_child(child, t0, CHILD_TIMEOUT_S)
    child.stdout.close()
    return proc


def setup_probe(out_json: Path) -> float:
    """Seconds from spawning a forwarder child until it reports its port.

    The probe is killed once it has reported: a graceful stop waits up to
    2 s for the receive thread, which is not part of setting up.
    """
    sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sink.bind(("127.0.0.1", 0))
    try:
        child, t0, port, setup_s = _spawn_forwarder(sink.getsockname()[1], out_json)
        child.kill()
        wait_child(child, t0, CHILD_TIMEOUT_S)
        child.stdin.close()
        child.stdout.close()
    finally:
        sink.close()
    if port is None:
        raise RuntimeError("forwarder setup probe never reported its port")
    return setup_s


def setup_probes(work: Path, count: int) -> list[float]:
    return [setup_probe(work / "probe.json") for _ in range(count)]


def run_attempt(seed: int, out_json: Path, payloads: list[bytes] = None) -> Attempt:
    """One complete flood through a fresh forwarder child."""
    from qdtp.recursions import ArrivalSequence, QdtpConfig, qdtp_schedule

    payloads = payloads if payloads is not None else flood_payloads(seed)
    interval_ns = round(D_NS / OFFERED_OVER_CAPACITY)
    att = Attempt()
    sink = _open_sink()
    tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    tx.setblocking(False)
    child, t0, port, att.setup_s = _spawn_forwarder(sink.getsockname()[1], out_json)
    received: list[tuple[int, bytes]] = []
    late_ns = []
    send_errors = 0
    try:
        if port is None:
            att.problems.append("forwarder never reported its port")
            return att
        target = ("127.0.0.1", port)

        due0 = time.monotonic_ns() + 1_000_000
        for seq in range(len(payloads)):
            due = due0 + seq * interval_ns
            while time.monotonic_ns() < due:
                _drain(sink, received)
            try:
                tx.sendto(payloads[seq], target)
            except OSError:  # ENOBUFS, EAGAIN: counted, the flood goes on
                send_errors += 1
            late_ns.append(time.monotonic_ns() - due)

        offered = len(payloads) - send_errors
        last_seen = time.monotonic()
        deadline = last_seen + 30.0
        while len(received) < offered and time.monotonic() < deadline:
            before = len(received)
            select.select([sink], [], [], 0.01)
            _drain(sink, received)
            now = time.monotonic()
            if len(received) > before:
                last_seen = now
            elif now - last_seen > QUIET_S:
                break
        att.wall_s = (last_seen * 1e9 - due0) / 1e9 if received else 0.0
    finally:
        att.proc = _stop_forwarder(child, t0)
        sink.close()
        tx.close()

    if not att.proc.ok:
        att.problems.append(f"forwarder exited with {att.proc.status}")
        return att
    with open(out_json, encoding="utf-8") as fh:
        report = json.load(fh)
    stats, log = report["stats"], report["log"]

    sink_report = judge_sink(received, payloads, D_NS)
    if sink_report.corrupt or sink_report.out_of_order:
        att.problems.append(
            f"sink saw {sink_report.corrupt} corrupt and "
            f"{sink_report.out_of_order} out-of-order datagrams")
    if not report["conserved"]:
        att.problems.append(f"received != forwarded + dropped + queued: {stats}")
    if stats["queue_len"] or len(log) != stats["forwarded"]:
        att.problems.append("forwarder still held a backlog at stop")
    if not log:
        att.problems.append("nothing was forwarded")
    else:
        planned = qdtp_schedule(ArrivalSequence(tuple(r for r, _, _ in log)), QdtpConfig(D_NS))
        if planned.times_ns != tuple(p for _, p, _ in log):
            att.problems.append("planned departures differ from qdtp_schedule(recv)")
    if not log:
        return att

    lateness = [a - p for _, p, a in log]
    gaps = [b[2] - a[2] for a, b in zip(log, log[1:])]
    forwarded = stats["forwarded"]
    att.e2e = {
        "peak_rss_mb": report["peak_rss_mb"],
        "out_mb": forwarded * PAYLOAD_SIZE / 1e6,
        "fwd_cpu_cores": att.proc.cpu_s / att.proc.wall_s,
        "fwd_delivered_frac": sink_report.delivered / len(payloads),
        "fwd_rate_ratio": sink_report.rate_ratio,
        "fwd_spacing_ok_frac": sink_report.spacing_ok_frac,
    }
    att.layer = {
        "forwarder.late_p50_us": percentile(lateness, 50) / 1e3,
        "forwarder.late_p99_us": percentile(lateness, 99) / 1e3,
        "forwarder.late_max_us": max(lateness) / 1e3,
        "forwarder.min_gap_us": (min(gaps) / 1e3) if gaps else 0.0,
        "forwarder.log_gap_viol_frac": (sum(1 for g in gaps if g < D_NS) / len(gaps)) if gaps else 0.0,
        "forwarder.pacing_violations": stats["pacing_violations"],
        "forwarder.queue_peak": queue_peak(log),
        "forwarder.kernel_drops": offered - stats["received"],
        "forwarder.cpu_s": report["cpu_s"],
        "gen.late_p99_us": percentile(late_ns, 99) / 1e3,
        "gen.send_errors": send_errors,
    }
    return att


def run(seed: int, seconds: float, work: Path, trace: bool):
    """Attempts until ``seconds`` of them have run; medians across attempts.

    Setup probes run only untraced: ``setup_s`` is an end-to-end metric.
    """
    payloads = flood_payloads(seed)
    attempts, setups = [], []
    spent = 0.0
    while spent < seconds or not attempts:
        if not trace:
            setups += setup_probes(work, SETUP_BATCH)
        t = time.perf_counter()
        attempts.append(run_attempt(seed, work / f"fwd-{len(attempts)}.json", payloads))
        spent += time.perf_counter() - t
    good = [a for a in attempts if a.e2e]
    e2e = {k: median([a.e2e[k] for a in good]) for k in good[0].e2e} if good else {}
    layer = {k: median([a.layer[k] for a in good]) for k in good[0].layer} if good else {}
    if e2e and not trace:
        setups += setup_probes(work, SETUP_PROBES - len(setups))
        e2e["setup_s"] = median(setups + [a.setup_s for a in attempts])
        e2e["ok_frac"] = sum(a.ok for a in attempts) / len(attempts)
    raw = [{"ok": a.ok, "problems": a.problems, "setup_s": a.setup_s, "wall_s": a.wall_s,
            **a.e2e, **a.layer}
           for a in attempts]
    return attempts, e2e, layer, raw
