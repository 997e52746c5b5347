"""Acceptance gate: the go/no-go checks for the whole package.

Each criterion prints one ``[ACCEPTANCE] criterion N: PASS/FAIL`` line
(also repeated in the terminal summary).  The reference experiments are
simulated once in a module fixture and reduced to the aggregates the
criteria need, so the suite stays within its runtime budgets.
"""
import dataclasses
import gc
import math
import random
import socket
import time
from statistics import fmean
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from acceptance_report import record
from strategies import arrival_times_ns, arrivals_with_services, spacing_ns
from test_forwarder import quiet_timing

from qdtp.errors import QdtpError
from qdtp.forwarder import ForwarderConfig, UdpForwarder, make_payload
from qdtp.manifests import bundled_manifest_names, load_manifest, resolve_scenario
from qdtp.metrics import drain_time, littles_law_check, queue_intervals
from qdtp.recursions import (
    ArrivalSequence,
    QdtpConfig,
    lindley_waits,
    qdtp_delays_ns,
    qdtp_schedule,
    server_waits,
)
from qdtp.simulator import ABSENT_NS, simulate, simulate_sequences, verify_trace

PROPERTY_CASES = 500


def _occupancy_at(trace, which, instant_ns):
    from bisect import bisect_right

    entries, exits = queue_intervals(trace.admitted)[which]
    return bisect_right(entries, instant_ns) - bisect_right(sorted(exits), instant_ns)


def _reduce(name, manifest, trace, verify_error):
    p = trace.packets
    completed = [i for i, why in enumerate(p.drop_reason) if why is None]
    window = trace.attack_window_ns
    baseline = [i for i in completed if window and p.t_ns[i] < window[0]]
    attacked = [i for i in completed if window and window[0] <= p.t_ns[i] < window[1]]
    return SimpleNamespace(
        name=name,
        packets=len(p),
        verify_error=verify_error,
        d_ms=manifest.sqf_d_ms,
        mitigation=manifest.mitigation,
        sampled_server_max=max(trace.server_counts, default=0),
        server_peak=littles_law_check(*queue_intervals(trace.admitted)["server"])["peak"],
        sqf_peak=littles_law_check(*queue_intervals(trace.admitted)["sqf"])["peak"],
        backlog_at_attack_end=(
            _occupancy_at(trace, "server", window[1]) if window else 0
        ),
        drain_s=drain_time(trace, "server") if window else 0.0,
        base_sojourn_ms=(
            fmean(p.end_ns[i] - p.t_ns[i] for i in baseline) / 1e6
            if baseline else None
        ),
        attack_sojourn_ms=(
            fmean(p.end_ns[i] - p.t_ns[i] for i in attacked) / 1e6
            if attacked else None
        ),
        offered_attack=sum(1 for atk in p.is_attack if atk),
        admitted_attack=sum(1 for i in completed if p.is_attack[i]),
    )


@pytest.fixture(scope="module")
def figures():
    """Run every bundled manifest once; keep aggregates, drop the traces."""
    stats = {}
    started = time.perf_counter()
    for name in bundled_manifest_names():
        manifest = load_manifest(name)
        scenario = resolve_scenario(manifest.scenario)
        trace = simulate(
            dataclasses.replace(scenario, seed=manifest.seeds[0]),
            manifest.d_ns,
            manifest.mitigation,
            sampling_interval=manifest.sampling_interval_ms / 1000.0,
        )
        error = None
        try:
            verify_trace(trace)
        except QdtpError as exc:
            error = f"{name}: {exc}"
        stats[name] = _reduce(name, manifest, trace, error)
        del trace
        gc.collect()
    stats["_elapsed"] = time.perf_counter() - started
    return stats


# -- criterion 1: Result 1, exact zero server waits --------------------------

def test_criterion_1_result1_zero_waits():
    rng = random.Random(0xC0FFEE)
    started = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(1, 100)
        d = rng.randint(2, 10_000_000)
        shape = rng.randrange(3)
        if shape == 0:  # full burst: every datagram at the same instant
            arrivals = [rng.randint(0, 1_000_000_000)] * n
        elif shape == 1:  # paced-ish with random slack
            t = rng.randint(0, 1000)
            arrivals = []
            for _ in range(n):
                arrivals.append(t)
                t += rng.randint(0, 2 * d)
        else:  # arbitrary sorted instants
            arrivals = sorted(rng.randint(0, n * d) for _ in range(n))
        services = [rng.randint(1, d - 1) for _ in range(n)]  # max T < D

        schedule = qdtp_schedule(ArrivalSequence(tuple(arrivals)), QdtpConfig(d))
        via_recursion = server_waits(schedule, services)
        trace = simulate_sequences(arrivals, services, d)
        p = trace.packets
        via_simulator = [s - t for t, s in zip(p.t_ns, p.start_ns)]
        assert via_recursion == via_simulator
        assert not any(via_recursion)
    elapsed = time.perf_counter() - started
    record(
        1,
        elapsed < 10.0,
        f"1,000 random sequences (bursts included), both routes identically "
        f"zero, {elapsed:.1f} s",
    )


# -- criterion 2: simulator == recursions on every bundled manifest ----------

def test_criterion_2_oracle_equivalence(figures):
    errors = [s.verify_error for k, s in figures.items()
              if k != "_elapsed" and s.verify_error]
    n_manifests = len(figures) - 1
    n_packets = sum(s.packets for k, s in figures.items() if k != "_elapsed")
    elapsed = figures["_elapsed"]
    record(
        2,
        not errors and elapsed < 120.0,
        f"{n_manifests} bundled manifests, {n_packets:,} packets replayed "
        f"through the recursions exactly, {elapsed:.1f} s"
        + (f"; failures: {errors}" if errors else ""),
    )


# -- criterion 3: unprotected flood reproduction ------------------------------

def test_criterion_3_unprotected_flood(figures):
    fig3 = figures["fig3_no_sqf"]
    outliers = figures["fig3_no_sqf_outliers"]
    scenario = resolve_scenario("flood_60s")
    attack_mean_s = scenario.service_under_attack.mean
    attack_duration = scenario.attack.duration

    peak_err = abs(fig3.server_peak - 400_000) / 400_000
    oracle_s = fig3.backlog_at_attack_end * attack_mean_s
    drain_err = abs(fig3.drain_s - oracle_s) / oracle_s
    ok = (
        peak_err <= 0.05
        and drain_err <= 0.10
        and outliers.drain_s >= 10.0 * attack_duration
    )
    record(
        3,
        ok,
        f"server peak {fig3.server_peak:,} ({peak_err:.1%} from 400,000), "
        f"drain {fig3.drain_s:.0f} s vs oracle {oracle_s:.0f} s "
        f"({drain_err:.1%}), outlier drain {outliers.drain_s:.0f} s "
        f"≥ {10.0 * attack_duration:.0f} s",
    )


# -- criterion 4: D above the service mean keeps the device idle -------------

def test_criterion_4_protective_spacing(figures):
    fig10 = figures["fig10_d3_2"]
    rel = abs(fig10.attack_sojourn_ms - fig10.base_sojourn_ms) / fig10.base_sojourn_ms
    ok = fig10.sampled_server_max <= 2 and rel <= 0.05
    record(
        4,
        ok,
        f"D=3.2 ms: server ≤ {fig10.sampled_server_max} at every sample, "
        f"sojourn {fig10.attack_sojourn_ms:.2f} ms vs baseline "
        f"{fig10.base_sojourn_ms:.2f} ms ({rel:.1%})",
    )


# -- criterion 5: D below the service mean degrades the device ---------------

def test_criterion_5_insufficient_spacing(figures):
    fig8 = figures["fig8_d2_7"]
    ratio = fig8.attack_sojourn_ms / fig8.base_sojourn_ms
    record(
        5,
        ratio >= 1.05,
        f"D=2.7 ms: sojourn under attack {fig8.attack_sojourn_ms:.2f} ms = "
        f"{ratio:.2f}× the {fig8.base_sojourn_ms:.2f} ms baseline (≥1.05 required)",
    )


# -- criterion 6: mitigation caps the SQF queue -------------------------------

def test_criterion_6_mitigation_cap(figures):
    fig12 = figures["fig12_mitigation"]
    scenario = resolve_scenario("flood_10s")
    n, k = fig12.mitigation
    d_s = fig12.d_ms / 1e3
    cap = 1.2 * math.ceil(scenario.attack.duration / (k * d_s)) * (n + 1)
    ok = fig12.sqf_peak <= 12 and fig12.admitted_attack <= cap
    record(
        6,
        ok,
        f"N={n} K={k}: SQF peak {fig12.sqf_peak} ≤ 12, admitted flood "
        f"{fig12.admitted_attack} of {fig12.offered_attack:,} ≤ cap {cap:.0f}",
    )


# -- criterion 7: live pacing through real sockets ----------------------------

def _one_live_burst(count=1000, d_us=3000, tol_ns=500_000):
    fwd = UdpForwarder(ForwarderConfig(
        listen=("127.0.0.1", 0), upstream=("127.0.0.1", 9),
        d_us=d_us, record_log=True,
    ))
    fwd.start()
    try:
        with quiet_timing():
            tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                for i in range(count):
                    tx.sendto(make_payload(i), ("127.0.0.1", fwd.listen_port))
            finally:
                tx.close()
            done = fwd.wait_for_forwarded(count, timeout=count * d_us / 1e6 + 10)
        stats = fwd.snapshot_stats()
        log = list(fwd.departure_log)
    finally:
        fwd.stop()
    if not done or len(log) != count:
        return False, f"only {len(log)}/{count} datagrams forwarded"
    planned = qdtp_schedule(
        ArrivalSequence(tuple(r for r, _, _ in log)), QdtpConfig(d_us * 1000)
    )
    if planned.times_ns != tuple(p for _, p, _ in log):
        return False, "pacer disagreed with the offline schedule"
    worst = max(a - p for _, p, a in log)
    early = min(a - p for _, p, a in log)
    ok = stats.pacing_violations == 0 and early >= 0 and worst <= tol_ns
    return ok, (
        f"{count} datagrams at D={d_us / 1000:g} ms: "
        f"{stats.pacing_violations} violations, departures within "
        f"[{early / 1000:.0f}, {worst / 1000:.0f}] µs of plan"
    )


@pytest.mark.live
def test_criterion_7_live_pacing():
    # The host of this single-vCPU sandbox freezes the guest for 0.5-10 ms
    # about once a second — an *idle* realtime thread measures 0-8 such
    # stalls per 3 s window, so no in-process discipline can avoid them and
    # only ~1 in 5 windows is quiet.  Every attempt below runs the complete
    # criterion at the stated tolerance; a defective pacer (late sends,
    # drift, schedule mismatch) fails all of them, while a bounded number
    # of retries just waits out the host noise.
    history = []
    for attempt in range(25):
        ok, detail = _one_live_burst()
        history.append(detail)
        if ok:
            break
    record(
        7,
        ok,
        f"{detail} (attempt {attempt + 1})"
        + ("" if ok else f"; all attempts: {history}"),
    )


# -- criterion 8: randomized property suites ----------------------------------

@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(data=arrivals_with_services(min_size=2, max_size=30))
def _prop_lindley_growth(data):
    times, durs = data
    waits = lindley_waits(ArrivalSequence(tuple(times)), durs)
    for i in range(len(times) - 1):
        if durs[i] > times[i + 1] - times[i]:
            assert waits[i + 1] > waits[i]


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(times=arrival_times_ns(max_size=30), d1=spacing_ns, d2=spacing_ns)
def _prop_monotone_in_d(times, d1, d2):
    lo, hi = sorted((d1, d2))
    a = ArrivalSequence(tuple(times))
    sched_lo = qdtp_schedule(a, QdtpConfig(lo))
    sched_hi = qdtp_schedule(a, QdtpConfig(hi))
    assert all(x <= y for x, y in zip(sched_lo.times_ns, sched_hi.times_ns))
    assert all(
        x <= y
        for x, y in zip(
            qdtp_delays_ns(a, QdtpConfig(lo)), qdtp_delays_ns(a, QdtpConfig(hi))
        )
    )


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(times=arrival_times_ns(min_size=1, max_size=30), d=spacing_ns)
def _prop_identity_at_small_d(times, d):
    gaps = [b - a for a, b in zip(times, times[1:])]
    min_gap = min(gaps, default=d)
    if min_gap < 1:
        return  # simultaneous arrivals always get spaced
    d = min(d, min_gap)
    sched = qdtp_schedule(ArrivalSequence(tuple(times)), QdtpConfig(d))
    assert sched.times_ns == tuple(times)
    assert not any(sched.delays_ns)


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(data=arrivals_with_services(max_size=30), d=spacing_ns)
def _prop_fcfs_order(data, d):
    times, durs = data
    trace = simulate_sequences(times, durs, d)
    starts = list(trace.packets.start_ns)
    assert starts == sorted(starts)
    exits = list(trace.packets.end_ns)
    assert exits == sorted(exits)


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(data=arrivals_with_services(max_size=30), d=spacing_ns,
       n=spacing_ns.map(lambda v: v % 5 + 1), cap=spacing_ns.map(lambda v: v % 8))
def _prop_conservation(data, d, n, cap):
    times, durs = data
    trace = simulate_sequences(times, durs, d, (n, 2), sqf_capacity=cap or None)
    p = trace.packets
    completed = sum(1 for why in p.drop_reason if why is None)
    dropped = sum(1 for why in p.drop_reason if why is not None)
    assert completed + dropped == len(times)
    for why, start, end in zip(p.drop_reason, p.start_ns, p.end_ns):
        if why is not None:
            assert why in ("mitigation", "capacity")
            assert start == ABSENT_NS
        else:
            assert end != ABSENT_NS


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(data=arrivals_with_services(max_size=30), d=spacing_ns)
def _prop_pacing_cost_bound(data, d):
    # with every service at most D, the gate delay q never falls below the
    # wait w the same packets would have had at the device with no gate,
    # and exceeds it by at most the pacing slack D - s accumulated over the
    # packets since the gate last emptied
    times, durs = data
    durs = [min(s, d) for s in durs]
    a = ArrivalSequence(tuple(times))
    q = qdtp_schedule(a, QdtpConfig(d)).delays_ns
    w = lindley_waits(a, durs)
    slack = 0
    for qn, wn, s in zip(q, w, durs):
        if qn == 0:
            slack = 0
        assert 0 <= qn - wn <= slack
        slack += d - s


def test_criterion_8_property_suites():
    suites = [
        ("lindley growth", _prop_lindley_growth),
        ("monotone in D", _prop_monotone_in_d),
        ("identity at small D", _prop_identity_at_small_d),
        ("FCFS order", _prop_fcfs_order),
        ("conservation", _prop_conservation),
        ("pacing cost bound", _prop_pacing_cost_bound),
    ]
    started = time.perf_counter()
    for _, prop in suites:
        prop()
    elapsed = time.perf_counter() - started
    record(
        8,
        True,
        f"{len(suites)} property suites × {PROPERTY_CASES} cases green, "
        f"{elapsed:.1f} s",
    )
