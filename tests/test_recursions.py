"""Unit tests for the closed-form recursions.

The expected values in TestFrozenExamples were worked out by hand on paper
from the recursion definitions and are frozen here as the oracle.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtp.errors import ContractViolation
from qdtp.metrics import run_summary
from qdtp.recursions import (
    ArrivalSequence,
    ForwardSchedule,
    QdtpConfig,
    ServiceSequence,
    lindley_waits,
    qdtp_delays_ns,
    qdtp_schedule,
    server_waits,
)
from qdtp.simulator import simulate_sequences

import strategies as own

MS = 1_000_000  # ns per millisecond


class TestFrozenExamples:
    def test_lindley_steady_growth(self):
        # arrivals every 1 ms, service 3 ms: backlog grows 2 ms per packet
        w = lindley_waits([0.0, 0.001, 0.002, 0.003], [0.003] * 4)
        assert w.waits_ns == (0, 2 * MS, 4 * MS, 6 * MS)

    def test_lindley_idle_gap_resets(self):
        # big gap after the second packet empties the queue again
        w = lindley_waits([0.0, 0.001, 0.1], [0.003, 0.003, 0.003])
        assert w.waits_ns == (0, 2 * MS, 0)

    def test_schedule_spreads_burst(self):
        s = qdtp_schedule([0.0, 0.0, 0.0, 0.0], 0.003)
        assert s.times_ns == (0, 3 * MS, 6 * MS, 9 * MS)
        assert s.delays_ns == (0, 3 * MS, 6 * MS, 9 * MS)

    def test_schedule_idle_passthrough(self):
        s = qdtp_schedule([0.0, 0.01, 0.02], 0.003)
        assert s.times_ns == (0, 10 * MS, 20 * MS)
        assert s.delays_ns == (0, 0, 0)

    def test_delay_recursion_example(self):
        assert qdtp_delays_ns([0.0, 0.001, 0.002], 0.003) == [0, 2 * MS, 4 * MS]

    def test_delay_matches_schedule_on_example(self):
        a = [0.0, 0.001, 0.002, 0.0025, 0.1]
        s = qdtp_schedule(a, 0.003)
        assert tuple(qdtp_delays_ns(a, 0.003)) == s.delays_ns

    def test_server_waits_behind_gate(self):
        # gate spacing 3 ms but service takes 5 ms: deficit 2 ms per packet
        sched = ForwardSchedule((0, 3 * MS, 6 * MS), (0, 0, 0), 3 * MS)
        w = server_waits(sched, [0.005, 0.005, 0.005])
        assert w.waits_ns == (0, 2 * MS, 4 * MS)

    def test_end_to_end_burst(self):
        # the gate absorbs the whole burst; the 1 ms device never queues
        a = [0.0, 0.0, 0.0, 0.0]
        cfg = QdtpConfig.from_seconds(0.003)
        sched = qdtp_schedule(a, cfg)
        w = server_waits(sched, [0.001] * 4)
        assert w.waits_ns == (0, 0, 0, 0)
        assert sched.delays_ns == (0, 3 * MS, 6 * MS, 9 * MS)

    def test_check_result1(self):
        # summary.json checks Result 1's condition, D above every processing
        # time, on each run; equality is not enough: the condition is strict
        for services, holds in (([0.001, 0.002, 0.0029], True), ([0.001, 0.003], False)):
            trace = simulate_sequences([0.0] * len(services), services, QdtpConfig(3 * MS))
            advisor = run_summary(trace)["spacing_advisor"]
            assert advisor["d_exceeds_max_service"] is holds


class TestValidation:
    def test_unsorted_arrivals_rejected(self):
        with pytest.raises(ContractViolation):
            ArrivalSequence.from_seconds([0.0, 0.002, 0.001])

    def test_negative_arrival_rejected(self):
        with pytest.raises(ContractViolation):
            ArrivalSequence.from_seconds([-0.001, 0.0])

    def test_nonpositive_service_rejected(self):
        with pytest.raises(ContractViolation):
            ServiceSequence.from_seconds([0.001, 0.0])

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ContractViolation):
            QdtpConfig.from_seconds(0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            lindley_waits([0.0, 0.001], [0.001])
        sched = qdtp_schedule([0.0, 0.001], 0.003)
        with pytest.raises(ContractViolation):
            server_waits(sched, [0.001])

    def test_empty_sequences_allowed(self):
        assert len(lindley_waits([], [])) == 0
        assert len(qdtp_schedule([], 0.003)) == 0
        assert qdtp_delays_ns([], 0.003) == []


class TestProperties:
    @given(own.arrival_times_ns(), own.spacing_ns)
    def test_delay_routes_agree_exactly(self, times, d):
        a = ArrivalSequence(tuple(times))
        cfg = QdtpConfig(d)
        sched = qdtp_schedule(a, cfg)
        assert tuple(qdtp_delays_ns(a, cfg)) == sched.delays_ns
        assert sched.delays_ns == tuple(t - x for t, x in zip(sched.times_ns, times))

    @given(own.arrival_times_ns(min_size=1), own.spacing_ns)
    def test_schedule_causal_and_spaced(self, times, d):
        sched = qdtp_schedule(ArrivalSequence(tuple(times)), QdtpConfig(d))
        assert all(t >= a for t, a in zip(sched.times_ns, times))
        assert all(b - a >= d for a, b in zip(sched.times_ns, sched.times_ns[1:]))
        assert sched.times_ns[0] == times[0]

    @given(own.arrivals_with_services(), own.spacing_ns)
    def test_result1_strict_condition(self, arr_svc, d):
        times, durs = arr_svc
        durs = [min(x, d - 1) for x in durs]
        if any(x < 1 for x in durs):
            return
        assert d > max(durs)
        sched = qdtp_schedule(ArrivalSequence(tuple(times)), QdtpConfig(d))
        w = server_waits(sched, ServiceSequence(tuple(durs)))
        assert set(w.waits_ns) <= {0}

    @given(own.arrival_times_ns(min_size=2), own.spacing_ns)
    def test_result1_boundary_equality_still_idle(self, times, d):
        # service exactly equal to D: strictly the condition fails, yet the
        # server still never queues -- the boundary is tight but safe
        sched = qdtp_schedule(ArrivalSequence(tuple(times)), QdtpConfig(d))
        svc = ServiceSequence(tuple([d] * len(times)))
        assert not d > max(svc.durations_ns)
        w = server_waits(sched, svc)
        assert set(w.waits_ns) <= {0}

    @given(own.arrivals_with_services(min_size=1))
    def test_lindley_matches_naive_replay(self, arr_svc):
        times, durs = arr_svc
        w = lindley_waits(
            ArrivalSequence(tuple(times)), ServiceSequence(tuple(durs))
        )
        # naive replay: start = max(previous end, own arrival)
        end = None
        for i, (a, s) in enumerate(zip(times, durs)):
            start = a if end is None or end < a else end
            assert w.waits_ns[i] == start - a
            end = start + s
