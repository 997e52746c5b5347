"""Tests for the event simulator.

The load-bearing checks here are the dual-route ones: the engine advances
queue state packet by packet and must agree, integer for integer, with the
closed-form recursions applied to the same inputs.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtp.errors import ConfigurationError, ContractViolation, InvariantViolation
from qdtp.mitigation import MitigationPolicy
from qdtp.recursions import (
    ArrivalSequence,
    QdtpConfig,
    ServiceSequence,
    lindley_waits,
    qdtp_schedule,
    server_waits,
)
from qdtp.scenario import Scenario, ServiceModel, TrafficModel, sample_services
from qdtp.simulator import drain_time, simulate, simulate_sequences, verify_trace

import strategies as own

MS = 1_000_000


def constant_scenario(**overrides):
    base = dict(
        normal_sources=(TrafficModel(kind="periodic", rate=2.0, duration=5.0),),
        attack=None,
        service_no_attack=ServiceModel(mode="constant", mean=0.003),
        service_under_attack=ServiceModel(mode="constant", mean=0.010),
        seed=3,
        horizon=5.0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestDirectFeed:
    def test_matches_lindley_example(self):
        trace = simulate_sequences([0.0, 0.001, 0.002, 0.003], [0.003] * 4)
        waits = tuple(r.server_wait_ns for r in trace.per_packet)
        assert waits == (0, 2 * MS, 4 * MS, 6 * MS)
        oracle = lindley_waits([0.0, 0.001, 0.002, 0.003], [0.003] * 4)
        assert waits == oracle.waits_ns

    def test_no_gate_means_t_equals_a(self):
        trace = simulate_sequences([0.0, 0.005, 0.007], [0.001] * 3)
        assert all(r.t_ns == r.a_ns for r in trace.per_packet)
        assert trace.d_ns is None

    def test_mitigation_requires_gate(self):
        with pytest.raises(ConfigurationError):
            simulate_sequences([0.0], [0.001], None, (10, 3))


class TestGatedFeed:
    def test_burst_released_at_spacing(self):
        trace = simulate_sequences([0.0] * 4, [0.001] * 4, QdtpConfig.from_seconds(0.003))
        assert tuple(r.t_ns for r in trace.per_packet) == (0, 3 * MS, 6 * MS, 9 * MS)
        assert tuple(r.server_wait_ns for r in trace.per_packet) == (0, 0, 0, 0)
        assert tuple(r.service_end_ns for r in trace.per_packet) == (
            1 * MS,
            4 * MS,
            7 * MS,
            10 * MS,
        )

    def test_slow_service_waits_match_recursion(self):
        a = [0.0, 0.0, 0.0]
        svc = [0.005, 0.005, 0.005]
        trace = simulate_sequences(a, svc, QdtpConfig.from_seconds(0.003))
        sched = qdtp_schedule(a, 0.003)
        oracle = server_waits(sched, svc)
        assert tuple(r.server_wait_ns for r in trace.per_packet) == oracle.waits_ns
        assert oracle.waits_ns == (0, 2 * MS, 4 * MS)

    def test_gate_capacity_drops(self):
        trace = simulate_sequences(
            [0.0] * 10,
            [0.001] * 10,
            QdtpConfig.from_seconds(0.003),
            sqf_capacity=4,
        )
        dropped = [r for r in trace.per_packet if r.dropped]
        assert len(dropped) == 5  # first released immediately, 4 queued
        assert all(r.drop_reason == "capacity" for r in dropped)
        verify_trace(trace)

    def test_mitigation_drops_recorded(self):
        trace = simulate_sequences(
            [0.0] * 12,
            [0.001] * 12,
            QdtpConfig.from_seconds(0.003),
            MitigationPolicy(10, 3),
        )
        admitted = trace.completed()
        dropped = trace.dropped()
        assert len(admitted) == 10
        assert len(dropped) == 2
        assert all(r.drop_reason == "mitigation" for r in dropped)
        verify_trace(trace)

    def test_tuple_mitigation_accepted(self):
        trace = simulate_sequences(
            [0.0] * 12, [0.001] * 12, QdtpConfig.from_seconds(0.003), (10, 3)
        )
        assert trace.mitigation == (10, 3)
        assert len(trace.completed()) == 10


class TestVerifyTrace:
    def test_dropped_packet_with_gate_timestamp_rejected(self):
        trace = simulate_sequences(
            [0.0] * 10, [0.001] * 10, QdtpConfig.from_seconds(0.003), sqf_capacity=4
        )
        doctored = trace.dropped()[0]
        doctored.t_ns = doctored.a_ns
        with pytest.raises(InvariantViolation, match=f"packet {doctored.id}: dropped"):
            verify_trace(trace)

    def test_admitted_packet_with_drop_reason_rejected(self):
        trace = simulate_sequences([0.0, 0.0], [0.001] * 2, QdtpConfig.from_seconds(0.003))
        trace.per_packet[1].drop_reason = "capacity"
        with pytest.raises(InvariantViolation, match="packet 1: admitted"):
            verify_trace(trace)

    def test_divergence_names_recursion_packet_and_values(self):
        # gate releases at 0, 1, 2 ms; packet 1 waits for packet 0 until 3 ms
        trace = simulate_sequences([0.0] * 3, [0.003] * 3, QdtpConfig.from_seconds(0.001))
        verify_trace(trace)
        trace.per_packet[0].service_end_ns = 2_500_000
        with pytest.raises(InvariantViolation) as err:
            verify_trace(trace)
        assert str(err.value) == (
            "server_waits disagrees with the trace at packet 1: "
            "expected 1500000 ns, recorded 2000000 ns"
        )


class TestScenarioRuns:
    def test_constant_scenario_result1(self):
        # D = 4 ms > T = 3 ms: no server waits at all
        trace = simulate(constant_scenario(), QdtpConfig.from_seconds(0.004))
        assert all(r.server_wait_ns == 0 for r in trace.per_packet)
        assert max(trace.server_counts) <= 1
        verify_trace(trace)

    def test_regime_switch_under_congestion(self):
        s = constant_scenario(
            normal_sources=(TrafficModel(kind="periodic", rate=1.0, duration=5.0),),
            attack=TrafficModel(kind="burst", rate=500.0, start=1.0, duration=1.0),
            horizon=5.0,
            congestion_threshold=50,
        )
        trace = simulate(s)
        services = {r.service_ns for r in trace.completed()}
        # both models show up: 3 ms before congestion, 10 ms inside it
        assert services == {3 * MS, 10 * MS}
        assert any(trace.service_regime) and not all(trace.service_regime)
        verify_trace(trace)

    def test_replaying_regime_flags_reproduces_services(self):
        s = Scenario(
            normal_sources=(TrafficModel(kind="poisson", rate=50.0, duration=4.0),),
            attack=TrafficModel(kind="burst", rate=200.0, start=1.0, duration=1.0),
            service_no_attack=ServiceModel(mode="gaussian", mean=2.98e-3, variance=5.5e-9),
            service_under_attack=ServiceModel(mode="gaussian", mean=4.82e-3, variance=5.1e-7),
            seed=9,
            horizon=4.0,
            congestion_threshold=20,
        )
        trace = simulate(s)
        replay = sample_services(s, trace.service_regime)
        recorded = tuple(r.service_ns for r in trace.completed())
        assert replay.durations_ns == recorded

    def test_same_seed_same_trace(self):
        a = simulate(constant_scenario(), QdtpConfig.from_seconds(0.004))
        b = simulate(constant_scenario(), QdtpConfig.from_seconds(0.004))
        assert a.per_packet == b.per_packet
        assert a.sqf_counts == b.sqf_counts

    def test_sampled_counts_match_naive_recount(self):
        s = constant_scenario(
            attack=TrafficModel(kind="poisson", rate=300.0, start=1.0, duration=2.0),
        )
        trace = simulate(s, QdtpConfig.from_seconds(0.004))
        for g, sqf_c, srv_c in zip(trace.times_ns, trace.sqf_counts, trace.server_counts):
            sqf = sum(
                1
                for r in trace.per_packet
                if not r.dropped and r.a_ns <= g < r.t_ns
            )
            srv = sum(
                1
                for r in trace.per_packet
                if not r.dropped and r.t_ns <= g < r.service_end_ns
            )
            assert (sqf, srv) == (sqf_c, srv_c)


class TestDrainTime:
    def test_no_attack_is_zero(self):
        trace = simulate(constant_scenario())
        assert drain_time(trace) == 0.0
        assert drain_time(trace, "sqf") == 0.0

    def test_backlog_drains_after_attack(self):
        # 2,000-packet flood: the backlog takes ~20 s to clear, far past the
        # 5 s horizon, so the last busy instant is the backlog clearing
        s = constant_scenario(
            attack=TrafficModel(kind="periodic", rate=2000.0, start=1.0, duration=1.0),
            horizon=5.0,
        )
        trace = simulate(s)
        measured = drain_time(trace)
        backlog = max(trace.server_counts)
        # fluid oracle: backlog at attack end times the degraded mean
        assert measured == pytest.approx(backlog * 0.010, rel=0.10)

    def test_trailing_benign_traffic_counts_as_busy(self):
        # drain is "last non-empty instant minus attack end": benign packets
        # arriving after the backlog clears keep the server busy in spurts,
        # so they set the drain value for mild floods
        s = constant_scenario(
            attack=TrafficModel(kind="periodic", rate=400.0, start=1.0, duration=1.0),
            horizon=5.0,
        )
        trace = simulate(s)
        last_end = max(r.service_end_ns for r in trace.completed())
        assert drain_time(trace) == pytest.approx(last_end / 1e9 - 2.0)

    def test_unknown_queue_rejected(self):
        trace = simulate(constant_scenario())
        with pytest.raises(ContractViolation):
            drain_time(trace, "gpu")


class TestEngineProperties:
    @given(own.arrivals_with_services(min_size=1, max_size=30), own.spacing_ns)
    @settings(deadline=None)
    def test_oracle_equivalence_gated(self, arr_svc, d):
        times, durs = arr_svc
        trace = simulate_sequences(
            ArrivalSequence(tuple(times)),
            ServiceSequence(tuple(durs)),
            QdtpConfig(d),
        )
        verify_trace(trace)

    @given(own.arrivals_with_services(min_size=1, max_size=30))
    @settings(deadline=None)
    def test_oracle_equivalence_direct(self, arr_svc):
        times, durs = arr_svc
        trace = simulate_sequences(
            ArrivalSequence(tuple(times)), ServiceSequence(tuple(durs))
        )
        verify_trace(trace)

    @given(
        own.arrivals_with_services(min_size=1, max_size=30),
        own.spacing_ns,
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=3),
    )
    @settings(deadline=None)
    def test_oracle_equivalence_with_mitigation(self, arr_svc, d, n, k):
        times, durs = arr_svc
        trace = simulate_sequences(
            ArrivalSequence(tuple(times)),
            ServiceSequence(tuple(durs)),
            QdtpConfig(d),
            MitigationPolicy(n, k),
        )
        verify_trace(trace)
        assert len(trace.completed()) + len(trace.dropped()) == len(times)
