"""Tests for the event simulator.

The load-bearing checks here are the dual-route ones: the engine advances
queue state packet by packet and must agree, integer for integer, with the
closed-form recursions applied to the same inputs.
"""
import dataclasses
import tracemalloc
from array import array
from bisect import bisect_left
from collections import deque
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtp.artifacts import read_packets_csv, trace_from_records, write_packets_csv
from qdtp.errors import ConfigurationError, ContractViolation, InvariantViolation
from qdtp.manifests import resolve_scenario
from qdtp.metrics import drain_time, queue_intervals
from qdtp.mitigation import MitigationGate, MitigationPolicy
from qdtp.recursions import (
    ArrivalSequence,
    QdtpConfig,
    lindley_waits,
    qdtp_delays_ns,
    qdtp_schedule,
    server_waits,
)
from qdtp.scenario import (
    LabeledArrivals,
    Scenario,
    ServiceModel,
    ServiceSampler,
    TrafficModel,
)
from qdtp.simulator import (
    ABSENT_NS,
    DROP_REASONS,
    Packets,
    _engine,
    check_records,
    simulate,
    simulate_sequences,
    verify_trace,
)

import strategies as own
from summary_halves import summary_in_process

MS = 1_000_000


def reasons_of(packets):
    """Each packet's drop reason by name, read through DROP_REASONS."""
    return [DROP_REASONS[code] for code in packets.drop_reason]


def admitted_ids(trace):
    return [i for i, why in enumerate(reasons_of(trace.packets)) if why is None]


def server_waits_of(trace):
    """Each admitted packet's wait at the device (service start minus t)."""
    p = trace.packets
    return tuple(p.start_ns[i] - p.t_ns[i] for i in admitted_ids(trace))


def service_times_of(trace):
    p = trace.packets
    return tuple(p.end_ns[i] - p.start_ns[i] for i in admitted_ids(trace))


def congestion_flags(trace, threshold):
    """Each admitted packet's congestion flag, read from the recorded columns.

    When packet j starts service at ``start_j``, the device holds the
    packets released before that instant that have not started yet, j
    among them; the engine calls that congested above ``threshold``.
    """
    t, start = trace.admitted.t_ns, trace.admitted.start_ns
    return [bisect_left(t, x) - bisect_left(start, x) > threshold for x in start]


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
        trace = simulate_sequences([0, MS, 2 * MS, 3 * MS], [3 * MS] * 4)
        waits = server_waits_of(trace)
        assert waits == (0, 2 * MS, 4 * MS, 6 * MS)
        oracle = lindley_waits(ArrivalSequence((0, MS, 2 * MS, 3 * MS)), [3 * MS] * 4)
        assert list(waits) == oracle

    def test_no_gate_means_t_equals_a(self):
        trace = simulate_sequences([0, 5 * MS, 7 * MS], [MS] * 3)
        assert list(trace.packets.t_ns) == list(trace.packets.a_ns)
        assert trace.d_ns is None

    def test_mitigation_requires_gate(self):
        with pytest.raises(ConfigurationError):
            simulate_sequences([0], [MS], None, (10, 3))

    def test_service_end_past_64_bit_ns_rejected(self):
        # the second service ends at 1e19 ns, past 2**63 - 1: once "no event"
        # was 2**62, and the engine popped an empty queue
        with pytest.raises(ConfigurationError,
                           match="event time 10000000000000000000 ns does not fit"):
            simulate_sequences([0, 0], [5 * 10**18] * 2, interval_ns=10**18)

    def test_release_past_64_bit_ns_rejected(self):
        # the gate releases the second packet D = 2**62 ns after the first
        with pytest.raises(ConfigurationError, match=f"event time {2**63} ns does not fit"):
            simulate_sequences([0, 0, 10**9], [MS] * 3, 2**62, interval_ns=10**18)

    def test_gated_service_end_past_64_bit_ns_rejected(self):
        # the second packet, released at D = 2**62 ns, starts when the first
        # ends at 5e18 ns and ends at 1e19 ns; the third release, at 2**63 ns,
        # would not fit either, but that end comes first in time
        with pytest.raises(ConfigurationError,
                           match="event time 10000000000000000000 ns does not fit"):
            simulate_sequences([0, 0, 0], [5 * 10**18] * 3, 2**62, interval_ns=10**18)

    def test_spacing_past_64_bit_ns_rejected(self):
        with pytest.raises(ConfigurationError, match=f"spacing D of {2**63} ns"):
            simulate_sequences([0], [MS], 2**63)

    @pytest.mark.parametrize("d_ns", [0, -MS])
    def test_spacing_below_1_ns_rejected(self, d_ns):
        with pytest.raises(ConfigurationError, match=f"spacing D of {d_ns} ns is below 1 ns"):
            simulate_sequences([0], [MS], d_ns)


class TestGatedFeed:
    def test_burst_released_at_spacing(self):
        trace = simulate_sequences([0] * 4, [MS] * 4, 3 * MS)
        assert tuple(trace.packets.t_ns) == (0, 3 * MS, 6 * MS, 9 * MS)
        assert server_waits_of(trace) == (0, 0, 0, 0)
        assert tuple(trace.packets.end_ns) == (
            1 * MS,
            4 * MS,
            7 * MS,
            10 * MS,
        )

    def test_slow_service_waits_match_recursion(self):
        a = [0, 0, 0]
        svc = [5 * MS, 5 * MS, 5 * MS]
        trace = simulate_sequences(a, svc, 3 * MS)
        sched = qdtp_schedule(ArrivalSequence(tuple(a)), QdtpConfig(3 * MS))
        oracle = server_waits(sched, svc)
        assert list(server_waits_of(trace)) == oracle
        assert oracle == [0, 2 * MS, 4 * MS]

    def test_gate_capacity_drops(self):
        trace = simulate_sequences(
            [0] * 10,
            [MS] * 10,
            3 * MS,
            sqf_capacity=4,
        )
        dropped = [why for why in reasons_of(trace.packets) if why is not None]
        assert len(dropped) == 5  # first released immediately, 4 queued
        assert all(why == "capacity" for why in dropped)
        verify_trace(trace)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_gate_capacity_below_1_rejected(self, capacity):
        with pytest.raises(ConfigurationError, match="capacity must be at least 1"):
            simulate_sequences([0], [MS], 3 * MS, sqf_capacity=capacity)
        with pytest.raises(ConfigurationError, match="capacity must be at least 1"):
            simulate(constant_scenario(), 3 * MS, sqf_capacity=capacity)

    def test_ties_complete_then_release_then_arrive(self):
        # D = 3 ms and a gate of capacity 1.  At 6 ms packet 0 completes,
        # packet 2 is released and packet 3 arrives.  The completion comes
        # first, so packet 1 starts alone: its queue is 1, not congested at
        # threshold 1.  The release comes before the arrival, so the gate is
        # empty when packet 3 arrives, which is admitted.  The same holds at
        # 3 ms, where packet 1 is released and packet 2 arrives.
        arrivals, services = [0, 0, 3 * MS, 6 * MS], [6 * MS, 4 * MS, MS, MS]
        asked = []

        def draw(j, congested):
            asked.append((j, congested))
            return services[j]

        labeled = LabeledArrivals(ArrivalSequence(arrivals), array("i", [0]) * 4, bytearray(4))
        trace = _engine(labeled, draw, 3 * MS, None, interval_ns=100 * MS,
                        congestion_threshold=1, attack_window_ns=None, seed=None,
                        sqf_capacity=1)
        p = trace.packets
        assert reasons_of(p) == [None] * 4
        assert p.t_ns.tolist() == [0, 3 * MS, 6 * MS, 9 * MS]
        assert p.start_ns.tolist() == [0, 6 * MS, 10 * MS, 11 * MS]
        # packet 2 starts at 10 ms with packet 3 (released at 9 ms) behind it
        assert asked == [(0, False), (1, False), (2, True), (3, False)]

    def test_mitigation_drops_recorded(self):
        trace = simulate_sequences(
            [0] * 12,
            [MS] * 12,
            3 * MS,
            MitigationPolicy(10, 3),
        )
        admitted = admitted_ids(trace)
        dropped = [why for why in reasons_of(trace.packets) if why is not None]
        assert len(admitted) == 10
        assert len(dropped) == 2
        assert all(why == "mitigation" for why in dropped)
        verify_trace(trace)

    def test_tuple_mitigation_accepted(self):
        trace = simulate_sequences(
            [0] * 12, [MS] * 12, 3 * MS, (10, 3)
        )
        assert trace.mitigation == (10, 3)
        assert len(admitted_ids(trace)) == 10


class TestVerifyTrace:
    def test_dropped_packet_with_gate_timestamp_rejected(self):
        trace = simulate_sequences(
            [0] * 10, [MS] * 10, 3 * MS, sqf_capacity=4
        )
        doctored = reasons_of(trace.packets).index("capacity")
        trace.packets.t_ns[doctored] = trace.packets.a_ns[doctored]
        with pytest.raises(InvariantViolation, match=f"packet {doctored}: dropped"):
            verify_trace(trace)

    def test_admitted_packet_with_drop_reason_rejected(self):
        trace = simulate_sequences([0, 0], [MS] * 2, 3 * MS)
        # a reason on a packet with timestamps makes it a dropped packet
        # that still reached the gate and the device
        trace.packets.drop_reason[1] = DROP_REASONS.index("capacity")
        with pytest.raises(
            InvariantViolation, match="packet 1: dropped yet has gate/device timestamps"
        ):
            verify_trace(trace)

    def test_divergence_names_recursion_packet_and_values(self):
        # gate releases at 0, 1, 2 ms; packet 1 waits for packet 0 until 3 ms
        trace = simulate_sequences([0] * 3, [3 * MS] * 3, MS)
        verify_trace(trace)
        trace.packets.end_ns[0] = 2_500_000
        with pytest.raises(InvariantViolation) as err:
            verify_trace(trace)
        assert str(err.value) == (
            "server_waits disagrees with the trace at packet 1: "
            "expected 1500000 ns, recorded 2000000 ns"
        )

    def test_divergence_on_mitigated_trace_names_log_index(self):
        # packets 10 and 11 are dropped, so packet 13 is the 12th admitted
        trace = simulate_sequences(
            [0] * 12 + [10**9, 10**9], [MS] * 14, 3 * MS, (10, 3)
        )
        assert admitted_ids(trace) == list(range(10)) + [12, 13]
        verify_trace(trace)
        # the trace selects its admitted rows when it is built: rebuild it
        # from the doctored log
        trace.packets.t_ns[13] -= 1
        doctored = trace_from_records(trace.packets, d_ns=trace.d_ns)
        with pytest.raises(InvariantViolation) as err:
            verify_trace(doctored)
        assert str(err.value) == (
            "qdtp_schedule disagrees with the trace at packet 13: "
            "expected 1003000000 ns, recorded 1002999999 ns"
        )

    @pytest.mark.parametrize("d, recursion, expected_wait", [
        (MS, "server_waits", 4 * MS),
        (None, "lindley_waits", 6 * MS),
    ], ids=["gated", "ungated"])
    def test_idle_device_caught_by_device_replay(self, d, recursion, expected_wait):
        # three packets at 0 of 3 ms each: the device serves them back to
        # back until 9 ms; the last one then starts 1 ms late, so the device
        # idles while it waits, with FIFO order kept and no overlap
        trace = simulate_sequences([0] * 3, [3 * MS] * 3, d)
        verify_trace(trace)
        p = trace.packets
        assert (p.start_ns[2], p.end_ns[2]) == (6 * MS, 9 * MS)
        p.start_ns[2] += MS
        p.end_ns[2] += MS
        check_records(p)
        with pytest.raises(InvariantViolation) as err:
            verify_trace(trace)
        assert str(err.value) == (
            f"{recursion} disagrees with the trace at packet 2: "
            f"expected {expected_wait} ns, recorded {expected_wait + MS} ns"
        )

    @pytest.mark.parametrize("arrivals, d, column, index, value, error, message", [
        ([0], None, "end_ns", 0, 0, ContractViolation, "durations must be positive"),
        ([0, 10 * MS], None, "a_ns", 1, 9 * MS, InvariantViolation, "t differs from a"),
    ], ids=["zero_service", "ungated_t_not_a"])
    def test_replay_inputs_checked(self, arrivals, d, column, index, value, error, message):
        # each doctored log passes check_records, which asks neither for a
        # positive service nor for t == a
        trace = simulate_sequences(arrivals, [MS] * len(arrivals), d)
        getattr(trace.packets, column)[index] = value
        check_records(trace.packets)
        with pytest.raises(error, match=message):
            verify_trace(trace)


class TestCheckRecords:
    @pytest.mark.parametrize("second, message", [
        ((MS, None, None, None),
         "packet 1: admitted packet missing timestamps: "
         f"a=1000000, t={ABSENT_NS}, start={ABSENT_NS}, end={ABSENT_NS} ns"),
        ((MS, MS, 5 * MS, 4 * MS),
         "packet 1: packet timestamps out of order: "
         "a=1000000, t=1000000, start=5000000, end=4000000 ns"),
        ((MS, MS, 4 * MS, 5 * MS),
         "packet 1: FIFO order violated: t=1000000, start=4000000 ns after "
         "the previous admitted packet's t=2000000, start=2000000 ns"),
        ((MS, 2 * MS, 2 * MS, 4 * MS),
         "packet 1: service overlap at the device: start=2000000 ns "
         "before the previous admitted packet's end=3000000 ns"),
        ((MS // 2, 4 * MS, 4 * MS, 5 * MS),
         "packet 1: arrivals out of order: a=500000 ns after "
         "the previous packet's a=1000000 ns"),
    ], ids=["missing", "out_of_order", "fifo", "overlap", "arrivals_out_of_order"])
    def test_message_names_packet_and_values(self, second, message):
        first = (MS, 2 * MS, 2 * MS, 3 * MS)
        p = Packets([0, 0], [0, 0], *zip(first, second), [None, None])
        with pytest.raises(InvariantViolation) as err:
            check_records(p)
        assert str(err.value) == message

    def test_reason_code_outside_the_table_rejected(self):
        # Packets turns names into codes once; a code written into the
        # bytearray after that is caught where the log is checked
        trace = simulate_sequences([0] * 4, [MS] * 4, 3 * MS, sqf_capacity=1)
        p = trace.packets
        assert reasons_of(p) == [None, None, "capacity", "capacity"]
        check_records(p)
        p.drop_reason[3] = len(DROP_REASONS)
        with pytest.raises(InvariantViolation) as err:
            check_records(p)
        assert str(err.value) == (
            f"packet 3: dropped with reason code {len(DROP_REASONS)}, outside DROP_REASONS"
        )

    def test_dropped_packets_arrive_in_order_too(self):
        # the gate sees every arrival, so a dropped one out of order is a bad log
        p = Packets([0] * 3, [0] * 3, [0, 2 * MS, MS], [0, None, MS], [0, None, MS],
                    [MS // 2, None, 2 * MS], [None, "mitigation", None])
        with pytest.raises(InvariantViolation, match="packet 2: arrivals out of order"):
            check_records(p)


class TestStreamingSelfChecks:
    """simulate, verify_trace and run_summary hold no per-packet Python objects.

    A copy of one column costs 8 B per packet, and a Python int or float in
    a list or deque at least 32 B.  So the bounds below leave room for the
    columns and the one sample being summarised, but not for a list, or a
    queue of ids, that grows with the packets.
    """

    @staticmethod
    def scenario():
        s = resolve_scenario("flood_10s")
        return dataclasses.replace(s, attack=dataclasses.replace(s.attack, duration=3.3))

    @pytest.fixture(scope="class")
    def flood(self):
        trace = simulate(self.scenario(), 3 * MS)
        assert len(trace.packets) >= 50_000
        assert not any(trace.packets.drop_reason)  # the gate admits the whole flood
        return trace

    @pytest.mark.parametrize("options", [
        pytest.param({}, id="no_option"),
        pytest.param({"sqf_capacity": 50}, id="capacity_50"),
        pytest.param({"mitigation": (10, 3)}, id="mitigation_10_3"),
    ])
    def test_simulate_peak_per_packet(self, options):
        """Neither of the engine's passes keeps a per-packet Python list or queue.

        simulate of this flood peaked at 84.3 B per packet under tracemalloc
        while the gate's deque held up to 49,644 ids; at 49.0 B while
        ``drop_reason`` was a list of 8 B references; and with a bytearray
        of codes at 39.3 B: the columns and the arrivals.  With a gate
        capacity of 50 or (N, K) = (10, 3), which drop most of the flood,
        it peaks at 40.7 B and 39.6 B.
        """
        tracemalloc.start()
        try:
            trace = simulate(self.scenario(), 3 * MS, **options)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(trace.packets) < 45

    def test_read_and_rebuild_peak_per_packet(self, flood, tmp_path):
        """``analyze``'s load: packets.csv read back into typed columns, then the trace.

        read_packets_csv and trace_from_records of this flood peaked at
        53.5 B per packet under tracemalloc while ``drop_reason`` was a
        list, and at 46.1 B with a bytearray of codes.
        """
        path = tmp_path / "packets.csv"
        write_packets_csv(flood.packets, path)
        tracemalloc.start()
        try:
            trace = trace_from_records(read_packets_csv(path), flood.interval_ns,
                                       d_ns=flood.d_ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(trace.packets) < 50

    # run_summary forks for half its work, so both halves run here instead.
    # verify_trace streams the recursions beside the columns; the summary
    # peaked at 45.0 B per packet while it sorted each sample as one list of
    # floats, and at 13.8 B sorting it in runs into an array('d')
    @pytest.mark.parametrize("check, bound", [
        pytest.param(verify_trace, 8, id="verify_trace"),
        pytest.param(summary_in_process, 20, id="run_summary"),
    ])
    def test_traced_peak_per_packet(self, flood, check, bound):
        tracemalloc.start()
        try:
            check(flood)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(flood.packets) < bound

    def test_whole_run_peak_per_packet(self):
        """The log is typed columns, not lists of Python ints, end to end.

        simulate + verify_trace + run_summary of this flood peaked at 266 B
        per packet under tracemalloc when the columns were lists and tuples
        of Python ints and generate sorted (t, source, flag) tuples; at 93.3 B
        with typed columns, a deque of ids in the engine and a list per
        summarised sample; at 61.1 B without those; and at 52.0 B once
        ``drop_reason`` became a bytearray of codes and the queue series
        arrays.  Both halves of the summary run in this process, where
        tracemalloc sees them.
        """
        tracemalloc.start()
        try:
            trace = simulate(self.scenario(), 3 * MS)
            verify_trace(trace)
            summary_in_process(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(trace.packets) < 56


class TestTypedColumns:
    @staticmethod
    def assert_typed(trace):
        p = trace.packets
        for column in (p.a_ns, p.t_ns, p.start_ns, p.end_ns,
                       trace.times_ns, trace.sqf_counts, trace.server_counts):
            assert isinstance(column, array) and column.typecode == "q"
            assert column.itemsize == 8
        assert isinstance(p.source, array) and p.source.typecode == "i"
        assert type(p.is_attack) is bytearray
        assert type(p.drop_reason) is bytearray

    def test_simulate_returns_typed_columns(self):
        self.assert_typed(simulate(constant_scenario(), 4 * MS))

    def test_trace_from_records_returns_typed_columns(self):
        # a mitigated run, so the admitted copy is a selection, not the log
        trace = simulate_sequences([0] * 12 + [10**9], [MS] * 13, 3 * MS, (10, 3))
        rebuilt = trace_from_records(trace.packets, trace.interval_ns)
        self.assert_typed(rebuilt)
        self.assert_typed(dataclasses.replace(rebuilt, packets=rebuilt.admitted))

    @pytest.mark.parametrize("route", ["simulate", "trace_from_records"])
    def test_intervals_are_the_columns_when_nothing_is_dropped(self, route):
        trace = simulate(constant_scenario(), 4 * MS)
        if route == "trace_from_records":
            trace = trace_from_records(trace.packets, trace.interval_ns)
        p = trace.packets
        assert trace.admitted is p
        intervals = queue_intervals(trace.admitted)
        assert intervals["sqf"][0] is p.a_ns
        assert intervals["sqf"][1] is intervals["server"][0] is p.t_ns
        assert intervals["server"][1] is p.end_ns

    @pytest.mark.parametrize("route", ["simulate", "trace_from_records"])
    def test_admitted_holds_the_admitted_rows_in_typed_columns(self, route):
        trace = simulate_sequences(
            [0] * 12 + [10**9], [MS] * 13, 3 * MS, (10, 3)
        )
        if route == "trace_from_records":
            trace = trace_from_records(trace.packets, trace.interval_ns)
        p, kept = trace.packets, trace.admitted
        ids = [pid for pid, why in enumerate(reasons_of(p)) if why is None]
        assert ids == list(range(10)) + [12]
        assert reasons_of(kept) == [None] * len(ids)
        for name in ("source", "is_attack", "a_ns", "t_ns", "start_ns", "end_ns", "drop_reason"):
            column, selected = getattr(p, name), getattr(kept, name)
            assert type(selected) is type(column)
            assert getattr(selected, "typecode", None) == getattr(column, "typecode", None)
            assert list(selected) == [column[pid] for pid in ids]

    def test_dropped_timestamps_are_the_sentinel(self):
        trace = simulate_sequences(
            [0] * 6, [MS] * 6, 3 * MS, sqf_capacity=2
        )
        p = trace.packets
        for why, t, start, end in zip(reasons_of(p), p.t_ns, p.start_ns, p.end_ns):
            assert (why is not None) == (t == start == end == ABSENT_NS)

    def test_lists_are_converted_once_and_arrays_kept(self):
        p = Packets([0, 1], [False, True], [0, 5], [0, None], [1, None], [3, None],
                    (None, "capacity"))
        assert list(p.start_ns) == [1, ABSENT_NS]
        assert type(p.is_attack) is bytearray and list(p.is_attack) == [0, 1]
        assert p.drop_reason == bytearray([0, DROP_REASONS.index("capacity")])
        assert reasons_of(p) == [None, "capacity"]
        again = Packets(p.source, p.is_attack, p.a_ns, p.t_ns, p.start_ns, p.end_ns,
                        p.drop_reason)
        assert again.a_ns is p.a_ns and again.is_attack is p.is_attack
        assert again.drop_reason is p.drop_reason

    @pytest.mark.parametrize("reasons", [
        [None, "overflow"], [None, "Capacity"], [None, ""], [None, 2], [0, "capacity"],
    ], ids=["unknown", "case", "empty", "code", "zero"])
    def test_reason_outside_the_table_rejected(self, reasons):
        # the table is closed: a name outside it, or a code given in a list
        # rather than the bytearray, never enters the log
        with pytest.raises(ContractViolation, match="unknown drop reason"):
            Packets([0, 0], [0, 0], [0, 5], [0, None], [1, None], [3, None], reasons)

    def test_columns_of_different_lengths_rejected(self):
        # a shorter column would end check_records' walk early
        with pytest.raises(ContractViolation, match="'t_ns': 1, 'start_ns': 1, 'end_ns': 1"):
            Packets(source=[0, 0], is_attack=[0, 0], a_ns=[0, 5], t_ns=[0], start_ns=[0],
                    end_ns=[3], drop_reason=[None, None])


class TestScenarioRuns:
    def test_constant_scenario_result1(self):
        # D = 4 ms > T = 3 ms: no server waits at all
        trace = simulate(constant_scenario(), 4 * MS)
        assert not any(server_waits_of(trace))
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
        services = set(service_times_of(trace))
        # both models show up: 3 ms before congestion, 10 ms inside it
        assert services == {3 * MS, 10 * MS}
        flags = congestion_flags(trace, s.congestion_threshold)
        assert any(flags) and not all(flags)
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
        flags = congestion_flags(trace, s.congestion_threshold)
        assert any(flags) and not all(flags)
        sampler = ServiceSampler(s)
        replay = tuple(sampler.draw_ns(congested) for congested in flags)
        assert replay == service_times_of(trace)

    def test_same_seed_same_trace(self):
        a = simulate(constant_scenario(), 4 * MS)
        b = simulate(constant_scenario(), 4 * MS)
        assert a.packets == b.packets
        assert a.sqf_counts == b.sqf_counts

    def test_sampled_counts_match_naive_recount(self):
        s = constant_scenario(
            attack=TrafficModel(kind="poisson", rate=300.0, start=1.0, duration=2.0),
        )
        trace = simulate(s, 4 * MS)
        for g, sqf_c, srv_c in zip(trace.times_ns, trace.sqf_counts, trace.server_counts):
            p = trace.packets
            sqf = sum(
                1
                for a, t, why in zip(p.a_ns, p.t_ns, reasons_of(p))
                if why is None and a <= g < t
            )
            srv = sum(
                1
                for t, end, why in zip(p.t_ns, p.end_ns, reasons_of(p))
                if why is None and t <= g < end
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
        last_end = max(trace.packets.end_ns[i] for i in admitted_ids(trace))
        assert drain_time(trace) == pytest.approx(last_end / 1e9 - 2.0)

    def test_gate_drains_at_last_release(self):
        # a 500-packet flood against D = 4 ms keeps the gate busy ~2 s past
        # the attack; its drain ends at the last admitted packet's release
        s = constant_scenario(
            attack=TrafficModel(kind="periodic", rate=500.0, start=1.0, duration=1.0),
            horizon=5.0,
        )
        trace = simulate(s, 4 * MS)
        _, attack_end = s.attack_window_ns
        last_release = max(trace.packets.t_ns[i] for i in admitted_ids(trace))
        assert last_release > attack_end
        assert drain_time(trace, "sqf") == (last_release - attack_end) / 1e9

    def test_unknown_queue_rejected(self):
        trace = simulate(constant_scenario())
        with pytest.raises(ContractViolation):
            drain_time(trace, "gpu")


class TestEngineProperties:
    @given(own.arrivals_with_services(min_size=1, max_size=30), own.spacing_ns)
    @settings(deadline=None)
    def test_oracle_equivalence_gated(self, arr_svc, d):
        times, durs = arr_svc
        trace = simulate_sequences(times, durs, d)
        verify_trace(trace)
        # why verify_trace need not replay the gate delays: once t matches
        # the schedule, they follow from it
        p = trace.packets
        assert qdtp_delays_ns(ArrivalSequence(tuple(times)), QdtpConfig(d)) == list(
            map(sub, p.t_ns, p.a_ns)
        )

    @given(own.arrivals_with_services(min_size=1, max_size=30))
    @settings(deadline=None)
    def test_oracle_equivalence_direct(self, arr_svc):
        times, durs = arr_svc
        trace = simulate_sequences(times, durs)
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
        trace = simulate_sequences(times, durs, d, MitigationPolicy(n, k))
        verify_trace(trace)
        dropped = [why for why in reasons_of(trace.packets) if why is not None]
        assert len(admitted_ids(trace)) + len(dropped) == len(times)


_NO_EVENT = 1 << 64


def deque_engine(at, service_source, d_ns, gate_filter, congestion_threshold, sqf_capacity):
    """The event loop the engine once ran, with explicit FIFOs of ids.

    Returns the ``t``, ``start`` and ``end`` columns as lists and
    ``drop_reason``; ``service_source(j, congested)`` is asked in service order.
    """
    use_gate = d_ns is not None
    d = d_ns if use_gate else 0
    n = len(at)
    t_out, ss_out, se_out = [ABSENT_NS] * n, [ABSENT_NS] * n, [ABSENT_NS] * n
    drop_reason = [None] * n
    gate_fifo, server_fifo = deque(), deque()
    gate_open, gate_at, busy, done_at = 0, _NO_EVENT, -1, _NO_EVENT

    def start_service(j, now):
        nonlocal busy, done_at
        ss_out[j] = now
        busy = j
        done_at = now + service_source(j, len(server_fifo) + 1 > congestion_threshold)
        se_out[j] = done_at

    def release(j, now):
        nonlocal gate_open, gate_at
        t_out[j] = now
        gate_open = now + d
        gate_at = gate_open if gate_fifo else _NO_EVENT
        if busy >= 0:
            server_fifo.append(j)
        else:
            start_service(j, now)

    i = 0
    next_arr = at[0] if n else _NO_EVENT
    while True:
        if done_at <= gate_at and done_at <= next_arr:
            if done_at == _NO_EVENT:
                break
            now, busy, done_at = done_at, -1, _NO_EVENT
            if server_fifo:
                start_service(server_fifo.popleft(), now)
        elif gate_at <= next_arr:
            release(gate_fifo.popleft(), gate_at)
        else:
            now, j = next_arr, i
            i += 1
            next_arr = at[i] if i < n else _NO_EVENT
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
                    if gate_at == _NO_EVENT:
                        gate_at = gate_open
            else:
                release(j, now)
    return t_out, ss_out, se_out, drop_reason


@st.composite
def engine_inputs(draw):
    """Arrivals with many ties, services, and a gate with capacity and (N, K) or none."""
    gaps = draw(st.lists(st.one_of(st.just(0), st.integers(0, 10 * MS)), min_size=1,
                         max_size=40))
    arrivals = [sum(gaps[:k]) for k in range(len(gaps))]
    services = draw(own.service_durations_ns(len(arrivals)))
    d_ns = draw(st.none() | own.spacing_ns)
    mitigation = capacity = None  # both need a gate
    if d_ns is not None:
        mitigation = draw(st.none() | st.tuples(st.integers(1, 5), st.integers(1, 3)))
        capacity = draw(st.none() | st.integers(1, 5))
    threshold = draw(st.integers(0, 4))
    return arrivals, services, d_ns, mitigation, capacity, threshold


class TestEngineAgainstDequeLoop:
    @given(engine_inputs())
    @settings(deadline=None, max_examples=300)
    def test_same_log_as_the_deque_loop(self, inputs):
        arrivals, services, d_ns, mitigation, capacity, threshold = inputs
        asked = {"engine": [], "deque": []}

        def service_source(route):
            # a congested service takes three times as long, so a wrong flag
            # moves every later timestamp
            def draw(j, congested):
                asked[route].append((j, congested))
                return services[j] * 3 if congested else services[j]
            return draw

        labeled = LabeledArrivals(ArrivalSequence(arrivals), array("i", [0]) * len(arrivals),
                                  bytearray(len(arrivals)))
        trace = _engine(labeled, service_source("engine"), d_ns, mitigation,
                        interval_ns=100 * MS, congestion_threshold=threshold,
                        attack_window_ns=None, seed=None, sqf_capacity=capacity)
        gate = None if mitigation is None else MitigationGate(MitigationPolicy(*mitigation), d_ns)
        t, start, end, reasons = deque_engine(
            arrivals, service_source("deque"), d_ns, gate, threshold, capacity)
        p = trace.packets
        assert p.t_ns.tolist() == t
        assert p.start_ns.tolist() == start
        assert p.end_ns.tolist() == end
        assert reasons_of(p) == reasons
        assert asked["engine"] == asked["deque"]

    def test_mitigated_flood_drops_most_and_matches(self):
        # a burst of 300 at one instant behind (N, K) = (2, 1): the device
        # pass walks only the admitted ids among long runs of dropped ones
        arrivals, services = [0] * 300 + [10**9], [MS] * 301
        trace = simulate_sequences(arrivals, services, 3 * MS, (2, 1))
        gate = MitigationGate(MitigationPolicy(2, 1), 3 * MS)
        t, start, end, reasons = deque_engine(
            arrivals, lambda j, _c: services[j], 3 * MS, gate, 100, None)
        assert reasons_of(trace.packets) == reasons
        assert reasons.count("mitigation") > 250
        assert trace.packets.end_ns.tolist() == end
