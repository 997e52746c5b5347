"""Tests for the (N, K) drop rule.

``naive_decisions`` re-implements the rule directly from its statement,
keeping the complete observation history and no incremental state beyond
the embargo boundary.  The production gate must agree with it decision for
decision on arbitrary streams.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtp.errors import ConfigurationError, ContractViolation
from qdtp.mitigation import MitigationGate, MitigationPolicy

MS = 1_000_000


def naive_decisions(arrivals, n, k, d):
    observed = []
    drop_until = None
    out = []
    for t in arrivals:
        while drop_until is not None and t >= drop_until:
            in_window = [x for x in observed if drop_until - d < x <= drop_until]
            if len(in_window) > n:
                drop_until += k * d
            else:
                drop_until = None
        observed.append(t)
        if drop_until is not None:
            out.append(False)
            continue
        in_window = [x for x in observed if t - d < x <= t]
        if len(in_window) > n:
            drop_until = t + k * d
            out.append(False)
        else:
            out.append(True)
    return out


def run_gate(arrivals, n=10, k=3, d=3 * MS):
    gate = MitigationGate(MitigationPolicy(n, k), d)
    return [gate.step(t) for t in arrivals]


class TestExamples:
    def test_sparse_stream_untouched(self):
        arrivals = [i * 30 * MS for i in range(10)]
        assert run_gate(arrivals) == [True] * 10

    def test_burst_trips_threshold(self):
        # 11 packets at once: ten admitted, the eleventh trips and is dropped
        arrivals = [0] * 11
        decisions = run_gate(arrivals)
        assert decisions == [True] * 10 + [False]

    def test_embargo_spans_k_windows(self):
        gate = MitigationGate(MitigationPolicy(10, 3), 3 * MS)
        assert [gate.step(0) for _ in range(11)] == [True] * 10 + [False]
        # the embargo lasts K * D = 9 ms: dropping up to its last nanosecond
        assert gate.step(1) is False
        assert gate.step(9 * MS - 1) is False
        # at the boundary: the trailing window holds a single packet, the
        # embargo lapses and the packet is admitted, as is the next one
        assert gate.step(9 * MS) is True
        assert gate.step(9 * MS) is True

    def test_sustained_flood_renews(self):
        # 50 us spacing for half a second; only the pre-trigger packets pass
        arrivals = [i * 50_000 for i in range(10_000)]
        decisions = run_gate(arrivals)
        assert decisions[:10] == [True] * 10
        assert not any(decisions[10:])

    def test_reopens_after_flood_stops(self):
        arrivals = [i * 50_000 for i in range(1000)]  # flood for 50 ms
        arrivals += [200 * MS + i * 30 * MS for i in range(5)]  # calm traffic
        decisions = run_gate(arrivals)
        assert decisions[-5:] == [True] * 5

    def test_disabled_gate_admits_everything(self):
        # no policy: no overload detector, so a burst passes untouched
        gate = MitigationGate(None, 3 * MS)
        assert [gate.step(0) for _ in range(1000)] == [True] * 1000

    def test_out_of_order_rejected(self):
        for policy in (MitigationPolicy(10, 3), None):
            gate = MitigationGate(policy, 3 * MS)
            gate.step(5 * MS)
            with pytest.raises(ContractViolation):
                gate.step(4 * MS)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            MitigationPolicy(0, 3)
        with pytest.raises(ConfigurationError):
            MitigationPolicy(10, 0)
        with pytest.raises(ConfigurationError):
            MitigationGate(MitigationPolicy(10, 3), 0)

    def test_coerce_forms(self):
        assert MitigationPolicy.coerce((10, 3)) == MitigationPolicy(10, 3)
        p = MitigationPolicy(1, 1)
        assert MitigationPolicy.coerce(p) is p
        with pytest.raises(ConfigurationError):
            MitigationPolicy.coerce("10,3")
        with pytest.raises(ConfigurationError):
            MitigationPolicy.coerce({"n": 5, "k": 2})
        assert MitigationPolicy.coerce((10.0, 3.0)) == MitigationPolicy(10, 3)
        for fractional in [(10.9, 3.99), (2.5, 1.7)]:
            with pytest.raises(ConfigurationError):
                MitigationPolicy.coerce(fractional)


class TestForcedDrops:
    def test_forced_window_drops_then_reopens(self):
        gate = MitigationGate(MitigationPolicy(10, 3), 3 * MS)
        gate.force_drop(0, 500 * MS)
        assert gate.step(100 * MS) is False
        assert gate.step(499 * MS) is False
        assert gate.step(500 * MS) is True

    def test_forced_window_never_shrinks(self):
        gate = MitigationGate(MitigationPolicy(10, 3), 3 * MS)
        gate.force_drop(0, 500 * MS)
        gate.force_drop(0, 100 * MS)
        assert gate.step(300 * MS) is False

    def test_forced_works_when_policy_disabled(self):
        gate = MitigationGate(None, 3 * MS)
        gate.force_drop(0, 10 * MS)
        assert gate.step(5 * MS) is False
        assert gate.step(15 * MS) is True


@st.composite
def clustered_arrivals(draw):
    """Streams mixing bursts, flood-like runs and calm gaps."""
    chunks = draw(st.integers(min_value=1, max_value=8))
    times = []
    now = 0
    for _ in range(chunks):
        now += draw(st.integers(min_value=0, max_value=20 * MS))
        size = draw(st.integers(min_value=1, max_value=40))
        gap = draw(st.integers(min_value=0, max_value=MS))
        for _ in range(size):
            times.append(now)
            now += gap
    return times


class TestAgainstNaiveOracle:
    @given(
        clustered_arrivals(),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5 * MS),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_full_history_replay(self, arrivals, n, k, d):
        assert run_gate(arrivals, n, k, d) == naive_decisions(arrivals, n, k, d)

    def test_matches_on_long_random_stream(self):
        rng = random.Random(2024)
        t = 0
        arrivals = []
        for _ in range(5000):
            t += rng.choice([0, 10_000, 60_000, 200_000, 5 * MS])
            arrivals.append(t)
        assert run_gate(arrivals) == naive_decisions(arrivals, 10, 3, 3 * MS)

    def test_admitted_bound_under_sustained_flood(self):
        # over a flood of length L the gate admits at most
        # ceil(L / (K*D)) * (N + 1) packets
        n, k, d = 10, 3, 3 * MS
        duration = 500 * MS
        arrivals = list(range(0, duration, 25_000))
        admitted = sum(run_gate(arrivals, n, k, d))
        cycles = -(-duration // (k * d))
        assert admitted <= cycles * (n + 1)
