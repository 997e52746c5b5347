"""Tests for summary statistics, queue sampling and run comparison."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtp.errors import ContractViolation
from qdtp.metrics import (
    compare_runs,
    fd_bin_edges,
    histogram_counts,
    littles_law_check,
    occupancy_counts,
    peak_occupancy,
    run_summary,
    sample_queues,
    summarize,
)
from qdtp.recursions import QdtpConfig
from qdtp.scenario import Scenario, ServiceModel, TrafficModel
from qdtp.simulator import PacketRecord, simulate, simulate_sequences

MS = 1_000_000


def make_record(i, a, t, ss, se, dropped=False, reason=None, attack=False):
    return PacketRecord(
        id=i,
        source=0,
        is_attack=attack,
        a_ns=a,
        t_ns=t,
        service_start_ns=ss,
        service_end_ns=se,
        dropped=dropped,
        drop_reason=reason,
    )


class TestSummarize:
    def test_constant_sample(self):
        s = summarize([0.003, 0.003, 0.003])
        assert s.mean == pytest.approx(0.003)
        assert s.variance == 0.0
        assert s.count == 3

    def test_two_point_hand_arithmetic(self):
        s = summarize([0.002, 0.004])
        assert s.mean == pytest.approx(0.003)
        # population variance: ((1)^2 + (1)^2) / 2 in ms^2
        assert s.variance * 1e6 == pytest.approx(1.0)

    def test_nearest_rank_percentiles(self):
        s = summarize([x / 1000 for x in range(1, 101)])
        assert s.p50 == pytest.approx(0.050)
        assert s.p95 == pytest.approx(0.095)
        assert s.p99 == pytest.approx(0.099)
        assert s.p999 == pytest.approx(0.100)

    def test_permutation_invariant(self):
        values = [random.Random(1).random() for _ in range(500)]
        shuffled = list(values)
        random.Random(2).shuffle(shuffled)
        assert summarize(values) == summarize(shuffled)

    def test_percentile_ordering_invariant(self):
        values = [random.Random(7).expovariate(1.0) for _ in range(999)]
        s = summarize(values)
        assert s.minimum <= s.p50 <= s.p95 <= s.p99 <= s.p999 <= s.maximum

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            summarize([])

    def test_ms_dict(self):
        d = summarize([0.002, 0.004]).to_ms_dict()
        assert d["mean_ms"] == pytest.approx(3.0)
        assert d["variance_ms2"] == pytest.approx(1.0)


class TestQueueSeries:
    def test_single_packet_example(self):
        rec = [make_record(0, 0, 0, 0, 3 * MS)]
        grid, sqf, server = sample_queues(rec, 0.001)
        assert server == (1, 1, 1, 0)
        assert sqf == (0, 0, 0, 0)
        assert grid == (0, MS, 2 * MS, 3 * MS)

    def test_empty_records(self):
        assert sample_queues([], 0.001) == ((0,), (0,), (0,))

    def test_inconsistent_timestamps_rejected(self):
        rec = [make_record(0, 5 * MS, 5 * MS, 5 * MS, 3 * MS)]
        with pytest.raises(ContractViolation):
            sample_queues(rec, 0.001)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ContractViolation):
            sample_queues([], 0.0)

    def test_dropped_packets_occupy_nothing(self):
        rec = [
            make_record(0, 0, 0, 0, 3 * MS),
            make_record(1, 0, None, None, None, dropped=True, reason="mitigation"),
        ]
        _, sqf, server = sample_queues(rec, 0.001)
        assert max(server) == 1
        assert max(sqf) == 0

    def test_peak_occupancy_exact_vs_sampled(self):
        # two overlapping stays: exact peak 2, coarse sampling can miss it
        rec = [
            make_record(0, 0, 0, 0, 3 * MS),
            make_record(1, MS, MS, 3 * MS, 5 * MS),
        ]
        entries = sorted([0, MS])
        exits = sorted([3 * MS, 5 * MS])
        assert peak_occupancy(entries, exits) == 2
        _, _, server = sample_queues(rec, 0.004)
        assert max(server) <= 2

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1000)), max_size=30))
    @settings(deadline=None)
    def test_occupancy_matches_naive_count(self, pairs):
        intervals = [(min(a, b), max(a, b)) for a, b in pairs]
        entries = sorted(x for x, _ in intervals)
        exits = sorted(y for _, y in intervals)
        grid = list(range(0, 1001, 37))
        counts = occupancy_counts(entries, exits, grid)
        for g, c in zip(grid, counts):
            assert c == sum(1 for x, y in intervals if x <= g < y)


class TestLittlesLaw:
    def test_exact_identity_on_simulated_run(self):
        trace = simulate_sequences(
            [0.0, 0.0005, 0.001, 0.0015, 0.1],
            [0.003, 0.002, 0.004, 0.001, 0.002],
            QdtpConfig.from_seconds(0.003),
        )
        for which in ("sqf", "server"):
            out = littles_law_check(trace.per_packet, which)
            assert out["ok"]
            assert out["occupancy_integral_ns"] == out["sojourn_sum_ns"]


class TestHistograms:
    def test_fd_edges_cover_both_samples(self):
        ref = [random.Random(3).gauss(3.0, 0.1) for _ in range(2000)]
        other = [5.0, 9.5]
        edges = fd_bin_edges(ref, cover=other)
        assert edges[0] <= min(ref)
        assert edges[-1] >= 9.5
        widths = {round(b - a, 12) for a, b in zip(edges, edges[1:])}
        assert len(widths) == 1  # fixed width

    def test_histogram_counts_total(self):
        ref = [float(x) for x in range(100)]
        edges = fd_bin_edges(ref)
        counts = histogram_counts(ref, edges)
        assert sum(counts) == 100

    def test_degenerate_constant_sample(self):
        edges = fd_bin_edges([3.0, 3.0, 3.0])
        assert len(edges) >= 2
        assert histogram_counts([3.0, 3.0, 3.0], edges)[-1] >= 1


class TestCompareRuns:
    def _trace(self, services):
        return simulate_sequences(
            [0.0, 0.001, 0.002], services, QdtpConfig.from_seconds(0.003),
            sampling_interval=0.001,
        )

    def test_identical_runs_all_ratios_one(self):
        a = self._trace([0.002] * 3)
        b = self._trace([0.002] * 3)
        cmp = compare_runs(a, b)
        assert set(cmp.ratios("sqf")) == {1.0}
        assert set(cmp.ratios("server")) == {1.0}

    def test_grid_mismatch_rejected(self):
        a = self._trace([0.002] * 3)
        b = simulate_sequences(
            [0.0, 0.001, 0.002], [0.002] * 3, QdtpConfig.from_seconds(0.003),
            sampling_interval=0.002,
        )
        with pytest.raises(ContractViolation):
            compare_runs(a, b)

    def test_shorter_run_zero_padded(self):
        a = self._trace([0.005] * 3)  # runs longer
        b = self._trace([0.001] * 3)
        cmp = compare_runs(a, b)
        assert len(cmp.times_ns) == max(len(a.times_ns), len(b.times_ns))
        assert cmp.server_b[-1] == 0


class TestRunSummary:
    def test_summary_of_attack_run(self):
        s = Scenario(
            normal_sources=(TrafficModel(kind="periodic", rate=2.0, duration=6.0),),
            attack=TrafficModel(kind="periodic", rate=2000.0, start=1.0, duration=1.0),
            service_no_attack=ServiceModel(mode="constant", mean=0.003),
            service_under_attack=ServiceModel(mode="constant", mean=0.010),
            seed=5,
            horizon=6.0,
        )
        trace = simulate(s)
        out = run_summary(trace)
        assert out["packets"]["total"] == len(trace.per_packet)
        assert out["packets"]["dropped"] == 0
        assert out["attack"]["offered"] == 2000
        assert out["attack"]["admitted"] == 2000
        assert out["attack"]["baseline_sojourn_ms"]["mean_ms"] == pytest.approx(3.0)
        assert out["queues"]["server"]["peak"] >= 1000
        assert out["queues"]["server"]["littles_law_ok"] is True
        assert out["spacing_advisor"]["max_service_ms"] == pytest.approx(10.0)
        assert out["config"]["d_ms"] is None

    def test_summary_without_attack(self):
        trace = simulate_sequences([0.0, 0.01], [0.003, 0.003])
        out = run_summary(trace)
        assert out["attack"] is None
        assert out["service_ms"]["mean_ms"] == pytest.approx(3.0)
