"""Tests for summary statistics, queue sampling and run comparison."""
import dataclasses
import json
import math
import random
import statistics
from array import array
from bisect import bisect_right
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtp import metrics
from qdtp.artifacts import trace_from_records
from qdtp.errors import ConfigurationError, ContractViolation, InvariantViolation
from qdtp.metrics import (
    MAX_HISTOGRAM_BINS,
    MAX_SAMPLE_POINTS,
    compare_runs,
    fd_bin_edges,
    histogram_counts,
    littles_law_check,
    occupancy_counts,
    queue_intervals,
    run_summary,
    sample_queues,
    summarize,
)
from qdtp.scenario import Scenario, ServiceModel, TrafficModel
from qdtp.simulator import ABSENT_NS, DROP_REASONS, Packets, simulate, simulate_sequences

from summary_halves import summary_in_process

MS = 1_000_000


def make_packets(*rows):
    """Packets from ``(a, t, start, end[, drop_reason])`` rows; id = row index."""
    packets = Packets()
    for a, t, ss, se, *reason in rows:
        packets.source.append(0)
        packets.is_attack.append(False)
        packets.a_ns.append(a)
        packets.t_ns.append(t)
        packets.start_ns.append(ss)
        packets.end_ns.append(se)
        packets.drop_reason.append(DROP_REASONS.index(reason[0] if reason else None))
    return packets


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


def summarize_sorted(values):
    """The ``summarize`` that sorted the whole sample as one list of floats."""
    data = sorted(values)
    if not data:
        raise ContractViolation("cannot summarize an empty sample")
    mean = statistics.fmean(data)
    if data[0] == data[-1]:
        variance = 0.0
    else:
        variance = math.fsum((x - mean) ** 2 for x in data) / len(data)

    def nearest_rank(p):
        return data[max(math.ceil(p * len(data)) - 1, 0)]

    return metrics.SummaryStats(
        count=len(data), mean=mean, variance=variance, minimum=data[0], maximum=data[-1],
        p50=nearest_rank(0.50), p95=nearest_rank(0.95), p99=nearest_rank(0.99),
        p999=nearest_rank(0.999),
    )


RUN = metrics.SORT_RUN


@st.composite
def samples(draw, values):
    """A sample at a size around the run length, drawn from a few ``values``.

    The values repeat, so a sample holds ties, and may be all one value.
    Sorted either way, a value sits in some runs and not in others.
    """
    size = draw(st.sampled_from([1, 2, 3, 1000, RUN - 1, RUN, RUN + 1, 2 * RUN + 1]))
    pool = draw(st.lists(values, min_size=1, max_size=12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    sample = [rng.choice(pool) for _ in range(size)]
    order = draw(st.sampled_from(["as drawn", "ascending", "descending"]))
    return sample if order == "as drawn" else sorted(sample, reverse=order == "descending")


# what run_summary passes: differences of nanosecond times, in seconds,
# up to the 64-bit limit (9.2e9 s), zeros included
delays_s = st.integers(0, 2**63 - 1).map(lambda ns: ns / 1e9) | st.just(0.0)


class TestSummarizeAgainstSortedList:
    @given(samples(delays_s | st.floats(0.0, 9.2e9)))
    @settings(deadline=None, max_examples=200)
    def test_same_summary_as_one_sorted_list(self, sample):
        got, want = summarize(iter(sample)), summarize_sorted(sample)
        assert got.to_ms_dict() == want.to_ms_dict()
        assert json.dumps(got.to_ms_dict()) == json.dumps(want.to_ms_dict())

    @given(samples(st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0])))
    @settings(deadline=None, max_examples=100)
    def test_signed_values_and_both_zeros(self, sample):
        # the stable sort's own element is reported, so even a zero's sign matches
        got, want = summarize(sample), summarize_sorted(sample)
        assert json.dumps(got.to_ms_dict()) == json.dumps(want.to_ms_dict())

    def test_nan_rejected(self):
        with pytest.raises(ContractViolation, match="NaN"):
            summarize([1.0, math.nan])


class TestBenignBefore:
    @given(st.lists(st.tuples(st.integers(0, 50), st.booleans()), max_size=40),
           st.integers(-1, 52))
    def test_selects_what_the_per_packet_test_selects(self, rows, start):
        a = array("q", sorted(x for x, _ in rows))
        attack = bytearray(atk for _, atk in rows)
        values = list(range(len(rows)))
        want = [v for v, atk, x in zip(values, attack, a) if not atk and x < start]
        assert list(compress(values, metrics._benign_before(attack, a, start))) == want


class TestQueueSeries:
    def test_single_packet_example(self):
        rec = make_packets((0, 0, 0, 3 * MS))
        grid, sqf, server = sample_queues(rec, MS)
        assert server == array("q", [1, 1, 1, 0])
        assert sqf == array("q", [0, 0, 0, 0])
        assert grid == array("q", [0, MS, 2 * MS, 3 * MS])

    def test_empty_records(self):
        assert sample_queues(make_packets(), MS) == (array("q", [0]),) * 3

    def test_grid_past_64_bit_ns_rejected(self):
        # the second instant, 1e19 ns, would not fit an array('q')
        with pytest.raises(ConfigurationError) as err:
            sample_queues(make_packets((0, 0, 0, 5)), 10**19)
        assert str(err.value) == (
            "sampling interval of 10000000000000 ms puts the last of 2 queue samples "
            "past 64-bit nanoseconds"
        )

    def test_inconsistent_timestamps_rejected(self):
        # sample_queues validates nothing; the row is rejected on the way in
        rec = make_packets((5 * MS, 5 * MS, 5 * MS, 3 * MS))
        with pytest.raises(InvariantViolation, match="packet 0: packet timestamps out of order"):
            trace_from_records(rec, MS)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ContractViolation):
            sample_queues(make_packets(), 0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_non_finite_interval_rejected(self, interval):
        with pytest.raises(ContractViolation):
            sample_queues(make_packets(), interval)

    def test_grid_past_the_cap_names_the_smallest_interval_that_fits(self):
        last = MAX_SAMPLE_POINTS * MS  # at 1 ms: one instant too many
        with pytest.raises(ConfigurationError) as err:
            sample_queues(make_packets((0, 0, 0, last)), MS)
        assert str(err.value) == (
            f"sampling interval of 1 ms takes {MAX_SAMPLE_POINTS + 1} queue samples up to "
            f"{last} ns, more than MAX_SAMPLE_POINTS ({MAX_SAMPLE_POINTS}); "
            "the smallest interval that fits is 1.000002 ms"
        )

    def test_dropped_packets_occupy_nothing(self):
        rec = make_packets(
            (0, 0, 0, 3 * MS),
            (0, ABSENT_NS, ABSENT_NS, ABSENT_NS, "mitigation"),
        )
        trace = trace_from_records(rec, MS)
        assert len(trace.admitted) == 1
        assert max(trace.server_counts) == 1
        assert max(trace.sqf_counts) == 0

    def test_peak_occupancy_exact_vs_sampled(self):
        # two overlapping stays: exact peak 2, coarse sampling can miss it
        rec = make_packets(
            (0, 0, 0, 3 * MS),
            (MS, MS, 3 * MS, 5 * MS),
        )
        entries = sorted([0, MS])
        exits = sorted([3 * MS, 5 * MS])
        assert littles_law_check(entries, exits)["peak"] == 2
        _, _, server = sample_queues(rec, 4 * MS)
        assert max(server) <= 2

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1000)), max_size=30))
    @settings(deadline=None)
    def test_occupancy_matches_naive_count(self, pairs):
        intervals = [(min(a, b), max(a, b)) for a, b in pairs]
        entries = sorted(x for x, _ in intervals)
        exits = sorted(y for _, y in intervals)
        grid = list(range(0, 1001, 37))
        counts = occupancy_counts(entries, exits, grid)
        assert counts.typecode == "q" and len(counts) == len(grid)
        for g, c in zip(grid, counts):
            assert c == sum(1 for x, y in intervals if x <= g < y)


class TestLittlesLaw:
    def test_exact_identity_on_simulated_run(self):
        trace = simulate_sequences(
            [0, MS // 2, MS, 3 * MS // 2, 100 * MS],
            [3 * MS, 2 * MS, 4 * MS, MS, 2 * MS],
            3 * MS,
        )
        for which in ("sqf", "server"):
            out = littles_law_check(*queue_intervals(trace.admitted)[which])
            assert out["ok"]
            assert out["occupancy_integral_ns"] == out["sojourn_sum_ns"]
            # the exact peak bounds what the sampling grid saw
            assert out["peak"] >= max(getattr(trace, f"{which}_counts"))


class TestHistograms:
    def test_fd_edges_cover_both_samples(self):
        ref = [random.Random(3).gauss(3.0, 0.1) for _ in range(2000)]
        other = [5.0, 9.5]
        edges = fd_bin_edges(ref, cover=other)
        assert edges[0] <= min(ref)
        assert edges[-1] >= 9.5
        widths = {round(b - a, 12) for a, b in zip(edges, edges[1:])}
        assert len(widths) == 1  # fixed width

    @pytest.mark.parametrize("lowest", [2.7, 0.0])
    def test_wide_sample_gets_capped_log_spaced_edges(self, lowest):
        # 2.7: plain log spacing; 0.0: log spacing has to start above zero
        ref = [lowest + 0.01 * k for k in range(300)]
        edges = fd_bin_edges(ref, cover=[1.87e6])
        assert len(edges) == MAX_HISTOGRAM_BINS + 1
        assert edges[0] == lowest and edges[-1] == 1.87e6
        widths = [b - a for a, b in zip(edges, edges[1:])]
        assert all(w > 0 for w in widths)
        assert all(b > a for a, b in zip(widths, widths[1:]))
        counts = histogram_counts(ref + [1.87e6], edges)
        assert sum(counts) == 301 and counts[-1] == 1

    def test_histogram_counts_total(self):
        ref = [float(x) for x in range(100)]
        edges = fd_bin_edges(ref)
        counts = histogram_counts(ref, edges)
        assert sum(counts) == 100

    @given(st.lists(st.floats(-10.0, 110.0), max_size=60),
           st.lists(st.floats(0.0, 100.0), min_size=2, max_size=8, unique=True))
    @settings(deadline=None)
    def test_counts_match_the_per_value_loop(self, values, edges):
        edges.sort()
        want = [0] * (len(edges) - 1)
        for v in values:  # the loop histogram_counts replaced
            want[min(max(bisect_right(edges, v) - 1, 0), len(want) - 1)] += 1
        assert histogram_counts(values, edges) == want

    def test_degenerate_constant_sample(self):
        edges = fd_bin_edges([3.0, 3.0, 3.0])
        assert len(edges) >= 2
        assert histogram_counts([3.0, 3.0, 3.0], edges)[-1] >= 1


class TestCompareRuns:
    def _trace(self, services):
        return simulate_sequences(
            [0, MS, 2 * MS], services, 3 * MS,
            interval_ns=MS,
        )

    def test_identical_runs_all_ratios_one(self):
        a = self._trace([2 * MS] * 3)
        b = self._trace([2 * MS] * 3)
        cmp = compare_runs(a, b)
        assert set(cmp.ratios("sqf")) == {1.0}
        assert set(cmp.ratios("server")) == {1.0}

    def test_series_are_typed_and_ratios_streamed(self):
        a = self._trace([5 * MS] * 3)
        b = self._trace([MS] * 3)
        cmp = compare_runs(a, b)
        for name in ("times_ns", "sqf_a", "sqf_b", "server_a", "server_b"):
            column = getattr(cmp, name)
            assert isinstance(column, array) and column.typecode == "q", name
            assert len(column) == len(cmp.times_ns), name
        assert list(cmp.times_ns) == [k * MS for k in range(len(cmp.times_ns))]
        ratios = cmp.ratios("server")
        assert iter(ratios) is ratios  # an iterator, not a list
        want = [1.0 if x == y == 0 else math.inf if y == 0 else x / y
                for x, y in zip(cmp.server_a, cmp.server_b)]
        assert list(ratios) == want

    def test_grid_mismatch_rejected(self):
        a = self._trace([2 * MS] * 3)
        b = simulate_sequences(
            [0, MS, 2 * MS], [2 * MS] * 3, 3 * MS,
            interval_ns=2 * MS,
        )
        with pytest.raises(ContractViolation):
            compare_runs(a, b)

    def test_shorter_run_zero_padded(self):
        a = self._trace([5 * MS] * 3)  # runs longer
        b = self._trace([MS] * 3)
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
        assert out["packets"]["total"] == len(trace.packets)
        assert out["packets"]["dropped"] == 0
        assert out["attack"]["offered"] == 2000
        assert out["attack"]["admitted"] == 2000
        assert out["attack"]["baseline_sojourn_ms"]["mean_ms"] == pytest.approx(3.0)
        assert out["queues"]["server"]["peak"] >= 1000
        assert out["queues"]["server"]["littles_law_ok"] is True
        assert out["spacing_advisor"]["max_service_ms"] == pytest.approx(10.0)
        assert out["config"]["d_ms"] is None

    def test_one_occupancy_sweep_per_queue(self, tmp_path, monkeypatch):
        trace = simulate_sequences(
            [0, 0, 0], [4 * MS] * 3, 3 * MS
        )
        # the sweeps run in run_summary's child process: count through a file
        calls = tmp_path / "calls.txt"
        original = metrics._sweep

        def counting(entries, exits):
            with open(calls, "a") as fh:
                fh.write(f"{len(entries)}\n")
            return original(entries, exits)

        monkeypatch.setattr(metrics, "_sweep", counting)
        out = run_summary(trace)
        assert calls.read_text().split() == ["3", "3"]
        # the gate holds 2 of the burst at once, the device 2 (one in service)
        assert out["queues"]["sqf"]["peak"] == 2
        assert out["queues"]["server"]["peak"] == 2

    def test_drop_reasons_are_counted_by_name(self):
        trace = simulate_sequences([0] * 12, [MS] * 12, 3 * MS, (10, 3), sqf_capacity=4)
        names = [DROP_REASONS[code] for code in trace.packets.drop_reason]
        out = run_summary(trace)["packets"]
        assert out["drop_reasons"] == {"mitigation": names.count("mitigation"),
                                       "capacity": names.count("capacity")}
        assert min(out["drop_reasons"].values()) > 0
        assert out["completed"] == names.count(None)
        assert out["dropped"] == len(names) - names.count(None)

    def test_summary_without_attack(self):
        trace = simulate_sequences([0, 10 * MS], [3 * MS, 3 * MS])
        out = run_summary(trace)
        assert out["attack"] is None
        assert out["service_ms"]["mean_ms"] == pytest.approx(3.0)

    @pytest.mark.parametrize("run", ["gated", "mitigated", "ungated", "no_attack"])
    def test_forked_half_merges_to_the_in_process_summary(self, run):
        scenario = Scenario(
            normal_sources=(TrafficModel(kind="periodic", rate=20.0, duration=3.0),),
            attack=TrafficModel(kind="periodic", rate=5000.0, start=1.0, duration=1.0),
            service_no_attack=ServiceModel(mode="gaussian", mean=0.003, variance=1e-8),
            service_under_attack=ServiceModel(mode="gaussian", mean=0.005, variance=1e-7),
            seed=7,
            horizon=3.0,
        )
        if run == "no_attack":
            scenario = dataclasses.replace(scenario, attack=None)
        d_ns = None if run == "ungated" else 3 * MS
        trace = simulate(scenario, d_ns, (10, 3) if run == "mitigated" else None)
        summary = run_summary(trace)
        assert summary == summary_in_process(trace)
        assert (summary["attack"] is None) == (run == "no_attack")
        assert (summary["packets"]["dropped"] > 0) == (run == "mitigated")
        assert summary["packets"]["drop_reasons"] == (
            {"mitigation": summary["packets"]["dropped"]} if run == "mitigated" else {}
        )
        assert ("gate_delay_ms" in summary) == (run != "ungated")
