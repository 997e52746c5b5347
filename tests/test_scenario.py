"""Tests for workload generation and service sampling."""
import json
import math
import random
import statistics
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qdtp.errors import ConfigurationError, ContractViolation
from qdtp.manifests import resolve_scenario
from qdtp.scenario import (
    MIN_SERVICE_NS,
    Scenario,
    ServiceModel,
    ServiceSampler,
    TrafficModel,
    generate_arrivals,
    sample_services,
)
from qdtp.timebase import s_to_ns

GAUSS_NO_ATTACK = ServiceModel(mode="gaussian", mean=2.98e-3, variance=5.5e-9)
GAUSS_DEGRADED = ServiceModel(mode="gaussian", mean=4.82e-3, variance=5.1e-7)

# tiny_scenario() as a scenario file spells it
TINY_SCENARIO_JSON = {
    "normal_sources": [
        {"kind": "periodic", "rate": 5.0, "duration": 10.0, "jitter": 0.02},
    ],
    "attack": {"kind": "periodic", "rate": 1000.0, "start": 2.0, "duration": 3.0},
    "service_no_attack": {"mode": "gaussian", "mean": 2.98e-3, "variance": 5.5e-9},
    "service_under_attack": {"mode": "gaussian", "mean": 4.82e-3, "variance": 5.1e-7},
    "seed": 7,
    "horizon": 10.0,
}


def tiny_scenario(**overrides):
    base = dict(
        normal_sources=(
            TrafficModel(kind="periodic", rate=5.0, duration=10.0, jitter=0.02),
        ),
        attack=TrafficModel(kind="periodic", rate=1000.0, start=2.0, duration=3.0),
        service_no_attack=GAUSS_NO_ATTACK,
        service_under_attack=GAUSS_DEGRADED,
        seed=7,
        horizon=10.0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestTrafficModels:
    def test_periodic_exact_instants(self):
        src = TrafficModel(kind="periodic", rate=5.0, duration=1.0)
        out = src.generate_ns(random.Random(0)).tolist()
        assert out == [0, 200_000_000, 400_000_000, 600_000_000, 800_000_000]

    def test_periodic_count_is_rate_times_duration(self):
        src = TrafficModel(kind="periodic", rate=6666.6666666667, start=34.0, duration=60.0)
        out = src.generate_ns(random.Random(1))
        assert len(out) == 400_000
        assert out[0] == 34_000_000_000
        assert out[-1] < 94_000_000_000

    def test_periodic_jitter_stays_in_window_and_sorted(self):
        src = TrafficModel(kind="periodic", rate=50.0, duration=2.0, start=1.0, jitter=0.1)
        out = src.generate_ns(random.Random(3)).tolist()
        assert all(1_000_000_000 <= t <= 3_000_000_000 for t in out)
        assert out == sorted(out)
        assert len(out) == 100

    def test_poisson_window_and_determinism(self):
        src = TrafficModel(kind="poisson", rate=200.0, duration=5.0, start=1.0)
        a = src.generate_ns(random.Random(42))
        b = src.generate_ns(random.Random(42))
        assert a == b
        assert all(1_000_000_000 <= t < 6_000_000_000 for t in a)
        # law of large numbers, loose bound
        assert 800 <= len(a) <= 1200

    def test_burst_all_at_start(self):
        src = TrafficModel(kind="burst", rate=50.0, duration=0.2, start=3.0)
        out = src.generate_ns(random.Random(0)).tolist()
        assert out == [3_000_000_000] * 10

    def test_bad_models_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficModel(kind="square", rate=1.0, duration=1.0)
        with pytest.raises(ConfigurationError):
            TrafficModel(kind="periodic", rate=0.0, duration=1.0)
        with pytest.raises(ConfigurationError):
            TrafficModel(kind="periodic", rate=1.0, duration=-1.0)

    def test_period_must_fit_64_bit_ns(self):
        # 2**63 ns is 9.22e9 s: a period of 1e10 s does not fit, 9e9 s does
        TrafficModel(kind="periodic", rate=1 / 9e9, duration=1.0)
        with pytest.raises(ConfigurationError, match="traffic period"):
            TrafficModel(kind="periodic", rate=1e-10, duration=1.0)
        with pytest.raises(ConfigurationError, match="traffic end"):
            TrafficModel(kind="burst", rate=1.0, start=9e9, duration=3e8)


def generate_ns_loop(src, rng):
    """The per-packet loop ``TrafficModel.generate_ns`` replaced, as a list."""
    start_ns = s_to_ns(src.start)
    end_ns = s_to_ns(src.start + src.duration)
    out = []
    if src.kind == "burst":
        return [start_ns] * round(src.rate * src.duration)
    if src.kind == "periodic":
        period_ns = 1e9 / src.rate
        half_jitter_ns = s_to_ns(src.jitter) // 2
        k = 0
        while True:
            base = start_ns + round(k * period_ns)
            if base >= end_ns:
                break
            t = base
            if half_jitter_ns:
                t += rng.randint(-half_jitter_ns, half_jitter_ns)
                if t < start_ns:
                    t = start_ns
                elif t > end_ns:
                    t = end_ns
            out.append(t)
            k += 1
        out.sort()
        return out
    t = src.start
    while True:
        t += rng.expovariate(src.rate)
        if t >= src.start + src.duration:
            break
        out.append(s_to_ns(t))
    return out


@st.composite
def traffic_models(draw):
    """About 0 to 200 packets, with periods from 10 ps, or from 10 us for starts
    near the 64-bit limit, where one float step of the start is 1.9 us."""
    start = draw(st.floats(0.0, 100.0) | st.floats(9.2e9, 9.223e9))
    period = 10.0 ** draw(st.floats(-11.0 if start < 1e9 else -5.0, 1.0))
    try:
        return TrafficModel(
            kind=draw(st.sampled_from(("periodic", "poisson", "burst"))),
            rate=1 / period,
            duration=period * draw(st.floats(0.01, 200.0)),
            start=start,
            jitter=draw(st.just(0.0) | st.floats(0.0, 10 * period)),
        )
    except ConfigurationError:
        reject()


class TestGenerateAgainstLoop:
    @settings(max_examples=500, deadline=None)
    @given(src=traffic_models(), seed=st.integers(0, 2**32))
    def test_same_instants_as_the_loop(self, src, seed):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        out = src.generate_ns(rng)
        assert out.typecode == "q"
        assert out.tolist() == generate_ns_loop(src, oracle_rng)
        assert rng.random() == oracle_rng.random()  # the same draws were taken

    def test_periods_below_one_ns(self):
        # a 0.3 ns period: packets share nanoseconds, and round(k * 0.3) < 10
        # for k = 0..31
        src = TrafficModel(kind="periodic", rate=1e9 / 0.3, duration=1e-8)
        out = src.generate_ns(random.Random(0))
        assert out.tolist() == generate_ns_loop(src, None)
        assert len(out) == 32 and out.count(9) == 3

    def test_start_near_the_64_bit_limit(self):
        src = TrafficModel(kind="periodic", rate=1000.0, start=9.2233e9, duration=0.05)
        out = src.generate_ns(random.Random(0))
        assert out.tolist() == generate_ns_loop(src, None)
        assert len(out) == 50 and out[-1] < 2**63


def keys_sort_merge(streams):
    """The merge ``generate_arrivals`` replaced: one sort of (t << bits) | source."""
    bits = max(1, (len(streams) - 1).bit_length())
    keys = sorted((t << bits) | idx for idx, times in enumerate(streams) for t in times)
    return [k >> bits for k in keys], [k & ((1 << bits) - 1) for k in keys]


def sorted_streams(max_time):
    """Sorted non-negative instants, empty to long, from a small range (ties)."""
    return st.lists(st.integers(0, max_time), max_size=60).map(sorted)


class TestMergeAgainstKeysSort:
    @staticmethod
    def merged(streams, attack):
        """generate_arrivals of a scenario whose sources yield ``streams``."""
        # source i is told apart by its rate, i + 1 packets per second
        sources = [TrafficModel(kind="periodic", rate=i + 1.0, duration=1.0)
                   for i in range(len(streams))]
        by_rate = {src.rate: times for src, times in zip(sources, streams)}
        scenario = tiny_scenario(
            normal_sources=sources[:-1] if attack else sources,
            attack=sources[-1] if attack else None,
            horizon=1.0,
        )
        with mock.patch.object(TrafficModel, "generate_ns",
                               lambda src, rng: array("q", by_rate[src.rate])):
            return generate_arrivals(scenario)

    @settings(max_examples=500, deadline=None)
    @given(streams=st.integers(0, 1000).flatmap(
               lambda top: st.lists(sorted_streams(top), min_size=1, max_size=5)),
           attack=st.booleans())
    def test_same_order_as_the_keys_sort(self, streams, attack):
        lab = self.merged(streams, attack)
        times, sources = keys_sort_merge(streams)
        assert lab.arrivals.times_ns.tolist() == times
        assert lab.source_ids.tolist() == sources
        flood = len(streams) - 1 if attack else -1
        assert list(lab.is_attack) == [int(s == flood) for s in sources]

    @pytest.mark.parametrize("streams", [
        [[0, 5, 5, 9], [5]],  # the later source is the smaller side
        [[5], [0, 5, 5, 9]],  # the earlier source is the smaller side
        [[], [3, 3], []],
    ], ids=["later_smaller", "earlier_smaller", "empty"])
    def test_ties_keep_source_order(self, streams):
        lab = self.merged(streams, attack=False)
        assert (lab.arrivals.times_ns.tolist(), lab.source_ids.tolist()) == keys_sort_merge(streams)


class TestGenerateMemory:
    def test_traced_peak_per_packet_on_the_flood(self):
        """Arrivals are built as typed columns and merged by slices.

        Two lists of Python ints, the flood and the (t << bits) | source
        sort keys, peaked at 84.3 B per packet; the columns peak at 24.8 B.
        """
        scenario = resolve_scenario("flood_60s")
        tracemalloc.start()
        try:
            lab = generate_arrivals(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lab) == 401_240
        assert peak / len(lab) < 32


class TestServiceModels:
    def test_constant(self):
        m = ServiceModel(mode="constant", mean=0.003)
        assert m.draw_ns(0.5, 2.0) == 3_000_000

    def test_gaussian_moments(self):
        m = GAUSS_NO_ATTACK
        rng = random.Random(11)
        xs = [m.draw_ns(rng.random(), rng.gauss(0, 1)) / 1e9 for _ in range(100_000)]
        assert statistics.fmean(xs) == pytest.approx(2.98e-3, rel=0.01)
        assert statistics.pvariance(xs) == pytest.approx(5.5e-9, rel=0.05)

    def test_outliers_present_and_scaled(self):
        m = ServiceModel(
            mode="gaussian_with_outliers",
            mean=2.98e-3,
            variance=5.5e-9,
            outlier_probability=0.001,
            outlier_scale=1000.0,
        )
        rng = random.Random(5)
        xs = [m.draw_ns(rng.random(), rng.gauss(0, 1)) for _ in range(100_000)]
        big = [x for x in xs if x > 1_000_000_000]
        # ~100 expected at p=0.001
        assert 50 <= len(big) <= 200
        assert all(x == 2_980_000_000 for x in big)

    def test_floor_clamps_negative_tail(self):
        m = ServiceModel(mode="gaussian", mean=1e-6, variance=1e-6)
        assert m.draw_ns(0.5, -10.0) == MIN_SERVICE_NS

    def test_bad_models_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceModel(mode="exponential", mean=0.003)
        with pytest.raises(ConfigurationError):
            ServiceModel(mode="constant", mean=0.0)
        with pytest.raises(ConfigurationError):
            ServiceModel(mode="gaussian", mean=1.0, variance=-1.0)
        with pytest.raises(ConfigurationError):
            ServiceModel(
                mode="gaussian_with_outliers", mean=1.0, outlier_probability=1.5
            )

    def test_times_must_fit_64_bit_ns(self):
        ServiceModel(mode="constant", mean=9e9)
        with pytest.raises(ConfigurationError, match="service mean"):
            ServiceModel(mode="constant", mean=1e10)
        with pytest.raises(ConfigurationError, match="service standard deviation"):
            ServiceModel(mode="gaussian", mean=1.0, variance=1e20)
        # an outlier takes mean * outlier_scale; only that mode draws one
        ServiceModel(mode="gaussian", mean=1e7, outlier_scale=1000.0)
        with pytest.raises(ConfigurationError, match="service outlier time"):
            ServiceModel(mode="gaussian_with_outliers", mean=1e7, outlier_scale=1000.0)


class TestScenario:
    def test_horizon_must_cover_sources(self):
        with pytest.raises(ConfigurationError):
            tiny_scenario(horizon=4.0)

    def test_labels_only_inside_attack_window(self):
        lab = generate_arrivals(tiny_scenario())
        for t, atk in zip(lab.arrivals.times_ns, lab.is_attack):
            if atk:
                assert 2_000_000_000 <= t <= 5_000_000_000
        assert sum(lab.is_attack) == 3000

    def test_attack_labels_flag_off(self):
        lab = generate_arrivals(tiny_scenario(attack_labels=False))
        assert not any(lab.is_attack)
        # packets themselves are still there
        assert len(lab) == 3050

    def test_attack_source_id_follows_normals(self):
        lab = generate_arrivals(tiny_scenario())
        attack_ids = {s for s, f in zip(lab.source_ids, lab.is_attack) if f}
        assert attack_ids == {1}

    def test_merge_is_stable_on_ties(self):
        s = tiny_scenario(
            normal_sources=(
                TrafficModel(kind="periodic", rate=2.0, duration=1.0),
                TrafficModel(kind="periodic", rate=2.0, duration=1.0),
            ),
            attack=None,
            horizon=1.0,
        )
        lab = generate_arrivals(s)
        assert tuple(lab.arrivals.times_ns) == (0, 0, 500_000_000, 500_000_000)
        assert tuple(lab.source_ids) == (0, 1, 0, 1)

    def test_generation_is_deterministic(self):
        a = generate_arrivals(tiny_scenario())
        b = generate_arrivals(tiny_scenario())
        assert a == b

    def test_removing_attack_keeps_normal_streams(self):
        src = TrafficModel(kind="poisson", rate=20.0, duration=10.0)
        with_atk = tiny_scenario(normal_sources=(src,))
        without = tiny_scenario(normal_sources=(src,), attack=None)
        normal_with = [
            t
            for t, s in zip(
                generate_arrivals(with_atk).arrivals.times_ns,
                generate_arrivals(with_atk).source_ids,
            )
            if s == 0
        ]
        normal_without = [
            t
            for t, s in zip(
                generate_arrivals(without).arrivals.times_ns,
                generate_arrivals(without).source_ids,
            )
            if s == 0
        ]
        assert normal_with == normal_without

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(TINY_SCENARIO_JSON))
        assert resolve_scenario(str(path)) == tiny_scenario()

    def test_json_missing_field_rejected(self, tmp_path):
        raw = dict(TINY_SCENARIO_JSON)
        del raw["service_no_attack"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigurationError):
            resolve_scenario(str(path))

    def test_json_syntax_error_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            resolve_scenario(str(path))


class TestServiceSampling:
    def test_replay_from_labels_is_exact(self):
        s = tiny_scenario()
        sampler = ServiceSampler(s)
        flags = [i % 3 == 0 for i in range(500)]
        live = [sampler.draw_ns(f) for f in flags]
        replay = sample_services(s, flags)
        assert tuple(live) == replay.durations_ns

    def test_two_draw_alignment_across_models(self):
        # runs that differ only in congestion flags share the variate
        # stream, so packets with equal flags get identical durations
        s = tiny_scenario()
        all_normal = sample_services(s, [False] * 50)
        mixed = sample_services(s, [False] * 25 + [True] * 25)
        assert mixed.durations_ns[:25] == all_normal.durations_ns[:25]

    def test_moments_per_regime(self):
        s = tiny_scenario()
        n = 50_000
        normal = [d / 1e9 for d in sample_services(s, [False] * n).durations_ns]
        degraded = [d / 1e9 for d in sample_services(s, [True] * n).durations_ns]
        assert statistics.fmean(normal) == pytest.approx(2.98e-3, rel=0.02)
        assert statistics.fmean(degraded) == pytest.approx(4.82e-3, rel=0.02)
        assert statistics.pvariance(degraded) == pytest.approx(5.1e-7, rel=0.1)

    def test_empty_labels_rejected(self):
        with pytest.raises(ContractViolation):
            sample_services(tiny_scenario(), [])
