"""Tests for workload generation and service sampling."""
import json
import math
import random
import statistics

import pytest

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
        out = src.generate_ns(random.Random(0))
        assert out == [0, 200_000_000, 400_000_000, 600_000_000, 800_000_000]

    def test_periodic_count_is_rate_times_duration(self):
        src = TrafficModel(kind="periodic", rate=6666.6666666667, start=34.0, duration=60.0)
        out = src.generate_ns(random.Random(1))
        assert len(out) == 400_000
        assert out[0] == 34_000_000_000
        assert out[-1] < 94_000_000_000

    def test_periodic_jitter_stays_in_window_and_sorted(self):
        src = TrafficModel(kind="periodic", rate=50.0, duration=2.0, start=1.0, jitter=0.1)
        out = src.generate_ns(random.Random(3))
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
        out = src.generate_ns(random.Random(0))
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
