"""Workload descriptions: traffic sources, service-time models, scenarios.

A scenario bundles a handful of benign periodic/poisson sources, an optional
flood source, and two service-time models -- one for normal operation and one
for the degraded behaviour the device falls into while its input queue is
congested.  Generation is fully deterministic: the scenario seed feeds a
master RNG that hands out one child seed per source (in a fixed order), so
the same scenario always produces byte-identical traces.
"""
from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice, repeat, takewhile
from operator import eq
from typing import Optional

from .errors import ConfigurationError
from .recursions import ArrivalSequence
from .timebase import s_to_ns, to_ns

__all__ = [
    "MAX_PACKETS",
    "ServiceModel",
    "TrafficModel",
    "Scenario",
    "LabeledArrivals",
    "ServiceSampler",
    "generate_arrivals",
]

SERVICE_MODES = ("constant", "gaussian", "gaussian_with_outliers")
TRAFFIC_KINDS = ("periodic", "poisson", "burst")

# Sampled processing times are clamped to at least one microsecond; a
# gaussian tail can otherwise produce zero or negative durations.
MIN_SERVICE_NS = 1_000

# The most packets a scenario may ask for, summed over its sources as
# rate * duration: 25 times the 401,240 of the bundled 60 s flood.
MAX_PACKETS = 10_000_000


def _finite(owner: str, model, *fields: str) -> None:
    """Reject a field of ``model`` that is not a finite number, naming it."""
    for name in fields:
        value = getattr(model, name)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and abs(value) < math.inf):  # NaN compares false
            raise ConfigurationError(f"{owner} {name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ServiceModel:
    """Distribution of per-packet processing time, in seconds.

    ``variance`` is in seconds squared.  In ``gaussian_with_outliers`` mode a
    packet becomes an outlier with ``outlier_probability`` and then takes
    ``outlier_scale * mean`` instead of a gaussian draw, mimicking the rare
    huge stalls real devices exhibit.
    """

    mode: str
    mean: float
    variance: float = 0.0
    outlier_probability: float = 0.0
    outlier_scale: float = 1000.0

    def __post_init__(self) -> None:
        if self.mode not in SERVICE_MODES:
            raise ConfigurationError(f"unknown service mode {self.mode!r}")
        _finite("service", self, "mean", "variance", "outlier_probability", "outlier_scale")
        if self.mean <= 0:
            raise ConfigurationError("service mean must be positive")
        if self.variance < 0:
            raise ConfigurationError("service variance cannot be negative")
        if not 0.0 <= self.outlier_probability <= 1.0:
            raise ConfigurationError("outlier probability must be in [0, 1]")
        if self.outlier_scale < 1.0:
            raise ConfigurationError("outlier scale must be at least 1")
        to_ns(self.mean, "s", "service mean", minimum_ns=0)
        to_ns(math.sqrt(self.variance), "s", "service standard deviation", minimum_ns=0)
        if self.mode == "gaussian_with_outliers":
            to_ns(self.mean * self.outlier_scale, "s", "service outlier time", minimum_ns=0)

    def draw_ns(self, u: float, g: float) -> int:
        """Map one uniform and one standard-normal variate to a duration.

        Every draw consumes exactly one of each regardless of mode, which
        keeps RNG streams aligned between runs that differ only in which
        model is active at a given packet.
        """
        if self.mode == "constant":
            value = self.mean
        elif self.mode == "gaussian":
            value = self.mean + math.sqrt(self.variance) * g
        else:
            if u < self.outlier_probability:
                value = self.mean * self.outlier_scale
            else:
                value = self.mean + math.sqrt(self.variance) * g
        ns = s_to_ns(value)
        return ns if ns >= MIN_SERVICE_NS else MIN_SERVICE_NS

    @classmethod
    def from_dict(cls, raw: dict) -> "ServiceModel":
        try:
            return cls(
                mode=raw["mode"],
                mean=raw["mean"],
                variance=raw.get("variance", 0.0),
                outlier_probability=raw.get("outlier_probability", 0.0),
                outlier_scale=raw.get("outlier_scale", 1000.0),
            )
        except KeyError as exc:
            raise ConfigurationError(f"service model missing field {exc}") from exc


@dataclass(frozen=True)
class TrafficModel:
    """One packet source, active on ``[start, start + duration]`` seconds.

    * ``periodic``: a packet every ``1/rate`` seconds, optionally dithered
      by +-``jitter/2`` (clamped so packets stay inside the active window).
    * ``poisson``: exponential inter-arrival gaps with the given rate.
    * ``burst``: ``round(rate * duration)`` packets all at ``start`` -- the
      worst case a shaping gate can face.
    """

    kind: str
    rate: float
    duration: float
    start: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in TRAFFIC_KINDS:
            raise ConfigurationError(f"unknown traffic kind {self.kind!r}")
        _finite("traffic", self, "rate", "duration", "start", "jitter")
        if self.rate <= 0:
            raise ConfigurationError("rate must be positive")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.start < 0:
            raise ConfigurationError("start cannot be negative")
        if self.jitter < 0:
            raise ConfigurationError("jitter cannot be negative")
        to_ns(1 / self.rate, "s", "traffic period", minimum_ns=0)
        to_ns(self.end, "s", "traffic end", minimum_ns=0)
        to_ns(self.jitter, "s", "traffic jitter", minimum_ns=0)
        # a poisson source adds its gaps to a float time: a mean gap of half
        # a float step or less leaves the time in place, and the source never ends
        step = math.ulp(self.end)
        if self.kind == "poisson" and 1 / self.rate <= step / 2:
            raise ConfigurationError(
                f"poisson rate {self.rate!r}/s has a mean gap of at most half the float "
                f"step {step!r} s at its end of {self.end!r} s, so its arrivals never reach the end"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def generate_ns(self, rng: random.Random) -> array:
        """Arrival instants in nanoseconds, sorted, as an ``array('q')``.

        A periodic source's k-th packet is due at ``start_ns + round(k *
        period_ns)``; with jitter, one ``rng.randint`` per packet, in order,
        moves it (clamped to the active window) before the instants are
        sorted.  A poisson source adds ``rng.expovariate`` gaps to ``start``
        in seconds until one reaches the end.
        """
        start_ns = s_to_ns(self.start)
        end_ns = s_to_ns(self.start + self.duration)
        if self.kind == "burst":
            return array("q", [start_ns]) * round(self.rate * self.duration)
        if self.kind == "poisson":
            instants = accumulate(map(rng.expovariate, repeat(self.rate)), initial=self.start)
            return array("q", map(s_to_ns, takewhile(self.end.__gt__, islice(instants, 1, None))))
        period_ns = 1e9 / self.rate
        # the instants rise with k, so the k that fall before the end are
        # 0..count-1; this estimate is at least count, and walks down to it
        count = int((end_ns - start_ns) / period_ns) + 2
        while count and start_ns + round((count - 1) * period_ns) >= end_ns:
            count -= 1
        bases = map(start_ns.__add__, map(round, map(period_ns.__rmul__, range(count))))
        half_jitter_ns = s_to_ns(self.jitter) // 2
        if not half_jitter_ns:
            return array("q", bases)
        moves = map(rng.randint, repeat(-half_jitter_ns, count), repeat(half_jitter_ns))
        return array("q", sorted(min(max(base + move, start_ns), end_ns)
                                 for base, move in zip(bases, moves)))

    @classmethod
    def from_dict(cls, raw: dict) -> "TrafficModel":
        try:
            return cls(
                kind=raw["kind"],
                rate=raw["rate"],
                duration=raw["duration"],
                start=raw.get("start", 0.0),
                jitter=raw.get("jitter", 0.0),
            )
        except KeyError as exc:
            raise ConfigurationError(f"traffic model missing field {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """A complete reproducible experiment input."""

    normal_sources: tuple[TrafficModel, ...]
    service_no_attack: ServiceModel
    service_under_attack: ServiceModel
    seed: int
    horizon: float
    attack: Optional[TrafficModel] = None
    attack_labels: bool = True
    # The device switches to the degraded service model while more packets
    # than this are sitting in (or being processed by) its input queue.
    congestion_threshold: int = 100

    def __post_init__(self) -> None:
        object.__setattr__(self, "normal_sources", tuple(self.normal_sources))
        _finite("scenario", self, "horizon")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        to_ns(self.horizon, "s", "scenario horizon", minimum_ns=0)
        if self.congestion_threshold < 1:
            raise ConfigurationError("congestion threshold must be at least 1")
        expected = 0.0
        for i, src in enumerate(self._all_sources()):
            if src.end > self.horizon + 1e-12:
                raise ConfigurationError(
                    f"source active until {src.end} s exceeds horizon {self.horizon} s"
                )
            count = src.rate * src.duration
            expected += count
            if expected > MAX_PACKETS:
                name = f"normal source {i}" if i < len(self.normal_sources) else "attack source"
                raise ConfigurationError(
                    f"{name} asks for {count:.6g} packets (rate * duration), bringing the "
                    f"scenario to {expected:.6g}, more than the {MAX_PACKETS} allowed"
                )

    def _all_sources(self) -> list[TrafficModel]:
        srcs = list(self.normal_sources)
        if self.attack is not None:
            srcs.append(self.attack)
        return srcs

    @property
    def attack_window_ns(self) -> Optional[tuple[int, int]]:
        if self.attack is None:
            return None
        return (s_to_ns(self.attack.start), s_to_ns(self.attack.end))

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        if not isinstance(raw, dict):
            raise ConfigurationError("scenario must be a JSON object")
        try:
            sources = raw["normal_sources"]
            if not isinstance(sources, list):
                raise ConfigurationError("normal_sources must be a list")
            attack_raw = raw.get("attack")
            return cls(
                normal_sources=tuple(TrafficModel.from_dict(s) for s in sources),
                attack=TrafficModel.from_dict(attack_raw) if attack_raw else None,
                service_no_attack=ServiceModel.from_dict(raw["service_no_attack"]),
                service_under_attack=ServiceModel.from_dict(raw["service_under_attack"]),
                seed=int(raw["seed"]),
                horizon=float(raw["horizon"]),
                attack_labels=bool(raw.get("attack_labels", True)),
                congestion_threshold=int(raw.get("congestion_threshold", 100)),
            )
        except KeyError as exc:
            raise ConfigurationError(f"scenario missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad scenario field: {exc}") from exc


@dataclass(frozen=True)
class LabeledArrivals:
    """Merged arrival stream with per-packet provenance.

    ``source_ids`` and ``is_attack`` are the ``array('i')`` and
    ``bytearray`` columns ``simulator.Packets`` keeps.
    """

    arrivals: ArrivalSequence
    source_ids: array
    is_attack: bytearray

    def __len__(self) -> int:
        return len(self.arrivals)


def _child_seeds(scenario: Scenario) -> tuple[list[int], int, int]:
    """Per-source child seeds, derived in a fixed order from the master seed.

    The attack seed is drawn even when no attack is configured so that
    adding or removing the flood never shifts the benign sources' streams.
    """
    master = random.Random(scenario.seed)
    source_seeds = [master.getrandbits(63) for _ in scenario.normal_sources]
    attack_seed = master.getrandbits(63)
    service_seed = master.getrandbits(63)
    return source_seeds, attack_seed, service_seed


def _merge(low: tuple[array, array], high: tuple[array, array]) -> tuple[array, array]:
    """Merge two ``(times, source_ids)`` column pairs, each sorted by time.

    On equal times the packets of ``low`` come first.  The loop walks the
    smaller side and bisects the larger one for each of its packets; the
    larger side's runs between those points are copied as slices.
    """
    if len(low[0]) <= len(high[0]):
        (few, few_ids), (many, many_ids), place = low, high, bisect_left
    else:
        (few, few_ids), (many, many_ids), place = high, low, bisect_right
    times, source_ids = array("q"), array("i")
    copied = 0
    for t, source in zip(few, few_ids):
        at = place(many, t, copied)
        times += many[copied:at]
        source_ids += many_ids[copied:at]
        times.append(t)
        source_ids.append(source)
        copied = at
    times += many[copied:]
    source_ids += many_ids[copied:]
    return times, source_ids


def generate_arrivals(scenario: Scenario) -> LabeledArrivals:
    """Generate and merge all sources of a scenario.

    Packets are tagged with the index of their source (the attack source,
    when present, comes last).  Each source's stream is merged in turn into
    the streams before it, so the arrivals are sorted by time and
    simultaneous packets keep source order, the order a stable sort on
    arrival time gives.  Attack packets carry the attack flag only when the
    scenario says labels are available.
    """
    source_seeds, attack_seed, _ = _child_seeds(scenario)
    sources = list(zip(scenario.normal_sources, source_seeds))
    if scenario.attack is not None:
        sources.append((scenario.attack, attack_seed))
    merged = (array("q"), array("i"))
    for idx, (src, seed) in enumerate(sources):
        times = src.generate_ns(random.Random(seed))
        merged = _merge(merged, (times, array("i", [idx]) * len(times)))
    times_ns, source_ids = merged
    if scenario.attack is not None and scenario.attack_labels:
        is_attack = bytearray(map(eq, source_ids, repeat(len(sources) - 1)))
    else:
        is_attack = bytearray(len(source_ids))
    return LabeledArrivals(ArrivalSequence(times_ns), source_ids, is_attack)


class ServiceSampler:
    """Deterministic stream of per-packet processing times.

    Call :meth:`draw_ns` once per served packet, passing whether the device
    was congested at that moment; the appropriate model is applied to the
    next pair of variates.  Because each draw consumes exactly two variates,
    a run can be replayed from its recorded congestion flags and will
    reproduce the identical durations.
    """

    def __init__(self, scenario: Scenario):
        _, _, service_seed = _child_seeds(scenario)
        self._rng = random.Random(service_seed)
        self._normal = scenario.service_no_attack
        self._degraded = scenario.service_under_attack

    def draw_ns(self, congested: bool) -> int:
        u = self._rng.random()
        g = self._rng.gauss(0.0, 1.0)
        model = self._degraded if congested else self._normal
        return model.draw_ns(u, g)

