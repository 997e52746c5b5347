"""Experiment manifests: named, seeded, reproducible simulation runs.

A manifest ties a scenario to a gate configuration and a seed list and
says where the artifacts go.  The package bundles one manifest per
reference experiment (see ``qdtp.manifests.bundled_manifest_names``);
running any of them on a clean checkout reproduces the same CSV output
byte for byte.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .artifacts import _read_json, write_run_dir
from .errors import ConfigurationError
from .mitigation import MitigationPolicy
from .scenario import Scenario
from .simulator import simulate
from .timebase import to_ns

__all__ = [
    "ExperimentManifest",
    "bundled_manifest_names",
    "bundled_scenario_names",
    "load_manifest",
    "resolve_scenario",
    "run_manifest",
]


def _data_dir(kind: str):
    # single-argument joinpath: the multi-arg form needs Python >= 3.12
    return resources.files("qdtp").joinpath("data").joinpath(kind)


def _bundled_names(kind: str) -> list[str]:
    return sorted(p.name[:-5] for p in _data_dir(kind).iterdir()
                  if p.name.endswith(".json"))


def bundled_scenario_names() -> list[str]:
    return _bundled_names("scenarios")


def bundled_manifest_names() -> list[str]:
    return _bundled_names("manifests")


@dataclass(frozen=True)
class ExperimentManifest:
    """One named experiment: scenario + gate settings + seeds + output dir.

    ``d_ns`` (None without a gate) and ``interval_ns`` are ``sqf_d_ms`` and
    ``sampling_interval_ms`` in nanoseconds, checked when the manifest is built.
    """

    name: str
    scenario: str
    seeds: tuple[int, ...]
    out: str
    sqf_d_ms: Optional[float] = None
    mitigation: Optional[tuple[int, int]] = None
    sampling_interval_ms: float = 100.0
    d_ns: Optional[int] = field(init=False, repr=False)
    interval_ns: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.name or "/" in self.name or "\\" in self.name:
            raise ConfigurationError(f"bad manifest name {self.name!r}")
        if not self.seeds:
            raise ConfigurationError("manifest needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("duplicate seeds in manifest")
        d_ns = None if self.sqf_d_ms is None else to_ns(self.sqf_d_ms, "ms", "sqf_d_ms")
        object.__setattr__(self, "d_ns", d_ns)
        object.__setattr__(self, "interval_ns", to_ns(
            self.sampling_interval_ms, "ms", "sampling_interval_ms"))
        if self.mitigation is not None:
            if self.sqf_d_ms is None:
                raise ConfigurationError("mitigation requires an sqf gate")
            pol = MitigationPolicy.coerce(self.mitigation)
            object.__setattr__(self, "mitigation", (pol.n_threshold, pol.k_factor))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "sqf_d_ms": self.sqf_d_ms,
            "mitigation": list(self.mitigation) if self.mitigation else None,
            "seeds": list(self.seeds),
            "out": self.out,
            "sampling_interval_ms": float(self.sampling_interval_ms),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentManifest":
        if not isinstance(raw, dict):
            raise ConfigurationError("manifest must be a JSON object")
        mit = raw.get("mitigation")
        try:
            return cls(
                name=raw["name"],
                scenario=raw["scenario"],
                seeds=tuple(raw["seeds"]),
                out=raw.get("out", f"runs/{raw['name']}"),
                sqf_d_ms=raw.get("sqf_d_ms"),
                mitigation=tuple(mit) if mit else None,
                sampling_interval_ms=raw.get("sampling_interval_ms", 100.0),
            )
        except KeyError as exc:
            raise ConfigurationError(f"manifest missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad manifest field: {exc}") from exc


def _load_json(kind: str, ref: str) -> dict:
    """JSON of the bundled ``kind`` (manifest, scenario) named ``ref``, or of file ``ref``."""
    source = _data_dir(f"{kind}s").joinpath(f"{ref}.json")
    if "/" in str(ref) or "\\" in str(ref) or not source.is_file():
        source = Path(ref)
        if not source.is_file():
            raise ConfigurationError(
                f"no {kind} named {ref!r}; bundled: {', '.join(_bundled_names(f'{kind}s'))}"
            )
    return _read_json(source, ConfigurationError)


def load_manifest(ref: str) -> ExperimentManifest:
    """Load a manifest by bundled name or file path."""
    return ExperimentManifest.from_dict(_load_json("manifest", ref))


def resolve_scenario(ref: str) -> Scenario:
    """Load a scenario by bundled name or file path."""
    return Scenario.from_dict(_load_json("scenario", ref))


def _marker(manifest: ExperimentManifest) -> dict:
    """What ``manifest.json`` records: the manifest, except where it was written."""
    marker = manifest.to_dict()
    del marker["out"]
    return marker


def _check_name_collision(run_root: Path, manifest: ExperimentManifest) -> None:
    marker = run_root / "manifest.json"
    if marker.is_file():
        try:
            existing = _read_json(marker, ConfigurationError)
        except ConfigurationError:  # unreadable: as if absent
            existing = None
        if isinstance(existing, dict):
            existing.pop("out", None)  # recorded by earlier versions
        if existing is not None and existing != _marker(manifest):
            raise ConfigurationError(
                f"output {run_root} already holds a different manifest "
                f"named {manifest.name!r}"
            )


def run_manifest(manifest: ExperimentManifest, base_dir=".") -> list[Path]:
    """Execute every seed of a manifest and write its artifact tree.

    Layout: ``<base>/<out>/seed<N>/{packets.csv,queues.csv,summary.json}``
    plus a ``manifest.json`` marker at the top, which leaves out ``out`` so
    that the tree does not depend on where it was written.
    ``write_run_dir`` verifies every trace against the closed-form
    recursions before it writes anything; a mismatch raises
    InvariantViolation and leaves no partial seed dir behind.  Returns the
    list of seed directories.
    """
    scenario = resolve_scenario(manifest.scenario)
    run_root = Path(base_dir) / manifest.out
    run_root.mkdir(parents=True, exist_ok=True)
    _check_name_collision(run_root, manifest)

    seed_dirs: list[Path] = []
    for seed in manifest.seeds:
        try:
            trace = simulate(
                dataclasses.replace(scenario, seed=seed),
                manifest.d_ns,
                manifest.mitigation,
                interval_ns=manifest.interval_ns,
            )
        except ConfigurationError as exc:  # a run the scenario's numbers cannot hold
            raise ConfigurationError(f"scenario {manifest.scenario}, seed {seed}: {exc}") from exc
        seed_dir = run_root / f"seed{seed:04d}"
        write_run_dir(trace, seed_dir)
        seed_dirs.append(seed_dir)

    with open(run_root / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(_marker(manifest), fh, indent=2)
        fh.write("\n")
    return seed_dirs
