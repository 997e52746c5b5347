"""Manifest loading, validation, and the run-directory layout."""
import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest

from qdtp import metrics
from qdtp.artifacts import read_packets_csv
from qdtp.cli import main
from qdtp.errors import ConfigurationError
from qdtp.manifests import (
    ExperimentManifest,
    bundled_manifest_names,
    bundled_scenario_names,
    load_manifest,
    resolve_scenario,
    run_manifest,
)

EXPECTED_MANIFESTS = {
    "fig3_no_sqf", "fig3_no_sqf_outliers", "fig7_with_sqf", "fig8_d2_7",
    "fig9_no_sqf_30s", "fig9_with_sqf_30s", "fig9_no_sqf_10s",
    "fig9_with_sqf_10s", "fig10_d3_2", "fig12_mitigation",
    "fig13_mitigation_60s",
}


# sha256 of each artifact of seed 1 of every bundled manifest.  These files
# are a stable interface: a change here must be a deliberate schema change.
ARTIFACT_SHA256 = {
    "fig3_no_sqf": {
        "packets.csv": "dce6210fab4d7432dc88ab0d8358e72cfd31e7d717a2ca88c564cfe94e784052",
        "queues.csv": "e1f8b01f7cb1ca3cdbe374662f242ad4d0bdf863205aed78e552192cd86a7577",
        "summary.json": "a1104c482570833aebeb60015965b1e9c779f7ec1757fc9df19e13c55d3ff9f0",
    },
    "fig7_with_sqf": {
        "packets.csv": "ec8f140f6f443d22f9231d4f552302aba49fc3d887b08d0a3ee3fb793ba71159",
        "queues.csv": "ccb2bdfddc7422e06b34dfe80b06186f2ff7046a3b9a17ad5ea1abc19ea42f21",
        "summary.json": "33b981920bd3cf8ab9212f8747c2fbe1a35e69f5facb70f78f5813a2f2ffb819",
    },
    "fig12_mitigation": {
        "packets.csv": "2ec3eec83dee949243ba27586b02119579e25cdbd1f334b079cf3266319343f5",
        "queues.csv": "e7427df6a621f1cd6b94827941201e3b5af45c25d20b8af213c98191078e5ff7",
        "summary.json": "1c60f538024d42124cc1f81b857789bc3e67f531c78f8cf0656e9cb024560a3c",
    },
    "fig13_mitigation_60s": {
        "packets.csv": "f66d8cd2eeb29fcf574c5c992c1924eb4cdb4d165c56581c5076411e2f9cb367",
        "queues.csv": "ab14bb68650506a79378de43b9ade733df1e01e5bc40f02aaacc3f88685772f4",
        "summary.json": "6fccc763efc2f2f724a1399c8b4eb066e63df0177256c62f2f7a6b96baca718f",
    },
    "fig9_with_sqf_10s": {
        "packets.csv": "1af4b131285456e078c4e5317dc152d80e8420f8326cb4951d10b25bf109cd33",
        "queues.csv": "93e88e1e21d98fe8819810256a31b8d1f447c45eb9fe1cbaa924fb5c6016f62e",
        "summary.json": "afa345935798c36b4228f91244c6a8697f2274428a496e95327817ebd3038ce9",
    },
    "fig9_no_sqf_10s": {
        "packets.csv": "a0b5dd26272341ece1446c87999966083a5896fa348d392041530a93f6605723",
        "queues.csv": "ba6490c75ee8ec41e84fa2b12e9dfd09800c0c0923f918da759968bf2039b505",
        "summary.json": "0aca105dc4c62321c45b901f36537c6bd2f7e7169214a55ecbe81e682c5599d3",
    },
    "fig10_d3_2": {
        "packets.csv": "7b19687f107603e6d6c7d561fd72b4550defad5f40819f29f099adef7ff97329",
        "queues.csv": "827cc45980eb03081eea73f2f0b7607424015d2665b13342cc6f88474549d37a",
        "summary.json": "ad488ff052a48ad3bda326d06944fa559473b6df2c2a5a44e16ac1ed4a9e2325",
    },
    "fig3_no_sqf_outliers": {
        "packets.csv": "8532efbed7c194e75d2dd035709af3b121fc3f99fd7be666e9cae11b4b5cb358",
        "queues.csv": "b488b083bd0b72ae555dd41bb91428dda88b7bca79f18062d56087325b84bfae",
        "summary.json": "d2140dfbd25e2a18131585925d402c4604e179f19b0c160cb630dbb0bba0b522",
    },
    "fig8_d2_7": {
        "packets.csv": "612203add41055ea3c4a734de731fc39bbcce54ca441de4008dab756e2177f37",
        "queues.csv": "37c983ec13d9cb64d9b62f39d795f2b4adab6f3b0edd36ff839d44d68afb8ac5",
        "summary.json": "e14c54c4b4d0f35963a73b2d7fa82ced199bfb5b3c809d4d8c8a5961f0af0ce6",
    },
    "fig9_no_sqf_30s": {
        "packets.csv": "c5e64c51b973f55924c6b4891b0d734c4efe12a123f1bdf92590b041e1fc9569",
        "queues.csv": "08d732abc62f050b4c5dcf853f6ccc433101b2483e5081bb1339f24591041bc4",
        "summary.json": "e6efad972c8c094383028265963729609925e9cfb6230753fbdb824eac01cc3d",
    },
    "fig9_with_sqf_30s": {
        "packets.csv": "c5537642e5cd576b4c4b65b3f936a77cb18a54e140583519b55efde7b630c986",
        "queues.csv": "9629763ac332a02b9442e47ee9ff4a7ff7e9a543b1a6560ace31d7c8d75998e8",
        "summary.json": "471d5abe22ed47bddb1798e15acee460cf20c4fdd4e4e1800a199ad68f87281f",
    },
}


def tiny_scenario_file(tmp_path):
    body = {
        "normal_sources": [
            {"kind": "burst", "rate": 100.0, "duration": 1.0, "start": 0.0},
        ],
        "attack": None,
        "service_no_attack": {"mode": "constant", "mean": 0.002},
        "service_under_attack": {"mode": "constant", "mean": 0.004},
        "seed": 7,
        "horizon": 1.0,
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(body))
    return str(path)


def tiny_manifest(tmp_path, **overrides):
    kwargs = dict(
        name="tiny",
        scenario=tiny_scenario_file(tmp_path),
        seeds=(1,),
        out="runs/tiny",
        sqf_d_ms=3.0,
    )
    kwargs.update(overrides)
    return ExperimentManifest(**kwargs)


class TestBundledData:
    def test_expected_manifests_present(self):
        assert set(bundled_manifest_names()) == EXPECTED_MANIFESTS

    def test_expected_scenarios_present(self):
        assert set(bundled_scenario_names()) == {
            "no_attack", "flood_60s", "flood_60s_outliers",
            "flood_30s", "flood_10s",
        }

    def test_every_bundled_manifest_loads_and_resolves(self):
        for name in bundled_manifest_names():
            m = load_manifest(name)
            assert m.name == name
            assert m.seeds
            resolve_scenario(m.scenario)

    def test_unknown_manifest_name_rejected(self):
        with pytest.raises(ConfigurationError):
            load_manifest("fig99_nope")

    def test_unknown_scenario_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_scenario("not_a_scenario")

    def test_no_two_manifests_describe_the_same_run(self):
        # the out directory and the name differ by design; everything that
        # decides the artifacts' bytes must not
        runs = {}
        for name in bundled_manifest_names():
            m = load_manifest(name)
            # run_manifest replaces the scenario's own seed with each of m.seeds
            scenario = dataclasses.replace(resolve_scenario(m.scenario), seed=0)
            key = (scenario, m.sqf_d_ms, m.mitigation, m.seeds, m.sampling_interval_ms)
            assert key not in runs, f"{name} repeats the run of {runs.get(key)}"
            runs[key] = name

    def test_mitigation_manifests_carry_policy(self):
        assert load_manifest("fig12_mitigation").mitigation == (10, 3)
        assert load_manifest("fig3_no_sqf").mitigation is None


def digests(seed_dir):
    return {
        fname: hashlib.sha256((seed_dir / fname).read_bytes()).hexdigest()
        for fname in ("packets.csv", "queues.csv", "summary.json")
    }


class TestArtifactBytes:
    def test_every_bundled_manifest_is_pinned(self):
        assert set(ARTIFACT_SHA256) == EXPECTED_MANIFESTS

    # mitigated runs, whose admitted rows are a copy, and gated and ungated
    # runs that drop nothing, whose admitted rows are the log itself
    @pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
    def test_bundled_run_is_byte_stable(self, tmp_path, name):
        seed_dir = run_manifest(load_manifest(name), base_dir=tmp_path)[0]
        assert seed_dir.name == "seed0001"
        assert digests(seed_dir) == ARTIFACT_SHA256[name]

    def test_command_in_a_fresh_interpreter_is_byte_stable(self, tmp_path):
        # the summary child is forked by the qdtp command itself, not by pytest
        proc = subprocess.run(
            [sys.executable, "-m", "qdtp.cli", "simulate", "--manifest", "fig12_mitigation",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        seed_dir = tmp_path / "fig12_mitigation" / "seed0001"
        assert proc.stdout.splitlines() == [str(seed_dir)]
        assert digests(seed_dir) == ARTIFACT_SHA256["fig12_mitigation"]


class TestManifestValidation:
    def test_empty_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            tiny_manifest(tmp_path, seeds=())

    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            tiny_manifest(tmp_path, seeds=(1, 1))

    def test_name_with_separator_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            tiny_manifest(tmp_path, name="a/b")

    def test_mitigation_without_gate_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            tiny_manifest(tmp_path, sqf_d_ms=None, mitigation=(10, 3))

    def test_nonpositive_spacing_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            tiny_manifest(tmp_path, sqf_d_ms=0.0)

    def test_interval_rounding_to_zero_ns_rejected(self, tmp_path):
        # 1e-7 ms is 0.1 ns, a 0 ns grid step: a bad setting, found up front
        with pytest.raises(ConfigurationError,
                           match="sampling_interval_ms of 1e-07 ms is below 1 ns"):
            tiny_manifest(tmp_path, sampling_interval_ms=1e-7)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_non_finite_interval_rejected(self, tmp_path, interval):
        with pytest.raises(ConfigurationError):
            tiny_manifest(tmp_path, sampling_interval_ms=interval)

    def test_times_are_converted_once(self, tmp_path):
        m = tiny_manifest(tmp_path, sqf_d_ms=2.5, sampling_interval_ms=0.0015)
        assert (m.d_ns, m.interval_ns) == (2_500_000, 1_500)
        assert tiny_manifest(tmp_path, sqf_d_ms=None).d_ns is None

    @pytest.mark.parametrize("field, value, message", [
        ("sqf_d_ms", True, "sqf_d_ms must be a finite number, got True"),
        ("sampling_interval_ms", True, "sampling_interval_ms must be a finite number, got True"),
        ("sampling_interval_ms", "100", "sampling_interval_ms must be a finite number, got '100'"),
        ("sqf_d_ms", 1e303, "sqf_d_ms of 1e+303 ms does not fit in 64-bit nanoseconds"),
        ("sampling_interval_ms", 1e300,
         "sampling_interval_ms of 1e+300 ms does not fit in 64-bit nanoseconds"),
    ])
    def test_bad_time_field_exits_2(self, tmp_path, capsys, field, value, message):
        # True once ran as D = 1 ms, and 1e303 ended in an OverflowError
        path = tmp_path / "m.json"
        body = dict(tiny_manifest(tmp_path, out=str(tmp_path / "runs")).to_dict())
        path.write_text(json.dumps(dict(body, **{field: value})))
        assert main(["simulate", "--manifest", str(path)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "runs").exists()

    def test_roundtrip_through_dict(self):
        m = load_manifest("fig7_with_sqf")
        assert ExperimentManifest.from_dict(m.to_dict()) == m

    def test_fractional_mitigation_rejected(self):
        raw = dict(load_manifest("fig12_mitigation").to_dict(), mitigation=[10.9, 3.99])
        with pytest.raises(ConfigurationError):
            ExperimentManifest.from_dict(raw)


class TestRunManifest:
    def test_writes_standard_tree(self, tmp_path):
        m = tiny_manifest(tmp_path)
        dirs = run_manifest(m, base_dir=tmp_path)
        assert [d.name for d in dirs] == ["seed0001"]
        for fname in ("packets.csv", "queues.csv", "summary.json"):
            assert (dirs[0] / fname).is_file()
        marker = tmp_path / "runs" / "tiny" / "manifest.json"
        expected = m.to_dict()
        del expected["out"]  # where the run was written is not recorded
        assert json.loads(marker.read_text()) == expected

    def test_one_dir_per_seed(self, tmp_path):
        m = tiny_manifest(tmp_path, seeds=(3, 5))
        dirs = run_manifest(m, base_dir=tmp_path)
        assert [d.name for d in dirs] == ["seed0003", "seed0005"]
        seeds = [json.loads((d / "summary.json").read_text())["config"]["seed"] for d in dirs]
        assert seeds == [3, 5]
        # burst arrivals are seed-independent but both runs completed
        assert [len(read_packets_csv(d / "packets.csv")) for d in dirs] == [100, 100]

    def test_admitted_selected_once_per_seed(self, tmp_path, monkeypatch):
        calls = []
        original = metrics.admitted_ids

        def counting(packets):
            calls.append(len(packets))
            return original(packets)

        monkeypatch.setattr(metrics, "admitted_ids", counting)
        run_manifest(tiny_manifest(tmp_path, seeds=(3, 5)), base_dir=tmp_path)
        assert calls == [100, 100]

    def test_one_occupancy_sweep_per_queue_per_seed(self, tmp_path, monkeypatch):
        # only run_summary sweeps, and it runs in a child process: count
        # through a file
        calls = tmp_path / "calls.txt"
        original = metrics._sweep

        def counting(entries, exits):
            with open(calls, "a") as fh:
                fh.write(f"{len(entries)}\n")
            return original(entries, exits)

        monkeypatch.setattr(metrics, "_sweep", counting)
        run_manifest(tiny_manifest(tmp_path), base_dir=tmp_path)
        assert calls.read_text().split() == ["100", "100"]

    def test_rerun_same_manifest_is_idempotent(self, tmp_path):
        m = tiny_manifest(tmp_path)
        first = (run_manifest(m, base_dir=tmp_path)[0] / "packets.csv").read_bytes()
        second = (run_manifest(m, base_dir=tmp_path)[0] / "packets.csv").read_bytes()
        assert first == second

    def test_same_name_different_settings_collides(self, tmp_path):
        m = tiny_manifest(tmp_path)
        run_manifest(m, base_dir=tmp_path)
        with pytest.raises(ConfigurationError):
            run_manifest(dataclasses.replace(m, sqf_d_ms=2.5), base_dir=tmp_path)

    def test_marker_with_the_out_path_still_matches(self, tmp_path):
        # earlier versions recorded `out` in manifest.json
        m = tiny_manifest(tmp_path)
        marker = tmp_path / "runs" / "tiny" / "manifest.json"
        marker.parent.mkdir(parents=True)
        marker.write_text(json.dumps(dict(m.to_dict(), out="/elsewhere/runs/tiny")))
        run_manifest(m, base_dir=tmp_path)
        assert "out" not in json.loads(marker.read_text())
        with pytest.raises(ConfigurationError):
            run_manifest(dataclasses.replace(m, sqf_d_ms=2.5), base_dir=tmp_path)

    def test_marker_that_is_not_utf8_counts_as_absent(self, tmp_path):
        m = tiny_manifest(tmp_path)
        marker = tmp_path / "runs" / "tiny" / "manifest.json"
        marker.parent.mkdir(parents=True)
        marker.write_bytes(b"\xff\xfe{}")
        run_manifest(m, base_dir=tmp_path)
        assert json.loads(marker.read_text())["name"] == "tiny"  # rewritten

    def test_marker_does_not_depend_on_the_output_root(self, tmp_path):
        roots = [tmp_path / "a", tmp_path / "deeper" / "root" / "b"]
        for root in roots:
            assert main(["simulate", "--manifest", "fig12_mitigation", "--out", str(root)]) == 0
        runs = [root / "fig12_mitigation" for root in roots]
        markers = [(run / "manifest.json").read_bytes() for run in runs]
        assert markers[0] == markers[1]
        for run in runs:
            assert digests(run / "seed0001") == ARTIFACT_SHA256["fig12_mitigation"]

    def test_manifest_seed_overrides_scenario_seed(self, tmp_path):
        scenario_path = tmp_path / "jittered.json"
        scenario_path.write_text(json.dumps({
            "normal_sources": [
                {"kind": "poisson", "rate": 200.0, "duration": 1.0},
            ],
            "attack": None,
            "service_no_attack": {"mode": "constant", "mean": 0.001},
            "service_under_attack": {"mode": "constant", "mean": 0.002},
            "seed": 7,
            "horizon": 1.0,
        }))
        m = ExperimentManifest(name="j", scenario=str(scenario_path),
                               seeds=(11, 12), out="runs/j")
        first, second = run_manifest(m, base_dir=tmp_path)
        a = read_packets_csv(first / "packets.csv").a_ns
        b = read_packets_csv(second / "packets.csv").a_ns
        assert a != b  # different seeds produce different poisson streams
