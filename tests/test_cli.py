"""Exit codes and artifact plumbing of the qdtp command."""
import csv
import json
import socket
import subprocess
import sys

import pytest

from qdtp.cli import main

TINY_SCENARIO = {
    "normal_sources": [
        {"kind": "burst", "rate": 60.0, "duration": 1.0, "start": 0.0},
    ],
    "attack": None,
    "service_no_attack": {"mode": "constant", "mean": 0.002},
    "service_under_attack": {"mode": "constant", "mean": 0.004},
    "seed": 5,
    "horizon": 1.0,
}


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_SCENARIO))
    return path


def run_tiny(tmp_path, tiny_scenario, **extra):
    argv = [
        "simulate", "--scenario", str(tiny_scenario), "--sqf-d", "3",
        "--name", "tiny", "--out", str(tmp_path / "runs"),
    ]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    assert main(argv) == 0
    return tmp_path / "runs" / "tiny" / "seed0005"


class TestScenarioValidate:
    def test_good_file(self, tiny_scenario, capsys):
        assert main(["scenario", "validate", str(tiny_scenario)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["scenario", "validate", str(bad)]) == 2

    def test_invalid_field_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(TINY_SCENARIO, horizon=-1.0)))
        assert main(["scenario", "validate", str(bad)]) == 2

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["scenario", "validate", str(tmp_path / "nope.json")]) == 4


class TestSimulate:
    def test_adhoc_scenario_writes_artifacts(self, tmp_path, tiny_scenario):
        seed_dir = run_tiny(tmp_path, tiny_scenario)
        for fname in ("packets.csv", "queues.csv", "summary.json"):
            assert (seed_dir / fname).is_file()
        summary = json.loads((seed_dir / "summary.json").read_text())
        assert summary["packets"]["total"] == 60
        assert summary["config"]["d_ms"] == 3.0

    def test_manifest_path(self, tmp_path, tiny_scenario):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "name": "tiny_m",
            "scenario": str(tiny_scenario),
            "sqf_d_ms": 2.0,
            "seeds": [9],
            "out": str(tmp_path / "runs" / "tiny_m"),
        }))
        assert main(["simulate", "--manifest", str(manifest)]) == 0
        assert (tmp_path / "runs" / "tiny_m" / "seed0009" / "packets.csv").is_file()

    def test_manifest_out_override_keeps_run_name(self, tmp_path, tiny_scenario):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "name": "tiny_m",
            "scenario": str(tiny_scenario),
            "sqf_d_ms": 2.0,
            "seeds": [9],
            "out": "runs/tiny_m",
        }))
        argv = ["simulate", "--manifest", str(manifest),
                "--out", str(tmp_path / "elsewhere")]
        assert main(argv) == 0
        assert (tmp_path / "elsewhere" / "tiny_m" / "seed0009" / "summary.json").is_file()

    def test_empty_seeds_is_config_error(self, tmp_path, tiny_scenario):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "name": "bad", "scenario": str(tiny_scenario), "seeds": [],
        }))
        assert main(["simulate", "--manifest", str(manifest)]) == 2

    def test_manifest_and_scenario_conflict(self, tiny_scenario):
        assert main([
            "simulate", "--manifest", "fig3_no_sqf",
            "--scenario", str(tiny_scenario),
        ]) == 2

    def test_neither_source_given(self):
        assert main(["simulate"]) == 2

    def test_unknown_bundled_manifest(self):
        assert main(["simulate", "--manifest", "fig99"]) == 2

    def test_bad_mitigation_syntax(self, tmp_path, tiny_scenario):
        assert main([
            "simulate", "--scenario", str(tiny_scenario),
            "--sqf-d", "3", "--mitigation", "ten-three",
            "--out", str(tmp_path / "x"),
        ]) == 2


class TestAnalyze:
    def test_round_trip(self, tmp_path, tiny_scenario, capsys):
        seed_dir = run_tiny(tmp_path, tiny_scenario)
        assert main(["analyze", str(seed_dir)]) == 0
        out = capsys.readouterr().out
        assert "60/60 packets completed" in out
        assert (seed_dir / "figure_queues.csv").is_file()
        assert (seed_dir / "figure_delay_histogram.csv").is_file()

    def test_compare_runs(self, tmp_path, tiny_scenario, capsys):
        a = run_tiny(tmp_path, tiny_scenario)
        argv = [
            "simulate", "--scenario", str(tiny_scenario), "--name", "wide",
            "--sqf-d", "5", "--out", str(tmp_path / "runs"),
        ]
        assert main(argv) == 0
        b = tmp_path / "runs" / "wide" / "seed0005"
        assert main(["analyze", str(a), "--compare", str(b)]) == 0
        assert "server queue peaks" in capsys.readouterr().out
        assert (a / "figure_comparison.csv").is_file()

    def test_empty_directory_is_io_error(self, tmp_path):
        assert main(["analyze", str(tmp_path)]) == 4

    def test_doctored_packets_is_invariant_error(self, tmp_path, tiny_scenario):
        seed_dir = run_tiny(tmp_path, tiny_scenario)
        path = seed_dir / "packets.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        # make one packet leave the server before it entered
        header, first = rows[0], rows[1]
        start = header.index("service_start")
        end = header.index("service_end")
        first[end] = str(int(first[start]) - 1000)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["analyze", str(seed_dir)]) == 3

    def test_histogram_labels_are_milliseconds(self, tmp_path):
        # every packet finds the device idle, so every sojourn is exactly 3 ms
        scenario = dict(
            TINY_SCENARIO,
            normal_sources=[{"kind": "periodic", "rate": 10.0, "duration": 1.0}],
            service_no_attack={"mode": "constant", "mean": 0.003},
        )
        path = tmp_path / "even.json"
        path.write_text(json.dumps(scenario))
        assert main([
            "simulate", "--scenario", str(path), "--name", "even",
            "--out", str(tmp_path / "runs"),
        ]) == 0
        seed_dir = tmp_path / "runs" / "even" / "seed0005"
        assert main(["analyze", str(seed_dir)]) == 0
        with open(seed_dir / "figure_delay_histogram.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["bin_lo_ms"]) == 3.0
        assert sum(int(r["all"]) for r in rows) == 10

    def test_analyze_without_summary_uses_cli_interval(self, tmp_path,
                                                       tiny_scenario):
        seed_dir = run_tiny(tmp_path, tiny_scenario)
        (seed_dir / "summary.json").unlink()
        assert main(["analyze", str(seed_dir), "--interval", "10"]) == 0
        rebuilt = json.loads((seed_dir / "summary.json").read_text())
        assert rebuilt["config"]["sampling_interval_s"] == 0.01


class TestForward:
    def test_zero_spacing_is_config_error(self):
        assert main([
            "forward", "--listen", "127.0.0.1:0",
            "--upstream", "127.0.0.1:9", "--d-us", "0",
        ]) == 2

    def test_bind_conflict_is_io_error(self):
        taken = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        taken.bind(("127.0.0.1", 0))
        port = taken.getsockname()[1]
        try:
            assert main([
                "forward", "--listen", f"127.0.0.1:{port}",
                "--upstream", "127.0.0.1:9", "--d-us", "1000",
            ]) == 4
        finally:
            taken.close()

    def test_bad_address_is_config_error(self):
        assert main([
            "forward", "--listen", "localhost",
            "--upstream", "127.0.0.1:9", "--d-us", "1000",
        ]) == 2


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qdtp.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
