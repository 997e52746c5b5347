"""Exit codes and artifact plumbing of the qdtp command."""
import contextlib
import csv
import dataclasses
import errno
import io
import json
import os
import signal
import socket
import subprocess
import sys
import time
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtp import artifacts, cli, manifests, metrics
from qdtp.artifacts import (
    PACKET_FIELDS,
    read_packets_csv,
    trace_from_records,
    write_comparison_csv,
    write_packets_csv,
)
from qdtp.cli import build_parser, main
from qdtp.errors import ContractViolation, InvariantViolation
from qdtp.forked import Forked
from qdtp.forwarder import ForwarderConfig
from qdtp.scenario import MAX_PACKETS, SERVICE_MODES
from qdtp.simulator import simulate_sequences, verify_trace

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


# a benign baseline, then a flood the device cannot keep up with until the
# horizon: sojourns run from ~3 ms to seconds
HEAVY_TAIL_SCENARIO = {
    "normal_sources": [{"kind": "periodic", "rate": 10.0, "duration": 4.0}],
    "attack": {"kind": "periodic", "rate": 1000.0, "start": 2.0, "duration": 2.0},
    "service_no_attack": {"mode": "gaussian", "mean": 0.00298, "variance": 5.5e-09},
    "service_under_attack": {"mode": "gaussian", "mean": 0.00482, "variance": 5.1e-07},
    "seed": 3,
    "horizon": 4.0,
}


def eons_scenario(packets):
    """``packets`` benign packets in one second, each served for 1e9 s (about 32 years)."""
    return {
        "normal_sources": [{"kind": "periodic", "rate": float(packets), "duration": 1.0}],
        "attack": None,
        "service_no_attack": {"mode": "constant", "mean": 1e9},
        "service_under_attack": {"mode": "constant", "mean": 1e9},
        "seed": 1,
        "horizon": 1.0,
    }


# a poisson source whose mean gap, 0.1 us, is below half a float step of its
# start (1.9 us): its float time never moves, and it would never end
STALLED_POISSON_SCENARIO = {
    "normal_sources": [{"kind": "poisson", "rate": 1e7, "start": 9.2e9, "duration": 1.0}],
    "attack": None,
    "service_no_attack": {"mode": "constant", "mean": 0.001},
    "service_under_attack": {"mode": "constant", "mean": 0.001},
    "seed": 1,
    "horizon": 9.2e9 + 1.0,
}


def run_limited(argv, limit=1 << 30, timeout=120):
    """``main(argv)`` in a subprocess whose address space is capped at ``limit`` bytes."""
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from qdtp.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_SCENARIO))
    return path


def tiny_argv(tmp_path, tiny_scenario):
    """``simulate`` of the tiny scenario behind a gate, into tmp_path/runs/tiny/seed0005."""
    return [
        "simulate", "--scenario", str(tiny_scenario), "--sqf-d", "3",
        "--name", "tiny", "--out", str(tmp_path / "runs"),
    ]


def run_tiny(tmp_path, tiny_scenario, **extra):
    argv = tiny_argv(tmp_path, tiny_scenario)
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    assert main(argv) == 0
    return tmp_path / "runs" / "tiny" / "seed0005"


def run_ungated(tmp_path, tiny_scenario):
    """The tiny scenario without a gate, as the run to compare against."""
    assert main([
        "simulate", "--scenario", str(tiny_scenario), "--name", "wide",
        "--out", str(tmp_path / "runs"),
    ]) == 0
    return tmp_path / "runs" / "wide" / "seed0005"


def edit_first_row(path, column, value):
    """Set ``column`` of packets.csv's first row to ``value(row as a dict)``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, first = rows[0], rows[1]
    first[header.index(column)] = str(value(dict(zip(header, first))))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def end_before_start(row):
    return int(row["service_start"]) - 1000


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

    def test_poisson_source_that_cannot_end_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "stalled.json"
        path.write_text(json.dumps(STALLED_POISSON_SCENARIO))
        assert main(["scenario", "validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: poisson rate 10000000.0/s has a mean gap of at most half "
            "the float step 1.9073486328125e-06 s at its end of 9200000001.0 s, so its "
            "arrivals never reach the end\n"
        )

    @pytest.mark.parametrize("benign, attack, message", [
        # a periodic source of rate 1e12 over 1e5 s: 1e17 packets
        ({"rate": 1e12, "duration": 1e5}, None,
         "normal source 0 asks for 1e+17 packets (rate * duration), bringing the "
         "scenario to 1e+17, more than the 10000000 allowed"),
        ({"rate": 6e6, "duration": 1.0}, {"rate": 5e6, "duration": 1.0},
         "attack source asks for 5e+06 packets (rate * duration), bringing the "
         "scenario to 1.1e+07, more than the 10000000 allowed"),
        ({"rate": MAX_PACKETS / 2, "duration": 2.0}, None, None),
    ], ids=["one_source", "sum_of_sources", "at_the_cap"])
    def test_packets_asked_for_are_bounded(self, tmp_path, capsys, benign, attack, message):
        path = tmp_path / "many.json"
        path.write_text(json.dumps(dict(
            TINY_SCENARIO, horizon=benign["duration"],
            normal_sources=[dict(benign, kind="periodic")],
            attack=attack and dict(attack, kind="periodic"),
        )))
        if message is None:  # validation generates nothing
            assert main(["scenario", "validate", str(path)]) == 0
            return
        for argv in (["scenario", "validate", str(path)],
                     ["simulate", "--scenario", str(path), "--out", str(tmp_path / "runs")]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "runs").exists()

    def test_missing_file_is_config_error(self, tmp_path):
        # as `simulate --scenario nope.json`: neither a bundled name nor a file
        assert main(["scenario", "validate", str(tmp_path / "nope.json")]) == 2

    def test_bundled_name(self, capsys):
        assert main(["scenario", "validate", "flood_60s"]) == 0
        assert "flood_60s: OK" in capsys.readouterr().out

    def test_file_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bom.json"
        bad.write_bytes(b"\xff\xfe{}")
        manifest = tmp_path / "m.json"
        manifest.write_bytes(b"\xff\xfe{}")
        for argv in (["scenario", "validate", str(bad)],
                     ["simulate", "--scenario", str(bad), "--out", str(tmp_path / "runs")],
                     ["simulate", "--manifest", str(manifest)]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "not UTF-8 JSON" in err and ".json" in err, argv

    @pytest.mark.parametrize("section, field, value, named", [
        ("attack", "rate", float("nan"), "traffic rate"),
        ("service_no_attack", "mean", float("inf"), "service mean"),
        (None, "horizon", float("nan"), "scenario horizon"),
        ("normal_sources", "jitter", float("inf"), "traffic jitter"),
        ("service_under_attack", "outlier_scale", float("nan"), "service outlier_scale"),
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys,
                                               section, field, value, named):
        self.assert_rejected(tmp_path, capsys, section, field, value,
                             f"{named} must be a finite number")

    @pytest.mark.parametrize("section, field, value, named", [
        ("attack", "rate", 1e-320, "traffic period of inf s"),
        ("service_no_attack", "mean", 1e300, "service mean of 1e+300 s"),
        ("service_under_attack", "variance", 1e300, "service standard deviation of 1e+150 s"),
        ("normal_sources", "jitter", 1e10, "traffic jitter of 10000000000.0 s"),
        (None, "horizon", 1e10, "scenario horizon of 10000000000.0 s"),
    ])
    def test_time_beyond_64_bit_ns_is_config_error(self, tmp_path, capsys,
                                                   section, field, value, named):
        # finite, so the checks above pass; the first two raised ValueError and
        # OverflowError in simulate, after validate had printed OK
        self.assert_rejected(tmp_path, capsys, section, field, value,
                             f"{named} does not fit in 64-bit nanoseconds")

    @staticmethod
    def assert_rejected(tmp_path, capsys, section, field, value, message):
        """The tiny scenario, with an attack and ``field`` set to ``value``, exits 2."""
        raw = json.loads(json.dumps(TINY_SCENARIO))
        raw["attack"] = {"kind": "periodic", "rate": 100.0, "start": 0.2, "duration": 0.5}
        if section is None:
            raw[field] = value
        elif section == "normal_sources":
            raw[section][0][field] = value
        else:
            raw[section][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        for argv in (["scenario", "validate", str(bad)],
                     ["simulate", "--scenario", str(bad), "--out", str(tmp_path / "runs")]):
            assert main(argv) == 2, argv
            assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


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

    def test_interval_rounding_to_zero_ns_is_config_error(self, tmp_path, tiny_scenario):
        # 1e-7 ms is 0.1 ns: rejected before anything is simulated
        assert main([
            "simulate", "--scenario", str(tiny_scenario), "--name", "tiny",
            "--out", str(tmp_path / "runs"), "--interval", "0.0000001",
        ]) == 2
        assert not (tmp_path / "runs" / "tiny" / "seed0005").exists()

    @pytest.mark.parametrize("interval", ["nan", "inf", "1e303"])
    def test_non_finite_interval_is_config_error(self, tmp_path, tiny_scenario, interval):
        # 1e303 ms is finite, but as far from fitting in 64-bit ns as inf
        assert main([
            "simulate", "--scenario", str(tiny_scenario), "--name", "tiny",
            "--out", str(tmp_path / "runs"), "--interval", interval,
        ]) == 2
        assert not (tmp_path / "runs" / "tiny" / "seed0005").exists()

    @pytest.mark.parametrize("d_ms", ["nan", "inf", "0.0000001", "1e303"])
    def test_bad_spacing_is_config_error(self, tmp_path, tiny_scenario, d_ms):
        # 1e-7 ms is 0.1 ns, which rounds to a zero spacing; 1e303 ms does
        # not fit in 64-bit ns
        assert main([
            "simulate", "--scenario", str(tiny_scenario), "--name", "tiny",
            "--out", str(tmp_path / "runs"), "--sqf-d", d_ms,
        ]) == 2
        assert not (tmp_path / "runs").exists()

    def test_event_past_64_bit_ns_is_config_error(self, tmp_path, capsys):
        # every setting fits in 64-bit ns, but the tenth of 20 services of
        # 1e9 s ends at 1e19 ns; the engine once read that as "no event"
        path = tmp_path / "eons.json"
        path.write_text(json.dumps(eons_scenario(20)))
        assert main(["scenario", "validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: scenario {path}, seed 1: event time "
            "10000000000000000000 ns does not fit in 64-bit nanoseconds\n"
        )
        assert not (tmp_path / "runs" / "eons" / "seed0001").exists()

    def test_sample_grid_past_the_cap_is_config_error_within_a_memory_limit(self, tmp_path):
        # two services of 1e9 s end near 2e18 ns: 2e10 instants at 100 ms,
        # which once filled memory; the cap exits before building any
        path = tmp_path / "eons.json"
        path.write_text(json.dumps(eons_scenario(2)))
        # 1 GiB of address space: about 20 times what the run needs
        proc = run_limited(["simulate", "--scenario", str(path), "--out", str(tmp_path / "runs")])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "sampling interval of 100 ms takes 20000000001 queue samples" in proc.stderr
        assert "the smallest interval that fits is 2000002.000003 ms" in proc.stderr

    def test_poisson_source_that_cannot_end_exits_within_a_memory_limit(self, tmp_path):
        # its arrival column once grew until memory ran out
        path = tmp_path / "stalled.json"
        path.write_text(json.dumps(STALLED_POISSON_SCENARIO))
        proc = run_limited(["simulate", "--scenario", str(path), "--out", str(tmp_path / "runs")])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "poisson rate 10000000.0/s" in proc.stderr
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("option, value", [
        ("--seed", "5"), ("--sqf-d", "9"), ("--mitigation", "10,3"),
        ("--name", "other"), ("--interval", "7"),
    ])
    def test_manifest_rejects_scenario_options(self, tmp_path, monkeypatch, capsys,
                                               option, value):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--manifest", "fig12_mitigation", option, value]) == 2
        assert option in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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


class TestSimulateChild:
    """The summary is computed in a forked child while the parent verifies and writes."""

    def test_unverified_trace_leaves_no_seed_dir_and_reaps_the_child(
            self, tmp_path, tiny_scenario, monkeypatch, capsys):
        simulate, fork, children = manifests.simulate, os.fork, []

        def doctored(*args, **kwargs):
            trace = simulate(*args, **kwargs)
            trace.packets.start_ns[0] += 1  # a wait the recursions do not give
            return trace

        def recording_fork():
            pid = fork()
            if pid:
                children.append(pid)
            return pid

        monkeypatch.setattr(manifests, "simulate", doctored)
        monkeypatch.setattr(os, "fork", recording_fork)
        assert main(tiny_argv(tmp_path, tiny_scenario)) == 3
        assert "server_waits" in capsys.readouterr().err
        assert not (tmp_path / "runs" / "tiny" / "seed0005").exists()
        assert len(children) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(children[0], os.WNOHANG)

    def test_summary_error_in_the_child_is_invariant_error(self, tmp_path, tiny_scenario,
                                                           monkeypatch, capsys):
        where = tmp_path / "pid.txt"

        def failing(trace):
            where.write_text(str(os.getpid()))
            raise ContractViolation("cannot summarize an empty sample")

        monkeypatch.setattr(metrics, "run_summary", failing)
        assert main(tiny_argv(tmp_path, tiny_scenario)) == 3
        assert capsys.readouterr().err == (
            "invariant violation: cannot summarize an empty sample\n"
        )
        assert int(where.read_text()) != os.getpid()
        assert not (tmp_path / "runs" / "tiny" / "seed0005" / "summary.json").exists()

    def test_child_killed_mid_summary_is_io_error(self, tmp_path, tiny_scenario,
                                                  monkeypatch, capsys):
        parent, summarize = os.getpid(), metrics.run_summary

        def dying_in_the_child(trace):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return summarize(trace)

        monkeypatch.setattr(metrics, "run_summary", dying_in_the_child)
        assert main(tiny_argv(tmp_path, tiny_scenario)) == 4
        seed_dir = tmp_path / "runs" / "tiny" / "seed0005"
        assert capsys.readouterr().err == (
            f"i/o error: the child summarizing {seed_dir} was killed by signal 9 "
            "without a result\n"
        )
        assert not (seed_dir / "summary.json").exists()


    def test_the_summary_childs_own_child_dies_with_it(self, tmp_path, tiny_scenario,
                                                       monkeypatch):
        simulate, verify = manifests.simulate, artifacts.verify_trace
        where = tmp_path / "pid.txt"

        def doctored(*args, **kwargs):
            trace = simulate(*args, **kwargs)
            trace.packets.start_ns[0] += 1  # a wait the recursions do not give
            return trace

        def sleeping_half(trace):
            (tmp_path / "pid.tmp").write_text(str(os.getpid()))
            os.replace(tmp_path / "pid.tmp", where)
            time.sleep(60)

        def verify_once_the_half_sleeps(trace):
            deadline = time.monotonic() + 30
            while not where.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            verify(trace)

        monkeypatch.setattr(manifests, "simulate", doctored)
        monkeypatch.setattr(metrics, "_queues_and_attack_summary", sleeping_half)
        monkeypatch.setattr(artifacts, "verify_trace", verify_once_the_half_sleeps)
        assert main(tiny_argv(tmp_path, tiny_scenario)) == 3
        pid = int(where.read_text())
        try:
            # gone, or a zombie its new parent has yet to reap; SIGKILL takes
            # effect within moments, the sleep would take a minute
            deadline = time.monotonic() + 5
            while process_state(pid) not in (None, "Z") and time.monotonic() < deadline:
                time.sleep(0.01)
            assert process_state(pid) in (None, "Z")
        finally:
            if process_state(pid) not in (None, "Z"):
                os.kill(pid, signal.SIGKILL)

    def test_failed_fork_is_io_error_and_leaks_no_fd(self, tmp_path, tiny_scenario,
                                                     monkeypatch, capsys):
        def failing_fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", failing_fork)
        before = len(os.listdir("/proc/self/fd"))
        assert main(tiny_argv(tmp_path, tiny_scenario)) == 4
        assert len(os.listdir("/proc/self/fd")) == before
        assert capsys.readouterr().err == f"i/o error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"


def process_state(pid):
    """The state letter of process ``pid`` ("Z" for a zombie), or None when it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return None


class TestSummaryHalves:
    """``run_summary`` computes its queues and attack sections in a forked child."""

    @staticmethod
    def argv(tmp_path, tiny_scenario, command):
        """A fresh ``simulate`` of the tiny run, or ``analyze`` of one written earlier."""
        if command == "simulate":
            return tiny_argv(tmp_path / "fresh", tiny_scenario)
        return ["analyze", str(run_tiny(tmp_path, tiny_scenario))]

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_error_in_the_forked_half_is_invariant_error(self, tmp_path, tiny_scenario,
                                                         monkeypatch, capsys, command):
        argv = self.argv(tmp_path, tiny_scenario, command)
        where = tmp_path / "pid.txt"

        def failing(trace):
            where.write_text(str(os.getpid()))
            raise ContractViolation("cannot summarize an empty sample")

        capsys.readouterr()
        with monkeypatch.context() as patch:  # the half the summary computes itself
            patch.setattr(metrics, "_whole_run_summary", failing)
            assert main(argv) == 3
        alone = capsys.readouterr().err
        if command == "analyze":
            assert int(where.read_text()) == os.getpid()
        monkeypatch.setattr(metrics, "_queues_and_attack_summary", failing)
        assert main(argv) == 3
        assert capsys.readouterr().err == alone == (
            "invariant violation: cannot summarize an empty sample\n"
        )
        assert int(where.read_text()) != os.getpid()
        assert not (tmp_path / "fresh" / "runs" / "tiny" / "seed0005" / "summary.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_forked_half_killed_is_io_error(self, tmp_path, tiny_scenario,
                                            monkeypatch, capsys, command):
        argv = self.argv(tmp_path, tiny_scenario, command)
        parent, half = os.getpid(), metrics._queues_and_attack_summary

        def dying_in_the_child(trace):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return half(trace)

        monkeypatch.setattr(metrics, "_queues_and_attack_summary", dying_in_the_child)
        capsys.readouterr()
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            "i/o error: the child summarizing the queues and the attack window "
            "was killed by signal 9 without a result\n"
        )
        assert not (tmp_path / "fresh" / "runs" / "tiny" / "seed0005" / "summary.json").exists()


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

    def test_compare_selects_admitted_once_per_run(self, tmp_path, tiny_scenario,
                                                   monkeypatch):
        a = run_tiny(tmp_path, tiny_scenario)
        b = run_ungated(tmp_path, tiny_scenario)
        calls = tmp_path / "calls.txt"  # the compare run loads in a child process
        original = metrics.admitted_ids

        def counting(packets):
            with open(calls, "a") as fh:
                fh.write(f"{len(packets)}\n")
            return original(packets)

        monkeypatch.setattr(metrics, "admitted_ids", counting)
        assert main(["analyze", str(a), "--compare", str(b)]) == 0
        assert calls.read_text().split() == ["60", "60"]

    def test_compare_matches_a_sequential_reference(self, tmp_path, tiny_scenario):
        a = run_tiny(tmp_path, tiny_scenario)
        b = run_ungated(tmp_path, tiny_scenario)
        out, ref = tmp_path / "out", tmp_path / "ref"
        assert main(["analyze", str(a), "--compare", str(b), "--out", str(out)]) == 0
        assert main(["analyze", str(a), "--out", str(ref)]) == 0
        comparison = metrics.compare_runs(cli._load_run(a, 10**8), cli._load_run(b, 10**8))
        write_comparison_csv(comparison, ref / "figure_comparison.csv")
        names = sorted(path.name for path in out.iterdir())
        assert names == sorted(path.name for path in ref.iterdir())
        assert "figure_comparison.csv" in names
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_corrupt_compare_run_is_invariant_error(self, tmp_path, tiny_scenario, capsys):
        a = run_tiny(tmp_path, tiny_scenario)
        b = run_ungated(tmp_path, tiny_scenario)
        edit_first_row(b / "packets.csv", "service_end", end_before_start)
        capsys.readouterr()
        assert main(["analyze", str(b), "--out", str(tmp_path / "alone")]) == 3
        message = capsys.readouterr().err
        assert "out of order" in message
        out = tmp_path / "out"
        assert main(["analyze", str(a), "--compare", str(b), "--out", str(out)]) == 3
        assert capsys.readouterr().err == message
        # the primary run's outputs are written before the compare run is read
        assert sorted(path.name for path in out.iterdir()) == [
            "figure_delay_histogram.csv", "figure_queues.csv", "summary.json",
        ]

    def test_compare_child_pipes_typed_series(self, tmp_path, tiny_scenario):
        b = run_ungated(tmp_path, tiny_scenario)
        with Forked("loading the compare run", cli._load_sampled, b, 10**8) as other:
            slim = other.result()
        assert len(slim.packets) == len(slim.admitted) == 0
        for name in ("times_ns", "sqf_counts", "server_counts"):
            column = getattr(slim, name)
            assert isinstance(column, array) and column.typecode == "q", name
        assert slim.times_ns == cli._load_run(b, 10**8).times_ns
        comparison = metrics.compare_runs(cli._load_run(run_tiny(tmp_path, tiny_scenario), 10**8),
                                          slim)
        for field in dataclasses.fields(comparison)[1:]:
            column = getattr(comparison, field.name)
            assert isinstance(column, array) and column.typecode == "q", field.name

    def test_missing_compare_directory_is_io_error(self, tmp_path, tiny_scenario, capsys):
        a = run_tiny(tmp_path, tiny_scenario)
        assert main(["analyze", str(a), "--compare", str(tmp_path / "nope")]) == 4
        assert "nope" in capsys.readouterr().err

    def test_corrupt_primary_run_reaps_the_child(self, tmp_path, tiny_scenario,
                                                 monkeypatch):
        a = run_tiny(tmp_path, tiny_scenario)
        b = run_ungated(tmp_path, tiny_scenario)
        edit_first_row(a / "packets.csv", "service_end", end_before_start)
        children, fork = [], os.fork

        def recording_fork():
            pid = fork()
            if pid:
                children.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        assert main(["analyze", str(a), "--compare", str(b)]) == 3
        assert len(children) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(children[0], os.WNOHANG)

    def test_child_dying_without_a_result_is_reported(self, tmp_path, tiny_scenario,
                                                      monkeypatch, capsys):
        a = run_tiny(tmp_path, tiny_scenario)
        b = run_ungated(tmp_path, tiny_scenario)
        parent, load = os.getpid(), cli._load_run

        def dying_in_the_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return load(*args)

        monkeypatch.setattr(cli, "_load_run", dying_in_the_child)
        assert main(["analyze", str(a), "--compare", str(b)]) == 4
        assert "killed by signal 9 without a result" in capsys.readouterr().err

    def test_compare_child_does_not_flush_inherited_stdout(self, tmp_path, tiny_scenario):
        a = run_tiny(tmp_path, tiny_scenario)
        b = run_ungated(tmp_path, tiny_scenario)
        # stdout is a buffered pipe, so "ready" is still in the buffer when
        # the child forks
        script = (
            "import sys\nfrom qdtp.cli import main\nprint('ready')\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-c", script, "analyze", str(a), "--compare", str(b)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        lines = Counter(proc.stdout.splitlines())
        assert "ready" in lines and any("server queue peaks" in line for line in lines)
        assert set(lines.values()) == {1}, lines

    def test_empty_directory_is_io_error(self, tmp_path):
        assert main(["analyze", str(tmp_path)]) == 4

    def test_doctored_packets_is_invariant_error(self, tmp_path, tiny_scenario, capsys):
        # packet 0 leaves the server before it entered; packet 0 reaches the
        # device 1 us after its own service started; packet 0 claims id 5;
        # packet 0 is flagged dropped without a reason; packet 0 carries a
        # drop reason without the flag
        edits = (
            ("service_end", end_before_start, "out of order"),
            ("t", lambda row: int(row["service_start"]) + 1000, "out of order"),
            ("id", lambda row: 5, "id 5 is not the row index 0"),
            ("dropped", lambda row: 1, "dropped flag disagrees"),
            ("drop_reason", lambda row: "capacity", "dropped flag disagrees"),
        )
        for column, value, message in edits:
            seed_dir = run_tiny(tmp_path, tiny_scenario)
            edit_first_row(seed_dir / "packets.csv", column, value)
            capsys.readouterr()
            assert main(["analyze", str(seed_dir)]) == 3, column
            assert message in capsys.readouterr().err, column

    def test_unknown_drop_reason_is_invariant_error_naming_the_row(self, tmp_path, capsys):
        # the reasons form a closed table; an unknown one is rejected as the
        # log is read, not later by check_records
        (tmp_path / "packets.csv").write_text(
            ",".join(PACKET_FIELDS) + "\n0,0,0,5,5,5,9,0,\n1,0,0,6,,,,1,overflow\n"
        )
        assert main(["analyze", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "drop_reason 'overflow' of row 1 is not one of ('mitigation', 'capacity')" in err

    def test_cell_longer_than_the_csv_field_limit_is_invariant_error(self, tmp_path, capsys):
        # 200,000 characters, past csv's 131,072-character field limit: the
        # csv module's reader raised its own error, a traceback and exit 1
        reason = "x" * 200_000
        (tmp_path / "packets.csv").write_text(
            ",".join(PACKET_FIELDS) + f"\n0,0,0,5,5,5,9,0,{reason}\n"
        )
        assert main(["analyze", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "packets.csv: bad packet row" in err
        assert "dropped flag disagrees with drop_reason" in err

    def test_live_stub_recording_is_accepted(self, tmp_path, capsys):
        # a device stub starts each service a few us after the previous one
        # ended, so the log follows no recursion to the ns; analyze checks
        # its consistency and must not replay the recursions
        rows, end = [], 0
        for i in range(5):
            a = i * 1_000_000
            start = max(a, end) + 3_000
            end = start + 2_000_000
            rows.append([i, 0, 0, a, a, start, end, 0, ""])
        with open(tmp_path / "packets.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([PACKET_FIELDS] + rows)
        with pytest.raises(InvariantViolation, match="lindley_waits"):
            verify_trace(trace_from_records(read_packets_csv(tmp_path / "packets.csv")))
        assert main(["analyze", str(tmp_path), "--interval", "1"]) == 0
        assert "5/5 packets completed" in capsys.readouterr().out

    def test_negative_timestamps_are_invariant_error(self, tmp_path, capsys):
        rows = [
            [0, 0, 0, -5_000_000, -5_000_000, -5_000_000, -2_000_000, 0, ""],
            [1, 0, 0, 0, 0, 0, 2_000_000, 0, ""],
        ]
        with open(tmp_path / "packets.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([PACKET_FIELDS] + rows)
        assert main(["analyze", str(tmp_path)]) == 3
        assert "packet 0: negative arrival time" in capsys.readouterr().err

    def test_arrivals_out_of_order_are_invariant_error(self, tmp_path, capsys):
        # the gate forwarded packet 1 after packet 0, yet it arrived first
        trace = simulate_sequences([1_000_000, 2_000_000], [1_000_000] * 2, 3_000_000)
        trace.packets.a_ns[1] = 500_000
        write_packets_csv(trace.packets, tmp_path / "packets.csv")
        assert main(["analyze", str(tmp_path)]) == 3
        assert "packet 1: arrivals out of order" in capsys.readouterr().err

    def test_gated_flood_histogram_counts_what_the_summary_counts(self, tmp_path):
        # the gate releases most of the flood after the attack window ends;
        # those packets still belong in the under_attack column
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(HEAVY_TAIL_SCENARIO))
        assert main([
            "simulate", "--scenario", str(path), "--name", "gated", "--sqf-d", "3",
            "--out", str(tmp_path / "runs"),
        ]) == 0
        seed_dir = tmp_path / "runs" / "gated" / "seed0003"
        assert main(["analyze", str(seed_dir)]) == 0
        with open(seed_dir / "figure_delay_histogram.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        attack = json.loads((seed_dir / "summary.json").read_text())["attack"]
        late = max(read_packets_csv(seed_dir / "packets.csv").t_ns) / 1e9
        assert late > attack["window_s"][1] + 1
        for column, stats in (("baseline", "baseline_sojourn_ms"),
                              ("under_attack", "attack_sojourn_ms")):
            assert sum(int(r[column]) for r in rows) == attack[stats]["count"]
        assert attack["attack_sojourn_ms"]["count"] == attack["admitted"] == 2000

    def test_heavy_tailed_histogram_is_capped(self, tmp_path):
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(HEAVY_TAIL_SCENARIO))
        assert main([
            "simulate", "--scenario", str(path), "--name", "heavy",
            "--out", str(tmp_path / "runs"),
        ]) == 0
        seed_dir = tmp_path / "runs" / "heavy" / "seed0003"
        assert main(["analyze", str(seed_dir)]) == 0
        with open(seed_dir / "figure_delay_histogram.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # fixed-width bins would number over 10^5 here; the cap takes over
        assert len(rows) == metrics.MAX_HISTOGRAM_BINS
        attack = json.loads((seed_dir / "summary.json").read_text())["attack"]
        baseline, sojourns = attack["baseline_sojourn_ms"], attack["attack_sojourn_ms"]
        counts = [int(r["under_attack"]) for r in rows]
        assert sum(int(r["baseline"]) for r in rows) + sum(counts) == (
            baseline["count"] + sojourns["count"]
        )
        rank, seen = -(-sojourns["count"] // 2), 0  # nearest rank, as summarize
        for row, count in zip(rows, counts):
            seen += count
            if seen >= rank:
                break
        # labels carry five decimals
        assert float(row["bin_lo_ms"]) - 1e-5 <= sojourns["p50_ms"]
        assert sojourns["p50_ms"] <= float(row["bin_hi_ms"]) + 1e-5

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

    @pytest.mark.parametrize("interval", ["0", "-5", "nan", "inf", "1e303"])
    def test_analyze_bad_interval_is_config_error(
        self, tmp_path, tiny_scenario, interval, capsys
    ):
        # a command-line setting, checked where it enters: also when the
        # run's summary.json would supply the interval instead
        seed_dir = run_tiny(tmp_path, tiny_scenario)
        capsys.readouterr()
        assert main(["analyze", str(seed_dir), f"--interval={interval}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: sampling interval ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}", b"[1, 2]"])
    def test_unreadable_summary_is_invariant_error(self, tmp_path, tiny_scenario, capsys,
                                                   content):
        seed_dir = run_tiny(tmp_path, tiny_scenario)
        (seed_dir / "summary.json").write_bytes(content)
        capsys.readouterr()
        assert main(["analyze", str(seed_dir)]) == 3
        assert "summary.json" in capsys.readouterr().err

    @pytest.mark.parametrize("section, field, value", [
        ("config", "d_ms", "3"),
        ("config", "d_ms", float("nan")),
        ("config", "sampling_interval_s", "0.1"),
        ("config", "mitigation", 5),
        ("config", "seed", 1.5),
        ("attack", "window_s", [1.0]),
        ("attack", "window_s", ["0", "1"]),
        # past 64-bit ns these once ended in an OverflowError; an interval
        # of 0 once fell back to --interval, and a negative instant was kept
        ("config", "d_ms", 1e303),
        ("config", "sampling_interval_s", 1e300),
        ("config", "sampling_interval_s", 0),
        ("attack", "window_s", [0.5, 1e300]),
        ("attack", "window_s", [-0.5, 1.0]),
    ])
    def test_bad_stored_config_is_invariant_error(self, tmp_path, tiny_scenario, capsys,
                                                  section, field, value):
        seed_dir = run_tiny(tmp_path, tiny_scenario)
        path = seed_dir / "summary.json"
        summary = json.loads(path.read_text())
        summary[section] = dict(summary[section] or {}, **{field: value})
        path.write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(["analyze", str(seed_dir)]) == 3
        err = capsys.readouterr().err
        assert "summary.json" in err and f"{section}.{field}" in err
        assert err.count("\n") == 1

    def test_stored_section_that_is_not_an_object_is_invariant_error(
        self, tmp_path, tiny_scenario, capsys
    ):
        seed_dir = run_tiny(tmp_path, tiny_scenario)
        path = seed_dir / "summary.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), config=[3.0])))
        capsys.readouterr()
        assert main(["analyze", str(seed_dir)]) == 3
        assert "summary.json: config is not an object" in capsys.readouterr().err

    def test_packets_that_are_not_utf8_is_invariant_error(self, tmp_path, tiny_scenario,
                                                          capsys):
        seed_dir = run_tiny(tmp_path, tiny_scenario)
        path = seed_dir / "packets.csv"
        path.write_bytes(path.read_bytes()[:-2] + b"\xff\r\n")  # into the last cell
        capsys.readouterr()
        assert main(["analyze", str(seed_dir)]) == 3
        err = capsys.readouterr().err
        assert "packets.csv: not UTF-8 text" in err

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

    def test_spacing_past_64_bit_ns_is_config_error(self, monkeypatch, capsys):
        # 1e17 us is 1e20 ns: the pacer's sleep once overflowed on the second datagram
        def started(cfg):
            pytest.fail("the forwarder started")

        monkeypatch.setattr(cli, "run_forwarder", started)
        assert main([
            "forward", "--listen", "127.0.0.1:0",
            "--upstream", "127.0.0.1:9", "--d-us", str(10**17),
        ]) == 2
        assert capsys.readouterr().err == (
            "configuration error: d_us of 100000000000000000 us "
            "does not fit in 64-bit nanoseconds\n"
        )

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

    def test_stats_interval_default_is_the_config_default(self):
        args = build_parser().parse_args([
            "forward", "--listen", "127.0.0.1:0",
            "--upstream", "127.0.0.1:9", "--d-us", "1000",
        ])
        assert args.stats_interval == ForwarderConfig.stats_interval == 5.0


class TestStub:
    @pytest.mark.parametrize("option, value", [
        ("--mean-ms", "nan"), ("--variance-ms2", "inf"), ("--outlier-scale", "nan"),
    ])
    def test_non_finite_service_setting_is_config_error(self, monkeypatch, capsys,
                                                        option, value):
        # rejected before the stub binds a socket or starts its worker thread
        def started(*args, **kwargs):
            pytest.fail("the stub started")

        monkeypatch.setattr(cli, "run_server_stub", started)
        assert main(["stub", "--listen", "127.0.0.1:0", option, value]) == 2
        assert "must be a finite number" in capsys.readouterr().err


def log_uniform(lo, hi):
    """Floats from 10**lo to 10**hi, each decade as likely."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def source_bodies(draw):
    """A traffic source of about 300 packets at most, starting anywhere up to past 2**63 ns."""
    rate = draw(log_uniform(-3, 12))
    return {
        "kind": draw(st.sampled_from(("periodic", "poisson", "burst"))),
        "rate": rate,
        "duration": draw(st.integers(1, 300)) / rate,
        "start": draw(st.floats(0.0, 100.0) | log_uniform(2, 10)),
        "jitter": draw(st.just(0.0) | st.floats(0.0, 10 / rate)),
    }


@st.composite
def service_bodies(draw):
    return {
        "mode": draw(st.sampled_from(SERVICE_MODES)),
        "mean": draw(log_uniform(-9, 10)),
        "variance": draw(st.just(0.0) | log_uniform(-20, 20)),
        "outlier_probability": draw(st.floats(0.0, 1.0)),
        "outlier_scale": draw(log_uniform(0, 12)),
    }


@st.composite
def scenario_bodies(draw):
    """Scenario JSON with extreme but finite values, some past what the package accepts."""
    sources = draw(st.lists(source_bodies(), min_size=1, max_size=3))
    attack = draw(st.none() | source_bodies())
    ends = [src["start"] + src["duration"] for src in sources + [attack] if src]
    return {
        "normal_sources": sources,
        "attack": attack,
        "service_no_attack": draw(service_bodies()),
        "service_under_attack": draw(service_bodies()),
        "seed": draw(st.integers(0, 2**32)),
        "horizon": max(ends),
        "congestion_threshold": draw(st.integers(1, 200)),
    }


class TestEntryPointProperty:
    @settings(max_examples=60, deadline=None)
    @given(body=scenario_bodies(), d_ms=st.none() | log_uniform(-7, 6))
    def test_validate_then_simulate_exits_with_a_code(self, tmp_path_factory, body, d_ms):
        # every case runs or is refused with one line on stderr, never a traceback
        case = tmp_path_factory.mktemp("case")
        path = case / "scenario.json"
        path.write_text(json.dumps(body))
        simulate = ["simulate", "--scenario", str(path), "--out", str(case / "runs")]
        if d_ms is not None:
            simulate += ["--sqf-d", repr(d_ms)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            codes = [main(["scenario", "validate", str(path)]), main(simulate)]
        assert set(codes) <= {0, 2, 3}, err.getvalue()
        assert err.getvalue().count("\n") == sum(map(bool, codes)), err.getvalue()


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qdtp.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_import_starts_no_process_pool(self):
        # analyze --compare forks by hand; a process pool would cost every
        # command its import time and the analysis its memory
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qdtp.cli\n"
             "print(sorted(set(sys.modules) & {'multiprocessing', 'concurrent.futures'}))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
