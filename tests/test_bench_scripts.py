"""The benchmark's scripts must keep running against the package.

``bench/`` imports the package directly, so deleting or renaming a name it
uses breaks the benchmark without failing any unit test of the package.
These tests run two of the benchmark's own self-tests and one live
forwarder child, the way the benchmark runs them, and make the one call of
the live benchmark that only runs inside a live attempt.
"""
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from qdtp.forwarder import ForwarderStats
from qdtp.recursions import ArrivalSequence, QdtpConfig, qdtp_schedule

ROOT = Path(__file__).resolve().parent.parent


def bench_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_bench_selftests_reach_the_api():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py"),
         "SelfTimeTest.test_install_wraps_every_binding_and_nests",
         "TracedRunTest.test_traced_mitigated_run_replays_the_gate"],
        cwd=ROOT, env=bench_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_live_bench_schedule_call_returns_a_tuple():
    # bench/live.py calls the schedule this way and compares its times with a
    # tuple of the forwarder's planned departures: a list would never be equal
    assert qdtp_schedule(ArrivalSequence((0, 0, 5)), QdtpConfig(3)).times_ns == (0, 3, 6)


def test_forwarder_child_reports_stats(tmp_path):
    out = tmp_path / "fwd.json"
    with subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "fwd_child.py"),
         "--upstream", "127.0.0.1:9", "--d-us", "100", "--out", str(out)],
        cwd=ROOT, env=bench_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    ) as child:
        try:
            assert isinstance(json.loads(child.stdout.readline())["port"], int)
            child.stdin.close()  # end of input stops the forwarder
            assert child.wait(timeout=30) == 0
        finally:
            child.kill()
    report = json.loads(out.read_text())
    assert list(report["stats"]) == [f.name for f in fields(ForwarderStats)]
    assert len(report["stats"]) == 7
    assert report["conserved"] is True
    assert isinstance(report["log"], list)
