"""Tests of the benchmark itself (not of qdtp).

    python3 bench/selftest.py

Deliberately not named ``test_*.py``: the repository's own pytest run does
not collect it.  The offline cases run the real ``qdtp`` CLI on the small
bundled flood_10s scenario; the whole file takes well under a minute.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import WORK, Proc, import_program, qdtp_cli, require_program, run_child  # noqa: E402

require_program()
import_program()

import live  # noqa: E402
import offline  # noqa: E402
from spans import Tracer, self_time_by_name, self_times  # noqa: E402

SMALL_GATED = {"name": "small_gated", "scenario": "flood_10s", "sqf_d_ms": 3.0, "mitigation": None}
SMALL_UNGATED = {"name": "small_ungated", "scenario": "flood_10s", "sqf_d_ms": None, "mitigation": None}


def _span(name, start, end, parent=None):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "run_id": "t", "probe": False}


class SelfTimeTest(unittest.TestCase):
    def test_children_union_is_subtracted_once(self):
        spans = [
            _span("root", 0, 100),
            _span("a", 10, 40, parent=0),
            _span("b", 30, 60, parent=0),  # overlaps a
            _span("a.inner", 15, 20, parent=1),
            _span("c", 90, 120, parent=0),  # runs past its parent: clipped
        ]
        self.assertEqual(self_times(spans), [100 - 50 - 10, 25, 30, 5, 30])

    def test_totals_by_name_in_seconds(self):
        spans = [_span("x", 0, 2_000_000_000), _span("y", 0, 500_000_000, parent=0),
                 _span("y", 3_000_000_000, 3_250_000_000)]
        self.assertEqual(self_time_by_name(spans), {"x": 1.5, "y": 0.75})

    def test_install_wraps_every_binding_and_nests(self):
        import qdtp.recursions
        import qdtp.simulator
        from qdtp.recursions import ArrivalSequence, QdtpConfig

        original = qdtp.recursions.qdtp_schedule
        bindings = [(m, k) for name, m in list(sys.modules.items())
                    if name.split(".")[0] == "qdtp"
                    for k, v in list(vars(m).items()) if v is original]
        tracer = Tracer("t")
        try:
            missing = tracer.install(targets=(("qdtp.recursions", "qdtp_schedule"),
                                              ("qdtp.recursions", "no_such_function")))
            self.assertEqual(missing, ["qdtp.recursions.no_such_function"])
            self.assertTrue(all(getattr(m, k) is not original for m, k in bindings))
            with tracer.span("outer"):
                qdtp.simulator.qdtp_schedule(ArrivalSequence((0, 0)), QdtpConfig(5))
        finally:
            for module, key in bindings:
                setattr(module, key, original)
        self.assertEqual([s["name"] for s in tracer.spans], ["outer", "recursions.qdtp_schedule"])
        self.assertEqual(tracer.spans[1]["parent"], 0)


class _RunDirs(unittest.TestCase):
    """Small real runs produced once per class."""

    @classmethod
    def setUpClass(cls):
        WORK.mkdir(parents=True, exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def simulate(self, spec, seed, tag):
        manifest = offline.write_manifest(spec, seed, self.tmp)
        out_root = self.tmp / tag
        proc = run_child(qdtp_cli(*offline.simulate_args(manifest, out_root)))
        self.assertTrue(proc.ok, f"qdtp simulate exited with {proc.status}")
        return offline.seed_dir(out_root, spec, seed), proc


class DoctoredArtifactTest(_RunDirs):
    def test_doctored_packets_csv_fails_the_operation(self):
        run_dir, proc = self.simulate(SMALL_GATED, 1, "ref")
        expected = offline.artifact_hashes(run_dir)
        self.assertEqual(offline.check_sim_dir(run_dir, SMALL_GATED, 1, expected), [])
        good = offline.Op(proc, out_bytes=1, packets=1, ref_s=0.01)

        packets = run_dir / "packets.csv"
        data = bytearray(packets.read_bytes())
        data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
        packets.write_bytes(bytes(data))
        problems = offline.check_sim_dir(run_dir, SMALL_GATED, 1, expected)
        self.assertTrue(problems)
        bad = offline.Op(proc, problems=problems, out_bytes=1, packets=1, ref_s=0.01)

        e2e = offline._e2e([good, bad], [0.1], [good, bad])
        self.assertEqual(e2e["ok_frac"], 0.5)

    def test_unreadable_summary_is_a_problem_not_a_crash(self):
        run_dir, _ = self.simulate(SMALL_GATED, 3, "bad")
        (run_dir / "summary.json").write_text("{not json")
        self.assertTrue(offline.check_sim_dir(run_dir, SMALL_GATED, 3))
        (run_dir / "summary.json").write_text("{}")
        self.assertTrue(offline.check_sim_dir(run_dir, SMALL_GATED, 3))

    def test_doctored_comparison_fails_analyze(self):
        gated, _ = self.simulate(SMALL_GATED, 2, "a")
        ungated, _ = self.simulate(SMALL_UNGATED, 2, "b")
        out = self.tmp / "analyze"
        proc = run_child(qdtp_cli("analyze", gated, "--compare", ungated, "--out", out))
        self.assertTrue(proc.ok)
        self.assertEqual(offline.check_analyze_dir(out, gated, ungated), [])

        comparison = out / "figure_comparison.csv"
        lines = comparison.read_text().splitlines(keepends=True)
        cells = lines[5].split(",")
        cells[2] = str(int(cells[2]) + 1)
        lines[5] = ",".join(cells)
        comparison.write_text("".join(lines))
        self.assertTrue(offline.check_analyze_dir(out, gated, ungated))


class TimedRunTest(_RunDirs):
    def test_timed_run_writes_what_the_plain_cli_writes(self):
        plain, _ = self.simulate(SMALL_GATED, 4, "plain")
        manifest = offline.write_manifest(SMALL_GATED, 4, self.tmp)
        out_root = self.tmp / "timed"
        op = offline.timed_op(offline.simulate_args(manifest, out_root), self.tmp / "timing.json")
        self.assertTrue(op.ok, op.problems)
        self.assertGreater(op.ref_s, 0)
        self.assertGreater(op.cal_s, 0)
        self.assertLess(op.wall_s, op.proc.wall_s)
        timed = offline.seed_dir(out_root, SMALL_GATED, 4)
        self.assertEqual(offline.artifact_hashes(timed), offline.artifact_hashes(plain))

    def test_exit_status_passes_through_and_timing_is_required(self):
        op = offline.timed_op(["simulate", "--manifest", self.tmp / "absent.json",
                               "--out", self.tmp / "absent"], self.tmp / "absent.timing.json")
        self.assertNotEqual(op.proc.status, 0)
        self.assertGreater(op.ref_s, 0)
        op = offline.timed_op(["--version-that-does-not-exist"], self.tmp / "no" / "timing.json")
        self.assertIn("no reference timing was written", op.problems)


class TracedRunTest(_RunDirs):
    def test_missing_span_target_fails_the_operation(self):
        ok = Proc(status=0, wall_s=1.0, cpu_s=1.0, rss_mb=1.0)
        traced = {"missing": [], "spans": [], "counts": {}, "overhead_s": 0.0}
        self.assertEqual(offline._traced_problems(ok, traced, self.tmp), [])
        traced["missing"] = ["qdtp.artifacts.write_packets_csv"]
        self.assertTrue(offline._traced_problems(ok, traced, self.tmp))
        self.assertTrue(offline._traced_problems(ok, None, self.tmp))

    def test_traced_mitigated_run_replays_the_gate(self):
        spec = {**SMALL_GATED, "name": "small_mitigated", "mitigation": [10, 3]}
        manifest = offline.write_manifest(spec, 1, self.tmp)
        proc, traced = offline._traced_op(
            offline.simulate_args(manifest, self.tmp / "traced"), self.tmp, "t")
        self.assertTrue(proc.ok, f"traced run exited with {proc.status}")
        self.assertEqual(traced["missing"], [])
        self.assertGreater(traced["overhead_s"], 0)
        summary = offline.seed_dir(self.tmp / "traced", spec, 1) / "summary.json"
        completed = json.loads(summary.read_text())["packets"]["completed"]
        self.assertEqual(traced["counts"]["replay_admitted"], completed)


class SinkTest(unittest.TestCase):
    D = 100_000

    def received(self, payloads):
        return [(i * self.D, p) for i, p in enumerate(payloads)]

    def test_every_datagram_delivered(self):
        payloads = live.flood_payloads(3, count=50)
        report = live.judge_sink(self.received(payloads), payloads, self.D)
        self.assertEqual((report.delivered, report.corrupt, report.out_of_order), (50, 0, 0))
        self.assertEqual(report.spacing_ok_frac, 1.0)
        self.assertAlmostEqual(report.rate_ratio, 1.0)

    def test_losing_one_datagram_lowers_delivered(self):
        payloads = live.flood_payloads(3, count=50)
        got = self.received(payloads)
        del got[17]
        report = live.judge_sink(got, payloads, self.D)
        self.assertEqual(report.delivered, 49)
        self.assertEqual(report.corrupt + report.out_of_order, 0)

    def test_corrupt_and_reordered_are_not_delivered(self):
        payloads = live.flood_payloads(3, count=50)
        got = self.received(payloads)
        got[4] = (got[4][0], got[4][1][:-1] + b"\xff")
        got[10], got[11] = got[11], got[10]
        report = live.judge_sink(got, payloads, self.D)
        self.assertEqual((report.corrupt, report.out_of_order), (1, 1))
        self.assertEqual(report.delivered, 48)

    def test_crowded_arrivals_lower_spacing_ok(self):
        payloads = live.flood_payloads(3, count=5)
        got = [(t, p) for t, p in zip((0, 100_000, 150_000, 300_000, 400_000), payloads)]
        self.assertEqual(live.judge_sink(got, payloads, self.D).spacing_ok_frac, 0.75)

    def test_queue_peak_from_stamps(self):
        log = [(0, 0, 10), (1, 10, 20), (2, 20, 30), (25, 30, 40)]
        self.assertEqual(live.queue_peak(log), 3)


class SeedTest(_RunDirs):
    def test_inputs_follow_the_seed(self):
        self.assertEqual(live.flood_payloads(5), live.flood_payloads(5))
        self.assertNotEqual(live.flood_payloads(5), live.flood_payloads(6))
        a = offline.write_manifest(offline.GATED, 5, self.tmp).read_bytes()
        b = offline.write_manifest(offline.GATED, 5, self.tmp).read_bytes()
        c = offline.write_manifest(offline.GATED, 6, self.tmp).read_bytes()
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_same_seed_same_artifacts_other_seed_other_artifacts(self):
        first = offline.artifact_hashes(self.simulate(SMALL_GATED, 4, "x")[0])
        again = offline.artifact_hashes(self.simulate(SMALL_GATED, 4, "y")[0])
        other = offline.artifact_hashes(self.simulate(SMALL_GATED, 9, "z")[0])
        self.assertEqual(first, again)
        self.assertNotEqual(first["packets.csv"], other["packets.csv"])


class ContractTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        import run
        from common import ROOT

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


class ProcTest(unittest.TestCase):
    def test_rusage_is_per_child(self):
        big = run_child([sys.executable, "-c", "x = bytearray(200 << 20)"])
        small = run_child([sys.executable, "-c", "pass"])
        self.assertTrue(big.ok and small.ok)
        self.assertGreater(big.rss_mb, 200)
        self.assertLess(small.rss_mb, 100)

    def test_failed_exit_is_not_ok(self):
        self.assertFalse(run_child([sys.executable, "-c", "raise SystemExit(3)"]).ok)
        self.assertIsInstance(run_child([sys.executable, "-c", "pass"]), Proc)


if __name__ == "__main__":
    unittest.main()
