"""The offline workloads: ``qdtp simulate`` and ``qdtp analyze`` from the CLI.

Every operation is one ``qdtp`` process, reaped with ``wait4`` so its wall
time, CPU time and peak RSS are its own.  It runs under ``timed_cli.py``,
which times a reference loop in the same process, so its wall time can be
reported in units of the host's speed at that moment.  Its outputs are
checked before the next one starts; a non-zero exit or any failed check
fails it.
"""
from __future__ import annotations

import csv
import json
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from common import (
    BENCH_DIR, CHILD_TIMEOUT_S, Proc, qdtp_cli, run_child, sha256_file, spawn, tree_bytes,
    wait_child,
)
from spans import self_time_by_name

# The bundled experiments each workload is equivalent to, at the bench seed.
GATED = {"name": "fig7_with_sqf", "scenario": "flood_60s", "sqf_d_ms": 3.0, "mitigation": None}
MITIGATED = {"name": "fig13_mitigation_60s", "scenario": "flood_60s", "sqf_d_ms": 3.0,
             "mitigation": [10, 3]}
UNGATED = {"name": "fig3_no_sqf", "scenario": "flood_60s", "sqf_d_ms": None, "mitigation": None}
SIM_SPECS = {"sim_gated_flood": GATED, "sim_mitigated_flood": MITIGATED}

ARTIFACTS = ("packets.csv", "queues.csv", "summary.json")
TIMED_CLI = BENCH_DIR / "timed_cli.py"
REFS_PATH = BENCH_DIR / "refs.json"
# setup probes: SETUP_BATCH before every operation, topped up to
# SETUP_PROBES per run; each costs a cold interpreter start (~0.15 s)
SETUP_BATCH = 4
SETUP_PROBES = 20
SETUP_PROBE = (
    "import sys, qdtp.cli\n"
    "from qdtp.manifests import load_manifest, resolve_scenario\n"
    "resolve_scenario(load_manifest(sys.argv[1]).scenario)\n"
    "print('ready', flush=True)\n"
)

# span names (module.function) whose self times make up each layer metric
LAYER_SPANS = {
    "manifests.load_s": ("manifests.load_manifest", "manifests.resolve_scenario"),
    "scenario.generate_s": ("scenario.generate_arrivals",),
    "simulator.engine_s": ("simulator.simulate",),
    "simulator.verify_s": ("simulator.verify_trace",),
    "recursions.schedule_s": ("recursions.qdtp_schedule", "recursions.qdtp_delays_ns"),
    "recursions.waits_s": ("recursions.server_waits", "recursions.lindley_waits"),
    "mitigation.step_s": ("mitigation.step_replay",),
    "metrics.run_summary_s": ("metrics.run_summary",),
    "metrics.littles_law_s": ("metrics.littles_law_check",),
    "metrics.histogram_s": ("metrics.fd_bin_edges", "metrics.histogram_counts"),
    "metrics.compare_s": ("metrics.compare_runs",),
    "artifacts.write_packets_s": ("artifacts.write_packets_csv",),
    "artifacts.write_queues_s": ("artifacts.write_queues_csv",),
    "artifacts.write_summary_s": ("artifacts.write_summary_json",),
    "artifacts.write_figures_s": ("artifacts.write_histogram_csv", "artifacts.write_comparison_csv"),
    "artifacts.read_packets_s": ("artifacts.read_packets_csv", "artifacts.read_summary_json"),
    "artifacts.trace_from_records_s": ("artifacts.trace_from_records",),
    "cli.glue_s": ("cli.main", "manifests.run_manifest", "artifacts.write_run_dir"),
}


def load_refs() -> dict:
    if not REFS_PATH.is_file():
        return {}
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference(refs: dict, spec: dict, seed: int):
    """Recorded artifact hashes for this experiment and seed, if any."""
    return refs.get(spec["name"], {}).get(str(seed))


def write_manifest(spec: dict, seed: int, work: Path) -> Path:
    """The workload's input: the experiment at the bench seed."""
    path = work / f"{spec['name']}.json"
    manifest = {**spec, "seeds": [seed], "out": f"runs/{spec['name']}",
                "sampling_interval_ms": 100.0}
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def simulate_args(manifest: Path, out_root: Path) -> list:
    return ["simulate", "--manifest", manifest, "--out", out_root]


def seed_dir(out_root: Path, spec: dict, seed: int) -> Path:
    return out_root / spec["name"] / f"seed{seed:04d}"


def artifact_hashes(run_dir: Path) -> dict:
    return {name: sha256_file(run_dir / name) for name in ARTIFACTS}


def check_sim_dir(run_dir: Path, spec: dict, seed: int, expected=None) -> list[str]:
    """Problems with one simulate output; empty when it is correct.

    With ``expected`` hashes (recorded for this seed) every artifact must
    match byte for byte.  Without, the summary must at least agree with the
    packet log and the configuration asked for.
    """
    try:
        return _sim_dir_problems(run_dir, spec, seed, expected)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{run_dir.name}: unreadable output ({exc!r})"]


def _sim_dir_problems(run_dir: Path, spec: dict, seed: int, expected) -> list[str]:
    missing = [n for n in ARTIFACTS if not (run_dir / n).is_file()]
    if missing:
        return [f"{run_dir.name}: missing {', '.join(missing)}"]
    problems = []
    if expected is not None:
        got = artifact_hashes(run_dir)
        problems += [f"{n} differs from the recorded reference"
                     for n in ARTIFACTS if got[n] != expected[n]]
    with open(run_dir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(run_dir / "packets.csv", "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    pk, cfg = summary["packets"], summary["config"]
    if pk["total"] != rows or pk["completed"] + pk["dropped"] != rows:
        problems.append(f"summary counts {pk} disagree with {rows} packet rows")
    if cfg["seed"] != seed or cfg["d_ms"] != spec["sqf_d_ms"] or cfg["mitigation"] != spec["mitigation"]:
        problems.append(f"summary config {cfg} is not the experiment asked for")
    return problems


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_analyze_dir(out_dir: Path, gated: Path, ungated: Path) -> list[str]:
    """``analyze A --compare B`` must reproduce A's summary and queue curve.

    None of these checks depends on the delay histogram.
    """
    try:
        return _analyze_dir_problems(out_dir, gated, ungated)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{out_dir.name}: unreadable output ({exc!r})"]


def _analyze_dir_problems(out_dir: Path, gated: Path, ungated: Path) -> list[str]:
    problems = []
    for produced, source in (("summary.json", "summary.json"), ("figure_queues.csv", "queues.csv")):
        if not (out_dir / produced).is_file():
            problems.append(f"analyze wrote no {produced}")
        elif (out_dir / produced).read_bytes() != (gated / source).read_bytes():
            problems.append(f"analyze {produced} differs from the run's {source}")
    comparison = out_dir / "figure_comparison.csv"
    if not comparison.is_file():
        return problems + ["analyze wrote no figure_comparison.csv"]
    rows = _read_rows(comparison)[1:]
    a_rows, b_rows = _read_rows(gated / "queues.csv")[1:], _read_rows(ungated / "queues.csv")[1:]
    longer = a_rows if len(a_rows) >= len(b_rows) else b_rows
    if len(rows) != len(longer):
        return problems + [f"comparison has {len(rows)} rows, expected {len(longer)}"]
    for i, row in enumerate(rows):
        a = a_rows[i][1:] if i < len(a_rows) else ["0", "0"]
        b = b_rows[i][1:] if i < len(b_rows) else ["0", "0"]
        if row[0] != longer[i][0] or row[1:3] != a or row[3:5] != b:
            problems.append(f"comparison row {i} {row[:5]} disagrees with the runs' queues.csv")
            break
    return problems


@dataclass
class Op:
    """One ``qdtp`` process and the verdict on its outputs."""

    proc: Proc
    problems: list = field(default_factory=list)
    out_bytes: int = 0
    packets: int = 0
    hashes: dict = None  # simulate only: sha256 of each artifact
    ref_s: float = 0.0  # the reference round's median time in this process
    cal_s: float = 0.0  # time this process spent in reference rounds

    @property
    def ok(self) -> bool:
        return self.proc.ok and not self.problems

    @property
    def wall_s(self) -> float:
        """The command's own wall time: the process's, less its reference rounds."""
        return self.proc.wall_s - self.cal_s


def timed_op(cli_args: list, report: Path) -> Op:
    """Run one ``qdtp`` command under ``timed_cli.py``; its reference timing
    goes to ``report``, which must lie outside the command's output."""
    op = Op(run_child([sys.executable, str(TIMED_CLI), str(report), "--", *map(str, cli_args)]))
    try:
        timing = json.loads(report.read_text(encoding="utf-8"))
        op.ref_s, op.cal_s = float(timing["ref_s"]), float(timing["cal_s"])
    except (OSError, ValueError, KeyError, TypeError):
        op.problems.append("no reference timing was written")
    else:
        if not op.ref_s > 0:
            op.problems.append(f"reference round time {op.ref_s} is not positive")
    return op


def setup_probe(manifest: Path) -> float:
    """Time from a cold interpreter to ``qdtp`` imported and the
    experiment's manifest and scenario resolved."""
    t0 = time.perf_counter()
    child = spawn([sys.executable, "-c", SETUP_PROBE, str(manifest)],
                  stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    readable, _, _ = select.select([child.stdout], [], [], CHILD_TIMEOUT_S)
    line = child.stdout.readline() if readable else b""
    ready = time.perf_counter() - t0
    if not readable:
        child.kill()
    child.stdout.close()
    proc = wait_child(child, t0, CHILD_TIMEOUT_S)
    if not proc.ok or line.strip() != b"ready":
        raise RuntimeError(f"setup probe failed with status {proc.status}")
    return ready


def setup_probes(manifest: Path, count: int) -> list[float]:
    return [setup_probe(manifest) for _ in range(count)]


def _simulate_op(spec, manifest, out_root, seed, expected, first) -> Op:
    """One ``qdtp simulate``; ``first`` holds the hashes of an earlier good run."""
    op = timed_op(simulate_args(manifest, out_root), out_root.with_suffix(".timing.json"))
    run_dir = seed_dir(out_root, spec, seed)
    if not op.proc.ok:
        op.problems.append(f"qdtp simulate exited with {op.proc.status}")
    if op.problems:
        return op
    op.problems = check_sim_dir(run_dir, spec, seed, expected)
    if op.problems:
        return op
    op.hashes = artifact_hashes(run_dir)
    if first is not None and op.hashes != first:
        op.problems.append("artifacts differ between two runs of the same seed")
    op.out_bytes = tree_bytes(out_root)
    op.packets = json.loads((run_dir / "summary.json").read_text())["packets"]["total"]
    return op


def _analyze_op(gated: Path, ungated: Path, out_dir: Path) -> Op:
    op = timed_op(["analyze", gated, "--compare", ungated, "--out", out_dir],
                  out_dir.with_suffix(".timing.json"))
    if not op.proc.ok:
        op.problems.append(f"qdtp analyze exited with {op.proc.status}")
    if op.problems:
        return op
    op.problems = check_analyze_dir(out_dir, gated, ungated)
    op.out_bytes = tree_bytes(out_dir)
    for run_dir in (gated, ungated):
        with open(run_dir / "packets.csv", "rb") as fh:
            op.packets += sum(1 for _ in fh) - 1
    return op


def _e2e(ops: list[Op], setups: list[float], all_ops: list[Op]) -> dict:
    """Medians over the measured operations; ``ok_frac`` over all of them."""
    good = [op for op in ops if op.ok]
    if not good or not setups:
        return {}
    return {
        "setup_s": median(setups),
        "wall_ref": median([op.wall_s / op.ref_s for op in good]),
        "peak_rss_mb": median([op.proc.rss_mb for op in good]),
        "out_mb": median([op.out_bytes / 1e6 for op in good]),
        "ok_frac": sum(op.ok for op in all_ops) / len(all_ops),
    }


def _raw(ops: list[Op]) -> list[dict]:
    return [{"ok": op.ok, "problems": op.problems, "status": op.proc.status,
             "wall_s": op.wall_s, "cpu_s": op.proc.cpu_s - op.cal_s, "rss_mb": op.proc.rss_mb,
             "ref_s": op.ref_s, "cal_s": op.cal_s,
             "out_bytes": op.out_bytes, "packets": op.packets} for op in ops]


def _traced_op(cli_args: list, work: Path, run_id: str):
    """The same command in ``traced.py``; its process and its spans file.

    The spans are ``None`` when the traced run failed or wrote none.
    """
    spans_json = work / f"spans-{time.perf_counter_ns()}.json"
    proc = run_child([sys.executable, str(BENCH_DIR / "traced.py"), str(spans_json), run_id,
                      "--", *map(str, cli_args)])
    if not proc.ok or not spans_json.is_file():
        return proc, None
    with open(spans_json, encoding="utf-8") as fh:
        return proc, json.load(fh)


def _traced_problems(proc: Proc, traced, out_dir: Path) -> list[str]:
    """A traced run fails its operation when it failed or lacked a target.

    A span target the program no longer has would leave its layer at 0 and
    move its time into the caller's self time, so it is a failure, not a gain.
    """
    if traced is None or not out_dir.is_dir():
        return [f"traced run failed with status {proc.status}"]
    if traced["missing"]:
        return [f"span targets missing from the program: {', '.join(traced['missing'])}"]
    return []


def _layers(traced: dict) -> dict:
    own = self_time_by_name(traced["spans"])
    layer = {metric: sum(own.get(n, 0.0) for n in names) for metric, names in LAYER_SPANS.items()}
    main = [s for s in traced["spans"] if s["name"] == "cli.main"]
    layer["trace.total_s"] = sum((s["end_ns"] - s["start_ns"]) / 1e9 for s in main)
    layer["trace.overhead_s"] = traced["overhead_s"]
    layer["trace.spans"] = len(traced["spans"])
    return layer


def _per_layer(pairs: list[dict]) -> dict:
    return {k: median([p[k] for p in pairs]) for k in pairs[0]} if pairs else {}


def run_sim(workload: str, seed: int, seconds: float, work: Path, trace: bool, spans_out: list):
    spec = SIM_SPECS[workload]
    expected = reference(load_refs(), spec, seed)
    manifest = write_manifest(spec, seed, work)
    ops, pairs, setups, spent = [], [], [], 0.0
    while spent < seconds or not ops:
        if not trace:
            setups += setup_probes(manifest, SETUP_BATCH)
        out_root = work / f"rep{len(ops)}"
        first = next((o.hashes for o in ops if o.ok), None)
        op = _simulate_op(spec, manifest, out_root, seed, expected, first)
        ops.append(op)
        spent += op.proc.wall_s
        if trace and op.ok:
            traced_root = work / f"traced{len(ops)}"
            proc, traced = _traced_op(simulate_args(manifest, traced_root), work,
                                      f"{workload}-seed{seed}")
            spent += proc.wall_s
            traced_dir = seed_dir(traced_root, spec, seed)
            failures = _traced_problems(proc, traced, traced_dir)
            if failures:
                op.problems += failures
            elif artifact_hashes(traced_dir) != op.hashes:
                op.problems.append("traced artifacts differ from the CLI run's")
            elif spec["mitigation"] and "replay_admitted" not in traced["counts"]:
                op.problems.append("the traced run did not replay the MitigationGate")
            else:
                summary = json.loads((traced_dir / "summary.json").read_text())
                layer = _layers(traced)
                packets = traced["counts"].get("packets", 0)
                layer["scenario.packets"] = packets
                layer["simulator.admitted"] = summary["packets"]["completed"]
                layer["artifacts.bytes_written"] = tree_bytes(traced_root)
                if spec["mitigation"]:
                    admitted = traced["counts"]["replay_admitted"]
                    layer["mitigation.admit_frac"] = admitted / packets
                    if admitted != summary["packets"]["completed"]:
                        op.problems.append(
                            f"MitigationGate replay admitted {admitted}, the simulator "
                            f"{summary['packets']['completed']}")
                pairs.append(layer)
                spans_out.extend(traced["spans"])
            shutil.rmtree(traced_root, ignore_errors=True)
        shutil.rmtree(out_root, ignore_errors=True)
    if not trace:
        setups += setup_probes(manifest, SETUP_PROBES - len(setups))
    return ops, _e2e(ops, setups, ops), _per_layer(pairs), _raw(ops)


def prepare_analyze_inputs(seed: int, work: Path):
    """Simulate the gated and the ungated run the analyze workload reads.

    Both run at once, before anything is timed.  Returns the two seed
    directories and the prep operations with their verdicts.
    """
    refs = load_refs()
    specs = (GATED, UNGATED)
    out_root = work / "inputs"
    started = []
    for spec in specs:
        manifest = write_manifest(spec, seed, work)
        t0 = time.perf_counter()
        popen = spawn(qdtp_cli(*simulate_args(manifest, out_root)),
                      stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        started.append((spec, popen, t0))
    ops = []
    for spec, popen, t0 in started:
        op = Op(wait_child(popen, t0, CHILD_TIMEOUT_S))
        if op.proc.ok:
            op.problems = check_sim_dir(seed_dir(out_root, spec, seed), spec, seed,
                                        reference(refs, spec, seed))
        else:
            op.problems.append(f"preparing {spec['name']} exited with {op.proc.status}")
        ops.append(op)
    return seed_dir(out_root, GATED, seed), seed_dir(out_root, UNGATED, seed), ops


def _histogram_layer(out_dir: Path) -> dict:
    path = out_dir / "figure_delay_histogram.csv"
    rows = _read_rows(path) if path.is_file() else []
    return {"metrics.hist_bins": len(rows) - 1,
            "metrics.hist_first_bin_lo_ms": float(rows[1][0]) if len(rows) > 1 else 0.0}


def run_analyze(workload: str, seed: int, seconds: float, work: Path, trace: bool, spans_out: list):
    gated, ungated, prep = prepare_analyze_inputs(seed, work)
    if not all(op.ok for op in prep):
        return prep, {}, {}, _raw(prep)
    manifest = work / f"{GATED['name']}.json"
    ops, pairs, setups, spent = [], [], [], 0.0
    while spent < seconds or not ops:
        if not trace:
            setups += setup_probes(manifest, SETUP_BATCH)
        out_dir = work / f"ana{len(ops)}"
        op = _analyze_op(gated, ungated, out_dir)
        ops.append(op)
        spent += op.proc.wall_s
        if trace and op.ok:
            traced_dir = work / f"traced{len(ops)}"
            proc, traced = _traced_op(
                ["analyze", gated, "--compare", ungated, "--out", traced_dir],
                work, f"{workload}-seed{seed}")
            spent += proc.wall_s
            names = sorted(p.name for p in out_dir.iterdir())
            failures = _traced_problems(proc, traced, traced_dir)
            if failures:
                op.problems += failures
            elif sorted(p.name for p in traced_dir.iterdir()) != names or any(
                    sha256_file(out_dir / n) != sha256_file(traced_dir / n) for n in names):
                op.problems.append("traced outputs differ from the CLI run's")
            else:
                layer = _layers(traced)
                layer.update(_histogram_layer(traced_dir))
                layer["artifacts.bytes_written"] = tree_bytes(traced_dir)
                pairs.append(layer)
                spans_out.extend(traced["spans"])
            shutil.rmtree(traced_dir, ignore_errors=True)
        shutil.rmtree(out_dir, ignore_errors=True)
    if not trace:
        setups += setup_probes(manifest, SETUP_PROBES - len(setups))
    all_ops = prep + ops
    return all_ops, _e2e(ops, setups, all_ops), _per_layer(pairs), _raw(all_ops)
