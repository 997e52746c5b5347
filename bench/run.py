"""qdtp benchmark: one command, four workloads, every metric by name and unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

* ``sim_gated_flood``     ``qdtp simulate`` ≡ manifest fig7_with_sqf at seed N
* ``sim_mitigated_flood`` ``qdtp simulate`` ≡ manifest fig13_mitigation_60s at seed N
* ``analyze_compare``     ``qdtp analyze <fig7 run> --compare <fig3_no_sqf run>``
* ``live_flood_100us``    open-loop 12 kpps flood through a forwarder child, D = 100 µs

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` reports the per-layer metrics: spans around the ``qdtp``
modules' public functions in a separate traced process (offline), or the
forwarder child's departure log, stats and rusage (live).

The last line of stdout is the result object; the run's raw numbers,
provenance and spans are written beside it under ``.bench_runs/results``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

import live
import offline
from common import WORK, BenchError, import_program, provenance, require_program, stop_children

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
    "out_mb": "MB",
    "ok_frac": "frac",
    "fwd_cpu_cores": "cores",
    "fwd_delivered_frac": "frac",
    "fwd_rate_ratio": "ratio",
    "fwd_spacing_ok_frac": "frac",
}
# ``wall_ref`` describes a ``qdtp`` command and the fwd_* metrics the live
# gate.  Where a workload has no such thing (no command runs on the live
# workload; no datagram is offered on the offline ones) the metric reads as
# this neutral value, which no change to the program can move.
NEUTRAL = {"wall_ref": 1.0, "fwd_cpu_cores": 1.0, "fwd_delivered_frac": 1.0,
           "fwd_rate_ratio": 1.0, "fwd_spacing_ok_frac": 1.0}

PER_LAYER = {
    "manifests.load_s": "s",
    "scenario.generate_s": "s",
    "scenario.packets": "count",
    "simulator.engine_s": "s",
    "simulator.verify_s": "s",
    "simulator.admitted": "count",
    "recursions.schedule_s": "s",
    "recursions.waits_s": "s",
    "mitigation.step_s": "s",
    "mitigation.admit_frac": "frac",
    "metrics.run_summary_s": "s",
    "metrics.littles_law_s": "s",
    "metrics.histogram_s": "s",
    "metrics.hist_bins": "count",
    "metrics.hist_first_bin_lo_ms": "ms",
    "metrics.compare_s": "s",
    "artifacts.write_packets_s": "s",
    "artifacts.write_queues_s": "s",
    "artifacts.write_summary_s": "s",
    "artifacts.write_figures_s": "s",
    "artifacts.read_packets_s": "s",
    "artifacts.trace_from_records_s": "s",
    "artifacts.bytes_written": "B",
    "cli.glue_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "forwarder.late_p50_us": "us",
    "forwarder.late_p99_us": "us",
    "forwarder.late_max_us": "us",
    "forwarder.min_gap_us": "us",
    "forwarder.log_gap_viol_frac": "frac",
    "forwarder.pacing_violations": "count",
    "forwarder.queue_peak": "count",
    "forwarder.kernel_drops": "count",
    "forwarder.cpu_s": "s",
    "gen.late_p99_us": "us",
    "gen.send_errors": "count",
}

WORKLOADS = ("sim_gated_flood", "sim_mitigated_flood", "analyze_compare", "live_flood_100us")


def run_workload(workload: str, seed: int, seconds: float, work, trace: bool, spans: list):
    """Returns (operations, end-to-end metrics, per-layer metrics, raw records)."""
    if workload == "live_flood_100us":
        return live.run(seed, seconds, work, trace)
    if workload == "analyze_compare":
        return offline.run_analyze(workload, seed, seconds, work, trace, spans)
    return offline.run_sim(workload, seed, seconds, work, trace, spans)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_program()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import_program()
    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)

    prov = provenance()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{stem}-{os.getpid()}"
    results_dir = WORK / "results"
    work.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    spans: list = []
    t0 = time.perf_counter()
    try:
        ops, e2e, layer, raw = run_workload(
            args.workload, args.seed, args.seconds, work, bool(args.trace), spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops)
    failed = sum(1 for op in ops if not op.ok)
    measured, units, default = (layer, PER_LAYER, {}) if args.trace else (e2e, END_TO_END, NEUTRAL)
    metrics = {name: {"value": measured.get(name, default.get(name, 0)), "unit": unit}
               for name, unit in units.items()}
    correct = failed == 0 and bool(measured)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "elapsed_s": time.perf_counter() - t0,
        "provenance": prov, "operations": raw, "result": result,
    }
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(results_dir / f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    for i, op in enumerate(raw):
        if op["problems"]:
            print(f"operation {i} failed: {'; '.join(op['problems'])}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
