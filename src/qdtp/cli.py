"""Command-line entry point.

Subcommands:

* ``simulate``  — run a bundled or on-disk manifest, or an ad-hoc scenario
* ``forward``   — live UDP pacing gate
* ``stub``      — protected-device stand-in (FCFS, sampled service times)
* ``analyze``   — post-process a run directory into summary + figure CSVs
* ``scenario``  — scenario file utilities (``scenario validate FILE``)

Exit codes: 0 success, 2 configuration error, 3 invariant/contract
violation, 4 I/O error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .artifacts import (
    read_packets_csv,
    read_summary_json,
    trace_from_records,
    write_comparison_csv,
    write_histogram_csv,
    write_queues_csv,
    write_summary_json,
)
from .errors import ConfigurationError, ContractViolation, InvariantViolation
from .forwarder import (
    DEFAULT_TOLERANCE_US,
    ForwarderConfig,
    parse_addr,
    run_forwarder,
    run_server_stub,
)
from .manifests import (
    ExperimentManifest,
    bundled_manifest_names,
    bundled_scenario_names,
    load_manifest,
    resolve_scenario,
    run_manifest,
)
from .metrics import compare_runs, fd_bin_edges, histogram_counts, run_summary
from .scenario import SERVICE_MODES, Scenario, ServiceModel
from .timebase import s_to_ns

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def _parse_mitigation(text):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError("mitigation must be N,K (e.g. 10,3)")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ConfigurationError(f"bad mitigation {text!r}") from exc


# -- simulate ---------------------------------------------------------------

def cmd_simulate(args) -> int:
    if args.manifest and args.scenario:
        raise ConfigurationError("give either --manifest or --scenario, not both")
    if args.manifest:
        manifest = load_manifest(args.manifest)
        if args.out:
            import dataclasses

            # --out is a root: the run keeps its name underneath it
            manifest = dataclasses.replace(
                manifest, out=str(Path(args.out) / manifest.name)
            )
    elif args.scenario:
        seed = args.seed
        if seed is None:
            seed = resolve_scenario(args.scenario).seed
        name = args.name or Path(args.scenario).stem
        manifest = ExperimentManifest(
            name=name,
            scenario=args.scenario,
            seeds=(seed,),
            out=str(Path(args.out) / name) if args.out else f"runs/{name}",
            sqf_d_ms=args.sqf_d,
            mitigation=_parse_mitigation(args.mitigation),
            sampling_interval_ms=args.interval,
        )
    else:
        raise ConfigurationError(
            "need --manifest or --scenario; bundled manifests: "
            + ", ".join(bundled_manifest_names())
        )
    seed_dirs = run_manifest(manifest, base_dir=".")
    for d in seed_dirs:
        print(d)
    return EXIT_OK


# -- forward / stub ---------------------------------------------------------

def cmd_forward(args) -> int:
    cfg = ForwarderConfig(
        listen=parse_addr(args.listen),
        upstream=parse_addr(args.upstream),
        d_us=args.d_us,
        mitigation=_parse_mitigation(args.mitigation),
        queue_capacity=args.capacity,
        control=parse_addr(args.control) if args.control else None,
        stats_interval=args.stats_interval,
        tolerance_us=args.tolerance_us,
    )
    run_forwarder(cfg)
    return EXIT_OK


def cmd_stub(args) -> int:
    model = ServiceModel(
        mode=args.mode,
        mean=args.mean_ms / 1e3,
        variance=args.variance_ms2 / 1e6,  # ms^2 -> s^2
        outlier_probability=args.outlier_probability,
        outlier_scale=args.outlier_scale,
    )
    run_server_stub(
        parse_addr(args.listen), model, seed=args.seed, out=args.out
    )
    return EXIT_OK


# -- analyze ----------------------------------------------------------------

def _load_run(run_dir: Path, fallback_interval_ms: float):
    records = read_packets_csv(run_dir / "packets.csv")
    interval_s = fallback_interval_ms / 1000.0
    d_ns = mitigation = attack_window_ns = seed = None
    summary_path = run_dir / "summary.json"
    if summary_path.is_file():
        stored = read_summary_json(summary_path)
        cfg = stored.get("config", {})
        if cfg.get("sampling_interval_s"):
            interval_s = cfg["sampling_interval_s"]
        if cfg.get("d_ms") is not None:
            d_ns = round(cfg["d_ms"] * 1e6)
        if cfg.get("mitigation"):
            mitigation = tuple(cfg["mitigation"])
        if cfg.get("seed") is not None:
            seed = cfg["seed"]
        attack = stored.get("attack")
        if attack and attack.get("window_s"):
            lo, hi = attack["window_s"]
            attack_window_ns = (s_to_ns(lo), s_to_ns(hi))
    return trace_from_records(
        records,
        interval_s,
        d_ns=d_ns,
        mitigation=mitigation,
        attack_window_ns=attack_window_ns,
        seed=seed,
    )


def _write_delay_histogram(trace, path) -> None:
    completed = [r for r in trace.per_packet if not r.dropped]
    if not completed:
        return
    sojourns_ms = [r.sojourn_ns / 1e6 for r in completed]
    window = trace.attack_window_ns
    if window is not None:
        baseline = [
            r.sojourn_ns / 1e6 for r in completed if r.t_ns < window[0]
        ]
        attacked = [
            r.sojourn_ns / 1e6
            for r in completed
            if window[0] <= r.t_ns < window[1]
        ]
        if baseline and attacked:
            edges = fd_bin_edges(baseline, cover=attacked)
            write_histogram_csv(
                edges,
                {
                    "baseline": histogram_counts(baseline, edges),
                    "under_attack": histogram_counts(attacked, edges),
                },
                path,
            )
            return
    edges = fd_bin_edges(sojourns_ms)
    write_histogram_csv(
        edges, {"all": histogram_counts(sojourns_ms, edges)}, path
    )


def cmd_analyze(args) -> int:
    run_dir = Path(args.run_dir)
    trace = _load_run(run_dir, args.interval)
    summary = run_summary(trace)

    for queue in ("sqf", "server"):
        check = summary["queues"][queue]["littles_law_ok"]
        if not check:
            raise InvariantViolation(
                f"Little's-law identity violated for the {queue} queue "
                f"in {run_dir}"
            )

    out_dir = Path(args.out) if args.out else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary_json(summary, out_dir / "summary.json")
    write_queues_csv(trace, out_dir / "figure_queues.csv")
    _write_delay_histogram(trace, out_dir / "figure_delay_histogram.csv")

    if args.compare:
        other = _load_run(Path(args.compare), args.interval)
        comparison = compare_runs(trace, other)
        write_comparison_csv(comparison, out_dir / "figure_comparison.csv")
        print(
            f"server queue peaks: {comparison.peak_server_a} vs "
            f"{comparison.peak_server_b}"
        )

    pk = summary["packets"]
    line = (
        f"{pk['completed']}/{pk['total']} packets completed"
        f" | server peak {summary['queues']['server']['peak']}"
        f" | sqf peak {summary['queues']['sqf']['peak']}"
    )
    advisor = summary.get("spacing_advisor")
    if advisor:
        line += f" | suggested D {advisor['suggested_d_ms']} ms"
    print(line)
    print(f"wrote {out_dir / 'summary.json'}")
    return EXIT_OK


# -- scenario ---------------------------------------------------------------

def cmd_scenario_validate(args) -> int:
    scenario = Scenario.from_json_file(args.file)
    n_sources = len(scenario.normal_sources)
    attack = "none"
    if scenario.attack is not None:
        attack = (
            f"{scenario.attack.kind} {scenario.attack.rate:g}/s over "
            f"[{scenario.attack.start:g}, {scenario.attack.end:g}] s"
        )
    print(
        f"{args.file}: OK — {n_sources} benign source(s), attack: {attack}, "
        f"horizon {scenario.horizon:g} s, seed {scenario.seed}"
    )
    return EXIT_OK


# -- wiring -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdtp",
        description="Quasi-deterministic transmission policy toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a manifest or an ad-hoc scenario")
    sim.add_argument("--manifest", metavar="REF",
                     help="bundled manifest name or JSON path")
    sim.add_argument("--scenario", metavar="REF",
                     help="bundled scenario name or JSON path "
                          f"(bundled: {', '.join(bundled_scenario_names())})")
    sim.add_argument("--sqf-d", type=float, metavar="MS",
                     help="gate spacing D in milliseconds (omit: no gate)")
    sim.add_argument("--mitigation", metavar="N,K",
                     help="drop-based mitigation thresholds")
    sim.add_argument("--seed", type=int, help="override the scenario seed")
    sim.add_argument("--name", help="run name (default: scenario name)")
    sim.add_argument(
        "--out", help="root directory; the run is written to OUT/<name>/seedNNNN"
    )
    sim.add_argument("--interval", type=float, default=100.0, metavar="MS",
                     help="queue sampling interval (default 100 ms)")
    sim.set_defaults(func=cmd_simulate)

    fwd = sub.add_parser("forward", help="run the live UDP pacing gate")
    fwd.add_argument("--listen", required=True, metavar="HOST:PORT")
    fwd.add_argument("--upstream", required=True, metavar="HOST:PORT")
    fwd.add_argument("--d-us", type=int, required=True,
                     help="spacing D in microseconds")
    fwd.add_argument("--mitigation", metavar="N,K")
    fwd.add_argument("--capacity", type=int,
                     help="drop arrivals beyond this queue length")
    fwd.add_argument("--control", metavar="HOST:PORT",
                     help="UDP control channel (DROP <seconds>)")
    fwd.add_argument("--stats-interval", type=float, default=5.0)
    fwd.add_argument("--tolerance-us", type=int, default=DEFAULT_TOLERANCE_US)
    fwd.set_defaults(func=cmd_forward)

    stub = sub.add_parser("stub", help="run the protected-device stand-in")
    stub.add_argument("--listen", required=True, metavar="HOST:PORT")
    stub.add_argument("--mode", choices=SERVICE_MODES, default="gaussian")
    stub.add_argument("--mean-ms", type=float, default=2.98)
    stub.add_argument("--variance-ms2", type=float, default=0.0055)
    stub.add_argument("--outlier-probability", type=float, default=0.0)
    stub.add_argument("--outlier-scale", type=float, default=1000.0)
    stub.add_argument("--seed", type=int, default=0)
    stub.add_argument(
        "--out", help="run directory; packets.csv is written there on shutdown"
    )
    stub.set_defaults(func=cmd_stub)

    ana = sub.add_parser("analyze", help="post-process a run directory")
    ana.add_argument("run_dir", help="directory holding packets.csv")
    ana.add_argument("--compare", metavar="DIR",
                     help="second run to align on the same grid")
    ana.add_argument("--interval", type=float, default=100.0, metavar="MS",
                     help="sampling interval when no summary.json is present")
    ana.add_argument("--out", help="write outputs here (default: run dir)")
    ana.set_defaults(func=cmd_analyze)

    scen = sub.add_parser("scenario", help="scenario file utilities")
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)
    val = scen_sub.add_parser("validate", help="parse and sanity-check a file")
    val.add_argument("file")
    val.set_defaults(func=cmd_scenario_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContractViolation, InvariantViolation) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
