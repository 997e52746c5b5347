"""Command-line entry point.

Subcommands:

* ``simulate``  — run a bundled or on-disk manifest, or an ad-hoc scenario
* ``forward``   — live UDP pacing gate
* ``stub``      — protected-device stand-in (FCFS, sampled service times)
* ``analyze``   — post-process a run directory into summary + figure CSVs
* ``scenario``  — scenario utilities (``scenario validate REF``)

Exit codes: 0 success, 2 configuration error, 3 invariant/contract
violation, 4 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from array import array
from functools import partial
from itertools import compress, islice, repeat
from operator import sub, truediv
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
from .forked import Forked
from .forwarder import (
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
from .metrics import (
    SORT_RUN,
    _benign_before,
    compare_runs,
    fd_bin_edges,
    histogram_counts,
    run_summary,
)
from .scenario import SERVICE_MODES, ServiceModel
from .simulator import Packets
from .timebase import to_ns

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
        options = {"--seed": args.seed, "--sqf-d": args.sqf_d, "--name": args.name,
                   "--mitigation": args.mitigation, "--interval": args.interval}
        clashes = [option for option, value in options.items() if value is not None]
        if clashes:
            raise ConfigurationError(f"--manifest cannot be combined with {', '.join(clashes)}")
        manifest = load_manifest(args.manifest)
        if args.out:
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
            sampling_interval_ms=100.0 if args.interval is None else args.interval,
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

def _int(value, what: str) -> int:
    if type(value) is not int:
        raise ContractViolation(f"{what} must be an integer, got {value!r}")
    return value


def _ns(unit: str, minimum_ns: int = 1):
    return lambda value, what: to_ns(value, unit, what, ContractViolation, minimum_ns)


def _pair(read):
    def pair(value, what: str) -> tuple:
        if not (isinstance(value, list) and len(value) == 2):
            raise ContractViolation(f"{what} must be a pair, got {value!r}")
        return tuple(read(x, what) for x in value)
    return pair


def _stored_field(path: Path, stored: dict, name: str, read):
    """Field ``name`` ("section.key") of the summary read from ``path``, or None.

    ``read(value, what)`` converts a value that is not None.  A section
    that is not an object, or a value ``read`` refuses, raises
    ContractViolation naming the file and the field.
    """
    section, key = name.split(".")
    part = stored.get(section) or {}
    if not isinstance(part, dict):
        raise ContractViolation(f"{path}: {section} is not an object")
    value = part.get(key)
    return None if value is None else read(value, f"{path}: {name}")


def _load_run(run_dir: Path, fallback_interval_ns: int):
    packets = read_packets_csv(run_dir / "packets.csv")
    interval_ns = fallback_interval_ns
    d_ns = mitigation = attack_window_ns = seed = None
    summary_path = run_dir / "summary.json"
    if summary_path.is_file():
        field = partial(_stored_field, summary_path, read_summary_json(summary_path))
        interval_ns = field("config.sampling_interval_s", _ns("s")) or interval_ns
        d_ns = field("config.d_ms", _ns("ms"))
        mitigation = field("config.mitigation", _pair(_int))
        seed = field("config.seed", _int)
        attack_window_ns = field("attack.window_s", _pair(_ns("s", 0)))
    return trace_from_records(
        packets,
        interval_ns,
        d_ns=d_ns,
        mitigation=mitigation,
        attack_window_ns=attack_window_ns,
        seed=seed,
    )


def _load_sampled(run_dir: Path, fallback_interval_ns: int):
    """``_load_run`` without the packet log, as ``compare_runs`` reads it.

    The compare run loads in a forked child, which pipes this slim trace
    back; each process then holds one run's columns at a time.
    """
    trace = _load_run(run_dir, fallback_interval_ns)
    return dataclasses.replace(trace, packets=Packets(), admitted=Packets())


def _sojourns_ms(end, t, rows=None) -> array:
    """``(end - t) / 1e6`` per packet in one array('d'); ``rows`` selects packets.

    Each split computes only its own packets' sojourns, filled a list of
    SORT_RUN values at a time: ``array.fromlist`` takes a list faster than
    the array constructor takes an iterator.
    """
    if rows is not None:
        end, t = compress(end, rows), compress(t, rows)
    values, out = map(truediv, map(sub, end, t), repeat(1e6)), array("d")
    while block := list(islice(values, SORT_RUN)):
        out.fromlist(block)
    return out


def _write_delay_histogram(trace, path) -> None:
    """The admitted packets' device sojourns in ms, split as ``run_summary`` splits them.

    ``baseline``: benign and arrived before the attack; ``under_attack``: attack-labelled.
    """
    kept = trace.admitted
    a, t, end, attack = kept.a_ns, kept.t_ns, kept.end_ns, kept.is_attack
    if not t:
        return
    window = trace.attack_window_ns
    if window is not None:
        baseline = _sojourns_ms(end, t, _benign_before(attack, a, window[0]))
        attacked = _sojourns_ms(end, t, attack)
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
    sojourns_ms = _sojourns_ms(end, t)
    edges = fd_bin_edges(sojourns_ms)
    write_histogram_csv(
        edges, {"all": histogram_counts(sojourns_ms, edges)}, path
    )


def cmd_analyze(args) -> int:
    interval_ns = to_ns(args.interval, "ms", "sampling interval")
    if not args.compare:
        return _analyze(args, interval_ns, None)
    # the two loads are independent: the compare run loads in a child meanwhile
    compare_dir = Path(args.compare)
    with Forked(f"loading {compare_dir}", _load_sampled, compare_dir, interval_ns) as other:
        return _analyze(args, interval_ns, other)


def _analyze(args, interval_ns: int, other: Forked | None) -> int:
    run_dir = Path(args.run_dir)
    trace = _load_run(run_dir, interval_ns)
    summary = run_summary(trace)
    out_dir = Path(args.out) if args.out else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary_json(summary, out_dir / "summary.json")
    write_queues_csv(trace, out_dir / "figure_queues.csv")
    _write_delay_histogram(trace, out_dir / "figure_delay_histogram.csv")

    if other is not None:
        comparison = compare_runs(trace, other.result())
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
    scenario = resolve_scenario(args.file)
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
    sim.add_argument("--interval", type=float, metavar="MS",
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
    fwd.add_argument("--stats-interval", type=float,
                     default=ForwarderConfig.stats_interval)
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

    scen = sub.add_parser("scenario", help="scenario utilities")
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)
    val = scen_sub.add_parser("validate", help="parse and sanity-check a scenario")
    val.add_argument("file", metavar="REF", help="bundled scenario name or JSON path")
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
