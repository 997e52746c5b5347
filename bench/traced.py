"""Traced run of one CLI command, in its own process.

    python3 bench/traced.py SPANS_JSON RUN_ID -- CLI_ARGS...

Installs span wrappers on the ``qdtp`` modules' public functions, runs
``qdtp.cli.main(CLI_ARGS)`` exactly as the ``qdtp`` command would, then,
when the simulated run was mitigated, replays ``MitigationGate.step`` over
the generated arrival times as a separate probe span.  Spans, counts, the
targets this version lacks, the tracing overhead and the CLI exit status go
to SPANS_JSON; the process exits with the CLI's status.
"""
from __future__ import annotations

import json
import sys
import time

from spans import Tracer

# calls of a wrapped no-op per calibration round; the best of the rounds is kept
CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 5


def wrapper_cost_s() -> float:
    """Seconds one span wrapper adds to a call, timed on a no-op."""
    def noop():
        return None

    wrapped = Tracer("calibration").wrap(noop, "noop")
    best = []
    for fn in (noop, wrapped):
        rounds = []
        for _ in range(CALIBRATION_ROUNDS):
            t0 = time.perf_counter_ns()
            for _ in range(CALIBRATION_CALLS):
                fn()
            rounds.append(time.perf_counter_ns() - t0)
        best.append(min(rounds))
    return max(best[1] - best[0], 0) / CALIBRATION_CALLS / 1e9


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--")
    spans_json, run_id = argv[:split]
    cli_args = argv[split + 1:]

    import qdtp.cli
    from qdtp.mitigation import MitigationGate, MitigationPolicy

    tracer = Tracer(run_id)
    missing = tracer.install(keep=("scenario.generate_arrivals", "simulator.simulate"))
    with tracer.span("cli.main"):
        status = qdtp.cli.main(cli_args)

    counts = {}
    labeled = tracer.kept.pop("scenario.generate_arrivals", None)
    trace = tracer.kept.pop("simulator.simulate", None)
    if labeled is not None:
        counts["packets"] = len(labeled)
    if labeled is not None and trace is not None and trace.mitigation is not None:
        times = labeled.arrivals.times_ns
        with tracer.span("mitigation.step_replay", probe=True):
            gate = MitigationGate(MitigationPolicy.coerce(trace.mitigation), trace.d_ns)
            admitted = sum(1 for t in times if gate.step(t))
        counts["replay_admitted"] = admitted

    overhead_s = wrapper_cost_s() * sum(1 for s in tracer.spans if not s["probe"])
    with open(spans_json, "w", encoding="utf-8") as fh:
        json.dump({"status": status, "missing": missing, "counts": counts,
                   "overhead_s": overhead_s, "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
