"""One ``qdtp`` command with the host's CPU speed timed around it, in its own process.

    python3 bench/timed_cli.py REPORT_JSON -- CLI_ARGS...

Times rounds of a fixed pure-Python reference loop before the command,
from a sampler thread while it runs, and after it.  The command itself runs
exactly as ``python -m qdtp.cli CLI_ARGS`` would.  The median round time and
the total time spent in rounds go to REPORT_JSON; the process exits with
the command's status.

The rounds run in the command's own process because the host's CPU speed
drifts by tens of percent within seconds, and the drift on one vCPU does
not follow the other's: a loop timed in another process may run on the
other vCPU and tell nothing about this one.  Dividing the command's time by
the median round cancels much of the drift.
"""
from __future__ import annotations

import json
import runpy
import sys
import threading
import time
from statistics import median

# one round is ~2 ms on a 2-vCPU Xeon guest.  REF_ROUNDS run before and
# after the command, and one every SAMPLE_EVERY_S while it runs; the median
# of all of them is the command's reference time
REF_ITERATIONS = 20_000
REF_ROUNDS = 5
SAMPLE_EVERY_S = 0.25


def ref_round() -> float:
    """Seconds for one round of integer arithmetic that touches no heap."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def sample_rounds(stop: threading.Event, rounds: list) -> None:
    while not stop.wait(SAMPLE_EVERY_S):
        rounds.append(ref_round())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--")
    (report_json,) = argv[:split]

    rounds = [ref_round() for _ in range(REF_ROUNDS)]
    stop = threading.Event()
    sampler = threading.Thread(target=sample_rounds, args=(stop, rounds), daemon=True)
    sampler.start()
    sys.argv = ["qdtp", *argv[split + 1:]]
    try:
        runpy.run_module("qdtp.cli", run_name="__main__", alter_sys=True)
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    stop.set()
    sampler.join()
    rounds += [ref_round() for _ in range(REF_ROUNDS)]

    with open(report_json, "w", encoding="utf-8") as fh:
        json.dump({"ref_s": median(rounds), "cal_s": sum(rounds), "rounds": len(rounds)}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
