"""Record the reference artifact hashes the offline workloads check against.

    python3 bench/record_refs.py

Runs ``qdtp simulate`` for each experiment the benchmark uses, at each
seed in REF_SEEDS, and writes the sha256 of packets.csv, queues.csv and
summary.json to bench/refs.json.  Re-record only for a deliberate, documented change of the
artifact schema: the references are what makes a changed output count as a
failed operation.
"""
from __future__ import annotations

import json
import shutil
import sys

from common import WORK, qdtp_cli, require_program, run_child
from offline import (
    GATED, MITIGATED, REFS_PATH, UNGATED, artifact_hashes, check_sim_dir, seed_dir,
    simulate_args, write_manifest,
)

REF_SEEDS = range(16)


def main() -> int:
    require_program()

    refs = {}
    work = WORK / "record_refs"
    for spec in (GATED, MITIGATED, UNGATED):
        refs[spec["name"]] = {}
        for seed in REF_SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            manifest = write_manifest(spec, seed, work)
            proc = run_child(qdtp_cli(*simulate_args(manifest, work / "out")))
            run_dir = seed_dir(work / "out", spec, seed)
            problems = check_sim_dir(run_dir, spec, seed) if proc.ok else [f"exit {proc.status}"]
            if problems:
                print(f"{spec['name']} seed {seed}: {problems}", file=sys.stderr)
                return 1
            refs[spec["name"]][str(seed)] = artifact_hashes(run_dir)
            print(f"{spec['name']} seed {seed}: {proc.wall_s:.1f} s", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
