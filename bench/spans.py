"""In-memory spans recorded from outside the program.

The tracer replaces public functions of the ``qdtp`` modules with wrappers
that record one span per call: name, start, end, the enclosing span and the
run id.  Nothing inside ``src/`` changes; a name a later version no longer
has is skipped and listed, so the traced run keeps working.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (module, function) pairs wrapped in the traced run.  Each is called a
# bounded number of times per run; per-packet functions such as
# MitigationGate.step are timed by a separate replay instead, because a
# wrapper on every packet would distort what it measures.
TARGETS = (
    ("qdtp.manifests", "load_manifest"),
    ("qdtp.manifests", "resolve_scenario"),
    ("qdtp.manifests", "run_manifest"),
    ("qdtp.scenario", "generate_arrivals"),
    ("qdtp.simulator", "simulate"),
    ("qdtp.simulator", "verify_trace"),
    ("qdtp.recursions", "qdtp_schedule"),
    ("qdtp.recursions", "qdtp_delays_ns"),
    ("qdtp.recursions", "server_waits"),
    ("qdtp.recursions", "lindley_waits"),
    ("qdtp.metrics", "run_summary"),
    ("qdtp.metrics", "littles_law_check"),
    ("qdtp.metrics", "fd_bin_edges"),
    ("qdtp.metrics", "histogram_counts"),
    ("qdtp.metrics", "compare_runs"),
    ("qdtp.artifacts", "write_run_dir"),
    ("qdtp.artifacts", "write_packets_csv"),
    ("qdtp.artifacts", "write_queues_csv"),
    ("qdtp.artifacts", "write_summary_json"),
    ("qdtp.artifacts", "write_histogram_csv"),
    ("qdtp.artifacts", "write_comparison_csv"),
    ("qdtp.artifacts", "read_packets_csv"),
    ("qdtp.artifacts", "read_summary_json"),
    ("qdtp.artifacts", "trace_from_records"),
)


class Tracer:
    """Collects spans of one run in memory; written out when the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.kept: dict = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        """Time a block.  ``probe`` marks work the CLI itself never does."""
        index = len(self.spans)
        rec = {
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "probe": probe,
        }
        self.spans.append(rec)
        self._open.append(index)
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, fn, name: str, keep: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep:
                self.kept[name] = result
            return result

        return traced

    def install(self, targets=TARGETS, keep=()) -> list[str]:
        """Wrap every target wherever a ``qdtp`` module has bound it.

        Modules import each other's functions by name, so the original is
        replaced in every loaded ``qdtp`` module that refers to it.  Returns
        the targets that do not exist in this version of the program.
        """
        missing = []
        for mod_name, attr in targets:
            module = sys.modules.get(mod_name)
            orig = getattr(module, attr, None) if module is not None else None
            if orig is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            name = f"{mod_name.split('.')[-1]}.{attr}"
            wrapper = self.wrap(orig, name, keep=name in keep)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != "qdtp" and not loaded_name.startswith("qdtp."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is orig:
                        setattr(loaded, key, wrapper)
        return missing


def self_times(spans: list[dict]) -> list[int]:
    """Each span's duration minus the part of it its children cover (ns).

    Children are clipped to the parent's interval and their union is taken,
    so overlapping or out-of-range children are never subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered)
    return out


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Total self time in seconds per span name."""
    totals: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + own / 1e9
    return totals
