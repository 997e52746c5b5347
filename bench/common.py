"""Shared plumbing: locating the program, running one child per operation,
hashing outputs and provenance."""
from __future__ import annotations

import hashlib
import os
import platform
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"

# every child gets this long (the largest operation takes ~15 s); a whole run
# must end within 180 s, even when an operation hangs
CHILD_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark cannot run here: the program's sources are missing."""


def require_program() -> None:
    """Refuse to run unless the program's sources sit beside the benchmark.

    Checked before anything starts, so a directory without ``src/qdtp``
    exits non-zero instead of silently importing some other installed copy.
    """
    if not (SRC / "qdtp" / "__init__.py").is_file():
        raise BenchError(f"program sources not found at {SRC / 'qdtp'}")


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# children spawned and not yet reaped; SIGTERM kills and reaps them
_UNREAPED: set = set()


def spawn(argv: list, **kwargs) -> subprocess.Popen:
    """Start a child with the program on its path, tracked until reaped."""
    popen = subprocess.Popen(argv, env=child_env(), **kwargs)
    _UNREAPED.add(popen)
    return popen


def stop_children(signum, _frame) -> None:
    """Signal handler: kill and reap every child still running, then exit."""
    for popen in list(_UNREAPED):
        popen.kill()
        popen.wait()
    _UNREAPED.clear()
    sys.exit(128 + signum)


def import_program() -> None:
    """Make ``import qdtp`` in this process resolve to ``src/qdtp``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Proc:
    """One finished child: its own wall time and ``wait4`` resource usage."""

    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.status == 0 and not self.timed_out


def wait_child(popen: subprocess.Popen, t0: float, timeout: float) -> Proc:
    """Reap one child with ``os.wait4`` so its rusage is its own.

    ``RUSAGE_CHILDREN`` would report the maximum RSS over every child this
    process ever reaped; ``wait4`` returns the usage of exactly this one.
    """
    pidfd = os.pidfd_open(popen.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
    finally:
        os.close(pidfd)
    timed_out = not ready
    if timed_out:
        popen.kill()
    _, status, ru = os.wait4(popen.pid, 0)
    _UNREAPED.discard(popen)
    wall = time.perf_counter() - t0
    popen.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        status=popen.returncode,
        wall_s=wall,
        cpu_s=ru.ru_utime + ru.ru_stime,
        rss_mb=ru.ru_maxrss / 1024.0,  # Linux reports KiB
        timed_out=timed_out,
    )


def run_child(argv: list) -> Proc:
    """Run one child to completion, output discarded, timed from spawn."""
    t0 = time.perf_counter()
    popen = spawn(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return wait_child(popen, t0, CHILD_TIMEOUT_S)


def qdtp_cli(*args) -> list:
    return [sys.executable, "-m", "qdtp.cli", *map(str, args)]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def src_digest() -> str:
    """sha256 over the program's source tree; the checkout has no git."""
    h = hashlib.sha256()
    for p in sorted((SRC / "qdtp").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _sched_fifo_granted() -> bool:
    """Probe SCHED_FIFO in a throwaway thread; the policy dies with it."""
    granted = []

    def probe():
        try:
            os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
            granted.append(True)
        except (AttributeError, OSError):
            granted.append(False)

    t = threading.Thread(target=probe)
    t.start()
    t.join()
    return granted[0]


def provenance() -> dict:
    fifo = _sched_fifo_granted()
    return {
        "git_sha": _git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loopback_only": True,
        "sched_fifo_granted": fifo,
        "loadavg_at_start": list(os.getloadavg()),
        "limits": (
            "No CPU pinning, scheduler-policy or cgroup change is made by the "
            "benchmark, so every timing includes whatever else the host runs "
            "(see loadavg_at_start). The forwarder requests SCHED_FIFO for its "
            "own threads; "
            + ("the host grants it, so its pacer spins at realtime priority."
               if fifo else
               "the host refuses it, so live lateness includes timeshare "
               "wake-up delays.")
        ),
    }
