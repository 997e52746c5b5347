"""The live gate under test, in a process of its own.

    python3 bench/fwd_child.py --upstream 127.0.0.1:PORT --d-us 100 --out OUT_JSON

Starts a ``UdpForwarder`` on an ephemeral loopback port, prints
``{"port": N}`` once it is bound, and forwards until a line (or EOF)
arrives on stdin.  It then snapshots the stats, stops the forwarder and
writes stats, the departure log and its own CPU time to OUT_JSON.

It runs apart from the flood generator on purpose: in one process the
generator starves the gate of the interpreter lock.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys

from qdtp.forwarder import ForwarderConfig, UdpForwarder, parse_addr


def peak_rss_mb() -> float:
    """This process's own RSS high-water mark since exec (VmHWM).

    ``wait4``'s ``ru_maxrss`` cannot be used for this child: on Linux, exec
    records the high-water mark of the mm it replaces, which is the parent's
    at spawn time, and the flood generator is larger than the forwarder.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--upstream", required=True)
    parser.add_argument("--d-us", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    cfg = ForwarderConfig(
        listen=("127.0.0.1", 0),
        upstream=parse_addr(args.upstream),
        d_us=args.d_us,
        record_log=True,
    )
    fwd = UdpForwarder(cfg)
    fwd.start()
    try:
        print(json.dumps({"port": fwd.listen_port}), flush=True)
        sys.stdin.readline()
        stats = fwd.snapshot_stats()
    finally:
        fwd.stop()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({
            "stats": stats.to_dict(),
            "conserved": stats.conserved,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": peak_rss_mb(),
            "log": fwd.departure_log,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
