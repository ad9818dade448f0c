"""One timed set-up in a fresh process.

Reads network text on stdin, then times `parse_network`, `NetworkState.from_spec`
and (for whole_network) the root session, and prints one JSON line with the
three durations and the growth of resident memory across them (read from
the process's own /proc/self/statm). A fresh process per set-up keeps memory
freed by earlier work out of the figure.

    python3 perfbench/setup_probe.py whole_network < net.txt
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netvec import ROOT, dataset, verify  # noqa: E402


def rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def main() -> None:
    workload = sys.argv[1]
    text = sys.stdin.read()
    before = rss_mb()
    t0 = time.perf_counter()
    spec = dataset.parse_network(text)
    t1 = time.perf_counter()
    state = verify.NetworkState.from_spec(spec)
    t2 = time.perf_counter()
    session = None
    if workload == "whole_network":
        session = state.session(affected=state.affected_for(ROOT))
    t3 = time.perf_counter()
    grown = rss_mb() - before
    out = {"parse_s": t1 - t0, "from_spec_s": t2 - t1, "setup_s": t3 - t0, "rss_mb": grown}
    if session is not None:
        out["root_session_s"] = t3 - t2
    print(json.dumps(out))


if __name__ == "__main__":
    main()
