#!/usr/bin/env python3
"""Set-up time and memory of two netvec source trees, in alternating fresh processes.

    python3 scripts/ab_setup.py OLD/src NEW/src --workload update_stream --seed 2802 --pairs 10

Builds the input of one benchmark workload (`perfbench/inputs.py`, with
the `netvec` of this checkout) and hands its network text to the
benchmark's own set-up probe, `perfbench/setup_probe.py`, run against one
tree's `netvec` at a time: `parse_network`, then `NetworkState.from_spec`,
then on `whole_network` the root session, each in a fresh process. A sample
is the median of as many probes as the benchmark takes for its `setup_s`
(3, or 5 on `repair`), and a pair is one sample of each tree; which tree
goes first alternates from pair to pair, so drift in the machine's speed
falls on both alike.

Prints one line per pair, then for `parse_s`, `from_spec_s`, `setup_s` and
`rss_mb` each tree's median and quartiles over the pairs, the ratio of the
medians, the number of pairs the second tree read lower (ties count for
neither side) and the first tree's quartile distance, the spread a
difference of medians has to exceed. `scripts/ab_queries.py` cannot
measure set-up: it loads both trees into one process, where the first
load leaves memory and collector state for the second.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "perfbench" / "setup_probe.py"
METRICS = ("parse_s", "from_spec_s", "setup_s", "rss_mb")

# Run in the fresh process: import the tree's netvec first, so the probe,
# which puts this checkout's src/ on sys.path, finds that one imported.
CHILD = ("import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); import netvec; "
         "sys.argv.pop(0); runpy.run_path(sys.argv[0], run_name='__main__')")


def probe(src: Path, workload: str, text: str) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD, str(src), str(PROBE), workload],
                         input=text, capture_output=True, text=True, check=True,
                         timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def sample(src: Path, workload: str, text: str, runs: int, median) -> dict:
    """Median over `runs` fresh-process probes, per metric."""
    probes = [probe(src, workload, text) for _ in range(runs)]
    return {m: median(p[m] for p in probes) for m in METRICS}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="the first tree's src/ directory")
    ap.add_argument("new", type=Path, help="the second tree's src/ directory")
    ap.add_argument("--workload", required=True,
                    choices=["update_stream", "whole_network", "repair"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    for src in (args.old, args.new):
        if not (src / "netvec" / "__init__.py").is_file():
            ap.error(f"no netvec package under {src}")
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from inputs import make_inputs
    from stats import median, percentile
    from workloads import WORKLOADS

    runs = WORKLOADS[args.workload].setup_runs
    text = make_inputs(args.workload, args.seed).text
    print(f"old={trees['old']}  new={trees['new']}  workload={args.workload}  "
          f"seed={args.seed}  pairs={args.pairs}  probes per sample={runs}")
    samples = {"old": [], "new": []}
    for k in range(args.pairs):
        order = ("old", "new") if k % 2 == 0 else ("new", "old")
        for label in order:
            samples[label].append(sample(trees[label], args.workload, text, runs, median))
        old, new = samples["old"][-1], samples["new"][-1]
        print(f"pair {k + 1:2d} ({order[0]} first): "
              + "  ".join(f"{m} {old[m]:.4f} -> {new[m]:.4f}" for m in METRICS), flush=True)

    print(f"{'metric':12} {'old median [q1-q3]':>28} {'new median [q1-q3]':>28} "
          f"{'new/old':>8} {'new lower':>10} {'old IQR':>9}")
    for m in METRICS:
        quart = {}
        for label, rows in samples.items():
            values = sorted(row[m] for row in rows)
            quart[label] = [percentile(values, q) for q in (50.0, 25.0, 75.0)]
        lower = sum(n[m] < o[m] for o, n in zip(samples["old"], samples["new"]))
        (om, oq1, oq3), (nm, nq1, nq3) = quart["old"], quart["new"]
        ratio = f"{nm / om:8.3f}" if om else f"{'-':>8}"
        print(f"{m:12} {f'{om:.4f} [{oq1:.4f}-{oq3:.4f}]':>28} "
              f"{f'{nm:.4f} [{nq1:.4f}-{nq3:.4f}]':>28} {ratio} "
              f"{f'{lower}/{args.pairs}':>10} {oq3 - oq1:9.4f}")


if __name__ == "__main__":
    main()
