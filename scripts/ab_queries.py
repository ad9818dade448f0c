#!/usr/bin/env python3
"""Per-kind latency of two netvec source trees, interleaved in one process.

    python3 scripts/ab_queries.py OLD/src NEW/src --seed 7 --count 2000

Loads the `netvec` package of each `src/` tree under its own module name
and builds the inputs of the benchmark's `whole_network` and
`update_stream` workloads (`perfbench/inputs.py`, with the `netvec` of this
checkout). Each tree receives only the network text and the serialized
events, as in the benchmark.

whole_network: one root session per tree, then `--count` queries of the
benchmark's reach, loop, reach, blackhole mix. The first reach and the
first blackhole query from each source are reported as `reach_cold` and
`blackhole_cold`, apart from the later ones from that source: a session
that keeps per-source work pays for it on the cold query. Router memos
fill as the queries go, so early queries of either kind also resolve
routers, in both trees alike. update_stream: `--count` churn events, each
applied, its affected set and session built and reachability verified, as
one timed operation. Every operation runs on both trees back to back, and
the tree that goes first alternates, so drift in the machine's speed
falls on both alike.

Prints, per workload and kind, each tree's p50 and p90 in microseconds
and the second tree's p50 and p90 over the first's.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from inputs import make_inputs  # noqa: E402
from netvec.dataset import serialize_update_stream  # noqa: E402
from stats import percentile  # noqa: E402

clock = time.perf_counter_ns


def load(src: Path, name: str):
    """The `netvec` package under `src`, imported as module `name`."""
    pkg = src / "netvec"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Tree:
    def __init__(self, label: str, module):
        self.label = label
        self.nv = module
        self.verify = sys.modules[f"{module.__name__}.verify"]
        self.times: dict[str, list[int]] = {}

    def loaded(self, text: str):
        return self.verify.NetworkState.from_spec(self.nv.parse_network(text))

    def timed(self, kind: str, call, *args) -> None:
        t0 = clock()
        call(*args)
        self.times.setdefault(kind, []).append(clock() - t0)


def interleave(trees, ops) -> None:
    """Run each operation on every tree, alternating which goes first."""
    for i, op in enumerate(ops):
        for tree in trees if i % 2 == 0 else trees[::-1]:
            op(tree)


def whole_network(trees, seed: int, count: int) -> None:
    inputs = make_inputs("whole_network", seed)
    sessions = {}
    for t in trees:
        state = t.loaded(inputs.text)
        sessions[t.label] = state.session(affected=state.affected_for(t.nv.ROOT))
    queries = inputs.queries()
    asked = set()

    def query(kind, src, dst):
        label = kind
        if kind != "loop" and (kind, src) not in asked:
            asked.add((kind, src))
            label += "_cold"

        def op(t):
            v, s = t.verify, sessions[t.label]
            call, args = {"reach": (v.verify_reachability, (s, src, dst)),
                          "loop": (v.detect_loop, (s, src)),
                          "blackhole": (v.detect_blackhole, (s, src))}[kind]
            t.timed(label, call, *args)
        return op

    interleave(trees, [query(*next(queries)) for _ in range(count)])


def update_stream(trees, seed: int, count: int) -> None:
    inputs = make_inputs("update_stream", seed)
    churn = inputs.churn()
    events = [churn.next() for _ in range(count)]
    dsts = [inputs.homes[ev.prefix] for ev in events]
    text = serialize_update_stream(events, inputs.spec.width)
    states, parsed = {}, {}
    for t in trees:
        states[t.label] = t.loaded(inputs.text)
        parsed[t.label] = t.nv.parse_update_stream(text, inputs.spec.width)

    def update(i):
        def op(t):
            state, ev = states[t.label], parsed[t.label][i]

            def one():
                state.apply_update(ev)
                session = state.session(affected=state.affected_for(ev.prefix))
                t.verify.verify_reachability(session, ev.router, dsts[i])
            t.timed("update", one)
        return op

    interleave(trees, [update(i) for i in range(count)])


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="the first tree's src/ directory")
    ap.add_argument("new", type=Path, help="the second tree's src/ directory")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--count", type=int, default=2000)
    args = ap.parse_args(argv)
    trees = [Tree("old", load(args.old, "netvec_old")),
             Tree("new", load(args.new, "netvec_new"))]
    print(f"old={args.old}  new={args.new}  seed={args.seed}  count={args.count}")
    print(f"{'workload':14} {'kind':14} {'n':>5} {'old p50':>9} {'new p50':>9} "
          f"{'old p90':>9} {'new p90':>9} {'p50 x':>6} {'p90 x':>6}")
    for name, run in (("whole_network", whole_network), ("update_stream", update_stream)):
        for t in trees:
            t.times = {}
        run(trees, args.seed, args.count)
        old, new = (t.times for t in trees)
        for kind in old:
            a, b = sorted(old[kind]), sorted(new[kind])
            p = [percentile(s, q) / 1000 for q in (50.0, 90.0) for s in (a, b)]
            print(f"{name:14} {kind:14} {len(a):5d} {p[0]:9.1f} {p[1]:9.1f} "
                  f"{p[2]:9.1f} {p[3]:9.1f} {p[1] / p[0]:6.3f} {p[3] / p[2]:6.3f}")


if __name__ == "__main__":
    main()
