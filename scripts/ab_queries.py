#!/usr/bin/env python3
"""Per-kind latency of two netvec source trees, interleaved in one process.

    python3 scripts/ab_queries.py OLD/src NEW/src --seed 7 --count 2000
    python3 scripts/ab_queries.py OLD/src NEW/src --seed 7 --count 2000 --heap 400000
    python3 scripts/ab_queries.py OLD/src NEW/src --seed 7 --count 20000 --layers

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
one timed operation. With `--layers`, each update also gets one row per
layer, timed apart: `apply` (`apply_update`), `affected` (`affected_for`),
`session` (`session`) and `reach` (`verify_reachability`).

A third tree, `ctl`, is the first tree's `src/` loaded again under its own
module name. Every operation runs on the three trees back to back, and
which tree goes first rotates, so drift in the machine's speed falls on
all alike. The control shows what position and module identity alone do:
unchanged code can read slower in one module than in another, most on
sub-microsecond warm hits.

Prints, per workload and kind, the first two trees' p50 and p90 in
microseconds, the second tree's p50 and p90 over the first's, and the
control's p50 and p90 over the first tree's (`ctl x`): a ratio of the
second tree that lies within the control's distance from 1 shows no
difference. The whole_network `all` row pools every kind, as the
benchmark's `op_latency_ms` pools a run's operations; unlike the
benchmark, it keeps the cold queries.

With `--heap N`, a separate untimed pass follows: for each tree in turn,
a fresh root session answers the same N queries of the whole_network mix
under `tracemalloc`, and the pass prints the traced heap the session grew
by (memos and everything it keeps) and the number of collections the
cyclic garbage collector ran in each generation.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import sys
import time
import tracemalloc
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
    """Run each operation on every tree, rotating which goes first."""
    n = len(trees)
    for i, op in enumerate(ops):
        k = i % n
        for tree in trees[k:] + trees[:k]:
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


def heap(trees, seed: int, count: int) -> None:
    """Each tree's traced heap growth and collections per generation over
    `count` whole_network queries on a fresh root session."""
    inputs = make_inputs("whole_network", seed)
    queries = inputs.queries()
    asked = [next(queries) for _ in range(count)]
    for t in trees:
        state = t.loaded(inputs.text)
        session = state.session(affected=state.affected_for(t.nv.ROOT))
        calls = {"reach": lambda src, dst: t.verify.verify_reachability(session, src, dst),
                 "loop": lambda src, _: t.verify.detect_loop(session, src),
                 "blackhole": lambda src, _: t.verify.detect_blackhole(session, src)}
        collections = [0, 0, 0]

        def tally(phase, info):
            if phase == "start":
                collections[info["generation"]] += 1

        gc.collect()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        gc.callbacks.append(tally)
        try:
            for kind, src, dst in asked:
                calls[kind](src, dst)
        finally:
            gc.callbacks.remove(tally)
        grown = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        print(f"heap {t.label}: {grown / 2**20:.1f} MB traced growth over {count} queries; "
              f"collections gen0={collections[0]} gen1={collections[1]} gen2={collections[2]}")
        del session, state


def update_stream(trees, seed: int, count: int, layers: bool = False) -> None:
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

            if not layers:
                def one():
                    state.apply_update(ev)
                    session = state.session(affected=state.affected_for(ev.prefix))
                    t.verify.verify_reachability(session, ev.router, dsts[i])
                t.timed("update", one)
                return
            t0 = clock()
            state.apply_update(ev)
            t1 = clock()
            affected = state.affected_for(ev.prefix)
            t2 = clock()
            session = state.session(affected=affected)
            t3 = clock()
            t.verify.verify_reachability(session, ev.router, dsts[i])
            t4 = clock()
            for kind, ns in (("update", t4 - t0), ("apply", t1 - t0), ("affected", t2 - t1),
                             ("session", t3 - t2), ("reach", t4 - t3)):
                t.times.setdefault(kind, []).append(ns)
        return op

    interleave(trees, [update(i) for i in range(count)])


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="the first tree's src/ directory")
    ap.add_argument("new", type=Path, help="the second tree's src/ directory")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--count", type=int, default=2000)
    ap.add_argument("--heap", type=int, metavar="N",
                    help="then measure each tree's heap growth over N whole_network "
                         "queries, untimed")
    ap.add_argument("--layers", action="store_true",
                    help="also time each update's apply, affected, session and reach "
                         "layers apart")
    args = ap.parse_args(argv)
    trees = [Tree("old", load(args.old, "netvec_old")),
             Tree("new", load(args.new, "netvec_new")),
             Tree("ctl", load(args.old, "netvec_ctl"))]
    print(f"old={args.old}  new={args.new}  ctl=old  seed={args.seed}  count={args.count}")
    print(f"{'workload':14} {'kind':14} {'n':>6} {'old p50':>9} {'new p50':>9} "
          f"{'old p90':>9} {'new p90':>9} {'p50 x':>6} {'p90 x':>6} "
          f"{'ctl p50 x':>9} {'ctl p90 x':>9}")
    runs = (("whole_network", whole_network),
            ("update_stream", lambda *a: update_stream(*a, layers=args.layers)))
    for name, run in runs:
        for t in trees:
            t.times = {}
        run(trees, args.seed, args.count)
        kinds = list(trees[0].times)
        if "update" in kinds:
            kinds.remove("update")
            kinds.append("update")              # the sum after its layers
        rows = [(kind, *(t.times[kind] for t in trees)) for kind in kinds]
        if name == "whole_network":
            rows.append(("all", *([ns for row in rows for ns in row[i]] for i in (1, 2, 3))))
        for kind, *times in rows:
            old, new, ctl = ([percentile(s, q) / 1000 for q in (50.0, 90.0)]
                             for s in map(sorted, times))
            print(f"{name:14} {kind:14} {len(times[0]):6d} {old[0]:9.2f} {new[0]:9.2f} "
                  f"{old[1]:9.2f} {new[1]:9.2f} {new[0] / old[0]:6.3f} {new[1] / old[1]:6.3f} "
                  f"{ctl[0] / old[0]:9.3f} {ctl[1] / old[1]:9.3f}")
    if args.heap:
        heap(trees[:2], args.seed, args.heap)


if __name__ == "__main__":
    main()
