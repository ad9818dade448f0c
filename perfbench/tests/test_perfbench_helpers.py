"""Tests for the benchmark's own helpers: seeded inputs, percentiles, spans."""

import pytest

from inputs import make_inputs
from spans import Tracer, per_op, self_times
from stats import min_samples, percentile, tail_percentile

SMALL = {
    "update_stream": dict(nodes=12, edges=20, prefixes=10, withheld=15),
    "whole_network": dict(nodes=10, edges=16, prefixes=40, acls=3, rewrites=2),
    "repair": dict(nodes=8, edges=12, prefixes=30, acls=2, rewrites=1, withheld=10,
                   intents=4),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_same_digest(workload):
    a = make_inputs(workload, 7, **SMALL[workload])
    b = make_inputs(workload, 7, **SMALL[workload])
    c = make_inputs(workload, 8, **SMALL[workload])
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_intents_nest_with_nothing_and_are_routed():
    inp = make_inputs("repair", 3, **SMALL["repair"])
    width = inp.spec.width
    others = {p for t in inp.spec.rules.values() for p in t}
    others |= {p for _, p, _ in inp.withheld}
    for it in inp.intents:
        assert it.prefix.length == width
        assert not any(q.contains(it.prefix) for q in others if q != it.prefix)
        assert inp.spec.rules[it.src][it.prefix] == it.port
        assert all(it.prefix in inp.spec.rules[r] for r in inp.spec.routers)


def test_churn_never_deletes_an_absent_rule():
    inp = make_inputs("update_stream", 2, **SMALL["update_stream"])
    present = set()
    for ev in inp.churn().take(200):
        key = (ev.router, ev.prefix)
        assert (ev.op == "delete") == (key in present)
        present.symmetric_difference_update({key})


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(99) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(9999) == 99.0
    assert tail_percentile(10000) == 99.9
    assert [min_samples(q) for q in (50.0, 90.0, 99.0, 99.9)] == [20, 100, 1000, 10000]


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 50.0) == 500
    assert percentile(values, 99.0) == 990
    assert sum(v > percentile(values, 99.0) for v in values) == 10
    assert percentile([5.0], 99.9) == 5.0


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # op [0, 100]: a [10, 60] containing b [20, 30] and c [40, 55]; d [70, 90]
    t = Tracer(clock=fake_clock([0, 10, 20, 30, 40, 55, 60, 70, 90, 100]))
    with t.op("op"):
        with t.span("a"):
            with t.span("b"):
                pass
            with t.span("c"):
                pass
        with t.span("d"):
            pass
    names = [rec[3] for rec in t.spans]
    own = dict(zip(names, self_times(t.spans)))
    assert own == {"op": 100 - 50 - 20, "a": 50 - 10 - 15, "b": 10, "c": 15, "d": 20}
    assert sum(own.values()) == 100
    [(total, selfs, calls)] = per_op(t.spans, "op")
    assert total == 100 and selfs == own and calls["a"] == 1


def test_aggregated_calls_fold_into_one_child():
    class Leaf:
        @staticmethod
        def f(x):
            return x + 1

    t = Tracer(clock=fake_clock([0, 1, 3, 5, 8, 20]))
    t.wrap(Leaf, "f", "leaf", aggregate=True)
    try:
        with t.op("op"):
            assert Leaf.f(1) == 2 and Leaf.f(2) == 3
    finally:
        t.restore()
    assert Leaf.f(1) == 2 and not hasattr(Leaf.f, "__wrapped__")
    [op, leaf] = t.spans
    assert leaf[6:] == [2, (3 - 1) + (8 - 5)]
    assert self_times(t.spans) == [20 - 5, 5]


def test_rectify_over_the_time_limit_is_abandoned_without_changes(monkeypatch):
    import workloads

    inp = make_inputs("repair", 1, withheld=20, intents=2)
    work = workloads.Repair(inp)
    work.setup()
    monkeypatch.setattr(workloads, "RECTIFY_LIMIT_S", 0.02)
    assert work.step()
    assert work.errors == {"TimeLimit": 1} and work.failed == 1
    assert not work.mismatches
    assert work.state.tables == inp.spec.rules      # reference copy: churn applied, no fixes
