import random

import pytest

from netvec.dataset import UpdateEvent, parse_network
from netvec.errors import NoPath, PbrProtected, RectificationImpossible
from netvec.oracle import simulate_all
from netvec.prefixes import Prefix
from netvec.rectify import apply_fixes, cover_classes, path_quality, rectify
from netvec.verify import NetworkState, verify_reachability

from conftest import PBR_NETWORK, TOY_NETWORK, headers_of, pfx, random_small_network


def toy_state():
    spec = parse_network(TOY_NETWORK)
    state = NetworkState.from_spec(spec)
    state.apply_update(UpdateEvent("insert", "Q", pfx("0/1"), 0, 0))
    return state


# ----------------------------------------------------------------------
# path quality

def test_toy_path_quality():
    state = toy_state()
    session = state.session(update_prefix=pfx("0/1"))
    (best, *rest) = path_quality(session, "Y", "R")
    assert best.path == ("Y", "U", "R")
    assert best.per_node == (("Y", 1.0), ("U", 1.0))
    assert best.cumulative_l2 == 2.0


def test_fully_configured_path_has_zero_error():
    spec = parse_network(
        "WIDTH 3\nNODE A\nNODE B\nEDGE A 0 B 0\nRULE A /0 0\nRULE B /0 1\n")
    state = NetworkState.from_spec(spec)
    (only,) = path_quality(state.session(), "A", "B")
    assert only.cumulative_l2 == 0.0


def test_path_quality_no_path():
    spec = parse_network("WIDTH 3\nNODE A\nNODE B\nNODE C\nEDGE A 0 B 0\n"
                         "RULE A 0/1 0\n")
    state = NetworkState.from_spec(spec)
    with pytest.raises(NoPath):
        path_quality(state.session(), "A", "C")


def test_path_quality_ascending_and_shortest_path_best():
    for seed in range(5):
        spec = random_small_network(seed)
        state = NetworkState.from_spec(spec)
        session = state.session()
        src, dst = spec.routers[0], spec.routers[-1]
        # score the flows homed at dst, as a service query would; use homed
        # prefixes that are themselves classes so LPM sends them to dst at
        # every router (a fragmented prefix has sub-classes owned elsewhere)
        leaf_classes = set(session.classes)
        wanted = [p for p, r in state.homes.items()
                  if r == dst and p in leaf_classes]
        if not wanted:
            continue
        b0 = session.query_vector(wanted)
        qualities = path_quality(session, src, dst, b_init=b0)
        totals = [q.cumulative_l2 for q in qualities]
        assert totals == sorted(totals)
        # shortest-path-configured network: the best candidate carries the
        # destination's flows with zero residual
        assert qualities[0].cumulative_l2 == 0.0
        shortest = min(len(q.path) for q in qualities)
        assert len(qualities[0].path) == shortest


def test_quality_invariant_under_coordinate_permutation():
    # the score only counts dropped classes, so it cannot depend on how the
    # classes are numbered; compare two structurally identical networks with
    # renamed (hence re-ordered) prefixes
    a = parse_network("WIDTH 3\nNODE A\nNODE B\nEDGE A 0 B 0\n"
                      "RULE A 00/2 0\nRULE A 11/2 0\nRULE B 00/2 1\n")
    b = parse_network("WIDTH 3\nNODE A\nNODE B\nEDGE A 0 B 0\n"
                      "RULE A 11/2 0\nRULE A 00/2 0\nRULE B 11/2 1\n")
    qa = path_quality(NetworkState.from_spec(a).session(), "A", "B")
    qb = path_quality(NetworkState.from_spec(b).session(), "A", "B")
    assert [q.cumulative_l2 for q in qa] == [q.cumulative_l2 for q in qb]


# ----------------------------------------------------------------------
# cover_classes

def test_cover_merges_sibling_classes():
    spec = parse_network(TOY_NETWORK)
    state = NetworkState.from_spec(spec)
    state.apply_update(UpdateEvent("insert", "Q", pfx("0/1"), 0, 0))
    aff = state.affected_for(pfx("0/1"))
    # classes 000/3 + 001/3 merge to 00/2; adding 01/2 merges to 0/1
    assert cover_classes(aff, 0b011) == [pfx("00/2")]
    assert cover_classes(aff, 0b111) == [pfx("0/1")]
    assert cover_classes(aff, 0b101) == [pfx("000/3"), pfx("01/2")]


# ----------------------------------------------------------------------
# rectification

def test_rectify_golden_scenario(rect_spec):
    state = NetworkState.from_spec(rect_spec)
    result = rectify(state, "Y", "R", {pfx("01/2")})
    assert [(f.router, str(f.prefix), f.port) for f in result.fixes] == \
        [("Q", "01/2", 1)]
    assert {str(p) for p in result.achieved} == {"01/2"}
    (res,) = [r for r in result.report.per_path if r.path[-1] == "R"]
    assert res.b_final.to_bits() == [0, 1, 0]


def test_rectify_noop_when_intent_reachable():
    state = toy_state()
    result = rectify(state, "Y", "R", {pfx("000/3")})
    assert result.fixes == ()
    assert {str(p) for p in result.achieved} == {"000/3"}


def test_rectify_impossible_when_everything_owned():
    # Q already forwards the whole space on port 0 (toward a dead end), so a
    # fix for any class would steal forwarded traffic
    spec = parse_network(
        "WIDTH 3\nNODE A\nNODE Q\nNODE R\nNODE X\n"
        "EDGE A 0 Q 0\nEDGE Q 1 R 0\nEDGE Q 2 X 0\n"
        "RULE A /0 0\nRULE Q /0 2\n")
    state = NetworkState.from_spec(spec)
    with pytest.raises(RectificationImpossible):
        rectify(state, "A", "R", {Prefix(0, 0)})


def test_rectify_restores_broken_rule_and_does_not_interfere():
    rng = random.Random(31)
    for seed in range(8):
        spec = random_small_network(seed)
        state = NetworkState.from_spec(spec)
        src, dst = spec.routers[0], spec.routers[-1]
        base = verify_reachability(state.session(), src, dst)
        if not base.reachable:
            continue
        target = sorted(base.reachable, key=lambda p: (p.value, p.length))[0]
        # record reachability of every pair before breaking anything
        pairs = [(a, b) for a in spec.routers for b in spec.routers if a != b]
        before = {(a, b): simulate_all(spec, a, b).reachable for a, b in pairs}
        # break one rule on the delivery path
        victim_path = base.per_path[0].path
        broken = None
        for router in victim_path[:-1]:
            port = state.tables[router].get(target)
            if port is not None:
                broken = (router, target, port)
                break
        if broken is None:
            continue
        router, prefix, port = broken
        state.apply_update(UpdateEvent("delete", router, prefix, port, 0))
        result = rectify(state, src, dst, {target})
        assert target in result.achieved, seed
        got = headers_of(
            verify_reachability(state.session(), src, dst).reachable,
            spec.width)
        want = simulate_all(state.spec, src, dst).reachable
        assert got == want, seed
        # non-interference: nothing previously reachable was lost anywhere
        for (a, b), had in before.items():
            if (a, b) == (src, dst):
                continue
            now = simulate_all(state.spec, a, b).reachable
            missing = (had - now) - headers_of({prefix}, spec.width)
            assert not missing, (seed, a, b, missing)


def test_apply_fixes_roundtrip():
    state = toy_state()
    snap = state.trie.snapshot()
    from netvec.rectify import RuleFix
    fixes = [RuleFix("R", pfx("01/2"), 1, (pfx("01/2"),)),
             RuleFix("R", pfx("000/3"), 1, (pfx("000/3"),))]
    apply_fixes(state, fixes, "Y", "R")
    for fix in fixes:
        state.apply_update(UpdateEvent("delete", fix.router, fix.prefix,
                                       fix.port, 0))
    assert state.trie.snapshot() == snap


def test_apply_fixes_empty_is_noop():
    state = toy_state()
    snap = state.trie.snapshot()
    apply_fixes(state, [], "Y", "R")
    assert state.trie.snapshot() == snap


def test_refused_fix_leaves_no_fix_applied():
    """The fixes go in all or none: B's 00/2 fix is undone when C's 0/1 fix
    is refused as PBR-protected."""
    state = NetworkState.from_spec(parse_network(PBR_NETWORK))
    snap, tables = state.trie.snapshot(), state.tables
    with pytest.raises(PbrProtected):
        rectify(state, "A", "D", {pfx("0/1", 2)})
    assert state.trie.snapshot() == snap
    assert state.tables == tables
