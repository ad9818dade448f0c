import random
from collections import deque

import pytest

from netvec.dataset import UpdateEvent, generate_synthetic, parse_network
from netvec.errors import (DimensionMismatch, InfeasibleParameters, NoPath,
                           PbrProtected, RectificationImpossible, UnknownRouter)
from netvec.oracle import simulate_all
from netvec.prefixes import Prefix
from netvec.rectify import apply_fixes, cover_classes, path_quality, rectify
from netvec.vectors import StateVector
from netvec.verify import NetworkState, detect_loop, verify_reachability

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


@pytest.mark.parametrize("bad", [0, -1])
def test_path_quality_rejects_max_paths_below_one(bad):
    spec = generate_synthetic(6, 8, 6, seed=1, width=8)
    session = NetworkState.from_spec(spec).session()
    with pytest.raises(InfeasibleParameters):
        path_quality(session, "r3", "r0", max_paths=bad)
    (only,) = path_quality(session, "r3", "r0", max_paths=1)
    assert only.path[0] == "r3" and only.path[-1] == "r0"


def test_path_quality_rejects_b_init_of_another_width():
    """`b_init` must hold one bit per class, as the queries require: a wider
    vector would score classes that do not exist."""
    spec = generate_synthetic(6, 8, 4, seed=1, width=8, mask_distribution={4: 1, 6: 1})
    session = NetworkState.from_spec(spec).session()
    m = session.m
    for width in (m - 1, m + 1, 8, 10):
        b_init = StateVector.ones(width)
        for src, dst in (("r3", "r0"), ("r3", "r3")):
            with pytest.raises(DimensionMismatch):
                path_quality(session, src, dst, b_init=b_init)
            with pytest.raises(DimensionMismatch):
                verify_reachability(session, src, dst, b_init)
        with pytest.raises(DimensionMismatch):
            detect_loop(session, "r3", b_init)
    assert path_quality(session, "r3", "r0", b_init=StateVector.ones(m)) == \
        path_quality(session, "r3", "r0")


def all_simple_paths(peers, src, dst):
    """Every simple path src -> dst as (routers, ports), by exhaustive
    search."""
    found = []

    def walk(path, ports):
        if path[-1] == dst:
            found.append((path, ports))
            return
        for port, peer in peers[path[-1]].items():
            if peer not in path:
                walk(path + (peer,), ports + (port,))

    walk((src,), ())
    return found


def assert_shortest_candidates(session, src, dst, k):
    """path_quality(max_paths=k) scores k distinct simple paths (all of them
    when there are at most k) whose hop counts are the k smallest."""
    peers = session.topology.peers
    every = all_simple_paths(peers, src, dst)
    got = [(q.path, q.ports) for q in path_quality(session, src, dst, max_paths=k)]
    assert len(set(got)) == len(got) == min(k, len(every))
    assert set(got) <= set(every)
    assert sorted(len(ports) for _, ports in got) == \
        sorted(len(ports) for _, ports in every)[:k]


def test_path_quality_takes_the_shortest_simple_paths():
    rng = random.Random(5)
    for seed in range(12):
        spec = random_small_network(seed, max_nodes=9)
        session = NetworkState.from_spec(spec).session()
        src, dst = rng.sample(spec.routers, 2)
        total = len(all_simple_paths(session.topology.peers, src, dst))
        for k in {1, 2, max(1, total // 2), total, total + 5}:
            assert_shortest_candidates(session, src, dst, k)


def test_path_quality_on_a_dense_graph_keeps_the_direct_link():
    # 1957 simple paths join two routers of the complete 8-router graph; the
    # first 50 in depth-first order all take detours
    spec = generate_synthetic(8, 28, 8, seed=3, width=8)
    session = NetworkState.from_spec(spec).session()
    assert_shortest_candidates(session, "r0", "r7", 50)
    qualities = path_quality(session, "r0", "r7", max_paths=50)
    assert ("r0", "r7") in [q.path for q in qualities]


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


def test_rectify_unconnected_dst_is_impossible():
    spec = parse_network("WIDTH 3\nNODE A\nNODE B\nNODE C\nEDGE A 0 B 0\n"
                         "RULE A 0/1 0\nRULE B 1/1 1\n")
    state = NetworkState.from_spec(spec)
    with pytest.raises(RectificationImpossible, match="C is not connected") as info:
        rectify(state, "A", "C", {pfx("1/1")})
    assert isinstance(info.value.__cause__, NoPath)


REPAIR_MASKS = {8: 1, 10: 2, 12: 4, 14: 6, 16: 8}


def lost_intent(seed):
    """A 14-router, 60-link shortest-path network plus one full-length
    prefix that no rule covers, routed to a random router on shortest paths
    with its rule at the source deleted: (state, src, dst, prefix)."""
    spec = generate_synthetic(14, 60, 200, mask_distribution=REPAIR_MASKS,
                              seed=seed, width=16)
    rng = random.Random(seed)
    used = {p for table in spec.rules.values() for p in table}
    header = rng.getrandbits(16)
    while any(Prefix(header >> (16 - n), n) in used for n in range(17)):
        header = rng.getrandbits(16)
    prefix = Prefix(header, 16)
    dst, src = rng.sample(spec.routers, 2)
    state = NetworkState.from_spec(spec)
    peers = state.topology.peers
    toward = {dst: 1 + max(peers[dst])}        # a host port at dst
    queue = deque([dst])
    while queue:
        u = queue.popleft()
        for v in sorted(peers[u].values()):
            if v not in toward:
                toward[v] = min(p for p, w in peers[v].items() if w == u)
                queue.append(v)
    state.apply_updates([UpdateEvent("insert", r, prefix, port, i)
                         for i, (r, port) in enumerate(toward.items())])
    state.apply_update(UpdateEvent("delete", src, prefix, toward[src], len(toward)))
    return state, src, dst, prefix


@pytest.mark.parametrize("seed", [0, 1])
def test_rectify_restores_a_lost_intent_with_one_rule_at_the_source(seed):
    # Every candidate drops the intent at the source, so all score 1.0. The
    # fix is the source's rule toward a neighbour on a shortest route; the
    # first 20000 depth-first paths are detours, and none of them carries it.
    state, src, dst, prefix = lost_intent(seed)
    assert prefix not in verify_reachability(state.session(), src, dst).reachable
    result = rectify(state, src, dst, {prefix})
    assert [(f.router, f.prefix) for f in result.fixes] == [(src, prefix)]
    assert prefix in result.achieved
    assert prefix in verify_reachability(state.session(), src, dst).reachable


@pytest.mark.parametrize("src, dst", [("nope", "R"), ("Y", "nope")])
def test_rectify_unknown_router_before_intent(src, dst):
    # an intent that matches no class (1/1 is one class) must not hide an
    # unknown router
    state = toy_state()
    with pytest.raises(UnknownRouter, match="nope"):
        rectify(state, src, dst, {pfx("11/2")})
    with pytest.raises(UnknownRouter, match="nope"):
        rectify(state, src, dst, {pfx("000/3")})


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
