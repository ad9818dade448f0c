import copy
import math
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netvec.dataset import (NetworkSpec, UpdateEvent, generate_synthetic, parse_network,
                            serialize_network)
from netvec.errors import (InfeasibleParameters, NotFound, PbrProtected,
                           UnknownLink, UnknownRouter)
from netvec.oracle import blackhole_events, looped_headers, simulate_all
from netvec.prefixes import Prefix
from netvec import trie as trie_module
from netvec.trie import LOG_SLACK, HeaderTrie, chain_port
from netvec.vectors import StateVector
from netvec.verify import (NetworkState, Topology, batch_update, check_policy,
                           detect_blackhole, detect_loop, verify_reachability,
                           whatif_link_down)

from conftest import (PBR_NETWORK, TOY_NETWORK, headers_of, naive_lpm, pfx,
                      random_small_network)
from test_dataset import _specs


def toy_state():
    spec = parse_network(TOY_NETWORK)
    state = NetworkState.from_spec(spec)
    state.apply_update(UpdateEvent("insert", "Q", pfx("0/1"), 0, 0))
    return state


def order_bits(vec, session, order):
    """Vector entries re-expressed in an explicit class order."""
    index = {str(p): j for j, p in enumerate(session.classes)}
    return [(vec.bits >> index[name]) & 1 for name in order]


PAPER_ORDER = ["001/3", "000/3", "01/2"]


# ----------------------------------------------------------------------
# topology

_PARALLEL = NetworkSpec(width=8, routers=["a", "b", "c"],
                        rules={"a": {}, "b": {}, "c": {}},
                        edges=[("a", 0, "b", 0), ("a", 1, "b", 3), ("b", 1, "a", 2)])


@settings(max_examples=150, deadline=None)
@given(st.one_of(_specs(8), _specs(16)))
@example(_PARALLEL)
def test_peers_name_the_far_end_of_every_linked_port(generated):
    # as generated, and as parsed back (the parser's own router strings)
    for spec in (generated, parse_network(serialize_network(generated))):
        peers = Topology.from_spec(spec).peers
        assert list(peers) == spec.routers
        for a, pa, b, pb in spec.edges:
            assert peers[a][pa] == b and peers[b][pb] == a
        linked = ({(a, pa) for a, pa, _, _ in spec.edges}
                  | {(b, pb) for _, _, b, pb in spec.edges})
        assert {(r, port) for r, ports in peers.items() for port in ports} == linked
        ends = {r for a, _, b, _ in spec.edges for r in (a, b)}
        assert all(peers[r] == {} for r in spec.routers if r not in ends)
        routers = {id(r) for r in spec.routers}
        assert all(id(peer) in routers for ports in peers.values() for peer in ports.values())


# ----------------------------------------------------------------------
# session construction

def test_session_vectors_match_worked_example():
    state = toy_state()
    aff = state.affected_for(pfx("0/1"))
    session = state.session(affected=aff)
    fv = session.fwd_vectors
    assert order_bits(fv[("Y", 0)], session, PAPER_ORDER) == [1, 1, 0]
    assert order_bits(fv[("U", 0)], session, PAPER_ORDER) == [0, 1, 1]
    assert order_bits(fv[("Q", 0)], session, PAPER_ORDER) == [1, 1, 1]
    assert set(fv) == set(aff.p_affected)


def test_union_over_affected_ports_worked_example():
    state = toy_state()
    session = state.session(update_prefix=pfx("0/1"))
    union = session.resolve("U", session.all_ones().bits).union
    assert order_bits(StateVector(union, session.m), session, PAPER_ORDER) == [0, 1, 1]


def test_session_router_without_affected_rules_absent():
    state = toy_state()
    aff = state.affected_for(pfx("0/1"))
    # R only owns 1/1, which is outside the affected subtree
    assert all(r != "R" for r, _ in aff.p_affected)


def test_session_vectors_match_per_class_lpm():
    for seed in range(8):
        spec = random_small_network(seed, gap_fraction=0.2)
        state = NetworkState.from_spec(spec)
        session = state.session()
        for j, cls in enumerate(session.classes):
            lo, _ = cls.range(spec.width)
            for (router, port), vec in session.fwd_vectors.items():
                expect = naive_lpm(state.tables, spec.width, router, lo) == port
                assert bool(vec.bits >> j & 1) == expect, (seed, router, port, cls)


# ----------------------------------------------------------------------
# reachability

def test_reachability_worked_example():
    state = toy_state()
    session = state.session(update_prefix=pfx("0/1"))
    report = verify_reachability(session, "Y", "R")
    assert {str(p) for p in report.reachable} == {"000/3"}
    (res,) = report.per_path
    assert res.path == ("Y", "U", "R")
    assert order_bits(res.b_final, session, PAPER_ORDER) == [0, 1, 0]


def test_reachability_src_equals_dst():
    state = toy_state()
    session = state.session(update_prefix=pfx("0/1"))
    report = verify_reachability(session, "Y", "Y")
    assert report.reachable == frozenset(session.classes)


def test_reachability_unknown_router():
    state = toy_state()
    session = state.session()
    with pytest.raises(UnknownRouter):
        verify_reachability(session, "Y", "nope")


def test_hop_monotonicity_without_transforms():
    for seed in range(5):
        spec = random_small_network(seed, gap_fraction=0.25, n_acls=1)
        state = NetworkState.from_spec(spec)
        session = state.session()
        report = verify_reachability(session, spec.routers[0], spec.routers[-1])
        peers = state.topology.peers
        for res in report.per_path:
            # replay the path: each hop may only clear bits
            bits = (1 << session.m) - 1
            for r, nxt in zip(res.path, res.path[1:]):
                e, pre = session.enter(r, bits)
                port = next(p for p, mask in e.by_port.items()
                            if peers[r].get(p) == nxt
                            and mask & bits)
                out = e.by_port[port] & pre
                assert out & ~bits == 0
                bits = out
            assert bits == res.b_final.bits


def test_reachability_matches_oracle_small_suite():
    # trimmed version of the acceptance criterion for quick feedback
    rng = random.Random(0)
    for seed in range(12):
        with_extras = seed % 3 == 0
        spec = random_small_network(
            seed, gap_fraction=0.25,
            n_acls=2 if with_extras else 0,
            n_transforms=1 if with_extras else 0)
        state = NetworkState.from_spec(spec)
        session = state.session()
        for _ in range(3):
            src, dst = rng.sample(spec.routers, 2)
            got = headers_of(verify_reachability(session, src, dst).reachable,
                             spec.width)
            want = simulate_all(spec, src, dst).reachable
            assert got == want, (seed, src, dst)


def test_report_consistency_invariant():
    for seed in range(4):
        spec = random_small_network(seed, gap_fraction=0.2)
        state = NetworkState.from_spec(spec)
        session = state.session()
        report = verify_reachability(session, spec.routers[0], spec.routers[-1])
        acc = 0
        for res in report.per_path:
            acc |= res.b_final.bits
        assert session.decode(acc) == set(report.reachable)
        assert report.total_paths == len(report.per_path)


def test_truncation_flag():
    state = toy_state()
    session = state.session()
    report = verify_reachability(session, "Y", "R", max_hops=0)
    assert report.truncated and not report.reachable


def test_reachability_rejects_max_paths_below_one():
    session = toy_state().session()
    for bad in (0, -1):
        with pytest.raises(InfeasibleParameters):
            verify_reachability(session, "Y", "R", max_paths=bad)
    report = verify_reachability(session, "Y", "R", max_paths=1)
    assert len(report.per_path) == 1


def test_reachability_rejects_negative_max_hops():
    session = toy_state().session()
    for bad in (-1, -2):
        with pytest.raises(InfeasibleParameters):
            verify_reachability(session, "Y", "R", max_hops=bad)


def test_session_locality_instrumentation():
    state = toy_state()
    aff = state.affected_for(pfx("0/1"))
    session = state.session(affected=aff)
    verify_reachability(session, "Y", "R")
    detect_blackhole(session, "Y")
    detect_loop(session, "Y")
    assert session.touched <= set(aff.p_affected)


def test_concurrent_queries_are_consistent():
    state = toy_state()
    session = state.session()
    results = []

    def worker():
        rep = verify_reachability(session, "Y", "R")
        results.append(rep.reachable_vector.bits)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1


def test_session_answers_describe_the_network_it_was_built_on():
    changed = 0
    for seed in range(10):
        spec = random_small_network(seed, gap_fraction=0.2, n_acls=1,
                                    n_transforms=seed % 2)
        state = NetworkState.from_spec(spec)       # copies: spec stays pre-update
        src, dst = spec.routers[0], spec.routers[-1]
        reached = verify_reachability(state.session(), src, dst).reachable
        old = state.session()                      # nothing resolved yet
        # re-point src's rule for a delivered class to a host-facing port: a
        # winner changes on a node of that class's chain
        covering = [p for p in spec.rules[src] for c in reached if p.contains(c)]
        if covering:
            pfx_ = max(covering, key=lambda p: (p.length, p.value))
            # the node holds the owner map that load grouped and handed over
            adopted = state.trie._walk(pfx_)[-1].owners
            kept = dict(adopted)
            assert kept == {r: t[pfx_] for r, t in spec.rules.items() if pfx_ in t}
            host_port = 1 + max([pa for a, pa, _, _ in spec.edges if a == src]
                                + [pb for _, _, b, pb in spec.edges if b == src])
            state.apply_update(UpdateEvent("insert", src, pfx_, host_port, 0))
            # the old session's chain still reads src's pre-update port
            entry = next(e for chain in old.affected.chains for e in chain
                         if e[0] is adopted)
            assert chain_port(entry, src) == kept[src]
            assert state.trie.port(pfx_, src) == host_port

        for a, b in ((src, dst), (dst, src)):
            got = headers_of(verify_reachability(old, a, b).reachable, spec.width)
            assert got == simulate_all(spec, a, b).reachable, (seed, a, b)
            now = headers_of(verify_reachability(state.session(), a, b).reachable,
                             spec.width)
            changed += now != got
        holes = {(rep.router, h) for rep in detect_blackhole(old, src)
                 for h in headers_of(rep.headers, spec.width)}
        covered = headers_of(old.classes, spec.width)
        want = {(r, h) for r, h in blackhole_events(simulate_all(spec, src, None))
                if h in covered}
        assert holes == want, seed
    assert changed > 0      # the update really moved some answer


def _reach_answer(rep):
    return (rep.reachable, rep.paths_explored, rep.truncated,
            [(r.path, r.b_final.bits, r.per_hop_errors) for r in rep.per_path])


def _blackhole_answer(reps):
    return [(r.router, r.headers) for r in reps]


def test_old_sessions_and_affected_sets_keep_their_snapshot():
    """Sessions and affected sets taken at random points answer for the
    network as it was then, after more than three log bounds of writes
    (new owners, port replacements, deletes, re-inserts) on the prefixes
    their chains hold."""
    for seed in range(8):
        spec = random_small_network(seed, gap_fraction=0.2, n_acls=3,
                                    n_transforms=1 + seed % 2)
        state = NetworkState.from_spec(spec)
        rng = random.Random(seed)
        known = sorted({p for t in spec.rules.values() for p in t},
                       key=lambda p: (p.value, p.length))
        hot = rng.sample(known, min(3, len(known)))
        writes = len(hot) * (3 * (len(spec.routers) + LOG_SLACK) + 1)
        kept = []
        for i in range(writes):
            if i % 37 == 0:
                prefix = rng.choice(hot)
                aff = state.affected_for(prefix)
                kept.append((state.session(), state.session(affected=aff),
                             state.affected_for(prefix), aff.p_affected,
                             copy.deepcopy(state), prefix))
            p, r = hot[i % len(hot)], rng.choice(spec.routers)
            now = state.trie.port(p, r)
            if now is not None and rng.random() < 0.4:
                state.apply_update(UpdateEvent("delete", r, p, now, i))
            else:
                state.apply_update(UpdateEvent("insert", r, p, rng.randrange(5), i))
        for root, small, aff, p_affected, then, prefix in kept:
            assert aff.p_affected == p_affected, seed
            ref_root = then.session()
            ref_small = then.session(affected=then.affected_for(prefix))
            for src, dst in [rng.sample(spec.routers, 2) for _ in range(3)]:
                for old, ref in ((root, ref_root), (small, ref_small)):
                    assert _reach_answer(verify_reachability(old, src, dst)) == \
                        _reach_answer(verify_reachability(ref, src, dst)), seed
                    assert _blackhole_answer(detect_blackhole(old, src)) == \
                        _blackhole_answer(detect_blackhole(ref, src)), seed
    assert trie_module._EMPTY == {}         # the map new nodes share stayed empty


def test_old_sessions_answer_while_a_writer_edits_their_owner_maps():
    """Readers resolving old sessions race a thread that writes the owner
    maps those sessions hold; every answer still describes the network as
    it was when the sessions were built."""
    spec = random_small_network(3, gap_fraction=0.2, n_acls=2, n_transforms=1)
    state = NetworkState.from_spec(spec)
    rng = random.Random(3)
    known = sorted({p for t in spec.rules.values() for p in t},
                   key=lambda p: (p.value, p.length))
    for seq, p in enumerate(known):                 # give every node a log of its own
        r = next(r for r in spec.routers if p in spec.rules[r])
        state.apply_update(UpdateEvent("insert", r, p, spec.rules[r][p], seq))
    then = copy.deepcopy(state)
    pairs = [tuple(rng.sample(spec.routers, 2)) for _ in range(6)]
    want = [_reach_answer(verify_reachability(then.session(), a, b)) for a, b in pairs]
    sessions = [[state.session() for _ in range(40)] for _ in range(4)]   # nothing resolved yet
    problems = []

    def writer():
        for seq in range(1500):
            p, r = rng.choice(known), rng.choice(spec.routers)
            now = state.trie.port(p, r)
            if now is not None and rng.random() < 0.4:
                state.apply_update(UpdateEvent("delete", r, p, now, seq))
            else:
                state.apply_update(UpdateEvent("insert", r, p, rng.randrange(5), seq))

    def reader(own):
        for session in own:
            got = [_reach_answer(verify_reachability(session, a, b)) for a, b in pairs]
            if got != want:
                problems.append(got)

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader, args=(s,)) for s in sessions]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert problems == []


def test_answers_do_not_depend_on_query_history():
    for seed in range(12):
        spec = random_small_network(seed, gap_fraction=0.2, back_edges=seed % 3,
                                    n_acls=2 if seed % 3 == 0 else 0,
                                    n_transforms=1 if seed % 3 == 0 else 0)
        state = NetworkState.from_spec(spec)
        a, b = spec.routers[0], spec.routers[-1]

        def queries(session, order):
            out = {}
            for src, dst in order:
                out[(src, dst)] = verify_reachability(session, src, dst)
                out[src] = (detect_loop(session, src), detect_blackhole(session, src))
            return out

        forward = queries(state.session(), [(a, b), (b, a)])
        backward = queries(state.session(), [(b, a), (a, b)])
        assert forward == backward, seed


def test_concurrent_queries_match_serial_answers():
    spec = random_small_network(3, max_nodes=16, gap_fraction=0.1, n_acls=2,
                                n_transforms=1)
    state = NetworkState.from_spec(spec)
    m = state.session().m
    # one class per query, so concurrent queries keep extending the same memos
    work = [(a, b, StateVector(1 << j, m)) for j in range(m)
            for a in spec.routers[:4] for b in spec.routers[-4:] if a != b]
    serial = [verify_reachability(state.session(), a, b, v).reachable_vector
              for a, b, v in work]
    shared = state.session()
    errors = []

    def worker(k):
        for i in range(k, len(work), 8):
            if verify_reachability(shared, *work[i]).reachable_vector != serial[i]:
                errors.append(work[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # every memo is exactly what a fresh session resolves for the same classes
    fresh = state.session()
    full = (1 << shared.m) - 1
    for router, memo in shared.memo.items():
        again = fresh.resolve(router, full & ~memo.pending)
        fields = ("by_port", "keys", "port_of", "groups", "linked", "dropped", "union",
                  "permit")
        assert [getattr(memo, f) for f in fields] == [getattr(again, f) for f in fields]
        assert (memo.xform is None) == (again.xform is None)
        if memo.xform is not None:
            assert memo.xform.columns == again.xform.columns


def _dfs_reach(session, src, dst, start, max_paths=None, max_hops=None):
    """Reachability by a depth-first search that keeps nothing between
    queries: each stack entry carries its path, its visited states and a
    chain of hop records. The reference a session's reach trees must equal,
    ``session.touched`` included; reports as `_reach_answer`."""
    m, by_state = session.m, session.has_transforms
    entered, per_path, truncated, explored = {}, [], False, 0
    stack = [(src, start, (), (), None)]
    while stack:
        r, bits, path, states, hop = stack.pop()
        explored += 1
        if r == dst:
            errs, h = (), hop
            while h is not None:
                h, hr, b1, out = h
                errs = ((hr, math.sqrt((b1 ^ out).bit_count())),) + errs
            per_path.append((path + (r,), bits, errs))
            if max_paths is not None and len(per_path) >= max_paths:
                truncated = True
                break
            continue
        if max_hops is not None and len(path) >= max_hops:
            truncated = True
            continue
        e, b1 = session.enter(r, bits)
        if b1 == 0:
            continue
        entered[r] = e.keys
        new_path = path + (r,)
        new_states = states + ((r, bits),) if by_state else ()
        for out, nr in e.split(b1):
            if (nr, out) in new_states if by_state else nr in new_path:
                continue
            stack.append((nr, out, new_path, new_states, (hop, r, b1, out)))
    for keys in entered.values():
        session.touched |= keys
    union = 0
    for _, bits, _ in per_path:
        union |= bits
    return (session.decode(union), explored, truncated, per_path)


def _memo_networks(seeds):
    """Seeded small networks with ACL entries, rewrites, rule gaps and back
    edges (some seeds without rewrites, so paths prune by router)."""
    for seed in seeds:
        yield seed, random_small_network(seed, gap_fraction=0.2, back_edges=1 + seed % 3,
                                         n_acls=3, n_transforms=seed % 3)


def _memo_queries(spec, m, rng, count):
    """Reach queries with and without `max_paths`, `max_hops` and a custom
    `b_init` (all classes included), and blackhole queries."""
    queries = []
    for _ in range(count):
        a, b = rng.sample(spec.routers, 2)
        kind = rng.choice(("reach", "reach", "paths", "hops", "b_init", "blackhole"))
        if kind == "reach":
            queries.append(("reach", a, b, None, {}))
        elif kind == "paths":
            queries.append(("reach", a, b, None, {"max_paths": rng.randint(1, 3)}))
        elif kind == "hops":
            queries.append(("reach", a, b, None, {"max_hops": rng.randint(0, 4)}))
        elif kind == "b_init":
            bits = rng.choice((rng.getrandbits(m), (1 << m) - 1))
            queries.append(("reach", a, b, bits, {}))
        else:
            queries.append(("blackhole", a, None, rng.choice((None, rng.getrandbits(m))), {}))
    return queries


def _ask(session, query):
    kind, src, dst, bits, opts = query
    b_init = None if bits is None else StateVector(bits, session.m)
    if kind == "reach":
        return verify_reachability(session, src, dst, b_init, **opts)
    if kind == "loop":
        return detect_loop(session, src, b_init)
    return detect_blackhole(session, src, b_init)


def test_one_session_answers_like_a_fresh_session_per_query():
    """A session asked a shuffled, repeated mix of queries answers each one
    as a fresh session does, and as the search that keeps nothing between
    queries does on a twin session with the same history (which fixes
    ``touched``: a router's ports depend on the classes earlier queries
    resolved there)."""
    asked = warm = 0
    for seed, spec in _memo_networks(range(12)):
        state = NetworkState.from_spec(spec)
        shared, twin = state.session(), state.session()
        m = shared.m
        rng = random.Random(seed)
        queries = _memo_queries(spec, m, rng, 30)
        order = list(range(len(queries))) * 3
        rng.shuffle(order)
        seen = set()
        for i in order:
            query = queries[i]
            kind, src, dst, bits, opts = query
            fresh = state.session()
            shared.touched, twin.touched = set(), set()
            got = _ask(shared, query)
            assert got == _ask(fresh, query), (seed, query)
            if kind == "reach":
                start = (1 << m) - 1 if bits is None else bits
                assert _reach_answer(got) == _dfs_reach(twin, src, dst, start, **opts), \
                    (seed, query)
            else:
                again = _ask(twin, query)
                assert again == got, (seed, query)
                got.append(got[0] if got else None)        # the caller owns the list
                got.reverse()
                assert _ask(shared, query) == again, (seed, query)
            assert shared.touched == twin.touched, (seed, query)
            asked += 1
            warm += i in seen
            seen.add(i)
        # only queries that start with every class keep what they found
        for kept, kind in ((shared.trees, "reach"), (shared.holes, "blackhole")):
            assert set(kept) == {q[1] for q in queries
                                 if q[0] == kind and q[3] in (None, (1 << m) - 1)}, seed
    assert asked > 1000 and warm > 500


def _merge_every_router(session, routers):
    """`_add_touched` without a record: every entered router's ports are
    ORed into ``touched`` on every query."""
    for r in routers:
        session.touched |= session.memo[r].keys


def test_touched_accumulates_like_a_merge_on_every_query(monkeypatch):
    """One ``touched`` set kept across a shuffled, repeated mix of reach,
    loop and blackhole queries (and a `fwd_vectors` read part-way, which
    grows memo keys outside any query) equals, after every query, the set a
    twin session gets when every entered router's ports are merged again."""
    import netvec.verify as V

    grew = 0
    for seed, spec in _memo_networks(range(12)):
        state = NetworkState.from_spec(spec)
        shared, twin = state.session(), state.session()
        m = shared.m
        rng = random.Random(seed)
        queries = _memo_queries(spec, m, rng, 30)
        queries += [("loop", a, None, rng.choice((None, rng.getrandbits(m))), {})
                    for a in rng.sample(spec.routers, 4)]
        order = list(range(len(queries))) * 3
        rng.shuffle(order)
        touched = shared.touched
        for n, i in enumerate(order):
            if n == len(order) // 2:
                assert shared.fwd_vectors == twin.fwd_vectors, seed
            query = queries[i]
            before = len(touched)
            got = _ask(shared, query)
            with monkeypatch.context() as patch:
                patch.setattr(V, "_add_touched", _merge_every_router)
                assert _ask(twin, query) == got, (seed, query)
            assert shared.touched is touched
            assert touched == twin.touched, (seed, n, query)
            grew += len(touched) > before > 0
    assert grew > 20


def test_warm_queries_enter_no_router():
    """Once a source's tree covers every destination and its blackhole
    answer is kept, its queries resolve nothing and call `enter` not once."""
    for seed, spec in _memo_networks(range(6)):
        state = NetworkState.from_spec(spec)
        session = state.session()
        src = spec.routers[0]
        cold = {dst: verify_reachability(session, src, dst) for dst in spec.routers}
        holes = detect_blackhole(session, src)
        calls = []
        enter = session.enter
        session.enter = lambda r, bits: calls.append(r) or enter(r, bits)
        for dst in reversed(spec.routers):
            assert verify_reachability(session, src, dst) == cold[dst], seed
        assert detect_blackhole(session, src) == holes, seed
        assert calls == [], seed


def test_concurrent_queries_share_source_trees():
    """On each of 100 fresh sessions, eight threads ask the same default
    queries in the same order, so they expand the same tree nodes and fill
    the same blackhole answers at once; every answer equals the serial one.
    The threads also merge into one ``touched`` set at once: after one more
    serial pass over the queries it equals the set of a serial session that
    asked them twice."""
    spec = random_small_network(5, max_nodes=16, gap_fraction=0.1, back_edges=2,
                                n_acls=2, n_transforms=1)
    state = NetworkState.from_spec(spec)
    sources = spec.routers[:4]
    work = [(a, b) for a in sources for b in spec.routers if a != b]

    def ask_all(session, order):
        return ({q: verify_reachability(session, *q) for q in order},
                {a: detect_blackhole(session, a) for a, _ in order})

    serial = state.session()
    want_reach, want_holes = ask_all(serial, work)
    ask_all(serial, work)
    assert sum(r.paths_explored for r in want_reach.values()) > 200
    errors = []

    def worker(session, barrier, order):
        barrier.wait(timeout=60)
        for a, b in order:
            if verify_reachability(session, a, b) != want_reach[(a, b)]:
                errors.append((a, b))
            if detect_blackhole(session, a) != want_holes[a]:
                errors.append(a)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(100):
            shared = state.session()
            barrier = threading.Barrier(8)
            order = list(work)              # one order for all, so they race on every node
            random.Random(k).shuffle(order)
            threads = [threading.Thread(target=worker, args=(shared, barrier, order))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            touched = shared.touched
            ask_all(shared, order)
            assert shared.touched is touched
            if touched != serial.touched:
                errors.append(("touched", k))
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_memo_publishes_fields_before_pending_shrinks(monkeypatch):
    import netvec.verify as V

    writes = []

    class Recording(V.RouterMemo):
        __slots__ = ()

        def __setattr__(self, name, value):
            writes.append(name)
            super().__setattr__(name, value)

    monkeypatch.setattr(V, "RouterMemo", Recording)
    state = toy_state()
    session = state.session()
    m = session.m
    for j in range(m):                  # extend Y's memo one class at a time
        writes.clear()
        session.resolve("Y", 1 << j)
        assert writes[-1] == "pending", writes
        assert {"by_port", "keys", "groups", "linked", "dropped", "union"} <= \
            set(writes[:-1]), writes
    assert session.memo["Y"].pending == 0


# ----------------------------------------------------------------------
# the hop kernel

@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4000), max_size=60), st.integers(0, 1))
def test_set_bits_lists_every_set_bit_ascending(positions, dense_low):
    from netvec.verify import _set_bits
    mask = sum({1 << j for j in positions}) | (dense_low * ((1 << 40) - 1))
    assert _set_bits(mask) == [j for j in range(mask.bit_length()) if mask >> j & 1]


def _with_parallel_links(spec, rng, count):
    """Add a second link beside `count` existing ones, on fresh ports, and
    move about half of the rules that used the first link's port onto it."""
    for _ in range(count):
        a, pa, b, pb = rng.choice(spec.edges)
        fresh = []
        for r in (a, b):
            used = [p for x, px, y, py in spec.edges for p, z in ((px, x), (py, y)) if z == r]
            fresh.append(1 + max(used + list(spec.rules[r].values())))
        spec.edges.append((a, fresh[0], b, fresh[1]))
        for prefix, port in sorted(spec.rules[a].items(), key=lambda kv: (kv[0].value, kv[0].length)):
            if port == pa and rng.random() < 0.5:
                spec.rules[a][prefix] = fresh[0]
    return spec


def _kernel_specs(seeds):
    for seed in seeds:
        spec = random_small_network(seed, gap_fraction=0.2, back_edges=2,
                                    n_acls=3, n_transforms=3)
        yield seed, _with_parallel_links(spec, random.Random(seed), 2)


def test_split_equals_the_link_scan():
    """`RouterMemo.split` equals a scan of every linked port in ascending
    order, on partly resolved memos and random live sets."""
    cases = multi = 0
    for seed, spec in _kernel_specs(range(30)):
        state = NetworkState.from_spec(spec)
        session = state.session()
        rng = random.Random(seed)
        m = session.m
        full = (1 << m) - 1
        for router in spec.routers:
            peers = state.topology.peers[router]
            for _ in range(6):
                memo = session.resolve(router, rng.getrandbits(m))
                resolved = full & ~memo.pending
                live = resolved & rng.getrandbits(m)
                scan = [(mask & live, peers[port]) for port, mask in sorted(memo.by_port.items())
                        if port in peers and mask & live]
                assert memo.split(live) == scan, (seed, router)
                assert live & memo.dropped == live & ~memo.union
                for j in range(m):
                    if resolved >> j & 1:
                        port = next((p for p, mask in memo.by_port.items() if mask >> j & 1), -1)
                        assert memo.port_of[j] == port, (seed, router, j)
                cases += 1
                multi += len(scan) > 1
    assert cases > 1000 and multi > 100


def _dfs_blackholes(session, src, start):
    """Blackholes by depth-first search over (router, classes) states, each
    state entered once, with every linked port scanned: the reference the
    worklist must equal."""
    holes = {}
    seen = {(src, start)}
    stack = [(src, start)]
    while stack:
        r, bits = stack.pop()
        e, b1 = session.enter(r, bits)
        if b1 == 0:
            continue
        if b1 & ~e.union:
            holes[r] = holes.get(r, 0) | (b1 & ~e.union)
        peers = session.topology.peers[r]
        for port, mask in e.by_port.items():
            state = (peers.get(port), mask & b1)
            if state[0] is not None and state[1] and state not in seen:
                seen.add(state)
                stack.append(state)
    return [(r, session.decode(bits)) for r, bits in sorted(holes.items())]


def test_blackhole_worklist_equals_state_dfs():
    found = 0
    for seed, spec in _kernel_specs(range(30)):
        state = NetworkState.from_spec(spec)
        session, reference = state.session(), state.session()
        rng = random.Random(seed)
        m = session.m
        for src in spec.routers:
            for bits in ((1 << m) - 1, rng.getrandbits(m), rng.getrandbits(m)):
                got = detect_blackhole(session, src, StateVector(bits, m))
                want = _dfs_blackholes(reference, src, bits)
                assert [(rep.router, rep.headers) for rep in got] == want, (seed, src)
                found += len(got)
    assert found > 100


# ----------------------------------------------------------------------
# loops

def test_minimal_two_router_loop():
    spec = parse_network(
        "WIDTH 3\nNODE A\nNODE B\nEDGE A 0 B 0\n"
        "RULE A 1/1 0\nRULE B 1/1 0\n")
    state = NetworkState.from_spec(spec)
    report = detect_loop(state.session(), "A")
    assert report.found
    assert set(report.cycle) == {"A", "B"}
    assert {str(p) for p in report.headers} == {"1/1"}


def test_toy_network_has_no_loop():
    state = toy_state()
    report = detect_loop(state.session(), "Y")
    assert not report.found
    assert report.headers == frozenset()


def test_loop_presence_matches_oracle():
    rng = random.Random(1)
    hits = 0
    for seed in range(16):
        spec = random_small_network(seed, gap_fraction=0.2,
                                    back_edges=rng.randint(0, 3))
        state = NetworkState.from_spec(spec)
        src = spec.routers[0]
        found = detect_loop(state.session(), src).found
        oracle = bool(looped_headers(simulate_all(spec, src, None)))
        assert found == oracle, seed
        hits += found
    assert hits > 0  # the suite actually exercises loops


# ----------------------------------------------------------------------
# blackholes

def test_worked_blackhole_at_u():
    state = toy_state()
    session = state.session(update_prefix=pfx("0/1"))
    reports = {r.router: r.headers for r in detect_blackhole(session, "Y")}
    assert {str(p) for p in reports["U"]} == {"001/3"}


def test_full_default_routes_no_blackhole():
    spec = parse_network(
        "WIDTH 3\nNODE A\nNODE B\nEDGE A 0 B 0\n"
        "RULE A /0 0\nRULE B /0 1\n")
    state = NetworkState.from_spec(spec)
    assert detect_blackhole(state.session(), "A") == []


def test_blackholes_match_oracle():
    for seed in range(10):
        spec = random_small_network(seed, gap_fraction=0.3, n_acls=1)
        state = NetworkState.from_spec(spec)
        src = spec.routers[0]
        session = state.session()
        got = set()
        for rep in detect_blackhole(session, src):
            for h in headers_of(rep.headers, spec.width):
                got.add((rep.router, h))
        sim = simulate_all(spec, src, None)
        covered = headers_of(session.classes, spec.width)
        want = {(r, h) for r, h in blackhole_events(sim) if h in covered}
        assert got == want, seed


# ----------------------------------------------------------------------
# policy

def test_policy_path_length_ok():
    state = toy_state()
    report = verify_reachability(state.session(), "Y", "R")
    assert check_policy(report, max_path_len=3).violations == ()


def test_policy_rejects_negative_max_len():
    report = verify_reachability(toy_state().session(), "Y", "R")
    for bad in (-1, -3):
        with pytest.raises(InfeasibleParameters):
            check_policy(report, max_path_len=bad)
    (violation,) = check_policy(report, max_path_len=0).violations
    assert violation.constraint == "path length 3 exceeds 0"


def test_policy_waypoint_violation():
    state = toy_state()
    report = verify_reachability(state.session(), "Y", "R")
    policy = check_policy(report, waypoints={"Q"})
    assert len(policy.violations) == 1
    assert policy.violations[0].path == ("Y", "U", "R")
    assert "Q" in policy.violations[0].constraint


def test_policy_violations_count_matches_path_enumeration():
    rng = random.Random(5)
    for seed in range(6):
        spec = random_small_network(seed)
        state = NetworkState.from_spec(spec)
        src, dst = spec.routers[0], spec.routers[-1]
        report = verify_reachability(state.session(), src, dst)
        if not report.per_path:
            continue
        waypoint = rng.choice(spec.routers)
        policy = check_policy(report, waypoints={waypoint})
        expect = sum(1 for res in report.per_path if waypoint not in res.path)
        assert len(policy.violations) == expect


def test_pbr_protected_update_rejected():
    spec = parse_network(
        "WIDTH 3\nNODE A\nNODE B\nEDGE A 0 B 0\nPBR A 01/2 0\n")
    state = NetworkState.from_spec(spec)
    with pytest.raises(PbrProtected):
        state.apply_update(UpdateEvent("insert", "B", pfx("01/2"), 0, 0))
    # a PBR-sourced update is allowed
    state.apply_update(UpdateEvent("insert", "B", pfx("01/2"), 0, 1), pbr=True)


# ----------------------------------------------------------------------
# batch + what-if

def test_batch_of_one_equals_single_update(toy_spec):
    ev = UpdateEvent("insert", "Q", pfx("0/1"), 0, 0)
    seq_state = NetworkState.from_spec(toy_spec)
    seq_state.apply_update(ev)
    single = verify_reachability(
        seq_state.session(update_prefix=ev.prefix), "Y", "R")
    batch_state = NetworkState.from_spec(toy_spec)
    batched, _ = batch_update(batch_state, [ev], "Y", "R")
    assert batched.reachable == single.reachable
    assert batched.reachable_vector == single.reachable_vector


def test_batch_insert_then_delete_is_noop(toy_spec):
    state = NetworkState.from_spec(toy_spec)
    baseline = verify_reachability(state.session(), "Y", "R")
    events = [UpdateEvent("insert", "Q", pfx("0/1"), 0, 0),
              UpdateEvent("delete", "Q", pfx("0/1"), 0, 1)]
    state2 = NetworkState.from_spec(toy_spec)
    report, _ = batch_update(state2, events, "Y", "R")
    assert report.reachable == baseline.reachable
    assert state2.trie.snapshot() == state.trie.snapshot()


def test_batch_equals_sequential_random():
    rng = random.Random(17)
    for seed in range(6):
        spec = random_small_network(seed, gap_fraction=0.2)
        prefixes = sorted({p for t in spec.rules.values() for p in t},
                          key=lambda p: (p.value, p.length))
        events = []
        for i in range(6):
            router = rng.choice(spec.routers)
            if rng.random() < 0.5 and spec.rules[router]:
                p, port = rng.choice(sorted(
                    spec.rules[router].items(),
                    key=lambda kv: (kv[0].value, kv[0].length)))
                events.append(UpdateEvent("delete", router, p, port, i))
                del spec.rules[router][p]  # keep the script well-formed
            else:
                p = rng.choice(prefixes)
                port = rng.randrange(3)
                events.append(UpdateEvent("insert", router, p, port, i))
                spec.rules[router][p] = port
        base = random_small_network(seed, gap_fraction=0.2)
        src, dst = base.routers[0], base.routers[-1]

        seq_state = NetworkState.from_spec(base)
        for ev in events:
            seq_state.apply_update(ev)

        batch_state = NetworkState.from_spec(base)
        batch_report, _ = batch_update(batch_state, events, src, dst)
        # full-space verification agrees after either application order
        full_seq = verify_reachability(seq_state.session(), src, dst)
        full_batch = verify_reachability(batch_state.session(), src, dst)
        assert full_seq.reachable == full_batch.reachable
        assert seq_state.trie.snapshot() == batch_state.trie.snapshot()


def test_whatif_link_down_toy():
    # Y's 00/2 rule forwards over the failed Y:0 side, so it is deleted and
    # 000/3 stops being reachable through U.
    state = toy_state()
    result = whatif_link_down(state, ("Y", 0, "U", 1), "Y", "R")
    assert result.triggered_deletions == 1
    assert result.report.reachable == frozenset()


def test_whatif_unknown_link():
    state = toy_state()
    with pytest.raises(UnknownLink):
        whatif_link_down(state, ("Y", 9, "U", 9), "Y", "R")


def test_whatif_inert_link(toy_spec):
    # pre-update, the Q-U link carries no rules: failing it changes nothing
    state = NetworkState.from_spec(toy_spec)
    before = verify_reachability(state.session(), "Y", "R").reachable
    result = whatif_link_down(state, ("Q", 0, "U", 2), "Y", "R")
    assert result.triggered_deletions == 0
    assert result.report.reachable == before


def test_home_follows_current_rules():
    """A prefix's home is read from the rules as they are now: deleting the
    host-facing rule takes the home away, and another router's host-facing
    rule gives the prefix that router as its home."""
    state = toy_state()
    assert state.homes == {pfx("1/1"): "R"}
    assert state.home_of(pfx("11/2")) == "R"
    state.apply_update(UpdateEvent("delete", "R", pfx("1/1"), 2, 1))
    assert state.homes == {}
    assert state.home_of(pfx("1/1")) is None and state.home_of(pfx("11/2")) is None
    state.apply_update(UpdateEvent("insert", "Q", pfx("1/1"), 5, 2))
    assert state.homes == {pfx("1/1"): "Q"} and state.home_of(pfx("11/2")) == "Q"
    state.apply_update(UpdateEvent("insert", "R", pfx("1/1"), 2, 3))
    # two host-facing rules: the router declared first (Q before R) is home
    assert state.homes == {pfx("1/1"): "Q"} and state.home_of(pfx("1/1")) == "Q"


def test_whatif_severing_delivery_path():
    state = toy_state()
    result = whatif_link_down(state, ("U", 0, "R", 0), "Y", "R")
    assert result.triggered_deletions == 2  # U's two port-0 rules
    assert result.report.reachable == frozenset()


def test_whatif_matches_oracle():
    rng = random.Random(23)
    for seed in range(6):
        spec = random_small_network(seed, gap_fraction=0.1)
        state = NetworkState.from_spec(spec)
        edge = rng.choice(spec.edges)
        src, dst = spec.routers[0], spec.routers[-1]
        result = whatif_link_down(state, edge, src, dst)
        # the failed network by hand: no edge, no rule forwarding over it
        failed = spec.copy()
        failed.edges.remove(edge)
        a, pa, b, pb = edge
        deleted = []
        for r, port in ((a, pa), (b, pb)):
            deleted += [p for p, q in failed.rules[r].items() if q == port]
            failed.rules[r] = {p: q for p, q in failed.rules[r].items() if q != port}
        want = simulate_all(failed, src, dst).reachable
        got = headers_of(result.report.reachable, spec.width)
        # the report covers (at least) the classes of the deleted prefixes
        scope = headers_of(deleted, spec.width) if deleted else set(range(1 << spec.width))
        assert want & scope <= got <= want, seed


def _state_view(state):
    """Everything a what-if or a failed batch must leave as it was."""
    return (copy.deepcopy(state.spec.rules), list(state.spec.edges),
            list(state.topology.edges), copy.deepcopy(state.topology.peers),
            dict(state.homes))


def test_whatif_leaves_state_unchanged():
    spec = generate_synthetic(20, 40, 30, seed=3, width=16)
    state = NetworkState.from_spec(spec)
    before = _state_view(state)
    assert (len(state.spec.edges), state.spec.rule_count) == (40, 600)
    deletions = 0
    for edge in spec.edges[:8]:
        result = whatif_link_down(state, edge, spec.routers[0], spec.routers[-1])
        deletions += result.triggered_deletions
        assert _state_view(state) == before, edge
    assert deletions > 0            # the what-ifs really deleted rules


def test_failed_batch_leaves_state_unchanged():
    spec = generate_synthetic(20, 40, 30, seed=3, width=16)
    state = NetworkState.from_spec(spec)
    before = _state_view(state)
    r, dst = spec.routers[0], spec.routers[-1]
    (p1, port1), (p2, port2) = sorted(spec.rules[r].items(),
                                      key=lambda kv: (kv[0].value, kv[0].length))[:2]
    linked = sorted(pa for a, pa, _, _ in spec.edges if a == r) + \
        sorted(pb for _, _, b, pb in spec.edges if b == r)
    other = next(p for p in linked if p != port1)
    host = max(linked) + 1
    fresh = next(Prefix(v, 16) for v in range(1 << 16) if Prefix(v, 16) not in spec.rules[r])
    good = [UpdateEvent("delete", r, p2, port2, 0),
            UpdateEvent("insert", r, p1, other, 1),        # replaces port1
            UpdateEvent("insert", r, fresh, host, 2)]      # new rule and a new home
    with pytest.raises(NotFound):
        batch_update(state, good + [UpdateEvent("delete", r, p2, port2, 3)], r, dst)
    assert _state_view(state) == before
    with pytest.raises(UnknownRouter):                     # the verification fails
        batch_update(state, good, r, "nope")
    assert _state_view(state) == before
    report, _ = batch_update(state, good, r, dst)          # and the batch still applies
    assert state.tables[r][p1] == other and state.homes[fresh] == r


def test_unknown_op_leaves_the_trie_unchanged():
    spec = generate_synthetic(20, 40, 30, seed=3, width=16)
    state = NetworkState.from_spec(spec)
    before = state.trie.snapshot()
    r, dst = spec.routers[0], spec.routers[-1]
    (p1, port1), (p2, port2) = sorted(spec.rules[r].items(),
                                      key=lambda kv: (kv[0].value, kv[0].length))[:2]
    with pytest.raises(InfeasibleParameters):
        state.apply_update(UpdateEvent("replace", r, p1, port1, 0))
    assert state.trie.snapshot() == before
    with pytest.raises(InfeasibleParameters):
        batch_update(state, [UpdateEvent("delete", r, p1, port1, 0),
                             UpdateEvent("insert", r, p2, port2 + 1, 1),
                             UpdateEvent("move", r, p2, port2, 2)], r, dst)
    assert state.trie.snapshot() == before


def test_state_never_changes_the_loaded_spec():
    spec = random_small_network(5, gap_fraction=0.1, n_acls=2, n_transforms=2)
    before = copy.deepcopy(spec)
    state = NetworkState.from_spec(spec)
    r, dst = spec.routers[0], spec.routers[-1]
    (p, port), = sorted(spec.rules[r].items(), key=lambda kv: (kv[0].value, kv[0].length))[:1]
    state.apply_update(UpdateEvent("delete", r, p, port, 0))
    state.apply_update(UpdateEvent("insert", r, p, port + 1, 1))
    assert state.tables[r][p] == port + 1
    with pytest.raises(NotFound):
        batch_update(state, [UpdateEvent("insert", dst, p, 0, 2),
                             UpdateEvent("delete", dst, p, 9, 3)], r, dst)
    whatif_link_down(state, spec.edges[0], r, dst)
    assert spec == before


def test_whatif_and_failed_batches_keep_answers_equal_to_oracle():
    rng = random.Random(31)
    for seed in range(8):
        spec = random_small_network(seed, gap_fraction=0.1, n_acls=2,
                                    n_transforms=2)
        state = NetworkState.from_spec(spec)
        pairs = [(a, b) for a in spec.routers for b in spec.routers if a != b]
        want = {(a, b): simulate_all(spec, a, b).reachable for a, b in pairs}
        for edge in rng.sample(spec.edges, min(3, len(spec.edges))):
            whatif_link_down(state, edge, *rng.sample(spec.routers, 2))
        r = spec.routers[0]
        for p, port in sorted(spec.rules[r].items(), key=lambda kv: (kv[0].value, kv[0].length)):
            with pytest.raises(NotFound):
                batch_update(state, [UpdateEvent("delete", r, p, port, 0),
                                     UpdateEvent("delete", r, p, port, 1)], r, r)
        assert {k: simulate_all(state.spec, *k).reachable for k in pairs} == want, seed
        session = state.session()
        got = {(a, b): headers_of(verify_reachability(session, a, b).reachable, spec.width)
               for a, b in pairs}
        assert got == want, seed


# ----------------------------------------------------------------------
# networks with many rewrites

def test_many_rewrites_match_oracle_on_every_pair():
    """Reach on every pair and blackholes from every source equal the
    oracle on networks with several rewrites, ACLs and back-edge rules,
    both on a fresh root session and on a second pass over the same session
    after the first pass has extended its memos.

    Loop answers are checked for missed loops only: ``detect_loop``
    confirms a cycle when a router repeats on the path, and a rewrite can
    send a packet back through a router with a changed header, which the
    oracle (a repeated (router, header) state) does not count as a loop.
    """
    rewrites = loops = holes = 0
    for seed in range(30):
        spec = random_small_network(seed, n_transforms=6, n_acls=4, back_edges=2)
        rewrites += sum(len(t) for t in spec.transforms.values())
        state = NetworkState.from_spec(spec)
        session = state.session()
        covered = headers_of(session.classes, spec.width)
        passes = []
        for _ in range(2):
            answers = {}
            for src in spec.routers:
                answers[src] = (detect_loop(session, src), detect_blackhole(session, src))
                for dst in spec.routers:
                    if dst != src:
                        answers[(src, dst)] = verify_reachability(session, src, dst)
            passes.append(answers)
        assert passes[0] == passes[1], seed
        for src in spec.routers:
            sim = simulate_all(spec, src, None)
            loop, reports = passes[0][src]
            if looped_headers(sim):
                assert loop.found, (seed, src)
            loops += loop.found
            got = {(rep.router, h) for rep in reports
                   for h in headers_of(rep.headers, spec.width)}
            want = {(r, h) for r, h in blackhole_events(sim) if h in covered}
            assert got == want, (seed, src)
            holes += len(got)
            for dst in spec.routers:
                if dst != src:
                    reach = passes[0][(src, dst)].reachable
                    assert headers_of(reach, spec.width) == \
                        simulate_all(spec, src, dst).reachable, (seed, src, dst)
    assert rewrites >= 100 and loops > 0 and holes > 0


def test_whatif_fails_a_link_that_carries_a_pbr_rule():
    """A failed link takes PBR-protected rules with it: the what-if answers
    and leaves the state as it was."""
    state = NetworkState.from_spec(parse_network(PBR_NETWORK))
    before, snap = _state_view(state), state.trie.snapshot()
    result = whatif_link_down(state, ("A", 0, "B", 0), "A", "D")
    assert result.triggered_deletions == 1
    assert result.report.reachable == frozenset()
    assert _state_view(state) == before and state.trie.snapshot() == snap
