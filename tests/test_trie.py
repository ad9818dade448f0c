import random
import statistics
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netvec.errors import NodeMissing, NotFound, PrefixTooLong
from netvec.oracle import interval_partition
from netvec.prefixes import ROOT, Prefix
from netvec.trie import LOG_SLACK, HeaderTrie, Label, chain_owners, chain_port

from conftest import pfx


def build(width, rules):
    trie = HeaderTrie(width)
    for text, owner in rules:
        trie.insert_header(pfx(text, width), owner)
    return trie


def leaf_ranges(trie):
    return [p.range(trie.width) for p, _, _ in trie.leaf_entries()]


# ----------------------------------------------------------------------
# insertion

def test_first_insert_is_atomic_leaf():
    trie = HeaderTrie(3)
    out = trie.insert_header(pfx("1/1"), ("R", 0))
    assert out.created_nodes == 1 and out.new_leaf
    entries = trie.leaf_entries()
    assert entries == [(Prefix(1, 1), Label.ATOMIC, 0)]


def test_insert_supernet_labels_and_iatomic():
    # headers {000/3, 01/2, 1/1} plus the 0/1 supernet
    trie = build(3, [("000/3", ("U", 0)), ("01/2", ("U", 1)), ("1/1", ("R", 0))])
    trie.insert_header(pfx("0/1"), ("Q", 0))
    node = trie._walk(pfx("0/1"))[-1]
    assert node.label == Label.SUPERNET
    labels = {str(p): label for p, label, _ in trie.leaf_entries()}
    assert labels == {"000/3": Label.ATOMIC, "001/3": Label.IATOMIC,
                      "01/2": Label.ATOMIC, "1/1": Label.ATOMIC}
    assert trie.iatomic_count == 1


def test_insert_too_long_rejected():
    trie = HeaderTrie(3)
    with pytest.raises(PrefixTooLong):
        trie.insert_header(Prefix(0, 4), ("R", 0))


def test_duplicate_owner_is_idempotent():
    trie = build(3, [("01/2", ("U", 1))])
    snap = trie.snapshot()
    out = trie.insert_header(pfx("01/2"), ("U", 1))
    assert out.created_nodes == 0
    assert trie.snapshot() == snap


def test_same_router_new_port_replaces():
    trie = build(3, [("01/2", ("U", 1))])
    trie.insert_header(pfx("01/2"), ("U", 2))
    node = trie._walk(pfx("01/2"))[-1]
    assert node.owners == {"U": 2}


def test_random_inserts_match_interval_oracle():
    rng = random.Random(7)
    width = 24
    prefixes = []
    trie = HeaderTrie(width)
    for i in range(10):
        length = rng.randint(8, 24)
        p = Prefix(rng.getrandbits(length), length)
        prefixes.append(p)
        trie.insert_header(p, (f"r{i}", 0))
    cells = interval_partition(prefixes, width)
    assert sorted(leaf_ranges(trie)) == sorted(cells)


# ----------------------------------------------------------------------
# deletion

def test_delete_only_rule_empties_trie():
    trie = build(3, [("01/2", ("U", 1))])
    trie.delete_header(pfx("01/2"), ("U", 1))
    assert trie.snapshot() == HeaderTrie(3).snapshot()
    assert trie.num_leaves == 0


def test_delete_missing_raises():
    trie = build(3, [("01/2", ("U", 1))])
    with pytest.raises(NotFound):
        trie.delete_header(pfx("01/2"), ("U", 0))
    with pytest.raises(NotFound):
        trie.delete_header(pfx("00/2"), ("U", 1))


def test_insert_delete_roundtrip_random_order():
    rng = random.Random(21)
    rules = []
    for i in range(24):
        length = rng.randint(1, 8)
        rules.append((Prefix(rng.getrandbits(length), length), (f"r{i % 5}", i % 3)))
    trie = HeaderTrie(8)
    inserted = []
    for p, owner in rules:
        node = trie._walk(p)
        if node is not None and node[-1].owners.get(owner[0]) is not None:
            continue  # same router would replace; keep the round trip exact
        trie.insert_header(p, owner)
        inserted.append((p, owner))
    rng.shuffle(inserted)
    for p, owner in inserted:
        trie.delete_header(p, owner)
    assert trie.snapshot() == HeaderTrie(8).snapshot()


def test_delete_overlapping_rule_repartitions():
    trie = build(3, [("0/1", ("Q", 0)), ("000/3", ("U", 0))])
    assert sorted(str(p) for p, _, _ in trie.leaf_entries()) == \
        ["000/3", "001/3", "01/2"]
    trie.delete_header(pfx("0/1"), ("Q", 0))
    cells = interval_partition([pfx("000/3")], 3)
    assert sorted(leaf_ranges(trie)) == sorted(cells)
    trie2 = build(3, [("0/1", ("Q", 0)), ("000/3", ("U", 0))])
    trie2.delete_header(pfx("000/3"), ("U", 0))
    assert sorted(leaf_ranges(trie2)) == sorted(interval_partition([pfx("0/1")], 3))


# ----------------------------------------------------------------------
# materialization

def test_materialize_counts_single_completion():
    trie = HeaderTrie(3)
    for text, owner in [("000/3", ("U", 0)), ("01/2", ("U", 1)),
                        ("1/1", ("R", 0)), ("0/1", ("Q", 0))]:
        trie.insert_header(pfx(text), owner, materialize=False)
    created = trie.materialize_iatomic()
    assert created == 1
    assert [str(p) for p, label, _ in trie.leaf_entries() if label == Label.IATOMIC] \
        == ["001/3"]


def test_materialize_disjoint_atomics_creates_nothing():
    trie = build(4, [("00/2", ("A", 0)), ("01/2", ("B", 0)), ("10/2", ("C", 0))])
    assert trie.materialize_iatomic() == 0


def test_materialize_deep_chain_one_per_level():
    trie = HeaderTrie(4)
    trie.insert_header(Prefix(0, 1), ("Q", 0), materialize=False)
    trie.insert_header(Prefix(0, 4), ("U", 0), materialize=False)
    created = trie.materialize_iatomic()
    assert created == 3
    got = {str(p) for p, label, _ in trie.leaf_entries() if label == Label.IATOMIC}
    assert got == {"0001/4", "001/3", "01/2"}
    # the leaves cover exactly 0/1's range
    union = sorted(leaf_ranges(trie))
    assert union == [(0, 0), (1, 1), (2, 3), (4, 7)]


# ----------------------------------------------------------------------
# affected sets

def test_affected_matches_worked_example():
    trie = build(3, [("00/2", ("Y", 0)), ("000/3", ("U", 0)),
                     ("01/2", ("U", 0)), ("1/1", ("R", 2))])
    trie.insert_header(pfx("0/1"), ("Q", 0))
    aff = trie.compute_affected(pfx("0/1"))
    assert [str(p) for p in aff.classes] == ["000/3", "001/3", "01/2"]
    assert aff.p_affected == {("Y", 0), ("U", 0), ("Q", 0)}


def test_affected_isolated_leaf():
    trie = build(3, [("00/2", ("A", 0)), ("1/1", ("B", 1))])
    aff = trie.compute_affected(pfx("1/1"))
    assert [str(p) for p in aff.classes] == ["1/1"]
    assert aff.p_affected == {("B", 1)}


def test_affected_missing_node():
    trie = build(3, [("00/2", ("A", 0))])
    with pytest.raises(NodeMissing):
        trie.compute_affected(pfx("11/2"))
    clamped = trie.compute_affected(pfx("11/2"), clamp=True)
    assert [str(p) for p in clamped.classes] == ["00/2"]


def test_affected_equals_interval_overlap_oracle():
    rng = random.Random(3)
    for _ in range(40):
        width = 8
        trie = HeaderTrie(width)
        prefixes = []
        for i in range(rng.randint(2, 12)):
            length = rng.randint(1, width)
            p = Prefix(rng.getrandbits(length), length)
            prefixes.append(p)
            trie.insert_header(p, (f"r{i % 4}", i % 3))
        target = rng.choice(prefixes)
        aff = trie.compute_affected(target)
        t_lo, t_hi = target.range(width)
        expect = [rng_ for rng_ in leaf_ranges(trie)
                  if not (rng_[1] < t_lo or rng_[0] > t_hi)]
        assert sorted(aff.class_ranges) == sorted(expect)


def test_one_walk_over_many_prefixes_equals_merged_sets():
    from netvec.verify import merge_affected

    rng = random.Random(9)
    for _ in range(40):
        width = 8
        trie = HeaderTrie(width)
        prefixes = []
        for i in range(rng.randint(2, 12)):
            length = rng.randint(1, width)
            p = Prefix(rng.getrandbits(length), length)
            prefixes.append(p)
            trie.insert_header(p, (f"r{i % 4}", i % 3))
            if rng.random() < 0.3:
                trie.insert_acl(p, f"r{i % 4}", False)
        # updated prefixes: existing, nested, repeated and missing ones
        targets = rng.sample(prefixes, rng.randint(1, len(prefixes)))
        targets += [Prefix(rng.getrandbits(6), 6) for _ in range(2)] + targets[:1]
        merged = merge_affected([trie.compute_affected(p, clamp=True) for p in targets])
        walked = trie.compute_affected(*targets, clamp=True)
        assert walked.classes == merged.classes
        assert walked.class_ranges == merged.class_ranges
        assert walked.chains == merged.chains
        assert walked.p_affected == merged.p_affected


HEADER_OPS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "acl", "xform"]),
                                st.integers(0, 4), st.integers(0, 15),
                                st.integers(0, 2)), max_size=30)


@settings(max_examples=300, deadline=None)
@given(HEADER_OPS)
def test_leaf_entries_equal_root_affected_classes(ops):
    """The labelled leaves are the classes a root walk collects, whatever
    mix of forwarding, ACL-only and rewrite-only rules (/0 included) built
    and thinned the trie; an empty trie has no class."""
    width = 4
    trie = HeaderTrie(width)
    rules: dict[tuple[Prefix, str], int] = {}     # forwarding rules present
    others = False                                 # any ACL or rewrite entry
    for op, length, value, k in ops:
        p = Prefix(value >> (width - length), length)
        router = f"r{k}"
        if op == "insert":
            trie.insert_header(p, (router, k))
            rules[(p, router)] = k
        elif op == "delete" and rules:
            (q, r), port = list(rules.items())[value % len(rules)]
            trie.delete_header(q, (r, port))
            del rules[(q, r)]
        elif op == "acl":
            trie.insert_acl(p, router, bool(k % 2))
            others = True
        elif op == "xform":
            trie.insert_transform(p, router, Prefix(0, length))
            others = True
        entries = trie.leaf_entries()
        if rules or others:
            classes = trie.compute_affected(ROOT).classes
            assert [q for q, _, _ in entries] == list(classes)
            assert trie.num_leaves == len(classes)
        else:
            assert entries == [] and trie.num_leaves == 0


def test_affected_visit_bound():
    trie = build(3, [("00/2", ("Y", 0)), ("000/3", ("U", 0)),
                     ("01/2", ("U", 0)), ("1/1", ("R", 2)), ("0/1", ("Q", 0))])
    trie.compute_affected(pfx("0/1"))
    # root path (2 nodes incl. root) plus the subtree of node 0 (5 nodes)
    assert trie.last_affected_visits <= trie.width + 7


def test_root_affected_covers_everything():
    trie = build(3, [("00/2", ("Y", 0)), ("1/1", ("R", 0))])
    aff = trie.compute_affected(ROOT)
    assert [str(p) for p in aff.classes] == ["00/2", "1/1"]


def test_affected_sets_share_each_leaf_prefix():
    trie = build(3, [("00/2", ("Y", 0)), ("1/1", ("R", 0))])
    first = trie.compute_affected(ROOT).classes
    trie.insert_header(pfx("01/2"), ("Y", 1))
    second = trie.compute_affected(ROOT).classes
    assert [str(p) for p in second] == ["00/2", "01/2", "1/1"]
    assert second[0] is first[0] and second[2] is first[1]


# ----------------------------------------------------------------------
# invariants

@st.composite
def rule_sets(draw):
    n = draw(st.integers(1, 14))
    rules = []
    for i in range(n):
        length = draw(st.integers(1, 6))
        value = draw(st.integers(0, (1 << length) - 1))
        rules.append((Prefix(value, length), (f"r{i % 4}", i % 3)))
    return rules


@settings(max_examples=120, deadline=None)
@given(rule_sets())
def test_partition_property(rules):
    width = 6
    trie = HeaderTrie(width)
    seen = {}
    for p, owner in rules:
        if p in seen:
            continue
        seen[p] = owner
        trie.insert_header(p, owner)
    ranges = sorted(leaf_ranges(trie))
    for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
        assert hi1 < lo2  # pairwise disjoint
    covered = set()
    for lo, hi in ranges:
        covered.update(range(lo, hi + 1))
    expected = set()
    for p in seen:
        lo, hi = p.range(width)
        expected.update(range(lo, hi + 1))
    assert covered == expected
    assert sorted(ranges) == sorted(interval_partition(list(seen), width))


@st.composite
def update_scripts(draw):
    ops = []
    for _ in range(draw(st.integers(1, 20))):
        length = draw(st.integers(1, 5))
        value = draw(st.integers(0, (1 << length) - 1))
        router = draw(st.sampled_from(["a", "b", "c"]))
        ops.append((draw(st.booleans()), Prefix(value, length), router,
                    draw(st.integers(0, 2))))
    return ops


@settings(max_examples=100, deadline=None)
@given(update_scripts())
def test_partition_under_mixed_updates(ops):
    width = 5
    trie = HeaderTrie(width)
    live: dict[Prefix, dict[str, int]] = {}
    for is_insert, prefix, router, port in ops:
        if is_insert:
            trie.insert_header(prefix, (router, port))
            live.setdefault(prefix, {})[router] = port
        else:
            current = live.get(prefix, {}).get(router)
            if current is None:
                continue
            trie.delete_header(prefix, (router, current))
            del live[prefix][router]
            if not live[prefix]:
                del live[prefix]
        expect = interval_partition(list(live), width)
        assert sorted(leaf_ranges(trie)) == expect


@settings(max_examples=60, deadline=None)
@given(rule_sets())
def test_iatomic_size_bound(rules):
    trie = HeaderTrie(6)
    n_rules = 0
    seen = set()
    for p, owner in rules:
        if p in seen:
            continue
        seen.add(p)
        trie.insert_header(p, owner)
        n_rules += 1
    assert trie.iatomic_count <= trie.width * n_rules


def test_leaf_ids_contiguous_and_deterministic():
    rules = [("0/1", ("Q", 0)), ("000/3", ("U", 0)), ("1/1", ("R", 0))]
    a = build(3, rules)
    b = build(3, rules)
    ea, eb = a.leaf_entries(), b.leaf_entries()
    assert ea == eb
    assert [i for _, _, i in ea] == list(range(len(ea)))
    a.delete_header(pfx("000/3"), ("U", 0))
    ids = [i for _, _, i in a.leaf_entries()]
    assert ids == list(range(len(ids)))


def test_trie_snapshot_transferable_between_threads():
    import copy
    import threading

    trie = build(3, [("0/1", ("Q", 0)), ("000/3", ("U", 0))])
    clone = copy.deepcopy(trie)
    results = []

    def probe():
        results.append(clone.compute_affected(pfx("0/1")).classes)

    threads = [threading.Thread(target=probe) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    trie.insert_header(pfx("11/2"), ("Z", 1))  # original mutates independently
    assert clone.num_leaves != trie.num_leaves


def test_chains_read_owner_maps_as_captured():
    """Owner maps are edited in place (and now and then replaced); every
    chain captured along the way still reads each node's map, and each
    router's port, as it was."""
    rng = random.Random(5)
    trie = HeaderTrie(8)
    prefixes = [pfx("0/1", 8), pfx("01/2", 8), pfx("0110/4", 8), pfx("1/1", 8)]
    routers = [f"r{i}" for i in range(6)]
    captured = []
    for step in range(1200):        # ~300 writes a prefix: many log restarts
        p, r = rng.choice(prefixes), rng.choice(routers)
        now = trie.port(p, r)
        if now is not None and rng.random() < 0.4:
            trie.delete_header(p, (r, now))
        elif rng.random() < 0.05:                   # replaces the map wholesale
            trie.insert_owners(p, {r: rng.randrange(4)})
        else:
            trie.insert_header(p, (r, rng.randrange(4)))
        if step % 40 == 0:
            aff = trie.compute_affected(ROOT)
            captured.append((aff, [[dict(e[0]) for e in chain] for chain in aff.chains]))
    assert 300 > 3 * (len(routers) + LOG_SLACK)
    for aff, maps in captured:
        for chain, want in zip(aff.chains, maps):
            assert [chain_owners(e) for e in chain] == want
            for entry, owners in zip(chain, want):
                assert [chain_port(entry, r) for r in routers] == \
                    [owners.get(r) for r in routers]


def test_write_cost_does_not_grow_with_owners():
    """A write edits the owner map in place: its cost does not follow the
    number of routers that share the prefix, even while a chain holds the map."""
    def median_pair_ns(owners: int) -> float:
        trie = HeaderTrie(16)
        p = pfx("1010/4", 16)
        trie.insert_owners(p, {f"r{i}": 1 for i in range(owners)})
        live = trie.compute_affected(p)
        times = []
        for i in range(2001):
            r = f"r{i % owners}"
            t0 = time.perf_counter_ns()
            trie.delete_header(p, (r, 1))
            trie.insert_header(p, (r, 1))
            times.append(time.perf_counter_ns() - t0)
        assert chain_owners(live.chains[0][-1]) == {f"r{i}": 1 for i in range(owners)}
        return statistics.median(times)

    small, large = median_pair_ns(100), median_pair_ns(10_000)
    assert large <= 3 * small, (small, large)
