"""NetworkState keeps its forwarding rules in the trie alone; these tests
check the views derived from it against a plain reference."""

import copy
import random
from dataclasses import replace

import pytest

from netvec.dataset import UpdateEvent
from netvec.errors import NotFound, PbrProtected
from netvec.prefixes import Prefix
from netvec.verify import NetworkState, batch_update, whatif_link_down

from conftest import random_small_network


def _key(p: Prefix):
    return (p.value, p.length)


def _homes_of(tables, routers, peers):
    """Each prefix's home from plain tables: the first router, in router
    order, whose rule for it uses a host-facing port."""
    homes = {}
    for r in routers:
        for p, port in tables[r].items():
            if port not in peers[r]:
                homes.setdefault(p, r)
    return homes


def _network(seed):
    spec = random_small_network(seed, gap_fraction=0.2, back_edges=1,
                                n_acls=2, n_transforms=2)
    rng = random.Random(seed)
    rules = [(r, p) for r in spec.routers for p in sorted(spec.rules[r], key=_key)]
    spec.pbr = set(rng.sample(rules, min(2, len(rules))))
    return spec


def _random_prefix(rng, known, width):
    if known and rng.random() < 0.7:
        return rng.choice(known)
    length = rng.randint(1, width)
    return Prefix(rng.getrandbits(length), length)


def _rules(mirror):
    return [(r, p, port) for r in sorted(mirror)
            for p, port in sorted(mirror[r].items(), key=lambda kv: _key(kv[0]))]


def test_derived_views_equal_a_plain_mirror():
    """Random inserts, port replacements, deletes, refused updates, failed
    batches and what-ifs: after each step the derived `tables`, `homes`,
    `home_of` and `spec.rules` equal a dict-of-dicts kept beside the state,
    and the caller's spec never changes."""
    for seed in range(24):
        spec = _network(seed)
        before = copy.deepcopy(spec)
        state = NetworkState.from_spec(spec)
        mirror = copy.deepcopy(spec.rules)
        protected = spec.protected_prefixes()
        peers = state.topology.peers
        known = sorted({p for t in spec.rules.values() for p in t}, key=_key)
        rng = random.Random(f"{seed}:steps")
        seq = 0
        for step in range(40):
            kind = rng.choice(("insert", "replace", "delete", "delete", "batch", "whatif"))
            rules = _rules(mirror)
            if kind == "replace" and rules:
                r, p, port = rng.choice(rules)
                kind, port = "insert", port + rng.randint(1, 2)
            elif kind == "insert" or not rules:
                kind, r = "insert", rng.choice(spec.routers)
                p, port = _random_prefix(rng, known, spec.width), rng.randrange(4)
            if kind in ("insert", "delete"):
                if kind == "delete":
                    r, p, port = rng.choice(rules)
                    if rng.random() < 0.2:
                        port += 1               # no such rule
                ev = UpdateEvent(kind, r, p, port, seq)
                if p in protected:
                    with pytest.raises(PbrProtected):
                        state.apply_update(ev)
                elif kind == "delete" and mirror[r].get(p) != port:
                    with pytest.raises(NotFound):
                        state.apply_update(ev)
                else:
                    state.apply_update(ev)
                    if kind == "insert":
                        mirror[r][p] = port
                    else:
                        del mirror[r][p]
            elif kind == "batch":
                r, p, port = rng.choice(rules)
                events = [UpdateEvent("insert", rng.choice(spec.routers),
                                      _random_prefix(rng, known, spec.width), 0, seq),
                          UpdateEvent("delete", r, p, port + 1, seq + 1)]
                with pytest.raises((NotFound, PbrProtected)):
                    batch_update(state, events, *rng.sample(spec.routers, 2))
            else:
                whatif_link_down(state, rng.choice(spec.edges), *rng.sample(spec.routers, 2))
            seq += 2
            homes = _homes_of(mirror, spec.routers, peers)
            assert state.tables == mirror, (seed, step)
            assert state.homes == homes, (seed, step)
            assert all(state.home_of(p) == r for p, r in homes.items()), (seed, step)
            assert state.spec.rules == mirror, (seed, step)
        assert spec == before, seed
        # `spec` is the loaded spec with the current rules, nothing else changed
        assert replace(state.spec, rules=before.rules) == before, seed


def _shape_unchanged_by_alignment(state):
    snap = state.trie.snapshot()
    state._align_transforms()
    return state.trie.snapshot() == snap


def test_updates_that_keep_the_shape_need_no_alignment():
    """An update that reports no shape change skips rewrite alignment; a
    full alignment afterwards must find nothing to add. The same holds after
    `undo`, which aligns only when an undone event changed the shape."""
    kept = changed = 0
    for seed in range(150):
        spec = random_small_network(seed, gap_fraction=0.2, n_transforms=3)
        if not spec.transforms:
            continue
        state = NetworkState.from_spec(spec)
        known = sorted({p for t in spec.rules.values() for p in t}, key=_key)
        rng = random.Random(f"{seed}:shape")
        for i in range(60):
            rules = _rules(state.tables)
            if rules and rng.random() < 0.5:
                r, p, port = rng.choice(rules)
                ev = UpdateEvent("delete", r, p, port, i)
            else:
                ev = UpdateEvent("insert", rng.choice(spec.routers),
                                 _random_prefix(rng, known, spec.width), rng.randrange(3), i)
            if rng.random() < 0.25:
                log = state.apply_updates([ev])
                state.undo(log)
                assert _shape_unchanged_by_alignment(state), (seed, i)
                continue
            outcome = state.apply_update(ev)
            if outcome.shape_changed:
                changed += 1
            else:
                kept += 1
                assert _shape_unchanged_by_alignment(state), (seed, i)
    assert kept > 100 and changed > 100
