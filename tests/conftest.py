"""Shared builders: golden toy networks and randomized small networks."""

from __future__ import annotations

import random

import pytest

from netvec.dataset import NetworkSpec, generate_synthetic
from netvec.prefixes import Prefix, parse_prefix

# The four-router toy network: Y reaches R through U; the update under test
# inserts (Q, 0/1, port 0). Header classes are {000/3, 001/3, 01/2, 1/1},
# with 001/3 induced by the 00/2 supernet.
TOY_NETWORK = """\
WIDTH 3
NODE Y
NODE U
NODE Q
NODE R
EDGE Y 0 U 1
EDGE U 0 R 0
EDGE Q 0 U 2
RULE Y 00/2 0
RULE U 000/3 0
RULE U 01/2 0
RULE R 1/1 2
"""

# Rectification scenario: Y forwards 01/2 toward U, U toward Q, but Q only
# forwards 00/2 toward R, so R is unreachable until a rule is synthesized.
RECT_NETWORK = """\
WIDTH 3
NODE Y
NODE U
NODE Q
NODE R
EDGE Y 0 U 0
EDGE U 1 Q 0
EDGE Q 1 R 0
RULE Y 01/2 0
RULE U 01/2 1
RULE Q 00/2 1
RULE R 1/1 2
"""

# A chain A - B - C - D whose first hop carries a PBR rule: a fix for 0/1
# toward D would insert 00/2 at B and then 0/1 at C, which is protected.
PBR_NETWORK = """\
WIDTH 2
NODE A
NODE B
NODE C
NODE D
EDGE A 0 B 0
EDGE B 1 C 0
EDGE C 1 D 0
PBR A 0/1 0
RULE B 01/2 1
RULE D 0/1 5
"""

SMALL_MASKS = {2: 1, 3: 2, 4: 3, 5: 3, 6: 2}


def pfx(text: str, width: int = 3) -> Prefix:
    return parse_prefix(text, width)


def random_small_network(seed: int, *, width: int = 8, max_nodes: int = 16,
                         gap_fraction: float = 0.0, back_edges: int = 0,
                         n_acls: int = 0, n_transforms: int = 0) -> NetworkSpec:
    """Small random network for oracle-equivalence suites.

    Starts from a shortest-path-configured synthetic network, then optionally
    punches rule gaps, injects back-edge rules (loop fodder), ACL entries,
    and header rewrites.
    """
    rng = random.Random(seed)
    nodes = rng.randint(4, max_nodes)
    max_edges = nodes * (nodes - 1) // 2
    edges = min(max_edges, nodes - 1 + rng.randint(0, nodes))
    prefixes_total = rng.randint(3, 12)
    spec = generate_synthetic(nodes, edges, prefixes_total,
                              mask_distribution=SMALL_MASKS,
                              seed=rng.randrange(2**31), width=width)
    all_rules = [(r, p) for r, table in spec.rules.items() for p in table]
    rng.shuffle(all_rules)
    n_gaps = int(len(all_rules) * gap_fraction)
    for r, p in all_rules[:n_gaps]:
        del spec.rules[r][p]

    if back_edges:
        ports_of = {}
        for a, pa, b, pb in spec.edges:
            ports_of.setdefault(a, []).append(pa)
            ports_of.setdefault(b, []).append(pb)
        known = sorted({p for t in spec.rules.values() for p in t},
                       key=lambda p: (p.value, p.length))
        for _ in range(back_edges):
            router = rng.choice(spec.routers)
            if not ports_of.get(router) or not known:
                continue
            port = rng.choice(ports_of[router])
            spec.rules[router][rng.choice(known)] = port

    if n_acls:
        known = sorted({p for t in spec.rules.values() for p in t},
                       key=lambda p: (p.value, p.length))
        for _ in range(n_acls):
            router = rng.choice(spec.routers)
            target = rng.choice(known)
            spec.acls.setdefault(router, {})[target] = rng.random() < 0.3

    if n_transforms:
        known = sorted({p for t in spec.rules.values() for p in t},
                       key=lambda p: (p.value, p.length))
        for _ in range(n_transforms):
            router = rng.choice(spec.routers)
            match = rng.choice(known)
            out = Prefix(rng.getrandbits(match.length), match.length)
            if out == match:
                continue
            spec.transforms.setdefault(router, {})[match] = out
    return spec


def naive_lpm(tables: dict, width: int, router: str, header: int):
    """Reference longest-prefix match over raw tables (port or None)."""
    best, best_len = None, -1
    for prefix, port in tables.get(router, {}).items():
        lo, hi = prefix.range(width)
        if lo <= header <= hi and prefix.length > best_len:
            best, best_len = port, prefix.length
    return best


def headers_of(prefixes, width: int) -> set[int]:
    out = set()
    for p in prefixes:
        lo, hi = p.range(width)
        out.update(range(lo, hi + 1))
    return out


@pytest.fixture
def toy_spec():
    from netvec.dataset import parse_network
    return parse_network(TOY_NETWORK)


@pytest.fixture
def rect_spec():
    from netvec.dataset import parse_network
    return parse_network(RECT_NETWORK)
