"""Seeded inputs for the three benchmark workloads.

Every input comes from one `random.Random` per purpose, derived from the
`--seed` argument, so a seed always yields the same network text, the same
event stream, the same queries and the same repair intents. The generated
`NetworkSpec` stays with the benchmark as ground truth for the answer checks;
netvec itself only ever receives the serialized text and the events.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field

from netvec.dataset import NetworkSpec, UpdateEvent, generate_synthetic, serialize_network
from netvec.prefixes import Prefix

MASKS_16 = {8: 1, 10: 2, 12: 4, 14: 6, 16: 8}
QUERY_MIX = ("reach", "loop", "reach", "blackhole")


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def _sort_key(p: Prefix):
    return (p.value, p.length)


def _rule_keys(spec: NetworkSpec) -> list[tuple[str, Prefix]]:
    return [(r, p) for r in spec.routers for p in sorted(spec.rules[r], key=_sort_key)]


def add_policy(spec: NetworkSpec, rng: random.Random, acls: int, rewrites: int,
               rewrite_routers: int | None = None) -> None:
    """ACL entries and header rewrites on prefixes that already carry rules;
    rewrites sit on `rewrite_routers` random routers (default: any router)."""
    known = sorted({p for t in spec.rules.values() for p in t}, key=_sort_key)
    for _ in range(acls):
        router = rng.choice(spec.routers)
        spec.acls.setdefault(router, {})[rng.choice(known)] = rng.random() < 0.3
    hosts = rng.sample(spec.routers, rewrite_routers) if rewrite_routers else spec.routers
    added = 0
    while added < rewrites:
        router = rng.choice(hosts)
        match = rng.choice(known)
        out = Prefix(rng.getrandbits(match.length), match.length)
        if out == match or match in spec.transforms.get(router, {}):
            continue
        spec.transforms.setdefault(router, {})[match] = out
        added += 1


def withhold(spec: NetworkSpec, rng: random.Random, count: int) -> list[tuple[str, Prefix, int]]:
    """Remove `count` random rules from the spec and return them."""
    taken = rng.sample(_rule_keys(spec), count)
    return [(r, p, spec.rules[r].pop(p)) for r, p in taken]


class Churn:
    """Endless insert/delete stream over withheld rules.

    Each event picks a withheld rule at random: it is re-inserted with its
    original port when absent and deleted when present, so no event can
    fail however many the run consumes.
    """

    def __init__(self, withheld: list[tuple[str, Prefix, int]], rng: random.Random):
        self.withheld = withheld
        self.rng = rng
        self.present: set[int] = set()
        self.seq = 0

    def next(self) -> UpdateEvent:
        i = self.rng.randrange(len(self.withheld))
        router, prefix, port = self.withheld[i]
        op = "delete" if i in self.present else "insert"
        self.present.symmetric_difference_update((i,))
        self.seq += 1
        return UpdateEvent(op, router, prefix, port, self.seq)

    def take(self, n: int) -> list[UpdateEvent]:
        return [self.next() for _ in range(n)]


def homes(spec: NetworkSpec) -> dict[Prefix, str]:
    """prefix -> the router that delivers it on a host-facing port."""
    linked = {(a, pa) for a, pa, _, _ in spec.edges} | {(b, pb) for _, _, b, pb in spec.edges}
    return {p: r for r in spec.routers for p, port in spec.rules[r].items()
            if (r, port) not in linked}


def _adjacency(spec: NetworkSpec) -> dict[str, list[tuple[int, str]]]:
    adj: dict[str, list[tuple[int, str]]] = {r: [] for r in spec.routers}
    for a, pa, b, pb in spec.edges:
        adj[a].append((pa, b))
        adj[b].append((pb, a))
    for entries in adj.values():
        entries.sort()
    return adj


def _route_to(spec: NetworkSpec, adj, dst: str, prefix: Prefix) -> None:
    """Shortest-path rules for `prefix` at every router, delivered at `dst`."""
    toward = {dst: None}
    queue = deque([dst])
    while queue:
        u = queue.popleft()
        for port, v in adj[u]:
            if v not in toward:
                toward[v] = next(p for p, w in adj[v] if w == u)
                queue.append(v)
    for r in spec.routers:
        host_port = 1 + max((p for p, _ in adj[r]), default=-1)
        spec.rules[r][prefix] = host_port if r == dst else toward[r]


@dataclass(frozen=True)
class Intent:
    src: str
    dst: str
    prefix: Prefix
    port: int                  # the source's rule for `prefix`, deleted by the cycle


def add_intents(spec: NetworkSpec, rng: random.Random, count: int,
                exclude: set[Prefix] = frozenset()) -> list[Intent]:
    """Full-length prefixes that no rule, ACL, rewrite match or rewrite
    target contains (nor any prefix in `exclude`), routed to a random home;
    a one-rule fix at the source always restores them after the source's
    rule is deleted."""
    width = spec.width
    used = set(exclude) | {p for t in spec.rules.values() for p in t}
    used |= {p for t in spec.acls.values() for p in t}
    for t in spec.transforms.values():
        used |= set(t) | set(t.values())

    def covered(header: int) -> bool:
        return any(Prefix(header >> (width - n), n) in used for n in range(width + 1))

    adj = _adjacency(spec)
    intents = []
    while len(intents) < count:
        header = rng.getrandbits(width)
        if covered(header):
            continue
        prefix = Prefix(header, width)
        used.add(prefix)
        dst = rng.choice(spec.routers)
        src = rng.choice([r for r in spec.routers if r != dst])
        _route_to(spec, adj, dst, prefix)
        intents.append(Intent(src, dst, prefix, spec.rules[src][prefix]))
    return intents


# ----------------------------------------------------------------------
# workloads

@dataclass
class Inputs:
    workload: str
    seed: int
    spec: NetworkSpec                                   # ground truth for the checks
    text: str = ""                                      # all netvec parses
    withheld: list[tuple[str, Prefix, int]] = field(default_factory=list)
    intents: list[Intent] = field(default_factory=list)
    homes: dict[Prefix, str] = field(default_factory=dict)

    def churn(self) -> Churn:
        return Churn(self.withheld, _rng(self.seed, "churn"))

    def queries(self):
        """Endless (kind, src, dst) query mix for whole_network."""
        rng = _rng(self.seed, "queries")
        routers = self.spec.routers
        while True:
            for kind in QUERY_MIX:
                src, dst = rng.sample(routers, 2)
                yield kind, src, dst

    def digest(self, events: int = 2000) -> str:
        """Hash of everything netvec receives, for reproducibility checks."""
        h = hashlib.sha256(self.text.encode())
        churn = self.churn()
        if self.withheld:
            for _ in range(events):
                ev = churn.next()
                h.update(f"{ev.op} {ev.router} {ev.prefix} {ev.port}\n".encode())
        for it in self.intents:
            h.update(f"{it.src} {it.dst} {it.prefix} {it.port}\n".encode())
        if self.workload == "whole_network":
            queries = self.queries()
            for _ in range(events):
                h.update(repr(next(queries)).encode())
        return h.hexdigest()


# Sizes: update_stream keeps the c09 shape per update (1000 routers, every
# router owning a rule for every prefix) with fewer prefixes, so set-up stays
# a few seconds; the other two follow the width-16 shapes of their workloads.
SIZES = {
    "update_stream": dict(nodes=1000, edges=100_000, prefixes=200, withheld=2000),
    "whole_network": dict(nodes=120, edges=480, prefixes=1500, acls=40, rewrites=12,
                          gap=0.02),
    # repair: rewrites on one border router (as a NAT would be); see README
    "repair": dict(nodes=14, edges=60, prefixes=200, acls=10, rewrites=4, rewrite_routers=1,
                   withheld=600, intents=96),
}


def make_inputs(workload: str, seed: int, **overrides) -> Inputs:
    p = dict(SIZES[workload], **overrides)
    if workload == "update_stream":
        spec = generate_synthetic(p["nodes"], p["edges"], p["prefixes"], seed=seed, width=32)
        home = homes(spec)
        withheld = withhold(spec, _rng(seed, "withhold"), p["withheld"])
        return Inputs(workload, seed, spec, serialize_network(spec), withheld=withheld,
                      homes=home)
    spec = generate_synthetic(p["nodes"], p["edges"], p["prefixes"],
                              mask_distribution=MASKS_16, seed=seed, width=16)
    rng = _rng(seed, "policy")
    add_policy(spec, rng, p["acls"], p["rewrites"], p.get("rewrite_routers"))
    if workload == "whole_network":
        n_gaps = int(spec.rule_count * p["gap"])
        withhold(spec, rng, n_gaps)
        return Inputs(workload, seed, spec, serialize_network(spec))
    if workload == "repair":
        withheld = withhold(spec, rng, p["withheld"])
        intents = add_intents(spec, rng, p["intents"], {q for _, q, _ in withheld})
        return Inputs(workload, seed, spec, serialize_network(spec),
                      withheld=withheld, intents=intents)
    raise ValueError(f"unknown workload {workload!r}")
