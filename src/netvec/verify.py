"""Verification sessions and dataplane queries.

A session covers the affected classes of one update (or the whole header
space) and resolves, per router and on first visit, the per-port forwarding
masks from longest-prefix match and the ACL/rewrite structures. Queries
propagate a state vector hop by hop: filter, then rewrite, then project onto
the outgoing port, and fold the per-path results into reachability, loop,
blackhole, or policy answers.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections import deque
from dataclasses import dataclass, replace

from .dataset import NetworkSpec, UpdateEvent
from .errors import (AlignmentDiverged, DimensionMismatch, InfeasibleParameters,
                     PbrProtected, UnknownLink, UnknownRouter)
from .prefixes import ROOT, Prefix
from .trie import AffectedSets, HeaderTrie, UpdateOutcome, chain_port
from .vectors import (ForwardingVector, StateVector, TransformMatrix,
                      apply_transform, mask_of)


@dataclass
class Topology:
    """The links of a network. ``peers[r][port]`` is the router at the other
    end of `r`'s linked `port`. Every router has an entry, so ``r in peers``
    tells a router from an unknown name, and a port absent from ``peers[r]``
    is host-facing. ``edges`` is the spec's own list, not a copy."""
    edges: list[tuple[str, int, str, int]]
    peers: dict[str, dict[int, str]]

    @classmethod
    def from_spec(cls, spec: NetworkSpec) -> "Topology":
        peers: dict[str, dict[int, str]] = {r: {} for r in spec.routers}
        for a, pa, b, pb in spec.edges:
            peers[a][pa] = b
            peers[b][pb] = a
        return cls(edges=spec.edges, peers=peers)

    def find_edge(self, a: str, pa: int, b: str, pb: int):
        for edge in self.edges:
            if edge == (a, pa, b, pb) or edge == (b, pb, a, pa):
                return edge
        raise UnknownLink(f"no link {a}:{pa}-{b}:{pb}")


# ----------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class PathResult:
    path: tuple[str, ...]
    b_final: StateVector
    per_hop_errors: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class ReachabilityReport:
    reachable: frozenset[Prefix]
    per_path: tuple[PathResult, ...]
    total_paths: int
    paths_explored: int
    truncated: bool
    reachable_vector: StateVector


@dataclass(frozen=True)
class LoopReport:
    cycle: tuple[str, ...] | None
    headers: frozenset[Prefix]

    @property
    def found(self) -> bool:
        return self.cycle is not None


@dataclass(frozen=True)
class BlackholeReport:
    router: str
    headers: frozenset[Prefix]


@dataclass(frozen=True)
class PolicyViolation:
    path: tuple[str, ...]
    constraint: str


@dataclass(frozen=True)
class PolicyReport:
    violations: tuple[PolicyViolation, ...]


@dataclass(frozen=True)
class WhatIfResult:
    triggered_deletions: int
    report: ReachabilityReport


# ----------------------------------------------------------------------
# session

def _set_bits(mask: int) -> list[int]:
    """Indices of the set bits of `mask`, ascending.

    Peels up to 16 bits from the top (each step shrinks the int, so a
    sparse mask costs a few word operations) and reads what is left, if
    anything, from one binary string, whose cost follows the width.
    """
    high = []
    for _ in range(16):
        if not mask:
            high.reverse()
            return high
        j = mask.bit_length() - 1
        high.append(j)
        mask ^= 1 << j
    text = bin(mask)[:1:-1]             # least significant bit first
    out = []
    i = text.find("1")
    while i >= 0:
        out.append(i)
        i = text.find("1", i + 1)
    high.reverse()
    out += high
    return out


class RouterMemo:
    """What a session has resolved for one router.

    ``pending`` marks the classes not resolved yet (the complement of the
    resolved-class mask, so a hop tests it with one AND); the other fields
    cover every resolved class and only grow. ``by_port`` maps each port to
    its mask in ascending port order and ``keys`` holds the ``(router,
    port)`` pairs of every port, which a query adds to the session's
    ``touched`` set once for each router it entered. `split` reads the port
    index: ``port_of[j]`` is resolved class j's port, or -1 when no rule
    matches it, ``groups`` maps each linked port to its ``(mask,
    peer_router)``, ``linked`` is the OR of those masks and ``dropped`` the
    resolved classes no rule matches.
    ``union`` is the OR of all port masks (host-facing ports deliver, so a
    traversal never follows them), ``permit`` the classes the router's ACL
    lets through (None while no resolved class is denied) and ``xform`` the
    rewrite matrix (explicit columns for resolved rewritten classes), or
    None while no resolved class is rewritten.
    """

    __slots__ = ("pending", "by_port", "keys", "port_of", "groups", "linked",
                 "dropped", "union", "permit", "xform")

    def __init__(self, m: int):
        self.pending = (1 << m) - 1
        self.by_port: dict[int, int] = {}
        self.keys: frozenset[tuple[str, int]] = frozenset()
        self.port_of = [-1] * m
        self.groups: dict[int, tuple[int, str]] = {}
        self.linked = 0
        self.dropped = 0
        self.union = 0
        self.permit: int | None = None
        self.xform: TransformMatrix | None = None

    def split(self, bits: int) -> list[tuple[int, str]]:
        """Where the resolved classes `bits` leave over links: the
        ``(classes, peer_router)`` pair of each linked port that gets some,
        in ascending port order. Classes sent to a host-facing port are
        delivered; ``bits & dropped`` are the ones no rule matches.

        Takes the port of the highest moving class; when that port's mask
        holds all moving classes, it is the only link (the common case).
        Otherwise it walks the linked ports in ascending order and stops
        once every moving class has a port.
        """
        moving = bits & self.linked
        if not moving:
            return []
        mask, peer = self.groups[self.port_of[moving.bit_length() - 1]]
        out = moving & mask
        if out == moving:
            return [(out, peer)]
        links = []
        for mask, peer in self.groups.values():        # ascending port order
            out = moving & mask
            if out:
                links.append((out, peer))
                moving ^= out
                if not moving:
                    break
        return links


class VerificationSession:
    """Query context over one affected-set computation.

    Nothing is resolved up front: a router's port masks, ACL bits and
    rewrite columns are filled in on its first visit, for the classes live
    there, and extended when later visits carry classes not yet resolved.
    The chains it resolves from are snapshots, so answers describe the
    network as it was when the affected set was computed, whatever updates
    follow; so do the reach trees and blackhole answers it keeps per source.
    Link peers are read from the topology, which netvec never
    changes after load. Sessions may be queried from several threads: memo
    writers hold a lock and publish every other field before shrinking
    ``pending``, and readers test ``pending`` first. A reach tree node gets
    its children in one store of a finished list, so two threads may
    expand one node and either's (equal) children are kept.
    """

    def __init__(self, affected: AffectedSets, topology: Topology):
        self.affected = affected
        self.topology = topology
        self.m = affected.m
        self.classes = affected.classes
        self.has_transforms = affected.has_transforms
        self.memo: dict[str, RouterMemo] = {}
        self.touched: set[tuple[str, int]] = set()
        # per source, for queries that start with every class: the root of
        # its reach tree (see `verify_reachability`) and `detect_blackhole`'s
        # reports with the routers it entered
        self.trees: dict[str, list] = {}
        self.holes: dict[str, tuple[tuple[BlackholeReport, ...], frozenset[str]]] = {}
        self._lock = threading.Lock()
        self._starts: list[int] | None = None

    def resolve(self, router: str, bits: int) -> RouterMemo:
        """The router's memo, extended to cover the classes in `bits`."""
        with self._lock:
            memo = self.memo.get(router)
            fresh = memo is None
            if fresh:
                memo = RouterMemo(self.m)
            need = bits & memo.pending
            if need:
                self._extend(router, memo, need)
            if fresh:
                self.memo[router] = memo
        return memo

    def _extend(self, router: str, memo: RouterMemo, need: int) -> None:
        chains = self.affected.chains
        port_of = memo.port_of
        found: dict[int, list[int]] = {}      # port -> newly resolved classes
        denied: list[int] = []
        columns: dict[int, int] = {}
        for j in _set_bits(need):
            # the deepest entry naming the router wins, per kind of rule
            port = permit = out = None
            for entry in reversed(chains[j]):
                if port is None:
                    port = chain_port(entry, router)
                if permit is None:
                    permit = entry[3].get(router)
                if out is None:
                    out = entry[4].get(router)
                    if out is not None:
                        columns[j] = self._image(j, entry[5], out)
                if port is not None and permit is not None and out is not None:
                    break
            if port is not None:
                found.setdefault(port, []).append(j)
                port_of[j] = port               # no reader looks at j before pending shrinks
            if permit is not None and not permit:
                denied.append(j)
        m = self.m
        masks = dict(memo.by_port)
        routed = 0
        for port, js in found.items():
            mask = mask_of(js, m)
            masks[port] = masks.get(port, 0) | mask
            routed |= mask
        peers = self.topology.peers[router]
        by_port: dict[int, int] = {}
        groups: dict[int, tuple[int, str]] = {}
        linked = 0
        keys = []
        for port, mask in sorted(masks.items()):
            by_port[port] = mask
            keys.append((router, port))
            peer = peers.get(port)
            if peer is not None:
                groups[port] = (mask, peer)
                linked |= mask
        memo.by_port = by_port
        memo.keys = frozenset(keys)
        memo.groups = groups
        memo.linked = linked
        memo.dropped |= need & ~routed
        memo.union |= routed
        if denied:
            permit = (1 << m) - 1 if memo.permit is None else memo.permit
            memo.permit = permit & ~mask_of(denied, m)
        if columns:
            if memo.xform is not None:
                columns = {**memo.xform.columns, **columns}
            memo.xform = TransformMatrix(m, columns)
        memo.pending &= ~need

    def enter(self, router: str, bits: int) -> tuple[RouterMemo, int]:
        """One hop's prologue: the classes of `bits` that pass the router's
        ACL and then its rewrite, with the router's memo resolved for them.

        Every traversal calls this before projecting onto ports.
        """
        e = self.memo.get(router)
        if e is None or bits & e.pending:
            e = self.resolve(router, bits)
        if e.permit is not None:
            bits &= e.permit
        if e.xform is not None:
            bits = apply_transform(e.xform, StateVector(bits, self.m)).bits
            if bits & e.pending:
                e = self.resolve(router, bits)
        return e, bits

    def _image(self, j: int, match_lo: int, out: Prefix) -> int:
        """Classes covering class j's range rewritten from match to out."""
        affected = self.affected
        ranges = affected.class_ranges
        if self._starts is None:
            self._starts = [lo for lo, _ in ranges]
        starts = self._starts
        lo, hi = ranges[j]
        img_lo = (out.value << (affected.width - out.length)) + (lo - match_lo)
        img_hi = img_lo + (hi - lo)
        rows = []
        i = bisect.bisect_left(starts, img_lo)
        while i < self.m and starts[i] <= img_hi:
            if ranges[i][1] <= img_hi:
                rows.append(i)
            i += 1
        return mask_of(rows, self.m)

    def _resolve_all(self, routers) -> dict[str, RouterMemo]:
        full = (1 << self.m) - 1
        return {r: self.resolve(r, full) for r in sorted(routers)}

    @property
    def fwd_vectors(self) -> dict[tuple[str, int], ForwardingVector]:
        """Every affected port's forwarding vector (resolves every class at
        every owning router; for inspection, not used by queries)."""
        memos = self._resolve_all({r for r, _ in self.affected.p_affected})
        return {(r, p): ForwardingVector(mask, self.m, (r, p))
                for r, memo in memos.items() for p, mask in memo.by_port.items()}

    @property
    def transforms(self) -> dict[str, TransformMatrix]:
        """Every rewriting router's full rewrite matrix (for inspection)."""
        routers = {r for chain in self.affected.chains
                   for entry in chain for r in entry[4]}
        return {r: memo.xform for r, memo in self._resolve_all(routers).items()
                if memo.xform is not None}

    def all_ones(self) -> StateVector:
        return StateVector.ones(self.m)

    def query_vector(self, prefixes) -> StateVector:
        """b_init restricted to classes contained in any of `prefixes`."""
        bits = 0
        for j, c in enumerate(self.classes):
            if any(p.contains(c) for p in prefixes):
                bits |= 1 << j
        return StateVector(bits, self.m)

    def decode(self, bits: int) -> frozenset[Prefix]:
        return frozenset(map(self.classes.__getitem__, _set_bits(bits)))


# ----------------------------------------------------------------------
# traversals

def _start_bits(session: VerificationSession, routers: tuple[str, ...],
                b_init: StateVector | None) -> int:
    """Check a query's routers and initial vector; the classes it starts with."""
    for r in routers:
        if r not in session.topology.peers:
            raise UnknownRouter(r)
    m = session.m
    if b_init is None:
        return (1 << m) - 1
    if b_init.width != m:
        raise DimensionMismatch(f"b_init width {b_init.width} != {m}")
    return b_init.bits


def verify_reachability(session: VerificationSession, src: str, dst: str,
                        b_init: StateVector | None = None, *,
                        max_paths: int | None = None,
                        max_hops: int | None = None) -> ReachabilityReport:
    """Depth-first reachability over the affected ports.

    Paths are simple (no router revisited); when rewrites are active the
    pruning key is the (router, vector) pair instead, since a rewrite can
    legitimately route changed traffic back through an earlier router.
    ``max_paths`` must be at least 1 and ``max_hops`` at least 0.

    The search scans `src`'s reach tree in stack order, expanding the nodes
    no earlier query reached; it stops at `dst` nodes and builds each
    path's report from the chain of parent hops. A node is the list
    ``[router, incoming bits, hop, kids]``: ``kids`` is None until a query
    expands the node, then False if `enter` lets no class through, else the
    list of child nodes in link order. ``hop`` describes the
    parent (None at the root): ``(parent's hop, router, b1, incoming bits,
    path, states)``, where ``b1`` is what `enter` let through, ``path`` the
    routers from `src` to the parent and ``states``, when the session has
    rewrites, their ``(router, incoming bits)`` pairs. Children are pruned
    against these, so they depend only on their ancestors and serve every
    destination. The session keeps the tree of the default `b_init` in
    ``session.trees``; a custom `b_init` scans a tree that is not kept.
    """
    if max_paths is not None and max_paths < 1:
        raise InfeasibleParameters(f"max_paths must be >= 1, got {max_paths}")
    if max_hops is not None and max_hops < 0:
        raise InfeasibleParameters(f"max_hops must be >= 0, got {max_hops}")
    start = _start_bits(session, (src, dst), b_init)
    m = session.m
    if src == dst:
        vector = StateVector(start, m)
        return ReachabilityReport(
            reachable=session.decode(start), per_path=(PathResult((src,), vector, ()),),
            total_paths=1, paths_explored=1, truncated=False,
            reachable_vector=vector)
    full = start == (1 << m) - 1
    root = session.trees.get(src) if full else None
    if root is None:
        root = [src, start, None, None]
        if full:
            root = session.trees.setdefault(src, root)

    enter = session.enter
    by_state = session.has_transforms
    entered: set[str] = set()
    per_path: list[PathResult] = []
    truncated = False
    explored = 0
    stack = [root]
    while stack:
        node = stack.pop()
        explored += 1
        r, bits, hop, kids = node
        if r == dst:
            per_path.append(PathResult(hop[4] + (r,), StateVector(bits, m),
                                       _hop_errors(hop, bits)))
            if max_paths is not None and len(per_path) >= max_paths:
                truncated = True
                break
            continue
        if max_hops is not None and (len(hop[4]) if hop else 0) >= max_hops:
            truncated = True
            continue
        if kids is None:
            e, b1 = enter(r, bits)
            if b1:
                kids = []
                links = e.split(b1)
                if links:
                    path = (hop[4] if hop else ()) + (r,)
                    states = (hop[5] if hop else ()) + ((r, bits),) if by_state else ()
                    up = (hop, r, b1, bits, path, states)
                    for out, nr in links:
                        if ((nr, out) not in states) if by_state else (nr not in path):
                            kids.append([nr, out, up, None])
            else:
                kids = False
            node[3] = kids          # stored whole; racing threads store equal lists
        if kids is not False:
            entered.add(r)
            stack += kids
    _add_touched(session, entered)

    union = 0
    for res in per_path:
        union |= res.b_final.bits
    return ReachabilityReport(
        reachable=session.decode(union),
        per_path=tuple(per_path),
        total_paths=len(per_path),
        paths_explored=explored,
        truncated=truncated,
        reachable_vector=StateVector(union, m),
    )


def _add_touched(session: VerificationSession, routers) -> None:
    """Add the ports of each router a query entered to ``session.touched``,
    from the router's memo as it is now: a memo's keys only grow, and the
    query resolved the router for every class it brought there."""
    memo = session.memo
    touched = session.touched
    for r in routers:
        touched |= memo[r].keys


def _hop_errors(hop, out: int) -> tuple[tuple[str, float], ...]:
    """Per-hop projection errors along the chain of parent hops `hop` above
    a node that arrived with `out`, first hop first: the l2 norm of the
    live classes a router did not send on."""
    errs = ()
    while hop is not None:
        hop, r, b1, bits, _, _ = hop
        errs = ((r, math.sqrt((b1 ^ out).bit_count())),) + errs
        out = bits
    return errs


def detect_loop(session: VerificationSession, src: str,
                b_init: StateVector | None = None) -> LoopReport:
    """First confirmed forwarding cycle reachable from `src`, if any.

    A cycle is confirmed when the next hop already lies on the current path
    and the projected vector is still non-zero; the live classes at that
    point are the looping headers. Like the other traversals it adds every
    port of each router it enters to ``session.touched``, including ports
    after the one that closes the cycle.
    """
    start = _start_bits(session, (src,), b_init)
    enter = session.enter
    entered: set[str] = set()
    stack = [(src, start, ())]
    while stack:
        r, bits, path = stack.pop()
        e, b1 = enter(r, bits)
        if b1 == 0:
            continue
        new_path = path + (r,)
        entered.add(r)
        for out, nr in e.split(b1):
            if nr in new_path:
                _add_touched(session, entered)
                cycle = new_path[new_path.index(nr):]
                return LoopReport(cycle=cycle, headers=session.decode(out))
            stack.append((nr, out, new_path))
    _add_touched(session, entered)
    return LoopReport(cycle=None, headers=frozenset())


def detect_blackhole(session: VerificationSession, src: str,
                     b_init: StateVector | None = None) -> list[BlackholeReport]:
    """Routers that drop traffic for lack of a matching rule.

    Computes the classes that can arrive at each router from `src` as a
    least fixpoint: a FIFO worklist of routers, each processed with the
    classes that arrived since its last turn and forwarding on only what
    its peers have not seen yet, so cyclic networks terminate. `enter` and
    the projection distribute over OR, so this equals exploring every
    reachable (router, vector) state. Reports, per router, the classes that
    arrive but match no forwarding rule there. The session keeps the answer
    for the default `b_init` in ``session.holes``; each call returns a new
    list of its reports.
    """
    start = _start_bits(session, (src,), b_init)
    full = start == (1 << session.m) - 1
    answer = session.holes.get(src) if full else None
    if answer is None:
        answer = _blackholes(session, src, start)
        if full:
            session.holes[src] = answer
    reports, entered = answer
    _add_touched(session, entered)
    return list(reports)


def _blackholes(session: VerificationSession, src: str, start: int
                ) -> tuple[tuple[BlackholeReport, ...], frozenset[str]]:
    """`detect_blackhole`'s reports from `start`, and the routers it entered."""
    enter = session.enter
    entered: set[str] = set()
    holes: dict[str, int] = {}
    arrived = {src: start}
    waiting = {src: start}                  # router -> classes not yet processed
    queue = deque((src,))
    while queue:
        r = queue.popleft()
        e, b1 = enter(r, waiting.pop(r))
        if b1 == 0:
            continue
        entered.add(r)
        dropped = b1 & e.dropped
        if dropped:
            holes[r] = holes.get(r, 0) | dropped
        for out, nr in e.split(b1):
            seen = arrived.get(nr, 0)
            new = out & ~seen
            if new:
                arrived[nr] = seen | new
                if nr in waiting:
                    waiting[nr] |= new
                else:
                    waiting[nr] = new
                    queue.append(nr)
    reports = tuple(BlackholeReport(router=r, headers=session.decode(bits))
                    for r, bits in sorted(holes.items()))
    return reports, frozenset(entered)


def check_policy(report: ReachabilityReport, max_path_len: int | None = None,
                 waypoints: set[str] | None = None) -> PolicyReport:
    """Path-length and waypoint constraints over a reachability report.

    PBR protection is not checked here: protected prefixes reject non-PBR
    updates at insertion time (see NetworkState.apply_update).
    ``max_path_len`` must be at least 0.
    """
    if max_path_len is not None and max_path_len < 0:
        raise InfeasibleParameters(f"max_path_len must be >= 0, got {max_path_len}")
    violations: list[PolicyViolation] = []
    for res in report.per_path:
        if max_path_len is not None and len(res.path) > max_path_len:
            violations.append(PolicyViolation(
                res.path, f"path length {len(res.path)} exceeds {max_path_len}"))
        for w in sorted(waypoints or ()):
            if w not in res.path:
                violations.append(PolicyViolation(res.path, f"missing waypoint {w}"))
    return PolicyReport(violations=tuple(violations))


# ----------------------------------------------------------------------
# network state (trie + tables + topology)

class NetworkState:
    """Mutable network model backing incremental verification.

    Single-writer: updates require exclusive access. Sessions built from it
    are immutable snapshots and may be queried concurrently. The trie is the
    only store of forwarding rules: `tables`, `homes` and `spec` are views
    built from it on access, and the loaded spec is never changed (nor
    should it be edited while the state is in use).
    """

    def __init__(self, spec: NetworkSpec, trie: HeaderTrie, topology: Topology):
        self._loaded = spec
        self.trie = trie
        self.topology = topology
        self.protected = spec.protected_prefixes()
        self._rank = {r: i for i, r in enumerate(spec.routers)}

    @property
    def tables(self) -> dict[str, dict[Prefix, int]]:
        """Each router's forwarding rules, {prefix: port}."""
        tables: dict[str, dict[Prefix, int]] = {r: {} for r in self._loaded.routers}
        for node in self.trie.nodes():
            for r, port in node.owners.items():
                tables[r][node.prefix()] = port
        return tables

    @property
    def spec(self) -> NetworkSpec:
        """The network as it is now: the loaded spec with the current rules."""
        return replace(self._loaded, rules=self.tables)

    @classmethod
    def from_spec(cls, spec: NetworkSpec) -> "NetworkState":
        topology = Topology.from_spec(spec)
        trie = HeaderTrie(spec.width)
        by_prefix: dict[Prefix, dict[str, int]] = {}
        for r in spec.routers:
            for pfx, port in spec.rules[r].items():
                owners = by_prefix.get(pfx)
                if owners is None:
                    by_prefix[pfx] = {r: port}
                else:
                    owners[r] = port
        for pfx, owners in by_prefix.items():
            trie.insert_owners(pfx, owners, materialize=False)
        for r, acl in spec.acls.items():
            for pfx, permit in acl.items():
                trie.insert_acl(pfx, r, permit, materialize=False)
        for r, table in spec.transforms.items():
            for match, out in table.items():
                trie.insert_transform(match, r, out, materialize=False)
                trie.insert_marker(out, materialize=False)
        trie.materialize_iatomic()
        state = cls(spec, trie, topology)
        state._align_transforms()
        return state

    def _home(self, node) -> str | None:
        """The home of `node`'s prefix among its owners, or None."""
        peers = self.topology.peers
        hosts = [r for r, port in node.owners.items() if port not in peers[r]]
        return min(hosts, key=self._rank.__getitem__) if hosts else None

    @property
    def homes(self) -> dict[Prefix, str]:
        """Each prefix's home: the first router, in ``spec.routers`` order,
        whose rule for it uses a host-facing (unlinked) port."""
        homes: dict[Prefix, str] = {}
        for node in self.trie.nodes():
            home = self._home(node)
            if home is not None:
                homes[node.prefix()] = home
        return homes

    def home_of(self, prefix: Prefix) -> str | None:
        """Home of `prefix`, or else of its longest covering prefix that has one."""
        node = self.trie.root
        path = [node]
        for i in range(prefix.length):
            node = node.one if prefix.bit(i) else node.zero
            if node is None:
                break
            path.append(node)
        for node in reversed(path):
            home = self._home(node)
            if home is not None:
                return home
        return None

    def _align_transforms(self) -> None:
        """Mirror match-side class boundaries into rewrite targets.

        Guarantees that the rewritten image of every class is an exact union
        of classes, so the class-level rewrite matrix loses no precision.
        Iterates to a fixpoint because mirroring under one target can
        fragment another rule's match subtree.
        """
        rules = [(match, out)
                 for table in self._loaded.transforms.values()
                 for match, out in table.items()]
        if not rules:
            return
        trie = self.trie
        for _ in range(64):
            changed = False
            for match, out in rules:
                path = trie._walk(match)
                if path is None:
                    continue
                top = path[-1]
                suffixes: list[tuple[int, int]] = []
                stack = [(top, 0, 0)]
                while stack:
                    node, rel_val, rel_len = stack.pop()
                    if node.zero is None and node.one is None:
                        if rel_len:
                            suffixes.append((rel_val, rel_len))
                        continue
                    for bit, child in ((0, node.zero), (1, node.one)):
                        if child is not None:
                            stack.append((child, (rel_val << 1) | bit, rel_len + 1))
                for rel_val, rel_len in suffixes:
                    target = Prefix((out.value << rel_len) | rel_val,
                                    out.length + rel_len)
                    existing = trie._walk(target)
                    if existing is None or not existing[-1].marker:
                        trie.insert_marker(target, materialize=False)
                        changed = True
            if not changed:
                break
        else:
            raise AlignmentDiverged("transform class alignment did not converge")
        trie.materialize_iatomic()

    def apply_update(self, event: UpdateEvent, *, pbr: bool = False) -> UpdateOutcome:
        if event.op not in ("insert", "delete"):
            raise InfeasibleParameters(f"unknown op {event.op!r}")
        if event.router not in self.topology.peers:
            raise UnknownRouter(event.router)
        if not pbr and event.prefix in self.protected:
            raise PbrProtected(f"{event.prefix} is PBR-protected")
        if event.op == "insert":
            outcome = self.trie.insert_header(event.prefix, (event.router, event.port))
        else:
            outcome = self.trie.delete_header(event.prefix, (event.router, event.port))
        if outcome.shape_changed and self._loaded.transforms:
            self._align_transforms()
        return outcome

    def apply_updates(self, events: list[UpdateEvent], *, pbr: bool = False) -> list[tuple]:
        """Apply `events` in order, all or none.

        Returns the undo log that `undo` takes. If an event raises, the
        events before it are undone and the error propagates, so the state
        is as it was before the call.
        """
        log: list[tuple[str, Prefix, int | None]] = []
        try:
            for ev in events:
                log.append((ev.router, ev.prefix, self.trie.port(ev.prefix, ev.router)))
                self.apply_update(ev, pbr=pbr)
        except BaseException:
            self.undo(log)
            raise
        return log

    def undo(self, log: list[tuple]) -> None:
        """Put back, newest first, the rule each logged event found (an
        insert that replaced a port gets that port back)."""
        trie = self.trie
        shape_changed = False
        for router, prefix, port in reversed(log):
            current = trie.port(prefix, router)
            if current != port:
                if port is None:
                    outcome = trie.delete_header(prefix, (router, current))
                else:
                    outcome = trie.insert_header(prefix, (router, port))
                shape_changed |= outcome.shape_changed
        if shape_changed and self._loaded.transforms:
            self._align_transforms()

    def affected_for(self, *prefixes: Prefix) -> AffectedSets:
        return self.trie.compute_affected(*prefixes, clamp=True)

    def session(self, update_prefix: Prefix | None = None,
                affected: AffectedSets | None = None) -> VerificationSession:
        if affected is None:
            affected = self.trie.compute_affected(update_prefix or ROOT, clamp=True)
        return VerificationSession(affected, self.topology)


# ----------------------------------------------------------------------
# batch and what-if queries

def merge_affected(sets: list[AffectedSets]) -> AffectedSets:
    """Union of affected-set computations taken on one trie state."""
    if len(sets) == 1:
        return sets[0]
    by_start: dict[int, tuple] = {}          # range start -> (range, class, chain)
    for a in sets:
        for entry in zip(a.class_ranges, a.classes, a.chains):
            by_start.setdefault(entry[0][0], entry)
    entries = [by_start[lo] for lo in sorted(by_start)]
    return AffectedSets(
        classes=tuple(e[1] for e in entries),
        class_ranges=tuple(e[0] for e in entries),
        width=sets[0].width,
        chains=tuple(e[2] for e in entries),
        has_transforms=any(a.has_transforms for a in sets),
    )


def _update_and_verify(state: NetworkState, updates: list[UpdateEvent], src: str,
                       dst: str, b_init: StateVector | None, *, pbr: bool = False
                       ) -> tuple[ReachabilityReport, AffectedSets, list[tuple]]:
    """`batch_update`, also returning the batch's undo log."""
    log = state.apply_updates(updates, pbr=pbr)
    try:
        prefixes = [ev.prefix for ev in updates] or [ROOT]
        affected = state.affected_for(*prefixes)
        session = state.session(affected=affected)
        report = verify_reachability(session, src, dst, b_init)
    except BaseException:
        state.undo(log)
        raise
    return report, affected, log


def batch_update(state: NetworkState, updates: list[UpdateEvent], src: str,
                 dst: str, b_init: StateVector | None = None
                 ) -> tuple[ReachabilityReport, AffectedSets]:
    """Apply a batch, then answer one verification over the classes any of
    the updates affected (one trie walk over the updated prefixes).
    Returns the report and the affected sets. If an update or the
    verification raises, the state is left as it was before the call."""
    report, affected, _ = _update_and_verify(state, updates, src, dst, b_init)
    return report, affected


def whatif_link_down(state: NetworkState, link: tuple[str, int, str, int],
                     src: str, dst: str) -> WhatIfResult:
    """Fail a link: delete the rules that forwarded over it and verify
    reachability as one batch. The deletions keep every class off the
    failed ports, so the topology is left as it is; a failed link takes
    PBR-protected rules with it too. The rules are put back before
    returning, so the state is left as it was."""
    a, pa, b, pb = state.topology.find_edge(*link)
    deletions: list[UpdateEvent] = []
    for router, port in ((a, pa), (b, pb)):
        for node in sorted((n for n in state.trie.nodes() if n.owners.get(router) == port),
                           key=lambda n: (n.value, n.depth)):
            deletions.append(UpdateEvent("delete", router, node.prefix(), port, len(deletions)))
    report, _, log = _update_and_verify(state, deletions, src, dst, None, pbr=True)
    state.undo(log)
    return WhatIfResult(triggered_deletions=len(deletions), report=report)
