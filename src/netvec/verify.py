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
from dataclasses import dataclass, field, replace
from operator import attrgetter

from .dataset import PORT_LIMIT, NetworkSpec, UpdateEvent
from .errors import (AlignmentDiverged, DimensionMismatch, InfeasibleParameters,
                     PbrProtected, UnknownLink, UnknownRouter)
from .prefixes import ROOT, Prefix
from .trie import AffectedSets, HeaderTrie, UpdateOutcome, _filled, chain_port
from .vectors import (ForwardingVector, StateVector, TransformMatrix,
                      apply_transform, mask_of)


@dataclass
class Topology:
    """The links of a network. ``peers[r][port]`` is the router at the other
    end of `r`'s linked `port`. Every router has an entry, so ``r in peers``
    tells a router from an unknown name, and a port absent from ``peers[r]``
    is host-facing. ``edges`` is the spec's own list, not a copy.
    ``index[r]`` is the position of `r` in ``routers`` (the spec's order),
    the bit that stands for `r` in a mask of routers."""
    edges: list[tuple[str, int, str, int]]
    peers: dict[str, dict[int, str]]
    routers: tuple[str, ...]
    index: dict[str, int]

    @classmethod
    def from_spec(cls, spec: NetworkSpec) -> "Topology":
        peers: dict[str, dict[int, str]] = {r: {} for r in spec.routers}
        for a, pa, b, pb in spec.edges:
            peers[a][pa] = b
            peers[b][pb] = a
        routers = tuple(peers)
        return cls(edges=spec.edges, peers=peers, routers=routers,
                   index={r: i for i, r in enumerate(routers)})

    def find_edge(self, a: str, pa: int, b: str, pb: int):
        for edge in self.edges:
            if edge == (a, pa, b, pb) or edge == (b, pb, a, pa):
                return edge
        raise UnknownLink(f"no link {a}:{pa}-{b}:{pb}")


# ----------------------------------------------------------------------
# reports

@dataclass(frozen=True, slots=True)
class PathResult:
    path: tuple[str, ...]
    b_final: StateVector
    per_hop_errors: tuple[tuple[str, float], ...]


class _Decoded:
    """A report's class set: the mask at attribute path `mask`, decoded
    against the report's ``classes`` (the session's) the first time the set
    is read, then kept on the report.

    Not a data descriptor, so once the set is in the report's ``__dict__``
    reads find it there without calling back here. Threads racing on a
    first read may each decode; ``setdefault`` hands every one of them the
    set stored first. No lock is taken.
    """

    def __init__(self, mask: str):
        self.mask = attrgetter(mask)        # report -> int

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, report, owner=None):
        if report is None:
            return self
        return report.__dict__.setdefault(
            self.name, _decode(report.classes, self.mask(report)))


@dataclass(frozen=True)
class ReachabilityReport:
    """What `verify_reachability` found from `src` to `dst`.

    ``reachable_vector`` is the answer as the paper states it: the classes
    that arrive, as the vector b over the session's ``classes``.
    ``reachable`` is the same answer as a set of class prefixes, decoded
    from the vector the first time it is read.
    """
    per_path: tuple[PathResult, ...]
    total_paths: int
    paths_explored: int
    truncated: bool
    reachable_vector: StateVector
    classes: tuple[Prefix, ...] = field(repr=False)

    reachable = _Decoded("reachable_vector.bits")


@dataclass(frozen=True)
class LoopReport:
    """The first cycle `detect_loop` confirmed, or None; ``mask`` holds the
    classes still live where the cycle closed (0 without a cycle), and
    ``headers`` is that mask decoded on first read."""
    cycle: tuple[str, ...] | None
    mask: int
    classes: tuple[Prefix, ...] = field(repr=False)

    headers = _Decoded("mask")

    @property
    def found(self) -> bool:
        return self.cycle is not None


@dataclass(frozen=True)
class BlackholeReport:
    """The classes that reach `router` and match no rule there: ``mask``
    over the session's ``classes``, and ``headers`` decoded on first read."""
    router: str
    mask: int
    classes: tuple[Prefix, ...] = field(repr=False)

    headers = _Decoded("mask")


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
    port)`` pairs of the ports of its counted classes, which a query adds
    to the session's ``touched`` set for each router it entered; `_extend`
    replaces it with a new frozenset, and renews the session's stamp when
    that adds a port. ``uncounted`` holds ``pending`` and the classes a
    whole-tree reach search resolved ahead (see `_finish`): their ports
    join ``keys`` once a query that would have resolved them asks. `split`
    reads the port index: ``port_of[j]`` is resolved class j's port, or -1 when no rule
    matches it, ``groups`` maps each linked port to its ``(mask,
    peer_router)``, ``linked`` is the OR of those masks and ``dropped`` the
    resolved classes no rule matches.
    ``union`` is the OR of all port masks (host-facing ports deliver, so a
    traversal never follows them), ``permit`` the classes the router's ACL
    lets through (None while no resolved class is denied) and ``xform`` the
    rewrite matrix (explicit columns for resolved rewritten classes), or
    None while no resolved class is rewritten.
    """

    __slots__ = ("pending", "uncounted", "by_port", "keys", "port_of", "groups",
                 "linked", "dropped", "union", "permit", "xform")

    # No __init__: `VerificationSession._extend` creates a memo on a router's
    # first resolution and writes every slot once, ``pending`` last.

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
    follow; so do the answers it keeps.

    Queries that start with every class (the default `b_init`) and set no
    limit keep their answer, each with the mask of routers it entered (bit
    ``topology.index[r]``): ``reach[src][dst]`` once the pair has been
    asked, ``loops[src]`` and ``holes[src]``. ``sources[src]`` holds what
    the reach queries from `src` found: after the first, its ``(dst,
    popped nodes, entered nodes)``; after the second, a `_Source` with
    every destination's answer (see `verify_reachability`). A kept report
    is shared by every caller that asks again, so treat it as read-only.

    Link peers are read from the topology, which netvec never
    changes after load. Sessions may be queried from several threads: memo
    writers hold a lock and publish every other field before shrinking
    ``pending``, and readers test ``pending`` first. Answers are kept by
    single dict stores; threads that compute one answer at the same time
    compute equal ones, and either is kept.

    ``touched`` holds the ``(router, port)`` pairs of every router a query
    entered and only grows. To count one query's ports, assign a fresh set
    before it (as `perfbench` and `scripts/answer_digest.py` do); clearing
    the set or removing from it in place is not supported, since a kept
    answer skips its merge while neither the set nor any memo's ports
    changed since its last one.
    """

    def __init__(self, affected: AffectedSets, topology: Topology):
        self.affected = affected
        self.topology = topology
        self.m = affected.m
        self.classes = affected.classes
        self.has_transforms = affected.has_transforms
        self.memo: dict[str, RouterMemo] = {}
        self._touched: set[tuple[str, int]] = set()
        self.reach: dict[str, dict[str, _Kept]] = {}
        self.sources: dict[str, _Source | tuple] = {}
        self.loops: dict[str, _Kept] = {}
        self.holes: dict[str, _Kept] = {}
        self._lock = threading.Lock()
        self._starts: list[int] | None = None
        # the class masks of kept reach paths, each value held once: paths
        # from different sources often carry the same classes
        self._masks: dict[int, int] = {}
        # (touched sets assigned, ports added to memos); replaced, under the
        # lock, whenever either count grows. A kept answer holds the stamp
        # of its last merge, so an equal object means nothing to merge.
        self._stamp = (0, 0)

    @property
    def touched(self) -> set[tuple[str, int]]:
        return self._touched

    @touched.setter
    def touched(self, value: set[tuple[str, int]]) -> None:
        if value is not self._touched:          # `touched |= ...` stores the same set back
            with self._lock:
                self._touched = value           # before the stamp: see `_hit`
                sets, ports = self._stamp
                self._stamp = (sets + 1, ports)

    def resolve(self, router: str, bits: int, count: bool = True) -> RouterMemo:
        """The router's memo, extended to cover the classes in `bits` and,
        if `count`, to count their ports in ``keys``."""
        with self._lock:
            memo = self.memo.get(router)
            if memo is None:                    # published once every field is written
                memo = self.memo[router] = self._extend(router, None, bits,
                                                        0 if count else bits)
                return memo
            need = bits & memo.pending
            was = memo.uncounted & ~memo.pending        # resolved ahead
            ahead = was & ~bits if count else was | need
            if need or ahead != was:
                self._extend(router, memo, need, ahead)
        return memo

    def _extend(self, router: str, memo: RouterMemo | None, need: int,
                ahead: int) -> RouterMemo:
        """Resolve the classes of `need` at `router` into `memo`, or into a
        new memo when it is None, and return it. `ahead` becomes the
        resolved classes whose ports ``keys`` does not count. One pass over
        the classes' chains gives each new port's class mask; every field
        is then written once, ``pending`` last."""
        m = self.m
        if memo is None:
            memo = RouterMemo()
            port_of = [-1] * m
            pending = (1 << m) - 1
            had, counted_ports, dropped, union, permit, xform = None, 0, 0, 0, None, None
        else:
            port_of = memo.port_of
            pending = memo.pending
            had, counted_ports = memo.by_port, len(memo.keys)
            dropped, union, permit, xform = memo.dropped, memo.union, memo.permit, memo.xform
        chains = self.affected.chains
        found: dict[int, int] = {}            # port -> its newly resolved classes
        denied = 0
        columns: dict[int, int] = {}
        if need & (need - 1):
            js = _set_bits(need)
        else:                                   # one class, or none
            js = (need.bit_length() - 1,) if need else ()
        for j in js:
            # the deepest entry naming the router wins, per kind of rule
            port = allow = out = None
            for entry in reversed(chains[j]):
                if port is None:
                    port = entry[0].get(router)
                    if len(entry[1]) > entry[2]:    # written since capture
                        port = chain_port(entry, router)
                if allow is None and entry[3]:
                    allow = entry[3].get(router)
                if out is None and entry[4]:
                    out = entry[4].get(router)
                    if out is not None:
                        columns[j] = self._image(j, entry[5], out)
                if port is not None and allow is not None and out is not None:
                    break
            if port is not None:
                found[port] = found.get(port, 0) | 1 << j
                port_of[j] = port               # no reader looks at j before pending shrinks
            if allow is not None and not allow:
                denied |= 1 << j
        routed = 0
        for mask in found.values():
            routed |= mask
        if had:
            by_port = dict(had)
            for port, mask in found.items():
                by_port[port] = by_port.get(port, 0) | mask
            if len(by_port) > len(had):         # a new port: back to ascending order
                by_port = dict(sorted(by_port.items()))
        else:
            by_port = found if len(found) < 2 else dict(sorted(found.items()))
        peers = self.topology.peers[router]
        groups: dict[int, tuple[int, str]] = {}
        linked = 0
        keys = []
        counted = ~ahead
        for port, mask in by_port.items():
            if mask & counted:
                keys.append((router, port))
            peer = peers.get(port)
            if peer is not None:
                groups[port] = (mask, peer)
                linked |= mask
        if denied:
            permit = ((1 << m) - 1 if permit is None else permit) & ~denied
        if columns:
            if xform is not None:
                columns = {**xform.columns, **columns}
            xform = TransformMatrix(m, columns)
        memo.port_of = port_of
        memo.by_port = by_port
        memo.keys = frozenset(keys)
        if len(keys) > counted_ports:           # after the keys: see `_hit`
            sets, ports = self._stamp
            self._stamp = (sets, ports + 1)
        memo.groups = groups
        memo.linked = linked
        memo.dropped = dropped | need & ~routed
        memo.union = union | routed
        memo.permit = permit
        memo.xform = xform
        memo.uncounted = (pending & ~need) | ahead
        memo.pending = pending & ~need
        return memo

    def enter(self, router: str, bits: int, count: bool = True) -> tuple[RouterMemo, int]:
        """One hop's prologue: the classes of `bits` that pass the router's
        ACL and then its rewrite, with the router's memo resolved for them
        (and their ports counted in ``keys``, if `count`).

        Every traversal calls this before projecting onto ports.
        """
        e = self.memo.get(router)
        if e is None or bits & (e.uncounted if count else e.pending):
            e = self.resolve(router, bits, count)
        if e.permit is not None:
            bits &= e.permit
        if e.xform is not None:
            bits = apply_transform(e.xform, StateVector(bits, self.m)).bits
            if bits & (e.uncounted if count else e.pending):
                e = self.resolve(router, bits, count)
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
        """The classes of `bits`, as prefixes."""
        return _decode(self.classes, bits)


def _decode(classes: tuple[Prefix, ...], bits: int) -> frozenset[Prefix]:
    """`VerificationSession.decode`, which reports also call on first read."""
    return frozenset(map(classes.__getitem__, _set_bits(bits)))


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

    The search (`_search`) pops nodes from a stack and does not expand the
    ones at `dst`; ``paths_explored`` counts the nodes it popped. A node's
    children depend only on its ancestors, so the nodes a search for `dst`
    pops are those of `src`'s whole search tree with no `dst` node above
    them, in the same order. Queries that start with every class and set
    no limit use that: the first from `src` searches for its `dst` and
    keeps the nodes, the second expands the rest of the tree and keeps
    every destination's report with the routers its own search would have
    entered (`_finish`), and from then on a pair asked before gets its kept
    report back, the same object each time. A custom `b_init`,
    ``max_paths`` or ``max_hops`` searches for `dst` alone and keeps
    nothing.
    """
    unlimited = max_paths is None and max_hops is None
    if b_init is None and unlimited:
        asked = session.reach.get(src)
        if asked is not None:
            kept = asked.get(dst)
            if kept is not None:
                return _hit(session, kept)
    if max_paths is not None and max_paths < 1:
        raise InfeasibleParameters(f"max_paths must be >= 1, got {max_paths}")
    if max_hops is not None and max_hops < 0:
        raise InfeasibleParameters(f"max_hops must be >= 0, got {max_hops}")
    start = _start_bits(session, (src, dst), b_init)
    if src == dst:
        return _reach_report(session, [(src, start, (src,), (), ())], 1, False)
    default = unlimited and start == (1 << session.m) - 1
    if default:
        if b_init is not None:                  # an all-ones `b_init`: not checked above
            kept = session.reach.get(src, {}).get(dst)
            if kept is not None:
                return _hit(session, kept)
        source = session.sources.get(src)
        if source is not None:
            return _hit(session, _first_ask(session, src, dst, source))
    nodes, entered, found, truncated = _search(session, [(src, start, (src,), (), ())], dst,
                                               max_paths, max_hops)
    _add_touched(session, {node[0] for node in entered})
    if default:
        session.sources.setdefault(src, (dst, nodes, entered))
    return _reach_report(session, found, len(nodes), truncated)


def _first_ask(session: VerificationSession, src: str, dst: str,
               source: _Source | tuple) -> _Kept:
    """The kept answer for a pair asked for the first time from a source
    asked before, stored in ``session.reach[src]``."""
    if type(source) is tuple:
        source = _finish(session, src, *source, dst)
    else:
        _count_ahead(session, source, dst)
    answers = source.answers
    asked = session.reach.setdefault(src, {})
    if not source.ahead and asked is not answers:
        # nothing is left to count: every answer is final, so hand them all out
        answers.update(asked)
        session.reach[src] = asked = answers
    return asked.setdefault(dst, answers.get(dst, source.unreached))


def _search(session: VerificationSession, stack: list[tuple], dst: str,
            max_paths: int | None = None, max_hops: int | None = None,
            whole: bool = False) -> tuple[list[tuple], list[tuple], list[tuple], bool]:
    """Depth-first search from the nodes on `stack` (the last first).

    Returns the nodes it popped, in that order, the nodes it entered (whose
    router `enter` let some class through), the nodes it popped at `dst`
    or, if `whole`, what it resolved ahead, and whether a limit cut it
    short. A node is ``(router, incoming bits, path, errors, states)``:
    ``path`` holds the routers from the source to the node, ``errors``
    one ``(router, error)`` pair per hop, the l2 norm of the live classes
    the router did not send on to the next, each pair one object shared by
    every path through its link; with rewrites, ``states`` holds the
    ancestors' ``(router, incoming bits)`` pairs.
    Children are pushed in link order, each pruned when its router is on
    the path (its state among the states, with rewrites).

    Nodes at `dst` are not expanded, unless the search is `whole`; then a
    node with `dst` on its path is resolved without counting its ports
    (a search for `dst` would not have reached it), and the resolved-ahead
    list holds its ``(path, router, classes resolved)``. The search stops
    at the `max_paths`-th `dst` node and expands no node ``max_hops`` hops
    out.
    """
    enter = session.enter
    by_state = session.has_transforms
    sqrt = math.sqrt
    nodes: list[tuple] = []
    entered: list[tuple] = []
    found: list[tuple] = []                 # at `dst` or, if `whole`, resolved ahead
    truncated = False
    while stack:
        node = stack.pop()
        nodes.append(node)
        r, bits, path, errs, states = node
        if r == dst and not whole:
            found.append(node)
            if len(found) == max_paths:
                truncated = True
                break
            continue
        if max_hops is not None and len(path) > max_hops:
            truncated = True
            continue
        if whole and dst in path:
            e, b1 = enter(r, bits, False)
            resolved = bits if e.xform is None else bits | b1
            if resolved & e.uncounted:
                found.append((path, r, resolved))
        else:
            e, b1 = enter(r, bits)
        if not b1:
            continue
        entered.append(node)
        if by_state:
            states += ((r, bits),)
        for out, nr in e.split(b1):
            if ((nr, out) not in states) if by_state else (nr not in path):
                stack.append((nr, out, path + (nr,),
                              errs + ((r, sqrt((b1 ^ out).bit_count())),), states))
    return nodes, entered, found, truncated


class _Source:
    """A source's whole search tree, folded: the kept answer for each
    destination it reaches, the one shared by the destinations it does not
    reach (no path, every node popped, every router entered), and the
    ``(path, router, classes)`` of the nodes whose ports are not counted
    yet."""

    __slots__ = ("answers", "unreached", "ahead")

    def __init__(self, answers: dict[str, _Kept], unreached: _Kept, ahead: list[tuple]):
        self.answers = answers
        self.unreached = unreached
        self.ahead = ahead


def _finish(session: VerificationSession, src: str, first: str, popped: list[tuple],
            entered: list[tuple], dst: str) -> _Source:
    """Finish the search from `src` for destination `first`, which popped
    `popped` and entered `entered`: expand the nodes it left at `first`,
    counting ports as a search for `dst` would, and keep what a search for
    each destination would answer in ``session.sources[src]``.

    For a destination d: its paths are its nodes with no d node above
    them, in search order; it pops the nodes with no d node above them; it
    enters every router entered at some node with no d node above it,
    d excepted.
    """
    nodes: list[tuple] = []
    entered = list(entered)
    ahead: list[tuple] = []
    for node in popped:
        if node[0] == first:                    # its subtree follows it in search order
            more, more_entered, more_ahead, _ = _search(session, [node], dst, whole=True)
            nodes += more
            entered += more_entered
            ahead += more_ahead
        else:
            nodes.append(node)
    index = session.topology.index
    masks = session._masks
    tops: dict[str, list[tuple]] = {}       # router -> its nodes with none of it above
    below: dict[str, int] = {}              # router -> nodes it lies above
    for node in nodes[1:]:
        r, bits, path, errs, _ = node
        above = set(path[:-1])
        for a in above:
            below[a] = below.get(a, 0) + 1
        if r not in above:
            tops.setdefault(r, []).append((r, masks.setdefault(bits, bits), path, errs, ()))
    common: dict[str, set[str]] = {}        # router -> routers above every node entering it
    for node in entered:
        above = set(node[2][:-1])
        r = node[0]
        common[r] = common[r] & above if r in common else above
    routers = 0
    behind: dict[str, int] = {}             # router -> routers entered only below it
    for r, above in common.items():
        bit = 1 << index[r]
        routers |= bit
        for a in above:
            behind[a] = behind.get(a, 0) | bit
    n = len(nodes)
    answers = {d: _Kept(_reach_report(session, paths, n - below.get(d, 0), False),
                        routers & ~(1 << index[d]) & ~behind.get(d, 0))
               for d, paths in tops.items()}
    source = _Source(answers, _Kept(_reach_report(session, [], n, False), routers), ahead)
    session.sources[src] = source
    return source


def _count_ahead(session: VerificationSession, source: _Source, dst: str) -> None:
    """Count the ports of what `source`'s search resolved ahead at nodes
    without `dst` on their path, as a search for `dst` would have."""
    keep = []
    memo = session.memo
    for entry in source.ahead:
        path, r, bits = entry
        if dst in path:
            keep.append(entry)
        elif bits & memo[r].uncounted:
            session.resolve(r, bits)
    source.ahead = keep


def _reach_report(session: VerificationSession, found: list[tuple], explored: int,
                  truncated: bool) -> ReachabilityReport:
    """The report on the `_search` nodes `found` at the destination."""
    m = session.m
    if len(found) == 1:
        union = found[0][1]                     # the path's own int, not an equal copy
    else:
        union = 0
        for node in found:
            union |= node[1]
    return _filled(ReachabilityReport, {
        "per_path": tuple([PathResult(path, StateVector(bits, m), errs)
                           for _, bits, path, errs, _ in found]),
        "total_paths": len(found),
        "paths_explored": explored,
        "truncated": truncated,
        "reachable_vector": StateVector(union, m),
        "classes": session.classes,
    })


class _Kept:
    """A query's answer with ``routers``, the mask of routers its query
    entered (bit ``topology.index[r]``), and ``stamp``, the session's
    ``_stamp`` at its last merge into ``touched`` (None before the first).
    Sessions keep these for the default `b_init`; none holds a set."""

    __slots__ = ("answer", "routers", "stamp")

    def __init__(self, answer, routers: int):
        self.answer = answer
        self.routers = routers
        self.stamp = None


def _hit(session: VerificationSession, kept: _Kept):
    """`kept`'s answer, once ``session.touched`` holds the ports of every
    router its query entered.

    The merge is skipped when the session's stamp is the object stored at
    the last merge: no set has been assigned to ``touched`` and no memo has
    gained a port since, and ``touched`` only grows. The stamp is read
    before the set and the memos, which are stored before a new stamp, so a
    merge racing either stores a stale stamp and is done again.
    """
    stamp = session._stamp
    if kept.stamp is not stamp:
        names = session.topology.routers
        _add_touched(session, [names[i] for i in _set_bits(kept.routers)])
        kept.stamp = stamp
    return kept.answer


def _router_mask(session: VerificationSession, routers) -> int:
    index = session.topology.index
    mask = 0
    for r in routers:
        mask |= 1 << index[r]
    return mask


def _add_touched(session: VerificationSession, routers) -> None:
    """Add the ports of each of `routers` to ``session.touched``, from the
    router's memo as it is now: a memo's keys only grow, and the query
    resolved the router for every class it brought there."""
    memo = session.memo
    touched = session._touched
    for r in routers:
        touched |= memo[r].keys


def detect_loop(session: VerificationSession, src: str,
                b_init: StateVector | None = None) -> LoopReport:
    """First confirmed forwarding cycle reachable from `src`, if any.

    A cycle is confirmed when the next hop already lies on the current path
    and the projected vector is still non-zero; the live classes at that
    point are the looping headers. Like the other traversals it adds every
    port of each router it enters to ``session.touched``, including ports
    after the one that closes the cycle. The session keeps the answer for
    the default `b_init` in ``session.loops``.
    """
    if b_init is None:
        kept = session.loops.get(src)
        if kept is not None:
            return _hit(session, kept)
    start = _start_bits(session, (src,), b_init)
    kept = _loop(session, src, start)
    if start == (1 << session.m) - 1:
        kept = session.loops.setdefault(src, kept)
    return _hit(session, kept)


def _loop(session: VerificationSession, src: str, start: int) -> _Kept:
    """`detect_loop`'s report from `start`, with the routers it entered."""
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
                cycle = new_path[new_path.index(nr):]
                return _Kept(_filled(LoopReport, {"cycle": cycle, "mask": out,
                                                  "classes": session.classes}),
                             _router_mask(session, entered))
            stack.append((nr, out, new_path))
    return _Kept(_filled(LoopReport, {"cycle": None, "mask": 0, "classes": session.classes}),
                 _router_mask(session, entered))


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
    if b_init is None:
        kept = session.holes.get(src)
        if kept is not None:
            return list(_hit(session, kept))
    start = _start_bits(session, (src,), b_init)
    kept = _blackholes(session, src, start)
    if start == (1 << session.m) - 1:
        kept = session.holes.setdefault(src, kept)
    return list(_hit(session, kept))


def _blackholes(session: VerificationSession, src: str, start: int) -> _Kept:
    """`detect_blackhole`'s reports from `start`, with the routers it entered."""
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
    classes = session.classes
    reports = tuple([_filled(BlackholeReport, {"router": r, "mask": bits, "classes": classes})
                     for r, bits in sorted(holes.items())])
    return _Kept(reports, _router_mask(session, entered))


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
            trie.insert_owners(pfx, owners)
        for r, acl in spec.acls.items():
            for pfx, permit in acl.items():
                trie.insert_acl(pfx, r, permit)
        for r, table in spec.transforms.items():
            for match, out in table.items():
                trie.insert_transform(match, r, out)
                trie.insert_marker(out)
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
                for cls in trie.compute_affected(match).classes:
                    k = cls.length - match.length
                    if not k:
                        continue                # the match is a class itself
                    target = Prefix(out.value << k | cls.value & ((1 << k) - 1),
                                    out.length + k)
                    node = trie._find(target)
                    if node is None or not node.marker:
                        trie.insert_marker(target)
                        changed = True
            if not changed:
                break
        else:
            raise AlignmentDiverged("transform class alignment did not converge")

    def apply_update(self, event: UpdateEvent, *, pbr: bool = False) -> UpdateOutcome:
        if event.op not in ("insert", "delete"):
            raise InfeasibleParameters(f"unknown op {event.op!r}")
        if event.router not in self.topology.peers:
            raise UnknownRouter(event.router)
        if not pbr and event.prefix in self.protected:
            raise PbrProtected(f"{event.prefix} is PBR-protected")
        if event.op == "insert":
            port = event.port
            if type(port) is not int or not 0 <= port < PORT_LIMIT:
                raise InfeasibleParameters(f"port {port!r} is not an int in [0, 2**24)")
            outcome = self.trie.insert_header(event.prefix, (event.router, port))
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
        return self.trie.compute_affected(*prefixes)

    def session(self, update_prefix: Prefix | None = None,
                affected: AffectedSets | None = None) -> VerificationSession:
        if affected is None:
            affected = self.trie.compute_affected(update_prefix or ROOT)
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
