"""Path quality from projection errors, and rule synthesis from intents.

A path's quality is the accumulated l2 norm of per-hop projection errors:
low totals mean most of the needed rules already exist. Rectification walks
the best candidate paths, and at every router that drops wanted classes it
synthesizes rules covering exactly the droppable ones, never touching a
class the router already forwards (the non-interference set difference).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .dataset import UpdateEvent
from .errors import (InfeasibleParameters, NoPath, RectificationImpossible,
                     UnknownRouter)
from .prefixes import Prefix
from .trie import AffectedSets
# apply_transform is not called here (hops go through session.enter) but
# stays bound: tracing tools wrap it in every module that imports it.
from .vectors import StateVector, apply_transform  # noqa: F401
from .verify import (NetworkState, ReachabilityReport, VerificationSession,
                     _start_bits, verify_reachability)


@dataclass(frozen=True)
class PathQuality:
    path: tuple[str, ...]
    cumulative_l2: float
    per_node: tuple[tuple[str, float], ...]
    ports: tuple[int, ...]          # outgoing port at each hop router


@dataclass(frozen=True)
class RuleFix:
    router: str
    prefix: Prefix
    port: int
    rationale: tuple[Prefix, ...]   # classes the fix enables


@dataclass(frozen=True)
class RectifyResult:
    fixes: tuple[RuleFix, ...]
    achieved: frozenset[Prefix]
    report: ReachabilityReport


def _adjacency(topology) -> dict[str, list[tuple[int, str]]]:
    return {r: sorted(ports.items()) for r, ports in topology.peers.items()}


def _simple_paths(topology, src: str, dst: str,
                  max_paths: int) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
    """The `max_paths` shortest simple topology paths src -> dst as
    (routers, outgoing ports): by hop count, and among paths of one hop count
    in depth-first order over ascending ports.

    Iterative deepening: the search for paths of `length` hops follows a link
    only when the peer's hop count to `dst` fits the hops left, and enters
    `dst` only with none left, so it holds no frontier of partial paths.
    """
    adj = _adjacency(topology)
    hops = {dst: 0}                     # fewest hops to dst, by BFS
    queue = deque([dst])
    while queue:
        r = queue.popleft()
        for _, peer in adj[r]:
            if peer not in hops:
                hops[peer] = hops[r] + 1
                queue.append(peer)
    found: list[tuple[tuple[str, ...], tuple[int, ...]]] = []
    if src not in hops:
        return found
    for length in range(hops[src], len(hops)):
        stack = [(src, (src,), ())]
        while stack and len(found) < max_paths:
            r, path, ports = stack.pop()
            if r == dst:
                found.append((path, ports))
                continue
            left = length - len(ports) - 1     # hops left once at the peer
            for port, peer in reversed(adj[r]):
                # with no hops left only dst fits; with some, dst ends too soon
                if (hops[peer] <= left and (not left or peer != dst)
                        and peer not in path):
                    stack.append((peer, path + (peer,), ports + (port,)))
        if len(found) == max_paths:
            break
    return found


def path_quality(session: VerificationSession, src: str, dst: str, *,
                 b_init: StateVector | None = None,
                 max_paths: int = 20000) -> list[PathQuality]:
    """The `max_paths` shortest simple topology paths src -> dst (fewest
    hops first; at the longest hop count taken, the first in depth-first
    order over ascending ports), scored by cumulative projection error and
    sorted ascending (ties go to shorter paths, then to the path itself).

    Raises InfeasibleParameters when `max_paths` is below 1, UnknownRouter
    for an unknown `src` or `dst`, DimensionMismatch when `b_init` is not
    one bit per class, and NoPath when no link path joins them.
    """
    if max_paths < 1:
        raise InfeasibleParameters(f"max_paths must be >= 1, got {max_paths}")
    start = _start_bits(session, (src, dst), b_init)
    if src == dst:
        return [PathQuality((src,), 0.0, (), ())]
    candidates = _simple_paths(session.topology, src, dst, max_paths)
    if not candidates:
        raise NoPath(f"{dst} is not connected to {src}")
    enter = session.enter
    scored = []
    for routers, ports in candidates:
        bits = start
        per_node = []
        for r, port in zip(routers[:-1], ports):
            e, pre = enter(r, bits)
            post = e.by_port.get(port, 0) & pre
            per_node.append((r, math.sqrt((pre ^ post).bit_count())))
            bits = post
        total = sum(err for _, err in per_node)
        scored.append(PathQuality(routers, total, tuple(per_node), ports))
    scored.sort(key=lambda q: (q.cumulative_l2, len(q.path), q.path))
    return scored


def cover_classes(affected: AffectedSets, bits: int) -> list[Prefix]:
    """Fewest aligned prefixes covering exactly the given classes.

    Adjacent class ranges merge first, then each merged range decomposes
    into maximal power-of-two blocks, so a fix spanning a whole subtree
    becomes the subtree's common ancestor. Never covers an unselected class.
    """
    ranges = []
    rest = bits
    while rest:
        low = rest & -rest
        ranges.append(affected.class_ranges[low.bit_length() - 1])
        rest ^= low
    ranges.sort()
    merged: list[list[int]] = []
    for lo, hi in ranges:
        if merged and merged[-1][1] + 1 == lo:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    width = affected.width
    prefixes: list[Prefix] = []
    for lo, hi in merged:
        while lo <= hi:
            size = (lo & -lo) if lo else (1 << width)
            while lo + size - 1 > hi:
                size >>= 1
            span = size.bit_length() - 1
            prefixes.append(Prefix(lo >> span, width - span))
            lo += size
    return prefixes


def rectify(state: NetworkState, src: str, dst: str, intent: set[Prefix]
            ) -> RectifyResult:
    """Establish reachability for the intent classes by adding rules.

    Candidate paths, `path_quality`'s shortest simple paths, are tried in
    ascending cumulative-error order (ties go to shorter paths). At each
    router that blocks wanted classes the fix covers the blocked set minus
    whatever the router already forwards, so candidate headers per router
    are bounded by the class count; a candidate's fixes are committed only
    when they deliver new classes to the destination. Raises UnknownRouter
    for an unknown `src` or `dst` before looking at the intent, and
    RectificationImpossible when no link path joins them, or when no intent
    class is reachable and no non-interfering fix exists.
    """
    for r in (src, dst):
        if r not in state.topology.peers:
            raise UnknownRouter(r)
    session = state.session()
    intent_bits = session.query_vector(intent).bits
    if intent_bits == 0:
        raise RectificationImpossible("intent matches no header class")
    intent_classes = session.decode(intent_bits)

    base = verify_reachability(session, src, dst)
    already = base.reachable_vector.bits & intent_bits
    if already == intent_bits:
        return RectifyResult((), frozenset(intent_classes), base)

    # rank candidate paths by how badly they drop the intent classes
    try:
        candidates = path_quality(session, src, dst,
                                  b_init=StateVector(intent_bits, session.m))
    except NoPath as exc:
        raise RectificationImpossible(str(exc)) from exc
    remaining = intent_bits & ~already
    fixes: list[RuleFix] = []
    overlay: dict[tuple[str, int], int] = {}

    for quality in candidates:
        if not remaining:
            break
        routers, ports = quality.path, quality.ports
        trial_overlay = dict(overlay)
        trial_fixes: list[RuleFix] = []
        bits = (1 << session.m) - 1
        for r, port in zip(routers[:-1], ports):
            e, pre = session.enter(r, bits)
            out = (e.by_port.get(port, 0) | trial_overlay.get((r, port), 0)) & pre
            blocked = pre & remaining & ~out
            if blocked:
                forwarded = e.union
                for (rr, _), extra in trial_overlay.items():
                    if rr == r:
                        forwarded |= extra
                fixable = blocked & ~forwarded
                if fixable:
                    enabled = tuple(sorted(
                        session.decode(fixable),
                        key=lambda p: (p.value << (session.affected.width - p.length))))
                    for pfx in cover_classes(session.affected, fixable):
                        trial_fixes.append(RuleFix(r, pfx, port, enabled))
                    trial_overlay[(r, port)] = trial_overlay.get((r, port), 0) | fixable
                    out |= fixable
            bits = out
            if bits & remaining == 0:
                break
        delivered = bits & remaining
        if delivered:
            remaining &= ~delivered
            fixes.extend(trial_fixes)
            overlay = trial_overlay

    if not fixes and already == 0:
        raise RectificationImpossible(
            "every candidate header overlaps traffic already forwarded")

    report = apply_fixes(state, fixes, src, dst) if fixes else base
    achieved = frozenset(intent_classes & report.reachable)
    return RectifyResult(tuple(fixes), achieved, report)


def apply_fixes(state: NetworkState, fixes: list[RuleFix], src: str, dst: str,
                b_init: StateVector | None = None) -> ReachabilityReport:
    """Insert the synthesized rules, all or none, and re-verify on a fresh
    session."""
    state.apply_updates([UpdateEvent("insert", f.router, f.prefix, f.port, i)
                         for i, f in enumerate(fixes)])
    session = state.session()
    return verify_reachability(session, src, dst, b_init)
