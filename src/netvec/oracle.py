"""Brute-force ground truth: per-packet simulation, interval splitting and
the dense least-squares projection.

Everything here works on raw header integers straight off a NetworkSpec, with
its own longest-prefix matching; it deliberately shares no code with the trie
or the vector engine it is used to check. Policy decisions (LPM tie-breaking,
default-permit ACLs, deepest-match rewrites, delivery on host-facing ports)
mirror the documented choices of the main engine, the implementations do not.
The projection of a state vector b onto a port's subspace, which the engine
computes as one AND, is solved here with real linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import NetworkSpec
from .errors import DimensionMismatch, NonOrthonormalColumns, WidthTooLarge

EXHAUSTIVE_WIDTH_LIMIT = 16


@dataclass(frozen=True)
class PacketTrace:
    header: int               # as injected at src
    final_header: int         # identity when the walk ended (post-rewrites)
    path: tuple[str, ...]
    outcome: tuple            # ("delivered"|"blackholed"|"filtered", router) or ("looped", cycle)


@dataclass(frozen=True)
class SimulationResult:
    reachable: set[int]       # headers as they arrive at dst (post-rewrite identity)
    traces: list[PacketTrace]

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for t in self.traces:
            counts[t.outcome[0]] = counts.get(t.outcome[0], 0) + 1
        return counts


def _action_array(entries, width: int) -> list:
    """Per-header longest-match actions, painted shortest prefix first."""
    actions = [None] * (1 << width)
    for pfx, payload in sorted(entries, key=lambda e: (e[0].length, e[0].value)):
        lo, hi = pfx.range(width)
        actions[lo:hi + 1] = [payload] * (hi - lo + 1)
    return actions


def simulate_packet(tables, acls, xforms, link, src: str, dst: str | None,
                    header: int, ttl: int) -> PacketTrace:
    """Walk one header from src; terminates on delivery, filter, no-match,
    or a repeated (router, header) state."""
    router = src
    h = header
    path = [src]
    seen = {(src, h)}
    hops = 0
    while True:
        if dst is not None and router == dst:
            return PacketTrace(header, h, tuple(path), ("delivered", router))
        acl = acls.get(router)
        if acl is not None and acl[h] is False:
            return PacketTrace(header, h, tuple(path), ("filtered", router))
        xf = xforms.get(router)
        if xf is not None:
            hit = xf[h]
            if hit is not None:
                match_lo, out_lo = hit
                h = out_lo + (h - match_lo)
        table = tables.get(router)
        action = table[h] if table is not None else None
        if action is None:
            return PacketTrace(header, h, tuple(path), ("blackholed", router))
        peer = link.get((router, action))
        if peer is None:
            # host-facing port: the packet leaves the network here
            return PacketTrace(header, h, tuple(path), ("delivered", router))
        router = peer[0]
        path.append(router)
        hops += 1
        state = (router, h)
        if state in seen or hops > ttl:
            start = path.index(router)
            return PacketTrace(header, h, tuple(path),
                               ("looped", tuple(path[start:-1] or (router,))))
        seen.add(state)


def simulate_all(spec: NetworkSpec, src: str, dst: str | None) -> SimulationResult:
    """Exhaustive per-packet simulation of every header in [0, 2^L).

    `reachable` holds the headers observed arriving at `dst` (their identity
    after any rewrites en route). With dst=None nothing is "delivered at
    dst"; packets still exit at host-facing ports, which is the mode used to
    compare blackhole scans.
    """
    if spec.width > EXHAUSTIVE_WIDTH_LIMIT:
        raise WidthTooLarge(f"width {spec.width} > {EXHAUSTIVE_WIDTH_LIMIT}")
    width = spec.width
    tables = {r: _action_array(t.items(), width)
              for r, t in spec.rules.items() if t}
    acls = {r: _action_array(t.items(), width)
            for r, t in spec.acls.items() if t}
    xforms = {}
    for r, t in spec.transforms.items():
        if t:
            entries = [(match, (match.range(width)[0], out.range(width)[0]))
                       for match, out in t.items()]
            xforms[r] = _action_array(entries, width)
    link = {}
    for a, pa, b, pb in spec.edges:
        link[(a, pa)] = (b, pb)
        link[(b, pb)] = (a, pa)
    n_xf = sum(len(t) for t in spec.transforms.values())
    ttl = 2 * max(len(spec.routers), 1) * (1 + n_xf)

    reachable: set[int] = set()
    traces: list[PacketTrace] = []
    for header in range(1 << width):
        trace = simulate_packet(tables, acls, xforms, link, src, dst,
                                header, ttl)
        traces.append(trace)
        if dst is not None and trace.outcome == ("delivered", dst):
            reachable.add(trace.final_header)
    return SimulationResult(reachable=reachable, traces=traces)


def blackhole_events(result: SimulationResult) -> set[tuple[str, int]]:
    """(router, header-at-arrival) pairs where a packet found no rule."""
    events = set()
    for t in result.traces:
        if t.outcome[0] == "blackholed":
            events.add((t.outcome[1], t.final_header))
    return events


def looped_headers(result: SimulationResult) -> set[int]:
    return {t.header for t in result.traces if t.outcome[0] == "looped"}


def interval_partition(prefixes, width: int) -> list[tuple[int, int]]:
    """Coarsest prefix-aligned split of the union of prefix ranges such that
    every input prefix is a union of cells.

    A maximal aligned block is a cell when at least one input range overlaps
    it and every overlapping range covers it entirely (aligned ranges nest,
    so anything smaller would cut a block along no input boundary). Cells
    are inclusive [lo, hi] ranges, ascending.
    """
    ranges = sorted({p.range(width) for p in prefixes})
    cells: list[tuple[int, int]] = []

    def split(lo: int, hi: int, overlapping: list[tuple[int, int]]) -> None:
        if not overlapping:
            return
        if all(a <= lo and hi <= b for a, b in overlapping):
            cells.append((lo, hi))
            return
        mid = (lo + hi) // 2
        split(lo, mid, [(a, b) for a, b in overlapping if a <= mid])
        split(mid + 1, hi, [(a, b) for a, b in overlapping if b > mid])

    split(0, (1 << width) - 1, ranges)
    return cells


def basis_matrix(v) -> np.ndarray:
    """Standard-basis column matrix selecting the live coordinates of `v`
    (anything with ``bits`` and ``width``, such as a ForwardingVector)."""
    cols = [j for j in range(v.width) if (v.bits >> j) & 1]
    a = np.zeros((v.width, len(cols)))
    for n, j in enumerate(cols):
        a[j, n] = 1.0
    return a


def least_squares_reference(a: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
    """Dense normal-equations solve used as the projection ground truth.

    Requires distinct standard-basis columns (the only matrices the fast
    path ever models); solves A^T A x = A^T b and returns the solution and
    the projection A x.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2:
        raise NonOrthonormalColumns("matrix must be two-dimensional")
    m, n = a.shape
    if b.shape != (m,):
        raise DimensionMismatch(f"b has shape {b.shape}, expected ({m},)")
    col_is_basis = (np.abs(a.sum(axis=0) - 1.0) < 1e-12) & np.all((a == 0) | (a == 1), axis=0)
    if n and (not col_is_basis.all() or len({int(a[:, k].argmax()) for k in range(n)}) != n):
        raise NonOrthonormalColumns("columns must be distinct standard basis vectors")
    if n == 0:
        return {"x_hat": np.zeros(0), "projection": np.zeros(m)}
    x_hat = np.linalg.solve(a.T @ a, a.T @ b)
    return {"x_hat": x_hat, "projection": a @ x_hat}
