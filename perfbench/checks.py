"""Answer checks, run outside every timed region.

`Reference` keeps the benchmark's own copy of the tables in step with the
events it hands to netvec and walks single headers through them with
`oracle.simulate_packet`, looking rules up by longest-prefix match over the
live dicts (one probe per prefix length). Whole-network answers are compared
with `oracle.simulate_all` on the same copy.
"""

from __future__ import annotations

from netvec.dataset import NetworkSpec, UpdateEvent
from netvec.oracle import blackhole_events, looped_headers, simulate_all, simulate_packet
from netvec.prefixes import Prefix


class LongestMatch:
    """header -> payload of the deepest prefix in a live table, else None."""

    __slots__ = ("table", "width", "payload")

    def __init__(self, table: dict, width: int, payload=None):
        self.table = table
        self.width = width
        self.payload = payload

    def __getitem__(self, header: int):
        width, table = self.width, self.table
        for length in range(width, -1, -1):
            prefix = Prefix(header >> (width - length), length)
            hit = table.get(prefix)
            if hit is not None:
                return self.payload(prefix, hit) if self.payload else hit
        return None


def headers_of(prefixes, width: int) -> set[int]:
    out: set[int] = set()
    for p in prefixes:
        lo, hi = p.range(width)
        out.update(range(lo, hi + 1))
    return out


class Reference:
    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        w = spec.width
        self.tables = {r: LongestMatch(spec.rules[r], w) for r in spec.routers}
        self.acls = {r: LongestMatch(t, w) for r, t in spec.acls.items()}
        self.xforms = {r: LongestMatch(t, w, lambda m, out: (m.range(w)[0], out.range(w)[0]))
                       for r, t in spec.transforms.items()}
        self.link = {}
        for a, pa, b, pb in spec.edges:
            self.link[(a, pa)] = (b, pb)
            self.link[(b, pb)] = (a, pa)
        n_xf = sum(len(t) for t in spec.transforms.values())
        self.ttl = 2 * len(spec.routers) * (1 + n_xf)

    def apply(self, event: UpdateEvent) -> None:
        table = self.spec.rules[event.router]
        if event.op == "insert":
            table[event.prefix] = event.port
        else:
            del table[event.prefix]

    def trace(self, src: str, dst: str | None, header: int):
        return simulate_packet(self.tables, self.acls, self.xforms, self.link,
                               src, dst, header, self.ttl)

    def delivered(self, src: str, dst: str, header: int) -> int | None:
        """Header identity on arrival at `dst`, or None if it never arrives."""
        t = self.trace(src, dst, header)
        return t.final_header if t.outcome == ("delivered", dst) else None

    # ------------------------------------------------------------------
    # per-answer comparisons; each returns a list of mismatch descriptions

    def reach_classes(self, classes, reachable, src: str, dst: str) -> list[str]:
        """Per-class reachability of one report, probed at each class's two
        end headers. Only valid without rewrites (arrival identity = class)."""
        bad = []
        w = self.spec.width
        for c in classes:
            lo, hi = c.range(w)
            want = self.delivered(src, dst, lo) is not None
            if want != (c in reachable) or want != (self.delivered(src, dst, hi) is not None):
                bad.append(f"{src}->{dst} class {c}: engine {c in reachable}, walk {want}")
        return bad

    def reach_oracle(self, report, src: str, dst: str) -> list[str]:
        got = headers_of(report.reachable, self.spec.width)
        want = simulate_all(self.spec, src, dst).reachable
        if got != want:
            return [f"{src}->{dst}: {len(got ^ want)} headers differ from oracle"]
        return []

    def loop_blackhole_oracle(self, loop, holes, classes, src: str) -> list[str]:
        sim = simulate_all(self.spec, src, None)
        bad = []
        if loop.found != bool(looped_headers(sim)):
            bad.append(f"loop from {src}: engine {loop.found}, oracle {not loop.found}")
        w = self.spec.width
        got = {(rep.router, h) for rep in holes for h in headers_of(rep.headers, w)}
        covered = headers_of(classes, w)
        want = {(r, h) for r, h in blackhole_events(sim) if h in covered}
        if got != want:
            bad.append(f"blackholes from {src}: {len(got ^ want)} events differ from oracle")
        return bad
