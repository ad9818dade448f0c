"""Network files, update streams, synthetic generation, and benchmarking.

The on-disk format is line-based with `#` comments:

    WIDTH <L>
    NODE <router>
    EDGE <a> <port-a> <b> <port-b>
    RULE <router> <bits>/<len> <port>
    ACL <router> <bits>/<len> permit|deny
    XFORM <router> <bits>/<len> -> <bits>/<len>
    PBR <router> <bits>/<len> <port>

Ports that appear in no EDGE line are host-facing: packets forwarded there
leave the network at that router. Update streams hold `+`/`-` lines with the
same rule syntax, one event per line.
"""

from __future__ import annotations

import math
import random
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from operator import length_hint

from .errors import DuplicateEdge, InfeasibleParameters, ParseError
from .prefixes import Prefix, format_prefix, parse_prefix

DEFAULT_MASK_DISTRIBUTION = {8: 1, 12: 2, 16: 4, 20: 6, 24: 12}
MAX_WIDTH = 128     # widest header a network file may declare
PORT_LIMIT = 1 << 24    # ports are ints in [0, PORT_LIMIT)


@dataclass
class NetworkSpec:
    width: int
    routers: list[str] = field(default_factory=list)
    rules: dict[str, dict[Prefix, int]] = field(default_factory=dict)
    edges: list[tuple[str, int, str, int]] = field(default_factory=list)
    acls: dict[str, dict[Prefix, bool]] = field(default_factory=dict)
    transforms: dict[str, dict[Prefix, Prefix]] = field(default_factory=dict)
    pbr: set[tuple[str, Prefix]] = field(default_factory=set)

    @property
    def rule_count(self) -> int:
        return sum(len(t) for t in self.rules.values())

    def protected_prefixes(self) -> set[Prefix]:
        return {p for _, p in self.pbr}

    def copy(self) -> "NetworkSpec":
        return NetworkSpec(
            width=self.width,
            routers=list(self.routers),
            rules={r: dict(t) for r, t in self.rules.items()},
            edges=list(self.edges),
            acls={r: dict(t) for r, t in self.acls.items()},
            transforms={r: dict(t) for r, t in self.transforms.items()},
            pbr=set(self.pbr),
        )


@dataclass(frozen=True, slots=True)
class UpdateEvent:
    op: str                  # "insert" | "delete"
    router: str
    prefix: Prefix
    port: int
    seq: int


@dataclass(frozen=True, slots=True)
class BenchRecord:
    seq: int
    verify_us: float
    affected_size: int
    ports_size: int
    paths_explored: int


@dataclass(frozen=True, slots=True)
class CdfSummary:
    count: int
    p50_us: float
    p90_us: float
    p99_us: float
    frac_under_250us: float


# ----------------------------------------------------------------------
# parsing

def _decimal(token: str, what: str) -> int:
    """A width or port token: ASCII decimal digits only, so a sign,
    underscores and other scripts' digits, which `int` takes, are errors."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"bad {what} {token!r}")
    if token.startswith("-"):
        raise ParseError(f"{what} must be non-negative")
    return int(token)


def _uncommented(text: str) -> list[str]:
    """The lines of `text`, each cut at its first `#`; a text with no `#`
    is not scanned again line by line."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.partition("#")[0] for raw in lines]
    return lines


class _Tokens:
    """Prefix and port tokens of one parse, each distinct token parsed once.

    Equal prefix tokens yield the same `Prefix` object, which the tables and
    the trie then share. The memo lives for one call because the width is
    fixed per call. The parsers read `prefixes` and `ports` inline and call
    `prefix`/`port` on a miss. A token that fails is not cached, so it
    reports the line it first appears on. Errors carry no line; the parser
    adds it.
    """

    __slots__ = ("width", "prefixes", "ports")

    def __init__(self, width: int):
        self.width = width
        self.prefixes: dict[str, Prefix] = {}
        self.ports: dict[str, int] = {}

    def prefix(self, token: str) -> Prefix:
        pfx = self.prefixes.get(token)
        if pfx is None:
            pfx = self.prefixes[token] = parse_prefix(token, self.width)
        return pfx

    def port(self, token: str) -> int:
        port = self.ports.get(token)
        if port is None:
            port = _decimal(token, "port")
            if port >= PORT_LIMIT:
                raise ParseError("port numbers are limited to 24 bits")
            self.ports[token] = port
        return port


def parse_network(text: str) -> NetworkSpec:
    """Parse the line format above; diagnostics carry 1-based line numbers.

    One loop reads every line. RULE and EDGE lines, nearly all of a large
    file, are tested first and read the prefix, port and router memos
    inline; each distinct prefix and port token is parsed once per call, so
    the cost follows the lines plus the distinct prefixes, and equal
    prefixes share one `Prefix` object. Checks raise without a line number;
    the handler at the end counts it from the lines not yet read, so no
    counter runs per line.
    """
    lines = _uncommented(text)
    rest = iter(lines)
    try:
        for parts in map(str.split, rest):   # the first directive fixes the width
            if parts:
                break
        else:
            return NetworkSpec(width=32)
        if parts[0] != "WIDTH":
            raise ParseError("first directive must be WIDTH")
        if len(parts) != 2:
            raise ParseError("WIDTH takes one argument")
        width = _decimal(parts[1], "width")
        if not 1 <= width <= MAX_WIDTH:
            raise ParseError(f"width {width} outside [1, {MAX_WIDTH}]")
        spec = NetworkSpec(width=width)
        rules, edges, pbr = spec.rules, spec.edges, spec.pbr
        tokens = _Tokens(width)
        prefixes, ports = tokens.prefixes, tokens.ports
        names: dict[str, str] = {}           # one string per router, shared by edges and tables
        linked: dict[str, set[int]] = {}     # router -> its ports in EDGE lines
        for parts in map(str.split, rest):
            if not parts:
                continue
            kw = parts[0]
            if kw == "RULE" or kw == "PBR":
                if len(parts) != 4:
                    raise ParseError(f"{kw} takes 3 arguments")
                _, r, ptok, qtok = parts
                table = rules.get(r)
                if table is None:
                    raise ParseError(f"unknown router {r!r}")
                pfx = prefixes.get(ptok)
                if pfx is None:
                    pfx = tokens.prefix(ptok)
                port = ports.get(qtok)
                if port is None:
                    port = tokens.port(qtok)
                if table.setdefault(pfx, port) != port:
                    raise ParseError(f"conflicting rule for {ptok} at {r!r}")
                if kw == "PBR":
                    pbr.add((r, pfx))
            elif kw == "EDGE":
                if len(parts) != 5:
                    raise ParseError("EDGE takes 4 arguments")
                _, atok, patok, btok, pbtok = parts
                pa = ports.get(patok)
                if pa is None:
                    pa = tokens.port(patok)
                pb = ports.get(pbtok)
                if pb is None:
                    pb = tokens.port(pbtok)
                a, b = names.get(atok), names.get(btok)
                if a is None or b is None:
                    raise ParseError(f"unknown router {atok if a is None else btok!r}")
                if a == b:
                    raise ParseError("self-loop edge")
                taken = linked[a]
                if pa in taken:
                    raise DuplicateEdge(f"port {pa} of {a!r} already linked")
                taken.add(pa)
                taken = linked[b]
                if pb in taken:
                    raise DuplicateEdge(f"port {pb} of {b!r} already linked")
                taken.add(pb)
                edges.append((a, pa, b, pb))
            elif kw == "NODE":
                if len(parts) != 2:
                    raise ParseError("NODE takes one argument")
                name = parts[1]
                if name in rules:
                    raise ParseError(f"duplicate router {name!r}")
                spec.routers.append(name)
                rules[name] = {}
                names[name] = name
                linked[name] = set()
            elif kw == "ACL":
                if len(parts) != 4 or parts[3] not in ("permit", "deny"):
                    raise ParseError("ACL takes: router prefix permit|deny")
                r = names.get(parts[1])
                if r is None:
                    raise ParseError(f"unknown router {parts[1]!r}")
                pfx = tokens.prefix(parts[2])
                permit = parts[3] == "permit"
                if spec.acls.setdefault(r, {}).setdefault(pfx, permit) != permit:
                    raise ParseError(f"conflicting ACL action for {parts[2]} at {r!r}")
            elif kw == "XFORM":
                if len(parts) != 5 or parts[3] != "->":
                    raise ParseError("XFORM takes: router match -> out")
                r = names.get(parts[1])
                if r is None:
                    raise ParseError(f"unknown router {parts[1]!r}")
                match = tokens.prefix(parts[2])
                out = tokens.prefix(parts[4])
                if match.length != out.length:
                    raise ParseError("rewrite requires equal prefix lengths")
                if spec.transforms.setdefault(r, {}).setdefault(match, out) != out:
                    raise ParseError(f"conflicting rewrite for {parts[2]} at {r!r}")
            elif kw == "WIDTH":
                raise ParseError("duplicate WIDTH directive")
            else:
                raise ParseError(f"unknown directive {kw!r}")
    except ParseError as exc:
        raise type(exc)(str(exc), line=len(lines) - length_hint(rest)) from None
    return spec


def _prefix_sort_key(width):
    def key(p: Prefix):
        return (p.value << (width - p.length), p.length)
    return key


def serialize_network(spec: NetworkSpec) -> str:
    """Canonical text form; parse(serialize(s)) == s."""
    key = _prefix_sort_key(spec.width)
    out = [f"WIDTH {spec.width}"]
    for r in spec.routers:
        out.append(f"NODE {r}")
    for a, pa, b, pb in spec.edges:
        out.append(f"EDGE {a} {pa} {b} {pb}")
    for r in spec.routers:
        for pfx in sorted(spec.rules.get(r, ()), key=key):
            word = "PBR" if (r, pfx) in spec.pbr else "RULE"
            out.append(f"{word} {r} {format_prefix(pfx, spec.width)} {spec.rules[r][pfx]}")
    for r in spec.routers:
        for pfx in sorted(spec.acls.get(r, ()), key=key):
            action = "permit" if spec.acls[r][pfx] else "deny"
            out.append(f"ACL {r} {format_prefix(pfx, spec.width)} {action}")
    for r in spec.routers:
        for match in sorted(spec.transforms.get(r, ()), key=key):
            target = spec.transforms[r][match]
            out.append(f"XFORM {r} {format_prefix(match, spec.width)} -> "
                       f"{format_prefix(target, spec.width)}")
    return "\n".join(out) + "\n"


def parse_update_stream(text: str, width: int) -> list[UpdateEvent]:
    """Parse `+`/`-` lines; prefix and port tokens are checked and shared,
    and line numbers added, as in `parse_network`."""
    lines = _uncommented(text)
    tokens = _Tokens(width)
    prefixes, ports = tokens.prefixes, tokens.ports
    events = []
    rest = iter(lines)
    try:
        for parts in map(str.split, rest):
            if not parts:
                continue
            if len(parts) != 4 or parts[0] not in ("+", "-"):
                raise ParseError("update line is: +|- router prefix port")
            sign, router, ptok, qtok = parts
            pfx = prefixes.get(ptok)
            if pfx is None:
                pfx = tokens.prefix(ptok)
            port = ports.get(qtok)
            if port is None:
                port = tokens.port(qtok)
            op = "insert" if sign == "+" else "delete"
            events.append(UpdateEvent(op, router, pfx, port, seq=len(events)))
    except ParseError as exc:
        raise ParseError(str(exc), line=len(lines) - length_hint(rest)) from None
    return events


def serialize_update_stream(events: list[UpdateEvent], width: int) -> str:
    lines = []
    for ev in events:
        sign = "+" if ev.op == "insert" else "-"
        lines.append(f"{sign} {ev.router} {format_prefix(ev.prefix, width)} {ev.port}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# synthetic generation

def _bfs_parents(adj: list[list[int]], root: int) -> list[int]:
    """Breadth-first parent of every node, scanning each adjacency list in
    order; the root is its own parent and unreached nodes get -1."""
    parent = [-1] * len(adj)
    parent[root] = root
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if parent[v] < 0:
                parent[v] = u
                queue.append(v)
    return parent


def generate_synthetic(nodes: int, edges: int, rules_per_node: int,
                       mask_distribution: dict[int, float] | None = None,
                       seed: int = 0, width: int = 32) -> NetworkSpec:
    """Connected random network with shortest-path forwarding tables.

    `rules_per_node` destination prefixes are sampled from the mask-length
    distribution and homed round-robin on the routers; every router gets one
    next-hop rule per prefix along a BFS shortest path, and each home router
    delivers its own prefixes on a host-facing port. Deterministic per seed.
    """
    if not 1 <= width <= MAX_WIDTH:
        raise InfeasibleParameters(f"width {width} outside [1, {MAX_WIDTH}]")
    if nodes < 1:
        raise InfeasibleParameters("need at least one node")
    if nodes > 1 and edges < nodes - 1:
        raise InfeasibleParameters(f"{edges} edges cannot connect {nodes} nodes")
    if edges > nodes * (nodes - 1) // 2:
        raise InfeasibleParameters("more edges than a simple graph allows")
    if rules_per_node < 1:
        raise InfeasibleParameters("need at least one prefix")
    dist = dict(mask_distribution or DEFAULT_MASK_DISTRIBUTION)
    dist = {l: w for l, w in dist.items() if 1 <= l <= width and w > 0}
    if not dist:
        raise InfeasibleParameters("mask distribution has no usable lengths")
    lengths = sorted(dist)
    cum_weights = list(accumulate(dist[l] for l in lengths))
    try:
        finite = math.isfinite(cum_weights[-1])
    except OverflowError:                   # an int too large for a float
        finite = False
    if not finite:
        raise InfeasibleParameters("mask distribution weights do not sum "
                                   "to a finite number")

    rng = random.Random(seed)
    names = [f"r{i}" for i in range(nodes)]
    spec = NetworkSpec(width=width, routers=list(names),
                       rules={r: {} for r in names})

    # random spanning tree, then extra edges
    pairs: set[tuple[int, int]] = set()
    edge_list: list[tuple[int, int]] = []
    for i in range(1, nodes):
        j = rng.randrange(i)
        pairs.add((j, i))
        edge_list.append((j, i))
    while len(edge_list) < edges:
        a = rng.randrange(nodes)
        b = rng.randrange(nodes)
        if a == b:
            continue
        e = (min(a, b), max(a, b))
        if e in pairs:
            continue
        pairs.add(e)
        edge_list.append(e)

    port_count = [0] * nodes
    port_of: dict[tuple[int, int], int] = {}
    for a, b in edge_list:
        pa, pb = port_count[a], port_count[b]
        port_count[a] += 1
        port_count[b] += 1
        port_of[(a, b)] = pa
        port_of[(b, a)] = pb
        spec.edges.append((names[a], pa, names[b], pb))
    host_port = list(port_count)                 # one spare port per router

    prefixes: list[Prefix] = []
    homes: list[int] = []
    seen: set[Prefix] = set()
    for k in range(rules_per_node):
        for _ in range(64):
            length = rng.choices(lengths, cum_weights=cum_weights)[0]
            pfx = Prefix(rng.getrandbits(length), length)
            if pfx not in seen:
                break
        else:
            raise InfeasibleParameters("could not sample distinct prefixes")
        seen.add(pfx)
        prefixes.append(pfx)
        homes.append(k % nodes)

    # next hop toward each home: a BFS parent tree that visits neighbours in
    # ascending index order, one tree per home
    adj: list[list[int]] = [[] for _ in range(nodes)]
    for a, b in edge_list:
        adj[a].append(b)
        adj[b].append(a)
    for peers in adj:
        peers.sort()
    pred_cache: dict[int, list[int]] = {}
    tables = spec.rules
    for pfx, h in zip(prefixes, homes):
        pred = pred_cache.get(h)
        if pred is None:
            pred = pred_cache[h] = _bfs_parents(adj, h)
        for u in range(nodes):
            if u == h:
                tables[names[u]][pfx] = host_port[u]
            else:
                tables[names[u]][pfx] = port_of[(u, pred[u])]
    return spec


# ----------------------------------------------------------------------
# update-stream benchmarking

def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def summarize(records: list[BenchRecord]) -> CdfSummary:
    times = sorted(r.verify_us for r in records)
    if not times:
        return CdfSummary(0, 0.0, 0.0, 0.0, 0.0)
    under = sum(1 for t in times if t < 250.0)
    return CdfSummary(
        count=len(times),
        p50_us=_percentile(times, 0.50),
        p90_us=_percentile(times, 0.90),
        p99_us=_percentile(times, 0.99),
        frac_under_250us=under / len(times),
    )


def run_update_stream(spec: NetworkSpec, stream: list[UpdateEvent],
                      mode: str = "per-update", batch_size: int = 100,
                      seed: int = 0) -> tuple[list[BenchRecord], CdfSummary]:
    """Apply a stream and verify after each event (or batch of events).

    The timed region covers update application, affected-set computation,
    session build, and the reachability query; loading the base network is
    instrumented separately and excluded. The query runs from the updated
    router toward the home of the updated prefix (falling back to a seeded
    random destination when no home is identifiable).
    """
    from .verify import NetworkState, batch_update, verify_reachability

    if mode not in ("per-update", "batch"):
        raise InfeasibleParameters(f"unknown mode {mode!r}")
    if batch_size < 1:
        raise InfeasibleParameters(f"batch_size must be >= 1, got {batch_size}")
    state = NetworkState.from_spec(spec)
    rng = random.Random(seed)
    records: list[BenchRecord] = []

    def pick_dst(ev: UpdateEvent) -> str:
        home = state.home_of(ev.prefix)
        if home is not None:
            return home
        others = [r for r in spec.routers if r != ev.router]
        return rng.choice(others) if others else ev.router

    if mode == "per-update":
        for ev in stream:
            dst = pick_dst(ev)
            t0 = time.perf_counter_ns()
            state.apply_update(ev)
            affected = state.affected_for(ev.prefix)
            session = state.session(affected=affected)
            report = verify_reachability(session, ev.router, dst)
            dt = time.perf_counter_ns() - t0
            records.append(BenchRecord(
                seq=ev.seq,
                verify_us=max(dt, 1) / 1000.0,
                affected_size=affected.m,
                ports_size=len(affected.p_affected),
                paths_explored=report.paths_explored,
            ))
    else:
        for i in range(0, len(stream), batch_size):
            chunk = stream[i:i + batch_size]
            dst = pick_dst(chunk[0])
            t0 = time.perf_counter_ns()
            report, affected = batch_update(state, chunk, chunk[0].router, dst)
            dt = time.perf_counter_ns() - t0
            records.append(BenchRecord(
                seq=chunk[-1].seq,
                verify_us=max(dt, 1) / 1000.0,
                affected_size=affected.m,
                ports_size=len(affected.p_affected),
                paths_explored=report.paths_explored,
            ))
    return records, summarize(records)
