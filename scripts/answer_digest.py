#!/usr/bin/env python3
"""One sha256 over netvec's answers on a seeded network.

    PYTHONPATH=src python3 scripts/answer_digest.py --shape network --seed 7 --count 2000
    PYTHONPATH=src python3 scripts/answer_digest.py --shape repeat --seed 7 --count 2000
    PYTHONPATH=src python3 scripts/answer_digest.py --shape accumulate --seed 7 --count 2000
    PYTHONPATH=src python3 scripts/answer_digest.py --shape repair --seed 41 --count 60
    PYTHONPATH=src python3 scripts/answer_digest.py --shape whatif --seed 7 --count 120
    PYTHONPATH=src python3 scripts/answer_digest.py --shape parse --seed 7 --count 2000
    PYTHONPATH=src python3 scripts/answer_digest.py --shape state --seed 7 --count 2000
    PYTHONPATH=src python3 scripts/answer_digest.py --shape snapshot --seed 7 --count 400

Run it with the `src/` of two checkouts on PYTHONPATH and compare the
printed digests: equal digests mean bit-identical answers. Only the public
API of `netvec` is used, so any two versions of it can be compared.

network: `--count` queries on one root session of a synthetic network with
ACL entries, header rewrites and rule gaps, cycling reach, loop, reach,
blackhole between seeded router pairs. The digest covers reachable
classes, every `per_path` entry in order (path, final vector, per-hop
errors), paths explored, loop cycles and headers, blackhole routers and
headers, and the number of ports each reach and blackhole query touched.
Loop queries' touched counts are left out: whether ports after the one
closing a cycle count depends on where a version stops scanning a router.

repeat: the network shape's `--count` queries asked twice on one session,
each pass in its own seeded shuffled order, hashing the same fields as
network with the pass number. Answers and touched counts must not depend
on what a session keeps from earlier queries.

accumulate: the network shape's `--count` queries on one session whose
`touched` set is never reset, hashing the same answer lines as network
(the per-query counts read the grown set) and `len(session.touched)` after
each answer, loop queries included. The set only grows, and each query
adds the ports of every router it entered as its memo holds them then.

repair: `--count` cycles on a small network whose rewrites sit on one
router. A cycle is one `batch_update` over churn on withheld rules plus the
deletion of one intent's rule at its source; when the intent is lost,
`rectify` runs. The digest covers each cycle's reachable classes (or the
error name) and rectify's fixes and achieved classes (or the error name).

whatif: `--count` calls of `whatif_link_down` on one network with ACL
entries and rewrites, each between a seeded router pair, taking the links
in order and starting over after the last one (a count of at least the
link count fails every link; a larger one fails links again after earlier
what-ifs, which must have left the state as it was). The digest covers
each call's triggered deletions, reachable classes, paths explored and
every `per_path` entry in order.

parse: `parse_network` on the text of a width-32 network (dotted quads) and
of a width-16 network with ACL entries, rewrites and PBR rules, both
sprinkled with comments and blank lines, and `parse_update_stream` on
`--count` events in dotted quads. The digest covers routers, edges, rules,
ACL entries and rewrites in table order, PBR entries, and every event. It
also covers the error type, line and message of copies of the width-16
text with malformed lines inserted at seeded places.

state: `NetworkState`'s rule views on a network with ACL entries, rewrites
and withheld rules, after `--count` seeded churn events (inserts of
withheld rules, deletes, and port replacements), then after one batch that
fails on its last event (a second delete of its first rule), then after one `whatif_link_down`. At each of the
three points the digest covers every router's `tables` sorted by prefix,
`homes` sorted by prefix, and `home_of` of every churn event's prefix in
event order; it also covers the failed batch's error name and the
what-if's triggered deletions.

snapshot: the state shape's network and churn, keeping at `--count` / 4
event intervals a root session and a session on the last event's prefix
(nothing resolved yet). Then 12 seeded prefixes get 200 writes each
(inserts by routers that never had the rule, port replacements, deletes
and re-inserts), far more than any one owner map's router count, and only
then are the kept sessions queried. The digest covers each kept session's
class count and sorted `p_affected`, and per session 6 seeded reach
queries (as in network, with their touched counts) and a blackhole query
from each reach's source (reports and touched count). Sessions answer for
the network as it was when they were built, so every version prints the
same digest however it keeps that snapshot.
"""

from __future__ import annotations

import argparse
import hashlib
import random
from collections import deque

from netvec.dataset import (UpdateEvent, generate_synthetic, parse_network,
                            parse_update_stream, serialize_network,
                            serialize_update_stream)
from netvec.errors import NetvecError
from netvec.prefixes import Prefix
from netvec.rectify import rectify
from netvec.verify import (NetworkState, batch_update, detect_blackhole,
                           detect_loop, verify_reachability, whatif_link_down)

MASKS = {8: 1, 10: 2, 12: 4, 14: 6, 16: 8}
QUERY_MIX = ("reach", "loop", "reach", "blackhole")
CHURN_PER_CYCLE = 8


def _key(p: Prefix):
    return (p.value, p.length)


def build(seed: int, nodes: int, edges: int, prefixes: int, acls: int,
          rewrites: int, rewrite_routers: int | None, rng: random.Random):
    """A shortest-path network plus seeded ACL entries and rewrites on
    prefixes that already carry rules."""
    spec = generate_synthetic(nodes, edges, prefixes, mask_distribution=MASKS,
                              seed=seed, width=16)
    known = sorted({p for t in spec.rules.values() for p in t}, key=_key)
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
    return spec


def withhold(spec, rng: random.Random, count: int) -> list[tuple[str, Prefix, int]]:
    rules = [(r, p) for r in spec.routers for p in sorted(spec.rules[r], key=_key)]
    return [(r, p, spec.rules[r].pop(p)) for r, p in rng.sample(rules, count)]


def classes(prefixes) -> str:
    return " ".join(sorted(str(p) for p in prefixes))


def path_lines(rep) -> list[str]:
    """One line per `per_path` entry: routers, final vector, per-hop errors."""
    lines = []
    for res in rep.per_path:
        errs = " ".join(f"{r}:{e!r}" for r, e in res.per_hop_errors)
        lines.append(f"  {'/'.join(res.path)} {res.b_final.bits:x} {errs}")
    return lines


def network_queries(seed: int, count: int):
    """The network shape's root session and its `count` queries, as (kind,
    src, dst) in asking order."""
    rng = random.Random(f"{seed}:policy")
    spec = build(seed, 60, 240, 400, 30, 12, None, rng)
    withhold(spec, rng, spec.rule_count // 50)
    session = NetworkState.from_spec(spec).session()
    pairs = random.Random(f"{seed}:queries")
    return session, [(QUERY_MIX[i % len(QUERY_MIX)], *pairs.sample(spec.routers, 2))
                     for i in range(count)]


def answer_lines(session, kind: str, src: str, dst: str) -> list[str]:
    """One network-shape query's answer, with the size of `session.touched`
    after it (the ports the query touched, when the set was fresh)."""
    if kind == "reach":
        rep = verify_reachability(session, src, dst)
        lines = [f"reach {src} {dst} {rep.paths_explored} {rep.truncated} "
                 f"{len(session.touched)} {classes(rep.reachable)}"]
        return lines + path_lines(rep)
    if kind == "loop":
        rep = detect_loop(session, src)
        return [f"loop {src} {rep.cycle} {classes(rep.headers)}"]
    reps = detect_blackhole(session, src)
    return [f"blackhole {src} {len(session.touched)}"] + \
        [f"  {r.router} {classes(r.headers)}" for r in reps]


def network_digest(seed: int, count: int) -> str:
    session, queries = network_queries(seed, count)
    h = hashlib.sha256()
    for query in queries:
        session.touched = set()
        h.update("\n".join(answer_lines(session, *query)).encode() + b"\n")
    return h.hexdigest()


def accumulate_digest(seed: int, count: int) -> str:
    session, queries = network_queries(seed, count)
    h = hashlib.sha256()
    for query in queries:
        lines = answer_lines(session, *query) + [f"touched {len(session.touched)}"]
        h.update("\n".join(lines).encode() + b"\n")
    return h.hexdigest()


def repeat_digest(seed: int, count: int) -> str:
    session, queries = network_queries(seed, count)
    order = random.Random(f"{seed}:repeat")
    h = hashlib.sha256()
    for p in (1, 2):
        order.shuffle(queries)
        for query in queries:
            h.update(f"pass {p} ".encode())
            session.touched = set()
            h.update("\n".join(answer_lines(session, *query)).encode() + b"\n")
    return h.hexdigest()


def whatif_digest(seed: int, count: int) -> str:
    rng = random.Random(f"{seed}:policy")
    spec = build(seed, 24, 60, 120, 12, 6, None, rng)
    withhold(spec, rng, spec.rule_count // 50)
    state = NetworkState.from_spec(spec)
    pairs = random.Random(f"{seed}:queries")
    h = hashlib.sha256()
    for i in range(count):
        link = spec.edges[i % len(spec.edges)]
        src, dst = pairs.sample(spec.routers, 2)
        result = whatif_link_down(state, link, src, dst)
        rep = result.report
        lines = [f"whatif {link} {src} {dst} {result.triggered_deletions} "
                 f"{rep.paths_explored} {classes(rep.reachable)}"]
        lines += path_lines(rep)
        h.update("\n".join(lines).encode() + b"\n")
    return h.hexdigest()


def _route_to(spec, adj, dst: str, prefix: Prefix) -> None:
    """Shortest-path rules for `prefix` at every router, delivered at `dst`."""
    toward = {dst: None}
    queue = deque([dst])
    while queue:
        u = queue.popleft()
        for _, v in adj[u]:
            if v not in toward:
                toward[v] = next(p for p, w in adj[v] if w == u)
                queue.append(v)
    for r in spec.routers:
        host_port = 1 + max((p for p, _ in adj[r]), default=-1)
        spec.rules[r][prefix] = host_port if r == dst else toward[r]


def add_intents(spec, rng: random.Random, count: int, taken) -> list[tuple]:
    """Full-length prefixes no rule, ACL, rewrite or withheld rule covers,
    routed to a random home: (src, dst, prefix, src's port)."""
    width = spec.width
    used = set(taken) | {p for t in spec.rules.values() for p in t}
    used |= {p for t in spec.acls.values() for p in t}
    for t in spec.transforms.values():
        used |= set(t) | set(t.values())
    adj: dict[str, list[tuple[int, str]]] = {r: [] for r in spec.routers}
    for a, pa, b, pb in spec.edges:
        adj[a].append((pa, b))
        adj[b].append((pb, a))
    for entries in adj.values():
        entries.sort()
    intents = []
    while len(intents) < count:
        header = rng.getrandbits(width)
        if any(Prefix(header >> (width - n), n) in used for n in range(width + 1)):
            continue
        prefix = Prefix(header, width)
        used.add(prefix)
        dst = rng.choice(spec.routers)
        src = rng.choice([r for r in spec.routers if r != dst])
        _route_to(spec, adj, dst, prefix)
        intents.append((src, dst, prefix, spec.rules[src][prefix]))
    return intents


def repair_digest(seed: int, count: int) -> str:
    rng = random.Random(f"{seed}:policy")
    spec = build(seed, 14, 60, 200, 10, 4, 1, rng)
    withheld = withhold(spec, rng, 600)
    intents = add_intents(spec, rng, count, {p for _, p, _ in withheld})
    state = NetworkState.from_spec(spec)
    churn = random.Random(f"{seed}:churn")
    present: set[int] = set()
    seq = 0
    h = hashlib.sha256()
    for src, dst, prefix, port in intents:
        events = []
        for _ in range(CHURN_PER_CYCLE):
            i = churn.randrange(len(withheld))
            router, p, q = withheld[i]
            events.append(UpdateEvent("delete" if i in present else "insert",
                                      router, p, q, seq))
            present ^= {i}
            seq += 1
        events.append(UpdateEvent("delete", src, prefix, port, seq))
        seq += 1
        try:
            report, _ = batch_update(state, events, src, dst)
        except NetvecError as exc:
            h.update(f"batch {prefix} {type(exc).__name__}\n".encode())
            continue
        line = f"batch {prefix} {classes(report.reachable)}"
        if prefix not in report.reachable:
            try:
                result = rectify(state, src, dst, {prefix})
                fixes = " ".join(f"{f.router}:{f.prefix}:{f.port}" for f in result.fixes)
                line += f"\n  fixes {fixes} achieved {classes(result.achieved)}"
            except NetvecError as exc:
                line += f"\n  rectify {type(exc).__name__}"
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def state_views(state, prefixes) -> str:
    lines = [f"rule {r} {_key(p)} {port}" for r, table in sorted(state.tables.items())
             for p, port in sorted(table.items(), key=lambda kv: _key(kv[0]))]
    lines += [f"home {_key(p)} {r}" for p, r in sorted(state.homes.items(),
                                                        key=lambda kv: _key(kv[0]))]
    lines += [f"home_of {_key(p)} {state.home_of(p)}" for p in prefixes]
    return "\n".join(lines) + "\n"


def churn_network(seed: int):
    """The state and snapshot shapes' network with ACL entries, rewrites and
    withheld rules: spec, loaded state, each churnable rule's original port
    and its port now (None: absent)."""
    rng = random.Random(f"{seed}:policy")
    spec = build(seed, 40, 120, 200, 20, 8, None, rng)
    withheld = withhold(spec, rng, spec.rule_count // 20)
    state = NetworkState.from_spec(spec)
    ports = {(r, p): q for r in spec.routers
             for p, q in sorted(spec.rules[r].items(), key=lambda kv: _key(kv[0]))}
    current: dict[tuple, int | None] = dict(ports)
    for r, p, q in withheld:
        ports[(r, p)], current[(r, p)] = q, None
    return spec, state, ports, current


def churn_step(state, churn: random.Random, keys, ports, current, seq: int) -> UpdateEvent:
    """Apply one seeded churn event on a rule of `keys` (an insert of an
    absent rule, a delete, or a port replacement) and return it."""
    r, p = key = churn.choice(keys)
    now = current[key]
    if now is None:
        ev = UpdateEvent("insert", r, p, ports[key], seq)
    elif churn.random() < 0.5:
        ev = UpdateEvent("delete", r, p, now, seq)
    else:
        ev = UpdateEvent("insert", r, p, now + churn.randint(1, 3), seq)
    state.apply_update(ev)
    current[key] = None if ev.op == "delete" else ev.port
    return ev


def state_digest(seed: int, count: int) -> str:
    spec, state, ports, current = churn_network(seed)
    keys = list(ports)
    churn = random.Random(f"{seed}:churn")
    events = [churn_step(state, churn, keys, ports, current, seq) for seq in range(count)]
    prefixes = [ev.prefix for ev in events]
    h = hashlib.sha256()
    h.update(state_views(state, prefixes).encode())
    present = [key for key in keys if current[key] is not None]
    batch = [UpdateEvent("delete", *key, current[key], count + i)
             for i, key in enumerate(churn.sample(present, 3))]
    r, p = batch[0].router, batch[0].prefix
    batch.append(UpdateEvent("delete", r, p, current[(r, p)], count + 3))
    try:
        batch_update(state, batch, *churn.sample(spec.routers, 2))
        h.update(b"batch applied\n")
    except NetvecError as exc:
        h.update(f"batch {type(exc).__name__}\n".encode())
    h.update(state_views(state, prefixes).encode())
    result = whatif_link_down(state, churn.choice(spec.edges), *churn.sample(spec.routers, 2))
    h.update(f"whatif {result.triggered_deletions}\n".encode())
    h.update(state_views(state, prefixes).encode())
    return h.hexdigest()


SNAPSHOT_POINTS = 4      # churn points at which the snapshot shape keeps sessions
SNAPSHOT_PREFIXES = 12   # prefixes rewritten after the churn
SNAPSHOT_WRITES = 200    # writes per rewritten prefix
SNAPSHOT_QUERIES = 6     # reach and blackhole queries per kept session


def snapshot_digest(seed: int, count: int) -> str:
    spec, state, ports, current = churn_network(seed)
    keys = list(ports)
    churn = random.Random(f"{seed}:churn")
    kept = []
    every = max(1, count // SNAPSHOT_POINTS)
    for seq in range(count):
        ev = churn_step(state, churn, keys, ports, current, seq)
        if (seq + 1) % every == 0:
            kept.append(state.session())
            kept.append(state.session(affected=state.affected_for(ev.prefix)))
    writes = random.Random(f"{seed}:writes")
    seq = count
    for p in writes.sample(sorted({p for _, p in keys}, key=_key), SNAPSHOT_PREFIXES):
        owners = [(r, p) for r in spec.routers]
        for key in owners:
            if key not in ports:                # a router that never had this rule
                ports[key], current[key] = writes.randint(0, 3), None
        for _ in range(SNAPSHOT_WRITES):
            churn_step(state, writes, owners, ports, current, seq)
            seq += 1
    queries = random.Random(f"{seed}:queries")
    h = hashlib.sha256()
    for i, session in enumerate(kept):
        lines = [f"session {i} {session.m} {sorted(session.affected.p_affected)}"]
        for _ in range(SNAPSHOT_QUERIES):
            src, dst = queries.sample(spec.routers, 2)
            session.touched = set()
            rep = verify_reachability(session, src, dst)
            lines.append(f"reach {src} {dst} {rep.paths_explored} {rep.truncated} "
                         f"{len(session.touched)} {classes(rep.reachable)}")
            lines += path_lines(rep)
            session.touched = set()
            reps = detect_blackhole(session, src)
            lines.append(f"blackhole {src} {len(session.touched)}")
            lines += [f"  {r.router} {classes(r.headers)}" for r in reps]
        h.update("\n".join(lines).encode() + b"\n")
    return h.hexdigest()


# Inserted one or two at a time into valid text; a RULE line copied with
# another port is added to these.
BAD_LINES = ("RULE r0 012/3 0", "RULE r0 0/1 -5", "RULE r0 0/1 99999999999",
             "RULE r0 0/1 x", "RULE nope 0/1 0", "RULE r0 1/40 0", "PBR r0 0/1",
             "ACL r1 0/1 block", "XFORM r1 0/1 -> 00/2", "WIDTH 16",
             "EDGE r0 0 r1 0", "EDGE r0 1 r0 2", "NODE r1", "FOO r0")


def with_comments(text: str, rng: random.Random) -> str:
    lines = []
    for line in text.splitlines():
        if rng.random() < 0.05:
            lines.append(rng.choice(("", "  ", "# note")))
        lines.append(line + "  # note" if rng.random() < 0.1 else line)
    return "\n".join(lines) + "\n"


def spec_lines(spec) -> list[str]:
    lines = [f"width {spec.width} routers {' '.join(spec.routers)}"]
    lines += [f"edge {e}" for e in spec.edges]
    for kind, tables in (("rule", spec.rules), ("acl", spec.acls),
                         ("xform", spec.transforms)):
        for r, table in tables.items():
            lines += [f"{kind} {r} {p!r} {v!r}" for p, v in table.items()]
    lines += [f"pbr {r} {p!r}" for r, p in sorted(spec.pbr, key=lambda e: (e[0], _key(e[1])))]
    return lines


def parse_digest(seed: int, count: int) -> str:
    rng = random.Random(f"{seed}:parse")
    wide = generate_synthetic(40, 120, 150, seed=seed, width=32)
    policy = build(seed, 24, 60, 120, 12, 6, None, rng)
    rules = [(r, p) for r in policy.routers for p in sorted(policy.rules[r], key=_key)]
    policy.pbr = set(rng.sample(rules, 20))
    h = hashlib.sha256()
    texts = [with_comments(serialize_network(s), rng) for s in (wide, policy)]
    for text in texts:
        h.update("\n".join(spec_lines(parse_network(text))).encode() + b"\n")
    wide_rules = [(r, p, port) for r in wide.routers for p, port in wide.rules[r].items()]
    events = [UpdateEvent(rng.choice(("insert", "delete")), *rng.choice(wide_rules), seq=i)
              for i in range(count)]
    stream = parse_update_stream(with_comments(serialize_update_stream(events, 32), rng), 32)
    h.update("".join(f"{e.op} {e.router} {e.prefix!r} {e.port} {e.seq}\n"
                     for e in stream).encode())
    lines = texts[1].splitlines()
    r, p = rules[0]
    conflict = f"RULE {r} {p} {policy.rules[r][p] + 1}"
    for bad in BAD_LINES + (conflict,):
        for copies in (1, 2):
            broken = list(lines)
            for _ in range(copies):
                broken.insert(rng.randrange(1, len(broken) + 1), bad)
            try:
                parse_network("\n".join(broken))
                h.update(f"{bad!r} {copies} parsed\n".encode())
            except NetvecError as exc:
                h.update(f"{bad!r} {copies} {type(exc).__name__} {exc.line} {exc}\n".encode())
    return h.hexdigest()


DIGESTS = {"network": network_digest, "repeat": repeat_digest,
           "accumulate": accumulate_digest, "repair": repair_digest,
           "whatif": whatif_digest, "parse": parse_digest, "state": state_digest,
           "snapshot": snapshot_digest}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", choices=sorted(DIGESTS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    args = ap.parse_args(argv)
    print(DIGESTS[args.shape](args.seed, args.count))


if __name__ == "__main__":
    main()
