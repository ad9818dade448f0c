import hashlib
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netvec.dataset import (BenchRecord, NetworkSpec, generate_synthetic,
                            parse_network, parse_update_stream, run_update_stream,
                            serialize_network, serialize_update_stream,
                            summarize)
from netvec.errors import DuplicateEdge, InfeasibleParameters, ParseError
from netvec.prefixes import Prefix

from conftest import TOY_NETWORK, pfx


# ----------------------------------------------------------------------
# parser

def test_parse_toy_network(toy_spec):
    assert toy_spec.width == 3
    assert toy_spec.routers == ["Y", "U", "Q", "R"]
    assert toy_spec.rules["U"] == {pfx("000/3"): 0, pfx("01/2"): 0}
    assert len(toy_spec.edges) == 3


def test_parse_empty_file():
    spec = parse_network("")
    assert spec.routers == [] and spec.rule_count == 0


def test_parse_comments_and_blanks():
    spec = parse_network("# header\nWIDTH 4\n\nNODE A  # trailing\n")
    assert spec.width == 4 and spec.routers == ["A"]


@pytest.mark.parametrize("text,fragment", [
    ("NODE A\n", "WIDTH"),
    ("WIDTH 3\nRULE A 0/1 0\n", "unknown router"),
    ("WIDTH 3\nNODE A\nRULE A 012/3 0\n", "prefix"),
    ("WIDTH 3\nNODE A\nRULE A 0101/4 0\n", "length"),
    ("WIDTH 3\nNODE A\nNODE A\n", "duplicate"),
    ("WIDTH 3\nNODE A\nEDGE A 0 A 1\n", "self-loop"),
    ("WIDTH 3\nNODE A\nNODE B\nRULE A 0/1 0\nRULE A 0/1 1\n", "conflicting"),
    ("WIDTH 3\nNODE A\nXFORM A 0/1 -> 00/2\n", "equal prefix lengths"),
    ("WIDTH 3\nNODE A\nACL A 0/1 block\n", "permit|deny"),
    ("WIDTH 3\nWIDTH 3\n", "duplicate WIDTH"),
])
def test_parse_diagnostics(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_network(text)
    assert fragment in str(err.value)
    assert err.value.line is not None


def test_parse_duplicate_edge_port():
    text = "WIDTH 3\nNODE A\nNODE B\nNODE C\nEDGE A 0 B 0\nEDGE A 0 C 0\n"
    with pytest.raises(DuplicateEdge):
        parse_network(text)


def test_parse_dotted_quad_rules():
    spec = parse_network("WIDTH 32\nNODE A\nRULE A 10.0.0.0/8 1\n")
    assert spec.rules["A"] == {Prefix(10, 8): 1}


def test_roundtrip_toy(toy_spec):
    assert parse_network(serialize_network(toy_spec)) == toy_spec


def test_roundtrip_all_directives():
    text = (TOY_NETWORK
            + "PBR Q 11/2 0\nACL U 01/2 deny\nACL Y 0/1 permit\n"
            + "XFORM U 01/2 -> 00/2\n")
    spec = parse_network(text)
    again = parse_network(serialize_network(spec))
    assert again == spec
    assert again.pbr == {("Q", pfx("11/2"))}


def test_roundtrip_generated_spec():
    spec = generate_synthetic(9, 14, 7, seed=13, width=32)
    assert parse_network(serialize_network(spec)) == spec


@pytest.mark.parametrize("width,a,b", [(32, "10.0.0.0/8", "11.0.0.0/8"),
                                        (16, "00001010/8", "00001011/8")])
def test_equal_tokens_share_one_prefix(width, a, b):
    spec = parse_network(f"WIDTH {width}\nNODE A\nNODE B\nEDGE A 0 B 0\n"
                         f"RULE A {a} 0\nRULE B {a} 1\nPBR B {b} 1\n"
                         f"ACL A {a} deny\nACL B {b} permit\n"
                         f"XFORM A {a} -> {b}\nXFORM B {b} -> {a}\n")
    p, q = spec.rules["B"]
    assert (p, q) == (Prefix(10, 8), Prefix(11, 8))
    for x in (*spec.rules["A"], *spec.acls["A"], *spec.transforms["A"],
              spec.transforms["B"][q]):
        assert x is p
    for x in (*spec.acls["B"], *spec.transforms["B"], spec.transforms["A"][p],
              *(r for _, r in spec.pbr)):
        assert x is q
    events = parse_update_stream(f"+ A {a} 0\n- B {a} 1\n+ A {b} 2\n", width)
    assert events[0].prefix is events[1].prefix
    assert events[0].prefix == p and events[2].prefix == q


def test_malformed_token_after_repeats_reports_its_line():
    text = "WIDTH 3\nNODE A\n" + "RULE A 01/2 0\n" * 3 + "RULE A 012/3 0\n"
    with pytest.raises(ParseError, match="^line 6: prefix bits '012'"):
        parse_network(text)


def test_same_malformed_token_twice_reports_first_line():
    text = "WIDTH 3\nNODE A\nRULE A 01/2 0\nRULE A 2/1 0\nRULE A 2/1 0\n"
    with pytest.raises(ParseError) as err:
        parse_network(text)
    assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_update_stream("+ A 01/2 0\n- A 2/1 0\n+ A 2/1 0\n", 3)
    assert err.value.line == 2


def test_conflicting_rule_after_interned_repeat():
    text = ("WIDTH 3\nNODE A\nNODE B\nRULE A 01/2 0\nRULE B 01/2 1\n"
            "RULE A 01/2 0\nRULE A 01/2 1\n")
    with pytest.raises(ParseError, match="^line 7: conflicting rule for 01/2 at 'A'"):
        parse_network(text)


def _specs(width):
    """Specs whose every table entry survives serialize/parse: routers each
    with a rule table, ACL and rewrite tables only where they hold entries,
    PBR only on rules, and each port linked at most once."""
    prefixes = st.builds(lambda length, bits: Prefix(bits >> (width - length), length),
                         st.integers(0, width), st.integers(0, (1 << width) - 1))

    @st.composite
    def build(draw):
        n = draw(st.integers(1, 4))
        routers = [f"r{i}" for i in range(n)]
        spec = NetworkSpec(width=width, routers=routers,
                           rules={r: draw(st.dictionaries(prefixes, st.integers(0, 5),
                                                          max_size=6))
                                  for r in routers})
        free = {r: list(range(6)) for r in routers}
        for a, b in draw(st.lists(st.tuples(st.sampled_from(routers),
                                            st.sampled_from(routers)), max_size=4)):
            if a != b and free[a] and free[b]:
                spec.edges.append((a, free[a].pop(0), b, free[b].pop()))
        for r in routers:
            acl = draw(st.dictionaries(prefixes, st.booleans(), max_size=3))
            if acl:
                spec.acls[r] = acl
            matches = draw(st.lists(prefixes, max_size=3, unique=True))
            if matches:
                spec.transforms[r] = {
                    m: Prefix(draw(st.integers(0, (1 << m.length) - 1)), m.length)
                    for m in matches}
            for p in spec.rules[r]:
                if draw(st.booleans()):
                    spec.pbr.add((r, p))
        return spec
    return build()


@settings(max_examples=150, deadline=None)
@given(st.one_of(_specs(16), _specs(32)))
def test_roundtrip_property(spec):
    assert parse_network(serialize_network(spec)) == spec


def test_parser_totality_fuzz():
    rng = random.Random(99)
    corpus_words = ["WIDTH", "NODE", "EDGE", "RULE", "ACL", "XFORM", "PBR",
                    "3", "a", "0/1", "->", "permit", "#x", "\x00", "1" * 40]
    for _ in range(300):
        lines = []
        for _ in range(rng.randint(0, 8)):
            lines.append(" ".join(rng.choice(corpus_words)
                                  for _ in range(rng.randint(0, 6))))
        text = "\n".join(lines)
        try:
            parse_network(text)
        except ParseError:
            pass        # diagnostics are the contract; crashes are not


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=200))
def test_parser_totality_binary(data):
    try:
        parse_network(data.decode("utf-8", errors="replace"))
    except ParseError:
        pass


# ----------------------------------------------------------------------
# update streams

def test_update_stream_roundtrip():
    text = "+ A 01/2 0\n- B 1/1 2\n"
    events = parse_update_stream(text, 3)
    assert [e.op for e in events] == ["insert", "delete"]
    assert [e.seq for e in events] == [0, 1]
    assert serialize_update_stream(events, 3) == text


def test_update_stream_diagnostics():
    with pytest.raises(ParseError):
        parse_update_stream("* A 01/2 0\n", 3)
    with pytest.raises(ParseError):
        parse_update_stream("+ A 01/2\n", 3)


@pytest.mark.parametrize("port,fragment", [
    ("-5", "port must be non-negative"),
    ("99999999999", "port numbers are limited to 24 bits"),
])
def test_update_stream_port_range(port, fragment):
    with pytest.raises(ParseError, match=f"^line 2: {fragment}"):
        parse_update_stream(f"+ r0 0/1 5\n+ r0 0/1 {port}\n", 16)


# ----------------------------------------------------------------------
# generator

def test_generate_minimal_two_routers():
    spec = generate_synthetic(2, 1, 2, seed=1, width=8,
                              mask_distribution={4: 1})
    assert spec.routers == ["r0", "r1"]
    assert len(spec.edges) == 1
    # each prefix is routed from the far router toward its home
    homes = {p: r for r, t in spec.rules.items() for p, port in t.items()
             if all((r, port) != (a, pa) and (r, port) != (b, pb)
                    for a, pa, b, pb in spec.edges)}
    assert len(homes) == 2
    for r, table in spec.rules.items():
        assert len(table) == 2


def test_generate_average_degree():
    spec = generate_synthetic(50, 500, 10, seed=3, width=16)
    assert len(spec.edges) == 500
    degree = 2 * len(spec.edges) / len(spec.routers)
    assert degree == 20


def test_generate_deterministic():
    a = generate_synthetic(12, 30, 8, seed=7)
    b = generate_synthetic(12, 30, 8, seed=7)
    assert serialize_network(a) == serialize_network(b)
    c = generate_synthetic(12, 30, 8, seed=8)
    assert serialize_network(a) != serialize_network(c)


def test_generate_connected():
    spec = generate_synthetic(30, 29, 5, seed=5, width=8,
                              mask_distribution={6: 1})
    adj = {r: set() for r in spec.routers}
    for a, _, b, _ in spec.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {spec.routers[0]}
    frontier = [spec.routers[0]]
    while frontier:
        nxt = frontier.pop()
        for peer in adj[nxt]:
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    assert seen == set(spec.routers)


def test_generate_infeasible():
    with pytest.raises(InfeasibleParameters):
        generate_synthetic(5, 3, 1)
    with pytest.raises(InfeasibleParameters):
        generate_synthetic(3, 4, 1)
    with pytest.raises(InfeasibleParameters):
        generate_synthetic(2, 1, 0)
    for width in (0, 129):
        with pytest.raises(InfeasibleParameters, match="width"):
            generate_synthetic(3, 2, 1, width=width)
    # weights random.choices cannot sample from: infinite, or an overflowing sum
    for dist in ({8: float("inf")}, {8: 1e308, 9: 1e308}, {8: 1, 9: 10**400}):
        with pytest.raises(InfeasibleParameters, match="finite"):
            generate_synthetic(3, 2, 1, mask_distribution=dist)


def test_generate_shortest_path_tables():
    spec = generate_synthetic(10, 20, 6, seed=11, width=8,
                              mask_distribution={5: 1})
    # every router has a rule for every prefix
    prefixes = {p for t in spec.rules.values() for p in t}
    for r in spec.routers:
        assert set(spec.rules[r]) == prefixes
    # and its port leads one hop closer to the prefix's home
    peer = {}
    for a, pa, b, pb in spec.edges:
        peer[(a, pa)] = b
        peer[(b, pb)] = a
    for p in prefixes:
        home, = (r for r in spec.routers if (r, spec.rules[r][p]) not in peer)
        hops = {home: 0}
        queue = deque([home])
        while queue:
            u = queue.popleft()
            for (r, _), v in peer.items():
                if r == u and v not in hops:
                    hops[v] = hops[u] + 1
                    queue.append(v)
        for r in spec.routers:
            if r != home:
                assert hops[peer[(r, spec.rules[r][p])]] == hops[r] - 1


# sha256 of serialize_network for shapes generated with scipy's BFS, which
# visits neighbours in ascending index order like the generator's own BFS
GOLDEN_SHAPES = [
    (dict(nodes=1, edges=0, rules_per_node=3, seed=1, width=8),
     "44aaadaad515c295cc6d0bca2da7895d221719c367a018b10685daa87e62bb83"),
    (dict(nodes=2, edges=1, rules_per_node=4, seed=2, width=8,
          mask_distribution={4: 1}),
     "411b75a3276208c5f5417ab71b72031ff36185c77e7c6e00d32e2d7fb7eb0773"),
    (dict(nodes=30, edges=29, rules_per_node=12, seed=5, width=8,
          mask_distribution={6: 1}),
     "00b195112b3b652a76af1c23fb2d05f8ac1ae45a9e44d93920b881de8815d6a1"),
    (dict(nodes=40, edges=120, rules_per_node=50, seed=3, width=16,
          mask_distribution={8: 1, 10: 2, 12: 4, 14: 6, 16: 8}),
     "3aeb9163dbe81a62154fcad0b5d66e58a900c36ad176514fe3944e14e93effd2"),
    (dict(nodes=300, edges=3000, rules_per_node=20, seed=4, width=32),
     "dd103c3a958081bb5a883caeb52b752d8c5cbeae5c6ffc72b3a96ab0a2266ebd"),
]


@pytest.mark.parametrize("shape,digest", GOLDEN_SHAPES)
def test_generate_golden_digest(shape, digest):
    text = serialize_network(generate_synthetic(**shape))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ----------------------------------------------------------------------
# stream runner

def test_run_stream_empty():
    spec = generate_synthetic(4, 4, 3, seed=2, width=8,
                              mask_distribution={4: 1})
    records, summary = run_update_stream(spec, [])
    assert records == [] and summary.count == 0


def test_run_stream_rejects_bad_mode_and_batch_size(toy_spec):
    events = parse_update_stream("+ Q 0/1 0\n", 3)
    for kwargs in ({"mode": "bogus"}, {"mode": "batch", "batch_size": 0},
                   {"mode": "batch", "batch_size": -3}):
        with pytest.raises(InfeasibleParameters):
            run_update_stream(toy_spec, events, **kwargs)


def test_run_stream_single_insert_affected_count(toy_spec):
    events = parse_update_stream("+ Q 0/1 0\n", 3)
    records, summary = run_update_stream(toy_spec, events)
    assert len(records) == 1
    rec = records[0]
    assert rec.affected_size == 3
    assert rec.verify_us > 0
    assert summary.count == 1


def test_run_stream_batch_mode(toy_spec):
    events = parse_update_stream("+ Q 0/1 0\n+ Q 11/2 1\n+ Y 111/3 1\n", 3)
    records, summary = run_update_stream(toy_spec, events, mode="batch",
                                         batch_size=2)
    assert len(records) == 2            # ceil(3 / 2) batches
    assert records[0].seq == 1 and records[1].seq == 2
    assert summary.count == 2


def test_load_time_not_attributed_to_verification():
    import time

    from netvec.dataset import UpdateEvent

    # loading dominates the wall time here and must not leak into the
    # per-update verification figures
    spec = generate_synthetic(150, 600, 300, seed=21, width=32)
    rng = random.Random(1)
    keys = [(r, p) for r in spec.routers for p in spec.rules[r]]
    events = []
    for i, (r, p) in enumerate(rng.sample(keys, 10)):
        port = spec.rules[r].pop(p)
        events.append(UpdateEvent("insert", r, p, port, i))
    t0 = time.perf_counter()
    records, _ = run_update_stream(spec, events)
    wall = time.perf_counter() - t0
    verify_total = sum(r.verify_us for r in records) / 1e6
    assert verify_total < 0.5 * wall


def test_summarize_percentiles():
    records = [BenchRecord(i, float(i + 1), 1, 1, 1) for i in range(100)]
    s = summarize(records)
    assert s.count == 100
    assert s.p50_us == pytest.approx(50.5)
    assert s.frac_under_250us == 1.0
