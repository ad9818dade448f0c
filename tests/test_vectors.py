"""The paper's vector algebra as the engine runs it.

Projection onto a port is the AND ``port_mask & bits`` that every traversal
takes after ``session.enter``; filtering, residuals and decoding are read
off the session. The dense least-squares reference in ``netvec.oracle`` is
the ground truth for projection.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netvec.dataset import UpdateEvent, parse_network
from netvec.errors import DimensionMismatch, NonOrthonormalColumns
from netvec.oracle import basis_matrix, least_squares_reference
from netvec.prefixes import Prefix
from netvec.rectify import path_quality
from netvec.vectors import (ForwardingVector, StateVector, TransformMatrix,
                            apply_transform)
from netvec.verify import (NetworkState, detect_blackhole, detect_loop,
                           verify_reachability)

from conftest import TOY_NETWORK, naive_lpm, pfx, random_small_network


def fv(entries, owner=("X", 0)):
    return ForwardingVector.from_entries(entries, owner)


def sv(entries):
    return StateVector.from_bits(entries)


def session_of(text):
    return NetworkState.from_spec(parse_network(text)).session()


def toy_state():
    state = NetworkState.from_spec(parse_network(TOY_NETWORK))
    state.apply_update(UpdateEvent("insert", "Q", pfx("0/1"), 0, 0))
    return state


def full(session):
    return (1 << session.m) - 1


# ----------------------------------------------------------------------
# projection

def test_project_worked_example():
    v, b = fv([1, 1, 0]), sv([1, 1, 1])
    assert StateVector(v.bits & b.bits, 3) == sv([1, 1, 0])


def test_project_zero_absorbs():
    session = toy_state().session()
    report = verify_reachability(session, "Y", "R", StateVector.zeros(session.m))
    assert report.per_path == () and report.reachable == frozenset()
    assert detect_blackhole(session, "Y", StateVector.zeros(session.m)) == []


def test_project_dimension_mismatch():
    session = toy_state().session()
    wrong = StateVector.ones(session.m + 1)
    with pytest.raises(DimensionMismatch):
        verify_reachability(session, "Y", "R", wrong)
    with pytest.raises(DimensionMismatch):
        detect_loop(session, "Y", wrong)
    with pytest.raises(DimensionMismatch):
        detect_blackhole(session, "Y", wrong)


def test_project_equals_dense_normal_equations():
    rng = random.Random(11)
    for _ in range(300):
        m = 32
        v = fv([rng.randint(0, 1) for _ in range(m)])
        b = sv([rng.randint(0, 1) for _ in range(m)])
        expect = least_squares_reference(basis_matrix(v), np.array(b.to_bits(), float))
        got = StateVector(v.bits & b.bits, m)
        assert got.to_bits() == [int(x) for x in np.rint(expect["projection"])]


# ----------------------------------------------------------------------
# transform

def test_transform_worked_matrix():
    # columns (a1, q2, a3, a4); a3 rewrites to {a1, q2}
    t = TransformMatrix(4, {2: 0b0011})
    assert apply_transform(t, sv([0, 0, 1, 0])) == sv([1, 1, 0, 0])
    dense = t.to_dense()
    assert dense.tolist() == [[1, 0, 1, 0], [0, 1, 1, 0],
                              [0, 0, 0, 0], [0, 0, 0, 1]]


def test_transform_identity():
    t = TransformMatrix.identity(5)
    for bits in ([1, 0, 1, 0, 1], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1]):
        assert apply_transform(t, sv(bits)) == sv(bits)


def test_transform_matches_dense_multiply():
    rng = random.Random(5)
    for _ in range(100):
        m = 16
        cols = {}
        for k in rng.sample(range(m), rng.randint(0, 6)):
            cols[k] = rng.getrandbits(m)
        t = TransformMatrix(m, cols)
        b = sv([rng.randint(0, 1) for _ in range(m)])
        dense = t.to_dense() @ np.array(b.to_bits())
        expect = [1 if x else 0 for x in dense]
        assert apply_transform(t, b).to_bits() == expect


def test_transform_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_transform(TransformMatrix.identity(3), sv([1, 0]))


def test_transform_moved_mask_is_the_or_of_its_column_keys():
    rng = random.Random(9)
    for _ in range(50):
        m = rng.randint(1, 200)
        keys = rng.sample(range(m), rng.randint(0, min(m, 25)))
        t = TransformMatrix(m, {k: rng.getrandbits(m) for k in keys})
        want = 0
        for k in keys:
            want |= 1 << k
        assert t.moved == want
    assert TransformMatrix.identity(7).moved == 0


def test_transform_columns_are_read_only():
    t = TransformMatrix(4, {2: 0b0011})
    with pytest.raises(TypeError):
        t.columns[1] = 0b0100
    with pytest.raises(TypeError):
        del t.columns[2]
    assert dict(t.columns) == {2: 0b0011} and t.moved == 0b0100


def test_transform_rejects_columns_outside_its_width():
    with pytest.raises(DimensionMismatch):
        TransformMatrix(4, {4: 0b0001})


# ----------------------------------------------------------------------
# filter / union / residual

def test_filter_permit_all_and_deny_all():
    base = "WIDTH 3\nNODE A\nNODE B\nEDGE A 0 B 0\nRULE A 0/1 0\nRULE B 0/1 1\n"
    for action, survives in (("permit", True), ("deny", False)):
        session = session_of(base + f"ACL A /0 {action}\n")
        _, bits = session.enter("A", full(session))
        assert bits == (full(session) if survives else 0)


def test_filter_matches_per_class_simulation():
    for seed in range(12):
        spec = random_small_network(seed, n_acls=4)
        session = NetworkState.from_spec(spec).session()
        for router in spec.acls:
            _, out = session.enter(router, full(session))
            for j, cls in enumerate(session.classes):
                lo, _ = cls.range(spec.width)
                permit = naive_lpm(spec.acls, spec.width, router, lo)
                assert bool(out >> j & 1) == (permit is not False), (seed, router, cls)


def test_union_forwarding():
    for seed in range(6):
        spec = random_small_network(seed, gap_fraction=0.3)
        state = NetworkState.from_spec(spec)
        session = state.session()
        for router in spec.routers:
            memo = session.resolve(router, full(session))
            ors = 0
            for mask in memo.by_port.values():
                ors |= mask
            assert memo.union == ors
            for j, cls in enumerate(session.classes):
                lo, _ = cls.range(spec.width)
                routed = naive_lpm(state.tables, spec.width, router, lo) is not None
                assert bool(memo.union >> j & 1) == routed, (seed, router, cls)


def test_blackhole_residual():
    state = toy_state()
    session = state.session(update_prefix=pfx("0/1"))
    y = session.resolve("Y", full(session))
    arriving = y.by_port[0]                 # what Y sends U
    e, b1 = session.enter("U", arriving)
    residual = b1 & ~e.union
    assert session.decode(residual) == {pfx("001/3")}
    e, b1 = session.enter("R", e.by_port[0] & b1)
    assert session.decode(b1 & ~e.union) == {pfx("000/3")}   # R routes only 1/1
    holes = {h.router: h.headers for h in detect_blackhole(session, "Y")}
    assert holes["U"] == {pfx("001/3")} and holes["R"] == {pfx("000/3")}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255))
def test_residual_identity_m8(v_bits, b_bits):
    out = v_bits & b_bits                   # projection, as traversals take it
    c = b_bits & ~v_bits                    # residual, as detect_blackhole takes it
    assert c == b_bits ^ out
    # decomposition: projection + residual rebuilds the input
    assert out | c == b_bits
    assert out & c == 0


def test_projection_error_values():
    # Each hop's error is sqrt(#classes dropped there): with the whole
    # header space (000/3, 001/3, 01/2, 1/1), Y forwards only 00/2 and U
    # only 000/3 toward R.
    state = toy_state()
    (res,) = verify_reachability(state.session(), "Y", "R").per_path
    assert res.per_hop_errors == (("Y", math.sqrt(2)), ("U", 1.0))
    # over the update's classes (000/3, 001/3, 01/2) each hop drops one
    (res,) = verify_reachability(state.session(update_prefix=pfx("0/1")),
                                 "Y", "R").per_path
    assert res.per_hop_errors == (("Y", 1.0), ("U", 1.0))
    # without rewrites or ACLs, path_quality scores a path as reach does
    compared = 0
    for seed in range(6):
        spec = random_small_network(seed, gap_fraction=0.2)
        session = NetworkState.from_spec(spec).session()
        src, dst = spec.routers[0], spec.routers[-1]
        scored: dict[tuple, list] = {}
        for q in path_quality(session, src, dst):
            scored.setdefault(q.path, []).append(q.per_node)
        for res in verify_reachability(session, src, dst).per_path:
            assert res.per_hop_errors in scored[res.path], (seed, res.path)
            compared += 1
    assert compared > 0


# ----------------------------------------------------------------------
# accumulate / decode

def test_accumulate():
    # A sends 0/1 via B and 1/1 via C; D folds both paths into one vector
    session = session_of("WIDTH 2\nNODE A\nNODE B\nNODE C\nNODE D\n"
                         "EDGE A 0 B 0\nEDGE A 1 C 0\nEDGE B 1 D 0\nEDGE C 1 D 1\n"
                         "RULE A 0/1 0\nRULE A 1/1 1\nRULE B 0/1 1\nRULE C 1/1 1\n"
                         "RULE D 0/1 2\nRULE D 1/1 2\n")
    report = verify_reachability(session, "A", "D")
    finals = {r.path: session.decode(r.b_final.bits) for r in report.per_path}
    assert finals == {("A", "B", "D"): {Prefix(0, 1)}, ("A", "C", "D"): {Prefix(1, 1)}}
    assert report.reachable_vector == session.all_ones()


def test_accumulate_order_independent():
    for seed in range(4):
        spec = random_small_network(seed, gap_fraction=0.2, back_edges=2)
        session = NetworkState.from_spec(spec).session()
        report = verify_reachability(session, spec.routers[0], spec.routers[-1])
        acc1 = acc2 = 0
        for res in report.per_path:
            acc1 |= res.b_final.bits
        for res in reversed(report.per_path):
            acc2 |= res.b_final.bits
        assert acc1 == acc2 == report.reachable_vector.bits


def test_decode_worked_example():
    session = toy_state().session(update_prefix=pfx("0/1"))
    assert [str(c) for c in session.classes] == ["000/3", "001/3", "01/2"]
    assert session.decode(0b001) == {Prefix(0b000, 3)}
    assert session.decode(0) == frozenset()


def eight_classes():
    return session_of("WIDTH 3\nNODE A\n"
                      + "".join(f"RULE A {v:03b}/3 0\n" for v in range(8)))


def test_decode_encode_roundtrip():
    session = eight_classes()
    classes = tuple(Prefix(v, 3) for v in range(8))
    assert session.classes == classes
    rng = random.Random(4)
    for _ in range(30):
        chosen = {c for c in classes if rng.random() < 0.4}
        vec = session.query_vector(chosen)
        assert session.decode(vec.bits) == chosen


def test_decode_matches_dot_product_oracle():
    session = session_of("WIDTH 4\nNODE A\n"
                         + "".join(f"RULE A {v:04b}/4 0\n" for v in range(16)))
    classes, m = session.classes, session.m
    rng = random.Random(8)
    for _ in range(50):
        b = StateVector(rng.getrandbits(m), m)
        got = session.decode(b.bits)
        arr = np.array(b.to_bits())
        expect = {classes[k] for k in range(m)
                  if np.dot(arr, np.eye(m, dtype=int)[k]) != 0}
        assert got == expect


# ----------------------------------------------------------------------
# dense reference (netvec.oracle)

def test_least_squares_partial():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    out = least_squares_reference(a, np.array([1.0, 1.0, 1.0]))
    assert out["projection"].tolist() == [1.0, 1.0, 0.0]


def test_least_squares_identity_exact():
    a = np.eye(4)
    b = np.array([1.0, 0.0, 1.0, 1.0])
    out = least_squares_reference(a, b)
    assert np.allclose(out["projection"], b)
    assert np.allclose(out["x_hat"], b)


def test_least_squares_null_space():
    a = np.array([[0.0], [0.0], [1.0]])
    out = least_squares_reference(a, np.array([1.0, 1.0, 0.0]))
    assert np.allclose(out["projection"], 0)
    assert np.allclose(out["x_hat"], 0)


def test_least_squares_rejects_non_basis():
    with pytest.raises(NonOrthonormalColumns):
        least_squares_reference(np.array([[1.0], [1.0]]), np.array([1.0, 0.0]))
    with pytest.raises(NonOrthonormalColumns):
        least_squares_reference(np.array([[1.0, 1.0], [0.0, 0.0]]),
                                np.array([1.0, 0.0]))


# ----------------------------------------------------------------------
# algebraic properties

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1))
def test_projection_idempotent_and_monotone(v_bits, b_bits):
    once = v_bits & b_bits
    assert v_bits & once == once
    assert once & ~b_bits == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**12 - 1), st.dictionaries(st.integers(0, 11),
                                                  st.integers(0, 2**12 - 1),
                                                  max_size=4))
def test_transform_saturation(b_bits, cols):
    m = 12
    t = TransformMatrix(m, cols)
    b = StateVector(b_bits, m)
    out = apply_transform(t, b)
    # duplicate contributions saturate: applying to each bit and OR-ing agrees
    acc = 0
    for j in range(m):
        if b_bits >> j & 1:
            acc |= apply_transform(t, StateVector(1 << j, m)).bits
    assert out.bits == acc
