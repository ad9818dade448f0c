import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netvec.errors import (DimensionMismatch, EmptyInput, InvalidPair,
                           MissingMapping, NonOrthonormalColumns)
from netvec.prefixes import Prefix
from netvec.vectors import (ForwardCase, FilterVector, ForwardingVector,
                            StateVector, TransformMatrix, accumulate_reachable,
                            apply_filter, apply_transform, basis_matrix,
                            blackhole_residual, classify_case, decode_reachable,
                            encode, least_squares_reference, project,
                            projection_error, union_forwarding)


def fv(entries, owner=("X", 0)):
    return ForwardingVector.from_entries(entries, owner)


def sv(entries):
    return StateVector.from_bits(entries)


# ----------------------------------------------------------------------
# projection

def test_project_worked_example():
    assert project(fv([1, 1, 0]), sv([1, 1, 1])) == sv([1, 1, 0])


def test_project_zero_absorbs():
    v = fv([1, 0, 1, 1])
    assert project(v, StateVector.zeros(4)).is_zero()


def test_project_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        project(fv([1, 0]), sv([1, 0, 1]))


def test_project_equals_dense_normal_equations():
    rng = random.Random(11)
    for _ in range(300):
        m = 32
        v = fv([rng.randint(0, 1) for _ in range(m)])
        b = sv([rng.randint(0, 1) for _ in range(m)])
        expect = least_squares_reference(basis_matrix(v), np.array(b.to_bits(), float))
        got = project(v, b)
        assert got.to_bits() == [int(x) for x in np.rint(expect["projection"])]


def test_classify_cases():
    assert classify_case(fv([1, 1, 0]), sv([1, 1, 1])) is ForwardCase.PARTIAL_FORWARD
    assert classify_case(fv([1, 0, 1]), sv([1, 0, 1])) is ForwardCase.FULL_FORWARD
    assert classify_case(fv([0, 0, 1]), sv([1, 1, 0])) is ForwardCase.BLOCKED
    with pytest.raises(EmptyInput):
        classify_case(fv([1, 0, 0]), StateVector.zeros(3))


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
    b = sv([1, 0, 1])
    assert apply_filter(FilterVector(0b111, 3, "A"), b) == b
    assert apply_filter(FilterVector(0, 3, "A"), b).is_zero()


def test_filter_matches_per_class_simulation():
    rng = random.Random(9)
    for _ in range(50):
        m = 12
        g = FilterVector(rng.getrandbits(m), m, "A")
        b = sv([rng.randint(0, 1) for _ in range(m)])
        out = apply_filter(g, b)
        for j in range(m):
            survived = bool(b.bits >> j & 1) and bool(g.bits >> j & 1)
            assert bool(out.bits >> j & 1) == survived


def test_union_forwarding():
    a = fv([1, 0, 0], ("U", 0))
    b = fv([0, 1, 0], ("U", 1))
    u = union_forwarding([a, b])
    assert u.to_bits() == [1, 1, 0]
    assert u.owner == ("U", None)
    assert union_forwarding([a]).to_bits() == a.to_bits()
    with pytest.raises(EmptyInput):
        union_forwarding([])
    with pytest.raises(DimensionMismatch):
        union_forwarding([a, fv([1, 0], ("U", 2))])


def test_blackhole_residual():
    c = blackhole_residual(sv([1, 1, 0]), sv([0, 1, 0]))
    assert c == sv([1, 0, 0])
    assert blackhole_residual(sv([1, 1]), sv([1, 1])).is_zero()
    with pytest.raises(InvalidPair):
        blackhole_residual(sv([0, 1]), sv([1, 1]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255))
def test_residual_identity_m8(v_bits, b_bits):
    v = ForwardingVector(v_bits, 8, ("X", 0))
    b = StateVector(b_bits, 8)
    out = project(v, b)
    c = blackhole_residual(b, out)
    assert c.bits == b.bits & ~v_bits
    # decomposition: projection + residual rebuilds the input
    assert out.bits | c.bits == b.bits
    assert out.bits & c.bits == 0


def test_projection_error_values():
    err, l2 = projection_error(sv([1, 1, 0]), sv([0, 1, 0]))
    assert err == sv([1, 0, 0]) and l2 == 1.0
    _, l2 = projection_error(sv([1, 1, 1, 1]), StateVector.zeros(4))
    assert l2 == 2.0
    _, l2 = projection_error(sv([1, 0]), sv([1, 0]))
    assert l2 == 0.0


# ----------------------------------------------------------------------
# accumulate / decode

def test_accumulate():
    assert accumulate_reachable(sv([0, 1, 0]), sv([0, 0, 1])) == sv([0, 1, 1])
    a = sv([1, 0, 1])
    assert accumulate_reachable(a, a) == a


def test_accumulate_order_independent():
    rng = random.Random(2)
    vs = [StateVector(rng.getrandbits(10), 10) for _ in range(3)]
    acc1 = StateVector.zeros(10)
    for v in vs:
        acc1 = accumulate_reachable(acc1, v)
    acc2 = StateVector.zeros(10)
    for v in reversed(vs):
        acc2 = accumulate_reachable(acc2, v)
    assert acc1 == acc2


def test_decode_worked_example():
    classes = (Prefix(0b001, 3), Prefix(0b000, 3), Prefix(0b01, 2))
    assert decode_reachable(sv([0, 1, 0]), classes) == {Prefix(0b000, 3)}
    assert decode_reachable(StateVector.zeros(3), classes) == set()


def test_decode_encode_roundtrip():
    classes = tuple(Prefix(v, 3) for v in range(8))
    rng = random.Random(4)
    for _ in range(30):
        chosen = {c for c in classes if rng.random() < 0.4}
        vec = encode(chosen, classes)
        assert decode_reachable(vec, classes) == chosen


def test_decode_missing_mapping():
    with pytest.raises(MissingMapping):
        decode_reachable(sv([1, 0, 1]), (Prefix(0, 1),))


def test_decode_matches_dot_product_oracle():
    classes = tuple(Prefix(v, 4) for v in range(10))
    rng = random.Random(8)
    for _ in range(50):
        b = StateVector(rng.getrandbits(10), 10)
        got = decode_reachable(b, classes)
        arr = np.array(b.to_bits())
        expect = {classes[k] for k in range(10)
                  if np.dot(arr, np.eye(10, dtype=int)[k]) != 0}
        assert got == expect


# ----------------------------------------------------------------------
# dense reference

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
    m = 20
    v = ForwardingVector(v_bits, m, ("X", 0))
    b = StateVector(b_bits, m)
    once = project(v, b)
    assert project(v, once) == once
    assert once.bits & ~b.bits == 0


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
