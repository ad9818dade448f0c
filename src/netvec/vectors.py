"""Binary vector algebra over header equivalence classes.

Vectors are fixed-width bit sets backed by Python integers: coordinate j is
bit j, so projection onto a port's subspace is a single AND. A rewrite
keeps the mask of the classes it moves, so ``apply_transform`` costs
O(live rewritten classes) rather than O(live classes). The dense
normal-equations solver at the bottom reproduces the same projections with
real linear algebra and exists as an independent check, not as a runtime
path.
"""

from __future__ import annotations

import math
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (DimensionMismatch, EmptyInput, InvalidPair,
                     MissingMapping, NonOrthonormalColumns)
from .prefixes import Prefix


class StateVector:
    """An m-dimensional 0/1 vector of live header classes."""

    __slots__ = ("bits", "width")

    def __init__(self, bits: int, width: int):
        self.bits = bits
        self.width = width

    @classmethod
    def zeros(cls, width: int) -> "StateVector":
        return cls(0, width)

    @classmethod
    def ones(cls, width: int) -> "StateVector":
        return cls((1 << width) - 1, width)

    @classmethod
    def from_bits(cls, entries: Iterable[int]) -> "StateVector":
        bits = 0
        width = 0
        for e in entries:
            if e:
                bits |= 1 << width
            width += 1
        return cls(bits, width)

    def to_bits(self) -> list[int]:
        return [(self.bits >> j) & 1 for j in range(self.width)]

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, StateVector)
                and self.bits == other.bits and self.width == other.width)

    def __hash__(self):
        return hash((self.bits, self.width))

    def __repr__(self):
        return f"{type(self).__name__}({self.to_bits()})"


ALL_PORTS = None  # owner port sentinel for a router-wide union vector


class ForwardingVector(StateVector):
    """Classes a router sends out one port; entry j is the j-th diagonal of
    the port's projection matrix."""

    __slots__ = ("owner",)

    def __init__(self, bits: int, width: int, owner: tuple[str, int | None]):
        super().__init__(bits, width)
        self.owner = owner

    @classmethod
    def from_entries(cls, entries: Iterable[int], owner) -> "ForwardingVector":
        base = StateVector.from_bits(entries)
        return cls(base.bits, base.width, owner)


class FilterVector(StateVector):
    """ACL permit mask for one router (1 = permitted; absent ACL permits)."""

    __slots__ = ("router",)

    def __init__(self, bits: int, width: int, router: str):
        super().__init__(bits, width)
        self.router = router


def mask_of(indices: Iterable[int], width: int) -> int:
    """The width-bit mask with exactly `indices` set (linear in width, not
    in width times the index count as repeated ORs of big ints would be)."""
    buf = bytearray((width + 7) >> 3)
    for j in indices:
        buf[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(buf, "little")


class TransformMatrix:
    """Sparse m-by-m binary header rewrite, identity on unmatched classes.

    Explicit columns map a matched class to the set of classes covering its
    rewritten range; every other column is the implicit diagonal, matching
    the convention that absent transform rules leave headers unchanged.
    ``columns`` is read-only and ``moved`` is the mask of its keys, so the
    mask can never disagree with the columns it summarises.
    """

    __slots__ = ("width", "columns", "moved")

    def __init__(self, width: int, columns: Mapping[int, int] | None = None):
        cols = dict(columns or {})
        for k in cols:
            if not 0 <= k < width:
                raise DimensionMismatch(f"column {k} outside width {width}")
        self.width = width
        self.columns: Mapping[int, int] = MappingProxyType(cols)
        self.moved = mask_of(cols, width)

    @classmethod
    def identity(cls, width: int) -> "TransformMatrix":
        return cls(width)

    def column_rows(self, k: int) -> tuple[int, ...]:
        mask = self.columns.get(k, 1 << k)
        return tuple(j for j in range(self.width) if (mask >> j) & 1)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.width, self.width), dtype=np.int64)
        for k in range(self.width):
            mask = self.columns.get(k, 1 << k)
            for j in range(self.width):
                if (mask >> j) & 1:
                    dense[j, k] = 1
        return dense

    def __eq__(self, other):
        if not isinstance(other, TransformMatrix) or self.width != other.width:
            return False
        for k in range(self.width):
            if self.columns.get(k, 1 << k) != other.columns.get(k, 1 << k):
                return False
        return True

    def __hash__(self):
        return hash((self.width, tuple(sorted(self.columns.items()))))


class ForwardCase(Enum):
    PARTIAL_FORWARD = "partial"
    FULL_FORWARD = "full"
    BLOCKED = "blocked"


def _check_dims(a: StateVector, b: StateVector) -> None:
    if a.width != b.width:
        raise DimensionMismatch(f"width {a.width} != {b.width}")


def project(v: ForwardingVector, b: StateVector) -> StateVector:
    """Project b onto the port subspace: elementwise AND with v."""
    _check_dims(v, b)
    return StateVector(v.bits & b.bits, b.width)


def classify_case(v: ForwardingVector, b: StateVector) -> ForwardCase:
    """Which of the three forwarding outcomes projection lands in."""
    _check_dims(v, b)
    if b.bits == 0:
        raise EmptyInput("classification is undefined on an all-zero input")
    out = v.bits & b.bits
    if out == b.bits:
        return ForwardCase.FULL_FORWARD
    if out == 0:
        return ForwardCase.BLOCKED
    return ForwardCase.PARTIAL_FORWARD


def apply_transform(t: TransformMatrix, b: StateVector) -> StateVector:
    """Unit-step of T.b: class j survives when any live class rewrites to it.

    Costs O(live rewritten classes): a live class outside ``t.moved`` maps
    to itself, so only the set bits of ``b & t.moved`` read a column.
    """
    if t.width != b.width:
        raise DimensionMismatch(f"width {t.width} != {b.width}")
    bits = b.bits
    hit = bits & t.moved
    out = bits ^ hit
    cols = t.columns
    while hit:
        low = hit & -hit
        out |= cols[low.bit_length() - 1]
        hit ^= low
    return StateVector(out, b.width)


def apply_filter(g: FilterVector, b: StateVector) -> StateVector:
    _check_dims(g, b)
    return StateVector(g.bits & b.bits, b.width)


def union_forwarding(vs: Sequence[ForwardingVector]) -> ForwardingVector:
    """Elementwise OR across a router's port vectors."""
    if not vs:
        raise EmptyInput("union of no forwarding vectors")
    width = vs[0].width
    bits = 0
    for v in vs:
        if v.width != width:
            raise DimensionMismatch(f"width {v.width} != {width}")
        bits |= v.bits
    return ForwardingVector(bits, width, (vs[0].owner[0], ALL_PORTS))


def blackhole_residual(b_in: StateVector, b_out: StateVector) -> StateVector:
    """Classes that arrived but were not forwarded: XOR of in/out."""
    _check_dims(b_in, b_out)
    if b_out.bits & ~b_in.bits:
        raise InvalidPair("output has classes the input lacked")
    return StateVector(b_in.bits ^ b_out.bits, b_in.width)


def projection_error(b_in: StateVector, b_out: StateVector) -> tuple[StateVector, float]:
    """Difference vector and its l2 norm (sqrt of the popcount)."""
    _check_dims(b_in, b_out)
    if b_out.bits & ~b_in.bits:
        raise InvalidPair("output has classes the input lacked")
    err = b_in.bits ^ b_out.bits
    return StateVector(err, b_in.width), math.sqrt(err.bit_count())


def accumulate_reachable(acc: StateVector, b_d: StateVector) -> StateVector:
    """Saturating sum over per-path results: elementwise OR."""
    _check_dims(acc, b_d)
    return StateVector(acc.bits | b_d.bits, acc.width)


def decode_reachable(b: StateVector, classes: Sequence[Prefix]) -> set[Prefix]:
    """Prefixes at live coordinates."""
    if len(classes) < b.width:
        raise MissingMapping(f"mapping covers {len(classes)} of {b.width} coordinates")
    bits = b.bits
    out = set()
    while bits:
        low = bits & -bits
        out.add(classes[low.bit_length() - 1])
        bits ^= low
    return out


def encode(prefixes: Iterable[Prefix], classes: Sequence[Prefix]) -> StateVector:
    """Inverse of decode_reachable over a subset of classes."""
    index = {p: j for j, p in enumerate(classes)}
    bits = 0
    for p in prefixes:
        try:
            bits |= 1 << index[p]
        except KeyError:
            raise MissingMapping(f"{p} is not a coordinate class") from None
    return StateVector(bits, len(classes))


def basis_matrix(v: ForwardingVector) -> np.ndarray:
    """Standard-basis column matrix selecting v's live coordinates."""
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
