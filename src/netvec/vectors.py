"""Binary vector algebra over header equivalence classes.

Vectors are fixed-width bit sets backed by Python integers: coordinate j is
bit j, so projection onto a port's subspace is a single AND. A rewrite
keeps the mask of the classes it moves, so ``apply_transform`` costs
O(live rewritten classes) rather than O(live classes). The dense
normal-equations reference that checks these projections lives in
``netvec.oracle``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import DimensionMismatch


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

    def is_zero(self) -> bool:
        return self.bits == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, StateVector)
                and self.bits == other.bits and self.width == other.width)

    def __hash__(self):
        return hash((self.bits, self.width))

    def __repr__(self):
        return f"{type(self).__name__}({self.to_bits()})"


class ForwardingVector(StateVector):
    """Classes a router sends out one port; entry j is the j-th diagonal of
    the port's projection matrix."""

    __slots__ = ("owner",)

    def __init__(self, bits: int, width: int, owner: tuple[str, int]):
        super().__init__(bits, width)
        self.owner = owner

    @classmethod
    def from_entries(cls, entries: Iterable[int], owner) -> "ForwardingVector":
        base = StateVector.from_bits(entries)
        return cls(base.bits, base.width, owner)


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

    def to_dense(self):
        """The full m-by-m matrix as a numpy array (for reference checks)."""
        import numpy as np

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
