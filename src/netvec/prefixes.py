"""Bit-string header prefixes.

A prefix stores only its significant bits (most-significant first) as an
integer plus a length; the global header width lives with whatever structure
interprets the prefix (trie, network spec), so toy widths and IPv4-style
widths share one representation.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

from .errors import ParseError


@dataclass(frozen=True, slots=True)
class Prefix:
    """An L-bit header pattern of `length` leading bits with value `value`.

    The hash is computed once, at construction: prefixes key the rule
    tables, the trie's owner groups and decoded class sets, so every
    lookup would otherwise build and hash a tuple.
    """

    value: int
    length: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"negative prefix length {self.length}")
        if self.value < 0 or (self.length < self.value.bit_length()):
            raise ValueError(f"value {self.value} does not fit in {self.length} bits")
        object.__setattr__(self, "_hash", hash((self.value, self.length)))

    def __hash__(self) -> int:
        return self._hash

    def bit(self, i: int) -> int:
        """Bit at position i, counting from the most significant stored bit."""
        return (self.value >> (self.length - 1 - i)) & 1

    def bits(self) -> str:
        if self.length == 0:
            return ""
        return format(self.value, f"0{self.length}b")

    def contains(self, other: "Prefix") -> bool:
        """True when `other` is equal to or more specific than this prefix."""
        if other.length < self.length:
            return False
        return (other.value >> (other.length - self.length)) == self.value

    def range(self, width: int) -> tuple[int, int]:
        """Inclusive integer range [lo, hi] covered under a `width`-bit header."""
        span = width - self.length
        lo = self.value << span
        return lo, lo + (1 << span) - 1

    def child(self, bit: int) -> "Prefix":
        return Prefix((self.value << 1) | bit, self.length + 1)

    def __str__(self) -> str:
        return f"{self.bits()}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({self})"


ROOT = Prefix(0, 0)


def parse_prefix(text: str, width: int) -> Prefix:
    """Parse `bits/len` (binary) or dotted-quad CIDR (only when width is 32).

    Raises ParseError on malformed input or when the length exceeds `width`.
    """
    body, sep, len_part = text.partition("/")
    if not sep:
        raise ParseError(f"prefix {text!r} missing '/len'")
    try:
        length = int(len_part)
    except ValueError:
        raise ParseError(f"bad prefix length in {text!r}") from None
    if length < 0 or length > width:
        raise ParseError(f"prefix length {length} outside [0, {width}]")
    if "." in body:
        if width != 32:
            raise ParseError("dotted-quad prefixes require a 32-bit header width")
        try:
            addr = int(ipaddress.IPv4Address(body))
        except ipaddress.AddressValueError:
            raise ParseError(f"bad dotted-quad address {body!r}") from None
        if length < 32 and addr & ((1 << (32 - length)) - 1):
            raise ParseError(f"{text!r} has host bits set beyond /{length}")
        return Prefix(addr >> (32 - length), length)
    if length == 0:
        if body:
            raise ParseError(f"/0 prefix must have empty bits, got {body!r}")
        return ROOT
    if len(body) != length or any(c not in "01" for c in body):
        raise ParseError(f"prefix bits {body!r} do not match length {length}")
    return Prefix(int(body, 2), length)


def format_prefix(prefix: Prefix, width: int) -> str:
    """Render a prefix; dotted-quad for 32-bit headers, binary otherwise."""
    if width == 32:
        addr = prefix.value << (32 - prefix.length)
        return f"{ipaddress.IPv4Address(addr)}/{prefix.length}"
    return str(prefix)
