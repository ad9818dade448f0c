import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from netvec.errors import ParseError
from netvec.prefixes import ROOT, Prefix, format_prefix, parse_prefix


def test_parse_binary():
    p = parse_prefix("0101/4", 8)
    assert p == Prefix(0b0101, 4)
    assert str(p) == "0101/4"


def test_parse_root():
    assert parse_prefix("/0", 8) == ROOT
    assert ROOT.length == 0


def test_parse_dotted_quad():
    p = parse_prefix("10.0.0.0/8", 32)
    assert p == Prefix(10, 8)
    assert format_prefix(p, 32) == "10.0.0.0/8"


def test_dotted_quad_requires_width_32():
    with pytest.raises(ParseError):
        parse_prefix("10.0.0.0/8", 16)


def test_dotted_quad_host_bits_rejected():
    with pytest.raises(ParseError):
        parse_prefix("10.0.0.1/8", 32)


@pytest.mark.parametrize("bad", ["01", "012/3", "01/3", "0101/9", "/1", "x/2",
                                 "01/+2", "01/0_2", "01/ 2", "01/-0", "01/\u0662", "01/"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_prefix(bad, 8)


def test_contains():
    sup = Prefix(0b0, 1)
    assert sup.contains(Prefix(0b01, 2))
    assert sup.contains(sup)
    assert not sup.contains(Prefix(0b1, 1))
    assert not Prefix(0b01, 2).contains(sup)


def test_range():
    assert Prefix(0b01, 2).range(3) == (2, 3)
    assert ROOT.range(3) == (0, 7)
    assert Prefix(0b000, 3).range(3) == (0, 0)


def test_equality_is_length_sensitive():
    assert Prefix(0, 1) != Prefix(0, 2)
    assert Prefix(0b01, 2) == Prefix(1, 2)



prefixes = st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.integers(0, (1 << n) - 1 if n else 0), st.just(n)))


@given(prefixes)
def test_roundtrip_format_parse(t):
    value, length = t
    p = Prefix(value, length)
    assert parse_prefix(str(p), 8) == p


@given(prefixes, prefixes)
def test_contains_iff_range_nesting(a, b):
    pa, pb = Prefix(*a), Prefix(*b)
    lo_a, hi_a = pa.range(8)
    lo_b, hi_b = pb.range(8)
    assert pa.contains(pb) == (lo_a <= lo_b and hi_b <= hi_a)


@given(prefixes)
def test_hash_follows_equality_through_parse_copy_pickle_and_replace(t):
    p = Prefix(*t)
    parsed = parse_prefix(str(p), 8)          # a separate parse, a separate object
    copies = [parsed, copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p)),
              dataclasses.replace(p)]
    for q in copies:
        assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
    assert len({p, *copies}) == 1
    if p.length:
        other = dataclasses.replace(p, value=p.value ^ 1)
        assert other != p and hash(other) == hash(Prefix(p.value ^ 1, p.length))
