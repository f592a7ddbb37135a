"""Exact rational phase arithmetic."""

import cmath
from fractions import Fraction

import pytest

from natorus import HALF_PHASE, ZERO_PHASE, Phase


def test_reduction_mod_one():
    assert Phase(5, 4) == Phase(1, 4)
    assert Phase(-1, 4) == Phase(3, 4)
    assert Phase(8, 4) == ZERO_PHASE
    assert Phase(6, 4) == HALF_PHASE


def test_group_laws():
    a = Phase(1, 3)
    b = Phase(1, 6)
    assert a + b == HALF_PHASE
    assert a - a == ZERO_PHASE
    assert -a == Phase(2, 3)
    assert a + (-a) == ZERO_PHASE
    assert 3 * a == ZERO_PHASE
    assert a * 2 == Phase(2, 3)


def test_is_zero():
    assert ZERO_PHASE.is_zero()
    assert Phase(4, 2).is_zero()
    assert not HALF_PHASE.is_zero()


def test_quarter_turns_are_exact():
    # Exactness matters: real algebras compare structure constants with ==.
    assert Phase(0).to_complex() == 1 + 0j
    assert HALF_PHASE.to_complex() == -1 + 0j
    assert Phase(1, 4).to_complex() == 1j
    assert Phase(3, 4).to_complex() == -1j
    assert HALF_PHASE.to_complex().imag == 0.0


def test_generic_denominator_matches_cmath():
    p = Phase(3, 7)
    expected = cmath.exp(2j * cmath.pi * 3 / 7)
    assert abs(p.to_complex() - expected) < 1e-15


def test_parse_variants():
    assert Phase.parse("1/2") == HALF_PHASE
    assert Phase.parse("-1/4") == Phase(3, 4)
    assert Phase.parse([1, 8]) == Phase(1, 8)
    assert Phase.parse((3, 4)) == Phase(3, 4)
    assert Phase.parse(2) == ZERO_PHASE
    assert Phase.parse(Phase(1, 3)) == Phase(1, 3)


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        Phase.parse({"num": 1})


@pytest.mark.parametrize("pair", [[1.5, 2], [1, 2.0], ["1", "2"], [True, 2], [1, False]])
def test_parse_refuses_pairs_of_non_integers(pair):
    with pytest.raises(ValueError):
        Phase.parse(pair)


def test_fraction_accessors():
    p = Phase(2, 8)
    assert p.numerator == 1
    assert p.denominator == 4
    assert p.fraction == Fraction(1, 4)


def test_hashable():
    assert len({Phase(1, 2), Phase(2, 4), Phase(3, 4)}) == 2


def test_str_roundtrip():
    p = Phase(5, 8)
    assert Phase.parse(str(p)) == p
