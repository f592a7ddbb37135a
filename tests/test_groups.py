"""Finite abelian groups, characters, and the discrete Fourier transform."""

import itertools

import numpy as np
import pytest

from natorus import (
    IncompatibleGroupsError,
    InvalidGroupError,
    ZERO_PHASE,
    fourier,
    make_group,
    pairing,
    subgroup_elements,
)


def test_basic_invariants():
    g = make_group([2, 4])
    assert g.order == 8
    assert g.rank == 2
    assert g.exponent == 4
    assert len(g) == 8


def test_invalid_factors_rejected():
    for bad in ([], [0], [-2], [2, 1]):
        with pytest.raises(InvalidGroupError):
            make_group(bad)


def test_enumeration_is_lexicographic_with_identity_first():
    g = make_group([2, 3])
    coords = [tuple(e.coords) for e in g.elements]
    assert coords[0] == (0, 0)
    assert coords == sorted(coords)
    assert len(coords) == len(set(coords)) == 6


def test_element_lookup_roundtrip():
    g = make_group([2, 2, 2])
    for e in g.elements:
        assert g.elements[e.index] is e
        assert g.element(tuple(e.coords)) == e


def test_element_arithmetic_matches_coordinate_arithmetic():
    g = make_group([3, 4])
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = rng.choice(g.order, size=2)
        x, y = g.elements[a], g.elements[b]
        expected = tuple((np.asarray(x.coords) + y.coords) % (3, 4))
        assert tuple((x + y).coords) == expected
        assert tuple((x - y).coords) == tuple((np.asarray(x.coords) - y.coords) % (3, 4))
        assert (x + (-x)).is_identity()
        assert x * 12 == g.identity


def test_tables_agree_with_operators():
    g = make_group([2, 4])
    add, neg, sub = g.add_table, g.neg_table, g.sub_table
    for x in g.elements:
        assert g.elements[neg[x.index]] == -x
        for y in g.elements:
            assert g.elements[add[x.index, y.index]] == x + y
            assert g.elements[sub[x.index, y.index]] == x - y


def test_mixing_groups_raises():
    a = make_group([2, 2]).elements[1]
    b = make_group([4]).elements[1]
    with pytest.raises(IncompatibleGroupsError):
        a + b


def test_pairing_is_biadditive():
    g = make_group([2, 4])
    gh = g.dual
    for chi, eta, x, y in itertools.product(gh.elements[:4], gh.elements[4:], g.elements[:4], g.elements[4:]):
        assert pairing(chi + eta, x) == pairing(chi, x) + pairing(eta, x)
        assert pairing(chi, x + y) == pairing(chi, x) + pairing(chi, y)
    assert pairing(gh.identity, g.elements[3]) == ZERO_PHASE
    assert pairing(gh.elements[3], g.identity) == ZERO_PHASE


def test_pairing_separates_points():
    # Nondegeneracy: only the identity pairs trivially with everything.
    g = make_group([2, 4])
    for chi in g.dual.elements:
        trivial = all(pairing(chi, x).is_zero() for x in g.elements)
        assert trivial == chi.is_identity()


def test_character_orthogonality():
    g = make_group([3, 4])
    for chi in g.dual.elements:
        total = sum(pairing(chi, x).to_complex() for x in g.elements)
        expected = g.order if chi.is_identity() else 0.0
        assert abs(total - expected) < 1e-10


@pytest.mark.parametrize("factors", [[2], [4], [2, 4], [2, 2, 2], [3, 4]])
def test_character_matrix_is_the_pairing_through_exp_phases(factors):
    """One e(p/q): each entry is pairing(chi, x).to_complex(), and tables of
    exponent 2 or 4 hold exact +-1 and +-i (Z/4's e(1/4) was 6.1e-17 + 1j)."""
    g = make_group(factors)
    chars = g.character_matrix
    expected = np.array(
        [[pairing(chi, x).to_complex() for x in g.elements] for chi in g.dual.elements]
    )
    assert np.abs(chars - expected).max() <= 1e-15
    if g.exponent in (2, 4):
        assert np.array_equal(chars, expected) and np.array_equal(chars, chars.round())


@pytest.mark.parametrize("factors", [[4], [2, 2, 2], [3, 5]])
def test_fourier_twice_is_order_times_reflection(factors, rng):
    """The transform inverts itself up to |G| and x -> -x: the character
    matrix squared is |G| times the reflection, by orthogonality."""
    g = make_group(factors)
    f = rng.normal(size=g.order) + 1j * rng.normal(size=g.order)
    assert np.allclose(fourier(g, fourier(g, f)) / g.order, f[g.neg_table], atol=1e-12)


def test_fourier_of_delta_is_flat():
    g = make_group([2, 3])
    delta = np.zeros(g.order)
    delta[0] = 1.0
    fhat = fourier(g, delta)
    assert np.allclose(fhat, fhat[0], atol=1e-14)


def test_fourier_is_linear(rng):
    g = make_group([2, 4])
    f1 = rng.normal(size=g.order) + 1j * rng.normal(size=g.order)
    f2 = rng.normal(size=g.order) + 1j * rng.normal(size=g.order)
    lhs = fourier(g, 2.0 * f1 - 1j * f2)
    assert np.allclose(lhs, 2.0 * fourier(g, f1) - 1j * fourier(g, f2), atol=1e-12)


def test_subgroup_closure():
    g = make_group([2, 2, 2])
    h = subgroup_elements(g, [(1, 0, 0), (0, 1, 0)])
    assert len(h) == 4
    assert g.identity in h
    hs = set(h)
    for a in h:
        for b in h:
            assert a + b in hs


def test_subgroup_of_cyclic():
    g = make_group([4])
    h = subgroup_elements(g, [(2,)])
    assert sorted(tuple(e.coords) for e in h) == [(0,), (2,)]
    assert len(subgroup_elements(g, [])) == 1
