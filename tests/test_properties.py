"""Property tests over random small groups, drawn with hypothesis."""

import itertools
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natorus import (
    Cochain2,
    Cochain3,
    StrictifiedElement,
    Tricharacter,
    TwistData,
    bicharacter_from_matrix,
    coboundary2,
    make_group,
    strictified_product,
    takai_inverse,
    takai_transform,
    trivializing_cochain,
    verify_duality,
)
from natorus.crossed import _transformed_product
from natorus.presets import pauli_m2_twist

MAX_ORDER = 8  # |G|^2 <= 64 keeps every scalar duality check exhaustive


@st.composite
def factor_lists(draw, max_order=MAX_ORDER, max_rank=3):
    """Factor lists of order <= max_order; the rank is drawn first, so rank 3
    (Z/2^3, the only order-8 group with a nonzero alternating form) comes up often."""
    rank = draw(st.integers(1, max_rank))
    factors = []
    for later in range(rank - 1, -1, -1):  # leave room for `later` factors of 2
        factors.append(draw(st.integers(2, max_order // prod(factors) // 2**later)))
    return factors


def random_sigma(group, rng, den=8):
    table = rng.integers(0, den, size=(group.order,) * 2)
    table[0, :] = 0
    table[:, 0] = 0
    return Cochain2(group, table, den)


def random_cochain3(group, rng):
    """Any normalized 3-cochain, over a denominator that is not a quarter turn
    (6) or is one (4), so both root paths come up."""
    den = int(rng.choice([4, 6]))
    table = rng.integers(0, den, size=(group.order,) * 3)
    table[0, :, :] = table[:, 0, :] = table[:, :, 0] = 0
    return Cochain3(group, table, den)


def random_alternating_tricharacter(group, rng):
    """An antisymmetric tensor with no repeated index, each entry a multiple
    of the step that makes the form well defined on the factors."""
    m = group.exponent
    tensor = np.zeros((group.rank,) * 3, dtype=np.int64)
    for i, j, k in itertools.combinations(range(group.rank), 3):
        step = lcm(*(m // gcd(m, group.factors[s]) for s in (i, j, k)))
        value = step * int(rng.integers(0, m))
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            tensor[a, b, c] = value
            tensor[b, a, c] = -value
    return Tricharacter(group, tensor, m)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(factors=factor_lists(), seed=st.integers(0, 2**32 - 1))
def test_scalar_twist_duality_and_transform_roundtrip(factors, seed):
    group = make_group(factors)
    rng = np.random.default_rng(seed)
    tw = TwistData.scalar_from_sigma(group, random_sigma(group, rng))
    psi = random_alternating_tricharacter(group, rng)
    assert psi.is_alternating()
    report = verify_duality(tw, psi)
    assert report.mode == "exhaustive" and report.trials == group.order**4
    assert report.passed, report.as_dict()
    a = StrictifiedElement.random(tw, rng)
    assert takai_inverse(takai_transform(a, psi), tw).isclose(a, tol=1e-12)


def assert_transformed_product_is_the_definition(tw, psi, include_multiplier, rng):
    a = StrictifiedElement.random(tw, rng)
    b = StrictifiedElement.random(tw, rng)
    expected = takai_transform(strictified_product(a, b, psi), psi, include_multiplier).data
    got = _transformed_product(tw, psi, include_multiplier)(a.values, b.values)
    assert np.max(np.abs(got - expected)) <= 1e-12 * a.norm() * b.norm()


@pytest.mark.parametrize("include_multiplier", [True, False])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(factors=factor_lists(max_order=16), seed=st.integers(0, 2**32 - 1))
def test_transformed_product_matches_the_definition_on_scalar_twists(
    include_multiplier, factors, seed
):
    group = make_group(factors)
    rng = np.random.default_rng(seed)
    tw = TwistData.scalar_from_sigma(group, random_sigma(group, rng))
    assert_transformed_product_is_the_definition(
        tw, random_cochain3(group, rng), include_multiplier, rng
    )


@pytest.mark.parametrize("include_multiplier", [True, False])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_transformed_product_matches_the_definition_on_the_pauli_twist(include_multiplier, seed):
    tw = pauli_m2_twist()  # d = 2, beta = Pauli conjugation
    rng = np.random.default_rng(seed)
    assert_transformed_product_is_the_definition(
        tw, random_cochain3(tw.group, rng), include_multiplier, rng
    )


def compatible_steps(factors, m, arity):
    """step[i, j, ...]: the entries m | entry * n allows in every slot are its multiples."""
    periods = [m // gcd(m, n) for n in factors]
    slots = itertools.product(range(len(factors)), repeat=arity)
    steps = [lcm(*(periods[i] for i in idx)) for idx in slots]
    return np.array(steps, dtype=np.int64).reshape((len(factors),) * arity)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    factors=factor_lists(max_order=64, max_rank=5),
    m=st.integers(1, 48),
    seed=st.integers(0, 2**32 - 1),
)
def test_staged_coordinate_forms_match_the_single_sum(factors, m, seed):
    """The staged builds against the single-einsum formulas they replaced."""
    group = make_group(factors)
    rng = np.random.default_rng(seed)
    c = group.coords
    k = group.rank

    tensor = compatible_steps(factors, m, 3) * rng.integers(-3 * m, 3 * m, size=(k, k, k))
    phi = Tricharacter(group, tensor, m)
    assert phi.den == m
    assert np.array_equal(phi.table, np.einsum("ai,bj,ck,ijk->abc", c, c, c, tensor % m) % m)

    matrix = compatible_steps(factors, m, 2) * rng.integers(-3 * m, 3 * m, size=(k, k))
    sigma = bicharacter_from_matrix(group, matrix, m)
    assert np.array_equal(sigma.table, np.einsum("ai,bj,ij->ab", c, c, matrix % m) % m)

    # A 2-torsion class the quadratic ansatz trivializes: entries in (m/2) Z,
    # symmetric in the first two slots and zero when they repeat.
    m2 = 2 * m
    half = np.lcm(compatible_steps(factors, m2, 3), m)
    upper = np.triu(np.ones((k, k), dtype=np.int64), 1)[:, :, None]
    bits = rng.integers(0, 2, size=(k, k, k)) * upper
    two_torsion = half * (bits + bits.transpose(1, 0, 2))
    tau = trivializing_cochain(Tricharacter(group, two_torsion, m2))
    N = (-two_torsion % m2) * upper
    assert np.array_equal(tau.table, np.einsum("ai,aj,bk,ijk->ab", c, c, c, N) % m2)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(factors=factor_lists(max_order=32, max_rank=5), seed=st.integers(0, 2**32 - 1))
def test_coboundary2_is_computed_once_and_is_the_alternating_sum(factors, seed):
    group = make_group(factors)
    sigma = random_sigma(group, np.random.default_rng(seed), den=12)
    first = coboundary2(sigma)
    assert coboundary2(sigma) is first
    add = group.add_table
    t = sigma.table
    fresh = (t[None, :, :] - t[add, :] + t[:, add] - t[:, :, None]) % sigma.den
    assert first == Cochain3(group, fresh, sigma.den)
