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
    make_group,
    strictified_product,
    takai_inverse,
    takai_transform,
    verify_duality,
)
from natorus.crossed import _transformed_product
from natorus.presets import pauli_m2_twist

MAX_ORDER = 8  # |G|^2 <= 64 keeps every scalar duality check exhaustive


@st.composite
def factor_lists(draw, max_order=MAX_ORDER):
    """Factor lists of order <= max_order; the rank is drawn first, so rank 3
    (Z/2^3, the only order-8 group with a nonzero alternating form) comes up often."""
    rank = draw(st.integers(1, 3))
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
