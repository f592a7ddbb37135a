"""Stacked product kernels: a stack of k elements through one call equals the
k elements through k single calls, bit for bit.

Each kernel takes leading stack axes (isotypic_components, from_matrix,
deformed_product, represent, the flat intertwiner, the twisted group algebra
product and its left regular matrix, both side products, random_element),
and so do the graded element's queries. The actions are translation on
a drawn group and the two that criterion 6 checks, translation on Z/4 and Z/4
conjugating M_4; the drawn groups give blocks on both sides of the unrolled
block product's crossover. A twisted group algebra element's star and repr
serve a stack member by member; the norms, each of one element, refuse one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natorus import (
    GAction,
    GradedElement,
    GradingError,
    TensorShapeError,
    Tricharacter,
    TwistedGroupAlgebra,
    deformed_norm,
    deformed_product,
    evaluation_side_product,
    fourier_side_product,
    make_group,
    octonion_algebra,
    phi_zero_intertwiner,
    represent,
)
from natorus.presets import m4_conjugation_action
from test_properties import factor_lists, random_sigma, random_tensor_of_kind

ACTIONS = st.sampled_from(["drawn translation", "z4 translation", "m4 conjugation"])
STACK = st.integers(1, 5)


def make_action(kind, factors):
    if kind == "m4 conjugation":
        return m4_conjugation_action()
    return GAction.translation(make_group(factors if kind == "drawn translation" else [4]))


def assert_bits_equal(stacked, singles):
    """The stacked result is the single results stacked, byte for byte."""
    expected = np.array(singles)
    assert stacked.shape == expected.shape
    assert stacked.dtype == expected.dtype
    assert stacked.tobytes() == expected.tobytes()


def random_phi(action, rng, zero):
    """phi = 0, or a random tricharacter on the dual group."""
    dual = action.group.dual
    m = dual.exponent
    kind = "zero" if zero else "random"
    return Tricharacter(dual, random_tensor_of_kind(kind, dual.factors, m, rng), m)


def graded_stack(action, rng, k):
    """k generic graded elements, each keeping a random set of its degrees, so
    that the members have different nonzero degrees (a degree may be zero in
    some members, in all or in none)."""
    a = GradedElement.from_matrix(action, action.algebra.random_element(rng, (k,)))
    keep = rng.random((k, action.group.order)) < 0.6
    return GradedElement(action, a.blocks * keep[:, :, None, None, None])


@settings(max_examples=25)
@given(kind=ACTIONS, factors=factor_lists(), k=STACK, seed=st.integers(0, 2**32 - 1))
def test_a_stack_of_draws_is_the_single_draws(kind, factors, k, seed):
    """random_element(rng, (k, 2)) draws what 2k single calls draw, in the
    same order, and leaves the generator in the same state."""
    algebra = make_action(kind, factors).algebra
    stacked_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stacked = algebra.random_element(stacked_rng, (k, 2))
    singles = [[algebra.random_element(single_rng) for _ in range(2)] for _ in range(k)]
    assert_bits_equal(stacked, singles)
    assert stacked_rng.bit_generator.state == single_rng.bit_generator.state


@settings(max_examples=25)
@given(kind=ACTIONS, factors=factor_lists(), k=STACK, seed=st.integers(0, 2**32 - 1))
def test_isotypic_components_and_from_matrix_of_a_stack(kind, factors, k, seed):
    action = make_action(kind, factors)
    mats = action.algebra.random_element(np.random.default_rng(seed), (k,))
    components = action.isotypic_components(mats)
    assert_bits_equal(components, [action.isotypic_components(m) for m in mats])
    graded = GradedElement.from_matrix(action, mats)
    assert_bits_equal(graded.blocks, [GradedElement.from_matrix(action, m).blocks for m in mats])


@settings(max_examples=30)
@given(
    kind=ACTIONS,
    factors=factor_lists(),
    k=STACK,
    zero_phi=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_deformed_product_and_represent_of_a_stack(kind, factors, k, zero_phi, seed):
    """deformed_product, represent and the flat intertwiner on stacks whose
    members have different nonzero degrees; a degree is skipped only when it
    is zero in every member, and the skipped and computed zeros agree."""
    action = make_action(kind, factors)
    rng = np.random.default_rng(seed)
    phi = random_phi(action, rng, zero_phi)
    a, b = graded_stack(action, rng, k), graded_stack(action, rng, k)
    members = [
        (GradedElement(action, x), GradedElement(action, y)) for x, y in zip(a.blocks, b.blocks)
    ]
    product = deformed_product(a, b, phi)
    assert_bits_equal(product.blocks, [deformed_product(x, y, phi).blocks for x, y in members])
    assert_bits_equal(represent(a, phi), [represent(x, phi) for x, _ in members])
    assert_bits_equal(
        phi_zero_intertwiner(product),
        [phi_zero_intertwiner(deformed_product(x, y, phi)) for x, y in members],
    )
    # one single element against a stack: the single one is broadcast
    single = members[0][0]
    assert_bits_equal(
        deformed_product(single, b, phi).blocks,
        [deformed_product(single, y, phi).blocks for _, y in members],
    )


@settings(max_examples=25)
@given(kind=ACTIONS, factors=factor_lists(), k=STACK, seed=st.integers(0, 2**32 - 1))
def test_graded_queries_of_a_stack(kind, factors, k, seed):
    """block, total and underlying_matrix of a stack are the members' own;
    its degrees are those nonzero in some member; validate_grading passes a
    stack of graded elements and names the degree of a member that is not."""
    action = make_action(kind, factors)
    rng = np.random.default_rng(seed)
    a = graded_stack(action, rng, k)
    members = [GradedElement(action, x) for x in a.blocks]
    for chi in action.group.elements:
        assert_bits_equal(a.block(chi), [m.block(chi) for m in members])
    assert_bits_equal(a.total(), [m.total() for m in members])
    assert set(a.degrees()) == set().union(*(m.degrees() for m in members))
    a.validate_grading()
    flat = GradedElement.from_matrix(action, action.algebra.random_element(rng, (k,)))
    singles = [GradedElement(action, x).underlying_matrix() for x in flat.blocks]
    assert_bits_equal(flat.underlying_matrix(), singles)
    i = int(rng.integers(1, action.group.order))
    bad = flat.blocks.copy()
    bad[-1, i] = np.eye(action.dim)  # of degree 0, placed at degree i in the last member
    with pytest.raises(GradingError) as exc:
        GradedElement(action, bad).validate_grading()
    assert exc.value.witness == (i,)


@settings(max_examples=30)
@given(factors=factor_lists(max_order=16, max_rank=4), k=STACK, seed=st.integers(0, 2**32 - 1))
def test_twisted_group_algebra_product_of_a_stack(factors, k, seed):
    """The product of stacked coefficient vectors, stacked against stacked and
    against a single element, is the single products; the left regular matrix,
    one product with the basis stacked, is the scatter of x_a w(a, b) into
    cell (a + b, b), and that of a stack is its members'."""
    group = make_group(factors)
    rng = np.random.default_rng(seed)
    alg = TwistedGroupAlgebra(group, random_sigma(group, rng))
    shape = (k, group.order)
    x = alg.element(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    y = alg.element(rng.standard_normal(shape))
    members = [(alg.element(p), alg.element(q)) for p, q in zip(x.coeffs, y.coeffs)]
    assert_bits_equal(alg.multiply(x, y).coeffs, [alg.multiply(p, q).coeffs for p, q in members])
    p0 = members[0][0]
    assert_bits_equal(alg.multiply(p0, y).coeffs, [alg.multiply(p0, q).coeffs for _, q in members])
    contrib = p0.coeffs[:, None] * alg.sigma.complex_table  # [a, b]
    scattered = np.zeros_like(contrib)
    for a, b in np.ndindex(contrib.shape):
        scattered[group.add_table[a, b], b] = contrib[a, b]
    assert np.array_equal(alg.left_regular_matrix(p0), scattered)
    assert_bits_equal(alg.left_regular_matrix(x), [alg.left_regular_matrix(p) for p, _ in members])


@settings(max_examples=25)
@given(
    factors=factor_lists(max_order=16, max_rank=4),
    dim=st.sampled_from([1, 2]),
    k=STACK,
    seed=st.integers(0, 2**32 - 1),
)
def test_side_products_of_a_stack(factors, dim, k, seed):
    """Both side products of (k, n, n, d, d) stacks are the single products;
    a stack of d = 1 blocks is the (n, n) scalar products."""
    group = make_group(factors)
    n = group.order
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, 2, 2, n, n, dim, dim))
    a, b = np.moveaxis(x[:, :, 0] + 1j * x[:, :, 1], 1, 0)
    for product in (evaluation_side_product, fourier_side_product):
        stacked = product(group, a, b)
        assert_bits_equal(stacked, [product(group, p, q) for p, q in zip(a, b)])
        if dim == 1:
            scalars = [product(group, p[:, :, 0, 0], q[:, :, 0, 0]) for p, q in zip(a, b)]
            assert_bits_equal(np.ascontiguousarray(stacked[..., 0, 0]), scalars)


def test_star_of_a_stack_is_the_members_stars():
    """star serves a stack member by member, by one gather on the last axis,
    and is the definition e(a)* = e(-sigma(a, -a)) e(-a), extended
    antilinearly, for a sigma with sigma(a, -a) != sigma(-a, a)."""
    group, rng = make_group([3, 4]), np.random.default_rng(5)
    alg = TwistedGroupAlgebra(group, random_sigma(group, rng, 12))
    x = alg.element(rng.standard_normal((3, 2, group.order)) * (1 + 2j))
    singles = [[alg.element(c).star().coeffs for c in row] for row in x.coeffs]
    assert_bits_equal(x.star().coeffs, singles)
    neg, w = group.neg_table, alg.sigma.complex_table
    expected = np.empty_like(x.coeffs)
    for a in range(group.order):
        expected[..., neg[a]] = np.conj(x.coeffs[..., a] * w[a, neg[a]])
    assert np.allclose(x.star().coeffs, expected, atol=1e-15, rtol=0)


def test_repr_of_a_stack_lists_the_members():
    alg = octonion_algebra()
    x = alg.element(np.random.default_rng(6).standard_normal((3, 8)))
    assert repr(x) == "[" + ", ".join(repr(alg.element(c)) for c in x.coeffs) + "]"


def stack_of_3(kind, rng):
    """Three random elements of Z/4 translation as one graded element, or
    three random octonions as one twisted group algebra element."""
    if kind == "graded":
        action = make_action("z4 translation", [4])
        return GradedElement.from_matrix(action, action.algebra.random_element(rng, (3,)))
    return octonion_algebra().element(rng.standard_normal((3, 8)))


@pytest.mark.parametrize(
    "operation, call",
    [
        ("norm", lambda rng: stack_of_3("graded", rng).norm()),
        ("deformed_norm", lambda rng: deformed_norm(stack_of_3("graded", rng))),
        ("operator_norm", lambda rng: stack_of_3("octonions", rng).operator_norm()),
    ],
    ids=["norm", "deformed_norm", "operator_norm"],
)
def test_a_norm_of_one_element_refuses_a_stack(operation, call):
    """The norms are of one element: a stack of 3 is refused with a typed
    error naming the operation and the stack's shape."""
    message = rf"^{operation} takes one element, not a stack of shape \(3,\)$"
    with pytest.raises(TensorShapeError, match=message):
        call(np.random.default_rng(7))
