"""Property tests over random small groups, drawn with hypothesis."""

import itertools
from math import gcd, lcm, prod
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natorus import (
    Cochain2,
    Cochain3,
    CochainError,
    CochainTable,
    CrossedElement,
    GAction,
    GradedElement,
    StrictifiedElement,
    Tricharacter,
    TwistData,
    TwistDataError,
    TwistedGroupAlgebra,
    TwistedKernel,
    associativity_cocycle_sweep,
    bicharacter_from_matrix,
    check_multiplier_relation,
    coboundary2,
    deformed_product,
    evaluation_side_product,
    extract_sigma,
    fourier_side_product,
    is_cocycle3,
    is_trivial_on,
    kernel_product,
    lbs_involution,
    lbs_product,
    make_group,
    represent,
    restrict,
    strictified_product,
    takai_inverse,
    takai_transform,
    trivializing_cochain,
    verify_duality,
)
from natorus import cochains
from natorus.cochains import (
    _coboundary,
    _coboundary_chunk,
    _first_nonzero,
    _storage_dtype,
    _sweep,
    _sweep_dtype,
)
from natorus import crossed
from natorus.crossed import _DualityRows, _exponent_sum
from natorus.groups import subgroup_elements
from natorus.kernels import _combination_defect_chunk
from natorus.presets import m4_conjugation_action, pauli_m2_twist
from test_crossed import (
    exact_and_float_reports,
    float_twist_witness,
    per_pair_duality,
    shear_invariant_cochain,
    sigma_past_the_bound,
)
from test_quantization import (
    deformed_product_reference,
    dense_blocks,
    random_point_blocks,
    represent_reference,
)

MAX_ORDER = 8  # |G|^2 <= 64 keeps every scalar duality check exhaustive


@st.composite
def factor_lists(draw, max_order=MAX_ORDER, max_rank=3, min_rank=1):
    """Factor lists of order <= max_order; the rank is drawn first, so rank 3
    (Z/2^3, the only order-8 group with a nonzero alternating form) comes up often."""
    rank = draw(st.integers(min_rank, max_rank))
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


@settings(max_examples=20)
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
    """The streamed defect rows of verify_duality, stacked, against the
    definitions' difference: transform(a * b) - transform(a) * transform(b)."""
    a = StrictifiedElement.random(tw, rng)
    b = StrictifiedElement.random(tw, rng)
    rows = list(_DualityRows(tw, psi, include_multiplier)(a.values, b.values))
    assert [w for w, _ in rows] == list(range(tw.group.order))
    bound = 1e-12 * a.norm() * b.norm()
    ta, tb = (takai_transform(x, psi, include_multiplier) for x in (a, b))
    product = takai_transform(strictified_product(a, b, psi), psi, include_multiplier)
    expected = product.data - kernel_product(ta, tb).data
    assert np.max(np.abs(np.stack([defect for _, defect in rows]) - expected)) <= bound


@pytest.mark.parametrize("include_multiplier", [True, False])
@settings(max_examples=20)
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
@settings(max_examples=10)
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


@settings(max_examples=40)
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


@settings(max_examples=30)
@given(
    factors=factor_lists(max_order=64, max_rank=5),
    m=st.integers(1, 48),
    seed=st.integers(0, 2**32 - 1),
)
def test_tensor_certificate_matches_the_exhaustive_sweeps(factors, m, seed):
    """For a random compatible tensor, alternating or not, the certificate's
    answers equal the exhaustive sweeps on a plain-table copy."""
    group = make_group(factors)
    rng = np.random.default_rng(seed)
    k = group.rank
    tensor = compatible_steps(factors, m, 3) * rng.integers(-3 * m, 3 * m, size=(k, k, k))
    phi = Tricharacter(group, tensor, m)
    plain = Cochain3(group, phi.table, phi.den)
    assert phi.cocycle_mode == "certificate" and plain.cocycle_mode == "exhaustive"
    checks = (is_cocycle3, check_multiplier_relation, associativity_cocycle_sweep)
    assert [check(phi) for check in checks] == [check(plain) for check in checks]
    assert "coboundary_witness" in vars(plain) and "coboundary_witness" not in vars(phi)


def assert_slabs_are_the_table(phi):
    """phi.slabs() against phi.table slice by slice, and in the narrow
    unsigned type of 2 (m - 1); the slabs are taken before the table exists."""
    slabs = list(phi.slabs())
    assert "table" not in vars(phi)
    dtype = np.min_scalar_type(2 * (phi.modulus - 1))
    assert len(slabs) == phi.group.order
    assert all(s.dtype == dtype and not s.flags.writeable for s in slabs)
    assert all(np.array_equal(s, row) for s, row in zip(slabs, phi.table))


# Moduli on both sides of the uint8/uint16 boundary of the slab type, which
# has 2 (m - 1) <= 255 up to m = 128, and small moduli.
SLAB_MODULI = st.one_of(st.integers(1, 48), st.sampled_from([127, 128, 129, 130, 255, 256]))


@settings(max_examples=40)
@given(
    factors=factor_lists(max_order=64, max_rank=5),
    m=SLAB_MODULI,
    seed=st.integers(0, 2**32 - 1),
)
def test_tricharacter_slabs_are_the_table(factors, m, seed):
    group = make_group(factors)
    rng = np.random.default_rng(seed)
    k = group.rank
    tensor = compatible_steps(factors, m, 3) * rng.integers(-3 * m, 3 * m, size=(k, k, k))
    assert_slabs_are_the_table(Tricharacter(group, tensor, m))


@pytest.mark.parametrize("factors, m, entry", [([2], 128, 64), ([3], 129, 43), ([3, 3], 129, 43)])
def test_tricharacter_slabs_at_the_uint8_boundary(factors, m, entry):
    """Running sums that reach m: 64 + 64 in uint8 (m = 128), and 86 + 43 in
    uint16 (m = 129)."""
    k = len(factors)
    assert_slabs_are_the_table(Tricharacter(make_group(factors), np.full((k,) * 3, entry), m))


def random_tensor_of_kind(kind, factors, m, rng):
    """A compatible tensor: random; alternating by antisymmetry (+-1 times the
    compatible step on the permutations of distinct indices); alternating
    through half turns (a multiple of m/2 on every permutation of distinct
    indices); or zero. The two alternating kinds are perturbed at one random
    entry about half of the time."""
    k = len(factors)
    steps = compatible_steps(factors, m, 3)
    if kind == "random":
        return steps * rng.integers(-3 * m, 3 * m, size=(k, k, k))
    raw = np.zeros((k, k, k), dtype=np.int64)
    if kind == "zero":
        return raw
    if kind == "half turns":
        steps = np.lcm(steps, max(m // 2, 1))
    odd = -1 if kind == "antisymmetric" else 1
    for idx in itertools.combinations(range(k), 3):
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            raw[idx[a], idx[b], idx[c]] = 1
            raw[idx[b], idx[a], idx[c]] = odd
    if rng.integers(0, 2):
        raw[tuple(rng.integers(0, k, size=3))] += 1
    return steps * raw


@settings(max_examples=60)
@given(
    factors=factor_lists(max_order=64, max_rank=5, min_rank=3),
    multiple=st.integers(1, 3),
    kind=st.sampled_from(["random", "antisymmetric", "half turns", "zero"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tensor_alternation_and_zero_match_the_dense_table(factors, multiple, kind, seed):
    """Tricharacter.is_alternating and is_zero, decided on the tensor, equal
    the answers read from the dense table of a plain copy. The modulus is a
    multiple of the exponent, so that few of the drawn forms vanish."""
    group = make_group(factors)
    m = group.exponent * multiple
    tensor = random_tensor_of_kind(kind, factors, m, np.random.default_rng(seed))
    phi = Tricharacter(group, tensor, m)
    got = (phi.is_alternating(), phi.is_zero())
    assert "table" not in vars(phi)
    plain = Cochain3(group, phi.table, phi.den)
    assert got == (plain.is_alternating(), plain.is_zero())


@settings(max_examples=30)
@given(
    factors=factor_lists(max_order=32, max_rank=5),
    den=st.sampled_from([1, 2, 6, 12, 255, 2**31 + 11, 2**62 - 57, 2**62]),
    seed=st.integers(0, 2**32 - 1),
)
def test_coboundary2_is_computed_once_and_is_the_alternating_sum(factors, den, seed):
    """The table and denominator of delta sigma equal, entry for entry, the
    four-term sum sigma(y,z) - sigma(x+y,z) + sigma(x,y+z) - sigma(x,y) taken
    in Python integers, reduced mod den and put in lowest terms."""
    group = make_group(factors)
    sigma = random_sigma(group, np.random.default_rng(seed), den=den)
    first = coboundary2(sigma)
    assert coboundary2(sigma) is first
    add = group.add_table
    t = sigma.table.astype(object)
    wide = (t[None, :, :] - t[add, :] + t[:, add] - t[:, :, None]) % den
    g = gcd(den, *(int(v) for v in wide.flat))
    assert first.den == den // g and first.table.dtype == _storage_dtype(first.den)
    assert (first.table.astype(object) == wide // g).all()


@settings(max_examples=30)
@given(
    factors=factor_lists(max_order=32, max_rank=5),
    den=st.sampled_from([1, 2, 6, 12, 255, 2**31 + 11]),
    dim=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_twist_validation_agrees_with_the_float_relations(factors, den, dim, seed):
    """validate decides the phase relation exactly (phi = delta sigma, slab
    by slab); the test file's float evaluation of both relations agrees. Both
    accept phi = delta sigma, also as a plain copy over twice the
    denominator, which the exact check must sweep; both refuse it with two
    entries moved by 1/3, and both name the first of them in index order."""
    group = make_group(factors)
    rng = np.random.default_rng(seed)
    sigma = random_sigma(group, rng, den=den)
    dense = Cochain2(group, sigma.table, sigma.den).coboundary
    twin = Cochain3(group, dense.table.astype(np.int64) * 2, dense.den * 2)  # not cached
    for phi in (coboundary2(sigma), twin):
        TwistData(group, dim, sigma=sigma, phi=phi)
        assert float_twist_witness(group, dim, None, sigma, phi) is None
    if group.order == 1:
        return
    cells = {tuple(int(i) for i in rng.integers(1, group.order, size=3)) for _ in range(2)}
    bad = dense + Cochain3.from_entries(group, [(cell, "1/3") for cell in cells])
    with pytest.raises(TwistDataError, match="multiplier relation") as exact:
        TwistData(group, dim, sigma=sigma, phi=bad)
    assert exact.value.witness == min(cells)
    assert float_twist_witness(group, dim, None, sigma, bad) == ("phase", min(cells))


@settings(max_examples=30)
@given(
    factors=factor_lists(max_order=32, max_rank=4),
    m=st.integers(1, 24),
    dim=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_extract_sigma_is_the_exact_quotient(factors, m, dim, seed):
    """sigma2 = sigma1 + B for a random bicharacter B: extract_sigma returns B
    exactly and certifies it, and the float multipliers agree, u2 u1^-1 =
    exp(2 pi i B) 1. For a random sigma3 instead, the verdict fails exactly
    when phi3 != phi1, with the first (x, y, z) in index order where they
    differ, read from their dense tables."""
    group = make_group(factors)
    rng = np.random.default_rng(seed)
    k = group.rank
    sigma1 = random_sigma(group, rng, den=int(rng.choice([4, 6, 12])))
    matrix = compatible_steps(factors, m, 2) * rng.integers(0, m, size=(k, k))
    bichar = bicharacter_from_matrix(group, matrix, m)
    tw1 = TwistData(group, dim, sigma=sigma1)
    tw2 = TwistData(group, dim, sigma=sigma1 + bichar)
    ex = extract_sigma(tw2, tw1)
    assert ex.passed and ex.witness is None and ex.sigma == bichar
    u1, u2 = (tw.sigma.complex_table[..., None, None] * np.eye(dim) for tw in (tw1, tw2))
    quotient = u2 @ np.conj(u1).swapaxes(-1, -2)
    expected = np.exp(2j * np.pi * bichar.table / bichar.den)[:, :, None, None] * np.eye(dim)
    assert np.abs(quotient - expected).max() < 1e-12

    tw3 = TwistData(group, dim, sigma=random_sigma(group, rng, den=int(rng.choice([2, 6, 8]))))
    phi1, phi3 = tw1.phi, tw3.phi
    den = lcm(phi1.den, phi3.den)
    wide1, wide3 = (phi.table.astype(np.int64) for phi in (phi1, phi3))
    diff = (wide3 * (den // phi3.den) - wide1 * (den // phi1.den)) % den
    first = tuple(int(i) for i in np.argwhere(diff)[0]) if diff.any() else None
    ex = extract_sigma(tw3, tw1)
    assert ex.witness == first and ex.passed == (first is None)
    assert ex.sigma == Cochain2(group, tw3.sigma.table, tw3.sigma.den) - sigma1


@settings(max_examples=10)
@given(factors=factor_lists(max_order=16, max_rank=4), seed=st.integers(0, 2**32 - 1))
def test_coboundary2_is_the_float_associator_of_the_twisted_group_algebra(factors, seed):
    """exp(2 pi i (delta sigma)(a, b, c)) is the ratio of e_a(e_b e_c) to
    (e_a e_b)e_c, each product taken with TwistedGroupAlgebra.multiply."""
    group = make_group(factors)
    rng = np.random.default_rng(seed)
    sigma = random_sigma(group, rng, den=int(rng.choice([4, 6, 8, 12])))
    alg = TwistedGroupAlgebra(group, sigma)
    e = alg.basis
    n = group.order
    pairs = [[alg.multiply(e[a], e[b]) for b in range(n)] for a in range(n)]
    add = group.add_table
    ratio = np.empty((n, n, n), dtype=complex)
    for a, b, c in itertools.product(range(n), repeat=3):
        left = alg.multiply(e[a], pairs[b][c]).coeffs
        right = alg.multiply(pairs[a][b], e[c]).coeffs
        abc = add[add[a, b], c]
        assert np.count_nonzero(left) == np.count_nonzero(right) == 1
        ratio[a, b, c] = left[abc] / right[abc]
    assert np.max(np.abs(ratio - coboundary2(sigma).complex_table)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=15)
@given(factors=factor_lists(max_order=32, max_rank=5), seed=st.integers(0, 2**32 - 1))
def test_fourier_side_product_is_the_evaluation_side_product(dim, factors, seed):
    """The two forms of the crossed-product convolution agree on random
    scalar and 2x2-block coefficient functions."""
    group = make_group(factors)
    n = group.order
    rng = np.random.default_rng(seed)
    shape = (n, n) if dim == 1 else (n, n, dim, dim)
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    got = fourier_side_product(group, a, b)
    expected = evaluation_side_product(group, a, b)
    assert got.shape == expected.shape == shape
    bound = 1e-13 * n * dim * np.abs(a).max() * np.abs(b).max()
    assert np.max(np.abs(got - expected)) <= bound


# Denominators on both sides of every type boundary of the exact sweeps
# (cochains._sweep_dtype): divisors of 256 (uint8), the int16 edge at
# 5 * (den - 1) = 32767, the int32 edge at 5 * (den - 1) = 2^31 - 1, the int64
# edge at 5 * (den - 1) = 2^63 - 1, and others in between.
INT16_EDGE = 32767 // 5 + 1  # 6554
INT32_EDGE = (2**31 - 1) // 5 + 1  # 429496730
INT64_EDGE = (2**63 - 1) // 5 + 1
SWEEP_DENS = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 3, 6, 12, 255, 257, 512, 1000,
    INT16_EDGE - 1, INT16_EDGE, INT16_EDGE + 1,
    INT32_EDGE - 1, INT32_EDGE, INT32_EDGE + 1,
    2**40, INT64_EDGE, INT64_EDGE + 1, 2**62 - 57,
]


def integer_edges(terms):
    """Both sides of the int16 and int32 edges of sums of `terms` residues:
    the largest den with terms * (den - 1) in range, and the next."""
    e16, e32 = 32767 // terms + 1, (2**31 - 1) // terms + 1
    return [(terms, e16, np.int16), (terms, e16 + 1, np.int32),
            (terms, e32, np.int32), (terms, e32 + 1, np.int64)]


@pytest.mark.parametrize(
    "terms, den, dtype",
    [
        (5, 1, np.uint8), (5, 2, np.uint8), (5, 128, np.uint8), (5, 256, np.uint8),
        (5, 3, np.int16), (5, 6, np.int16), (5, 255, np.int16), (5, 257, np.int16),
        (5, 512, np.int16),
        (5, INT16_EDGE, np.int16), (5, INT16_EDGE + 1, np.int32),
        (5, INT32_EDGE, np.int32), (5, INT32_EDGE + 1, np.int64),
        (5, 2**40, np.int64), (5, INT64_EDGE, np.int64), (5, INT64_EDGE + 1, object),
    ] + integer_edges(4) + integer_edges(6),
)
def test_sweep_dtype_at_each_boundary(terms, den, dtype):
    """The sweep type holds every partial sum of `terms` residues: a 3-cochain's
    delta has 5 terms, a 2-cochain's 4 and a 4-cochain's 6."""
    assert _sweep_dtype(den, terms) == np.dtype(dtype)


def plain_cochain(group, arity, table, den):
    """A plain cochain of `arity`: built through the arity's class where it has
    one (Cochain2, Cochain3), else as a bare CochainTable."""
    kind = {2: Cochain2, 3: Cochain3}.get(arity)
    return kind(group, table, den) if kind else CochainTable(group, arity, table, den)


@pytest.mark.parametrize(
    "arity, den, dtype",
    [
        (1, 32767 // 3 + 1, np.int16),  # 3 terms fit int16; 5 would not
        (2, 32767 // 4 + 1, np.int16),  # 4 terms fit int16; 5 would not
        (3, INT16_EDGE + 1, np.int32),
        (4, 32767 // 6 + 2, np.int32),  # 5 terms would fit int16; 6 do not
    ],
)
def test_the_sweep_type_follows_the_arity(arity, den, dtype):
    """delta of a k-cochain sums k + 2 terms, and its sweep runs in the type
    that bound gives, not in a fixed five-term one."""
    g = make_group([2])
    c = plain_cochain(g, arity, np.zeros((2,) * arity, dtype=np.int64), den)
    assert all(block.dtype == dtype for _, block in _sweep(c, _coboundary_chunk))


def coboundary_reference(table, group):
    """delta of a k-cochain's table, cell by cell and term by term in Python
    integers, unreduced:
        c(x1, ..., xk) + sum_i (-1)^i c(x0, ..., x(i-1) + xi, ..., xk)
            + (-1)^(k+1) c(x0, ..., x(k-1))."""
    k, add = table.ndim, group.add_table
    out = np.empty((group.order,) * (k + 1), dtype=object)
    for xs in itertools.product(range(group.order), repeat=k + 1):
        total = int(table[xs[1:]]) + (-1) ** (k + 1) * int(table[xs[:-1]])
        for i in range(1, k + 1):
            merged = xs[: i - 1] + (int(add[xs[i - 1], xs[i]]),) + xs[i + 1 :]
            total += (-1) ** i * int(table[merged])
        out[xs] = total
    return out


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
@pytest.mark.parametrize("den", [2, 12, 255, 2**31 + 11, 2**62 - 57])
@settings(max_examples=6)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_the_coboundary_chunk_is_the_definition_and_squares_to_zero(arity, den, data, seed):
    """The one chunk against the per-term definition at arities 1-4 (|G| <= 12,
    and <= 6 at arity 4), in every sweep type (uint8, int16, int64, Python
    integers), block by block from index 1, where the definition is zero at
    index 0; and delta delta = 0 at arities 1-3."""
    small = arity == 4
    group = make_group(data.draw(factor_lists(6 if small else 12, 2 if small else 3)))
    table = np.random.default_rng(seed).integers(0, den, size=(group.order,) * arity)
    for axis in range(arity):
        np.moveaxis(table, axis, 0)[0] = 0
    c = plain_cochain(group, arity, table, den)
    reference = coboundary_reference(c.table, group) % den
    assert not reference[0].any()
    for lo, block in _sweep(c, _coboundary_chunk):
        assert np.array_equal(block.astype(object), reference[lo : lo + len(block)])
    if arity <= 3:
        assert _coboundary(_coboundary(c)).is_zero()



@pytest.mark.parametrize("den", [2, 12, 2**31 + 11])
@settings(max_examples=6)
@given(factors=factor_lists(12), seed=st.integers(0, 2**32 - 1))
def test_the_combination_chunk_is_the_fancy_index_form(den, factors, seed):
    """The multiplier-combination chunk, gathered with `take` a block of xi at
    a time on the table transposed to [x, eta, zeta], equals its fancy-index
    form on the table in the sweep type, bit for bit, for every block."""
    group = make_group(factors)
    n, add, sub = group.order, group.add_table, group.sub_table
    table = random_normalized_table(group, den, 3, np.random.default_rng(seed))
    t = table.astype(_sweep_dtype(den, 5))
    tt = np.ascontiguousarray(t.transpose(2, 0, 1))
    for lo, hi in [(1, n), (0, n), *((x, x + 1) for x in range(n))]:
        expected = np.array([
            t[add[ix]] + t[ix][:, None, :] - t[ix][add] - t[:, :, sub[:, ix]]
            - t[:, :, ix][:, :, None]
            for ix in range(lo, hi)
        ])
        buffers = np.empty((2, hi - lo) + t.shape, t.dtype)
        got = _combination_defect_chunk(tt, group, slice(lo, hi), *buffers)
        assert np.array_equal(got, expected)


@st.composite
def window_factors(draw, max_order):
    """Factor lists of order <= max_order whose last factor, the one the
    windowed gather rotates, is 2-6: Z/5 and Z/3 x Z/6 among them."""
    last = draw(st.integers(2, min(6, max_order)))
    heads = ([], [2], [3], [4], [2, 2], [2, 3], [4, 4], [2, 2, 2])
    heads = [h for h in heads if prod(h) * last <= max_order]
    return draw(st.sampled_from(heads)) + [last]


def literal_delta(table, group, x, den):
    """(delta c)(x, x1, ..., xk) mod den over [x1, ..., xk], by the definition
        c(x1, ..., xk) + sum_i (-1)^i c(x, ..., x(i-1) + xi, ...) + (-1)^(k+1) c(x, ..., x(k-1)),
    each term gathered with open index grids and added in int64, reduced
    after each one, so no sum passes 2^63 for den <= 2^62."""
    k, add = table.ndim, group.add_table
    xs = (x, *np.ogrid[(slice(0, group.order),) * k])
    total = table[xs[1:]].astype(np.int64)
    for i in range(1, k + 1):
        merged = xs[: i - 1] + (add[xs[i - 1], xs[i]],) + xs[i + 1 :]
        total = (total + (-1) ** i * table[merged].astype(np.int64)) % den
    return (total + (-1) ** (k + 1) * table[xs[:-1]].astype(np.int64)) % den


def literal_combination(t, group, xi, den):
    """t[xi, eta, x] + t[xi+eta, zeta, x] - t[xi, eta+zeta, x] - t[eta, zeta, x-xi]
    - t[eta, zeta, xi] mod den over [eta, zeta, x], term by term as in
    literal_delta."""
    add, sub = group.add_table, group.sub_table
    eta, zeta, x = np.ogrid[: group.order, : group.order, : group.order]
    terms = [(add[xi, eta], zeta, x), (xi, eta, x), (xi, add[eta, zeta], x)]
    terms += [(eta, zeta, sub[x, xi]), (eta, zeta, xi)]
    total = np.zeros((group.order,) * 3, np.int64)
    for sign, idx in zip((1, 1, -1, -1, -1), terms):
        total = (total + sign * t[idx].astype(np.int64)) % den
    return total


def literal_slice(kind, table, group, x, den):
    """Index x of the sweep of `kind`: delta at the table's arity, or the
    multiplier combination ("combination")."""
    if kind == "combination":
        return literal_combination(table, group, x, den)
    return literal_delta(table, group, x, den)


def sweep_of(kind, c):
    """The sweep of `kind` over the cochain c (`_sweep`), each block copied
    out of the buffer the sweep reuses."""
    if kind == "combination":
        chunk, axes = _combination_defect_chunk, (2, 0, 1)
    else:
        chunk, axes = _coboundary_chunk, None
    return [(lo, block.copy()) for lo, block in _sweep(c, chunk, axes)]


@pytest.mark.parametrize("kind", [1, 2, 3, "combination"])
@pytest.mark.parametrize(
    "den, dtype",
    [(4, np.uint8), (256, np.uint8), (12, np.int16), (2**20 + 7, np.int32), (2**62 - 57, object)],
)
@settings(max_examples=8)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_blocks_and_windows_are_the_literal_definitions(kind, den, dtype, data, seed):
    """Every block of delta at arities 1-3 and of the multiplier combination,
    in each sweep type, equals the literal definition, for block sizes drawn
    from 1 to n - 1 (set through the budget; most do not divide n), and the
    first witness equals an index-order search of the definition.

    The cochain is a cocycle (delta of a random cochain one arity down; zero
    at arity 1) with zero to two cells moved, so witnesses fall anywhere.
    |G| <= 64, and n^(k+1) <= 2^18 cells at arity k (2^14 in Python
    integers), so the definition is evaluated in the time of a test."""
    arity = 3 if kind == "combination" else kind
    assert _sweep_dtype(den, arity + 2) == np.dtype(dtype)
    cap = 2**14 if dtype is object else 2**18
    max_order = max(n for n in range(2, 65) if n ** (arity + 1) <= cap)
    group = make_group(data.draw(window_factors(max_order)))
    n, rng = group.order, np.random.default_rng(seed)
    if arity == 1:
        table = np.zeros(n, np.int64)
    else:
        lower = random_normalized_table(group, den, arity - 1, rng)
        table = np.array([literal_delta(lower, group, x, den) for x in range(n)])
    for _ in range(rng.integers(0, 3)):
        table[tuple(rng.integers(1, n, size=arity))] = rng.integers(0, den)
    c = plain_cochain(group, arity, table, den)
    reference = [literal_slice(kind, c.table, group, x, den) for x in range(n)]
    size = data.draw(st.integers(1, n - 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cochains, "_SWEEP_BYTES", size * n**arity * np.dtype(dtype).itemsize)
        blocks = sweep_of(kind, c)
        witness = _first_nonzero(blocks)
        public = None if kind == 1 else (
            associativity_cocycle_sweep(c) if kind == "combination" else c.coboundary_witness
        )
    assert [lo for lo, _ in blocks] == list(range(1, n, size))
    for lo, block in blocks:
        assert block.dtype == dtype
        assert np.array_equal(block.astype(object), np.array(reference[lo : lo + len(block)]))
    expected = first_nonzero(reference)
    assert witness == expected and (kind == 1 or public == expected)


@settings(max_examples=20)
@given(
    kind=st.sampled_from([1, 2, 3, "combination"]),
    den=st.sampled_from([2, 12, 2**31 + 11, 2**62 - 57]),
    factors=window_factors(16),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_identity_slice_the_sweeps_skip_is_zero(kind, den, factors, seed):
    """On a normalized cochain, index 0 of delta and of the multiplier
    combination is zero by the literal definition, so every sweep starts at
    index 1, and _coboundary writes zeros there."""
    group = make_group(factors)
    arity = 3 if kind == "combination" else kind
    table = random_normalized_table(group, den, arity, np.random.default_rng(seed))
    c = plain_cochain(group, arity, table, den)
    assert not literal_slice(kind, c.table, group, 0, den).any()
    if kind != "combination":
        assert not _coboundary(c).table[0].any()


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_adopt_refuses_a_table_that_is_not_normalized(arity):
    """The premise of the skipped identity slice: every cochain passes
    `_adopt`, which refuses a nonzero value with the identity in any slot,
    built through its class or adopted as it is (`_from_table`)."""
    group = make_group([2, 3])
    for axis in range(arity):
        table = np.zeros((group.order,) * arity, np.uint8)
        table[(1,) * axis + (0,) + (1,) * (arity - axis - 1)] = 1
        message = f"^cochain is not normalized: nonzero value with identity in slot {axis}$"
        with pytest.raises(CochainError, match=message):
            plain_cochain(group, arity, table, 2)
        with pytest.raises(CochainError, match=message):
            CochainTable._from_table(group, arity, table.copy(), 3)


def random_normalized_cocycle_or_mutant(group, den, rng):
    """delta sigma for a random normalized sigma over `den`, with zero or one
    entry replaced by a random residue; the table keeps the denominator `den`."""
    n = group.order
    s = rng.integers(0, 2**62, size=(n, n)).astype(object) % den
    s[0, :] = s[:, 0] = 0
    add = group.add_table
    table = (s[None, :, :] - s[add, :] + s[:, add] - s[:, :, None]) % den
    if rng.integers(0, 2):
        i, j, k = rng.integers(1, n, size=3)
        table[i, j, k] = int(rng.integers(0, 2**62)) % den
    return Cochain3(group, table.astype(np.int64), den)


def first_nonzero(chunks):
    """(i, *index) of the first nonzero entry over a sequence of chunks, or None."""
    for i, chunk in enumerate(chunks):
        if chunk.any():
            return (i, *(int(v) for v in np.argwhere(chunk)[0]))
    return None


def reference_tables(phi):
    """delta phi, the multiplier-relation defect and the associativity defect
    as full n^4 tables, each one wide expression per chunk evaluated in Python
    integers so the reference itself cannot wrap at any denominator. The
    multiplier table is indexed [a, b, c, entry], the others like their sweeps."""
    g, d = phi.group, phi.den
    add, sub = g.add_table, g.sub_table
    t = phi.table.astype(object)
    r = range(g.order)
    delta = np.array(
        [(t - t[add[w], :, :] + t[w][add, :] - t[w][:, add] + t[w][:, :, None]) % d for w in r]
    )
    multiplier = np.array(
        [
            (
                t[a][:, :, None] + t[:, a, :].T[:, None, :] + t[:, add[a], :].transpose(1, 2, 0)
                - t[add[:, a]].transpose(1, 2, 0) - t[:, a, :][:, add].transpose(1, 2, 0)
            ) % d
            for a in r
        ]
    )
    assoc = np.array(
        [
            (
                t[ix][:, None, :] + t[add[ix]] - t[ix][add] - t[:, :, sub[:, ix]]
                - t[:, :, ix][:, :, None]
            ) % d
            for ix in r
        ]
    )
    return delta, multiplier, assoc


@pytest.mark.parametrize("den", SWEEP_DENS)
@settings(max_examples=4)
@given(factors=factor_lists(max_order=18), seed=st.integers(0, 2**32 - 1))
def test_exact_sweeps_match_the_wide_reference(den, factors, seed):
    """The narrow-type sweeps report the same first witness as the reference.

    The multiplier defect at (a, b, c, g) is (delta phi)(g, a, b, c) on every
    cell, so check_multiplier_relation reads the cocycle sweep and reports
    its witness (w, x, y, z) reindexed as (x, y, z, w)."""
    group = make_group(factors)
    phi = random_normalized_cocycle_or_mutant(group, den, np.random.default_rng(seed))
    assert phi.den == den
    delta, multiplier, assoc = reference_tables(phi)
    assert (multiplier == delta.transpose(1, 2, 3, 0)).all()
    witness = first_nonzero(delta)
    expected = (
        witness,
        None if witness is None else (*witness[1:], witness[0]),
        first_nonzero(assoc),
    )
    got = (
        phi.coboundary_witness,
        check_multiplier_relation(phi),
        associativity_cocycle_sweep(phi),
    )
    assert got == expected


def assert_relatively_close(got, expected, rtol=1e-12):
    assert np.abs(got - expected).max() <= rtol * np.abs(expected).max()


@settings(max_examples=15)
@given(factors=factor_lists(), conjugation=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_per_point_products_match_the_dense_reference(factors, conjugation, seed):
    """deformed_product and represent, computed point by point, equal the
    dense (d nm) x (d nm) formulas of test_quantization within 1e-12
    relative. Every point carries its own random matrix and phi is a random
    tricharacter on the dual; the action is translation on the drawn group,
    or Z/4 conjugating M_4."""
    action = m4_conjugation_action() if conjugation else GAction.translation(make_group(factors))
    group = action.group.dual
    rng = np.random.default_rng(seed)
    m = group.exponent
    phi = Tricharacter(group, random_tensor_of_kind("random", group.factors, m, rng), m)
    a, b = (GradedElement(action, random_point_blocks(action, rng)) for _ in range(2))
    got = dense_blocks(deformed_product(a, b, phi).blocks)
    assert_relatively_close(got, deformed_product_reference(a, b, phi))
    assert_relatively_close(represent(a, phi), represent_reference(a, phi))


@settings(max_examples=20)
@given(factors=factor_lists(max_order=32, max_rank=5), seed=st.integers(0, 2**32 - 1))
def test_restrict_is_the_triple_loop_over_the_subgroup(factors, seed):
    group = make_group(factors)
    rng = np.random.default_rng(seed)
    phi = random_cochain3(group, rng)
    gens = [group.elements[i] for i in rng.integers(0, group.order, size=rng.integers(1, 3))]
    H = subgroup_elements(group, gens)
    loop = {
        (a.coords, b.coords, c.coords): phi.value(a, b, c)
        for a in H
        for b in H
        for c in H
    }
    got = restrict(phi, gens)
    assert list(got.items()) == list(loop.items())
    assert is_trivial_on(phi, gens) == all(p.is_zero() for p in loop.values())


# (psi den, phi den), phi = delta sigma for a sigma over phi den: common
# denominators that are no quarter turns, on both sides of each unsigned-type
# boundary of 2 (den - 1): 128 sums into uint8, 129 needs uint16, 2^31 + 11
# needs uint64; (4, 6) scales both to 12.
DUALITY_DENS = [(3, 3), (6, 6), (12, 12), (4, 6), (128, 128), (129, 129), (255, 255)]
DUALITY_DENS += [(2**31 + 11, 2**31 + 11)]
# (factors, d, mode): n^2 d^2 <= 64 is exhaustive, above it random.
DUALITY_SHAPES = [
    ([2, 3], 1, "exhaustive"),
    ([3, 3], 1, "random"),
    ([3], 2, "exhaustive"),
    ([2, 3], 2, "random"),
]


def random_normalized_table(group, den, arity, rng):
    table = rng.integers(0, den, size=(group.order,) * arity)
    for axis in range(arity):
        np.moveaxis(table, axis, 0)[0] = 0
    return table


def random_unitaries(rng, shape, d):
    z = rng.standard_normal(shape + (d, d)) + 1j * rng.standard_normal(shape + (d, d))
    return np.linalg.qr(z)[0]


def random_g_action(group, d, rng):
    """beta_x = c_x Q diag(chi_1(x), ..., chi_d(x)) Q^* for d random characters
    chi_j, a random unitary Q and random unit scalars c_x with c_0 = 1: a
    G-action on M_d whose conjugators compose only up to a phase, and which
    TwistData validates as one."""
    q = random_unitaries(rng, (), d)
    characters = group.character_matrix[rng.integers(0, group.order, size=d)].T  # [x, j]
    scalars = np.exp(2j * np.pi * rng.random(group.order))
    scalars[0] = 1.0
    beta = scalars[:, None, None] * (q * characters[:, None, :]) @ np.conj(q).T
    TwistData(group, d, beta=beta)
    return beta


def unproven_twist(group, dim, beta, sigma, phi):
    """A stand-in with TwistData's fields and neither relation proven, for the
    formula tests of the products and exponent rows on data that TwistData
    refuses to build; beta None is the trivial beta."""
    if beta is None:
        beta = np.broadcast_to(np.eye(dim), (group.order, dim, dim))
    return SimpleNamespace(group=group, dim=dim, beta=beta, sigma=sigma, phi=phi)


def clock_and_shift(m, rng):
    """Z/m x Z/m acting on M_m through X^a Z^b (X the cyclic shift, Z the
    clock diag(e(j / m))), conjugated by a random unitary: a projective,
    non-monomial G-action that TwistData validates."""
    group = make_group([m, m])
    shift = np.roll(np.eye(m), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(m) / m))
    q = random_unitaries(rng, (), m)
    power = np.linalg.matrix_power
    beta = np.array([q @ power(shift, a) @ power(clock, b) @ np.conj(q).T for a, b in group.coords])
    TwistData(group, m, beta=beta)
    return group, beta


def exponent_sum(psi, phi):
    """((psi + phi) mod den, den) from the two tables, in Python integers."""
    den = lcm(psi.den, phi.den)
    total = psi.table.astype(object) * (den // psi.den)
    total += phi.table.astype(object) * (den // phi.den)
    return total % den, den


def sheared_reference(group, table):
    """c(w - y, y - z, z) over [w, y, z], by indexing the n^3 table of c."""
    sub = group.sub_table
    return table[sub[:, :, None], sub[None, :, :], np.arange(group.order)]


def reference_duality_errors(tw, psi, a, b, include_multiplier):
    """max |transform(a * b) - transform(a) * transform(b)| per pair (leading
    axis of a and b), by the definitions, with the exponents summed from
    psi.table and phi.table (exponent_sum): no code shared with
    verify_duality's phase table."""
    g = tw.group
    n, add, sub = g.order, g.add_table, g.sub_table
    total, den = exponent_sum(psi, tw.phi)
    weight = np.exp(2j * np.pi * total.astype(float) / den)
    kernel_weight = np.exp(2j * np.pi * psi.table.astype(float) / psi.den)
    v, vh = tw.beta, np.conj(tw.beta).swapaxes(-1, -2)
    u = tw.sigma.complex_table[..., None, None] * np.eye(tw.dim)  # u(t, r) as a d x d matrix
    # (a * b)(s, x) = sum_t w(t, s - t, x) a(t, (s - t) + x) v_t b(s - t, x) v_t^* u(t, s - t)
    product = np.zeros_like(a)
    for t, r in itertools.product(range(n), repeat=2):
        term = a[:, t, add[r]] @ v[t] @ b[:, r] @ vh[t] @ u[t, r]
        product[:, add[t, r]] += weight[t, r][:, None, None] * term

    def transform(c):  # c~(w, z) = v_w^* c(w - z, z) u(w - z, z) v_w
        out = np.empty_like(c)
        for w, z in itertools.product(range(n), repeat=2):
            m = c[:, sub[w, z], z]
            out[:, w, z] = vh[w] @ (m @ u[sub[w, z], z] if include_multiplier else m) @ v[w]
        return out

    ta, tb = transform(a), transform(b)
    rhs = np.einsum("xyz,pxyab,pyzbc->pxzac", kernel_weight, ta, tb)
    return np.abs(transform(product) - rhs).max(axis=(1, 2, 3, 4))


def assert_report_follows_the_definitions(tw, psi, trials, seed, include_multiplier):
    """verify_duality(tw, psi, trials, seed) fails, its max_error within 1e-9
    relative of reference_duality_errors over the same pairs (the basis pairs
    in exhaustive mode, else the trials drawn a then b, pair by pair), and its
    witness is that reference's: the first failing pair, or the worst trial.
    Returns the report's mode."""
    n, d = tw.group.order, tw.dim
    report = verify_duality(tw, psi, trials=trials, seed=seed, include_multiplier=include_multiplier)
    if report.mode == "exhaustive":
        basis = np.eye(n * n * d * d, dtype=complex).reshape(-1, n, n, d, d)
        a, b = np.repeat(basis, len(basis), axis=0), np.tile(basis, (len(basis), 1, 1, 1, 1))
    else:
        draw = np.random.default_rng(seed)  # a then b, pair by pair, as verify_duality draws
        elements = [StrictifiedElement.random(tw, draw).values for _ in range(2 * trials)]
        a, b = np.stack(elements[0::2]), np.stack(elements[1::2])
    errors = reference_duality_errors(tw, psi, a, b, include_multiplier)
    assert report.trials == len(errors)
    worst = errors.max()
    assert worst > 1e-3 and not report.passed
    assert abs(report.max_error - worst) <= 1e-9 * worst
    if report.mode == "random":  # the worst trial
        assert errors[report.witness[1]] >= worst * (1 - 1e-9)
    else:  # the first failing pair
        keys = list(itertools.product(range(n), range(n), range(d), range(d)))
        k = keys.index(report.witness[0]) * len(keys) + keys.index(report.witness[1])
        assert k == np.argmax(errors > 1e-10)
    return report.mode


@pytest.mark.parametrize("include_multiplier", [True, False])
@pytest.mark.parametrize("factors, d, mode", DUALITY_SHAPES)
@pytest.mark.parametrize("psi_den, phi_den", DUALITY_DENS)
def test_duality_check_matches_the_definitions_over_each_denominator(
    psi_den, phi_den, factors, d, mode, include_multiplier
):
    """verify_duality on a plain random psi (not shear-invariant, so the
    identity fails by O(1) and every phase shows in the errors) and a proven
    twist (a random G-action beta, a random sigma over phi_den and phi =
    delta sigma) against the definitions, and the exponent rows of the plain
    sum psi + phi, its sheared rows and its slabs, exactly, against the
    Python-integer sum."""
    group = make_group(factors)
    n = group.order
    rng = np.random.default_rng([psi_den % 2**32, n, d])
    psi = Cochain3(group, random_normalized_table(group, psi_den, 3, rng), psi_den)
    sigma = Cochain2(group, random_normalized_table(group, phi_den, 2, rng), phi_den)
    tw = TwistData(group, d, beta=random_g_action(group, d, rng), sigma=sigma)
    phi = tw.phi

    total, den = exponent_sum(psi, phi)
    summed = psi + phi
    assert type(summed) is Cochain3
    assert _DualityRows(tw, psi, include_multiplier).sheared[1] == summed.den
    assert_exponent_rows_match(summed, den, total)

    assert assert_report_follows_the_definitions(tw, psi, 5, 7, include_multiplier) == mode


@settings(max_examples=12)
@given(
    factors=factor_lists(max_order=16),
    d=st.sampled_from([2, 3]),
    clock=st.booleans(),
    den=st.sampled_from([4, 6, 12]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_projective_beta_is_decided_by_the_exact_rows(factors, d, clock, den, seed):
    """A validated d > 1 twist, its beta a random G-action or clock and shift
    on Z/d x Z/d, conjugated by a random unitary (so in general not
    monomial), with a random sigma and phi = delta sigma. With a shear-invariant psi every exact
    row agrees, so the check draws no pair and passes with max_error exactly
    0; with a plain random psi it fails, with and without the multiplier, at
    the definitions' errors and witness."""
    rng = np.random.default_rng(seed)
    if clock:
        group, beta = clock_and_shift(d, rng)
    else:
        group = make_group(factors)
        beta = random_g_action(group, d, rng)
    tw = TwistData(group, d, beta=beta, sigma=random_sigma(group, rng, den))
    psi = shear_invariant_cochain(group, den, rng)
    assert _DualityRows(tw, psi, True).rows_agree()

    def refuse(*args):
        raise AssertionError("a batch was drawn")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(crossed, "_draw_batch", refuse)
        report = verify_duality(tw, psi, trials=3, seed=seed)
    assert report.passed and report.max_error == 0.0 and report.witness is None
    psi = Cochain3(group, random_normalized_table(group, den, 3, rng), den)
    for include_multiplier in (True, False):
        assert_report_follows_the_definitions(tw, psi, 3, seed, include_multiplier)



@pytest.mark.parametrize("include_multiplier", [True, False])
@settings(max_examples=20)
@given(
    factors=factor_lists(max_order=16),
    dens=st.tuples(*[st.sampled_from([2, 12, 2**31 + 11])] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_duality_exponent_rows_are_the_python_integer_sums(
    include_multiplier, factors, dens, seed
):
    """E_L and E_R as the check sums them (`exponent_rows`, `_exponent_sum`)
    for plain random psi, phi and sigma, against the definition summed in
    Python integers over the lcm of their denominators:
        E_L = (psi + phi)(w - y, y - z, z) + sigma(w - y, y - z) + sigma(w - z, z),
        E_R = psi(w, y, z) + sigma(w - y, y) + sigma(y - z, z),
    with the sigma(w - z, z) term of E_L and both of E_R dropped without the
    multiplier. A twist is proven on construction, so phi is arbitrary here
    through a stand-in twist (`unproven_twist`)."""
    group = make_group(factors)
    n, sub = group.order, group.sub_table
    rng = np.random.default_rng(seed)
    psi, phi = (Cochain3(group, random_normalized_table(group, d, 3, rng), d) for d in dens[:2])
    sigma = Cochain2(group, random_normalized_table(group, dens[2], 2, rng), dens[2])
    tw = unproven_twist(group, 1, None, sigma, phi)
    common = lcm(*dens)

    def value(c, *cell):
        return int(c.table[cell]) * (common // c.den)

    for w, left, right in _DualityRows(tw, psi, include_multiplier).exponent_rows():
        (e_left, den_left), (e_right, den_right) = _exponent_sum(left), _exponent_sum(right)
        for y, z in itertools.product(range(n), repeat=2):
            t, r = sub[w, y], sub[y, z]
            expected_left = value(psi, t, r, z) + value(phi, t, r, z) + value(sigma, t, r)
            expected_right = value(psi, w, y, z)
            if include_multiplier:
                expected_left += value(sigma, sub[w, z], z)
                expected_right += value(sigma, t, y) + value(sigma, r, z)
            assert int(e_left[y, z]) * (common // den_left) == expected_left % common
            assert int(e_right[y, z]) * (common // den_right) == expected_right % common


@pytest.mark.parametrize("include_multiplier", [True, False])
@settings(max_examples=8)
@given(
    factors=factor_lists(max_order=16),
    dens=st.tuples(*[st.sampled_from([2, 12, 2**31 + 11])] * 2),
    invariant=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_scalar_duality_defect_is_the_per_pair_definition(
    include_multiplier, factors, dens, invariant, seed
):
    """verify_duality on a scalar twist, whose rows are one weighted sum of
    e(E_L) - e(E_R), against the per-pair definitions route, for random sigma
    and psi over each den, exhaustive for |G| <= 8 and random above: the same
    mode, trials and witness, max_error within 1e-13 relative, and a pass
    reports exactly 0. A shear-invariant psi, c(w - y, y - z, z) = c(w, y, z),
    makes the two exponent rows equal with the multiplier, so the check passes."""
    group = make_group(factors)
    rng = np.random.default_rng(seed)
    sigma = Cochain2(group, random_normalized_table(group, dens[0], 2, rng), dens[0])
    if invariant:
        psi = shear_invariant_cochain(group, dens[1], rng)
    else:
        psi = Cochain3(group, random_normalized_table(group, dens[1], 3, rng), dens[1])
    tw = TwistData.scalar_from_sigma(group, sigma)
    report = verify_duality(tw, psi, trials=3, seed=seed, include_multiplier=include_multiplier)
    mode, trials, max_error, witness = per_pair_duality(tw, psi, 3, seed, include_multiplier)
    assert (report.mode, report.trials) == (mode, trials)
    assert mode == ("exhaustive" if group.order <= 8 else "random")
    assert abs(report.max_error - max_error) <= 1e-13 * max(max_error, 1.0)
    assert report.passed == (max_error < 1e-10)
    assert report.passed or not (invariant and include_multiplier)
    if report.passed:
        assert report.max_error == 0.0
    assert report.witness == witness


@pytest.mark.parametrize("include_multiplier", [True, False])
@settings(max_examples=8)
@given(
    factors=factor_lists(max_order=16),
    dens=st.tuples(*[st.sampled_from([2, 12, 2**31 + 11])] * 2),
    seed=st.integers(0, 2**31 - 1),
)
def test_a_shear_invariant_psi_is_decided_by_the_exact_rows(include_multiplier, factors, dens, seed):
    """With phi = delta sigma and a shear-invariant psi, every exact row of a
    scalar twist agrees, so the check forms no pair; without the multiplier
    it runs the float rows. Either way the report, exhaustive for |G| <= 8
    and random above, is the one the float rows give on every pair."""
    group = make_group(factors)
    rng = np.random.default_rng(seed)
    sigma = Cochain2(group, random_normalized_table(group, dens[0], 2, rng), dens[0])
    tw = TwistData.scalar_from_sigma(group, sigma)
    psi = shear_invariant_cochain(group, dens[1], rng)
    exact, answers, floats = exact_and_float_reports(
        verify_duality, tw, psi, trials=3, seed=seed, include_multiplier=include_multiplier
    )
    assert exact == floats
    assert exact["mode"] == ("exhaustive" if group.order <= 8 else "random")
    if include_multiplier:
        assert answers == [True] and exact["passed"] and exact["max_error"] == 0.0


def six_term_rows_agree(rows):
    """The decision the check made before it read psi alone, kept as the
    reference: every row's six-term exact sums E_L and E_R (`exponent_rows`,
    `_exponent_sum`) agree as residues over their lcm, and False past 2^62."""
    for _, left, right in rows.exponent_rows():
        sums = _exponent_sum(left), _exponent_sum(right)
        if None in sums or (den := lcm(sums[0][1], sums[1][1])) > 2**62:
            return False
        scaled = (e if d == den else np.multiply(e, den // d, dtype=np.int64) for e, d in sums)
        if not np.array_equal(*scaled):
            return False
    return True


@settings(max_examples=60)
@given(
    factors=factor_lists(max_order=16),
    d=st.sampled_from([1, 2, 3]),
    dens=st.tuples(*[st.sampled_from([2, 12, 2**31 + 11])] * 2),
    kind=st.sampled_from(["plain", "tricharacter", "shear-invariant"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_psi_only_decision_is_the_six_term_decision(factors, d, dens, kind, seed):
    """On a proven twist (beta from random_g_action on M_d, sigma over
    dens[0], phi = delta sigma), rows_agree with the multiplier, which reads
    psi's sheared rows and slabs alone and forms no psi + phi, equals the
    six-term reference for a plain, tricharacter or shear-invariant psi (over
    dens[1]; a tricharacter mod dens[1], or mod the group's exponent past
    2^31). Without the multiplier it answers False: not decided."""
    group = make_group(factors)
    rng = np.random.default_rng(seed)
    sigma = Cochain2(group, random_normalized_table(group, dens[0], 2, rng), dens[0])
    tw = TwistData(group, d, beta=random_g_action(group, d, rng), sigma=sigma)
    if kind == "plain":
        psi = Cochain3(group, random_normalized_table(group, dens[1], 3, rng), dens[1])
    elif kind == "tricharacter":
        psi = random_tricharacter(group, dens[1] if dens[1] < 2**31 else group.exponent, rng)
    else:
        psi = shear_invariant_cochain(group, dens[1], rng)
    check = _DualityRows(tw, psi, True)
    answer = check.rows_agree()
    assert "sheared" not in vars(check)
    assert answer == six_term_rows_agree(check)
    assert answer or kind != "shear-invariant"
    assert not _DualityRows(tw, psi, False).rows_agree()


def test_exponent_sums_past_the_bound_leave_the_check_to_the_float_rows():
    """A proven twist on Z/2 x Z/2 whose sigma is over 4 (2^31 + 11)
    (`sigma_past_the_bound`), and a plain random psi over 2^31 - 1, which is
    not shear-invariant: each side's exponents need a denominator past 2^62,
    so no row has an exact sum, the float rows multiply each term's phase row
    and the failure is the per-pair definitions' (mode, trials, witness, and
    max_error within 1e-9 relative)."""
    group = make_group([2, 2])
    rng = np.random.default_rng(29)
    tw = TwistData.scalar_from_sigma(group, sigma_past_the_bound(group, rng))
    other = 2**31 - 1
    psi = Cochain3(group, random_normalized_table(group, other, 3, rng), other)
    rows = list(_DualityRows(tw, psi, True).exponent_rows())
    assert len(rows) == 4
    assert all(_exponent_sum(left) is None and _exponent_sum(right) is None for _, left, right in rows)
    exact, answers, floats = exact_and_float_reports(verify_duality, tw, psi)
    assert exact == floats and answers == [False]
    report = verify_duality(tw, psi)
    mode, trials, max_error, witness = per_pair_duality(tw, psi, 100, 0, True)
    assert (report.mode, report.trials, report.witness) == (mode, trials, witness)
    assert mode == "exhaustive" and not report.passed
    assert abs(report.max_error - max_error) <= 1e-9 * max_error


@pytest.mark.parametrize(
    "dens", [(2**62 - 57,) * 3, (256, 1, 128), (255, 5, 3)], ids=["int64-wrap", "uint8", "int16"]
)
def test_exponent_sums_are_exact_in_each_type(dens):
    """_exponent_sum on three broadcast rows of residues near each den, in
    the type a table over it is stored in: past int64 (three terms over
    2^62 - 57 would wrap), in uint8 with a term over 1 (whose scale, 256,
    does not fit uint8) and in int16, against Python integers."""
    rng = np.random.default_rng(len(dens))
    shapes = [(5, 5), (1, 5), (5, 1)]
    rows = [
        rng.integers(max(d - 9, 0), d, size=shape).astype(_storage_dtype(d))
        for d, shape in zip(dens, shapes)
    ]
    total, den = _exponent_sum(list(zip(rows, dens)))
    assert den == lcm(*dens)
    expected = sum(row.astype(object) * (den // d) for row, d in zip(rows, dens)) % den
    assert np.array_equal(total.astype(object), expected)

SHEARED_MODULI = list(range(1, 49)) + [127, 128, 129, 130, 255, 256]


@settings(max_examples=20)
@given(factors=factor_lists(), d=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
def test_products_match_the_definitions_with_a_matrix_multiplier(factors, d, seed):
    """lbs_product, lbs_involution, strictified_product, takai_transform (with
    and without the multiplier) and takai_inverse on a stand-in twist
    (`unproven_twist`: unitary beta with beta_0 = 1 that is not a G-action,
    random sigma, phi = delta sigma) and a random psi, against per-term loops
    that multiply u(x, y) = exp(2 pi i sigma(x, y)) 1_d as a d x d matrix. A
    G-action would hide a beta_t taken for beta_(-t)^*, which conjugates
    alike."""
    group = make_group(factors)
    n, add, sub, neg = group.order, group.add_table, group.sub_table, group.neg_table
    rng = np.random.default_rng(seed)
    beta = random_unitaries(rng, (n,), d)
    beta[0] = np.eye(d)
    sigma = random_sigma(group, rng, den=int(rng.choice([4, 6, 12])))
    psi = random_cochain3(group, rng)
    tw = unproven_twist(group, d, beta, sigma, coboundary2(sigma))
    u = np.exp(2j * np.pi * sigma.table / sigma.den)[..., None, None] * np.eye(d)
    total, den = exponent_sum(psi, tw.phi)
    weight = np.exp(2j * np.pi * total.astype(float) / den)
    vh = np.conj(beta).swapaxes(-1, -2)
    pairs = list(itertools.product(range(n), repeat=2))

    def moved(t, m):  # beta_t[m]
        return beta[t] @ m @ vh[t]

    a, b = CrossedElement.random(tw, rng), CrossedElement.random(tw, rng)
    product = np.zeros_like(a.values)
    for s, t in pairs:  # (a * b)(s) = sum_t a(t) beta_t[b(s - t)] u(t, s - t)
        product[s] += a.values[t] @ moved(t, b.values[sub[s, t]]) @ u[t, sub[s, t]]
    assert_relatively_close(lbs_product(a, b).values, product)
    star = [np.linalg.inv(u[x, neg[x]]) @ moved(x, a.values[neg[x]]).conj().T for x in range(n)]
    assert_relatively_close(lbs_involution(a).values, np.array(star))

    sa, sb = StrictifiedElement.random(tw, rng), StrictifiedElement.random(tw, rng)
    product = np.zeros_like(sa.values)
    for (t, r), x in itertools.product(pairs, range(n)):
        term = sa.values[t, add[r, x]] @ moved(t, sb.values[r, x]) @ u[t, r]
        product[add[t, r], x] += weight[t, r, x] * term
    assert_relatively_close(strictified_product(sa, sb, psi).values, product)
    for include_multiplier in (True, False):
        transform = np.empty_like(sa.values)
        for w, z in pairs:  # beta_w^-1[a(w - z, z) u(w - z, z)]
            m = sa.values[sub[w, z], z] @ (u[sub[w, z], z] if include_multiplier else np.eye(d))
            transform[w, z] = vh[w] @ m @ beta[w]
        got = takai_transform(sa, psi, include_multiplier)
        assert_relatively_close(got.data, transform)
    kernel = TwistedKernel(group, psi, StrictifiedElement.random(tw, rng).values)
    inverse = np.empty_like(kernel.data)
    for t, x in pairs:  # beta_{t+x}[a~(t + x, x)] u(t, x)^-1
        inverse[t, x] = moved(add[t, x], kernel.data[add[t, x], x]) @ np.linalg.inv(u[t, x])
    assert_relatively_close(takai_inverse(kernel, tw).values, inverse)


def tricharacter_reference(tri):
    """tri's n^3 table from its tensor and the coordinates, in Python integers."""
    coords, tensor = tri.group.coords.astype(object), tri.tensor.astype(object)
    table = np.tensordot(coords, tensor, axes=([1], [0]))  # [a, j, k]
    table = np.tensordot(table, coords, axes=([1], [1]))  # [a, k, b]
    table = np.tensordot(table, coords, axes=([1], [1]))  # [a, b, c]
    return table % tri.modulus


def assert_sheared_rows_match(cochain, table):
    rows = list(cochain.sheared_rows())
    assert all(row.dtype.kind == "u" and row.shape == table.shape[1:] for row in rows)
    assert (np.stack(rows).astype(object) == sheared_reference(cochain.group, table)).all()


@st.composite
def tricharacter_groups(draw):
    """(factors, m) with |G| <= 64: factors that share a prime with m where
    any does, so that most forms are nonzero, else any factors."""
    m = draw(st.sampled_from(SHEARED_MODULI))
    options = [f for f in range(2, 33) if gcd(f, m) > 1]
    if not options:
        return draw(factor_lists(max_order=64, max_rank=4)), m
    factors = [draw(st.sampled_from(options))]
    while len(factors) < 4 and draw(st.booleans()):
        room = [f for f in options if prod(factors) * f <= 64]
        if not room:
            break
        factors.append(draw(st.sampled_from(room)))
    return factors, m


def random_tricharacter(group, modulus, rng):
    """Any tensor the factors admit mod `modulus`, alternating or not."""
    periods = [modulus // gcd(modulus, f) for f in group.factors]
    steps = np.array([[[lcm(a, b, c) for c in periods] for b in periods] for a in periods])
    return Tricharacter(group, rng.integers(0, modulus, size=steps.shape) * steps, modulus)


@settings(max_examples=40)
@given(
    drawn=tricharacter_groups(),
    other=st.sampled_from(SHEARED_MODULI),
    seed=st.integers(0, 2**32 - 1),
)
def test_tricharacter_sheared_rows_match_the_definition(drawn, other, seed):
    """Over moduli around the uint8 and uint16 bounds of the rows' type; and
    the exponent rows of two tricharacters, read from their sum as one
    tricharacter, against the Python-integer sum."""
    (factors, modulus), rng = drawn, np.random.default_rng(seed)
    group = make_group(factors)
    tri, second = random_tricharacter(group, modulus, rng), random_tricharacter(group, other, rng)
    table = tricharacter_reference(tri)
    assert_sheared_rows_match(tri, table)
    den = lcm(modulus, other)
    total = table * (den // modulus) + tricharacter_reference(second) * (den // other)
    summed = tri + second
    assert type(summed) is Tricharacter
    assert_exponent_rows_match(summed, den, total % den)
    assert all("table" not in vars(c) for c in (tri, second, summed))


def assert_exponent_rows_match(summed, den, total):
    """The sheared rows (verify_duality) and slabs (strictified_product) of
    `summed`, which may be in lower terms, against `total` over den."""
    assert den % summed.den == 0
    sheared = sheared_reference(summed.group, total)
    for rows, expected in ((summed.sheared_rows(), sheared), (summed.slabs(), total)):
        rows = list(rows)
        assert all(row.dtype.kind in "ui" for row in rows)
        assert (np.stack(rows).astype(object) * (den // summed.den) == expected).all()


@settings(max_examples=40)
@given(
    drawn=tricharacter_groups(),
    other=st.sampled_from(SHEARED_MODULI),
    seed=st.integers(0, 2**32 - 1),
)
def test_sums_and_negations_of_tricharacters_are_tricharacters(drawn, other, seed):
    """a + b, a - b and -a are certified tricharacters in lowest terms, equal
    entry for entry to the same arithmetic on plain copies of the tables."""
    (factors, modulus), rng = drawn, np.random.default_rng(seed)
    group = make_group(factors)
    a, b = random_tricharacter(group, modulus, rng), random_tricharacter(group, other, rng)
    plain_a, plain_b = (Cochain3(group, c.table, c.den) for c in (a, b))
    for got, expected in ((a + b, plain_a + plain_b), (a - b, plain_a - plain_b), (-a, -plain_a)):
        assert type(got) is Tricharacter and got.cocycle_mode == "certificate"
        assert type(expected) is Cochain3
        assert got.den == expected.den and np.array_equal(got.table, expected.table)


def test_tricharacters_past_the_staged_bound_are_summed_row_by_row():
    """On Z/4 a common denominator above 2^63 / 3 is too large for one staged
    build, so psi + phi is the plain table summed slab by slab, exact, and
    swept."""
    group = make_group([4])
    m1, m2 = 4 * (2**30 - 1), 4 * (2**30 + 1)  # coprime but for 4: den = 2^62 - 4
    psi = Tricharacter(group, [[[2**30 - 1]]], m1)  # xyz / 4
    phi = Tricharacter(group, [[[2 * (2**30 + 1)]]], m2)  # xyz / 2
    den = lcm(m1, m2)
    with pytest.raises(CochainError, match="too large"):
        Tricharacter(group, [[[0]]], den)
    a, b = tricharacter_reference(psi) * (den // m1), tricharacter_reference(phi) * (den // m2)
    for summed, total in ((psi + phi, a + b), (psi - phi, a - b)):
        assert type(summed) is Cochain3 and summed.cocycle_mode == "exhaustive"
        assert_exponent_rows_match(summed, den, total % den)
        assert is_cocycle3(summed)


@pytest.mark.parametrize("den", sorted({den for pair in DUALITY_DENS for den in pair}))
@settings(max_examples=10)
@given(factors=factor_lists(max_order=64, max_rank=4), seed=st.integers(0, 2**32 - 1))
def test_plain_sheared_rows_match_the_definition(den, factors, seed):
    group = make_group(factors)
    table = random_normalized_table(group, den, 3, np.random.default_rng(seed))
    assert_sheared_rows_match(Cochain3(group, table, den), table.astype(object))
