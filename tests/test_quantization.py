"""Group actions, isotypic gradings, and deformed products."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from natorus import (
    Cochain3,
    ConfigError,
    GAction,
    GradedElement,
    GradingError,
    NotACocycleError,
    Tricharacter,
    associator_table,
    cocycle3_witness,
    deformed_norm,
    deformed_product,
    full_matrix_algebra,
    functions_algebra,
    grading_check,
    is_cocycle3,
    make_group,
    octonion_associator_tricharacter,
    pairing,
    phi_zero_intertwiner,
    represent,
)
from natorus.elements import conjugate
from natorus.presets import m4_conjugation_action


@pytest.fixture(scope="module")
def trans4():
    return GAction.translation(make_group([4]))


@pytest.fixture(scope="module")
def conj4():
    return m4_conjugation_action()


def test_algebra_membership():
    funcs = functions_algebra(3)
    assert funcs.member_defect(np.diag([1.0, 2.0, 3.0])) == 0.0
    assert funcs.member_defect(np.ones((3, 3))) > 0.1
    full = full_matrix_algebra(3)
    assert full.member_defect(np.ones((3, 3))) == 0.0
    assert np.array_equal(funcs.identity, np.eye(3))
    # the commutant: diagonals for functions, scalars for the full algebra
    assert funcs.commutant_defect(np.diag([1.0, 2.0, 3.0])) == 0.0
    assert full.commutant_defect(np.diag([1.0, 2.0, 3.0])) == 1.0
    assert np.array_equal(full.commutant_defect(np.array([2j * np.eye(3), np.ones((3, 3))])), [0, 1])


def test_bundled_actions_validate(trans4, conj4):
    trans4.validate()
    conj4.validate()
    assert grading_check(trans4).passed
    assert grading_check(conj4).passed


def test_action_keeps_a_copy_of_its_unitaries(conj4):
    """Writing to the caller's array after construction leaves the action
    valid, and the caller's view writable."""
    base = conj4.unitaries.copy()
    view = base[:]
    action = GAction(conj4.group, conj4.algebra, view)
    base[1] = 5
    action.validate()
    assert np.array_equal(action.unitaries, conj4.unitaries)
    assert not action.unitaries.flags.writeable and view.flags.writeable


def test_translation_action_permutes_points(trans4):
    g = trans4.group
    f = np.diag([1.0, 2.0, 3.0, 4.0])
    moved = trans4.apply(g.elements[1], f)
    assert np.allclose(np.diag(moved), np.roll(np.diag(f), 1)) or np.allclose(
        np.diag(moved), np.roll(np.diag(f), -1)
    )
    assert np.allclose(trans4.apply(g.identity, f), f)


@pytest.mark.parametrize("factors", [[2], [4], [2, 2], [2, 2, 2], [3, 4], [2, 3, 2]])
def test_translation_equals_its_generator_product(factors):
    # reference: one permutation generator per factor, W_t their product
    g = make_group(factors)
    perms = []
    for axis in range(g.rank):
        gen = g.element([int(i == axis) for i in range(g.rank)])
        perms.append([(x + gen).index for x in g.elements])
    reference = GAction.from_permutation_generators(g, g.order, perms)
    action = GAction.translation(g)
    assert np.array_equal(action.unitaries, reference.unitaries)
    assert action.unitaries.flags.c_contiguous
    assert action == reference


def test_action_is_homomorphism(trans4, conj4, rng):
    for action in (trans4, conj4):
        g = action.group
        m = action.algebra.random_element(rng)
        for _ in range(10):
            s, t = (g.elements[i] for i in rng.choice(g.order, size=2))
            lhs = action.apply(s, action.apply(t, m))
            assert np.allclose(lhs, action.apply(s + t, m), atol=1e-12)


def swapped(action, i, j):
    """The action with its unitaries W_i and W_j exchanged."""
    w = action.unitaries.copy()
    w[[i, j]] = w[[j, i]]
    return GAction(action.group, action.algebra, w)


def test_non_homomorphic_action_fails_grading(conj4):
    broken = swapped(conj4, 2, 3)
    report = grading_check(broken)
    assert not report.passed
    assert report.witness is not None
    with pytest.raises(GradingError):
        broken.validate()


def test_grading_check_holds_no_n6_array():
    """On Z/2^3 acting by translation (n = d = 8) the projected products are
    built one basis element at a time: one call peaks below 6 MiB under
    tracemalloc, where the n^6 complex accumulator alone is 4 MiB and the
    whole call took 18.6 MiB."""
    action = GAction.translation(make_group([2, 2, 2]))
    tracemalloc.start()
    try:
        report = grading_check(action)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and peak < 6 * 2**20


SWAPS = [
    # (action, swapped pair, witness): each witness is the first failing cell
    # in (a, chi, b, eta) order, reported as (chi, a, eta, b)
    (lambda: GAction.translation(make_group([4])), (2, 3), (0, 0, 1, 0)),  # criterion 9
    (m4_conjugation_action, (2, 3), (0, 0, 1, 1)),
    (m4_conjugation_action, (1, 2), (0, 0, 1, 1)),
    # W_3 = W_1^*, so the swap is t -> -t: still an action, and it passes
    (m4_conjugation_action, (1, 3), None),
    (lambda: GAction.translation(make_group([2, 4])), (1, 5), (0, 0, 4, 0)),
    (lambda: GAction.translation(make_group([8])), (3, 6), (0, 0, 1, 0)),
    (lambda: GAction.translation(make_group([3, 3])), (2, 7), (0, 0, 1, 0)),
]
SWAP_IDS = ["z4-2-3", "m4-2-3", "m4-1-2", "m4-1-3", "z2z4-1-5", "z8-3-6", "z3z3-2-7"]


@pytest.mark.parametrize("make, pair, witness", SWAPS, ids=SWAP_IDS)
def test_grading_witness_is_the_first_failing_cell(make, pair, witness):
    """The witness does not depend on summation order: it is the first cell
    whose error exceeds tol, not the cell of largest error."""
    report = grading_check(swapped(make(), *pair))
    assert report.witness == witness and report.passed == (witness is None)


def literal_homomorphism_witness(action, tol=1e-10):
    """The first (s, t) in index order where alpha_s(alpha_t(b)) differs from
    alpha_(s+t)(b) on some basis element b, by conjugating the basis orbit
    once per s, else None."""
    orbit = conjugate(action.unitaries[:, None], action.algebra.basis)  # [t, b]
    add = action.group.add_table
    for s in range(action.group.order):
        err = np.abs(conjugate(action.unitaries[s], orbit) - orbit[add[s]]).max(axis=(1, 2, 3))
        bad = np.nonzero(err > tol)[0]
        if bad.size:
            return s, int(bad[0])
    return None


HOMOMORPHISM_WITNESSES = [(1, 1), (1, 1), (1, 1), None, (1, 2), (1, 2), (1, 1)]


@pytest.mark.parametrize(
    "make, pair, witness",
    [(make, pair, w) for (make, pair, _), w in zip(SWAPS, HOMOMORPHISM_WITNESSES)],
    ids=SWAP_IDS,
)
def test_validate_decides_the_law_as_the_literal_orbit_route(make, pair, witness):
    """validate reads the law off W_s W_t W_(s+t)^* and refuses or accepts
    each swapped action as conjugating the basis orbit does, naming the same
    first failing (s, t)."""
    action = swapped(make(), *pair)
    assert literal_homomorphism_witness(action) == witness
    if witness is None:
        action.validate()
        return
    with pytest.raises(GradingError, match="^action is not a homomorphism: ") as caught:
        action.validate()
    assert caught.value.witness == witness


def literal_grading_errors(action):
    """(max product error, max star error) of grading_check by its definition:
    each P_chi(a) P_eta(b) and each P_chi(b)^* projected through
    isotypic_components onto its expected degree and compared."""
    g = action.group
    add, neg = g.add_table, g.neg_table
    comps = [action.isotypic_components(e) for e in action.algebra.basis]  # [b][chi]
    product = star = 0.0
    for ca, cb in itertools.product(comps, repeat=2):
        for x, y in itertools.product(range(g.order), repeat=2):
            c = ca[x] @ cb[y]
            product = max(product, np.abs(action.isotypic_components(c)[add[x, y]] - c).max())
    for cb in comps:
        for x in range(g.order):
            c = np.conj(cb[x]).T
            star = max(star, np.abs(action.isotypic_components(c)[neg[x]] - c).max())
    return product, star


@pytest.mark.parametrize("broken", [False, True], ids=["action", "swapped"])
@pytest.mark.parametrize("make, pair, witness", SWAPS, ids=SWAP_IDS)
def test_grading_errors_are_the_literal_projections(make, pair, witness, broken):
    action = swapped(make(), *pair) if broken else make()
    report = grading_check(action)
    product, star = literal_grading_errors(action)
    assert abs(report.max_product_error - product) <= 1e-12
    assert abs(report.max_star_error - star) <= 1e-12
    assert report.passed == (max(product, star) <= report.tol)


@pytest.mark.parametrize(
    "tol", [float("nan"), -1, "1e-10", True, float("inf"), pytest.param(10**400, id="10**400")]
)
@pytest.mark.parametrize("check", ["grading_check", "associator_table"])
def test_verifiers_refuse_a_malformed_tol_before_any_work(check, tol):
    # nan used to fail with no witness, -1 to fail a good action, "1e-10" to
    # raise a bare TypeError after the whole check, and inf or 10**400 to pass
    # every float verdict
    action = GAction.translation(make_group([4]))
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    message = f"^tol {re.escape(repr(tol))} must be a finite non-negative number$"
    with pytest.raises(ConfigError, match=message):
        if check == "grading_check":
            grading_check(action, tol=tol)
        else:
            associator_table(action, Cochain3.zero(action.group.dual), rng, tol=tol)
    assert "_basis_orbit" not in vars(action) and rng.bit_generator.state == state


def test_associator_table_refuses_an_rng_that_is_not_a_generator(trans4):
    # an integer seed used to end in AttributeError after the cocycle check
    with pytest.raises(ConfigError, match="^rng 0 is not a numpy Generator$"):
        associator_table(trans4, Cochain3.zero(trans4.group.dual), 0)


def test_isotypic_projections_resolve_identity(trans4, conj4, rng):
    for action in (trans4, conj4):
        m = action.algebra.random_element(rng)
        parts = [action.isotypic_projection(m, chi) for chi in action.group.dual.elements]
        assert np.allclose(sum(parts), m, atol=1e-12)


def test_isotypic_projections_are_idempotent_and_orthogonal(trans4, rng):
    m = trans4.algebra.random_element(rng)
    gh = trans4.group.dual
    for chi in gh.elements:
        p = trans4.isotypic_projection(m, chi)
        assert np.allclose(trans4.isotypic_projection(p, chi), p, atol=1e-12)
        for eta in gh.elements:
            if eta != chi:
                assert np.allclose(trans4.isotypic_projection(p, eta), 0.0, atol=1e-12)


def test_homogeneous_elements_are_action_eigenvectors(conj4, rng):
    g = conj4.group
    for chi in g.dual.elements:
        h = conj4.random_homogeneous(chi, rng)
        for t in g.elements:
            expected = pairing(chi, t).to_complex() * h
            assert np.allclose(conj4.apply(t, h), expected, atol=1e-12)


def test_graded_element_roundtrip(trans4, rng):
    m = trans4.algebra.random_element(rng)
    a = GradedElement.from_matrix(trans4, m)
    assert np.allclose(a.underlying_matrix(), m, atol=1e-12)
    a.validate_grading()


def test_from_blocks_rejects_non_homogeneous(conj4, rng):
    m = conj4.algebra.random_element(rng)
    chi = conj4.group.dual.elements[1]
    with pytest.raises(GradingError):
        GradedElement.from_blocks(conj4, {chi: m})


def test_from_blocks_rejects_bad_shape(conj4):
    chi = conj4.group.dual.elements[0]
    with pytest.raises(GradingError):
        GradedElement.from_blocks(conj4, {chi: np.eye(3)})


def test_from_blocks_takes_one_matrix_per_point(conj4, rng):
    chi = conj4.group.dual.elements[1]
    points = np.array([conj4.random_homogeneous(chi, rng) for _ in range(conj4.group.order)])
    a = GradedElement.from_blocks(conj4, {chi: points})
    assert np.array_equal(a.block(chi), points) and a.degrees() == (chi,)
    with pytest.raises(GradingError, match="not scalar"):
        a.underlying_matrix()
    points[3] = conj4.algebra.random_element(rng)
    with pytest.raises(GradingError, match="not isotypic"):
        GradedElement.from_blocks(conj4, {chi: points})


def test_intertwiner_multiplicative_at_zero_phi(trans4, conj4, rng):
    for action in (trans4, conj4):
        zero = Cochain3.zero(action.group.dual)
        for _ in range(20):
            a = GradedElement.from_matrix(action, action.algebra.random_element(rng))
            b = GradedElement.from_matrix(action, action.algebra.random_element(rng))
            lhs = phi_zero_intertwiner(deformed_product(a, b, zero))
            rhs = phi_zero_intertwiner(a) @ phi_zero_intertwiner(b)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def rho_matrix(group, chi_index):
    """rho(chi) as a permutation matrix, (rho(chi) psi)(eta) = psi(eta + chi)."""
    n = group.order
    rho = np.zeros((n, n))
    rho[np.arange(n), group.add_table[:, chi_index]] = 1.0
    return rho


def dense_blocks(blocks):
    """(n, nm, d, d) point-by-point blocks as dense (n, d, d, nm, nm) blocks,
    each point's matrix on the diagonal of the operator leg."""
    n, nm, d, _ = blocks.shape
    out = np.zeros((n, d, d, nm, nm), dtype=complex)
    points = np.arange(nm)
    out[:, :, :, points, points] = blocks.transpose(0, 2, 3, 1)
    return out


def random_point_blocks(action, rng):
    """Generic (n, nm, d, d) blocks: a different random matrix at every point."""
    n, d = action.group.order, action.dim
    shape = (n, n, d, d)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def shifted_reference(block, group, chi_index):
    """One dense block times 1 (x) rho(chi), as a matrix with row index (i, p)."""
    d, _, nm, _ = block.shape
    rho = rho_matrix(group, chi_index)
    return np.einsum("ijpr,rq->ipjq", block, rho).reshape(d * nm, d * nm)


def represent_reference(a, phi):
    """R(a) = sum_{chi1, chi2} a_chi1 (1 (x) rho(chi1)) (1 (x) u(chi1, chi2)) P_chi2
    on dense blocks, one (d nm)^2 matmul per degree pair."""
    g = a.action.group
    n = g.order
    dense = dense_blocks(a.blocks)
    projs = np.einsum("xt,tip->xip", np.conj(g.character_matrix), a.action.unitaries) / n
    out = 0.0
    for i1 in range(n):
        left = shifted_reference(dense[i1], g, i1)
        for i2 in range(n):
            out = out + left @ np.kron(projs[i2], np.diag(phi.complex_table[:, i1, i2]))
    return out


def test_shifted_blocks_match_the_permutation_matrix(trans4, conj4, rng):
    # A different matrix at every point, so the direction of the shift matters
    # (on Z/4, -chi != chi).
    for action in (trans4, conj4):
        a = GradedElement(action, random_point_blocks(action, rng))
        dense = dense_blocks(a.blocks)
        expected = sum(
            shifted_reference(dense[i], action.group, i) for i in range(action.group.order)
        )
        assert np.allclose(phi_zero_intertwiner(a), expected, rtol=0.0, atol=1e-12)
        assert np.allclose(represent(a), expected, rtol=0.0, atol=1e-10)


def test_zero_phi_product_recovers_matrix_product(trans4, rng):
    zero = Cochain3.zero(trans4.group.dual)
    m1 = trans4.algebra.random_element(rng)
    m2 = trans4.algebra.random_element(rng)
    a = GradedElement.from_matrix(trans4, m1)
    b = GradedElement.from_matrix(trans4, m2)
    prod = deformed_product(a, b, zero)
    assert np.allclose(prod.underlying_matrix(), m1 @ m2, atol=1e-10)


def test_deformed_product_is_bilinear(trans4, rng):
    phi = octonion_associator_tricharacter()
    action = GAction.translation(make_group([2, 2, 2]))
    a = GradedElement.from_matrix(action, action.algebra.random_element(rng))
    b = GradedElement.from_matrix(action, action.algebra.random_element(rng))
    c = GradedElement.from_matrix(action, action.algebra.random_element(rng))
    lhs = deformed_product(a + 2.0 * b, c, phi)
    rhs = deformed_product(a, c, phi) + 2.0 * deformed_product(b, c, phi)
    assert lhs.isclose(rhs, tol=1e-10)


def deformed_product_reference(a, b, phi):
    """The degreewise formula on dense blocks, one degree pair and one einsum
    at a time; returns dense (n, d, d, nm, nm) blocks."""
    g = a.action.group
    a_dense, b_dense = dense_blocks(a.blocks), dense_blocks(b.blocks)
    out = np.zeros_like(a_dense)
    for i1 in range(g.order):
        perm = g.add_table[:, i1]
        for i2 in range(g.order):
            u = phi.complex_table[:, i1, i2]
            moved = b_dense[i2][:, :, perm][:, :, :, perm] * u
            out[g.add_table[i1, i2]] += np.einsum("ikpr,kjrq->ijpq", a_dense[i1], moved)
    return out


def test_deformed_product_matches_reference(conj4, rng):
    phi = Tricharacter(conj4.group.dual, [[[1]]], 4)
    a, b = (GradedElement(conj4, random_point_blocks(conj4, rng)) for _ in range(2))
    a.blocks[1] = 0.0  # an empty degree on the left
    expected = deformed_product_reference(a, b, phi)
    got = dense_blocks(deformed_product(a, b, phi).blocks)
    assert np.allclose(got, expected, atol=1e-12)


def test_deformed_product_rejects_non_cocycle_on_every_call(trans4, rng):
    g = trans4.group.dual
    bad = Cochain3.from_entries(g, [((g.elements[1], g.elements[1], g.elements[1]), "1/2")])
    assert not is_cocycle3(bad)
    witness = cocycle3_witness(bad)
    a = GradedElement.from_matrix(trans4, trans4.algebra.random_element(rng))
    for _ in range(2):  # the second call reads the cached witness
        with pytest.raises(NotACocycleError) as caught:
            deformed_product(a, a, bad)
        assert caught.value.witness == witness
    assert not is_cocycle3(bad) and cocycle3_witness(bad) == witness


def test_represent_rejects_non_cocycle(trans4, rng):
    # The star-action is defined only for a 3-cocycle; both refuse with the witness.
    g = trans4.group.dual
    bad = Cochain3.from_entries(g, [((g.elements[1], g.elements[1], g.elements[1]), "1/2")])
    a = GradedElement.from_matrix(trans4, trans4.algebra.random_element(rng))
    for draw in (represent, deformed_norm):
        with pytest.raises(NotACocycleError) as caught:
            draw(a, bad)
        assert caught.value.witness == cocycle3_witness(bad)


def test_associator_table_zero_phi_is_flat(trans4):
    zero = Cochain3.zero(trans4.group.dual)
    report = associator_table(trans4, zero)
    assert report.passed
    assert report.max_error < 1e-10


def test_associator_table_octonion_phi():
    action = GAction.translation(make_group([2, 2, 2]))
    phi = octonion_associator_tricharacter()
    report = associator_table(action, phi)
    assert report.passed
    assert len(report.entries) == 512
    assert report.max_error < 1e-10


def associator_table_reference(action, phi, rng):
    """(degrees, expected, deviation) per triple, one deformed_product per product."""
    homog = {}
    for chi in action.group.elements:
        h = action.random_homogeneous(chi, rng)
        if np.abs(h).max() > 1e-12:
            homog[chi] = GradedElement.homogeneous(action, chi, h)
    rows = []
    for xi, a in homog.items():
        for eta, b in homog.items():
            ab = deformed_product(a, b, phi)
            for zeta, c in homog.items():
                lhs = deformed_product(a, deformed_product(b, c, phi), phi)
                rhs = deformed_product(ab, c, phi)
                expected = phi.value(xi, eta, zeta)
                dev = (lhs - rhs * expected.to_complex()).norm() / max(rhs.norm(), 1e-30)
                rows.append(((xi.coords, eta.coords, zeta.coords), expected, dev))
    return rows


def _octonion_case():
    return GAction.translation(make_group([2, 2, 2])), octonion_associator_tricharacter()


def _non_symmetric_case():
    # phi = (x0 y0 z0 + 2 x0 y0 z1) / 4, so phi(xi, eta, zeta) != phi(zeta, eta, xi)
    action = GAction.translation(make_group([4, 2]))
    tensor = np.zeros((2, 2, 2), dtype=int)
    tensor[0, 0, 0], tensor[0, 0, 1] = 1, 2
    return action, Tricharacter(action.group.dual, tensor, 4)


def _m4_case():
    action = m4_conjugation_action()
    return action, Tricharacter(action.group.dual, [[[1]]], 4)


def _empty_component_case():
    # Z/2 acting trivially on functions on two points: the odd component is empty
    action = GAction.from_permutation_generators(make_group([2]), 2, [[0, 1]])
    return action, Tricharacter(action.group.dual, [[[1]]], 2)


@pytest.mark.parametrize(
    "case", [_octonion_case, _non_symmetric_case, _m4_case, _empty_component_case]
)
def test_associator_table_matches_per_triple_products(case):
    action, phi = case()
    report = associator_table(action, phi, np.random.default_rng(7))
    expected = associator_table_reference(action, phi, np.random.default_rng(7))
    assert [(e.degrees, e.expected) for e in report.entries] == [row[:2] for row in expected]
    deviations = np.array([e.deviation for e in report.entries])
    assert np.allclose(deviations, [row[2] for row in expected], rtol=0.0, atol=1e-14)
    assert report.max_error == deviations.max() and report.passed
    if case is _non_symmetric_case:
        assert any(e.expected != phi.value(*e.degrees[::-1]) for e in report.entries)
    if case is _empty_component_case:
        assert [e.degrees for e in report.entries] == [((0,), (0,), (0,))]


def test_associator_table_rejects_non_cocycle_before_drawing(trans4):
    g = trans4.group.dual
    bad = Cochain3.from_entries(g, [((g.elements[1], g.elements[1], g.elements[1]), "1/2")])
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(NotACocycleError) as caught:
        associator_table(trans4, bad, rng)
    assert caught.value.witness == cocycle3_witness(bad)
    assert rng.bit_generator.state == state


def test_represent_identity_has_unit_norm(trans4):
    a = GradedElement.from_matrix(trans4, trans4.algebra.identity)
    zero = Cochain3.zero(trans4.group.dual)
    assert abs(deformed_norm(a, zero) - 1.0) < 1e-12
    op = represent(a, zero)
    assert op.shape[0] == op.shape[1]


def test_deformed_norm_is_a_norm(trans4, rng):
    phi = Cochain3.zero(trans4.group.dual)
    a = GradedElement.from_matrix(trans4, trans4.algebra.random_element(rng))
    b = GradedElement.from_matrix(trans4, trans4.algebra.random_element(rng))
    na, nb = deformed_norm(a, phi), deformed_norm(b, phi)
    assert deformed_norm(a + b, phi) <= na + nb + 1e-10
    assert abs(deformed_norm(2.0 * a, phi) - 2.0 * na) < 1e-10


def test_represent_without_phi_places_the_blocks_and_builds_no_cochain(
    trans4, conj4, rng, monkeypatch
):
    zeros = {id(action): Cochain3.zero(action.group.dual) for action in (trans4, conj4)}

    def refuse(*args):
        raise AssertionError("represent(a) built a zero cochain")

    monkeypatch.setattr(Cochain3, "zero", refuse)
    for action in (trans4, conj4):
        for blocks in (
            random_point_blocks(action, rng),
            GradedElement.from_matrix(action, action.algebra.random_element(rng)).blocks,
        ):
            a = GradedElement(action, blocks)
            op = represent(a)
            assert np.array_equal(op, phi_zero_intertwiner(a))
            # the weighted route with explicit zero phi: the same up to rounding
            weighted = represent(a, zeros[id(action)])
            assert np.allclose(op, weighted, rtol=0.0, atol=1e-12)
