"""Bundles of twisted fibers over finite base spaces."""

import re

import numpy as np
import pytest

from natorus import (
    BaseSpace,
    BundleConstructionError,
    Cochain2,
    Cochain3,
    IncompatibleGroupsError,
    TwistData,
    build_nap_bundle,
    extract_sigma,
    make_group,
    nap_condition_check,
    octonion_associator_tricharacter,
    octonion_group,
    octonion_sigma,
)
from natorus.presets import (
    epsilon_tricharacter_z4,
    octonion_bundle,
    pauli_m2_twist,
    shift_bicharacter,
    two_point_bundle,
)
from test_crossed import first_mismatch


def test_base_space_validation():
    assert len(BaseSpace(["p", "q"])) == 2
    assert "p" in BaseSpace(["p"])
    with pytest.raises(BundleConstructionError):
        BaseSpace([])
    with pytest.raises(BundleConstructionError):
        BaseSpace(["p", "p"])


def test_octonion_bundle_fiber_is_the_octonion_algebra():
    bundle = octonion_bundle()
    fiber = bundle.fiber("pt")
    # sigma(pt) = 0, so the fiber twist is exactly the trivializer.
    assert fiber.sigma == octonion_sigma()
    assert not fiber.is_associative()


def test_octonion_bundle_passes_principality_check():
    report = nap_condition_check(octonion_bundle(), trials=20, seed=5)
    assert report.passed
    assert report.max_error < 1e-10


def test_two_point_bundle_fibers_differ():
    bundle = two_point_bundle()
    g = bundle.group
    sp = bundle.fiber("p").sigma
    sq = bundle.fiber("q").sigma
    assert sp != sq
    assert sq - sp == shift_bicharacter(g)


def test_two_point_bundle_passes_principality_check():
    report = nap_condition_check(two_point_bundle(), trials=20, seed=5)
    assert report.passed
    assert set(report.points) == {"p", "q"}


def test_fiberwise_associator_is_phi_independent_of_sigma():
    # Adding a 2-cocycle shifts sigma but never the associator class.
    bundle = two_point_bundle()
    for label in bundle.base:
        fiber = bundle.fiber(label)
        g = bundle.group
        for a, b, c in [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 1, 0), (0, 1, 1), (1, 0, 1))]:
            expected = bundle.phi.value(g.element(a), g.element(b), g.element(c))
            assert fiber.associator_phase(a, b, c) == expected


def test_sections_multiply_pointwise(rng):
    bundle = two_point_bundle()
    n = bundle.group.order
    s1 = {x: rng.normal(size=n) + 1j * rng.normal(size=n) for x in bundle.base}
    s2 = {x: rng.normal(size=n) + 1j * rng.normal(size=n) for x in bundle.base}
    prod = bundle.section_product(bundle.section(s1), bundle.section(s2))
    for x in bundle.base:
        fiber = bundle.fiber(x)
        direct = fiber.multiply(fiber.element(s1[x]), fiber.element(s2[x]))
        assert np.allclose(prod[x].coeffs, direct.coeffs, atol=1e-12)


def test_scalar_functions_act_on_sections(rng):
    bundle = two_point_bundle()
    n = bundle.group.order
    s = bundle.section({x: rng.normal(size=n) for x in bundle.base})
    f = {"p": 2.0, "q": -1j}
    scaled = bundle.c0_action(f, s)
    for x in bundle.base:
        assert np.allclose(scaled[x].coeffs, f[x] * s[x].coeffs)


def test_build_rejects_non_cocycle_sigma():
    g = octonion_group()
    table = np.zeros((8, 8), dtype=np.int64)
    table[1, 1] = 1
    bad = Cochain2(g, table, 4)  # delta of this is nonzero
    with pytest.raises(BundleConstructionError):
        build_nap_bundle(["p"], g, Cochain3.zero(g), {"p": bad})


def test_build_rejects_unknown_base_points():
    g = octonion_group()
    with pytest.raises(BundleConstructionError):
        build_nap_bundle(["p"], g, Cochain3.zero(g), {"r": Cochain2.zero(g)})


def test_build_rejects_mismatched_trivializer():
    g = octonion_group()
    with pytest.raises(BundleConstructionError):
        build_nap_bundle(["p"], g, Cochain3.zero(g), trivializer=octonion_sigma())


def test_build_refuses_untrivializable_phi():
    phi = epsilon_tricharacter_z4()
    with pytest.raises(BundleConstructionError, match="cannot realize the fibers"):
        build_nap_bundle(["p"], phi.group, phi)


def test_unknown_fiber_label_raises():
    bundle = octonion_bundle()
    with pytest.raises(BundleConstructionError):
        bundle.fiber("nowhere")


def test_extract_sigma_recovers_bicharacter_shift():
    g = octonion_group()
    shift = shift_bicharacter(g)
    tw_p = TwistData.scalar_from_sigma(g, octonion_sigma())
    tw_q = TwistData.scalar_from_sigma(g, octonion_sigma() + shift)
    extraction = extract_sigma(tw_q, tw_p)
    assert extraction.passed
    assert np.allclose(extraction.scalar_table, shift.complex_table, atol=1e-12)


def test_extract_sigma_trivial_quotient():
    tw = pauli_m2_twist()
    extraction = extract_sigma(tw, tw)
    assert extraction.passed
    assert np.allclose(extraction.scalar_table, 1.0, atol=1e-14)


def test_extract_sigma_flags_incompatible_multipliers():
    g = octonion_group()
    tw1 = pauli_m2_twist()
    # Same group and dim, but a multiplier that is not a scalar shift of u1.
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u = tw1.u.copy()
    u[3, 5] = q
    tw2 = TwistData(g, dim=2, beta=tw1.beta, u=u, phi=tw1.phi, validate=False)
    extraction = extract_sigma(tw1, tw2)
    assert not extraction.passed
    assert extraction.central_error > 1e-3


def test_extract_sigma_requires_matching_shapes():
    tw1 = pauli_m2_twist()
    tw2 = TwistData.trivial(make_group([4]), dim=2)
    with pytest.raises(IncompatibleGroupsError):
        extract_sigma(tw1, tw2)


def test_a_given_trivializer_is_checked_without_caching_its_coboundary():
    """build_nap_bundle checks delta tau = phi slab by slab: a trivializer
    with no cached coboundary still has none after the build."""
    g = octonion_group()
    phi = octonion_associator_tricharacter(g)
    tau = octonion_sigma(g)
    bundle = build_nap_bundle(("p",), g, phi, {}, trivializer=tau)
    assert bundle.trivializer is tau and "coboundary" not in vars(tau)


def test_a_wrong_trivializer_is_refused_with_its_first_witness():
    g = octonion_group()
    phi = octonion_associator_tricharacter(g)
    table = octonion_sigma(g).table.copy()
    table[3, 5] = (table[3, 5] + 1) % 2
    tau = Cochain2(g, table, 2)
    witness = first_mismatch(tau, phi)
    with pytest.raises(BundleConstructionError, match=re.escape(f"at indices {witness}")):
        build_nap_bundle(("p",), g, phi, {}, trivializer=tau)
    assert "coboundary" not in vars(tau)
