"""Twisted kernels: products, the gamma translation action, and its cocycle."""

import itertools

import numpy as np
import pytest

from natorus import (
    Cochain2,
    Cochain3,
    IncompatibleGroupsError,
    TwistedKernel,
    associativity_cocycle,
    associativity_cocycle_sweep,
    check_gamma_relation,
    coboundary2,
    gamma_action,
    gamma_multiplier,
    kernel_product,
    make_group,
    multiplier_combination,
    octonion_associator_tricharacter,
)
from natorus.presets import epsilon_tricharacter_z4


@pytest.fixture(scope="module")
def phi():
    return octonion_associator_tricharacter()


def test_identity_kernel_is_two_sided_unit(phi, rng):
    # phi is alternating, so repeated arguments contribute no phase.
    for block_dim in (1, 2):
        one = TwistedKernel.identity(phi.group, phi, block_dim=block_dim)
        k = TwistedKernel.random(phi.group, phi, rng, block_dim=block_dim)
        assert kernel_product(one, k).isclose(k, tol=1e-12)
        assert kernel_product(k, one).isclose(k, tol=1e-12)


def test_product_matches_direct_sum(phi, rng):
    g = phi.group
    k1 = TwistedKernel.random(g, phi, rng)
    k2 = TwistedKernel.random(g, phi, rng)
    out = kernel_product(k1, k2)
    w = phi.complex_table
    for x in range(g.order):
        for z in range(g.order):
            direct = sum(w[x, y, z] * k1.data[x, y] * k2.data[y, z] for y in range(g.order))
            assert abs(out.data[x, z] - direct) < 1e-12


def test_adjoint_is_involutive_and_antimultiplicative_at_zero_twist(rng):
    g = make_group([2, 2, 2])
    zero = Cochain3.zero(g)
    k1 = TwistedKernel.random(g, zero, rng, block_dim=2)
    k2 = TwistedKernel.random(g, zero, rng, block_dim=2)
    assert k1.adjoint().adjoint().isclose(k1, tol=0)
    lhs = kernel_product(k1, k2).adjoint()
    rhs = kernel_product(k2.adjoint(), k1.adjoint())
    assert lhs.isclose(rhs, tol=1e-12)


def test_gamma_at_identity_is_trivial(phi, rng):
    k = TwistedKernel.random(phi.group, phi, rng)
    assert gamma_action(phi.group.identity, k).isclose(k, tol=0)


def test_gamma_composition_relation(phi, rng):
    g = phi.group
    for _ in range(10):
        k = TwistedKernel.random(g, phi, rng)
        omega, xi = (g.elements[i] for i in rng.choice(g.order, size=2))
        assert check_gamma_relation(phi, omega, xi, k) < 1e-12


def test_gamma_composition_relation_blocked(phi, rng):
    g = phi.group
    k = TwistedKernel.random(g, phi, rng, block_dim=2)
    assert check_gamma_relation(phi, g.elements[3], g.elements[6], k) < 1e-12


def test_gamma_multiplier_entries(phi):
    g = phi.group
    omega, xi = g.elements[1], g.elements[2]
    diag = gamma_multiplier(phi, omega, xi)
    for x in g.elements:
        assert diag[x.index] == phi.value(omega, xi, x).to_complex()


@pytest.mark.parametrize("make_phi", [octonion_associator_tricharacter, epsilon_tricharacter_z4])
def test_associativity_cocycle_equals_cyclic_phi(make_phi, rng):
    phi = make_phi()
    g = phi.group
    for _ in range(20):
        xi, eta, zeta = (g.elements[i] for i in rng.choice(g.order, size=3))
        assert associativity_cocycle(phi, xi, eta, zeta) == phi.value(eta, zeta, xi)


@pytest.mark.parametrize("make_phi", [octonion_associator_tricharacter, epsilon_tricharacter_z4])
def test_associativity_cocycle_sweep_clean(make_phi):
    assert associativity_cocycle_sweep(make_phi()) is None


def test_sweep_flags_corrupted_cochain(phi):
    table = phi.table.copy()
    table[1, 2, 3] = (table[1, 2, 3] + 1) % phi.den
    bad = Cochain3(phi.group, table, phi.den)
    witness = associativity_cocycle_sweep(bad)
    assert witness is not None and len(witness) == 4


def test_kernel_linear_ops(phi, rng):
    g = phi.group
    k1 = TwistedKernel.random(g, phi, rng)
    k2 = TwistedKernel.random(g, phi, rng)
    assert np.allclose((k1 + k2).data, k1.data + k2.data)
    assert np.allclose((k1 - k2).data, k1.data - k2.data)
    assert np.allclose((0.5j * k1).data, 0.5j * k1.data)
    assert (k1 + k2).norm() <= k1.norm() + k2.norm() + 1e-12


def test_kernels_with_different_twists_do_not_mix(rng):
    g = make_group([2, 2, 2])
    k1 = TwistedKernel.random(g, octonion_associator_tricharacter(), rng)
    k2 = TwistedKernel.random(g, Cochain3.zero(g), rng)
    with pytest.raises(IncompatibleGroupsError):
        kernel_product(k1, k2)


def test_multiplier_combination_is_the_product_of_the_four_multipliers(rng):
    """On delta sigma, a cocycle that is no tricharacter, the combination is
    the product u(xi,eta) u(xi+eta,zeta) u(xi,eta+zeta)^-1 gamma_xi[u(eta,zeta)]^-1
    of gamma_multiplier values; on both bundled tricharacters it is exactly
    the constant e(phi(eta, zeta, xi))."""
    g = make_group([2, 3])
    table = rng.integers(0, 8, size=(g.order, g.order))
    table[0, :] = table[:, 0] = 0
    delta = coboundary2(Cochain2(g, table, 8))
    for xi, eta, zeta in itertools.product(g.elements, repeat=3):
        u23 = gamma_multiplier(delta, eta, zeta)[g.sub_table[:, xi.index]]
        expected = gamma_multiplier(delta, xi, eta) * gamma_multiplier(delta, xi + eta, zeta)
        expected *= np.conj(gamma_multiplier(delta, xi, eta + zeta) * u23)
        assert np.allclose(multiplier_combination(delta, xi, eta, zeta), expected, atol=1e-12)
    for phi in (octonion_associator_tricharacter(), epsilon_tricharacter_z4()):
        elements = phi.group.elements
        for _ in range(64):
            xi, eta, zeta = (elements[i] for i in rng.integers(0, len(elements), size=3))
            constant = np.full(len(elements), phi.value(eta, zeta, xi).to_complex())
            assert np.array_equal(multiplier_combination(phi, xi, eta, zeta), constant)
