"""Twisted kernels: products, the gamma translation action, and its cocycle."""

import itertools

import numpy as np
import pytest

from natorus import (
    Cochain2,
    Cochain3,
    CochainError,
    IncompatibleGroupsError,
    TwistedKernel,
    associativity_cocycle_sweep,
    check_gamma_relation,
    coboundary2,
    gamma_action,
    gamma_multiplier,
    kernel_product,
    make_group,
    octonion_associator_tricharacter,
)
from natorus.cochains import _sweep, exp_phases
from natorus.kernels import _combination_defect_chunk
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
def test_associativity_cocycle_sweep_clean(make_phi):
    assert associativity_cocycle_sweep(make_phi()) is None


def test_sweep_flags_corrupted_cochain(phi):
    table = phi.table.copy()
    table[1, 2, 3] = (table[1, 2, 3] + 1) % phi.den
    bad = Cochain3(phi.group, table, phi.den)
    witness = associativity_cocycle_sweep(bad)
    assert witness is not None and len(witness) == 4


def _zero_kernel():
    g = make_group([2, 2])
    return TwistedKernel(g, Cochain3.zero(g), np.zeros((g.order, g.order)))


@pytest.mark.parametrize(
    "call",
    [
        associativity_cocycle_sweep,
        lambda phi: gamma_multiplier(phi, (0, 0), (0, 0)),
        lambda phi: check_gamma_relation(phi, (0, 0), (0, 0), _zero_kernel()),
        lambda phi: TwistedKernel(make_group([2, 2]), phi, np.zeros((4, 4))),
    ],
    ids=["associativity_cocycle_sweep", "gamma_multiplier", "check_gamma_relation",
         "TwistedKernel"],
)
@pytest.mark.parametrize("not_phi", [Cochain2.zero(make_group([2, 2])), "phi", None],
                         ids=["2-cochain", "string", "None"])
def test_kernel_cocycle_functions_refuse_what_is_not_a_3_cochain(call, not_phi):
    with pytest.raises(CochainError, match="^phi must be a 3-cochain"):
        call(not_phi)


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


def test_the_combination_sweep_is_the_product_of_the_four_multipliers(rng):
    """On delta sigma, a cocycle that is no tricharacter, each chunk of the
    associativity sweep plus phi(eta, zeta, xi) is the exponent of the product
    u(xi,eta) u(xi+eta,zeta) u(xi,eta+zeta)^-1 gamma_xi[u(eta,zeta)]^-1 of
    gamma_multiplier values; plain copies of both bundled tricharacters,
    which the sweep does not certify from a tensor, sweep clean: the
    combination is exactly the constant e(phi(eta, zeta, xi))."""
    g = make_group([2, 3])
    table = rng.integers(0, 8, size=(g.order, g.order))
    table[0, :] = table[:, 0] = 0
    delta = coboundary2(Cochain2(g, table, 8))
    for xi, chunk in zip(g.elements, _sweep(delta, _combination_defect_chunk)):
        exponent = (chunk.astype(np.int64) + delta.table[:, :, xi.index, None]) % delta.den
        combination = exp_phases(exponent, delta.den)
        for eta, zeta in itertools.product(g.elements, repeat=2):
            u23 = gamma_multiplier(delta, eta, zeta)[g.sub_table[:, xi.index]]
            expected = gamma_multiplier(delta, xi, eta) * gamma_multiplier(delta, xi + eta, zeta)
            expected *= np.conj(gamma_multiplier(delta, xi, eta + zeta) * u23)
            assert np.allclose(combination[eta.index, zeta.index], expected, atol=1e-12)
    for phi in (octonion_associator_tricharacter(), epsilon_tricharacter_z4()):
        assert associativity_cocycle_sweep(Cochain3(phi.group, phi.table, phi.den)) is None
