"""Bundled example configurations.

Everything here is desk-scale data used by the CLI, the verification suite,
and the tests: the octonion algebra over Z/2^3 with its alternating
tricharacter, a matrix-coefficient twist datum built from Pauli conjugations,
the epsilon tricharacter on Z/4^3 together with its vanishing subgroup, Z/4
conjugating M_4 for the quantization checks, and two reference bundles.
"""

from __future__ import annotations

import numpy as np

from .bundles import NAPBundle, build_nap_bundle
from .cochains import (
    Cochain2,
    Tricharacter,
    bicharacter_from_matrix,
    trivializing_cochain,
)
from .crossed import TwistData
from .errors import IncompatibleGroupsError
from .groups import FiniteAbelianGroup, make_group
from .quantization import GAction, full_matrix_algebra
from .twisted_algebra import (
    levi_civita,
    octonion_associator_tricharacter,
    octonion_group,
    octonion_sigma,
)

PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def pauli_conjugators(group: FiniteAbelianGroup) -> np.ndarray:
    """W_(a,b,c) = Z^a X^b Y^c for (a,b,c) in Z/2^3, enumeration order."""
    if group.factors != (2, 2, 2):
        raise IncompatibleGroupsError("Pauli conjugators are defined over Z/2^3")
    w = np.empty((8, 2, 2), dtype=complex)
    for g in group.elements:
        a, b, c = g.coords
        m = np.eye(2, dtype=complex)
        if a:
            m = m @ PAULI_Z
        if b:
            m = m @ PAULI_X
        if c:
            m = m @ PAULI_Y
        w[g.index] = m
    return w


def pauli_m2_twist(shift: Cochain2 | None = None) -> TwistData:
    """Twist datum with B = M_2: beta = Pauli conjugation, sigma the octonion
    2-cochain (so u = exp(2 pi i sigma) 1_B), phi the octonion tricharacter.

    The conjugations compose on the nose (Pauli products are scalar multiples
    of Paulis), so the scalar u satisfies the composition relation for any
    sigma; the cocycle relation then asks that delta sigma = phi. An
    optional bicharacter shift is added to sigma; it is a 2-cocycle, so
    neither relation is disturbed.
    """
    group = octonion_group()
    sigma = octonion_sigma(group)
    if shift is not None:
        sigma = sigma + shift
    phi = octonion_associator_tricharacter(group)
    return TwistData(group, 2, pauli_conjugators(group), sigma, phi)


def shift_bicharacter(group: FiniteAbelianGroup | None = None) -> Cochain2:
    """A nonsymmetric bicharacter on Z/2^3, used as an injected multiplier shift."""
    if group is None:
        group = octonion_group()
    matrix = np.zeros((group.rank, group.rank), dtype=np.int64)
    matrix[0, 1] = 1
    return bicharacter_from_matrix(group, matrix)


def epsilon_tricharacter_z4() -> Tricharacter:
    """The Levi-Civita tensor mod 4 on Z/4^3; alternating but not a coboundary."""
    return Tricharacter(make_group([4, 4, 4]), levi_civita(), modulus=4)


def z4_trivializing_generators() -> tuple:
    """Generators of 2(Z/4^3), where the epsilon tricharacter vanishes."""
    return ((2, 0, 0), (0, 2, 0), (0, 0, 2))


def z4_scalar_twist() -> TwistData:
    """Scalar twist on Z/4^3 whose phi is the alternating half-turn epsilon.

    sigma is the quadratic trivializer of eps mod 2, so phi = delta sigma is
    alternating and the duality identity applies in every psi regime.
    """
    group = make_group([4, 4, 4])
    phi2 = Tricharacter(group, levi_civita(), modulus=2)
    return TwistData.scalar_from_sigma(group, trivializing_cochain(phi2))


def octonion_trivializing_generators() -> tuple:
    """A rank-2 subgroup of Z/2^3; any alternating trilinear form dies there."""
    return ((1, 0, 0), (0, 1, 0))


def m4_conjugation_action() -> GAction:
    """Z/4 acting on M_4 by conjugation with powers of diag(1, i, -1, -i)."""
    group = make_group([4])
    algebra = full_matrix_algebra(4)
    gen = np.diag([1, 1j, -1, -1j]).astype(complex)
    return GAction.from_unitary_generators(group, algebra, [gen])


def octonion_bundle() -> NAPBundle:
    """The octonion algebra as a bundle over a single point.

    The trivializer is the octonion 2-cochain itself, so the fiber's
    structure constants are exactly the octonion basis signs.
    """
    group = octonion_group()
    phi = octonion_associator_tricharacter(group)
    return build_nap_bundle(("pt",), group, phi, {}, trivializer=octonion_sigma(group))


def two_point_bundle() -> NAPBundle:
    """Two fibers over {p, q} sharing phi but with sigma differing by a
    bicharacter; the q-fiber is a genuinely different twisted algebra."""
    group = octonion_group()
    phi = octonion_associator_tricharacter(group)
    sigma = {"q": shift_bicharacter(group)}
    return build_nap_bundle(("p", "q"), group, phi, sigma, trivializer=octonion_sigma(group))
