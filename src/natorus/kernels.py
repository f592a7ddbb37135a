"""Twisted matrix algebras: kernels on G x G with a tricharacter twist.

For a 3-cocycle phi the twisted product of kernels is
    (K1 * K2)(x, z) = sum_y exp(2 pi i phi(x, y, z)) K1(x, y) K2(y, z),
which is nonassociative for nonzero phi. Kernels are B-valued with B a matrix
block, stored with shape (n, n, d, d); scalar kernels have d = 1.

The translation twist
    gamma_xi[K](eta, zeta) = exp(-2 pi i phi(xi, eta, zeta)) K(eta - xi, zeta - xi)
multiplies the twisted product; composing two of them differs from the sum
translation by conjugation with an explicit diagonal multiplier, and the
multiplier fails the 2-cocycle identity by exactly the constant phi itself.
Both facts are checked in exact integer arithmetic here. They require phi to
be alternating and multilinear, not just a cocycle.
"""

from __future__ import annotations

import numpy as np

from .cochains import Cochain3, Tricharacter, _sweep_witness, exp_phases, require_cochain
from .elements import ArrayElement
from .errors import CochainError, NotACocycleError
from .groups import FiniteAbelianGroup
from .phases import Phase


class TwistedKernel(ArrayElement):
    """A kernel on G x G multiplied with a phi-twisted convolution.

    Data has shape (n, n, d, d); scalar (n, n) data is stored with d = 1.
    """

    __slots__ = ("group", "phi", "data")
    _field = "data"

    def __init__(self, group: FiniteAbelianGroup, phi: Cochain3, data):
        require_cochain(phi, 3, group)
        data = np.asarray(data, dtype=complex)
        n = group.order
        if data.shape == (n, n):
            data = data[:, :, None, None]
        if data.ndim != 4 or data.shape[:2] != (n, n) or data.shape[2] != data.shape[3]:
            raise CochainError(
                f"kernel data must have shape ({n}, {n}) or ({n}, {n}, d, d), got {data.shape}"
            )
        self.group = group
        self.phi = phi
        self.data = data

    @property
    def block_dim(self) -> int:
        return self.data.shape[-1]

    # ------------------------------------------------------------ helpers

    @classmethod
    def from_function(cls, group, phi, fn, block_dim: int = 1) -> "TwistedKernel":
        n = group.order
        data = np.empty((n, n, block_dim, block_dim), dtype=complex)
        for i, x in enumerate(group.elements):
            for j, y in enumerate(group.elements):
                data[i, j] = np.asarray(fn(x, y), dtype=complex)
        return cls(group, phi, data)

    @classmethod
    def identity(cls, group, phi, block_dim: int = 1) -> "TwistedKernel":
        n = group.order
        data = np.zeros((n, n, block_dim, block_dim), dtype=complex)
        data[np.arange(n), np.arange(n)] = np.eye(block_dim)
        return cls(group, phi, data)

    @classmethod
    def random(cls, group, phi, rng: np.random.Generator, block_dim: int = 1) -> "TwistedKernel":
        n = group.order
        shape = (n, n, block_dim, block_dim)
        return cls(group, phi, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    def _same_space(self, other: "TwistedKernel") -> bool:
        return (
            self.group == other.group
            and (self.phi is other.phi or self.phi == other.phi)
            and self.block_dim == other.block_dim
        )

    def _sibling(self, data: np.ndarray) -> "TwistedKernel":
        return TwistedKernel(self.group, self.phi, data)

    # ---------------------------------------------------------- operations

    def __mul__(self, other):
        if isinstance(other, TwistedKernel):
            return kernel_product(self, other)
        return super().__mul__(other)

    def adjoint(self) -> "TwistedKernel":
        """K*(x, z) = K(z, x) conjugated (blockwise conjugate transpose)."""
        return self._sibling(np.conj(self.data.transpose(1, 0, 3, 2)))

    def __repr__(self) -> str:
        return (
            f"TwistedKernel(group={self.group.factors}, block={self.block_dim}, "
            f"norm={self.norm():.4g})"
        )


def kernel_product(k1: TwistedKernel, k2: TwistedKernel) -> TwistedKernel:
    """(K1 * K2)(x, z) = sum_y exp(2 pi i phi(x, y, z)) K1(x, y) K2(y, z)."""
    k1._check(k2)
    w = k1.phi.complex_table
    return k1._sibling(np.einsum("xyz,xyab,yzbc->xzac", w, k1.data, k2.data))


def gamma_action(xi, kernel: TwistedKernel) -> TwistedKernel:
    """gamma_xi[K](eta, zeta) = exp(-2 pi i phi(xi, eta, zeta)) K(eta - xi, zeta - xi)."""
    g = kernel.group
    i = g.element(xi).index
    rows = g.sub_table[:, i]
    w = np.conj(exp_phases(kernel.phi.table[i], kernel.phi.den))
    return kernel._sibling(w[:, :, None, None] * kernel.data[np.ix_(rows, rows)])


def gamma_multiplier(phi: Cochain3, omega, xi) -> np.ndarray:
    """The diagonal u(omega, xi) with gamma_omega gamma_xi = ad(u) gamma_{omega+xi}.

    Entries u(omega, xi)(x) = exp(2 pi i phi(omega, xi, x)); the relation
    holds when phi is an alternating tricharacter.
    """
    g = phi.group
    io = g.element(omega).index
    ix = g.element(xi).index
    return exp_phases(phi.table[io, ix], phi.den)


def check_gamma_relation(phi: Cochain3, omega, xi, kernel: TwistedKernel) -> float:
    """Max deviation of gamma_omega(gamma_xi K) from ad(u(omega,xi)) gamma_{omega+xi} K."""
    g = phi.group
    lhs = gamma_action(omega, gamma_action(xi, kernel)).data
    shifted = gamma_action(g.element(omega) + g.element(xi), kernel).data
    u = gamma_multiplier(phi, omega, xi)
    rhs = u[:, None, None, None] * shifted * np.conj(u)[None, :, None, None]
    return float(np.max(np.abs(lhs - rhs)))


# ------------------------------------------------ associativity cocycle


def _combination_exponent(phi: Cochain3, i: int, j: int, k: int) -> np.ndarray:
    """The exact exponent of the multiplier combination at indices (i, j, k)
    over x, reduced mod phi.den:
        phi(xi, eta, x) + phi(xi+eta, zeta, x) - phi(xi, eta+zeta, x) - phi(eta, zeta, x-xi).
    """
    t, add, sub = phi.table, phi.group.add_table, phi.group.sub_table
    return (t[i, j, :] + t[add[i, j], k, :] - t[i, add[j, k], :] - t[j, k, sub[:, i]]) % phi.den


def multiplier_combination(phi: Cochain3, xi, eta, zeta) -> np.ndarray:
    """The pointwise product u(xi,eta) u(xi+eta,zeta) u(xi,eta+zeta)^-1 gamma_xi[u(eta,zeta)]^-1.

    Returned as the complex vector over x, with gamma_xi acting on a diagonal
    multiplier by translation: exp_phases of the exact exponent, so quarter
    turns are exact. For a tricharacter, alternating or not, the vector is
    constant and equal to exp(2 pi i phi(eta, zeta, xi)) (see
    `associativity_cocycle_sweep`): the failure of the multiplier to be a
    2-cocycle is the twist itself.
    """
    g = phi.group
    indices = (g.element(v).index for v in (xi, eta, zeta))
    return exp_phases(_combination_exponent(phi, *indices), phi.den)


def _combination_defect_chunk(t: np.ndarray, group: FiniteAbelianGroup, ix: int) -> np.ndarray:
    """Exponent of the combination minus phi(eta,zeta,xi), indexed [eta, zeta, x].

    With u(xi, eta)(x) = exp(2 pi i t[xi, eta, x]) the combination exponent is
        t[xi, eta, x] + t[xi+eta, zeta, x] - t[xi, eta+zeta, x] - t[eta, zeta, x-xi].
    A `cochains._sweep` chunk for one xi, built in place before reduction.
    """
    add, sub = group.add_table, group.sub_table
    ti = t[ix]
    out = t[add[ix]]  # t[xi+eta, zeta, x]
    out += ti[:, None, :]  # t[xi, eta, x]
    out -= ti[add]  # t[xi, eta+zeta, x]
    out -= t[:, :, sub[:, ix]]  # t[eta, zeta, x-xi]
    out -= t[:, :, ix][:, :, None]  # phi(eta, zeta, xi)
    return out


def associativity_cocycle(phi: Cochain3, xi, eta, zeta) -> Phase:
    """The constant value of the multiplier combination at (xi, eta, zeta).

    Computed exactly over every diagonal entry; raises when the combination
    is not pointwise constant. For a tricharacter the value is
    phi(eta, zeta, xi).
    """
    g = phi.group
    vals = _combination_exponent(phi, *(g.element(v).index for v in (xi, eta, zeta)))
    if not (vals == vals[0]).all():
        raise NotACocycleError(
            "associativity cocycle is not pointwise constant at "
            f"({g.element(xi)}, {g.element(eta)}, {g.element(zeta)})"
        )
    return Phase(int(vals[0]), phi.den)


def associativity_cocycle_sweep(phi: Cochain3):
    """Exact check of the cocycle identity at every (xi, eta, zeta, x).

    Verifies that the combination of multipliers equals exp(2 pi i phi(eta,
    zeta, xi)) pointwise. Returns None on success, else the first failing
    (xi, eta, zeta, x) index tuple.

    A `Tricharacter` t is certified without a sweep: expanding each sum slot
    of the combination exponent by linearity,
        t(xi,eta,x) + t(xi+eta,zeta,x) - t(xi,eta+zeta,x) - t(eta,zeta,x-xi)
          = t(xi,eta,x) + t(xi,zeta,x) + t(eta,zeta,x)
            - t(xi,eta,x) - t(xi,zeta,x) - t(eta,zeta,x) + t(eta,zeta,xi)
          = t(eta,zeta,xi)
    for every x, with no symmetry of the tensor used. Every other cochain is
    swept exhaustively, chunked over xi so the full fourth-power table is
    never materialized, in exact residue arithmetic in the narrowest safe
    type (see `cochains._sweep`).
    """
    if isinstance(phi, Tricharacter):
        return None
    return _sweep_witness(phi, _combination_defect_chunk)
