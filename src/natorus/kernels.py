"""Twisted matrix algebras: kernels on G x G with a tricharacter twist.

For a 3-cocycle phi the twisted product of kernels is
    (K1 * K2)(x, z) = sum_y exp(2 pi i phi(x, y, z)) K1(x, y) K2(y, z),
which is nonassociative for nonzero phi. Kernels are B-valued with B a matrix
block, stored with shape (n, n, d, d); scalar kernels have d = 1.

The translation twist
    gamma_xi[K](eta, zeta) = exp(-2 pi i phi(xi, eta, zeta)) K(eta - xi, zeta - xi)
multiplies the twisted product. For an alternating tricharacter, composing
two of them differs from the sum translation by conjugation with an explicit
diagonal multiplier u; `check_gamma_relation` measures that deviation in
floats. For every tricharacter, alternating or not, u fails the 2-cocycle
identity by exactly the constant phi itself; `associativity_cocycle_sweep`
decides that in exact integer arithmetic.
"""

from __future__ import annotations

import numpy as np

from .cochains import Cochain3, Tricharacter, _sweep_witness, _window_sum, require_cochain
from .elements import ArrayElement
from .errors import CochainError
from .groups import FiniteAbelianGroup
from .phases import exp_phases


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
    require_cochain(phi, 3)
    g = phi.group
    io = g.element(omega).index
    ix = g.element(xi).index
    return exp_phases(phi.table[io, ix], phi.den)


def check_gamma_relation(phi: Cochain3, omega, xi, kernel: TwistedKernel) -> float:
    """Max deviation of gamma_omega(gamma_xi K) from ad(u(omega,xi)) gamma_{omega+xi} K."""
    require_cochain(phi, 3, kernel.group)
    g = phi.group
    lhs = gamma_action(omega, gamma_action(xi, kernel)).data
    shifted = gamma_action(g.element(omega) + g.element(xi), kernel).data
    u = gamma_multiplier(phi, omega, xi)
    rhs = u[:, None, None, None] * shifted * np.conj(u)[None, :, None, None]
    return float(np.max(np.abs(lhs - rhs)))


# ------------------------------------------------ associativity cocycle


def _combination_defect_chunk(
    tt: np.ndarray, group: FiniteAbelianGroup, xis: slice, out, scratch
) -> np.ndarray:
    """Exponent of the multiplier combination
        u(xi,eta) u(xi+eta,zeta) u(xi,eta+zeta)^-1 gamma_xi[u(eta,zeta)]^-1
    minus phi(eta,zeta,xi), indexed [xi, eta, zeta, x], with gamma_xi acting on
    a diagonal by translation.

    With u(xi, eta)(x) = exp(2 pi i t[xi, eta, x]) the combination exponent is
        t[xi, eta, x] + t[xi+eta, zeta, x] - t[xi, eta+zeta, x] - t[eta, zeta, x-xi].
    A `cochains._sweep` block for xi in xis over tt, the table transposed to
    [x, eta, zeta], built in place in `out` laid out [x, xi, eta, zeta], with
    `scratch` for the gathers, and returned as the [xi, eta, zeta, x] view. In
    that layout every term is a gather of whole slabs or rows, the sum slot
    eta + zeta a window at a time (`cochains._window_sum`).
    """
    add, sub, n = group.add_table, group.sub_table, group.order
    out, scratch = (a.reshape(n, -1, n, n) for a in (out, scratch))
    slab = tt[:, xis]  # t[xi, eta, x] over [x, xi, eta]
    tt.take(add[xis], axis=1, out=out, mode="clip")  # t[xi+eta, zeta, x]; indices in range
    out += slab[..., None]  # t[xi, eta, x]
    out -= _window_sum(slab, group, scratch)  # t[xi, eta+zeta, x]
    out -= tt.take(sub[:, xis], axis=0, out=scratch, mode="clip")  # t[eta, zeta, x-xi]
    out -= tt[xis]  # phi(eta, zeta, xi)
    return out.transpose(1, 2, 3, 0)


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
    swept exhaustively, in blocks of xi so the full fourth-power table is
    never materialized, in exact residue arithmetic in the narrowest safe
    type (see `cochains._sweep`), from xi = 1: at xi = 0 every term cancels
    on a normalized phi. The sweep reads a copy of the table transposed to
    [x, eta, zeta], made once and dropped after, in which each term is a
    gather of whole slabs, rows or windows (`_combination_defect_chunk`).
    """
    require_cochain(phi, 3)
    if isinstance(phi, Tricharacter):
        return None
    return _sweep_witness(phi, _combination_defect_chunk, axes=(2, 0, 1))
