"""Twisted group algebras of finite abelian groups.

C^sigma[G] has basis {e(a) : a in G} and product
    e(a) e(b) = exp(2 pi i sigma(a, b)) e(a + b)
for a normalized 2-cochain sigma. When sigma fails the cocycle identity the
algebra is nonassociative; the associator of basis elements is measured
exactly by the coboundary of sigma:
    e(a)(e(b) e(c)) = exp(2 pi i (delta sigma)(a, b, c)) (e(a) e(b)) e(c).

The octonions arise this way from (Z/2)^3 with a specific mod-2 exponent; the
classical multiplication is reproduced on the nose, which the tests pin
against an independent Cayley table.

Coefficients may carry leading stack axes before the one over G; `multiply`
serves a whole stack in one call, by the code that multiplies one element.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .cochains import Cochain2, Cochain3, Tricharacter, coboundary2, require_cochain
from .elements import ArrayElement
from .errors import CochainError, IncompatibleGroupsError
from .groups import FiniteAbelianGroup, GroupElement
from .phases import Phase


class TwistedGroupAlgebra:
    """The twisted group algebra C^sigma[G]."""

    def __init__(self, group: FiniteAbelianGroup, sigma: Cochain2):
        require_cochain(sigma, 2, group, "sigma")
        self.group = group
        self.sigma = sigma
        self.dim = group.order
        self._weights = sigma.complex_table  # exp(2 pi i sigma)

    # ----------------------------------------------------------- elements

    def element(self, coeffs) -> "TGAElement":
        """An element, or a stack of them: coefficients on the last axis."""
        c = np.asarray(coeffs, dtype=complex)
        if c.shape[-1:] != (self.dim,):
            raise CochainError(f"coefficient vector must have length {self.dim}")
        return TGAElement(self, c)

    def basis_element(self, a) -> "TGAElement":
        c = np.zeros(self.dim, dtype=complex)
        c[self.group.element(a).index] = 1.0
        return TGAElement(self, c)

    @property
    def unit(self) -> "TGAElement":
        return self.basis_element(self.group.identity)

    @cached_property
    def basis(self) -> tuple["TGAElement", ...]:
        return tuple(self.basis_element(g) for g in self.group.elements)

    def random_element(self, rng: np.random.Generator, real: bool = False) -> "TGAElement":
        c = rng.standard_normal(self.dim)
        if not real:
            c = c + 1j * rng.standard_normal(self.dim)
        return TGAElement(self, c)

    # ------------------------------------------------------------ product

    def multiply(self, x: "TGAElement", y: "TGAElement") -> "TGAElement":
        """(x y)_c = sum_a x_a y_(c-a) exp(2 pi i sigma(a, c - a)), summed in
        the order of a, with the stack axes of x and y broadcast."""
        sub = self.group.sub_table.T  # [a, c] -> c - a
        weights = self._weights[np.arange(self.dim)[:, None], sub]
        terms = x.coeffs[..., :, None] * y.coeffs[..., sub] * weights
        return TGAElement(self, terms.sum(axis=-2))

    def associator_phase(self, a, b, c) -> Phase:
        """The exact phase by which e(a)(e(b)e(c)) differs from (e(a)e(b))e(c):
        delta sigma, whose n^3 table sigma builds and caches on first use."""
        return coboundary2(self.sigma).value(a, b, c)

    def is_associative(self) -> bool:
        return coboundary2(self.sigma).is_zero()

    def is_real(self) -> bool:
        """True when every structure constant is +-1: 2 sigma = 0, doubled in
        int64, since the table's own type may wrap."""
        return not (2 * self.sigma.table.astype(np.int64) % self.sigma.den).any()

    # --------------------------------------------------------- left action

    def left_regular_matrix(self, x: "TGAElement") -> np.ndarray:
        """The matrix of left multiplication by x on the basis {e(b)}, one per
        member of a stack: column b is x e(b), one product with the basis."""
        x = TGAElement(self, x.coeffs[..., None, :])
        return self.multiply(x, TGAElement(self, np.eye(self.dim, dtype=complex))).coeffs.mT

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TwistedGroupAlgebra)
            and self.group == other.group
            and self.sigma == other.sigma
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"TwistedGroupAlgebra(group={self.group.factors}, den={self.sigma.den})"


class TGAElement(ArrayElement):
    """An element of a twisted group algebra, a coefficient vector over G."""

    __slots__ = ("algebra", "coeffs")
    _field = "coeffs"
    _ndim = 1

    def __init__(self, algebra: TwistedGroupAlgebra, coeffs: np.ndarray):
        self.algebra = algebra
        self.coeffs = coeffs

    def _same_space(self, other: "TGAElement") -> bool:
        return self.algebra is other.algebra or self.algebra == other.algebra

    def _sibling(self, coeffs: np.ndarray) -> "TGAElement":
        return TGAElement(self.algebra, coeffs)

    def __mul__(self, other):
        if isinstance(other, TGAElement):
            self._check(other)
            return self.algebra.multiply(self, other)
        return super().__mul__(other)

    def star(self) -> "TGAElement":
        """e(a)* = e(a)^{-1} = exp(-2 pi i sigma(a, -a)) e(-a), extended antilinearly:
        one gather on the last axis, conj(x_(-b) e(sigma(-b, b))) at b, stacks included."""
        alg = self.algebra
        neg = alg.group.neg_table
        inv_weight = np.conj(alg._weights[neg, np.arange(alg.dim)])
        return TGAElement(alg, np.conj(self.coeffs[..., neg]) * inv_weight)

    def operator_norm(self) -> float:
        """Norm of left multiplication on the coefficient space, of one element."""
        self._single("operator_norm")
        return float(np.linalg.norm(self.algebra.left_regular_matrix(self), 2))

    def __repr__(self) -> str:
        if self.coeffs.ndim > 1:  # a stack: its members' reprs
            return "[" + ", ".join(repr(self._sibling(c)) for c in self.coeffs) + "]"
        terms = []
        for i, c in enumerate(self.coeffs):
            if abs(c) > 1e-12:
                g = self.algebra.group.elements[i]
                terms.append(f"({c:.4g})e{g.coords}")
        return " + ".join(terms) if terms else "0"


# ------------------------------------------------------------- octonions


def octonion_group() -> FiniteAbelianGroup:
    """(Z/2)^3, the index group of the octonion basis."""
    return FiniteAbelianGroup((2, 2, 2))


def octonion_exponent(a, b) -> int:
    """The mod-2 exponent f with e(a) e(b) = (-1)^{f(a,b)} e(a+b) for octonions.

    f(a, b) = sum_{i <= j} a_i b_j + a_1 a_2 b_3 + a_3 a_1 b_2 + a_2 a_3 b_1
    with 1-based labels; the diagonal terms make every imaginary unit square
    to -1, the cubic terms orient the associator.
    """
    a = tuple(a.coords) if isinstance(a, GroupElement) else tuple(a)
    b = tuple(b.coords) if isinstance(b, GroupElement) else tuple(b)
    quad = sum(a[i] * b[j] for i in range(3) for j in range(3) if i <= j)
    cubic = a[0] * a[1] * b[2] + a[2] * a[0] * b[1] + a[1] * a[2] * b[0]
    return (quad + cubic) % 2


def octonion_sigma(group: FiniteAbelianGroup | None = None) -> Cochain2:
    """The octonion 2-cochain on (Z/2)^3 as an exact half-integer table."""
    if group is None:
        group = FiniteAbelianGroup((2, 2, 2))
    if group.factors != (2, 2, 2):
        raise IncompatibleGroupsError("octonion cochain lives on (Z/2)^3")
    return Cochain2.from_function(group, lambda a, b: Phase(octonion_exponent(a, b), 2))


def octonion_algebra() -> TwistedGroupAlgebra:
    """The octonions as a twisted group algebra over (Z/2)^3."""
    group = FiniteAbelianGroup((2, 2, 2))
    return TwistedGroupAlgebra(group, octonion_sigma(group))


def levi_civita(rank: int = 3) -> np.ndarray:
    """The Levi-Civita tensor on the last three of `rank` coordinates, int64."""
    eps = np.zeros((rank,) * 3, dtype=np.int64)
    for i, j, k in ((-3, -2, -1), (-2, -1, -3), (-1, -3, -2)):
        eps[i, j, k] = 1
        eps[j, i, k] = -1
    return eps


def octonion_associator_tricharacter(group: FiniteAbelianGroup | None = None) -> Cochain3:
    """phi(a,b,c) = (1/2) sum epsilon_ijk a_i b_j c_k, the octonion associator phase."""
    if group is None:
        group = FiniteAbelianGroup((2, 2, 2))
    return Tricharacter(group, levi_civita(), modulus=2)


def cross_form(a, b, c) -> Phase:
    """(1/2) a . (b x c) mod 1, the alternating form behind the associator."""
    a = tuple(a.coords) if isinstance(a, GroupElement) else tuple(a)
    b = tuple(b.coords) if isinstance(b, GroupElement) else tuple(b)
    c = tuple(c.coords) if isinstance(c, GroupElement) else tuple(c)
    triple = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        + a[1] * (b[2] * c[0] - b[0] * c[2])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    return Phase(triple, 2)
