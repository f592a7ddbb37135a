"""Isotypic grading of matrix algebras under a finite abelian action, and the
phi-deformed product on graded elements.

A finite abelian group acts on a unital *-subalgebra A of d x d matrices by
conjugation with unitaries W_t (coordinate permutations enter as permutation
matrices), alpha_t(a) = elements.conjugate(W_t, a), the same conjugation by
which beta acts in `crossed`. Averaging against characters splits every element into isotypic
components a = sum_chi a_chi with alpha_t(a_chi) = exp(2 pi i <chi,t>) a_chi.

A 3-cocycle phi on the dual group deforms the product degreewise:

    (a * b)_chi = sum_{chi1 + chi2 = chi} a_chi1 xi_chi1[b_chi2] u(chi1, chi2)

where each graded block carries an extra operator leg End(l2(Ghat)),
xi_chi1 conjugates that leg by the right regular representation, and u is the
diagonal multiplier built from phi. For phi = 0 the star product is conjugate
to the ordinary one via an explicit intertwiner; for general phi the
associator of homogeneous elements is exactly exp(2 pi i phi(xi, eta, zeta)).

Every constructor gives a diagonal operator leg, and the product keeps it
so: xi_chi1 permutes the leg's rows and columns by one permutation and u
rescales it point by point. So a graded element is stored point by point, one
d x d matrix per degree and per point of l2(Ghat), nm = |Ghat| points, and
only represent and the flat intertwiner, which return the (d nm) x (d nm)
matrix, build one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .cochains import Cochain3, require_cochain, require_cocycle3
from .elements import ArrayElement, conjugate
from .errors import ConfigError, GradingError, require_int, require_tol
from .groups import FiniteAbelianGroup
from .phases import Phase, Report


class MatrixAlgebra:
    """A spanned *-subalgebra of M_d: all diagonal matrices or the full algebra."""

    def __init__(self, kind: str, dim: int):
        if kind not in ("functions", "matrix"):
            raise GradingError(f"unknown algebra kind {kind!r}, use 'functions' or 'matrix'")
        if require_int(dim, "algebra dimension", error=GradingError) < 1:
            raise GradingError(f"algebra dimension must be positive, got {dim}")
        self.kind = kind
        self.dim = dim

    @cached_property
    def basis(self) -> np.ndarray:
        """Spanning set: diagonal units for functions, matrix units for matrix."""
        d = self.dim
        if self.kind == "functions":
            out = np.zeros((d, d, d), dtype=complex)
            out[np.arange(d), np.arange(d), np.arange(d)] = 1.0
        else:
            out = np.zeros((d * d, d, d), dtype=complex)
            idx = np.arange(d * d)
            out[idx, idx // d, idx % d] = 1.0
        out.setflags(write=False)
        return out

    @property
    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def member_defect(self, mat: np.ndarray):
        """Distance from the algebra as max modulus of the discarded entries,
        one per matrix of a stack (the last two axes)."""
        kept = np.eye(self.dim) if self.kind == "functions" else np.ones((self.dim, self.dim))
        return np.max(np.abs(mat) * (1 - kept), axis=(-2, -1))

    def commutant_defect(self, mat: np.ndarray):
        """Distance from the commutant, one per matrix of a stack: from the
        diagonals (member_defect) or the scalars, |m - (tr m / d) 1|."""
        if self.kind == "functions":
            return self.member_defect(mat)
        scalar = np.trace(mat, axis1=-2, axis2=-1)[..., None, None] / self.dim
        return np.max(np.abs(mat - scalar * np.eye(self.dim)), axis=(-2, -1))

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        n = len(self.basis)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return np.tensordot(c, self.basis, axes=1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixAlgebra)
            and self.kind == other.kind
            and self.dim == other.dim
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"MatrixAlgebra(kind={self.kind!r}, dim={self.dim})"


def functions_algebra(npoints: int) -> MatrixAlgebra:
    return MatrixAlgebra("functions", npoints)


def full_matrix_algebra(dim: int) -> MatrixAlgebra:
    return MatrixAlgebra("matrix", dim)


class GAction:
    """An action of G on a matrix algebra by conjugation unitaries W_t."""

    def __init__(self, group: FiniteAbelianGroup, algebra: MatrixAlgebra, unitaries: np.ndarray):
        unitaries = np.array(unitaries, dtype=complex)  # a copy: the caller's array stays theirs
        if unitaries.shape != (group.order, algebra.dim, algebra.dim):
            raise GradingError(
                f"need one {algebra.dim}x{algebra.dim} unitary per group element, "
                f"got shape {unitaries.shape}"
            )
        unitaries.setflags(write=False)
        self.group = group
        self.algebra = algebra
        self.unitaries = unitaries
        self.dim = algebra.dim

    # -------------------------------------------------------- constructors

    @classmethod
    def from_unitary_generators(cls, group, algebra, generators) -> "GAction":
        """W_t = prod_i U_i^{t_i} in factor order."""
        gens = [np.asarray(u, dtype=complex) for u in generators]
        if len(gens) != group.rank:
            raise GradingError(
                f"need one generator unitary per factor, got {len(gens)} for rank {group.rank}"
            )
        for i, u in enumerate(gens):
            if u.shape != (algebra.dim, algebra.dim):
                raise GradingError(
                    f"generator {i} must be {algebra.dim}x{algebra.dim}, got shape {u.shape}",
                    witness=(i,),
                )
        ws = [reduce(np.matmul, map(np.linalg.matrix_power, gens, row)) for row in group.coords]
        return cls(group, algebra, ws)

    @classmethod
    def from_permutation_generators(cls, group, npoints: int, perms) -> "GAction":
        """Generators given as permutations of range(npoints); A = functions."""
        perms = [list(perm) for perm in perms]
        mats = np.zeros((len(perms), npoints, npoints), dtype=complex)
        for m, perm in zip(mats, perms):
            if sorted(perm) != list(range(npoints)):
                raise GradingError(f"not a permutation of range({npoints}): {perm}")
            m[perm, np.arange(npoints)] = 1.0
        return cls.from_unitary_generators(group, functions_algebra(npoints), mats)

    @classmethod
    def translation(cls, group) -> "GAction":
        """G acting on functions-on-G by translation, W_t e_x = e_(x+t); the
        canonical example."""
        n = group.order
        ws = np.zeros((n, n, n), dtype=complex)
        ws[np.arange(n)[:, None], group.add_table.T, np.arange(n)] = 1.0
        return cls(group, functions_algebra(n), ws)

    # ------------------------------------------------------------- action

    def apply(self, t, mat: np.ndarray) -> np.ndarray:
        w = self.unitaries[self.group.element(t).index]
        return conjugate(w, np.asarray(mat, dtype=complex))

    @cached_property
    def _basis_orbit(self) -> np.ndarray:
        """alpha_t(b) for every t and basis element b: shape (|G|, nb, d, d)."""
        return conjugate(self.unitaries[:, None], self.algebra.basis)

    def validate(self, tol: float = 1e-10) -> None:
        """Unitarity, closure, alpha_0 = id and the homomorphism law,
        exhaustively. alpha_s alpha_t = alpha_(s+t) on A iff D(s, t) = W_s W_t
        W_(s+t)^* commutes with A, decided one s at a time, n^2 d^3 work (none
        at dim 1, where conjugations are trivial). A failure names the first
        failing cell in index order, (t, b) or (s, t)."""
        w, add = self.unitaries, self.group.add_table
        adjoints = np.conj(w).swapaxes(-1, -2)
        uerr = np.abs(w @ adjoints - np.eye(self.dim)).max()
        if uerr > tol:
            raise GradingError(f"conjugators are not unitary (defect {uerr:.3e})")
        orbit = self._basis_orbit
        defects = self.algebra.member_defect(orbit)  # [t, b]
        outside = np.argwhere(defects > tol)
        if outside.size:
            t, b = (int(i) for i in outside[0])
            raise GradingError(
                f"action leaves the algebra at t index {t}, basis {b} "
                f"(defect {defects[t, b]:.3e})",
                witness=(t, b),
            )
        id_err = np.max(np.abs(orbit[0] - self.algebra.basis))
        if id_err > tol:
            raise GradingError(f"alpha_0 is not the identity (defect {id_err:.3e})")
        if self.dim == 1:
            return
        for s in range(self.group.order):
            err = self.algebra.commutant_defect(w[s] @ w @ adjoints[add[s]])
            bad = np.nonzero(err > tol)[0]
            if bad.size:
                t = int(bad[0])
                raise GradingError(
                    f"action is not a homomorphism: alpha_s alpha_t != alpha_(s+t) "
                    f"at s index {s}, t index {t} (defect {err[t]:.3e})",
                    witness=(s, t),
                )

    # -------------------------------------------------------- projections

    @cached_property
    def _conj_characters(self) -> np.ndarray:
        """exp(-2 pi i <chi, t>) indexed [chi, t]."""
        return np.conj(self.group.character_matrix)

    def isotypic_components(self, mat: np.ndarray) -> np.ndarray:
        """P_chi(a) = |G|^-1 sum_t exp(-2 pi i <chi,t>) alpha_t(a) for every chi:
        shape (|Ghat|, d, d), indexed by chi."""
        orbit = conjugate(self.unitaries, np.asarray(mat, dtype=complex))
        return np.tensordot(self._conj_characters, orbit, axes=1) / self.group.order

    def isotypic_projection(self, mat: np.ndarray, chi) -> np.ndarray:
        """P_chi(a), one of the isotypic components."""
        return self.isotypic_components(mat)[self.group.element(chi).index]

    def random_homogeneous(self, chi, rng: np.random.Generator) -> np.ndarray:
        """A generic element of A_chi (zero matrix when the component is empty)."""
        return self.isotypic_projection(self.algebra.random_element(rng), chi)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GAction)
            and self.group == other.group
            and self.algebra == other.algebra
            and np.array_equal(self.unitaries, other.unitaries)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"GAction(group={self.group.factors}, algebra={self.algebra.kind}, "
            f"dim={self.dim})"
        )


@dataclass
class GradingReport(Report):
    passed: bool
    max_product_error: float
    max_star_error: float
    tol: float
    witness: tuple | None = None


def grading_check(action: GAction, tol: float = 1e-10) -> GradingReport:
    """Verify A_chi A_eta inside A_(chi+eta) and A_chi* = A_(-chi) on the basis.

    One array, twisted[t, b, chi] = conj(chi(t)) alpha_t(P_chi(e_b)), serves
    both tests. Characters multiply and alpha_t is multiplicative, so
    P_(chi+eta)(P_chi(a) P_eta(b)) is the mean over t of twisted[t, a, chi]
    twisted[t, b, eta], one tensordot per basis element a. alpha_t commutes
    with the adjoint, so P_(-chi)(P_chi(b)*) is the adjoint of P_chi(P_chi(b)),
    the mean over t of twisted[t, b, chi]. A malformed tol is refused before
    any work (`require_tol`). The witness is the first failing cell:
    (chi, a, eta, b) in (a, chi, b, eta) order, else (chi, b) in (b, chi) order.
    """
    require_tol(tol)
    n = action.group.order
    cc = action._conj_characters  # [chi, t]
    comps = np.einsum("xt,tbij->bxij", cc, action._basis_orbit) / n  # P_chi(e_b) at [b, chi]
    nb = comps.shape[0]
    twisted = conjugate(action.unitaries[:, None, None], comps)  # [t, b, chi]
    twisted *= cc.T[:, None, :, None, None]
    diff = np.empty((nb, n, nb, n))  # [a, chi, b, eta]
    for a in range(nb):  # one basis element at a time: no n^6 array
        # P_(chi+eta)(P_chi(a) P_eta(b)) - P_chi(a) P_eta(b) at [chi, i, b, eta, k]
        defect = np.tensordot(twisted[:, a] / n, twisted, axes=([0, 3], [0, 3]))
        defect -= np.tensordot(comps[a], comps, axes=([2], [2]))
        diff[a] = np.abs(defect).max(axis=(1, 4))
    star = np.abs(twisted.mean(axis=0) - comps).max(axis=(2, 3))  # [b, chi]
    max_product_error, max_star_error = float(diff.max()), float(star.max())
    witness = None
    if max_product_error > tol:
        a, x, b, y = (int(i) for i in np.unravel_index(int(np.argmax(diff > tol)), diff.shape))
        witness = (x, a, y, b)
    elif max_star_error > tol:
        b, x = (int(i) for i in np.unravel_index(int(np.argmax(star > tol)), star.shape))
        witness = (x, b)
    passed = max_product_error <= tol and max_star_error <= tol
    return GradingReport(passed, max_product_error, max_star_error, tol, witness)


# ------------------------------------------------------------ graded elements


class GradedElement(ArrayElement):
    """A graded element: one block per character, each in A (x) End(l2(Ghat)).

    The operator legs are diagonal (see the module docstring), so blocks are
    stored point by point, as an array of shape (|Ghat|, nm, d, d) with
    nm = |Ghat|: blocks[chi, p] is the algebra matrix at point p of l2(Ghat).
    """

    __slots__ = ("action", "blocks")
    _field = "blocks"

    def __init__(self, action: GAction, blocks: np.ndarray):
        n, d = action.group.order, action.dim
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.shape != (n, n, d, d):
            raise GradingError(f"blocks must have shape {(n, n, d, d)}, got {blocks.shape}")
        self.action = action
        self.blocks = blocks

    # -------------------------------------------------------- constructors

    @classmethod
    def from_matrix(cls, action: GAction, mat) -> "GradedElement":
        """Isotypically decompose a plain algebra element; operator legs = 1."""
        comps = action.isotypic_components(np.asarray(mat, dtype=complex))
        return cls(action, np.repeat(comps[:, None], action.group.order, axis=1))

    @classmethod
    def from_blocks(
        cls, action: GAction, degree_blocks: dict, validate: bool = True, tol: float = 1e-10
    ) -> "GradedElement":
        """Build from {chi: block}: a (d, d) block gets the identity operator
        leg, an (nm, d, d) block gives one matrix per point."""
        g = action.group
        n = nm = g.order
        d = action.dim
        blocks = np.zeros((n, nm, d, d), dtype=complex)
        for chi, blk in degree_blocks.items():
            i = g.element(chi).index
            blk = np.asarray(blk, dtype=complex)
            if blk.shape not in ((d, d), (nm, d, d)):
                raise GradingError(
                    f"block for degree {chi} must have shape {(d, d)} or "
                    f"{(nm, d, d)}, got {blk.shape}"
                )
            blocks[i] += blk
        el = cls(action, blocks)
        if validate:
            el.validate_grading(tol)
        return el

    @classmethod
    def homogeneous(cls, action: GAction, chi, mat) -> "GradedElement":
        """The degree-chi part of a plain matrix, placed as a single block."""
        comp = action.isotypic_projection(np.asarray(mat, dtype=complex), chi)
        return cls.from_blocks(action, {chi: comp}, validate=False)

    # ------------------------------------------------------------- queries

    def validate_grading(self, tol: float = 1e-10) -> None:
        """Check alpha_t (x) 1 rescales each block by its character, all t."""
        g = self.action.group
        w = self.action.unitaries[:, None]
        chars = g.character_matrix  # [chi, t]
        for i in range(g.order):
            blk = self.blocks[i]
            if not blk.any():
                continue
            moved = conjugate(w, blk)
            expected = chars[i][:, None, None, None] * blk[None]
            err = np.max(np.abs(moved - expected))
            if err > tol:
                raise GradingError(
                    f"block at degree index {i} is not isotypic (defect {err:.3e})",
                    witness=(i,),
                )

    def degrees(self) -> tuple:
        g = self.action.group
        return tuple(
            g.elements[i] for i in range(g.order) if np.abs(self.blocks[i]).max() > 1e-14
        )

    def block(self, chi) -> np.ndarray:
        return self.blocks[self.action.group.element(chi).index]

    def total(self) -> np.ndarray:
        """Sum of all blocks as an (nm, d, d) stack, one matrix per point."""
        return self.blocks.sum(axis=0)

    def underlying_matrix(self, tol: float = 1e-10) -> np.ndarray:
        """Recover the algebra element when every operator leg is scalar."""
        tot = self.total()
        scalar = tot.mean(axis=0)
        if np.max(np.abs(tot - scalar)) > tol:
            raise GradingError("operator legs are not scalar; no underlying matrix")
        return scalar

    # ---------------------------------------------------------- arithmetic

    def _same_space(self, other: "GradedElement") -> bool:
        return self.action == other.action

    def _sibling(self, blocks: np.ndarray) -> "GradedElement":
        return GradedElement(self.action, blocks)

    def __repr__(self) -> str:
        return f"GradedElement(degrees={[g.coords for g in self.degrees()]})"


def _homogeneous_products(
    group: FiniteAbelianGroup,
    wtable: np.ndarray,
    left: np.ndarray,
    i1: int,
    rights: np.ndarray,
    i2: np.ndarray,
) -> np.ndarray:
    """left xi_chi1[rights[k]] u(chi1, chi2[k]) for every k, as a (k, nm, d, d) stack.

    `left` is one degree-chi1 block (chi1 at index i1) and `rights` a stack of
    blocks of degrees chi2[k] (indices i2), all stored point by point.
    xi_chi1 moves the matrix at point sigma(p) = p + chi1 to p, and
    u(chi1, chi2) scales point p by wtable[p, chi1, chi2] = exp(2 pi i
    phi(p, chi1, chi2)). So the product at p is left[p] rights[k][sigma(p)]
    wtable[p, chi1, chi2[k]], and one batched d x d matmul serves the stack.
    """
    sigma = group.add_table[:, i1]
    u = wtable[:, i1, np.asarray(i2)].T  # [k, p]
    moved = rights[:, sigma]  # the gather copies, so it is scaled in place
    moved *= u[:, :, None, None]
    return left @ moved


def _require_phi_on(group: FiniteAbelianGroup, phi: Cochain3) -> None:
    """phi must be a 3-cocycle on the dual of `group` (same factors)."""
    require_cochain(phi, 3, group)
    require_cocycle3(phi)  # rejects non-cocycle phi before any arithmetic


def deformed_product(a: GradedElement, b: GradedElement, phi: Cochain3) -> GradedElement:
    """(a * b)_chi = sum_{chi1+chi2=chi} a_chi1 xi_chi1[b_chi2] u(chi1, chi2).

    phi must be a 3-cocycle; the O(n^4) check runs once per cochain and is
    cached on it, so repeated products with one phi do not repeat it. Each
    nonzero degree chi1 of a is one _homogeneous_products call against the
    stack of b's nonzero blocks: a gather, a scale and a batched matmul of
    d x d matrices, n nm d^3 work per call.
    """
    a._check(b)
    g = a.action.group
    _require_phi_on(g, phi)
    add = g.add_table
    out = np.zeros_like(a.blocks)
    wtable = phi.complex_table
    nonzero_a = [i for i in range(g.order) if a.blocks[i].any()]
    nonzero_b = np.array([i for i in range(g.order) if b.blocks[i].any()], dtype=np.int64)
    rights = b.blocks[nonzero_b]
    for i1 in nonzero_a:
        out[add[i1, nonzero_b]] += _homogeneous_products(
            g, wtable, a.blocks[i1], i1, rights, nonzero_b
        )
    return GradedElement(a.action, out)


def phi_zero_intertwiner(a: GradedElement) -> np.ndarray:
    """Phi(a) = sum_chi a_chi (1 (x) rho(chi)) as a matrix on the full space,
    which is represent(a).

    For phi = 0 this intertwines the deformed product with the ordinary one:
    Phi(a * b) = Phi(a) Phi(b).
    """
    return represent(a)


def represent(a: GradedElement, phi: Cochain3 | None = None) -> np.ndarray:
    """The star-action of a on graded vectors of H1 (x) l2(Ghat), as a
    (d nm) x (d nm) matrix with row index (i, p).

    R(a) = sum_{chi1, chi2} a_chi1 (1 (x) rho(chi1)) (1 (x) u(chi1, chi2)) P_chi2
    with P_chi the spectral projections of t -> W_t (x) 1. The sum over
    chi2 folds into one matrix per point, M_chi1(alpha) = sum_chi2
    u(alpha, chi1, chi2) P_chi2, so R(a) places a_chi1[p] M_chi1(sigma(p)) in
    column block sigma(p) = p + chi1 of row block p: n nm d^3 work. phi must
    be a 3-cocycle on the dual group; None means the zero cocycle, for which
    the M's are 1, the blocks are placed as they are and R(a) is the
    intertwiner.
    """
    g = a.action.group
    if phi is not None:
        _require_phi_on(g, phi)
        # spectral projections of the unitary rep on the H1 leg
        projs = np.einsum("xt,tip->xip", np.conj(g.character_matrix), a.action.unitaries) / g.order
        wtable = phi.complex_table
    nm, d = a.blocks.shape[1:3]
    out = np.zeros((d * nm, d * nm), dtype=complex)
    grid = out.reshape(d, nm, d, nm)  # a view: [i, p, j, q]
    points = np.arange(nm)
    for i in range(g.order):
        if a.blocks[i].any():
            sigma = g.add_table[:, i]
            blocks = a.blocks[i]
            if phi is not None:
                blocks = blocks @ np.tensordot(wtable[:, i], projs, axes=1)[sigma]
            grid[:, points, :, sigma] += blocks
    return out


def deformed_norm(a: GradedElement, phi: Cochain3 | None = None) -> float:
    """Operator norm of the representing matrix."""
    return float(np.linalg.norm(represent(a, phi), 2))


@dataclass
class AssociatorEntry:
    degrees: tuple
    expected: Phase
    deviation: float


@dataclass
class AssociatorReport(Report):
    max_error: float
    tol: float
    passed: bool
    entries: list[AssociatorEntry] = field(default_factory=list)


def associator_table(
    action: GAction,
    phi: Cochain3,
    rng: np.random.Generator | None = None,
    tol: float = 1e-10,
) -> AssociatorReport:
    """Measure a_xi * (b_eta * c_zeta) against exp(2 pi i phi) (a_xi * b_eta) * c_zeta.

    Runs over every character triple with generic homogeneous elements, drawn
    from rng in character order; degrees with an empty isotypic component are
    skipped. The k homogeneous elements are stacked point by point as H, one
    (nm, d, d) block each (the drawn matrix at every point, nm = |G|), and
    the product table P[eta, zeta] = H_eta * H_zeta is computed once, k
    kernel calls of k products each. Each (xi, eta) pair is
    then one chunk of k triples: a * (b * c) = H_xi * P[eta, :] and
    (a * b) * c = P[xi, eta] * H_: are two _homogeneous_products calls, and
    the relative Frobenius deviations come from those two stacks. Only P
    (k^2 nm d^2 entries) and one chunk's stacks are held at a time, so memory
    does not grow with the k^3 triples. A malformed tol (`require_tol`) and
    an rng that is not a numpy Generator are refused before any work.
    """
    require_tol(tol)
    if rng is None:
        rng = np.random.default_rng(0)
    if not isinstance(rng, np.random.Generator):
        raise ConfigError(f"rng {rng!r} is not a numpy Generator")
    g = action.group
    _require_phi_on(g, phi)
    nm = g.order
    drawn = np.array([action.random_homogeneous(chi, rng) for chi in g.elements])
    degrees = np.nonzero(np.abs(drawn).max(axis=(1, 2)) > 1e-12)[0]
    k, d = degrees.size, action.dim
    # each homogeneous block carries the identity on its operator leg
    ops = np.broadcast_to(drawn[degrees][:, None], (k, nm, d, d))
    add = g.add_table
    wtable = phi.complex_table

    def products(left, i1, rights, i2):
        return _homogeneous_products(g, wtable, left, i1, rights, i2)

    table = np.empty((k, k, nm, d, d), dtype=complex)  # P[eta, zeta]
    for e, eta in enumerate(degrees):
        table[e] = products(ops[e], eta, ops, degrees)
    coords = [g.elements[i].coords for i in degrees]
    entries = []
    for x, xi in enumerate(degrees):
        for e, eta in enumerate(degrees):
            lhs = products(ops[x], xi, table[e], add[eta, degrees])
            rhs = products(table[x, e], add[xi, eta], ops, degrees)
            expected = [Phase(int(phi.table[xi, eta, zeta]), phi.den) for zeta in degrees]
            scale = wtable[xi, eta, degrees][:, None, None, None]  # e(phi(xi, eta, zeta))
            dev = np.linalg.norm((lhs - rhs * scale).reshape(k, -1), axis=1)
            dev /= np.maximum(np.linalg.norm(rhs.reshape(k, -1), axis=1), 1e-30)
            entries.extend(
                AssociatorEntry((coords[x], coords[e], coords[z]), expected[z], float(dev[z]))
                for z in range(k)
            )
    max_error = max((e.deviation for e in entries), default=0.0)
    return AssociatorReport(max_error, tol, max_error <= tol, entries)
