"""Isotypic grading of matrix algebras under a finite abelian action, and the
phi-deformed product on graded elements.

A finite abelian group acts on a unital *-subalgebra A of d x d matrices by
conjugation with unitaries W_t (coordinate permutations enter as permutation
matrices). Averaging against characters splits every element into isotypic
components a = sum_chi a_chi with alpha_t(a_chi) = exp(2 pi i <chi,t>) a_chi.

A 3-cocycle phi on the dual group deforms the product degreewise:

    (a * b)_chi = sum_{chi1 + chi2 = chi} a_chi1 xi_chi1[b_chi2] u(chi1, chi2)

where each graded block carries an extra operator leg End(l2(Ghat) (x) C^m),
xi_chi1 conjugates that leg by the right regular representation, and u is the
diagonal multiplier built from phi. For phi = 0 the star product is conjugate
to the ordinary one via an explicit intertwiner; for general phi the
associator of homogeneous elements is exactly exp(2 pi i phi(xi, eta, zeta)).

Every constructor gives a diagonal operator leg, and the product keeps it
so: xi_chi1 permutes the leg's rows and columns by one permutation and u
rescales it point by point. So a graded element is stored point by point, one
d x d matrix per degree and per point of l2(Ghat) (x) C^m, and only
represent and the flat intertwiner, which return the (d nm) x (d nm) matrix,
build one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cochains import Cochain3, require_cochain, require_cocycle3
from .elements import ArrayElement
from .errors import GradingError
from .groups import FiniteAbelianGroup
from .phases import Phase, Report


class MatrixAlgebra:
    """A spanned *-subalgebra of M_d: all diagonal matrices or the full algebra."""

    def __init__(self, kind: str, dim: int):
        if kind not in ("functions", "matrix"):
            raise GradingError(f"unknown algebra kind {kind!r}, use 'functions' or 'matrix'")
        if dim < 1:
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

    def member_defect(self, mat: np.ndarray) -> float:
        """Distance from the algebra as max modulus of the discarded entries."""
        if self.kind == "matrix":
            return 0.0
        off = mat - np.diag(np.diag(mat))
        return float(np.max(np.abs(off))) if off.size else 0.0

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
        unitaries = np.asarray(unitaries, dtype=complex)
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
        d = algebra.dim
        powers = []
        for u, n in zip(gens, group.factors):
            p = [np.eye(d, dtype=complex)]
            for _ in range(n - 1):
                p.append(p[-1] @ u)
            powers.append(p)
        ws = np.empty((group.order, d, d), dtype=complex)
        for i, row in enumerate(group.coords):
            w = np.eye(d, dtype=complex)
            for axis, c in enumerate(row):
                w = w @ powers[axis][c]
            ws[i] = w
        return cls(group, algebra, ws)

    @classmethod
    def from_permutation_generators(cls, group, npoints: int, perms) -> "GAction":
        """Generators given as permutations of range(npoints); A = functions."""
        mats = []
        for perm in perms:
            perm = list(perm)
            if sorted(perm) != list(range(npoints)):
                raise GradingError(f"not a permutation of range({npoints}): {perm}")
            m = np.zeros((npoints, npoints), dtype=complex)
            m[perm, np.arange(npoints)] = 1.0
            mats.append(m)
        return cls.from_unitary_generators(group, functions_algebra(npoints), mats)

    @classmethod
    def translation(cls, group) -> "GAction":
        """G acting on functions-on-G by translation; the canonical example."""
        elems = group.elements
        perms = []
        for axis in range(group.rank):
            gen = group.element([1 if i == axis else 0 for i in range(group.rank)])
            perms.append([(g + gen).index for g in elems])
        return cls.from_permutation_generators(group, group.order, perms)

    # ------------------------------------------------------------- action

    def apply(self, t, mat: np.ndarray) -> np.ndarray:
        w = self.unitaries[self.group.element(t).index]
        return w @ mat @ w.conj().T

    @cached_property
    def _basis_orbit(self) -> np.ndarray:
        """alpha_t(b) for every t and basis element b: shape (|G|, nb, d, d)."""
        w = self.unitaries
        return np.einsum("tip,bpq,tjq->tbij", w, self.algebra.basis, np.conj(w))

    def validate(self, tol: float = 1e-10) -> None:
        """Unitarity, closure, and the homomorphism law, exhaustively."""
        w = self.unitaries
        d = self.dim
        eye = np.eye(d)
        uerr = np.max(np.abs(np.einsum("tip,tjp->tij", w, np.conj(w)) - eye[None]))
        if uerr > tol:
            raise GradingError(f"conjugators are not unitary (defect {uerr:.3e})")
        orbit = self._basis_orbit
        for t in range(self.group.order):
            for b in range(orbit.shape[1]):
                defect = self.algebra.member_defect(orbit[t, b])
                if defect > tol:
                    raise GradingError(
                        f"action leaves the algebra at t index {t}, basis {b} "
                        f"(defect {defect:.3e})",
                        witness=(t, b),
                    )
        id_err = np.max(np.abs(orbit[0] - self.algebra.basis))
        if id_err > tol:
            raise GradingError(f"alpha_0 is not the identity (defect {id_err:.3e})")
        add = self.group.add_table
        # alpha_s(alpha_t(b)) vs alpha_{s+t}(b), all pairs
        for s in range(self.group.order):
            ws = w[s]
            lhs = np.einsum("ip,bpq,jq->bij", ws, orbit.reshape(-1, d, d), np.conj(ws))
            lhs = lhs.reshape(self.group.order, -1, d, d)
            rhs = orbit[add[s]]
            err = np.max(np.abs(lhs - rhs), axis=(1, 2, 3))
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

    def isotypic_projection(self, mat: np.ndarray, chi) -> np.ndarray:
        """P_chi(a) = |G|^-1 sum_t exp(-2 pi i <chi,t>) alpha_t(a)."""
        i = self.group.element(chi).index
        w = self.unitaries
        orbit = np.einsum("tip,pq,tjq->tij", w, np.asarray(mat, dtype=complex), np.conj(w))
        return np.tensordot(self._conj_characters[i], orbit, axes=1) / self.group.order

    def isotypic_components(self, mat: np.ndarray) -> np.ndarray:
        """All projections at once: shape (|Ghat|, d, d), indexed by chi."""
        w = self.unitaries
        orbit = np.einsum("tip,pq,tjq->tij", w, np.asarray(mat, dtype=complex), np.conj(w))
        return np.tensordot(self._conj_characters, orbit, axes=1) / self.group.order

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

    Both inclusions are tested literally: project the product (or adjoint)
    onto the expected degree and compare. A non-homomorphic action shows up
    as a located witness (chi, a, eta, b) or (chi, a).
    """
    g = action.group
    n, d = g.order, action.dim
    orbit = action._basis_orbit  # [t, b, i, j]
    nb = orbit.shape[1]
    cc = action._conj_characters
    # components[b, chi] = P_chi(basis_b); translated[t, b, chi] = alpha_t(P_chi(basis_b))
    comps = np.einsum("xt,tbij->bxij", cc, orbit) / n
    w = action.unitaries
    translated = np.einsum("tip,bxpq,tjq->tbxij", w, comps, np.conj(w))
    add = g.add_table
    # projected product acc[a,x,b,y] = P_{x+y}(P_x(a) P_y(b)), accumulated over t
    acc = np.zeros((nb, n, nb, n, d, d), dtype=complex)
    for t in range(n):
        prods = np.einsum("axij,byjk->axbyik", translated[t], translated[t])
        acc += cc[add, t][None, :, None, :, None, None] * prods
    acc /= n
    raw = np.einsum("axij,byjk->axbyik", comps, comps)
    diff = np.abs(acc - raw).max(axis=(4, 5))
    max_product_error = float(diff.max())
    witness = None
    if max_product_error > tol:
        a, x, b, y = np.unravel_index(int(diff.argmax()), diff.shape)
        witness = (int(x), int(a), int(y), int(b))
    # star: P_{-chi}(P_chi(a)^*) vs P_chi(a)^*
    adj = np.conj(comps.transpose(0, 1, 3, 2))
    adj_translated = np.conj(translated.transpose(0, 1, 2, 4, 3))
    neg = g.neg_table
    proj_adj = np.einsum("xt,tbxij->bxij", cc[neg], adj_translated) / n
    star_diff = np.abs(proj_adj - adj).max(axis=(2, 3))
    max_star_error = float(star_diff.max())
    if witness is None and max_star_error > tol:
        b, x = np.unravel_index(int(star_diff.argmax()), star_diff.shape)
        witness = (int(x), int(b))
    passed = max_product_error <= tol and max_star_error <= tol
    return GradingReport(passed, max_product_error, max_star_error, tol, witness)


# ------------------------------------------------------------ graded elements


def _operator_dim(group: FiniteAbelianGroup, multiplicity: int) -> int:
    """nm = |Ghat| * multiplicity, the size of the operator leg; a multiplicity
    below 1 raises GradingError."""
    if multiplicity < 1:
        raise GradingError(f"multiplicity must be at least 1, got {multiplicity}")
    return group.order * multiplicity


class GradedElement(ArrayElement):
    """A graded element: one block per character, each in A (x) End(l2(Ghat) (x) C^m).

    The operator legs are diagonal (see the module docstring), so blocks are
    stored point by point, as an array of shape (|Ghat|, nm, d, d) with
    nm = |Ghat| * multiplicity: blocks[chi, p] is the algebra matrix at
    point p of l2(Ghat) (x) C^m.
    """

    __slots__ = ("action", "multiplicity", "blocks")
    _field = "blocks"

    def __init__(self, action: GAction, multiplicity: int, blocks: np.ndarray):
        n, d = action.group.order, action.dim
        nm = _operator_dim(action.group, multiplicity)
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.shape != (n, nm, d, d):
            raise GradingError(
                f"blocks must have shape {(n, nm, d, d)}, got {blocks.shape}"
            )
        self.action = action
        self.multiplicity = multiplicity
        self.blocks = blocks

    # -------------------------------------------------------- constructors

    @classmethod
    def from_matrix(cls, action: GAction, mat, multiplicity: int = 1) -> "GradedElement":
        """Isotypically decompose a plain algebra element; operator legs = 1."""
        comps = action.isotypic_components(np.asarray(mat, dtype=complex))
        nm = _operator_dim(action.group, multiplicity)
        return cls(action, multiplicity, np.repeat(comps[:, None], nm, axis=1))

    @classmethod
    def from_blocks(
        cls,
        action: GAction,
        degree_blocks: dict,
        multiplicity: int = 1,
        validate: bool = True,
        tol: float = 1e-10,
    ) -> "GradedElement":
        """Build from {chi: block}: a (d, d) block gets the identity operator
        leg, an (nm, d, d) block gives one matrix per point."""
        g = action.group
        n, d = g.order, action.dim
        nm = _operator_dim(g, multiplicity)
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
        el = cls(action, multiplicity, blocks)
        if validate:
            el.validate_grading(tol)
        return el

    @classmethod
    def homogeneous(cls, action: GAction, chi, mat, multiplicity: int = 1) -> "GradedElement":
        """The degree-chi part of a plain matrix, placed as a single block."""
        comp = action.isotypic_projection(np.asarray(mat, dtype=complex), chi)
        return cls.from_blocks(action, {chi: comp}, multiplicity, validate=False)

    # ------------------------------------------------------------- queries

    def validate_grading(self, tol: float = 1e-10) -> None:
        """Check alpha_t (x) 1 rescales each block by its character, all t."""
        g = self.action.group
        w = self.action.unitaries
        chars = g.character_matrix  # [chi, t]
        for i in range(g.order):
            blk = self.blocks[i]
            if not blk.any():
                continue
            moved = np.einsum("tip,rpq,tjq->trij", w, blk, np.conj(w))
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
        return self.action == other.action and self.multiplicity == other.multiplicity

    def _sibling(self, blocks: np.ndarray) -> "GradedElement":
        return GradedElement(self.action, self.multiplicity, blocks)

    def __repr__(self) -> str:
        return (
            f"GradedElement(degrees={[g.coords for g in self.degrees()]}, "
            f"multiplicity={self.multiplicity})"
        )


def _rho_permutation(group: FiniteAbelianGroup, chi_index: int, multiplicity: int) -> np.ndarray:
    """Index permutation sigma with (rho(chi) (x) 1) conjugation = gather at sigma.

    rho(chi) acts by (rho(chi) psi)(eta) = psi(eta + chi); conjugating an
    operator X by rho(chi) (x) 1 gives entries X[sigma(p), sigma(q)] with
    sigma(alpha, u) = (alpha + chi, u).
    """
    base = group.add_table[:, chi_index].astype(np.int64)
    return (base[:, None] * multiplicity + np.arange(multiplicity)[None, :]).ravel()


def _homogeneous_products(
    group: FiniteAbelianGroup,
    multiplicity: int,
    wtable: np.ndarray,
    left: np.ndarray,
    i1: int,
    rights: np.ndarray,
    i2: np.ndarray,
) -> np.ndarray:
    """left xi_chi1[rights[k]] u(chi1, chi2[k]) for every k, as a (k, nm, d, d) stack.

    `left` is one degree-chi1 block (chi1 at index i1) and `rights` a stack of
    blocks of degrees chi2[k] (indices i2), all stored point by point.
    xi_chi1 moves the matrix at point sigma(p) to p, and u(chi1, chi2) scales
    point p, over alpha = p // multiplicity, by wtable[alpha, chi1, chi2] =
    exp(2 pi i phi(alpha, chi1, chi2)). So the product at p is
    left[p] rights[k][sigma(p)] wtable[alpha, chi1, chi2[k]], and one batched
    d x d matmul serves the whole stack.
    """
    sigma = _rho_permutation(group, i1, multiplicity)
    alpha = np.arange(group.order * multiplicity) // multiplicity
    u = wtable[alpha[None, :], i1, np.asarray(i2)[:, None]]  # [k, p]
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
    m = a.multiplicity
    add = g.add_table
    out = np.zeros_like(a.blocks)
    wtable = phi.complex_table
    nonzero_a = [i for i in range(g.order) if a.blocks[i].any()]
    nonzero_b = np.array([i for i in range(g.order) if b.blocks[i].any()], dtype=np.int64)
    rights = b.blocks[nonzero_b]
    for i1 in nonzero_a:
        out[add[i1, nonzero_b]] += _homogeneous_products(
            g, m, wtable, a.blocks[i1], i1, rights, nonzero_b
        )
    return GradedElement(a.action, m, out)


def _shifted_sum(a: GradedElement, point_matrices) -> np.ndarray:
    """sum_chi X_chi (1 (x) rho(chi) (x) 1) over the nonzero degrees of a, as
    one (d nm) x (d nm) matrix with row index (i, p).

    X_chi is diagonal on the operator leg, with point_matrices(i, sigma)[p]
    at point p (chi at index i, sigma its _rho_permutation). Right
    multiplication by rho(chi) (x) 1 puts point p's matrix in column block
    sigma(p), so each degree fills nm disjoint d x d blocks.
    """
    g = a.action.group
    nm, d = a.blocks.shape[1:3]
    out = np.zeros((d * nm, d * nm), dtype=complex)
    grid = out.reshape(d, nm, d, nm)  # a view: [i, p, j, q]
    points = np.arange(nm)
    for i in range(g.order):
        if a.blocks[i].any():
            sigma = _rho_permutation(g, i, a.multiplicity)
            grid[:, points, :, sigma] += point_matrices(i, sigma)
    return out


def phi_zero_intertwiner(a: GradedElement) -> np.ndarray:
    """Phi(a) = sum_chi a_chi (1 (x) rho(chi) (x) 1) as a matrix on the full space.

    For phi = 0 this intertwines the deformed product with the ordinary one:
    Phi(a * b) = Phi(a) Phi(b).
    """
    return _shifted_sum(a, lambda i, sigma: a.blocks[i])


def represent(a: GradedElement, phi: Cochain3 | None = None) -> np.ndarray:
    """The star-action of a on graded vectors of H1 (x) l2(Ghat) (x) C^m.

    R(a) = sum_{chi1, chi2} a_chi1 (1 (x) rho(chi1) (x) 1) (1 (x) u(chi1, chi2) (x) 1) P_chi2
    with P_chi the spectral projections of t -> W_t (x) 1 (x) 1. The sum over
    chi2 folds into one matrix per point, M_chi1(alpha) = sum_chi2
    u(alpha, chi1, chi2) P_chi2, so R(a) places a_chi1[p] M_chi1(sigma(p)) in
    column block sigma(p) of row block p: n nm d^3 work. phi must be a
    3-cocycle on the dual group; None means the zero cocycle, for which R(a)
    is the intertwiner above.
    """
    g = a.action.group
    if phi is None:
        phi = Cochain3.zero(g)
    _require_phi_on(g, phi)
    # spectral projections of the unitary rep on the H1 leg
    projs = np.einsum("xt,tip->xip", np.conj(g.character_matrix), a.action.unitaries) / g.order
    alpha = np.arange(a.blocks.shape[1]) // a.multiplicity
    wtable = phi.complex_table

    def point_matrices(i1, sigma):
        folded = np.tensordot(wtable[:, i1], projs, axes=1)  # [alpha, i, j]
        return a.blocks[i1] @ folded[alpha[sigma]]

    return _shifted_sum(a, point_matrices)


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
    multiplicity: int = 1,
    tol: float = 1e-10,
) -> AssociatorReport:
    """Measure a_xi * (b_eta * c_zeta) against exp(2 pi i phi) (a_xi * b_eta) * c_zeta.

    Runs over every character triple with generic homogeneous elements, drawn
    from rng in character order; degrees with an empty isotypic component are
    skipped. The k homogeneous elements are stacked point by point as H, one
    (nm, d, d) block each (the drawn matrix at every point, nm = |G|
    multiplicity), and the product table P[eta, zeta] = H_eta * H_zeta is
    computed once, k kernel calls of k products each. Each (xi, eta) pair is
    then one chunk of k triples: a * (b * c) = H_xi * P[eta, :] and
    (a * b) * c = P[xi, eta] * H_: are two _homogeneous_products calls, and
    the relative Frobenius deviations come from those two stacks. Only P
    (k^2 nm d^2 entries) and one chunk's stacks are held at a time, so memory
    does not grow with the k^3 triples.
    """
    g = action.group
    _require_phi_on(g, phi)
    nm = _operator_dim(g, multiplicity)
    if rng is None:
        rng = np.random.default_rng(0)
    drawn = np.array([action.random_homogeneous(chi, rng) for chi in g.elements])
    degrees = np.nonzero(np.abs(drawn).max(axis=(1, 2)) > 1e-12)[0]
    k, d = degrees.size, action.dim
    # each homogeneous block carries the identity on its operator leg
    ops = np.broadcast_to(drawn[degrees][:, None], (k, nm, d, d))
    add = g.add_table
    wtable = phi.complex_table

    def products(left, i1, rights, i2):
        return _homogeneous_products(g, multiplicity, wtable, left, i1, rights, i2)

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
            scale = np.array([p.to_complex() for p in expected])
            dev = np.linalg.norm((lhs - rhs * scale[:, None, None, None]).reshape(k, -1), axis=1)
            dev /= np.maximum(np.linalg.norm(rhs.reshape(k, -1), axis=1), 1e-30)
            entries.extend(
                AssociatorEntry((coords[x], coords[e], coords[z]), expected[z], float(dev[z]))
                for z in range(k)
            )
    max_error = max((e.deviation for e in entries), default=0.0)
    return AssociatorReport(max_error, tol, max_error <= tol, entries)
