"""Twisted crossed products, their strictification, and the duality transform.

A twist datum is (B, beta, sigma, phi): a matrix coefficient algebra B = M_d,
per-element conjugators implementing beta: G -> Aut(B), a 2-cochain sigma
giving the scalar unitary multiplier u(x,y) = exp(2 pi i sigma(x,y)) 1_B, and
a 3-cocycle phi, tied together by

    beta_x beta_y = ad(u(x,y)) beta_{x+y}
    exp(2 pi i phi(x,y,z)) u(x,y) u(x+y,z) = beta_x[u(y,z)] u(x,y+z).

beta_x acts on a block b as elements.conjugate(V_x, b) = V_x b V_x^*, the same
conjugation by which the action's W_t acts in `quantization`. A scalar u is
central and fixed by beta, so the first relation says that beta is an action
of G on M_d and the second that phi = delta sigma. TwistData.validate checks
the first as a `quantization.GAction`, in floats, and the second exactly. The
products below scale by u as sigma's (n, n) phase table, one scalar per cell.

Crossed elements are B-valued functions on G with the twisted convolution;
strictified elements carry an extra function leg and multiply with an
additional 3-cocycle weight psi. The transform

    a~(w, z) = beta_w^-1[ a(w - z, z) u(w - z, z) ]

carries the strictified product to the psi-twisted kernel product of block
kernels, which is the duality statement this module exists to check: the
crossed product by the dual action is B tensor twisted compacts.

The check compares both sides in the transform's own coordinates. With
e(x) = exp(2 pi i x), V_t the conjugator implementing beta_t and t = w - y
substituted in the strictified product,

    (a * b)~(w, z) = sum_y V_w^* a(w - y, y) V_{w-y} b(y - z, z) V_{w-y}^* V_w e(E_L),
    (a~ * b~)(w, z) = sum_y V_w^* a(w - y, y) V_w V_y^* b(y - z, z) V_y e(E_R),
    E_L(w, y, z) = (psi + phi)(w - y, y - z, z) + sigma(w - y, y - z) + sigma(w - z, z),
    E_R(w, y, z) = psi(w, y, z) + sigma(w - y, y) + sigma(y - z, z).

Every scalar factor is in an exponent, exact in Q/Z; verify_duality
(_DualityRows) sums each side's integer row E(w, ., .) exactly. The V's
around b(y - z, z) differ (V_{w-y} against V_y), but beta is a G-action
(TwistData.validate), so P = V_{w-y} V_y = c V_w with |c| = 1 and, with
b'(y, z) = V_y^* b(y - z, z) V_y, P b' P^* = V_w b' V_w^*. Both sides then
share the factor (V_w^* a(w - y, y) V_w) b'(y, z), and row w of the defect
is one weighted sum of it by e(E_L) - e(E_R), zero bit for bit where the
rows agree; at d = 1 the conjugations are the identity.
strictified_product and takai_transform compute by the definitions, the
route the tests compare against, and share only _row_phases and the
twist's own tables with the check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial, reduce
from math import lcm

import numpy as np

from .cochains import (
    _QUARTER_DIFFERENCES,
    Cochain2,
    Cochain3,
    Tricharacter,
    _coboundary2_mismatch,
    _lowest_terms,
    _reduce,
    _stored,
    _sweep_dtype,
    coboundary2,
    require_cochain,
)
from .elements import ArrayElement, conjugate
from .errors import ConfigError, GradingError, IncompatibleGroupsError, TwistDataError
from .errors import require_int, require_tol
from .groups import FiniteAbelianGroup
from .kernels import TwistedKernel
from .phases import Report, exp_phases
from .quantization import GAction, full_matrix_algebra


class TwistData:
    """Coefficient algebra M_d with compatible (beta, sigma, phi).

    The multiplier is u(x, y) = exp(2 pi i sigma(x, y)) 1_B for a 2-cochain
    sigma (default zero), and phi defaults to delta sigma.
    """

    def __init__(
        self,
        group: FiniteAbelianGroup,
        dim: int = 1,
        beta: np.ndarray | None = None,
        sigma: Cochain2 | None = None,
        phi: Cochain3 | None = None,
        validate: bool = True,
        tol: float = 1e-10,
    ):
        if require_int(dim, "dim", error=TwistDataError) < 1:
            raise TwistDataError(f"dim must be at least 1, got {dim}")
        n = group.order
        if beta is None:
            beta = np.broadcast_to(np.eye(dim), (n, dim, dim))
        beta = np.array(beta, dtype=complex)  # a copy: the caller's array stays theirs
        if beta.shape != (n, dim, dim):
            raise TwistDataError(f"beta must have shape {(n, dim, dim)}, got {beta.shape}")
        if sigma is None:
            sigma = Cochain2.zero(group)
        require_cochain(sigma, 2, group, "sigma")
        if phi is None:
            phi = coboundary2(sigma)
        require_cochain(phi, 3, group, error=TwistDataError)
        beta.setflags(write=False)
        self.group = group
        self.dim = dim
        self.beta = beta
        self.sigma = sigma
        self.phi = phi
        if validate:
            self.validate(tol)

    # -------------------------------------------------------- constructors

    @classmethod
    def scalar_from_sigma(cls, group, sigma: Cochain2, dim: int = 1) -> "TwistData":
        """Trivial beta, u(x,y) = exp(2 pi i sigma(x,y)) 1_B, phi = delta sigma:
        sigma's cached coboundary, so validate needs no sweep for it."""
        return cls(group, dim, sigma=sigma)

    # ----------------------------------------------------------- validation

    def validate(self, tol: float = 1e-10) -> None:
        """Exhaustive check of beta and of both relations.

        A scalar u is central, so the first relation says beta_x beta_y =
        beta_{x+y}: after beta_0 = 1, beta is validated as a `GAction` on M_d
        within tol (unitarity and the homomorphism law, n^2 d^3 work, none at
        d = 1), naming the first failing (x, y) in index order. u is unitary,
        normalized and fixed by beta, so the phase relation is phi = delta
        sigma, checked exactly (`_coboundary2_mismatch`): slab by slab with no
        n^3 array, and at once when phi is sigma's cached coboundary. Its
        failure names the first (x, y, z) in index order.
        """
        if np.max(np.abs(self.beta[0] - np.eye(self.dim))) > tol:
            raise TwistDataError("beta_0 is not the identity")
        try:
            GAction(self.group, full_matrix_algebra(self.dim), self.beta).validate(tol)
        except GradingError as exc:
            raise TwistDataError(f"beta {exc}", witness=exc.witness) from None
        bad = _coboundary2_mismatch(self.sigma, self.phi)
        if bad is not None:
            raise TwistDataError(f"multiplier relation fails at indices {bad}", witness=bad)

    def __repr__(self) -> str:
        return f"TwistData(group={self.group.factors}, dim={self.dim})"


# ------------------------------------------------------------ crossed elements


class _TwistElement(ArrayElement):
    """A B-valued function on `_legs` copies of G over one twist datum."""

    __slots__ = ("twist", "values")
    _field = "values"
    _legs: int

    def __init__(self, twist: TwistData, values):
        shape = self._shape(twist)
        values = np.asarray(values, dtype=complex)
        if values.shape == shape[:-2] and twist.dim == 1:
            values = values[..., None, None]
        if values.shape != shape:
            raise TwistDataError(f"values must have shape {shape}, got {values.shape}")
        self.twist = twist
        self.values = values

    @classmethod
    def _shape(cls, twist: TwistData) -> tuple:
        return (twist.group.order,) * cls._legs + (twist.dim, twist.dim)

    @classmethod
    def random(cls, twist: TwistData, rng: np.random.Generator):
        shape = cls._shape(twist)
        return cls(twist, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    def _same_space(self, other: "_TwistElement") -> bool:
        return self.twist is other.twist or (
            self.twist.group == other.twist.group and self.twist.dim == other.twist.dim
        )

    def _sibling(self, values: np.ndarray):
        return type(self)(self.twist, values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(group={self.twist.group.factors}, dim={self.twist.dim})"


class CrossedElement(_TwistElement):
    """A B-valued function on G, an element of the twisted crossed product."""

    __slots__ = ()
    _legs = 1

    @classmethod
    def delta(cls, twist: TwistData, at, value=None) -> "CrossedElement":
        n, d = twist.group.order, twist.dim
        vals = np.zeros((n, d, d), dtype=complex)
        vals[twist.group.element(at).index] = np.eye(d) if value is None else value
        return cls(twist, vals)

    @classmethod
    def unit(cls, twist: TwistData) -> "CrossedElement":
        return cls.delta(twist, twist.group.identity)

    def __mul__(self, other):
        if isinstance(other, CrossedElement):
            return lbs_product(self, other)
        return super().__mul__(other)


def lbs_product(a: CrossedElement, b: CrossedElement) -> CrossedElement:
    """(a * b)(s) = sum_t a(t) beta_t[b(s - t)] u(t, s - t)."""
    a._check(b)
    tw = a.twist
    g = tw.group
    n = g.order
    sub = g.sub_table
    out = np.zeros_like(a.values)
    for t in range(n):
        moved = conjugate(tw.beta[t], b.values)
        # index s: a(t) moved[s - t] u(t, s - t)
        rt = sub[:, t]
        out += np.einsum("ab,sbc,s->sac", a.values[t], moved[rt], tw.sigma.complex_table[t, rt])
    return CrossedElement(tw, out)


def lbs_involution(a: CrossedElement) -> CrossedElement:
    """a*(x) = u(x, -x)^-1 (beta_x[a(-x)])^H."""
    tw = a.twist
    g = tw.group
    neg = g.neg_table
    moved = conjugate(tw.beta, a.values[neg])
    uinv = np.conj(tw.sigma.complex_table[np.arange(g.order), neg])
    return CrossedElement(tw, np.einsum("x,xcb->xbc", uinv, np.conj(moved)))


def dual_action(xi, a: CrossedElement) -> CrossedElement:
    """(beta-hat_xi a)(t) = exp(2 pi i <xi, t>) a(t)."""
    g = a.twist.group
    row = g.character_matrix[g.element(xi).index]
    return CrossedElement(a.twist, row[:, None, None] * a.values)


# --------------------------------------------------------- strictified algebra


class StrictifiedElement(_TwistElement):
    """A B-valued function on G x G; the second slot is the function leg."""

    __slots__ = ()
    _legs = 2

    @classmethod
    def delta(cls, twist: TwistData, at, x, value=None) -> "StrictifiedElement":
        n, d = twist.group.order, twist.dim
        vals = np.zeros((n, n, d, d), dtype=complex)
        g = twist.group
        vals[g.element(at).index, g.element(x).index] = np.eye(d) if value is None else value
        return cls(twist, vals)


def strictified_product(
    a: StrictifiedElement, b: StrictifiedElement, psi: Cochain3
) -> StrictifiedElement:
    """(a * b)(s, x) = sum_t w(t, s-t, x) a(t, (s-t)+x) beta_t[b(s-t, x)] u(t, s-t)
    with w = exp(2 pi i (psi + phi)); the function leg shifts the first
    factor's argument.
    """
    a._check(b)
    tw = a.twist
    require_cochain(psi, 3, tw.group, "psi")
    total = psi + tw.phi
    add = tw.group.add_table
    phases = tw.sigma.complex_table  # u(t, r) = phases[t, r] 1_B
    out = np.zeros_like(a.values)
    for t, exponent in enumerate(total.slabs()):
        # index [r, x] with r = s - t
        moved = conjugate(tw.beta[t], b.values)
        w_t = _row_phases(exponent, total.den)
        term = np.einsum("rx,rxab,rxbc,r->rxac", w_t, a.values[t][add], moved, phases[t])
        out[add[t]] += term
    return StrictifiedElement(tw, out)


def _row_phases(exponent: np.ndarray, den: int, out: np.ndarray | None = None) -> np.ndarray:
    """exp(2 pi i exponent / den) for one row of exponents, into `out` if given,
    put in lowest terms over the row (`_lowest_terms`) so that quarter turns
    take exact roots; a quarter-turn den is exact as it is and skips the gcd."""
    return exp_phases(*((exponent, den) if 4 % den == 0 else _lowest_terms(exponent, den)), out=out)


def _at(values: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """values(r, s) at cells = r n + s, for value arrays of shape
    (..., n, n, d, d); unlike values[..., r, s, :, :], the result keeps the
    leading axes outermost in memory."""
    n = values.shape[-3]
    flat = values.reshape(values.shape[:-4] + (n * n,) + values.shape[-2:])
    return flat.take(cells, axis=-3)


def _diffs(g: FiniteAbelianGroup) -> np.ndarray:
    """(x - z, z) over [x, z], as flat indices into n x n: the cells the
    transform gathers, a(w - z, z) over [w, z]."""
    return g.sub_table * g.order + np.arange(g.order)


def _takai_values(tw: TwistData, a: np.ndarray, include_multiplier: bool) -> np.ndarray:
    """The duality transform on value arrays of shape (..., n, n, d, d):
    V_w^* a(w - z, z) u(w - z, z) V_w over [w, z], formed in place on the
    gather; include_multiplier=False drops u."""
    cells = _diffs(tw.group)
    out = _at(a, cells)
    if include_multiplier:
        np.multiply(out, tw.sigma.complex_table.take(cells)[:, :, None, None], out=out)
    vh = np.conj(tw.beta[:, None]).swapaxes(-1, -2)  # V_w^*, constant along z
    return conjugate(vh, out, out=out)


def _sum_over_y(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """out[..., z] = sum_y x[..., y] m[..., y, z] on d x d blocks, for x of
    shape (..., n, d, d) and m (..., n, n, d, d), leading axes broadcast:
    one matmul over y and the inner block index."""
    n, d = x.shape[-3], x.shape[-1]
    rows = x.swapaxes(-3, -2).reshape(x.shape[:-3] + (d, n * d))
    cols = m.swapaxes(-3, -2).reshape(m.shape[:-4] + (n * d, n * d))
    out = rows @ cols
    return out.reshape(out.shape[:-1] + (n, d)).swapaxes(-3, -2)


def _exponent_sum(terms: list) -> tuple[np.ndarray, int] | None:
    """(sum of the terms mod den, den) for terms (residues, den_k) that
    broadcast, the first full-size, over den = lcm of the den_k, or None
    past 2^62. It sums in place in the narrowest exact type (`_sweep_dtype`),
    else in int64 reduced after each term: two scaled terms, each below den, fit."""
    den = lcm(*(d for _, d in terms))
    if den > 2**62:
        return None
    wraps = (dtype := _sweep_dtype(den, len(terms))) == object
    dtype = np.dtype(np.int64) if wraps else dtype
    # a scale below den fits the type; a term over 1 is zero and scaled by 0
    rows = (row if d == den else np.multiply(row, den // d % den, dtype=dtype) for row, d in terms)
    total = next(rows).astype(dtype)
    for row in rows:
        np.add(total, row, out=total, dtype=dtype)
        if wraps:
            _reduce(total, den)
    return _reduce(total, den), den


def _phases(terms: list, out: np.ndarray | None = None, summed=None) -> np.ndarray:
    """e(E) for E the exact sum of the terms (`_exponent_sum`, or `summed`), into
    `out` if given; past 2^62, the product of each term's phase row."""
    if (summed := summed or _exponent_sum(terms)) is None:
        return reduce(np.multiply, (_row_phases(*t) for t in terms))
    return _row_phases(*summed, out=out)


def _phase_difference(left: list, right: list, spare: np.ndarray) -> np.ndarray:
    """D = e(E_L) - e(E_R), zero bit for bit where the exact sums agree: one take of
    i^j - i^k for two quarter-turn sums, else e(E_L) less e(E_R) formed in `spare`."""
    summed = _exponent_sum(left), _exponent_sum(right)
    if all(s is not None and 4 % s[1] == 0 for s in summed):  # turns j, k: at 4 j + k
        index = sum(np.multiply(e, k // d, dtype=np.uint8) for (e, d), k in zip(summed, (16, 4)))
        return _QUARTER_DIFFERENCES.take(index)
    phases = _phases(left, summed=summed[0])
    phases -= _phases(right, spare, summed[1])
    return phases


def _weighted_sum(x, m, phases, tiles) -> np.ndarray:
    """sum_y x[..., y] m[..., y, z] phases[y, z] over z, tile by tile (see
    _DualityRows)."""
    sums = []
    for s, summands in tiles:
        np.multiply(m[s], phases[:, :, None, None], out=summands)
        sums.append(_sum_over_y(x[s], summands))
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


class _DualityRows:
    """The defect of the duality identity for one (twist, psi), row by row.

    `rows(a, b_sub)` takes value arrays a and b(y - z, z) of shape (..., n,
    n, d, d), whose leading axes broadcast, and yields (w, defect) for w in
    G: row w of transform(a * b) - transform(a) * transform(b), of shape
    (..., n, d, d); called on a and b, it gathers b(y - z, z) first. Each
    side's exponent row (module docstring) is summed exactly from integer
    rows (`exponent_rows`: the sheared row of psi + phi, streamed from a
    tricharacter sum or read from a plain sum's rows, stored once per check
    in one narrow n^3 table; psi's slab; sigma's residues). A row is one
    weighted sum of e(E_L) - e(E_R) (`_phase_difference`) over y of
    V_w^* a(w - y, y) V_w times b'(y, z) = V_y^* b(y - z, z) V_y (module
    docstring; for d > 1, b_sub is overwritten with b' per batch), and when
    every row's exact sums agree (`rows_agree`) every pair's defect is
    exactly 0, so verify_duality forms no pair. A row's phases serve the
    batch; stacked pairs form their weighted summands in tiles of
    _pairs_per_tile(n, d). No n^3 complex array is formed.
    include_multiplier=False drops sigma(w - z, z) from E_L and both sigma
    terms from E_R.
    """

    def __init__(self, tw: TwistData, psi: Cochain3, include_multiplier: bool):
        n = tw.group.order
        self.tw, self.psi, self.include_multiplier = tw, psi, include_multiplier
        self.sub, self.zi = tw.group.sub_table, np.arange(n)
        self.tile = _pairs_per_tile(n, tw.dim)
        total = psi + tw.phi
        self.den, self.exponents = total.den, total.sheared_rows
        if not isinstance(total, Tricharacter):  # its rows once, as one narrow table
            self.exponents = partial(iter, _stored(total.sheared_rows(), (n, n, n), total.den))

    def exponent_rows(self):
        """(w, E_L, E_R) for w in G, each side as a list of (residues, den)
        terms that broadcast to [y, z], the full-size one first."""
        n, sub, zi, psi = len(self.zi), self.sub, self.zi, self.psi
        sigma, s = self.tw.sigma.table, self.tw.sigma.den
        sigma_diffs = sigma.take(_diffs(self.tw.group))  # sigma(y - z, z) over [y, z]
        skew = sigma.take((zi * n)[:, None] + sub.T)  # sigma(t, v - t) over [t, v]
        for w, sheared, psi_row in zip(range(n), self.exponents(), psi.slabs()):
            rows = skew.take(sub[w], axis=0)  # at [y, w - z]: sigma(w - y, y - z)
            back = rows[:, w]  # sigma(w - y, y) over y: sigma(w - z, z) over z
            left = [(sheared, self.den), (rows[:, sub[w]], s)]
            right = [(psi_row, psi.den)]
            if self.include_multiplier:
                left.append((back[None, :], s))
                right += [(back[:, None], s), (sigma_diffs, s)]
            yield w, left, right

    def rows_agree(self) -> bool:
        """Whether every row's exact sums E_L and E_R agree as residues over
        their lcm, in one pass that stops at the first row that differs or
        has no exact sum (past 2^62): then every pair's defect is a sum of
        D = 0 (`_phase_difference`), exactly 0."""
        for _, left, right in self.exponent_rows():
            sums = _exponent_sum(left), _exponent_sum(right)
            if None in sums or (den := lcm(sums[0][1], sums[1][1])) > 2**62:
                return False
            scaled = (e if d == den else np.multiply(e, den // d, dtype=np.int64) for e, d in sums)
            if not np.array_equal(*scaled):
                return False
        return True

    def __call__(self, a: np.ndarray, b: np.ndarray):
        return self.rows(a, _at(b, _diffs(self.tw.group)))

    def rows(self, a: np.ndarray, b_sub: np.ndarray):
        n, d = len(self.zi), self.tw.dim
        if d > 1:  # V_y^* b(y - z, z) V_y, pair by pair, in place
            vh = np.conj(self.tw.beta).swapaxes(-1, -2)
            for pair in b_sub.reshape((-1,) + b_sub.shape[-4:]):
                conjugate(vh[:, None], pair, out=pair)
        if a.ndim == 5 and a.shape[:1] == b_sub.shape[:1]:  # tiles share one buffer
            k = self.tile
            buffer = np.empty((min(k, len(a)),) + b_sub.shape[1:], dtype=complex)
            tiles = [(slice(i, i + k), buffer[: len(a) - i]) for i in range(0, len(a), k)]
        else:
            tiles = [(slice(None), buffer := np.empty_like(b_sub))]
        spare = buffer.reshape(-1)[: n * n].reshape(n, n)  # e(E_R) until a tile overwrites it
        for w, left, right in self.exponent_rows():
            x = _at(a, self.sub[w] * n + self.zi)  # a(w - y, y) over y
            if d > 1:  # V_w^* a(w - y, y) V_w
                x = conjugate(vh[w], x)
            yield w, _weighted_sum(x, b_sub, _phase_difference(left, right, spare), tiles)


def takai_transform(
    a: StrictifiedElement, psi: Cochain3, include_multiplier: bool = True
) -> TwistedKernel:
    """a~(w, z) = beta_w^-1[a(w - z, z) u(w - z, z)], as a psi-twisted kernel.

    include_multiplier=False drops the u factor; that breaks the duality
    identity on purpose and exists for negative controls.
    """
    tw = a.twist
    require_cochain(psi, 3, tw.group, "psi")
    return TwistedKernel(tw.group, psi, _takai_values(tw, a.values, include_multiplier))


def takai_inverse(kernel: TwistedKernel, tw: TwistData) -> StrictifiedElement:
    """a(t, x) = beta_{t+x}[a~(t+x, x)] u(t, x)^-1; inverse of the transform."""
    g = tw.group
    if kernel.group != g:
        raise IncompatibleGroupsError("kernel lives on a different group")
    if kernel.block_dim != tw.dim:
        raise TwistDataError(
            f"kernel blocks are {kernel.block_dim}x{kernel.block_dim}, "
            f"the twist's coefficient algebra is {tw.dim}x{tw.dim}"
        )
    n = g.order
    add = g.add_table
    xi = np.arange(n)
    gathered = kernel.data[add, xi[None, :]]  # [t, x] -> a~(t + x, x)
    moved = conjugate(tw.beta[add], gathered)
    uinv = np.conj(tw.sigma.complex_table)
    return StrictifiedElement(tw, np.einsum("txab,tx->txab", moved, uinv))


def double_dual_action(v, kernel: TwistedKernel, alpha: np.ndarray | None = None) -> TwistedKernel:
    """out(x, z) = alpha_v[F(x + v, z + v)]; alpha given as conjugators or None."""
    g = kernel.group
    iv = g.element(v).index
    rows = g.add_table[:, iv]
    data = kernel.data[np.ix_(rows, rows)]
    if alpha is not None:
        w = np.asarray(alpha, dtype=complex)[iv]
        if kernel.block_dim == 1:
            raise TwistDataError("coefficient action needs block kernels")
        data = conjugate(w, data)
    return TwistedKernel(g, kernel.phi, data)


# ----------------------------------------------------------- duality report


@dataclass
class DualityReport(Report):
    passed: bool
    max_error: float
    tol: float
    trials: int
    mode: str
    witness: tuple | None = None


_ENTRY_BUDGET = 2**15  # complex entries (512 KB) of one batch array or one tile's summands


def _pairs_per_batch(n: int, d: int) -> int:
    """Random pairs that verify_duality runs through one pass over the rows.

    At least 8, so that a row's exponents and phases serve 8 pairs; more
    while one batch array (n^2 d^2 complex entries per pair) stays within
    _ENTRY_BUDGET, so small groups do not pay the per-row overhead pair by
    pair. A batch holds two such arrays, a and b(y - z, z) (_draw_batch),
    and forms its weighted summands a tile at a time (_pairs_per_tile).
    """
    return max(8, _ENTRY_BUDGET // (n * n * d * d))


def _pairs_per_tile(n: int, d: int) -> int:
    """Pairs whose weighted summands _DualityRows forms at once in a row: as
    many as fit in _ENTRY_BUDGET, at least one (the whole batch up to
    |G| = 64, 2 pairs at |G| = 128, d = 1); no float result depends on it."""
    return max(1, _ENTRY_BUDGET // (n * n * d * d))


def _draw_batch(tw: TwistData, rng: np.random.Generator, size: int):
    """`size` random pairs (a, b(y - z, z)), drawn a then b, pair by pair, as
    StrictifiedElement.random draws them; each b passes through one scratch."""
    n, d = tw.group.order, tw.dim
    a, b_sub = np.empty((2, size, n, n, d, d), dtype=complex)
    scratch, diffs = np.empty((n * n, d, d), dtype=complex), _diffs(tw.group)
    for i in range(size):
        for out in (a[i], scratch):
            out.real = rng.standard_normal(out.shape)
            out.imag = rng.standard_normal(out.shape)
        scratch.take(diffs, axis=0, out=b_sub[i], mode="clip")  # in range; "raise" buffers
    return a, b_sub


def _require_duality_arguments(trials, seed, tol, cells: int) -> None:
    """Refuse, with ConfigError, a trials or seed that is not an integer (a
    bool included), a negative seed, a tol that `require_tol` refuses, and
    fewer than one trial in random mode (cells n^2 d^2 > 64)."""
    require_int(trials, "trials")
    if require_int(seed, "seed") < 0:
        raise ConfigError(f"seed {seed!r} is negative")
    require_tol(tol)
    if trials < 1 and cells > 64:
        raise ConfigError(f"trials {trials!r} must be a positive integer in random mode")


def verify_duality(
    tw: TwistData,
    psi: Cochain3,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
    include_multiplier: bool = True,
) -> DualityReport:
    """Check transform(a * b) = transform(a) * transform(b) (psi-twisted kernels).

    Exhaustive over basis pairs when |G|^2 dim(B)^2 <= 64 (trials is then
    ignored), else `trials` seeded random pairs, drawn a then b, pair by
    pair, in batches of _pairs_per_batch(n, d). Refused before any work: a
    psi that is not a 3-cochain (CochainError) and a malformed trials, seed
    or tol (`_require_duality_arguments`). The defect is formed row by row
    from exact exponent rows (_DualityRows: one weighted sum of
    e(E_L) - e(E_R)), and each pair keeps its largest |defect| over the
    rows. The exhaustive mode stacks the basis along two broadcast axes,
    so every pair comes out of the same row loop. An exhaustive check names
    its first failing pair in (a, b) order, a random one its worst trial.
    include_multiplier=False drops u(w - z, z) from the transform and
    should make the check fail loudly.

    When every row's exact exponent sums agree (`_DualityRows.rows_agree`),
    every pair's defect is exactly 0, so no pair is formed or drawn and every
    error is 0.0.

    The contract: beta is a G-action on M_d, V_x V_y = c(x, y) V_{x+y} with
    |c| = 1, which `TwistData.validate` decides at construction; the rows
    rest on it. A twist built with validate=False whose beta is not one is
    outside the check's contract.
    """
    g = tw.group
    require_cochain(psi, 3, g, "psi")
    n, d = g.order, tw.dim
    cells = n * n * d * d
    _require_duality_arguments(trials, seed, tol, cells)
    check = _DualityRows(tw, psi, include_multiplier)

    def max_errors(rows):
        """max |transform(a * b) - transform(a) * transform(b)| per pair, over rows."""
        return reduce(np.maximum, (np.abs(defect).max(axis=(-3, -2, -1)) for _, defect in rows))

    mode = "exhaustive" if cells <= 64 else "random"
    if check.rows_agree():  # every pair's defect is exactly 0: no pair is formed
        errors = np.zeros((cells, cells) if mode == "exhaustive" else trials)
    elif mode == "exhaustive":
        basis = np.eye(cells, dtype=complex).reshape(-1, n, n, d, d)
        errors = max_errors(check(basis[:, None], basis[None, :]))
    else:
        rng = np.random.default_rng(seed)
        batch = _pairs_per_batch(n, d)
        errors = np.zeros(trials)
        for start in range(0, trials, batch):
            stop = min(start + batch, trials)
            # the rows generator is the only holder of the batch
            errors[start:stop] = max_errors(check.rows(*_draw_batch(tw, rng, stop - start)))
    trials = errors.size
    max_error = float(errors.max(initial=0.0))
    passed = max_error <= tol
    witness = None
    if max_error > 0.0 and not passed:
        if mode == "random":
            witness = ("trial", int(errors.argmax()))
        else:
            keys = list(itertools.product(range(n), range(n), range(d), range(d)))
            first = int(np.argmax(errors > tol))
            witness = tuple(keys[i] for i in np.unravel_index(first, errors.shape))
    return DualityReport(passed, max_error, tol, trials, mode, witness)


# ------------------------------------------------- Fourier-side presentation


def evaluation_side_product(group: FiniteAbelianGroup, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c(x, g) = a(x + g, g) b(x, g): the evaluation form of the convolution."""
    a, b, scalar = _as_blocks(group, a, b)
    add = group.add_table
    gi = np.arange(group.order)
    c = np.einsum("xgab,xgbc->xgac", a[add, gi[None, :]], b)
    return c[:, :, 0, 0] if scalar else c


def fourier_side_product(group: FiniteAbelianGroup, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The same product computed through the Fourier side.

    a-hat(eta, g) = sum_x a(x, g) exp(2 pi i <eta, x>); the convolution
    c-hat(xi, g) = |G|^-1 sum_eta a-hat(eta, g) exp(-2 pi i <eta, g>)
    b-hat(xi - eta, g); returned after inverse transform in the first slot.
    """
    a, b, scalar = _as_blocks(group, a, b)
    n = group.order
    ch = group.character_matrix  # [eta, x]
    ahat = np.einsum("ex,xgab->egab", ch, a)
    bhat = np.einsum("ex,xgab->egab", ch, b)
    sub = group.sub_table
    cc = np.conj(ch)
    chat = np.einsum("eg,egab,segbc->sgac", cc, ahat, bhat[sub]) / n
    c = np.einsum("sx,sgab->xgab", cc, chat) / n
    return c[:, :, 0, 0] if scalar else c


def _as_blocks(group, a, b):
    n = group.order
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    scalar = a.ndim == 2
    if scalar:
        a = a[:, :, None, None]
        b = b[:, :, None, None]
    if a.shape[:2] != (n, n) or b.shape != a.shape:
        raise TwistDataError(f"operands must be (n, n[, d, d]) with n = {n}")
    return a, b, scalar
