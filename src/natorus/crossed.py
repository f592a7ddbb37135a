"""Twisted crossed products, their strictification, and the duality transform.

A twist datum is a quadruple (B, beta, u, phi): a matrix coefficient algebra
B = M_d, per-element conjugators implementing beta: G -> Aut(B), a unitary
multiplier u on G x G, and a 3-cocycle phi, tied together by

    beta_x beta_y = ad(u(x,y)) beta_{x+y}
    exp(2 pi i phi(x,y,z)) u(x,y) u(x+y,z) = beta_x[u(y,z)] u(x,y+z).

Crossed elements are B-valued functions on G with the twisted convolution;
strictified elements carry an extra function leg and multiply with an
additional 3-cocycle weight psi. The transform

    a~(w, z) = beta_w^-1[ a(w - z, z) u(w - z, z) ]

carries the strictified product to the psi-twisted kernel product of block
kernels, which is the duality statement this module exists to check: the
crossed product by the dual action is B tensor twisted compacts.

The check computes the left side in the transform's own coordinates:
substituting t = w - y in the strictified product gives

    (a * b)~(w, z) = sum_y L(w, y) b(y - z, z) R(w, y, z),
    L(w, y) = V_w^* a(w - y, y) V_{w-y},
    R(w, y, z) = exp(2 pi i (psi + phi)(w - y, y - z, z))
                 V_{w-y}^* u(w - y, y - z) u(w - z, z) V_w,

with V_t the conjugator implementing beta_t. R depends only on the twist
and psi, but as a whole it is an n^3 d^2 complex array, so verify_duality
streams it one w-slice at a time (_DualityRows). Both routes read the
exponent psi + phi as the one cochain that `cochains` adds: a tricharacter
when psi and phi are, and then the check holds no n^3 array at all.
strictified_product and takai_transform compute by the definitions and are
the route the tests compare against; strictified_product reads the sum's
slabs and shares no other code with the check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from math import gcd

import numpy as np

from .cochains import (
    Cochain2,
    Cochain3,
    Tricharacter,
    _coboundary2_mismatch,
    coboundary2,
    exp_phases,
    require_cochain,
)
from .elements import ArrayElement
from .errors import ConfigError, IncompatibleGroupsError, TwistDataError
from .groups import FiniteAbelianGroup
from .kernels import TwistedKernel
from .phases import Report


class TwistData:
    """Coefficient algebra M_d with compatible (beta, u, phi)."""

    def __init__(
        self,
        group: FiniteAbelianGroup,
        dim: int = 1,
        beta: np.ndarray | None = None,
        u: np.ndarray | None = None,
        phi: Cochain3 | None = None,
        validate: bool = True,
        tol: float = 1e-10,
    ):
        if dim < 1:
            raise TwistDataError(f"dim must be at least 1, got {dim}")
        n = group.order
        if beta is None:
            beta = np.broadcast_to(np.eye(dim, dtype=complex), (n, dim, dim)).copy()
        beta = np.asarray(beta, dtype=complex)
        if u is None:
            u = np.broadcast_to(np.eye(dim, dtype=complex), (n, n, dim, dim)).copy()
        u = np.asarray(u, dtype=complex)
        if phi is None:
            phi = Cochain3.zero(group)
        if beta.shape != (n, dim, dim):
            raise TwistDataError(f"beta must have shape {(n, dim, dim)}, got {beta.shape}")
        if u.shape != (n, n, dim, dim):
            raise TwistDataError(f"u must have shape {(n, n, dim, dim)}, got {u.shape}")
        require_cochain(phi, 3, group, error=TwistDataError)
        beta.setflags(write=False)
        u.setflags(write=False)
        self.group = group
        self.dim = dim
        self.beta = beta
        self.u = u
        self.phi = phi
        self._sigma = None  # the 2-cochain of a scalar u (with_scalar_multiplier)
        if validate:
            self.validate(tol)

    # -------------------------------------------------------- constructors

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup, dim: int = 1) -> "TwistData":
        return cls.with_scalar_multiplier(group, Cochain2.zero(group), None, None, dim)

    @classmethod
    def scalar_from_sigma(cls, group, sigma: Cochain2, dim: int = 1) -> "TwistData":
        """Trivial beta, u(x,y) = exp(2 pi i sigma(x,y)) 1_B, phi = delta sigma:
        sigma's cached coboundary, so validate needs no sweep for it."""
        return cls.with_scalar_multiplier(group, sigma, None, coboundary2(sigma), dim)

    @classmethod
    def with_scalar_multiplier(
        cls, group, sigma: Cochain2, beta: np.ndarray | None, phi: Cochain3 | None, dim: int
    ) -> "TwistData":
        """beta given as conjugators (None: trivial), u scalar from sigma; needs
        delta sigma = phi whenever the conjugators commute with the scalars
        (always) and ad(beta) is a homomorphism. validate checks the first
        exactly and beta in floats."""
        require_cochain(sigma, 2, group, "sigma")
        u = sigma.complex_table[:, :, None, None] * np.eye(max(dim, 1), dtype=complex)
        tw = cls(group, dim, beta, u, phi, validate=False)  # refuses dim < 1
        tw._sigma = sigma
        tw.validate()
        return tw

    # ------------------------------------------------------------- queries

    def multiplier(self, x, y) -> np.ndarray:
        g = self.group
        return self.u[g.element(x).index, g.element(y).index]

    def is_scalar(self) -> bool:
        return self.dim == 1

    # ----------------------------------------------------------- validation

    def validate(self, tol: float = 1e-10) -> None:
        """Exhaustive check of unitarity, normalization, and both relations.

        beta is checked in floats within tol: unitary conjugators, beta_0 = 1
        and, for d > 1 (1 x 1 blocks are central), composition, n^2 d^3 work.
        A u = exp(2 pi i sigma) 1_B from a 2-cochain sigma (every constructor)
        is unitary and normalized by construction, drops out of composition
        and is fixed by beta, so the phase relation is phi = delta sigma,
        checked exactly (`_coboundary2_mismatch`): slab by slab with no n^3
        array, and at once when phi is sigma's cached coboundary. Its failure
        names the first (x, y, z) in index order. Any other u is checked in
        floats within tol, with n^3 d^2 complex work for the phase relation.
        """
        n, d = self.group.order, self.dim
        v, u, exact = self.beta, self.u, self._sigma is not None
        eye = np.eye(d)
        verr = np.max(np.abs(np.einsum("tab,tcb->tac", v, np.conj(v)) - eye[None]))
        if verr > tol:
            raise TwistDataError(f"beta conjugators are not unitary (defect {verr:.3e})")
        uerr = 0.0 if exact else np.max(np.abs(np.einsum("xyab,xycb->xyac", u, np.conj(u)) - eye))
        if uerr > tol:
            raise TwistDataError(f"u values are not unitary (defect {uerr:.3e})")
        if np.max(np.abs(v[0] - eye)) > tol:
            raise TwistDataError("beta_0 is not the identity")
        norm_err = 0.0 if exact else max(np.max(np.abs(u[0] - eye)), np.max(np.abs(u[:, 0] - eye)))
        if norm_err > tol:
            raise TwistDataError(f"u is not normalized at the identity (defect {norm_err:.3e})")
        add = self.group.add_table
        if d > 1:  # beta_x beta_y = ad(u(x,y)) beta_{x+y}: V_x V_y (u(x,y) V_{x+y})^H central
            prod = np.einsum("xab,ybc->xyac", v, v)
            target = v[add] if exact else np.einsum("xyab,xybc->xyac", u, v[add])
            c = np.einsum("xyab,xycb->xyac", prod, np.conj(target))
            trace = np.einsum("xyaa->xy", c) / d
            central_defect = np.abs(c - trace[:, :, None, None] * eye[None, None])
            if central_defect.max() > tol:
                x, y = np.unravel_index(int(central_defect.max(axis=(2, 3)).argmax()), (n, n))
                raise TwistDataError(
                    f"beta_x beta_y != ad(u) beta_(x+y) at indices ({x}, {y})",
                    witness=(int(x), int(y)),
                )
        if exact:
            bad = _coboundary2_mismatch(self._sigma, self.phi)
            if bad is not None:
                raise TwistDataError(f"multiplier relation fails at indices {bad}", witness=bad)
            return
        # phase relation: e^{2 pi i phi} u(x,y) u(x+y,z) = beta_x[u(y,z)] u(x,y+z)
        phi, block = self.phi, _block_product(d)
        for x, slab in enumerate(phi.slabs()):
            lhs = exp_phases(slab, phi.den)[:, :, None, None] * u[x][:, None]
            block(lhs, u[add[x]], out=lhs)
            rhs = block(v[x], u)  # beta_x[u(y, z)], then times u(x, y + z)
            block(rhs, np.conj(v[x]).T, out=rhs)
            block(rhs, u[x][add], out=rhs)
            lhs -= rhs
            err = np.abs(lhs)
            if err.max() > tol:
                y, z = np.unravel_index(int(err.max(axis=(2, 3)).argmax()), (n, n))
                raise TwistDataError(
                    f"multiplier relation fails at indices ({x}, {int(y)}, {int(z)})",
                    witness=(x, int(y), int(z)),
                )

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
        moved = np.einsum("ab,sbc,dc->sad", tw.beta[t], b.values, np.conj(tw.beta[t]))
        # index s: a(t) moved[s - t] u(t, s - t)
        rt = sub[:, t]
        out += np.einsum("ab,sbc,scd->sad", a.values[t], moved[rt], tw.u[t][rt])
    return CrossedElement(tw, out)


def lbs_involution(a: CrossedElement) -> CrossedElement:
    """a*(x) = u(x, -x)^-1 (beta_x[a(-x)])^H."""
    tw = a.twist
    g = tw.group
    neg = g.neg_table
    moved = np.einsum("xab,xbc,xdc->xad", tw.beta, a.values[neg], np.conj(tw.beta))
    uinv = np.conj(tw.u[np.arange(g.order), neg].transpose(0, 2, 1))
    out = np.einsum("xab,xcb->xac", uinv, np.conj(moved))
    return CrossedElement(tw, out)


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
    out = np.zeros_like(a.values)
    for t, exponent in enumerate(total.slabs()):
        # index [r, x] with r = s - t
        moved = np.einsum("ab,rxbc,dc->rxad", tw.beta[t], b.values, np.conj(tw.beta[t]))
        w_t = _row_phases(exponent, total.den)
        term = np.einsum("rx,rxab,rxbc,rcd->rxad", w_t, a.values[t][add], moved, tw.u[t])
        out[add[t]] += term
    return StrictifiedElement(tw, out)


def _row_phases(exponent: np.ndarray, den: int) -> np.ndarray:
    """exp(2 pi i exponent / den) for one row of exponents over den, with the
    exponent put in lowest terms over the row, so quarter turns take the
    exact roots (exp_phases wraps them exactly at any scale)."""
    if 4 % den == 0:
        return exp_phases(exponent, den)
    common = gcd(den, int(np.gcd.reduce(exponent, axis=None)))
    return exp_phases(exponent // common, den // common)


def _at(values: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """values(r, s) at cells = r n + s, for value arrays of shape
    (..., n, n, d, d); unlike values[..., r, s, :, :], the result keeps the
    leading axes outermost in memory."""
    n = values.shape[-3]
    flat = values.reshape(values.shape[:-4] + (n * n,) + values.shape[-2:])
    return flat.take(cells, axis=-3)


def _block_product(d: int):
    """The product of stacked d x d blocks; elementwise when d = 1, where it is
    much faster than matmul on 1 x 1 matrices."""
    return np.multiply if d == 1 else np.matmul


def _diffs(g: FiniteAbelianGroup) -> np.ndarray:
    """(x - z, z) over [x, z], as flat indices into n x n: the cells the
    transform gathers, a(w - z, z) over [w, z]."""
    return g.sub_table * g.order + np.arange(g.order)


def _transform_in_place(tw: TwistData, out: np.ndarray, u_out: np.ndarray | None) -> np.ndarray:
    """Turn out = a(w - z, z) over [w, z], of shape (..., n, n, d, d), into the
    duality transform of a, V_w^* a(w - z, z) u(w - z, z) V_w, in place;
    u_out is u(w - z, z) over [w, z], or None to drop the multiplier."""
    block = _block_product(tw.dim)
    if u_out is not None:
        block(out, u_out, out=out)
    v = tw.beta[:, None]  # V_w, constant along z
    block(np.conj(v).swapaxes(-1, -2), out, out=out)
    return block(out, v, out=out)


def _takai_values(tw: TwistData, a: np.ndarray, include_multiplier: bool) -> np.ndarray:
    """The duality transform on value arrays of shape (..., n, n, d, d)."""
    cells = _diffs(tw.group)
    return _transform_in_place(tw, _at(a, cells), _at(tw.u, cells) if include_multiplier else None)


def _sum_over_y(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """out[..., z] = sum_y x[..., y] m[..., y, z] on d x d blocks.

    x has shape (..., n, d, d) and m (..., n, n, d, d), with leading axes
    that broadcast; the sum over y and the inner block index is one matmul.
    """
    n, d = x.shape[-3], x.shape[-1]
    rows = x.swapaxes(-3, -2).reshape(x.shape[:-3] + (d, n * d))
    cols = m.swapaxes(-3, -2).reshape(m.shape[:-4] + (n * d, n * d))
    out = rows @ cols
    return out.reshape(out.shape[:-1] + (n, d)).swapaxes(-3, -2)


class _DualityRows:
    """Both sides of the duality identity for one (twist, psi), one row at a time.

    Calling it on value arrays a and b of shape (..., n, n, d, d), whose
    leading axes broadcast against each other, yields (w, lhs, rhs) for w in
    G: row w of transform(a * b) and of transform(a) * transform(b)
    (psi-twisted kernels), each of shape (..., n, d, d).

    The left side is the formula in the module docstring, with R(w, y, z)
    split as the slice exp(2 pi i (psi + phi)(w - y, y - z, z)) V_{w-y}^*
    u(w - y, y - z), built for its row and dropped after it, times
    u(w - z, z) V_w, which does not depend on y and multiplies the summed
    row. Row w's exponents are the sheared rows of psi + phi: when both are
    tricharacters, of their sum as one, streamed from its tensor in O(n^2)
    memory; with a plain operand, of the plain sum, gathered once per check
    into one narrow n^3 table, after which the int64 sum is dropped. The
    right side is the kernel product, read with the weight row
    exp(2 pi i psi(w, ., .)) from psi's own slabs, so exp_phases sees psi's
    numerators over psi.den, of transform(b) and row w of transform(a),
    V_w^* a(w - z, z) u(w - z, z) V_w, which shares its gather with L(w, .).
    transform(b) is computed in place on a copy of the gather b(y - z, z)
    that the left side reads, and b itself is dropped. Pairs stacked along
    one shared leading axis (random batches) run in tiles of
    _pairs_per_tile(n, d) inside each row, so each row's slice of R and
    kernel weights is built once and the weighted summands of one tile are
    the only temporary of that size; other leading shapes run as one tile.
    include_multiplier=False drops u(w - z, z) from R and from both
    transforms. No copy of psi and no n^3 complex array is formed.
    """

    def __init__(self, tw: TwistData, psi: Cochain3, include_multiplier: bool):
        g = tw.group
        n, d = g.order, tw.dim
        self.tw, self.psi = tw, psi
        self.block = _block_product(d)
        self.sub, self.zi = g.sub_table, np.arange(n)
        self.diffs = _diffs(g)  # (y - z, z) over [y, z], flat into n x n
        self.beta_h = np.conj(tw.beta).transpose(0, 2, 1)
        self.vu = self.block(self.beta_h[:, None], tw.u).reshape(n * n, d, d)  # V_t^* u(t, r)
        self.u_out = _at(tw.u, self.diffs) if include_multiplier else None  # u(w - z, z)
        u_out = np.eye(d) if self.u_out is None else self.u_out
        self.right = self.block(u_out, tw.beta[:, None])  # u(w - z, z) V_w over [w, z]
        self.tile = _pairs_per_tile(n, d)
        total = psi + tw.phi
        self.den, self.exponents = total.den, total.sheared_rows
        if not isinstance(total, Tricharacter):  # its rows once, as one narrow table
            table = np.empty((n, n, n), dtype=np.min_scalar_type(total.den - 1))
            for row, exponent in zip(table, total.sheared_rows()):
                row[...] = exponent
            self.exponents = partial(iter, table)

    def __call__(self, a: np.ndarray, b: np.ndarray):
        b_sub = _at(b, self.diffs)  # b(y - z, z) over [y, z]
        del b  # a batch's b is held here alone (see verify_duality); only b_sub is read
        tb = _transform_in_place(self.tw, b_sub.copy(), self.u_out)
        if a.ndim == 5 and a.shape[:1] == b_sub.shape[:1]:
            # each tile's pairs, with the buffer their summands are weighted in
            weighted = np.empty((min(self.tile, len(a)),) + b_sub.shape[1:], dtype=complex)
            tiles = [
                (slice(i, i + self.tile), weighted[: min(self.tile, len(a) - i)])
                for i in range(0, len(a), self.tile)
            ]
        else:
            tiles = [(slice(None), np.empty_like(b_sub))]
        for w, exponent, psi_row in zip(range(len(self.zi)), self.exponents(), self.psi.slabs()):
            yield (w, *self._row(w, exponent, psi_row, a, b_sub, tb, tiles))

    def _row(self, w, exponent, psi_row, a, b_sub, tb, tiles):
        """(lhs, rhs) of row w; its slices of R and of the kernel weights are
        dropped on return, before the next row builds its own."""
        tw, block, sub, zi = self.tw, self.block, self.sub, self.zi
        n = tw.group.order
        t = sub[w]  # w - y over y
        pairs = (t * n)[:, None] + sub  # (w - y, y - z) over [y, z], flat into n x n
        weight = self.vu.take(pairs, axis=0)  # R(w) without u(w - z, z) V_w, once phased
        np.multiply(_row_phases(exponent, self.den)[:, :, None, None], weight, out=weight)
        kernel_weight = exp_phases(psi_row, self.psi.den)[:, :, None, None]
        # V_w^* a(w - y, y) over y, completed to L(w, y) by V_{w-y} and to
        # row w of transform(a) by u(w - y, y) V_w
        moved = block(self.beta_h[w], _at(a, t * n + zi))
        left = block(moved, tw.beta[t])
        ta = block(moved, self.right[w])
        sides = [
            (
                block(_sum_over_y(left[s], block(b_sub[s], weight, out=summands)), self.right[w]),
                _sum_over_y(ta[s], np.multiply(kernel_weight, tb[s], out=summands)),
            )
            for s, summands in tiles
        ]
        if len(sides) == 1:
            return sides[0]
        return tuple(np.concatenate(side) for side in zip(*sides))


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
    moved = np.einsum("txab,txbc,txdc->txad", tw.beta[add], gathered, np.conj(tw.beta[add]))
    uinv = np.conj(tw.u.transpose(0, 1, 3, 2))
    out = np.einsum("txab,txbc->txac", moved, uinv)
    return StrictifiedElement(tw, out)


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
        data = np.einsum("ab,xzbc,dc->xzad", w, data, np.conj(w))
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
    """Random pairs that verify_duality runs through one pass over the R slices.

    At least 8, so that a pass's per-row set-up (phases, the V^* u gather and
    the kernel weight rows) is shared by 8 pairs; more while one batch array
    (n^2 d^2 complex entries per pair) stays within _ENTRY_BUDGET, which
    keeps small groups from paying the per-row overhead pair by pair. While
    its rows run, a batch holds three such arrays (a, b(y - z, z) and
    transform(b)); the weighted summands, the one temporary of that size
    per pair, are formed a tile at a time (_pairs_per_tile).
    """
    return max(8, _ENTRY_BUDGET // (n * n * d * d))


def _pairs_per_tile(n: int, d: int) -> int:
    """Pairs whose weighted summands _DualityRows forms at once inside a row:
    as many as fit in _ENTRY_BUDGET, at least one. That is the whole batch
    up to |G| = 64 (d = 1) and 2 pairs at |G| = 128; the per-pair float
    operations do not depend on it."""
    return max(1, _ENTRY_BUDGET // (n * n * d * d))


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
    ignored), else `trials` seeded random pairs; fewer than one is refused
    with ConfigError. Both sides are computed row by row in the transform's
    coordinates (module docstring, _DualityRows), so R is never stored
    whole. Random pairs are drawn a then b, pair by pair, in batches of
    _pairs_per_batch(n, d); the two sides stay separate products of the same
    pair, and each pair keeps the largest error over its rows. Both sides are
    bilinear, so the exhaustive mode compares the two structure tensors: the
    basis is stacked along two broadcast axes and every pair comes out of the
    same row loop. The witness is the first pair in (a, b) order, or the
    first trial, with the largest error. include_multiplier=False drops
    u(w - z, z) from both the transform and R and should make the check fail
    loudly. A psi that is not a 3-cochain is refused with CochainError before
    any work.
    """
    g = tw.group
    require_cochain(psi, 3, g, "psi")
    n, d = g.order, tw.dim

    check = _DualityRows(tw, psi, include_multiplier)

    def max_errors(rows):
        """max |transform(a * b) - transform(a) * transform(b)| per pair, over rows."""
        errors = 0.0
        for _, lhs, rhs in rows:
            errors = np.maximum(errors, np.abs(lhs - rhs).max(axis=(-3, -2, -1)))
        return errors

    if n * n * d * d <= 64:
        mode = "exhaustive"
        basis = np.eye(n * n * d * d, dtype=complex).reshape(-1, n, n, d, d)
        errors = max_errors(check(basis[:, None], basis[None, :]))
    else:
        mode = "random"
        if trials < 1:
            raise ConfigError(f"trials {trials!r} must be a positive integer in random mode")
        rng = np.random.default_rng(seed)

        def draw(size):
            """`size` random pairs, drawn a then b, pair by pair."""
            a = np.empty((size, n, n, d, d), dtype=complex)
            b = np.empty_like(a)
            for i in range(size):
                a[i] = StrictifiedElement.random(tw, rng).values
                b[i] = StrictifiedElement.random(tw, rng).values
            return a, b

        batch = _pairs_per_batch(n, d)
        errors = np.zeros(trials)
        for start in range(0, trials, batch):
            stop = min(start + batch, trials)
            # the rows generator is the only holder of the batch, so it can drop b
            errors[start:stop] = max_errors(check(*draw(stop - start)))
    trials = errors.size
    max_error = float(errors.max(initial=0.0))
    passed = max_error <= tol
    witness = None
    if max_error > 0.0 and not passed:
        k = int(errors.argmax())
        if mode == "random":
            witness = ("trial", k)
        else:
            keys = list(itertools.product(range(n), range(n), range(d), range(d)))
            witness = tuple(keys[i] for i in np.unravel_index(k, errors.shape))
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
