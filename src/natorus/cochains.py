"""Normalized group cochains with exact rational values.

Tables are stored as integer numerators over a single common denominator, so
coboundaries and cocycle identities are evaluated in exact integer arithmetic
(vectorized with numpy). Values come in and out as `Phase` objects.

A k-cochain here is always normalized: it vanishes whenever any argument is
the identity. Tricharacters (multilinear phase forms built from an integer
3-tensor mod m) are the cocycles of interest for the twisted-kernel and
crossed-product machinery; a general cocycle need not be one, and operations
that require antisymmetry check for it rather than assume it.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import gcd, lcm
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import (
    CochainError,
    IncompatibleGroupsError,
    NotACocycleError,
    TensorShapeError,
)
from .groups import FiniteAbelianGroup, GroupElement, subgroup_elements
from .phases import Phase


_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])


def common_denominator(den_a: int, den_b: int) -> int:
    """lcm(den_a, den_b), refused above 2^62: below it, numerators and sums of
    two of them fit in int64."""
    d = lcm(den_a, den_b)
    if d > 2**62:
        raise CochainError(
            f"common denominator {d} of {den_a} and {den_b} exceeds 2^62; "
            "sums of its numerators would not fit in int64"
        )
    return d


def exp_phases(table: np.ndarray, den: int) -> np.ndarray:
    """exp(2 pi i table / den) for an integer array.

    Quarter-turn denominators give exact +-1 and +-i entries, so sign
    tables like the octonion structure constants carry no roundoff.
    """
    if den in (1, 2, 4):
        return _QUARTER_TURNS.take(table if den == 4 else table * (4 // den), mode="wrap")
    return np.exp(2j * np.pi * table / den)


def _require_denominator(den: int) -> None:
    """Refuse a denominator below 1 or above 2^62, the bound of
    common_denominator: below it, numerators and sums of two of them fit in
    int64."""
    if den < 1:
        raise CochainError(f"denominator must be positive, got {den}")
    if den > 2**62:
        raise CochainError(
            f"denominator {den} exceeds 2^62; sums of its numerators would not fit in int64"
        )


class CochainTable:
    """A normalized k-cochain as an integer table over a common denominator."""

    def __init__(self, group: FiniteAbelianGroup, arity: int, table: np.ndarray, den: int):
        self._adopt(group, arity, np.asarray(table, dtype=np.int64), den, reduce=True)

    def _adopt(
        self, group: FiniteAbelianGroup, arity: int, table: np.ndarray, den: int, reduce=False
    ):
        """Take ownership of `table`, a fresh int64 array already reduced mod den
        (with reduce=True, any int64 table, of which a reduced copy is taken):
        check den, the shape and normalization, and freeze it, without a copy.

        Every cochain passes here, so this is where a denominator above 2^62 is
        refused, the bound of common_denominator: below it, numerators and sums
        of two of them fit in int64.
        """
        _require_denominator(den)
        if reduce:
            table = table % den
        n = group.order
        if table.shape != (n,) * arity:
            raise CochainError(
                f"table shape {table.shape} does not match arity {arity} over order {n}"
            )
        for axis in range(arity):
            sl = [slice(None)] * arity
            sl[axis] = 0
            if table[tuple(sl)].any():
                raise CochainError(
                    f"cochain is not normalized: nonzero value with identity in slot {axis}"
                )
        table.setflags(write=False)
        self.group = group
        self.arity = arity
        self.table = table
        self.den = int(den)

    # ------------------------------------------------------------ access

    def value(self, *args) -> Phase:
        if len(args) != self.arity:
            raise CochainError(f"expected {self.arity} arguments, got {len(args)}")
        idx = tuple(self.group.element(a).index for a in args)
        return Phase(int(self.table[idx]), self.den)

    def __call__(self, *args) -> Phase:
        return self.value(*args)

    def slabs(self) -> Iterator[np.ndarray]:
        """The table's leading slices in index order: for a 3-cochain, phi(x, ., .)
        as an (n, n) array of numerators over den, for each x.

        The one accessor through which whole-table readers stream a cochain.
        A plain table yields its own read-only rows; a `Tricharacter` builds
        each slab from its tensor without forming the n^3 table. Slabs may
        come in any integer type; their entries are the residues in [0, den).
        """
        return iter(self.table)

    def sheared_rows(self) -> Iterator[np.ndarray]:
        """c(w - y, y - z, z) over [y, z] for each w in index order, as an (n, n)
        array of residues in [0, den) in an unsigned type: the rows in which
        the duality check (`crossed`) reads a 3-cochain. A plain table gathers
        each row from its table; a `Tricharacter` builds them as a running sum
        from its tensor, like its slabs, and forms no n^3 array. Each row is a
        fresh array.
        """
        n, sub = self.group.order, self.group.sub_table
        cells = sub * n + np.arange(n)  # (y - z, z) over [y, z], flat into n x n
        for w in range(n):  # one flat take: faster than indexing with three arrays
            rows = self.table.take(sub[w, :, None] * (n * n) + cells)
            yield rows.astype(np.min_scalar_type(self.den - 1))

    def _content_gcd(self) -> int:
        """gcd of den and every entry, read slab by slab."""
        return reduce(gcd, (int(np.gcd.reduce(s, axis=None)) for s in self.slabs()), self.den)

    @cached_property
    def complex_table(self) -> np.ndarray:
        """exp(2 pi i table / den), the numerical weight tensor (see exp_phases)."""
        w = exp_phases(self.table, self.den)
        w.setflags(write=False)
        return w

    def is_zero(self) -> bool:
        return not self.table.any()

    # --------------------------------------------------------- arithmetic

    def _combine(self, other: "CochainTable", sign: int) -> "CochainTable":
        """self + sign * other over the common denominator, built in one fresh
        table from the two operands' slabs, so neither operand's whole table
        is read and no second full-size temporary is formed."""
        if not isinstance(other, CochainTable) or other.arity != self.arity:
            raise CochainError("can only combine cochains of equal arity")
        self.group._require_same(other.group)
        d = common_denominator(self.den, other.den)
        out = np.empty((self.group.order,) * self.arity, dtype=np.int64)
        scale, step = d // self.den, sign * (d // other.den)
        for row, a, b in zip(out, self.slabs(), other.slabs()):
            np.multiply(a, scale, out=row, dtype=np.int64)
            row += np.multiply(b, step, dtype=np.int64)
        np.remainder(out, d, out=out)
        return type(self)._from_table(self.group, self.arity, out, d)

    def __add__(self, other: "CochainTable") -> "CochainTable":
        return self._combine(other, 1)

    def __sub__(self, other: "CochainTable") -> "CochainTable":
        return self._combine(other, -1)

    def __neg__(self) -> "CochainTable":
        return self._negated()

    def _negated(self) -> "CochainTable":
        out = np.negative(self.table)
        np.remainder(out, self.den, out=out)
        return type(self)._from_table(self.group, self.arity, out, self.den)

    def __eq__(self, other) -> bool:
        """Equal values, compared slab by slab. Over one denominator the
        numerators decide; otherwise the lowest-terms forms do, so no common
        denominator (which may pass int64) is formed."""
        if not isinstance(other, CochainTable):
            return NotImplemented
        if self.arity != other.arity or self.group.factors != other.group.factors:
            return False
        g_a = g_b = 1
        if self.den != other.den:
            g_a, g_b = self._content_gcd(), other._content_gcd()
            if self.den // g_a != other.den // g_b:
                return False
        return all(
            np.array_equal(a // g_a, b // g_b) for a, b in zip(self.slabs(), other.slabs())
        )

    __hash__ = None  # unhashable; tables are compared by content

    @classmethod
    def _from_table(cls, group, arity, table, den):
        """A cochain in lowest terms that takes ownership of `table`, a fresh
        int64 array already reduced mod den."""
        table, den = _lowest_terms(table, den)
        if arity == 3 and issubclass(cls, Cochain3):
            kind = Cochain3
        elif arity == 2 and issubclass(cls, Cochain2):
            kind = Cochain2
        else:
            kind = CochainTable
        out = kind.__new__(kind)
        out._adopt(group, arity, table, den)
        return out

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(group={self.group.factors}, den={self.den}, "
            f"nonzero={sum(np.count_nonzero(s) for s in self.slabs())})"
        )


def _lowest_terms(table: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """(table, den) divided by the gcd of den and every entry; entries in [0, den)."""
    g = gcd(int(np.gcd.reduce(table, axis=None)), den)
    return (table // g, den // g) if g > 1 else (table, den)


def require_cochain(cochain, arity: int, group=None, name="phi", error=CochainError) -> None:
    """Refuse, before any work, a `name` that is not a cochain of `arity`
    (raising `error`) or, when `group` is given, one on another group."""
    if not isinstance(cochain, CochainTable) or cochain.arity != arity:
        raise error(f"{name} must be a {arity}-cochain, got {cochain!r}")
    if group is not None and cochain.group != group:
        raise IncompatibleGroupsError(f"{name} lives on a different group")


class _FixedArity(CochainTable):
    """The constructors shared by Cochain2 and Cochain3, whose arity is ARITY."""

    ARITY: int

    def __init__(self, group: FiniteAbelianGroup, table, den: int):
        super().__init__(group, self.ARITY, table, den)

    @classmethod
    def from_function(cls, group: FiniteAbelianGroup, fn: Callable):
        return cls(*_tabulate(group, cls.ARITY, fn))

    @classmethod
    def from_entries(cls, group: FiniteAbelianGroup, entries: Mapping):
        return cls(*_from_entries(group, cls.ARITY, entries))

    @classmethod
    def zero(cls, group: FiniteAbelianGroup):
        return cls(group, np.zeros((group.order,) * cls.ARITY, dtype=np.int64), 1)


class Cochain2(_FixedArity):
    """A normalized 2-cochain on G with values in Q/Z."""

    ARITY = 2

    @cached_property
    def coboundary(self) -> "Cochain3":
        """delta sigma (see coboundary2), in lowest terms, cached: the n^3 pass
        (the narrow sweep's slabs, `_coboundary2_slice`, copied into one n^3
        int64 table) runs once per cochain, and every later coboundary2 call,
        cocycle check or twist built from it shares this one Cochain3.
        trivializing_cochain, which proves delta tau = phi for a `Tricharacter`
        phi, caches phi here in lowest terms instead, so no table is built.
        """
        out = np.empty((self.group.order,) * 3, dtype=np.int64)
        for row, slab in zip(out, _sweep(self, _coboundary2_slice)):
            row[...] = slab
        return Cochain3._from_table(self.group, 3, out, self.den)


def _coboundary2_slice(t: np.ndarray, group: FiniteAbelianGroup, x: int) -> np.ndarray:
    """(delta sigma)(x, ., .) before reduction (see coboundary2): a `_sweep`
    chunk of four signed entries, built in place."""
    add, tx = group.add_table, t[x]
    out = tx.take(add)  # sigma(x, y+z), gathered faster by take than by indexing
    out -= t[add[x]]
    out += t
    out -= tx[:, None]
    return out


def _coboundary2_mismatch(sigma: Cochain2, phi: Cochain3) -> tuple | None:
    """The first (x, y, z) index triple, in index order, where delta sigma and
    phi differ, or None: exact, over their common denominator, and with no
    n^3 array. None at once when phi is sigma's cached coboundary; otherwise
    delta sigma's slabs come from the narrow sweep (`_sweep`) and meet phi's."""
    if phi is vars(sigma).get("coboundary"):
        return None
    den = common_denominator(sigma.den, phi.den)
    for x, (a, b) in enumerate(zip(_sweep(sigma, _coboundary2_slice), phi.slabs())):
        if sigma.den != phi.den:
            a, b = a.astype(np.int64) * (den // sigma.den), b.astype(np.int64) * (den // phi.den)
        bad = a != b
        if bad.any():
            return (x, *(int(v) for v in np.argwhere(bad)[0]))
    return None


class Cochain3(_FixedArity):
    """A normalized 3-cochain on G with values in Q/Z."""

    ARITY = 3
    # How the cocycle checks decide: "exhaustive" by the n^4 sweep, or
    # "certificate" from a tensor (Tricharacter). Reports carry it.
    cocycle_mode = "exhaustive"

    @cached_property
    def coboundary_witness(self) -> tuple | None:
        """First (w,x,y,z) index tuple where delta phi != 0, or None.

        The table is read-only, so the O(n^4) sweep (`_sweep`, one w-slice at
        a time in the narrowest exact type) runs once per cochain and every
        cocycle check on it, including check_multiplier_relation, reads this
        cached answer. A `Tricharacter` answers None without a sweep.
        """
        return _sweep_witness(self, _coboundary3_slice)

    def is_alternating(self) -> bool:
        """True when the value dies on any repeated argument."""
        n = self.group.order
        r = np.arange(n)
        t = self.table
        return not (t[r, r, :].any() or t[r, :, r].any() or t[:, r, r].any())


def _tabulate(group, arity, fn):
    elems = group.elements
    cells = (
        (idx, fn(*(elems[i] for i in idx))) for idx in np.ndindex(*(group.order,) * arity)
    )
    return _exact_table(group, arity, cells, Phase)


def _from_entries(group, arity, entries):
    def cells():
        for args, value in entries.items() if isinstance(entries, Mapping) else entries:
            idx = tuple(group.element(a).index for a in args)
            if len(idx) != arity:
                raise CochainError(f"entry {args} has wrong arity, expected {arity}")
            yield idx, value

    return _exact_table(group, arity, cells(), Phase.parse)


def _exact_table(group, arity, cells, parse):
    """(group, int64 table, den) from (index, value) cells, each value read by
    `parse` into a Phase; cells not given are zero. A value that is no phase
    raises CochainError, and so does the lcm denominator above 2^62, before
    any numerator is written to int64."""
    parsed = []
    den = 1
    for idx, value in cells:
        try:
            p = parse(value)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise CochainError(f"value {value!r} at index {idx} is not a phase: {exc}") from None
        parsed.append((idx, p))
        den = lcm(den, p.denominator)
    _require_denominator(den)
    table = np.zeros((group.order,) * arity, dtype=np.int64)
    for idx, p in parsed:
        table[idx] = p.numerator * (den // p.denominator)
    return group, table, den


def _stage_modulus(group: FiniteAbelianGroup, modulus: int | None) -> int:
    """The modulus m of a coordinate form on `group`, refused when one stage of
    the staged build (`_contract_last`) could leave int64: a stage sums `rank`
    products of a coordinate (at most max factor - 1) and a residue (at most
    m - 1)."""
    m = group.exponent if modulus is None else int(modulus)
    if m < 1:
        raise CochainError(f"modulus must be positive, got {m}")
    if m >= 2**63 or group.rank * (max(group.factors) - 1) * (m - 1) >= 2**63:
        raise CochainError(
            f"modulus {m} is too large for factors {group.factors}: a stage sum of "
            "rank * (max factor - 1) * (m - 1) would not fit in int64"
        )
    return m


def _incompatible_slot(residues: np.ndarray, factors, m: int) -> int | None:
    """First slot whose factor n the residue tensor does not respect (m must
    divide every entry times n), else None. Tested as entry mod m / gcd(m, n),
    which forms no product."""
    periods = m // np.gcd(np.array(factors, dtype=np.int64), m)
    for axis in range(residues.ndim):
        shape = [1] * residues.ndim
        shape[axis] = -1
        if (residues % periods.reshape(shape)).any():
            return axis
    return None


def _contract_last(coords: np.ndarray, arr: np.ndarray, m: int) -> np.ndarray:
    """out[a, ...] = sum_i coords[a, i] arr[..., i] mod m.

    Contracts the last index of `arr` against every element's coordinates and
    puts the element index first. With arr reduced mod m and m from
    `_stage_modulus`, the sum stays inside int64.
    """
    out = np.tensordot(coords, arr, axes=([1], [arr.ndim - 1]))
    np.remainder(out, m, out=out)
    return out


class Tricharacter(Cochain3):
    """phi(a,b,c) = (1/m) sum_ijk M[i,j,k] a_i b_j c_k, multilinear in each slot.

    The tensor must be compatible with the factors: m | M[i,j,k] * n  for the
    factor n attached to each slot index, otherwise the form does not descend
    to the group and multilinearity breaks under coordinate reduction.

    A tricharacter holds its validated tensor (residues mod m) and nothing
    else. Whole-table readers on the hot paths stream it through `slabs`,
    (n, n) slices built from the tensor; is_zero and is_alternating, and the
    cocycle identities (coboundary_witness), are decided on the tensor. The
    dense n^3 `table` is built only when a reader asks for it whole (sweeps
    on plain copies, restrict, complex_table, digests) and then cached.
    Sums, differences and negations of tricharacters are tricharacters,
    formed on the tensors (`_combine`); with a plain operand they are plain.
    """

    cocycle_mode = "certificate"  # see coboundary_witness

    def __init__(self, group: FiniteAbelianGroup, tensor, modulus: int | None = None):
        tensor = np.asarray(tensor, dtype=np.int64)
        k = group.rank
        if tensor.shape != (k, k, k):
            raise TensorShapeError(
                f"tensor shape {tensor.shape} does not match group rank {k}"
            )
        m = _stage_modulus(group, modulus)
        tensor = tensor % m  # only the residues matter
        axis = _incompatible_slot(tensor, group.factors, m)
        if axis is not None:
            raise TensorShapeError(
                f"tensor is incompatible with the factors in slot {axis}: "
                f"need modulus {m} to divide every entry times the slot factor"
            )
        tensor.setflags(write=False)
        self.group = group
        self.arity = 3
        self.den = m
        self.tensor = tensor
        self.modulus = m

    @cached_property
    def table(self) -> np.ndarray:
        """The dense n^3 table, built one index at a time, reducing mod m
        after each stage: Q[c,i,j] = sum_k c_k M[i,j,k], then
        P[b,c,i] = sum_j b_j Q[c,i,j], then table[a,b,c] = sum_i a_i P[b,c,i].
        That costs about n^3 k multiply-adds for rank k, against n^3 k^3 for
        the direct sum; `_stage_modulus` keeps each stage inside int64."""
        table = self.tensor
        for _ in range(3):
            table = _contract_last(self.group.coords, table, self.modulus)
        table.setflags(write=False)
        return table

    def slabs(self) -> Iterator[np.ndarray]:
        """phi(x, ., .) for x in index order, by linearity in the first slot:
        slab(x) = slab(x - 1) + slab(s) with s = x - (x - 1), a running sum
        (`_running_sum`) from slab(0) = 0 whose steps are built from the
        tensor (`_step_slab`), at most `rank` of them.
        """
        n = self.group.order
        return self._running_sum(np.zeros((n, n), dtype=np.int64), self._step_slab)

    def sheared_rows(self) -> Iterator[np.ndarray]:
        """c(w - y, y - z, z) over [y, z] for w in index order, as a running sum
        like `slabs`: by linearity in the first slot, row(w) = row(w - 1) +
        c(s, y - z, z) with s = w - (w - 1), and c(s, y - z, z) = c(s, y, z) -
        c(s, z, z) is s's slab minus its diagonal along z. Row 0 is
        c(-y, y - z, z) = c(y, z, z) - c(y, y, z) by linearity in the first two
        slots, built from the tensor in n^2 k steps for rank k, each stage
        inside the bound of `_stage_modulus`. O(n^2) memory and no gather.
        """
        g, m, t = self.group, self.modulus, self.tensor
        coords = g.coords
        yy = np.einsum("yj,yjk->yk", coords, np.tensordot(coords, t, axes=1) % m) % m
        zz = np.einsum("zj,zij->zi", coords, _contract_last(coords, t, m)) % m
        # yy[y, k] = c(y, y, e_k) and zz[z, i] = c(e_i, z, z)
        first = (coords @ zz.T - yy @ coords.T) % m

        def step(s):
            slab = self._step_slab(s)
            return (slab - np.diagonal(slab)) % m

        return self._running_sum(first, step)

    def _step_slab(self, s: int) -> np.ndarray:
        """c(s, ., .) as an (n, n) int64 array of residues, from the tensor in
        n^2 k steps (as in `bicharacter_from_matrix`)."""
        g, m = self.group, self.modulus
        rows = np.tensordot(g.coords[s], self.tensor, axes=1) % m  # [j, k]
        return _contract_last(g.coords, _contract_last(g.coords, rows, m), m)

    def _running_sum(self, first: np.ndarray, step: Callable) -> Iterator[np.ndarray]:
        """first, then row(x) = row(x - 1) + step(s) with s = x - (x - 1), for x
        in index order: the rows of a form linear in its first slot.

        In lexicographic order s is e_j + ... + e_(k-1) for the coordinate j
        that carries, so it takes at most `rank` values, and step(s), residues
        mod m, is called once for each. The running sum stays in the unsigned
        type of 2 (m - 1), where min(s, s - m) reduces a sum of two residues:
        s - m wraps above s unless s >= m. Each row is a fresh read-only array.
        """
        g, m = self.group, self.modulus
        dtype = np.min_scalar_type(2 * (m - 1))
        steps = {}
        row = first.astype(dtype)
        del first  # a paused generator keeps no int64 row
        row.setflags(write=False)
        yield row
        for x in range(1, g.order):
            s = int(g.sub_table[x, x - 1])
            if s not in steps:
                steps[s] = step(s).astype(dtype)
            row = row + steps[s]
            np.minimum(row, row - m, out=row)
            row.setflags(write=False)
            yield row

    def _combine(self, other: CochainTable, sign: int) -> CochainTable:
        """self + sign * other. Two tricharacters combine as one, in lowest
        terms, whose tensor is the signed sum of theirs scaled to the common
        modulus; a plain other, or a common modulus past the bound of the
        staged build (`_stage_modulus`), gives the plain table instead."""
        if isinstance(other, Tricharacter):
            self.group._require_same(other.group)
            d = common_denominator(self.den, other.den)
            tensor = self.tensor * (d // self.den) + sign * other.tensor * (d // other.den)
            try:
                total = Tricharacter(self.group, tensor, d)
            except CochainError:  # d too large for the staged build
                pass
            else:
                return _lowest_terms_form(total)
        return super()._combine(other, sign)

    def _negated(self) -> "Tricharacter":
        return _lowest_terms_form(Tricharacter(self.group, -self.tensor, self.modulus))

    def is_zero(self) -> bool:
        """Zero exactly when the reduced tensor is: phi(e_i, e_j, e_k) = M[i,j,k]."""
        return not self.tensor.any()

    def is_alternating(self) -> bool:
        """Decided on the tensor. phi dies on a repeated pair of slots p, q
        exactly when M has zero diagonal in (p, q) and M + M^T (transposed in
        p, q) is 0 mod m: evaluating at e_i and at e_i + e_j in both slots
        gives these, and they make the quadratic form in those slots vanish.
        """
        t, m = self.tensor, self.modulus
        return not any(
            np.diagonal(t, axis1=p, axis2=q).any() or (t != -t.swapaxes(p, q) % m).any()
            for p, q in ((0, 1), (0, 2), (1, 2))
        )

    @property
    def coboundary_witness(self) -> None:
        """None, without a sweep: a trilinear form is a 3-cocycle.

        Expanding each sum slot of
            (delta t)(w,x,y,z) = t(x,y,z) - t(w+x,y,z) + t(w,x+y,z) - t(w,x,y+z) + t(w,x,y)
        by linearity gives t(x,y,z) - t(w,y,z) - t(x,y,z) + t(w,x,z) + t(w,y,z)
        - t(w,x,y) - t(w,x,z) + t(w,x,y) = 0, term by term, with no symmetry
        of the tensor used. The factor check in the constructor makes the
        table trilinear on the group. Sums, differences and negations of
        tricharacters are tricharacters and are certified too; a sum with a
        plain cochain, and any cochain built from a tricharacter's table, is a
        plain `Cochain3` and is swept.
        """
        return None


def bicharacter_from_matrix(
    group: FiniteAbelianGroup, matrix, modulus: int | None = None
) -> Cochain2:
    """sigma(a,b) = (1/m) sum_ij B[i,j] a_i b_j; bilinear, hence a 2-cocycle.

    Built in two stages as in `Tricharacter`, with the same int64 bound on m.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    k = group.rank
    if matrix.shape != (k, k):
        raise TensorShapeError(f"matrix shape {matrix.shape} does not match group rank {k}")
    m = _stage_modulus(group, modulus)
    matrix = matrix % m  # only the residues matter
    if _incompatible_slot(matrix, group.factors, m) is not None:
        raise TensorShapeError(
            f"matrix is incompatible with the factors: need modulus {m} to divide "
            "every entry times the slot factor"
        )
    table = _contract_last(group.coords, _contract_last(group.coords, matrix, m), m)
    return Cochain2(group, table, m)


# ------------------------------------------------------------- coboundaries


def coboundary2(sigma: Cochain2) -> Cochain3:
    """(delta sigma)(x,y,z) = sigma(y,z) - sigma(x+y,z) + sigma(x,y+z) - sigma(x,y).

    One O(n^3) pass per cochain: the result is cached on sigma
    (`Cochain2.coboundary`), so repeated calls return the same Cochain3.
    """
    require_cochain(sigma, 2, name="sigma")
    return sigma.coboundary


_SWEEP_TERMS = 5  # a step of an exact sweep sums at most five signed residues


def _sweep_dtype(den: int) -> np.dtype:
    """The narrowest integer type in which every partial sum of up to five
    signed residues in [0, den) is exact mod den.

    uint8 when den divides 256: its wraparound is arithmetic mod 256, which is
    exact mod den. Otherwise the first of int16, int32 and int64 whose range
    holds 5 * (den - 1), so no partial sum wraps. Otherwise Python integers
    (object), which never wrap.
    """
    if 256 % den == 0:
        return np.dtype(np.uint8)
    for dtype in (np.int16, np.int32, np.int64):
        if _SWEEP_TERMS * (den - 1) <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(object)


def _sweep(phi: CochainTable, chunk: Callable) -> Iterator[np.ndarray]:
    """chunk(table, group, i) mod den for each index i of phi's first slot.

    The one driver of the exact sweeps: the n^4 cocycle sweeps of 3-cochains
    and the n^3 coboundary of a 2-cochain. `table` is a copy of phi's table
    in `_sweep_dtype(den)` (phi's own read-only table in the int64 case),
    made here and dropped when the sweep ends, never cached on the cochain.
    A chunk sums at most five signed entries of it and may be built in place;
    the driver reduces it mod den in place (for uint8, whose wraparound is
    already arithmetic mod 256, by masking).
    """
    den = phi.den
    table = phi.table.astype(_sweep_dtype(den), copy=False)
    for i in range(phi.group.order):
        out = chunk(table, phi.group, i)
        if out.dtype != np.uint8:
            np.remainder(out, den, out=out)
        elif den != 256:
            np.bitwise_and(out, den - 1, out=out)
        yield out


def _sweep_witness(phi: CochainTable, chunk: Callable) -> tuple | None:
    """(i, *index of the first nonzero entry in chunk i) over `_sweep`, or None."""
    for i, out in enumerate(_sweep(phi, chunk)):
        if out.any():
            return (i, *(int(v) for v in np.argwhere(out)[0]))
    return None


def _coboundary3_slice(t: np.ndarray, group: FiniteAbelianGroup, w: int) -> np.ndarray:
    """(delta phi)(w, x, y, z) over all (x, y, z) before reduction, for one
    index w: a `_sweep` chunk, built in place and indexed [x, y, z]."""
    add = group.add_table
    tw = t[w]
    out = tw[add]  # phi(w, x+y, z)
    out -= t[add[w]]  # phi(w+x, y, z)
    out += t  # phi(x, y, z)
    out -= tw[:, add]  # phi(w, x, y+z)
    out += tw[:, :, None]  # phi(w, x, y)
    return out


def coboundary3(phi: Cochain3) -> CochainTable:
    """(delta phi)(w,x,y,z) with the alternating-sum convention; arity-4 int64 table."""
    out = np.empty((phi.group.order,) * 4, dtype=np.int64)
    for w, chunk in enumerate(_sweep(phi, _coboundary3_slice)):
        out[w] = chunk
    return CochainTable._from_table(phi.group, 4, out, phi.den)


def is_cocycle2(sigma: Cochain2) -> bool:
    return coboundary2(sigma).is_zero()


def _witness(phi: Cochain3) -> tuple | None:
    """phi's `coboundary_witness`, once phi is known to be a 3-cochain."""
    require_cochain(phi, 3)
    return phi.coboundary_witness


def is_cocycle3(phi: Cochain3) -> bool:
    """delta phi = 0: certified from the tensor for a `Tricharacter`, else
    decided by the exhaustive n^4 sweep, run once per cochain and cached
    (`Cochain3.coboundary_witness`)."""
    return _witness(phi) is None


def cocycle3_witness(phi: Cochain3):
    """None when phi is a cocycle, else the first failing (w,x,y,z) as elements.

    A `Tricharacter`, including a sum, difference or negation of
    tricharacters, is certified (None at once); every other cochain is swept
    exhaustively."""
    w = _witness(phi)
    return None if w is None else tuple(phi.group.element(i) for i in w)


def require_cocycle3(phi: Cochain3) -> None:
    """Raise NotACocycleError with the failing quadruple unless delta phi = 0.

    Returns at once for a `Tricharacter` (certified from the tensor); every
    other cochain reads its cached exhaustive sweep."""
    if _witness(phi) is not None:
        witness = tuple(phi.group.element(i) for i in phi.coboundary_witness)
        raise NotACocycleError(
            f"phi is not a 3-cocycle, delta phi != 0 at {witness}", witness=witness
        )


# ----------------------------------------------------- multiplier from phi


class PhiMultiplier:
    """u(beta, gamma): the diagonal unitary with entries exp(2 pi i phi(., beta, gamma)).

    Acts on functions over the group in enumeration order. Only cocycles are
    accepted; the construction is rejected otherwise with the failing
    coboundary quadruple.
    """

    def __init__(self, phi: Cochain3):
        require_cocycle3(phi)
        self.phi = phi
        self.group = phi.group

    def phases(self, beta, gamma) -> list[Phase]:
        """Exact diagonal phases phi(alpha, beta, gamma) over alpha in order."""
        ib = self.group.element(beta).index
        ig = self.group.element(gamma).index
        col = self.phi.table[:, ib, ig]
        return [Phase(int(v), self.phi.den) for v in col]

    def diagonal(self, beta, gamma) -> np.ndarray:
        ib = self.group.element(beta).index
        ig = self.group.element(gamma).index
        return self.phi.complex_table[:, ib, ig]

    def __call__(self, beta, gamma) -> np.ndarray:
        return np.diag(self.diagonal(beta, gamma))


def check_multiplier_relation(phi: Cochain3):
    """Exact check of
        phi(a,b,c) u(a,b) u(a+b,c) = xi_a[u(b,c)] u(a,b+c)
    on every diagonal entry, where xi_a translates the diagonal by a. Returns
    None on success, else a failing (a, b, c, entry) index tuple.

    With u(b, c)(g) = exp(2 pi i phi(g, b, c)) the defect at (a, b, c, g) is
    (delta phi)(g, a, b, c), term for term, so the relation holds exactly
    when phi is a 3-cocycle. The check therefore reads
    `Cochain3.coboundary_witness`: a `Tricharacter` is certified from its
    tensor and costs no sweep; any other cochain reads its cached cocycle
    sweep, so a cold call costs one sweep and a warm one none. The witness
    (w, x, y, z) is returned as (x, y, z, w), the first failing cell in that
    sweep's (w, x, y, z) order, not in (a, b, c, entry) order.
    """
    witness = _witness(phi)
    if witness is None:
        return None
    g, a, b, c = witness
    return (a, b, c, g)


# ----------------------------------------------------------- restriction


def _restricted_table(phi: Cochain3, generators):
    """The subgroup generated by `generators` and phi's table over it, as one
    slice of the ambient table indexed like the subgroup's elements."""
    H = subgroup_elements(phi.group, generators)
    idx = [h.index for h in H]
    return H, phi.table[np.ix_(idx, idx, idx)]


def restrict(phi: Cochain3, generators) -> dict:
    """The table of phi over the subgroup generated by the given elements.

    Returns {(h1.coords, h2.coords, h3.coords): Phase} over all triples of
    the closure, in enumeration order of the ambient group.
    """
    H, block = _restricted_table(phi, generators)
    keys = [h.coords for h in H]
    return {
        (keys[i], keys[j], keys[k]): Phase(int(v), phi.den)
        for (i, j, k), v in np.ndenumerate(block)
    }


def is_trivial_on(phi: Cochain3, generators) -> bool:
    """True when phi restricts to zero on the generated subgroup."""
    return not _restricted_table(phi, generators)[1].any()


# ------------------------------------------------- trivializing 2-cochains


def trivializing_cochain(phi: Cochain3) -> Cochain2:
    """A 2-cochain tau with (delta tau) = phi, when one can be written down.

    Supported inputs: the zero cochain (tau = 0) and tensor tricharacters
    whose doubled tensor vanishes mod m (2-torsion classes), where the
    quadratic cochain tau(a,b) = -(1/m) sum_{i<j,k} M[i,j,k] a_i a_j b_k
    works. delta tau = phi is checked exactly by the narrow sweep
    (`_coboundary2_mismatch`), so no n^3 table is built; on success tau's
    cached coboundary is phi itself in lowest terms (`_lowest_terms_form`),
    a tricharacter that a twist built from tau carries as its phi. Anything
    else raises, since such classes (e.g. the epsilon tensor mod 4 on three
    Z/4 factors) are not coboundaries at all.
    """
    if phi.is_zero():
        return Cochain2.zero(phi.group)
    if isinstance(phi, Tricharacter) and not ((2 * phi.tensor) % phi.modulus).any():
        k, m = phi.group.rank, phi.modulus
        upper = np.triu(np.ones((k, k), dtype=np.int64), 1)
        N = (-phi.tensor * upper[:, :, None]) % m
        coords = phi.group.coords
        # S[b,i,j] = sum_k b_k N[i,j,k], then U[a,b,i] = sum_j a_j S[b,i,j],
        # then tau[a,b] = sum_i a_i U[a,b,i]: n^2 k^2 work instead of n^2 k^3.
        U = _contract_last(coords, _contract_last(coords, N, m), m)
        table = np.einsum("abi,ai->ab", U, coords) % m
        tau = Cochain2(phi.group, table, m)
        if _coboundary2_mismatch(tau, phi) is None:
            tau.coboundary = _lowest_terms_form(phi)
            return tau
    raise CochainError(
        "no trivializing 2-cochain available: phi is not recognizably a "
        "coboundary (2 * tensor != 0 mod m obstructs the quadratic ansatz)"
    )


def _lowest_terms_form(phi: Tricharacter) -> Tricharacter:
    """phi over the smallest modulus, as _lowest_terms gives its table: the
    gcd of m and the tensor is the gcd of m and the table, since the table
    holds the tensor's entries at the basis triples and is made of them."""
    g = gcd(phi.modulus, int(np.gcd.reduce(phi.tensor, axis=None)))
    return phi if g == 1 else Tricharacter(phi.group, phi.tensor // g, phi.modulus // g)
