"""Normalized group cochains with exact rational values.

Tables are stored as integer numerators over a single common denominator, so
coboundaries and cocycle identities are evaluated in exact integer arithmetic
(vectorized with numpy). Values come in and out as `Phase` objects. A plain
table holds its residues in [0, den) in the narrowest type that holds den - 1
(`_storage_dtype`: uint8 up to den = 256, then uint16, uint32, and int64 past
2^32); every sum, difference, negation or multiple of entries widens them to
int64 first, or runs in the exact sweep type (`_sweep_dtype`).

delta has one chunk for every arity (`_coboundary_chunk`), whose k + 2 terms
bound its sweep type. Arities 2 and 3 each have one plain class (`Cochain2`,
`Cochain3`): sums, coboundaries and constructors return it, and a bare
`CochainTable` of those arities is refused.

A k-cochain here is always normalized: it vanishes whenever any argument is
the identity. Tricharacters (multilinear phase forms built from an integer
3-tensor mod m) are the cocycles of interest for the twisted-kernel and
crossed-product machinery; a general cocycle need not be one, and operations
that require antisymmetry check for it rather than assume it.
"""

from __future__ import annotations

from functools import cached_property, partial, reduce
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    CochainError,
    IncompatibleGroupsError,
    NotACocycleError,
    TensorShapeError,
    require_int,
)
from .groups import FiniteAbelianGroup, GroupElement, subgroup_elements
from .phases import _QUARTER_TURNS, Phase, exp_phases


_QUARTER_DIFFERENCES = np.subtract.outer(_QUARTER_TURNS, _QUARTER_TURNS).ravel()  # at 4 j + k


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


def _require_denominator(den: int) -> None:
    """Refuse a denominator that is not an integer (`require_int`), below 1
    or above 2^62, the bound of common_denominator: below it, numerators and
    sums of two of them fit in int64."""
    if require_int(den, "denominator", error=CochainError) < 1:
        raise CochainError(f"denominator must be positive, got {den}")
    if den > 2**62:
        raise CochainError(
            f"denominator {den} exceeds 2^62; sums of its numerators would not fit in int64"
        )


def _storage_dtype(den: int) -> np.dtype:
    """The type a plain table over `den` is stored in: the narrowest unsigned
    type that holds den - 1 (uint8 up to den = 256, then uint16, then uint32).
    Past 2^32 it is int64, not uint64, which numpy promotes to float64 when
    mixed with int64."""
    return np.min_scalar_type(den - 1) if den <= 2**32 else np.dtype(np.int64)


def _stored(rows: Iterable[np.ndarray], shape: tuple, den: int) -> np.ndarray:
    """A fresh table of `shape` in `_storage_dtype(den)` whose leading slices
    are `rows`, residues in [0, den) of any integer type, written one at a
    time: no full-size wider array is formed."""
    table = np.empty(shape, dtype=_storage_dtype(den))
    for i, row in enumerate(rows):  # by index: a 1-D table's items are scalars
        table[i] = row
    return table


def _require_shape(group: FiniteAbelianGroup, arity: int, shape: tuple) -> None:
    n = group.order
    if shape != (n,) * arity:
        raise CochainError(f"table shape {shape} does not match arity {arity} over order {n}")


class CochainTable:
    """A normalized k-cochain as an integer table over a common denominator."""

    def __init__(self, group: FiniteAbelianGroup, arity: int, table: np.ndarray, den: int):
        """Any integer table, of which a reduced copy mod den is stored, one
        leading slice at a time, widened to int64 only while it is reduced.
        Arities 2 and 3 are built through their class (`_KINDS`) alone."""
        if type(self) is CochainTable and arity in _KINDS:
            kind = _KINDS[arity].__name__
            raise CochainError(f"a {arity}-cochain is built as {kind}, not as a bare CochainTable")
        table = np.asarray(table)
        if table.dtype.kind not in "iu":
            table = table.astype(np.int64)
        _require_denominator(den)
        _require_shape(group, arity, table.shape)
        rows = (np.remainder(row, den, dtype=np.int64) for row in table)
        self._adopt(group, arity, _stored(rows, table.shape, den), den)

    def _adopt(self, group: FiniteAbelianGroup, arity: int, table: np.ndarray, den: int):
        """Take ownership of `table`, a fresh array of residues mod den in
        `_storage_dtype(den)`: check den, the shape and normalization, and
        freeze it, without a copy.

        Every cochain passes here, so this is where a denominator above 2^62 is
        refused, the bound of common_denominator: below it, numerators and sums
        of two of them fit in int64.
        """
        _require_denominator(den)
        _require_shape(group, arity, table.shape)
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
        array of residues in [0, den) in an integer type: the rows in which
        the duality check (`crossed`) reads a 3-cochain. A plain table gathers
        each row from its table, in the table's own type; a `Tricharacter`
        builds them as a running sum from its tensor, like its slabs, and
        forms no n^3 array. Each row is a fresh array.
        """
        n, sub = self.group.order, self.group.sub_table
        cells = sub * n + np.arange(n)  # (y - z, z) over [y, z], flat into n x n
        for w in range(n):  # one flat take: faster than indexing with three arrays
            yield self.table.take(sub[w, :, None] * (n * n) + cells)

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
        narrow table from the two operands' slabs, each pair summed in int64,
        so neither operand's whole table is read and no full-size temporary
        is formed."""
        if not isinstance(other, CochainTable) or other.arity != self.arity:
            raise CochainError("can only combine cochains of equal arity")
        self.group._require_same(other.group)
        d = common_denominator(self.den, other.den)
        scale, step = d // self.den, sign * (d // other.den)

        def rows():
            for a, b in zip(self.slabs(), other.slabs()):
                row = np.multiply(a, scale, dtype=np.int64)
                row += np.multiply(b, step, dtype=np.int64)
                row %= d  # in place; a 1-cochain's rows are scalars, rebound
                yield row

        shape = (self.group.order,) * self.arity
        return type(self)._from_table(self.group, self.arity, _stored(rows(), shape, d), d)

    def __add__(self, other: "CochainTable") -> "CochainTable":
        return self._combine(other, 1)

    def __sub__(self, other: "CochainTable") -> "CochainTable":
        return self._combine(other, -1)

    def __neg__(self) -> "CochainTable":
        return self._negated()

    def _negated(self) -> "CochainTable":
        rows = (np.remainder(np.negative(row, dtype=np.int64), self.den) for row in self.table)
        out = _stored(rows, self.table.shape, self.den)
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
            if g_a == self.den:  # both zero; den itself may not fit the slabs' type
                return True
        return all(
            np.array_equal(a // g_a, b // g_b) for a, b in zip(self.slabs(), other.slabs())
        )

    __hash__ = None  # unhashable; tables are compared by content

    @classmethod
    def _from_table(cls, group, arity, table, den):
        """A cochain in lowest terms that takes ownership of `table`, a fresh
        array of residues mod den in `_storage_dtype(den)`: divided in place,
        and narrowed when the lower denominator allows a narrower type. It is
        of the plain class of its arity (`_KINDS`), whatever `cls` is."""
        table, den = _lowest_terms(table, den, out=table)
        table = table.astype(_storage_dtype(den), copy=False)
        kind = _KINDS.get(arity, CochainTable)
        out = kind.__new__(kind)
        out._adopt(group, arity, table, den)
        return out

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(group={self.group.factors}, den={self.den}, "
            f"nonzero={sum(np.count_nonzero(s) for s in self.slabs())})"
        )


def _lowest_terms(table: np.ndarray, den: int, out=None) -> tuple[np.ndarray, int]:
    """(table, den) divided by the gcd of den and every entry; entries in [0, den),
    divided into `out` when given. When that gcd is den every entry is zero
    and the table is returned as it is, over 1: den itself may not fit its type."""
    g = gcd(int(np.gcd.reduce(table, axis=None)), den)
    if g == 1:
        return table, den
    return (table if g == den else np.floor_divide(table, g, out=out)), den // g


def require_cochain(cochain, arity: int, group=None, name="phi", error=CochainError) -> None:
    """Refuse, before any work, a `name` that is not a cochain of `arity`
    (raising `error`) or, when `group` is given, one on another group."""
    if not isinstance(cochain, CochainTable) or cochain.arity != arity:
        raise error(f"{name} must be a {arity}-cochain, got {cochain!r}")
    if group is not None and cochain.group != group:
        raise IncompatibleGroupsError(f"{name} lives on a different group")


class _FixedArity(CochainTable):
    """What Cochain2 and Cochain3, of arity ARITY, share: constructors, witness."""

    ARITY: int

    def __init__(self, group: FiniteAbelianGroup, table, den: int):
        super().__init__(group, self.ARITY, table, den)

    @classmethod
    def from_function(cls, group: FiniteAbelianGroup, fn: Callable):
        return cls._from_table(group, cls.ARITY, *_tabulate(group, cls.ARITY, fn))

    @classmethod
    def from_entries(cls, group: FiniteAbelianGroup, entries: Mapping):
        return cls._from_table(group, cls.ARITY, *_from_entries(group, cls.ARITY, entries))

    @classmethod
    def zero(cls, group: FiniteAbelianGroup):
        table = np.zeros((group.order,) * cls.ARITY, dtype=np.uint8)
        return cls._from_table(group, cls.ARITY, table, 1)

    @cached_property
    def coboundary_witness(self) -> tuple | None:
        """First index tuple where delta of this cochain is nonzero, or None.

        The table is read-only, so the n^(k+1) sweep (`_sweep`, one first-slot
        index at a time in the narrowest exact type) runs once per cochain and
        every cocycle check on it, check_multiplier_relation and extract_sigma
        included, reads this cached answer. A `Tricharacter` answers None
        without a sweep.
        """
        return _sweep_witness(self, _coboundary_chunk)


class Cochain2(_FixedArity):
    """A normalized 2-cochain on G with values in Q/Z."""

    ARITY = 2

    @cached_property
    def coboundary(self) -> "Cochain3":
        """delta sigma (see coboundary2), in lowest terms, cached: the n^3 pass
        (`_coboundary`) runs once per cochain, and every later coboundary2
        call or twist built from it shares this one Cochain3.
        trivializing_cochain, which proves delta tau = phi for a `Tricharacter`
        phi, caches phi here in lowest terms instead, so no table is built.
        """
        return _coboundary(self)


def _coboundary2_mismatch(sigma: Cochain2, phi: Cochain3) -> tuple | None:
    """The first (x, y, z) index triple, in index order, where delta sigma and
    phi differ, or None: exact, over their common denominator, and with no
    n^3 array. None at once when phi is sigma's cached coboundary; otherwise
    delta sigma's slabs come from the narrow sweep (`_sweep`) and meet phi's."""
    if phi is vars(sigma).get("coboundary"):
        return None
    den = common_denominator(sigma.den, phi.den)
    pairs = zip(_sweep(sigma, _coboundary_chunk), phi.slabs())
    if sigma.den != phi.den:
        s, p = den // sigma.den, den // phi.den
        pairs = ((a.astype(np.int64) * s, b.astype(np.int64) * p) for a, b in pairs)
    return _first_nonzero(a != b for a, b in pairs)


class Cochain3(_FixedArity):
    """A normalized 3-cochain on G with values in Q/Z."""

    ARITY = 3
    # How the cocycle checks decide: "exhaustive" by the n^4 sweep, or
    # "certificate" from a tensor (Tricharacter). Reports carry it.
    cocycle_mode = "exhaustive"

    def is_alternating(self) -> bool:
        """True when the value dies on any repeated argument."""
        n = self.group.order
        r = np.arange(n)
        t = self.table
        return not (t[r, r, :].any() or t[r, :, r].any() or t[:, r, r].any())


_KINDS = {2: Cochain2, 3: Cochain3}  # the one plain class of each fixed arity


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
    """(table, den) from (index, value) cells, each value read by `parse` into
    a Phase, with the table in `_storage_dtype(den)`; cells not given are
    zero. A value that is no phase raises CochainError, and so does the lcm
    denominator above 2^62, before any numerator is written."""
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
    table = np.zeros((group.order,) * arity, dtype=_storage_dtype(den))
    for idx, p in parsed:
        table[idx] = p.numerator * (den // p.denominator)
    return table, den


def _stage_modulus(group: FiniteAbelianGroup, modulus: int | None) -> int:
    """The modulus m of a coordinate form on `group`, refused when one stage of
    the staged build (`_contract_last`) could leave int64: a stage sums `rank`
    products of a coordinate (at most max factor - 1) and a residue (at most
    m - 1)."""
    m = group.exponent if modulus is None else require_int(modulus, "modulus", 1, CochainError)
    if m >= 2**63 or group.rank * (max(group.factors) - 1) * (m - 1) >= 2**63:
        raise CochainError(
            f"modulus {m} is too large for factors {group.factors}: a stage sum of "
            "rank * (max factor - 1) * (m - 1) would not fit in int64"
        )
    return m


def _form_residues(group: FiniteAbelianGroup, array, arity: int, modulus, name: str):
    """(array mod m, m) for the integer coefficients of a coordinate form of
    `arity` slots (a bicharacter's matrix, a tricharacter's tensor), m from
    `_stage_modulus`. Raises TensorShapeError unless the array is rank^arity
    and respects every slot's factor n: m must divide every entry times n,
    tested as entry mod m / gcd(m, n), which forms no product."""
    array = np.asarray(array, dtype=np.int64)
    k = group.rank
    if array.shape != (k,) * arity:
        raise TensorShapeError(f"{name} shape {array.shape} does not match group rank {k}")
    m = _stage_modulus(group, modulus)
    array = array % m  # only the residues matter
    periods = m // np.gcd(np.array(group.factors, dtype=np.int64), m)
    for axis in range(arity):
        shape = [1] * arity
        shape[axis] = -1
        if (array % periods.reshape(shape)).any():
            raise TensorShapeError(
                f"{name} is incompatible with the factors in slot {axis}: "
                f"need modulus {m} to divide every entry times the slot factor"
            )
    return array, m


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
    A table has no tensor, so `from_entries`, `from_function` and `zero`
    build the plain `Cochain3`, which is swept like any other.
    """

    cocycle_mode = "certificate"  # see coboundary_witness

    def __init__(self, group: FiniteAbelianGroup, tensor, modulus: int | None = None):
        tensor, m = _form_residues(group, tensor, 3, modulus, "tensor")
        tensor.setflags(write=False)
        self.group = group
        self.arity = 3
        self.den = m
        self.tensor = tensor
        self.modulus = m

    @cached_property
    def table(self) -> np.ndarray:
        """The dense n^3 table in `_storage_dtype(m)`, its slabs (`slabs`, a
        running sum in a narrow type) stored one at a time, so no wider n^3
        array is formed."""
        table = _stored(self.slabs(), (self.group.order,) * 3, self.modulus)
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
        slots, built from the tensor in n^2 k steps for rank k, a block of y at
        a time, each stage inside the bound of `_stage_modulus`. No gather.
        """
        g, m, t = self.group, self.modulus, self.tensor
        coords, n = g.coords, g.order
        yy = np.einsum("yj,yjk->yk", coords, np.tensordot(coords, t, axes=1) % m) % m
        zz = np.einsum("zj,zij->zi", coords, _contract_last(coords, t, m)) % m
        # yy[y, k] = c(y, y, e_k) and zz[z, i] = c(e_i, z, z)
        first = np.empty((n, n), _storage_dtype(m))
        for y in range(0, n, rows := max(1, 2**10 // n)):
            first[y : y + rows] = (coords[y : y + rows] @ zz.T - yy[y : y + rows] @ coords.T) % m

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

    Validated (`_form_residues`) and built in two stages as in `Tricharacter`,
    with the same int64 bound on m.
    """
    matrix, m = _form_residues(group, matrix, 2, modulus, "matrix")
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


def _sweep_dtype(den: int, terms: int) -> np.dtype:
    """The narrowest integer type in which every partial sum of up to `terms`
    signed residues in [0, den) is exact mod den.

    uint8 when den divides 256: its wraparound is arithmetic mod 256, which is
    exact mod den. Otherwise the first of int16, int32 and int64 whose range
    holds terms * (den - 1), so no partial sum wraps. Otherwise Python
    integers (object), which never wrap.
    """
    if 256 % den == 0:
        return np.dtype(np.uint8)
    for dtype in (np.int16, np.int32, np.int64):
        if terms * (den - 1) <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(object)


def _sweep(phi: CochainTable, chunk: Callable) -> Iterator[np.ndarray]:
    """chunk(table, group, i) mod den for each index i of phi's first slot.

    The one loop of the exact sweeps: delta of a k-cochain, k + 2 terms
    (`_coboundary_chunk`), and the multiplier combination of a 3-cochain
    (`kernels`). A chunk sums at most phi.arity + 2 signed entries of `table`,
    the term bound of `_sweep_dtype`, in buffers made once per sweep
    (`_SweepTable`): every index yields one array. `table` is phi's own table
    when stored in that type, else a copy in it, made here and dropped when
    the sweep ends, never cached. Each chunk is reduced mod den here, in place.
    """
    table = phi.table.astype(_sweep_dtype(phi.den, phi.arity + 2), copy=False).view(_SweepTable)
    table.buffers = tuple(np.empty((2,) + table.shape, table.dtype))
    for i in range(phi.group.order):
        yield _reduce(chunk(table, phi.group, i), phi.den)


class _SweepTable(np.ndarray):
    """A sweep's table, with the (out, scratch) `buffers` its chunks are built in."""


def _chunk_buffers(t: np.ndarray) -> tuple:
    """t's sweep buffers (`_SweepTable`), else two fresh arrays of its shape and type."""
    return getattr(t, "buffers", None) or tuple(np.empty((2,) + t.shape, t.dtype))


def _reduce(out: np.ndarray, den: int) -> np.ndarray:
    """out mod den, in place, for an array in a `_sweep_dtype`: uint8, whose
    wraparound is already arithmetic mod 256, by masking."""
    if out.dtype != np.uint8:
        return np.remainder(out, den, out=out)
    return out if den == 256 else np.bitwise_and(out, den - 1, out=out)


def _first_nonzero(chunks: Iterable[np.ndarray]) -> tuple | None:
    """(i, *index of the first nonzero entry in chunk i), or None; the entry is
    found on a boolean mask, with no list of every nonzero index."""
    for i, out in enumerate(chunks):
        if out.any():
            return (i, *map(int, np.unravel_index((out != 0).argmax(), out.shape)))
    return None


def _sweep_witness(phi: CochainTable, chunk: Callable) -> tuple | None:
    """The first nonzero cell of the sweep of `chunk` over phi (`_sweep`), or None."""
    return _first_nonzero(_sweep(phi, chunk))


def _coboundary_chunk(t: np.ndarray, group: FiniteAbelianGroup, x: int) -> np.ndarray:
    """(delta c)(x, x1, ..., xk) over all (x1, ..., xk) before reduction, for a
    table t of any arity k and one index x: a `_sweep` chunk of the k + 2
    terms of
        c(x1, ..., xk) - c(x + x1, x2, ...) + c(x, x1 + x2, ...) - ...
            + (-1)^(k+1) c(x, x1, ..., x(k-1)),
    built in place and indexed [x1, ..., xk]. Each sum slot is one `take`
    along one axis, faster than fancy indexing."""
    add, tx, k = group.add_table, t[x], t.ndim  # tx: c(x, ...), arity k - 1
    (out, scratch), take = _chunk_buffers(t), partial(np.take, mode="clip")  # in range
    # c(x, x1 + x2, ...) written first (c(x1) itself at arity 1): no negation pass
    take(tx, add, axis=0, out=out) if k > 1 else np.copyto(out, t)
    out -= take(t, add[x], axis=0, out=scratch)  # c(x + x1, x2, ...)
    for axis in range(1, k - 1):  # c(x, x1, ..., x(axis+1) + x(axis+2), ...)
        (np.subtract if axis % 2 else np.add)(out, take(tx, add, axis=axis, out=scratch), out=out)
    if k > 1:
        out += t  # c(x1, ..., xk)
    (np.add if k % 2 else np.subtract)(out, t[x, ..., None], out=out)  # c(x, x1, ..., x(k-1))
    return out


def _coboundary(c: CochainTable) -> CochainTable:
    """delta c, of arity k + 1, in lowest terms: the sweep's chunks
    (`_coboundary_chunk`) stored narrow (`_stored`) one at a time."""
    arity = c.arity + 1
    out = _stored(_sweep(c, _coboundary_chunk), (c.group.order,) * arity, c.den)
    return CochainTable._from_table(c.group, arity, out, c.den)


def coboundary3(phi: Cochain3) -> CochainTable:
    """(delta phi)(w,x,y,z) with the alternating-sum convention, as an arity-4
    table (`_coboundary`), not cached."""
    return _coboundary(phi)


def is_cocycle2(sigma: Cochain2) -> bool:
    """delta sigma = 0, by the cached narrow sweep (`coboundary_witness`)."""
    require_cochain(sigma, 2, name="sigma")
    return sigma.coboundary_witness is None


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
