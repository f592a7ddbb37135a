"""The storage rule of plain cochain tables, against Python-integer references.

A plain table holds its residues in the narrowest type that holds den - 1:
uint8 up to den = 256, uint16 up to 2^16, uint32 up to 2^32, and int64 past
it. Every constructor and operation below must store its result by that rule,
read-only, and compute it exactly, with entries near den - 1 where a narrow
sum, difference or multiple would wrap.
"""

import tracemalloc
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natorus import (
    Cochain2,
    Cochain3,
    CochainError,
    Tricharacter,
    TwistedGroupAlgebra,
    associativity_cocycle_sweep,
    check_multiplier_relation,
    coboundary2,
    coboundary3,
    cocycle3_witness,
    is_cocycle2,
    is_cocycle3,
    make_group,
)
from natorus import cochains
from natorus.cochains import _coboundary_chunk, _reduce, _sweep, _sweep_dtype
from natorus.kernels import _combination_defect_chunk
from natorus.phases import Phase
from natorus.twisted_algebra import levi_civita
from test_properties import (
    factor_lists,
    random_normalized_table,
    reference_tables,
    sheared_reference,
)

DENS = [1, 2, 3, 6, 12, 255, 256, 257, 65537, 2**31 + 11, 2**62]


def storage(den):
    """The rule, written out: the type a plain table over den is stored in."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if den - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def assert_stored(cochain, expected, den=None):
    """cochain holds `expected` (Python integers mod its den) over `den` when
    given, in the rule's type, read-only."""
    if den is not None:
        assert cochain.den == den
    assert cochain.table.dtype == storage(cochain.den)
    assert not cochain.table.flags.writeable
    assert (cochain.table.astype(object) == expected).all()


def near_top(rng, den, shape):
    """Residues mod den, most within 3 of den - 1, normalized (0 on the
    identity in every slot), as Python integers."""
    top = np.maximum(den - 1 - rng.integers(0, 4, size=shape).astype(object), 0)
    anywhere = rng.integers(0, 2**62, size=shape).astype(object) % den
    table = np.where(rng.random(shape) < 0.8, top, anywhere)
    for axis in range(len(shape)):
        np.moveaxis(table, axis, 0)[0] = 0
    return table


def lowest(table, den):
    """(table, den) in lowest terms, in Python integers."""
    g = gcd(den, *(int(v) for v in table.flat))
    return table // g, den // g


def coboundary2_reference(group, s, den):
    add = group.add_table
    return (s[None, :, :] - s[add, :] + s[:, add] - s[:, :, None]) % den


def draws(max_order, max_rank):
    return dict(
        factors=factor_lists(max_order=max_order, max_rank=max_rank),
        seed=st.integers(0, 2**32 - 1),
    )


@pytest.mark.parametrize("den", DENS)
@settings(max_examples=8)
@given(**draws(32, 5), other=st.sampled_from(DENS))
def test_tables_and_their_arithmetic_follow_the_storage_rule(den, factors, seed, other):
    """The constructors, +, -, unary -, == and the readers (slabs, sheared
    rows, complex weights) over den and a second denominator."""
    group = make_group(factors)
    n = group.order
    rng = np.random.default_rng(seed)
    t = near_top(rng, den, (n,) * 3)
    raw = (t - den * rng.integers(0, 2, size=t.shape).astype(object)).astype(np.int64)
    phi = Cochain3(group, raw, den)  # any int64 table: a reduced copy is stored
    assert_stored(phi, t, den)
    assert_stored(Cochain3(group, phi.table, den), t, den)  # from a narrow table
    sigma = Cochain2(group, near_top(rng, den, (n, n)), den)
    assert sigma.table.dtype == storage(den)
    assert_stored(Cochain3.zero(group), np.zeros((n,) * 3, dtype=object), 1)

    assert all(
        s.dtype == storage(den) and (s.astype(object) == row).all()
        for s, row in zip(phi.slabs(), t)
    )
    rows = np.stack(list(phi.sheared_rows()))
    assert rows.dtype == storage(den) and (rows.astype(object) == sheared_reference(group, t)).all()
    weights = np.exp(2j * np.pi * (t / den).astype(float))  # int / int rounds once
    assert np.abs(phi.complex_table - weights).max() < 1e-12

    assert_stored(-phi, *lowest(-t % den, den))
    u = near_top(rng, other, (n,) * 3)
    psi = Cochain3(group, u, other)
    d = lcm(den, other)
    if d > 2**62:
        with pytest.raises(CochainError, match="exceeds 2\\^62"):
            phi + psi
        return
    for got, sign in ((phi + psi, 1), (phi - psi, -1)):
        assert type(got) is Cochain3
        assert_stored(got, *lowest((t * (d // den) + sign * u * (d // other)) % d, d))
    (a, a_den), (b, b_den) = lowest(t, den), lowest(u, other)
    assert (phi == psi) == (a_den == b_den and (a == b).all())
    if 2 * den <= 2**62:
        twice = Cochain3(group, (t * 2).astype(np.int64), 2 * den)
        assert phi == twice and twice.table.dtype == storage(2 * den)
    if n > 1:
        moved = t.copy()
        moved[1, 1, 1] = (moved[1, 1, 1] + 1) % den
        assert (phi == Cochain3(group, moved, den)) == (den == 1)


@pytest.mark.parametrize("den", DENS)
@settings(max_examples=8)
@given(**draws(32, 5))
def test_coboundaries_and_readers_of_sigma_follow_the_storage_rule(den, factors, seed):
    """coboundary2 and is_cocycle2 on a random sigma and on a coboundary
    sigma = delta f, from_entries and from_function, is_real and
    is_alternating, each against Python integers."""
    group = make_group(factors)
    n = group.order
    rng = np.random.default_rng(seed)
    s = near_top(rng, den, (n, n))
    sigma = Cochain2(group, s, den)
    expected = coboundary2_reference(group, s, den)
    assert_stored(coboundary2(sigma), *lowest(expected, den))
    assert is_cocycle2(sigma) == (not expected.any())

    f = near_top(rng, den, (n,))
    add = group.add_table
    cocycle = Cochain2(group, ((f[:, None] + f[None, :] - f[add]) % den).astype(np.int64), den)
    assert is_cocycle2(cocycle) and coboundary2(cocycle).is_zero()
    assert coboundary2(cocycle).table.dtype == np.uint8  # zero, over 1

    cells = np.ndindex(n, n)
    entries = {(group.elements[i], group.elements[j]): f"{s[i, j]}/{den}" for i, j in cells}
    made = [Cochain2.from_entries(group, entries)]
    made.append(Cochain2.from_function(group, lambda x, y: Phase(int(s[x.index, y.index]), den)))
    for got in made:
        assert_stored(got, *lowest(s, den))

    real = (2 * s % den == 0).all()
    assert TwistedGroupAlgebra(group, sigma).is_real() == real
    if den % 2 == 0:
        half = Cochain2(group, (s % 2 * (den // 2)).astype(np.int64), den)
        assert TwistedGroupAlgebra(group, half).is_real()

    t = near_top(rng, den, (n,) * 3)
    r = np.arange(n)
    for zeroed in (False, True):
        if zeroed:
            t[r, r, :] = t[r, :, r] = t[:, r, r] = 0
        alternating = not (t[r, r, :].any() or t[r, :, r].any() or t[:, r, r].any())
        assert Cochain3(group, t, den).is_alternating() == alternating


@pytest.mark.parametrize("den", DENS)
@settings(max_examples=4)
@given(**draws(12, 3), mutate=st.booleans())
def test_sweeps_on_narrow_tables_are_exact(den, factors, seed, mutate):
    """The cocycle sweeps, check_multiplier_relation, coboundary3 and every
    block of the multiplier-combination sweep (from xi = 1; the table is zero
    at xi = 0) on delta sigma for sigma near den - 1, with one entry moved or
    not, against the Python-integer tables."""
    group = make_group(factors)
    n = group.order
    rng = np.random.default_rng(seed)
    t = coboundary2_reference(group, near_top(rng, den, (n, n)), den)
    if mutate and n > 1:
        t[tuple(rng.integers(1, n, size=3))] = max(den - 1 - int(rng.integers(0, 3)), 0)
    phi = Cochain3(group, t.astype(np.int64), den)
    delta, _, assoc = reference_tables(phi)
    first = next((tuple(int(v) for v in i) for i in np.argwhere(delta)), None)
    assert phi.coboundary_witness == first and is_cocycle3(phi) == (first is None)
    assert check_multiplier_relation(phi) == (None if first is None else (*first[1:], first[0]))
    witness = cocycle3_witness(Cochain3(group, phi.table, den))
    assert witness == (None if first is None else tuple(group.elements[i] for i in first))
    assoc_first = next((tuple(int(v) for v in i) for i in np.argwhere(assoc)), None)
    assert associativity_cocycle_sweep(phi) == assoc_first
    assert_stored(coboundary3(phi), *lowest(delta, den))
    assert not assoc[0].any()
    for lo, block in _sweep(phi, _combination_defect_chunk, (2, 0, 1)):
        assert np.array_equal(block.astype(object), assoc[lo : lo + len(block)])


@pytest.mark.parametrize("modulus", [2, 4, 12, 255, 256, 257, 65537, 2**31 + 11])
def test_tricharacter_tables_follow_the_storage_rule(modulus):
    """A tricharacter's dense table is stored by the rule of its modulus, and
    a sum with a plain table is a plain table stored by the rule of the sum."""
    group = make_group([4, 4, 4])
    tri = Tricharacter(group, levi_civita(3) * (modulus // gcd(modulus, 4)), modulus)
    assert tri.table.dtype == storage(modulus) and not tri.table.flags.writeable
    plain = Cochain3(group, tri.table, tri.den)
    total = tri + plain
    assert type(total) is Cochain3 and total.table.dtype == storage(total.den)
    assert total == Cochain3(group, tri.table.astype(np.int64) * 2, tri.den)


def test_building_a_plain_table_and_a_sum_holds_no_wide_copy():
    """At |G| = 64, from_entries holds one narrow n^3 table (n^3 bytes at
    den = 4) and no int64 copy, and Tricharacter + plain, above its two
    operands, holds one more and its int64 slab temporaries: each peaks
    below 2 n^3 bytes under tracemalloc, where one int64 table is 8 n^3
    (both took two int64 tables before)."""
    group = make_group([4, 4, 4])
    n = group.order
    tri = Tricharacter(group, levi_civita(3), 4)
    units = tuple(tuple(int(a == axis) for a in range(3)) for axis in range(3))
    tri + Cochain3.zero(group)  # builds the group's lazy tables outside the measurement
    tracemalloc.start()
    try:
        plain = Cochain3.from_entries(group, [(units, "1/4")])
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        total = tri + plain
        summed = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert plain.table.dtype == total.table.dtype == np.uint8
    assert built < 2 * n**3 and summed < 2 * n**3


@pytest.mark.parametrize("den, bound", [(4, 8), (2**31 + 11, 40)])
def test_the_witness_search_lists_no_nonzero_cells(den, bound):
    """coboundary_witness on a random plain 3-cochain at |G| = 64 peaks below
    `bound` n^3 bytes under tracemalloc: the sweep's table copy, chunk and
    temporaries (about 3 n^3 at den = 4, 32 n^3 at 2^31 + 11), plus one
    boolean mask to find the first nonzero cell. Listing every nonzero cell,
    as np.argwhere does at 24 bytes each, would take about 35 and 62 n^3."""
    group = make_group([4, 4, 4])
    n = group.order
    rng = np.random.default_rng(0)
    phi = Cochain3(group, random_normalized_table(group, den, 3, rng), den)
    tracemalloc.start()
    try:
        witness = phi.coboundary_witness
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness is not None and peak < bound * n**3


@pytest.mark.parametrize("den", [257, 2**31 + 11])
def test_the_witness_is_the_first_nonzero_cell_not_the_largest(den):
    """On a random plain 3-cochain, coboundary_witness and cocycle3_witness
    name the first nonzero cell of delta phi in index order, from the
    Python-integer table; in that cell's chunk a larger residue comes later,
    so the largest residue is not the witness."""
    group = make_group([2, 6])
    n = group.order
    phi = Cochain3(group, random_normalized_table(group, den, 3, np.random.default_rng(1)), den)
    delta = reference_tables(phi)[0]
    first = tuple(int(v) for v in np.argwhere(delta)[0])
    chunk = delta[first[0]]
    largest = tuple(int(v) for v in np.unravel_index(int(chunk.argmax()), chunk.shape))
    assert largest != first[1:]
    assert phi.coboundary_witness == first
    assert cocycle3_witness(phi) == tuple(group.elements[i] for i in first)


def test_the_first_sheared_row_holds_no_int64_square():
    """Row 0 of the sheared rows of the duality_large psi (epsilon mod 4 on
    Z/2 x Z/4^3, |G| = 128) is built a block of y at a time in its narrow
    type: next(sheared_rows()) peaks below one n^2 int64 array under
    tracemalloc (the whole-square build peaked at 0.47 MiB, 3.8 n^2 8 bytes)."""
    group = make_group([2, 4, 4, 4])
    n = group.order
    psi = Tricharacter(group, levi_civita(group.rank), 4)
    group.coords, group.sub_table  # the group's lazy tables, outside the measurement
    tracemalloc.start()
    try:
        row = next(psi.sheared_rows())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.dtype == np.uint8 and row.shape == (n, n)
    assert peak < n * n * 8


@pytest.mark.parametrize("den", [4, 12, 2**31 + 11])
@pytest.mark.parametrize("chunk", [_coboundary_chunk, _combination_defect_chunk])
def test_a_sweep_builds_every_chunk_in_one_buffer(monkeypatch, chunk, den):
    """With the budget of five tables, _sweep at |G| = 12 yields the chunks
    of indices 1-5, 6-10 and 11, each a view of one buffer made once per
    sweep, equal bit for bit to the chunk built in fresh arrays (the
    combination's on the table transposed to [x, eta, zeta])."""
    axes = (2, 0, 1) if chunk is _combination_defect_chunk else None
    group = make_group([2, 6])
    phi = Cochain3(group, random_normalized_table(group, den, 3, np.random.default_rng(2)), den)
    t = phi.table if axes is None else phi.table.transpose(axes)
    table = np.ascontiguousarray(t, _sweep_dtype(den, 5))
    monkeypatch.setattr(cochains, "_SWEEP_BYTES", 5 * table.nbytes)
    swept = []
    for lo, out in _sweep(phi, chunk, axes):
        fresh = np.empty((2, len(out)) + table.shape, table.dtype)
        expected = _reduce(chunk(table, group, slice(lo, lo + len(out)), *fresh), den)
        assert np.array_equal(out, expected)
        swept.append((lo, len(out), out))
    assert [(lo, size) for lo, size, _ in swept] == [(1, 5), (6, 5), (11, 1)]
    assert all(np.shares_memory(out, swept[0][2]) for _, _, out in swept)
