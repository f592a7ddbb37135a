"""Cochain tables, coboundaries, tricharacters, and phi-multipliers."""

import itertools

import numpy as np
import pytest

from natorus import (
    Cochain2,
    Cochain3,
    CochainError,
    CochainTable,
    GAction,
    GradedElement,
    HALF_PHASE,
    IncompatibleGroupsError,
    NotACocycleError,
    Phase,
    PhiMultiplier,
    TensorShapeError,
    Tricharacter,
    TwistData,
    TwistedGroupAlgebra,
    TwistedKernel,
    ZERO_PHASE,
    associativity_cocycle_sweep,
    bicharacter_from_matrix,
    build_nap_bundle,
    check_multiplier_relation,
    coboundary2,
    coboundary3,
    cocycle3_witness,
    deformed_product,
    is_cocycle2,
    is_cocycle3,
    is_trivial_on,
    make_group,
    octonion_associator_tricharacter,
    octonion_sigma,
    restrict,
    trivializing_cochain,
)
from natorus import cochains
from natorus.cochains import require_cocycle3
from natorus.presets import epsilon_tricharacter_z4, octonion_trivializing_generators
from natorus.twisted_algebra import levi_civita


def random_cochain2(group, rng, den=8):
    table = rng.integers(0, den, size=(group.order, group.order))
    table[0, :] = 0
    table[:, 0] = 0
    return Cochain2(group, table, den)


def coboundary2_reference(sigma):
    """Slow, index-free restatement of the coboundary used as an oracle."""
    g = sigma.group
    out = {}
    for a, b, c in itertools.product(g.elements, repeat=3):
        out[(a, b, c)] = (
            sigma.value(b, c) - sigma.value(a + b, c) + sigma.value(a, b + c) - sigma.value(a, b)
        )
    return out


def test_normalization_enforced():
    g = make_group([2, 2])
    table = np.ones((4, 4), dtype=np.int64)
    with pytest.raises(CochainError):
        Cochain2(g, table, 2)


def test_tables_are_read_only():
    sigma = octonion_sigma()
    with pytest.raises(ValueError):
        sigma.table[1, 1] = 1


def test_from_entries_sparse_lookup():
    g = make_group([2, 2])
    sigma = Cochain2.from_entries(g, {((1, 0), (0, 1)): HALF_PHASE})
    assert sigma.value((1, 0), (0, 1)) == HALF_PHASE
    assert sigma.value((0, 1), (1, 0)) == ZERO_PHASE
    assert sigma((1, 0), (0, 1)) == HALF_PHASE


def test_arithmetic_coerces_denominators():
    g = make_group([2])
    a = Cochain2.from_entries(g, {((1,), (1,)): HALF_PHASE})
    b = Cochain2.from_entries(g, {((1,), (1,)): Phase(1, 4)})
    assert (a + b).value((1,), (1,)) == Phase(3, 4)
    assert (a - b).value((1,), (1,)) == Phase(1, 4)
    assert (-b).value((1,), (1,)) == Phase(3, 4)
    assert a - a == Cochain2.zero(g)


def one_entry(den, numerator):
    """A 2-cochain on Z/2 with numerator/den at ((1,), (1,)) and zero elsewhere."""
    return Cochain2(make_group([2]), [[0, 0], [0, numerator]], den)


def test_sum_past_int64_is_refused():
    # lcm(p, q) = pq > 2^62 and the scaled numerators sum past 2^63, which
    # used to wrap around silently to 81604378570 / pq.
    p, q = 2**31 - 1, 2**31 + 11
    with pytest.raises(CochainError, match="exceeds 2\\^62"):
        one_entry(p, p - 1) + one_entry(q, q - 1)
    # At the bound the sum is still exact.
    total = one_entry(2**62, 2**62 - 1) + one_entry(2**61, 2**61 - 1)
    assert total.value((1,), (1,)) == Phase(2**62 - 3, 2**62)


def test_scale_factor_past_int64_is_refused():
    # The scale factor itself leaves int64; this used to raise OverflowError.
    with pytest.raises(CochainError, match="exceeds 2\\^62"):
        one_entry(2**62 + 1, 1) - one_entry(2**61 - 1, 1)


def test_denominator_past_2_62_is_refused_at_construction():
    # d fits in int64, but four residues of a coboundary do not: coboundary2 of
    # this sigma returned 9223372036854775731/d at ((2,), (1,), (1,)) instead
    # of 9223372036854775781/d, without an error.
    g = make_group([3])
    d = 2**63 - 25
    table = np.zeros((3, 3), dtype=np.int64)
    table[1, 1] = table[2, 2] = d - 1
    with pytest.raises(CochainError, match="exceeds 2\\^62"):
        Cochain2(g, table, d)


def test_denominator_past_int64_is_refused_without_overflow():
    # This used to raise a raw OverflowError while reducing the table mod d.
    with pytest.raises(CochainError, match="exceeds 2\\^62"):
        one_entry(2**63 + 5, 1)


@pytest.mark.parametrize("d", [2**63 + 5, 2**63 - 25])
def test_entries_past_2_62_are_refused_before_the_table_is_filled(d):
    # 2^63 + 5 used to raise a raw OverflowError while writing the numerator.
    g = make_group([3])
    with pytest.raises(CochainError, match="exceeds 2\\^62"):
        Cochain2.from_entries(g, {((1,), (1,)): f"{d - 1}/{d}"})
    with pytest.raises(CochainError, match="exceeds 2\\^62"):
        Cochain2.from_function(g, lambda a, b: Phase(d - 1, d) if a.index and b.index else 0)


@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_unreadable_entry_values_raise_cochain_error(value):
    # These used to raise a raw ZeroDivisionError or ValueError.
    g = make_group([3])
    with pytest.raises(CochainError, match="is not a phase"):
        Cochain2.from_entries(g, {((1,), (1,)): value})
    with pytest.raises(CochainError, match="is not a phase"):
        Cochain3.from_entries(g, {((1,), (1,), (1,)): value})


def test_equality_past_int64_compares_lowest_terms():
    # lcm(p, q) > 2^62: a common denominator used to make == raise CochainError.
    p, q = 2**31 - 1, 2**31 + 11
    assert one_entry(p, p - 1) != one_entry(q, q - 1)
    assert not one_entry(p, p - 1) == one_entry(q, q - 1)
    assert one_entry(2 * p, p) == one_entry(2 * q, q)  # both 1/2
    assert one_entry(4, 2) == one_entry(2, 1)
    assert one_entry(4, 2) != one_entry(4, 1)


@pytest.mark.parametrize("factors", [[4], [2, 2]])
def test_coboundary2_matches_reference(factors, rng):
    g = make_group(factors)
    sigma = random_cochain2(g, rng)
    phi = coboundary2(sigma)
    for (a, b, c), expected in coboundary2_reference(sigma).items():
        assert phi.value(a, b, c) == expected


def test_coboundary_squares_to_zero(rng):
    for factors in ([2, 2, 2], [4], [3, 3]):
        g = make_group(factors)
        for _ in range(5):
            sigma = random_cochain2(g, rng)
            assert coboundary3(coboundary2(sigma)).is_zero()


def test_octonion_sigma_trivializes_octonion_phi():
    assert coboundary2(octonion_sigma()) == octonion_associator_tricharacter()


def test_bundled_tricharacters_are_cocycles():
    for phi in (octonion_associator_tricharacter(), epsilon_tricharacter_z4()):
        assert is_cocycle3(phi)
        assert cocycle3_witness(phi) is None
        assert phi.is_alternating()


def test_corrupted_cocycle_has_witness():
    phi = octonion_associator_tricharacter()
    table = phi.table.copy()
    table[1, 2, 3] = (table[1, 2, 3] + 1) % phi.den
    bad = Cochain3(phi.group, table, phi.den)
    assert not is_cocycle3(bad)
    witness = cocycle3_witness(bad)
    assert witness is not None and len(witness) == 4


def test_tricharacter_is_multilinear(rng):
    for phi in (octonion_associator_tricharacter(), epsilon_tricharacter_z4()):
        g = phi.group
        for _ in range(25):
            a, a2, b, c = (g.elements[i] for i in rng.choice(g.order, size=4))
            assert phi.value(a + a2, b, c) == phi.value(a, b, c) + phi.value(a2, b, c)
            assert phi.value(a, b + a2, c) == phi.value(a, b, c) + phi.value(a, a2, c)
            assert phi.value(a, b, c + a2) == phi.value(a, b, c) + phi.value(a, b, a2)


def test_ill_defined_tensor_rejected():
    g = make_group([2, 2, 2])
    tensor = np.zeros((3, 3, 3), dtype=np.int64)
    tensor[0, 1, 2] = 1
    # 2 * 1 != 0 mod 4, so the formula is not constant on residue classes.
    with pytest.raises(TensorShapeError):
        Tricharacter(g, tensor, modulus=4)


# 1 + 3 * 3**38 is 1 mod 3, but 3 times it no longer fits in int64.
HUGE_ONE_MOD_3 = 1 + 3 * 3**38


def test_tricharacter_reduces_entries_before_the_factor_check():
    g = make_group([3, 3, 3])
    huge = np.zeros((3, 3, 3), dtype=np.int64)
    huge[0, 1, 2] = HUGE_ONE_MOD_3
    small = np.zeros((3, 3, 3), dtype=np.int64)
    small[0, 1, 2] = 1
    assert Tricharacter(g, huge, 3) == Tricharacter(g, small, 3)


def test_bicharacter_reduces_entries_before_the_factor_check():
    g = make_group([3, 3])
    huge = np.array([[0, HUGE_ONE_MOD_3], [0, 0]], dtype=np.int64)
    small = np.array([[0, 1], [0, 0]], dtype=np.int64)
    assert bicharacter_from_matrix(g, huge, 3) == bicharacter_from_matrix(g, small, 3)


def _exact_tricharacter_table(group, tensor, modulus):
    """The direct sum over every index triple in Python ints."""
    c = group.coords.astype(object)
    return np.einsum("ai,bj,ck,ijk->abc", c, c, c, np.asarray(tensor, dtype=object)) % modulus


def test_tricharacter_stage_past_int64_is_refused():
    # rank 3 * (max factor - 1) 2 * (m - 1) passes 2^63; the single-sum build
    # used to get 2,383 of the 19,683 entries wrong without an error.
    g = make_group([3, 3, 3])
    tensor = np.zeros((3, 3, 3), dtype=np.int64)
    tensor[0, 1, 2] = tensor[2, 0, 1] = 2**60
    tensor[1, 2, 0] = tensor[1, 0, 2] = 2**59
    with pytest.raises(CochainError, match="int64"):
        Tricharacter(g, tensor, modulus=3 * 2**59)


def test_tricharacter_just_under_the_stage_bound_is_exact():
    g = make_group([3, 3, 3])
    q = (2**63 - 1) // 18
    m = 3 * q  # 6 * (m - 1) < 2^63 <= 6 * (m + 2)
    tensor = np.zeros((3, 3, 3), dtype=np.int64)
    tensor[0, 1, 2] = tensor[2, 0, 1] = 2 * q
    tensor[1, 2, 0] = tensor[1, 0, 2] = q
    phi = Tricharacter(g, tensor, modulus=m)
    assert phi.den == m
    assert np.array_equal(phi.table, _exact_tricharacter_table(g, tensor, m))
    with pytest.raises(CochainError, match="int64"):
        Tricharacter(g, tensor, modulus=m + 3)


def test_bicharacter_stage_past_int64_is_refused():
    g = make_group([3, 3])
    q = (2**63 - 1) // 12
    matrix = np.array([[0, 2 * q], [q, 0]], dtype=np.int64)
    exact = bicharacter_from_matrix(g, matrix, 3 * q)  # 2 * 2 * (m - 1) < 2^63
    c = g.coords.astype(object)
    expected = np.einsum("ai,bj,ij->ab", c, c, matrix.astype(object)) % (3 * q)
    assert np.array_equal(exact.table, expected)
    with pytest.raises(CochainError, match="int64"):
        bicharacter_from_matrix(g, matrix, 3 * q + 3)


def test_cocycle_witness_is_cached_and_agrees_with_coboundary3():
    phi = octonion_associator_tricharacter()
    table = phi.table.copy()
    table[1, 2, 3] = (table[1, 2, 3] + 1) % phi.den
    bad = Cochain3(phi.group, table, phi.den)
    first = (is_cocycle3(bad), cocycle3_witness(bad))
    assert "coboundary_witness" in vars(bad)
    assert (is_cocycle3(bad), cocycle3_witness(bad)) == first
    # The cached witness is the first nonzero entry of the full coboundary table.
    expected = tuple(int(i) for i in np.argwhere(coboundary3(bad).table)[0])
    assert tuple(x.index for x in first[1]) == expected
    assert is_cocycle3(phi) and is_cocycle3(phi) and cocycle3_witness(phi) is None


def test_cocycle_sweeps_past_int64_stay_exact():
    """Near den = 2^62 a sum of three residues passes int64. On Z/3 with
    phi(1,1,1) = (den - 1)/den and phi(1,2,1) = 230/den, (delta phi)(1,1,1,1)
    = 2(den - 1) + 230 = 228 mod den, but in int64 the sum wraps to 0 mod den,
    so a later quadruple was reported. The sweeps work in Python integers there."""
    g = make_group([3])
    den = 2**62 - 57
    table = np.zeros((3, 3, 3), dtype=np.int64)
    table[1, 1, 1] = den - 1
    table[1, 2, 1] = 230
    phi = Cochain3(g, table, den)
    assert phi.coboundary_witness == (1, 1, 1, 1)
    assert check_multiplier_relation(phi) == (1, 1, 1, 1)
    assert coboundary3(phi).value(*[(1,)] * 4) == Phase(228, den)


def test_an_arity_one_cochain_has_a_coboundary():
    """A 1-D table is stored one entry at a time, and its coboundary (the
    one chunk at arity 1) is (delta f)(x, y) = f(y) - f(x + y) + f(x)."""
    g = make_group([3, 4])
    f = CochainTable(g, 1, np.arange(g.order) * 5, 12)
    assert f.table.dtype == np.uint8 and f.value((1, 1)) == Phase(25, 12)
    df = cochains._coboundary(f)
    assert df.arity == 2 and type(df) is Cochain2
    for x, y in itertools.product(g.elements, repeat=2):
        assert df.value(x, y) == f(y) - f(x + y) + f(x)


def test_tricharacter_table_constructors_build_a_plain_cochain3():
    """A table has no tensor, so Tricharacter.from_entries, from_function and
    zero build the plain Cochain3, which is swept: criterion 9's non-cocycle
    is not certified."""
    g = make_group([2, 2, 2])
    entries = [(((1, 0, 0), (0, 1, 0), (1, 1, 0)), "1/2")]
    bad = Tricharacter.from_entries(g, entries)
    assert type(bad) is Cochain3 and bad.cocycle_mode == "exhaustive"
    assert not is_cocycle3(bad)
    assert bad.coboundary_witness == Cochain3.from_entries(g, entries).coboundary_witness
    for plain in (Tricharacter.zero(g), Tricharacter.from_function(g, lambda a, b, c: ZERO_PHASE)):
        assert type(plain) is Cochain3 and is_cocycle3(plain)


def test_a_bare_table_is_refused_at_the_arities_with_a_class(rng):
    """CochainTable builds a 2- or 3-cochain only through its class, and
    refuses it bare, naming the class; at arities 1 and 4, which have no
    class, bare tables are built and their arithmetic stays bare."""
    g = make_group([2, 3])
    for arity in (1, 2, 3, 4):
        table = rng.integers(0, 6, size=(g.order,) * arity)
        for axis in range(arity):
            np.moveaxis(table, axis, 0)[0] = 0
        if arity in (2, 3):
            kind = (Cochain2, Cochain3)[arity - 2]
            refusal = f"^a {arity}-cochain is built as {kind.__name__}, not as a bare"
            with pytest.raises(CochainError, match=refusal):
                CochainTable(g, arity, table, 6)
            a, b = kind(g, table, 6), kind(g, 2 * table, 6)
        else:
            kind = CochainTable
            a, b = CochainTable(g, arity, table, 6), CochainTable(g, arity, 2 * table, 6)
        assert type(a) is type(a + b) is type(a - b) is type(-a) is kind


def test_multiplier_relation_runs_the_cocycle_sweep_once(monkeypatch):
    """check_multiplier_relation on a fresh cochain runs the cached cocycle
    sweep; is_cocycle3, cocycle3_witness and require_cocycle3 then reuse it."""
    swept = []
    chunk_of = cochains._coboundary_chunk

    def counted(t, group, w):
        swept.append(w)
        return chunk_of(t, group, w)

    monkeypatch.setattr(cochains, "_coboundary_chunk", counted)
    oct_phi = octonion_associator_tricharacter()
    good = Cochain3(oct_phi.group, oct_phi.table, oct_phi.den)
    table = oct_phi.table.copy()
    table[1, 2, 3] = (table[1, 2, 3] + 1) % oct_phi.den
    bad = Cochain3(oct_phi.group, table, oct_phi.den)

    assert check_multiplier_relation(good) is None
    assert "coboundary_witness" in vars(good)
    assert swept == list(range(good.group.order))
    assert is_cocycle3(good) and cocycle3_witness(good) is None
    require_cocycle3(good)
    assert swept == list(range(good.group.order))

    swept.clear()
    a, b, c, g = check_multiplier_relation(bad)
    assert bad.coboundary_witness == (g, a, b, c)
    assert swept == list(range(g + 1))
    assert not is_cocycle3(bad)
    assert tuple(e.index for e in cocycle3_witness(bad)) == (g, a, b, c)
    with pytest.raises(NotACocycleError) as caught:
        require_cocycle3(bad)
    assert caught.value.witness == cocycle3_witness(bad)
    assert swept == list(range(g + 1))


def _no_sweep(*args):
    raise AssertionError("a certified cochain was swept")


def test_tricharacters_are_certified_without_a_sweep(monkeypatch):
    """Every cocycle entry point answers for a Tricharacter from its tensor:
    none reaches the exhaustive sweep."""
    from natorus import kernels

    monkeypatch.setattr(cochains, "_sweep_witness", _no_sweep)
    monkeypatch.setattr(kernels, "_sweep_witness", _no_sweep)
    g = make_group([2, 2, 2])
    tensor = np.zeros((3, 3, 3), dtype=np.int64)
    tensor[0, 1, 2] = 1  # not alternating
    for phi in (epsilon_tricharacter_z4(), Tricharacter(g, tensor, modulus=2)):
        assert phi.cocycle_mode == "certificate"
        assert is_cocycle3(phi) and cocycle3_witness(phi) is None
        require_cocycle3(phi)
        assert check_multiplier_relation(phi) is None
        assert associativity_cocycle_sweep(phi) is None
        PhiMultiplier(phi)
        assert "coboundary_witness" not in vars(phi)


def test_a_tricharacter_plus_a_non_cocycle_is_swept():
    """psi + delta, with psi the epsilon tricharacter on Z/4^3 and delta one
    entry 1/4 at the three generators, is a plain Cochain3 and is swept: it
    must not inherit psi's certificate. -psi is a tricharacter."""
    psi = epsilon_tricharacter_z4()
    g = psi.group
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    delta = Cochain3.from_entries(g, [((e1, e2, e3), "1/4")])
    for bad in (psi + delta, delta + psi, psi - delta):
        assert type(bad) is Cochain3 and bad.cocycle_mode == "exhaustive"
        assert not is_cocycle3(bad)
        assert tuple(e.coords for e in cocycle3_witness(bad)) == (e3, e1, e2, e3)
        assert check_multiplier_relation(bad) is not None
        assert associativity_cocycle_sweep(bad) is not None
        with pytest.raises(NotACocycleError):
            require_cocycle3(bad)
    for plain in (psi + Cochain3.zero(g), Cochain3.zero(g) - psi):
        assert type(plain) is Cochain3 and is_cocycle3(plain)
    negated = -psi  # a tricharacter, certified, with the plain negation's values
    assert type(negated) is Tricharacter and negated.cocycle_mode == "certificate"
    assert negated == -Cochain3(g, psi.table, psi.den) == Cochain3.zero(g) - psi


def test_non_alternating_tensor_detected():
    g = make_group([2, 2, 2])
    tensor = np.zeros((3, 3, 3), dtype=np.int64)
    tensor[0, 1, 2] = 1
    phi = Tricharacter(g, tensor, modulus=2)
    assert is_cocycle3(phi)
    assert not phi.is_alternating()


def test_multiplier_relation_for_bundled_tricharacters():
    assert check_multiplier_relation(octonion_associator_tricharacter()) is None
    assert check_multiplier_relation(epsilon_tricharacter_z4()) is None


def test_multiplier_diagonal_values():
    phi = octonion_associator_tricharacter()
    u = PhiMultiplier(phi)
    g = phi.group
    beta, gamma = g.elements[3], g.elements[5]
    diag = u.diagonal(beta, gamma)
    assert np.array_equal(u(beta, gamma), np.diag(diag))
    for x in g.elements:
        assert diag[x.index] == phi.value(x, beta, gamma).to_complex()
    assert u.phases(beta, gamma) == [phi.value(x, beta, gamma) for x in g.elements]


def test_multiplier_rejects_non_cocycle():
    phi = octonion_associator_tricharacter()
    table = phi.table.copy()
    table[1, 2, 3] = (table[1, 2, 3] + 1) % phi.den
    with pytest.raises(CochainError):
        PhiMultiplier(Cochain3(phi.group, table, phi.den))


def test_restrict_covers_subgroup_cube():
    phi = octonion_associator_tricharacter()
    table = restrict(phi, [(1, 0, 0), (0, 1, 0)])
    assert len(table) == 4**3
    for (a, b, c), value in table.items():
        assert value == phi.value(a, b, c)


def test_octonion_phi_trivial_on_quaternion_subgroup():
    phi = octonion_associator_tricharacter()
    assert is_trivial_on(phi, octonion_trivializing_generators())
    assert not is_trivial_on(phi, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_trivializing_cochain_of_zero():
    g = make_group([2, 2])
    assert trivializing_cochain(Cochain3.zero(g)) == Cochain2.zero(g)


def test_trivializing_cochain_solves_coboundary_equation():
    phi = octonion_associator_tricharacter()
    tau = trivializing_cochain(phi)
    assert coboundary2(tau) == phi
    assert is_cocycle2(tau) is False  # a cocycle would have zero coboundary


def test_is_cocycle2_streams_and_caches_nothing(rng):
    """is_cocycle2 decides by the narrow sweep: it caches no coboundary, and
    a trivializer carrying its tricharacter gains no table from the check."""
    g = make_group([4, 2, 3])
    table = rng.integers(0, 12, size=(g.order, g.order))
    table[0, :] = table[:, 0] = 0
    matrix = np.zeros((g.rank, g.rank), dtype=np.int64)
    matrix[0, 1] = 6  # a half turn on the first two factors
    for sigma in (Cochain2(g, table, 12), bicharacter_from_matrix(g, matrix), Cochain2.zero(g)):
        dense = Cochain2(g, sigma.table, sigma.den).coboundary
        assert is_cocycle2(sigma) == dense.is_zero()
        assert "coboundary" not in vars(sigma)
    tau = trivializing_cochain(Tricharacter(make_group([4, 4, 4]), levi_civita(), 2))
    assert is_cocycle2(tau) is False and "table" not in vars(coboundary2(tau))


def test_trivializing_cochain_refuses_nontrivial_class():
    with pytest.raises(CochainError):
        trivializing_cochain(epsilon_tricharacter_z4())


def test_complex_table_exact_for_half_turns():
    sigma = octonion_sigma()
    w = sigma.complex_table
    assert np.all(w.imag == 0.0)
    assert set(np.unique(w.real)) == {-1.0, 1.0}


def test_complex_table_generic_denominator(rng):
    g = make_group([3])
    sigma = random_cochain2(g, rng, den=8)
    w = sigma.complex_table
    assert np.allclose(w, np.exp(2j * np.pi * sigma.table / 8), atol=1e-15)


def test_group_mismatch_raises():
    a = Cochain2.zero(make_group([2]))
    b = Cochain2.zero(make_group([4]))
    with pytest.raises(IncompatibleGroupsError):
        a + b


def _graded_pair(g):
    action = GAction.translation(g)
    return (GradedElement.from_matrix(action, np.eye(g.order)),) * 2


def _bare(g):
    """A bare CochainTable, which exists only at an arity with no class: here
    a 4-cochain, with no coboundary and no witness."""
    table = np.zeros((g.order,) * 4, dtype=np.int64)
    table[(1,) * 4] = 1
    return CochainTable(g, 4, table, 2)


WRONG_KIND = {  # each call, with the argument it must name
    "kernel phi None": (lambda g: TwistedKernel(g, None, np.zeros((4, 4))), "phi", 3),
    "kernel phi 2-cochain": (
        lambda g: TwistedKernel(g, Cochain2.zero(g), np.zeros((4, 4))), "phi", 3
    ),
    "deformed product phi 2-cochain": (
        lambda g: deformed_product(*_graded_pair(g), Cochain2.zero(g)), "phi", 3
    ),
    "group algebra sigma 3-cochain": (
        lambda g: TwistedGroupAlgebra(g, Cochain3.zero(g)), "sigma", 2
    ),
    "scalar twist sigma 3-cochain": (
        lambda g: TwistData.scalar_from_sigma(g, Cochain3.zero(g)), "sigma", 2
    ),
    "is_cocycle3 on a 2-cochain": (lambda g: is_cocycle3(Cochain2.zero(g)), "phi", 3),
    "bundle phi 2-cochain": (lambda g: build_nap_bundle(["p"], g, Cochain2.zero(g)), "phi", 3),
    "is_cocycle2 on a bare table": (lambda g: is_cocycle2(_bare(g)), "sigma", 2),
    "coboundary2 on a bare table": (lambda g: coboundary2(_bare(g)), "sigma", 2),
    "is_cocycle3 on a bare table": (lambda g: is_cocycle3(_bare(g)), "phi", 3),
    "cocycle3_witness on a bare table": (lambda g: cocycle3_witness(_bare(g)), "phi", 3),
    "multiplier relation on a bare table": (
        lambda g: check_multiplier_relation(_bare(g)), "phi", 3
    ),
    "twist sigma bare table": (lambda g: TwistData(g, sigma=_bare(g)), "sigma", 2),
    "group algebra sigma bare table": (lambda g: TwistedGroupAlgebra(g, _bare(g)), "sigma", 2),
}


@pytest.mark.parametrize("name", WRONG_KIND)
def test_a_cochain_of_the_wrong_kind_is_refused_with_a_typed_error(name):
    call, argument, arity = WRONG_KIND[name]
    with pytest.raises(CochainError, match=f"^{argument} must be a {arity}-cochain"):
        call(make_group([2, 2]))


def test_a_cochain_on_another_group_is_refused():
    g, other = make_group([2, 2]), make_group([4])
    with pytest.raises(IncompatibleGroupsError, match="phi lives on a different group"):
        deformed_product(*_graded_pair(g), Cochain3.zero(other))
    with pytest.raises(IncompatibleGroupsError, match="phi lives on a different group"):
        TwistedKernel(g, Cochain3.zero(other), np.zeros((4, 4)))
