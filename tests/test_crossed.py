"""Twisted crossed products, strictification, and the duality transform."""

import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from natorus import (
    Cochain2,
    Cochain3,
    CochainError,
    CochainTable,
    ConfigError,
    CrossedElement,
    IncompatibleGroupsError,
    StrictifiedElement,
    Tricharacter,
    TwistData,
    TwistDataError,
    TwistedKernel,
    coboundary2,
    double_dual_action,
    dual_action,
    evaluation_side_product,
    fourier_side_product,
    kernel_product,
    lbs_involution,
    lbs_product,
    make_group,
    nap_condition_check,
    octonion_associator_tricharacter,
    octonion_group,
    octonion_sigma,
    strictified_product,
    takai_inverse,
    takai_transform,
    trivializing_cochain,
    verify_duality,
)
from natorus import crossed
from natorus.cochains import _lowest_terms, exp_phases
from natorus.acceptance import criterion_fourier_evaluation
from natorus.configs import load_config
from natorus.crossed import _pairs_per_batch, _pairs_per_tile
from natorus.elements import _block_product
from natorus.twisted_algebra import levi_civita
from natorus.presets import (
    epsilon_tricharacter_z4,
    octonion_bundle,
    pauli_conjugators,
    pauli_m2_twist,
    shift_bicharacter,
    two_point_bundle,
    z4_scalar_twist,
)


@pytest.fixture(scope="module")
def tw_m2():
    return pauli_m2_twist()


@pytest.fixture(scope="module")
def tw_shift():
    g = octonion_group()
    return TwistData.scalar_from_sigma(g, shift_bicharacter(g))


def test_bundled_twists_validate(tw_m2):
    tw_m2.validate()
    z4_scalar_twist().validate()
    TwistData(make_group([4]), dim=3).validate()


def test_scalar_twist_phi_is_sigma_coboundary():
    g = octonion_group()
    tw = TwistData.scalar_from_sigma(g, octonion_sigma())
    assert tw.phi == coboundary2(octonion_sigma())
    assert tw.dim == 1


def test_bicharacter_twist_is_untwisted_up_to_phi(tw_shift):
    # Bicharacters are 2-cocycles, so the associator class vanishes.
    assert tw_shift.phi.is_zero()


def test_corrupted_multiplier_rejected(tw_m2):
    # u(1, 2) turned by a quarter: delta sigma no longer equals phi
    g = tw_m2.group
    corrupted = tw_m2.sigma + Cochain2.from_entries(g, {(g.elements[1], g.elements[2]): "1/4"})
    with pytest.raises(TwistDataError, match="multiplier relation"):
        TwistData(g, dim=tw_m2.dim, beta=tw_m2.beta, sigma=corrupted, phi=tw_m2.phi)


def test_twist_keeps_a_copy_of_beta(tw_m2):
    """Writing to the caller's array after construction leaves the twist
    valid, and the caller's view writable."""
    base = tw_m2.beta.copy()
    view = base[:]
    tw = TwistData(tw_m2.group, 2, beta=view, sigma=tw_m2.sigma, phi=tw_m2.phi)
    base[1] = 5
    tw.validate()
    assert np.array_equal(tw.beta, tw_m2.beta) and not tw.beta.flags.writeable
    assert view.flags.writeable


def test_crossed_unit_is_identity(tw_m2, rng):
    one = CrossedElement.unit(tw_m2)
    a = CrossedElement.random(tw_m2, rng)
    assert lbs_product(one, a).isclose(a, tol=1e-12)
    assert lbs_product(a, one).isclose(a, tol=1e-12)


def test_involution_is_involutive(tw_m2, rng):
    a = CrossedElement.random(tw_m2, rng)
    assert lbs_involution(lbs_involution(a)).isclose(a, tol=1e-12)


def test_involution_antimultiplicative_on_associative_twist(tw_shift, rng):
    for _ in range(10):
        a = CrossedElement.random(tw_shift, rng)
        b = CrossedElement.random(tw_shift, rng)
        lhs = lbs_involution(lbs_product(a, b))
        rhs = lbs_product(lbs_involution(b), lbs_involution(a))
        assert lhs.isclose(rhs, tol=1e-12)


def test_dual_action_is_multiplicative_automorphism(tw_m2, rng):
    g = tw_m2.group
    for _ in range(10):
        xi = g.dual.elements[rng.integers(g.order)]
        a = CrossedElement.random(tw_m2, rng)
        b = CrossedElement.random(tw_m2, rng)
        lhs = dual_action(xi, lbs_product(a, b))
        rhs = lbs_product(dual_action(xi, a), dual_action(xi, b))
        assert lhs.isclose(rhs, tol=1e-12)
    assert dual_action(g.dual.identity, a).isclose(a, tol=0)


def test_dual_action_composes(tw_m2, rng):
    g = tw_m2.group
    a = CrossedElement.random(tw_m2, rng)
    xi, eta = g.dual.elements[3], g.dual.elements[5]
    lhs = dual_action(xi, dual_action(eta, a))
    assert lhs.isclose(dual_action(xi + eta, a), tol=1e-12)


def test_strictified_product_restricts_to_lbs(tw_m2, rng):
    # Constant-in-x elements with weight psi = -phi multiply like the
    # underlying twisted crossed product.
    g = tw_m2.group
    n, d = g.order, tw_m2.dim
    psi = -tw_m2.phi
    a = CrossedElement.random(tw_m2, rng)
    b = CrossedElement.random(tw_m2, rng)
    lift = lambda c: StrictifiedElement(
        tw_m2, np.broadcast_to(c.values[:, None], (n, n, d, d)).copy()
    )
    big = strictified_product(lift(a), lift(b), psi)
    small = lbs_product(a, b)
    for x in range(n):
        assert np.allclose(big.values[:, x], small.values, atol=1e-12)


@pytest.mark.parametrize("make_tw", [pauli_m2_twist, z4_scalar_twist])
def test_takai_transform_roundtrip(make_tw, rng):
    tw = make_tw()
    psi = Cochain3.zero(tw.group)
    a = StrictifiedElement.random(tw, rng)
    assert takai_inverse(takai_transform(a, psi), tw).isclose(a, tol=1e-12)
    k = takai_transform(StrictifiedElement.random(tw, rng), psi)
    assert takai_transform(takai_inverse(k, tw), psi).isclose(k, tol=1e-12)


def test_takai_inverse_refuses_a_kernel_of_another_block_size(tw_m2, rng):
    # A scalar kernel against the 2x2 Pauli twist used to broadcast its 1x1
    # blocks into an (8, 8, 2, 2) element.
    scalar = TwistedKernel.random(tw_m2.group, tw_m2.phi, rng)
    assert scalar.block_dim == 1
    with pytest.raises(TwistDataError, match="blocks are 1x1"):
        takai_inverse(scalar, tw_m2)


@pytest.mark.parametrize("make_tw", [pauli_m2_twist, z4_scalar_twist])
def test_duality_zero_and_opposite_regimes(make_tw):
    tw = make_tw()
    for psi in (Cochain3.zero(tw.group), -tw.phi):
        report = verify_duality(tw, psi, trials=30, seed=11)
        assert report.passed, report.as_dict()
        assert report.max_error < 1e-10


def test_duality_generic_alternating_regime():
    tw = z4_scalar_twist()
    psi = Tricharacter(tw.group, _epsilon(), modulus=4)
    assert psi != tw.phi and psi != -tw.phi and not psi.is_zero()
    report = verify_duality(tw, psi, trials=30, seed=11)
    assert report.passed
    assert report.max_error < 1e-10


def test_duality_fails_for_non_alternating_psi(tw_m2):
    # The transform intertwines products only for alternating tricharacters;
    # a plain one-slot tensor breaks the identity by a visible margin.
    tensor = np.zeros((3, 3, 3), dtype=np.int64)
    tensor[0, 1, 2] = 1
    psi = Tricharacter(tw_m2.group, tensor, modulus=2)
    report = verify_duality(tw_m2, psi, trials=20, seed=3)
    assert not report.passed
    assert report.max_error > 1e-3
    assert report.witness is not None


def test_duality_fails_without_multiplier(tw_m2):
    report = verify_duality(
        tw_m2, Cochain3.zero(tw_m2.group), trials=20, seed=3, include_multiplier=False
    )
    assert not report.passed
    assert report.max_error > 1e-3


@pytest.mark.parametrize("control", ["non_alternating_psi", "without_multiplier"])
def test_duality_controls_fail_on_the_scalar_z4_twist(control):
    # d = 1 with quarter-turn phases: the passing regimes report exactly 0,
    # so these show that the scalar path still fails loudly.
    tw = z4_scalar_twist()
    if control == "non_alternating_psi":
        tensor = np.zeros((3, 3, 3), dtype=np.int64)
        tensor[0, 1, 2] = 1
        report = verify_duality(tw, Tricharacter(tw.group, tensor, 4), 8, seed=3)
    else:
        report = verify_duality(
            tw, Cochain3.zero(tw.group), 8, seed=3, include_multiplier=False
        )
    assert not report.passed
    assert report.mode == "random" and report.trials == 8
    assert report.max_error > 1e-3
    assert report.witness[0] == "trial"


@pytest.mark.parametrize("trials", [-1, 0])
def test_duality_random_mode_refuses_fewer_than_one_trial(trials):
    # -1 used to raise numpy's ValueError, 0 to return a vacuous pass.
    tw = z4_scalar_twist()
    with pytest.raises(ConfigError, match="positive integer"):
        verify_duality(tw, epsilon_tricharacter_z4(), trials=trials)
    # the exhaustive mode (n^2 d^2 <= 64) still ignores trials
    small = TwistData(make_group([4]), dim=2)
    report = verify_duality(small, Cochain3.zero(small.group), trials=trials)
    assert report.mode == "exhaustive" and report.passed and report.trials == 64 * 64


def per_pair_duality(tw, psi, trials, seed, include_multiplier):
    """verify_duality restated one pair at a time through the public products.

    Returns (mode, trials, max_error, witness). The witness is the first
    pair whose error exceeds 1e-10 (verify_duality's default tol) in
    exhaustive mode and the worst trial in random mode, None when no error
    exceeds 1e-10.
    """
    n, d = tw.group.order, tw.dim

    def transform(a):
        return takai_transform(a, psi, include_multiplier)

    if n * n * d * d <= 64:
        mode, basis = "exhaustive", []
        for t, x, i, j in itertools.product(range(n), range(n), range(d), range(d)):
            val = np.zeros((d, d), dtype=complex)
            val[i, j] = 1.0
            basis.append(((t, x, i, j), StrictifiedElement.delta(tw, t, x, val)))
        pairs = [((ka, kb), a, b) for ka, a in basis for kb, b in basis]
    else:
        mode, pairs = "random", []
        rng = np.random.default_rng(seed)
        for k in range(trials):
            a = StrictifiedElement.random(tw, rng)
            pairs.append((("trial", k), a, StrictifiedElement.random(tw, rng)))
    errors = []
    for _, a, b in pairs:
        lhs = transform(strictified_product(a, b, psi))
        errors.append(np.max(np.abs(lhs.data - kernel_product(transform(a), transform(b)).data)))
    errors = np.array(errors)
    k = int(np.argmax(errors > 1e-10) if mode == "exhaustive" else errors.argmax())
    witness = pairs[k][0] if errors[k] > 1e-10 else None
    return mode, len(pairs), float(errors.max()), witness


def octonion_fiber():
    tw = TwistData.scalar_from_sigma(octonion_group(), octonion_sigma())
    return tw, -tw.phi


def m2_with_octonion_psi():
    tw = pauli_m2_twist()
    return tw, octonion_associator_tricharacter(tw.group)


def z4_with_epsilon_psi():
    return z4_scalar_twist(), epsilon_tricharacter_z4()


@pytest.mark.parametrize("include_multiplier", [True, False])
@pytest.mark.parametrize(
    "setup, mode",
    [
        (octonion_fiber, "exhaustive"),
        (m2_with_octonion_psi, "random"),
        (z4_with_epsilon_psi, "random"),
    ],
)
def test_batched_duality_matches_per_pair_loop(setup, mode, include_multiplier):
    tw, psi = setup()
    # One full batch of random pairs and a part of the next. The seeds put the
    # largest multiplier-free error in the second batch, so a batch that
    # repeated or skipped draws would move the witness.
    batch = _pairs_per_batch(tw.group.order, tw.dim)
    trials = batch + 3
    seed = {m2_with_octonion_psi: 36, z4_with_epsilon_psi: 3}.get(setup, 4)
    report = verify_duality(
        tw, psi, trials=trials, seed=seed, include_multiplier=include_multiplier
    )
    ref_mode, ref_trials, ref_error, ref_witness = per_pair_duality(
        tw, psi, trials, seed, include_multiplier
    )
    if mode == "random" and not include_multiplier:
        assert ref_witness[1] >= batch
    assert report.passed == (ref_error < report.tol) == include_multiplier
    assert report.mode == ref_mode == mode
    assert report.trials == ref_trials
    assert abs(report.max_error - ref_error) <= 1e-13
    if include_multiplier:
        assert report.witness is None
    else:
        assert report.witness == ref_witness


def test_duality_streams_without_n3_tables(rng):
    """verify_duality holds no n^3 complex array: on Z/4^3 (n = 64) its traced
    peak stays below one n^3 complex table, over several batches of pairs, and
    it leaves no complex weight table cached on psi or on the twist's phi."""
    tw, psi = z4_scalar_twist(), epsilon_tricharacter_z4()
    n = tw.group.order
    trials = 3 * _pairs_per_batch(n, tw.dim)
    tracemalloc.start()
    try:
        report = verify_duality(tw, psi, trials=trials, seed=rng.integers(2**31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.trials == trials
    assert peak < n**3 * 16
    assert "complex_table" not in vars(psi)
    assert "complex_table" not in vars(tw.phi)


@pytest.mark.parametrize("include_multiplier", [True, False])
@pytest.mark.parametrize("setup", [z4_with_epsilon_psi, m2_with_octonion_psi], ids=["d1", "d2"])
@pytest.mark.parametrize("tile", [1, 3])
def test_duality_reports_do_not_depend_on_the_tile(setup, tile, include_multiplier, monkeypatch):
    """Tiles only group the pairs: with the entry budget cut to `tile` pairs
    (and so batches of 8), 11 random pairs give the same report, bit for bit."""
    tw, psi = setup()
    n, d = tw.group.order, tw.dim
    trials = 11  # neither a multiple of the tile nor of a batch
    expected = verify_duality(tw, psi, trials=trials, seed=3, include_multiplier=include_multiplier)
    monkeypatch.setattr(crossed, "_ENTRY_BUDGET", tile * n * n * d * d)
    assert _pairs_per_tile(n, d) == tile and _pairs_per_batch(n, d) == 8
    report = verify_duality(tw, psi, trials=trials, seed=3, include_multiplier=include_multiplier)
    assert report.mode == "random" and report.max_error.hex() == expected.max_error.hex()
    assert report.as_dict() == expected.as_dict()
    assert (report.witness is None) == include_multiplier


def test_duality_check_on_tensor_inputs_builds_no_n3_array():
    """With tricharacter psi and phi on Z/4^3 the check's traced peak stays
    below its batch arrays (a, b, b(y - z, z), transform(b) and the weighted
    summands, 8 pairs of n^2 complex entries each) plus one n^3 uint8 table,
    and no sheared copy or table is cached on either cochain."""
    group = make_group([4, 4, 4])
    n = group.order
    phi = Tricharacter(group, levi_civita(), 2)
    tw = TwistData.scalar_from_sigma(group, trivializing_cochain(phi))
    psi = Tricharacter(group, levi_civita(), 4)
    assert tw.phi is phi
    batch = _pairs_per_batch(n, tw.dim)
    verify_duality(tw, psi, trials=1)  # numpy's one-time allocations
    tracemalloc.start()
    try:
        report = verify_duality(tw, psi, trials=batch, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.trials == batch
    assert peak < 5 * batch * n * n * 16 + n**3
    assert all({"_sheared", "table"}.isdisjoint(vars(c)) for c in (psi, phi))


def test_tricharacters_on_the_duality_path_build_no_table():
    """Set-up and check of verify_duality, the exact trivializer check, the
    twist's validation and psi + delta read every Tricharacter through its
    slabs: none of them caches its n^3 table. The trivializer's check proves
    delta tau = phi2 slab by slab and leaves phi2 as tau's coboundary, so the
    twist carries the tricharacter and set-up peaks below one n^3 int64 table."""
    group = make_group([4, 4, 4])
    n = group.order
    phi2 = Tricharacter(group, levi_civita(), 2)
    tracemalloc.start()
    try:
        tau = trivializing_cochain(phi2)
        tw = TwistData.scalar_from_sigma(group, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n**3 * 8
    assert tw.phi is coboundary2(tau) is phi2
    dense = coboundary2(Cochain2(group, tau.table, tau.den))  # delta tau, table and all
    assert type(dense) is Cochain3 and tw.phi == dense
    psi = Tricharacter(group, levi_civita(), 4)
    assert verify_duality(tw, psi, trials=2, seed=1).passed
    # A twist whose phi is the tricharacter itself: validate reads its slabs.
    beta = np.ones((group.order, 1, 1), dtype=complex)
    tri_tw = TwistData(group, 1, beta, tau, phi2)
    assert verify_duality(tri_tw, psi, trials=2, seed=1).passed
    delta = Cochain3.from_entries(group, [(((1, 0, 0), (0, 1, 0), (0, 0, 1)), "1/4")])
    corrupted = psi + delta
    assert all("table" not in vars(c) for c in (phi2, psi))
    plain = Cochain3(group, psi.table, psi.den)
    assert corrupted == plain + delta and type(corrupted) is Cochain3
    assert psi == plain and phi2 == coboundary2(tau) == tri_tw.phi


def test_trivializer_leaves_its_tricharacter_in_lowest_terms():
    """tau's cached coboundary is the tricharacter over its smallest modulus:
    the same den and values as the dense delta tau that _from_table reduces."""
    group = make_group([4, 4, 4])
    phi = Tricharacter(group, 2 * levi_civita(), 4)  # 2-torsion, content 2
    tau = trivializing_cochain(phi)
    lowest = coboundary2(tau)
    assert isinstance(lowest, Tricharacter) and (lowest.den, lowest.modulus) == (2, 2)
    assert np.array_equal(lowest.tensor, levi_civita() % 2)
    dense = Cochain2(group, tau.table, tau.den).coboundary
    assert type(dense) is Cochain3 and dense.den == lowest.den
    assert np.array_equal(dense.table, lowest.table)


@pytest.mark.parametrize("entry", ["verify_duality", "strictified_product", "takai_transform"])
def test_psi_of_another_arity_is_refused(entry):
    # A 2-cochain psi used to broadcast its rows: verify_duality passed.
    g = make_group([2, 2, 2])
    tw = TwistData(g)
    a = StrictifiedElement.delta(tw, g.identity, g.identity)
    psi = Cochain2.zero(g)
    call = {
        "verify_duality": lambda: verify_duality(tw, psi),
        "strictified_product": lambda: strictified_product(a, a, psi),
        "takai_transform": lambda: takai_transform(a, psi),
    }[entry]
    with pytest.raises(CochainError, match="psi must be a 3-cochain"):
        call()


def test_twist_refuses_a_phi_of_another_arity():
    # It used to raise numpy's ValueError from einsum.
    g = make_group([2, 2, 2])
    with pytest.raises(TwistDataError, match="phi must be a 3-cochain"):
        TwistData(g, phi=Cochain2.zero(g))


def test_double_dual_identity_and_composition(rng):
    g = octonion_group()
    tw = pauli_m2_twist()
    psi = Cochain3.zero(g)
    k = takai_transform(StrictifiedElement.random(tw, rng), psi)
    assert double_dual_action(g.identity, k).isclose(k, tol=0)
    for _ in range(10):
        v, w = (g.elements[i] for i in rng.choice(g.order, size=2))
        lhs = double_dual_action(v, double_dual_action(w, k))
        assert lhs.isclose(double_dual_action(v + w, k), tol=1e-12)


def test_double_dual_with_conjugators(rng):
    g = octonion_group()
    tw = pauli_m2_twist()
    k = takai_transform(StrictifiedElement.random(tw, rng), Cochain3.zero(g))
    v, w = g.elements[3], g.elements[5]
    lhs = double_dual_action(v, double_dual_action(w, k, alpha=tw.beta), alpha=tw.beta)
    rhs = double_dual_action(v + w, k, alpha=tw.beta)
    assert lhs.isclose(rhs, tol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_evaluation_equals_fourier_side(dim, rng):
    g = make_group([4])
    n = g.order
    shape = (n, n) if dim == 1 else (n, n, dim, dim)
    for _ in range(10):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        lhs = evaluation_side_product(g, a, b)
        rhs = fourier_side_product(g, a, b)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def _epsilon():
    eps = np.zeros((3, 3, 3), dtype=np.int64)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1
        eps[i, k, j] = -1
    return eps


@pytest.mark.parametrize("dim", [0, -1])
def test_twist_data_refuses_dim_below_one(dim):
    # -1 used to raise numpy's ValueError from np.eye.
    with pytest.raises(TwistDataError, match="dim must be at least 1"):
        TwistData(make_group([2]), dim)


@pytest.mark.parametrize("dim", [0, -1])
def test_twist_constructors_refuse_dim_below_one(dim):
    g = make_group([2])
    with pytest.raises(TwistDataError, match="dim must be at least 1"):
        TwistData.scalar_from_sigma(g, Cochain2.zero(g), dim)


# ------------------------------------------- exact twist checks against floats

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def float_twist_witness(tw, tol=1e-10):
    """Both twist relations evaluated in floats from the tables of sigma and
    phi, independently of TwistData.validate: ("composition", (x, y)) for
    the first pair where V_x V_y (u(x,y) V_{x+y})^* is not a scalar, else
    ("phase", (x, y, z)) for the first triple, in index order, where
    e(phi(x,y,z)) u(x,y) u(x+y,z) != beta_x[u(y,z)] u(x,y+z), else None."""
    g, d, v = tw.group, tw.dim, tw.beta
    add = g.add_table
    u = np.exp(2j * np.pi * tw.sigma.table / tw.sigma.den)[:, :, None, None] * np.eye(d)
    c = v[:, None] @ v[None, :] @ np.conj(u @ v[add]).swapaxes(-1, -2)
    scalar = np.trace(c, axis1=-2, axis2=-1)[:, :, None, None] / d * np.eye(d)
    bad = np.abs(c - scalar).max(axis=(-2, -1)) > tol
    if bad.any():
        return "composition", tuple(int(i) for i in np.argwhere(bad)[0])
    phase = np.exp(2j * np.pi * tw.phi.table / tw.phi.den)
    for x in range(g.order):
        lhs = phase[x][:, :, None, None] * u[x][:, None] @ u[add[x]]
        rhs = v[x] @ u @ np.conj(v[x]).T @ u[x][add]
        bad = np.abs(lhs - rhs).max(axis=(-2, -1)) > tol
        if bad.any():
            return "phase", (x, *(int(i) for i in np.argwhere(bad)[0]))
    return None


def bundled_twists():
    """Every preset twist and every twist a bundled config builds, each from a
    2-cochain sigma."""
    twists = [
        pauli_m2_twist(),
        pauli_m2_twist(shift_bicharacter()),
        z4_scalar_twist(),
        TwistData(make_group([4]), dim=3),
    ]
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = load_config(str(path))
        if "twist" in cfg.raw:
            twists.append(cfg.twist())
        if "bundle" in cfg.raw:
            bundle = cfg.bundle()
            twists += [
                TwistData.scalar_from_sigma(bundle.group, bundle.fiber(x).sigma)
                for x in bundle.base
            ]
    return twists


def test_bundled_twists_satisfy_both_relations_in_floats():
    twists = bundled_twists()
    assert len(twists) >= 7  # 4 presets, duality_m2's twist, two_point_bundle's 2 fibers
    for tw in twists:
        assert float_twist_witness(tw) is None


def first_mismatch(sigma, phi):
    """The first (x, y, z) where the dense delta sigma table and phi differ."""
    dense = Cochain2(sigma.group, sigma.table, sigma.den).coboundary
    den = np.lcm(dense.den, phi.den)
    diff = (dense.table * (den // dense.den) - phi.table * (den // phi.den)) % den
    return tuple(int(i) for i in np.argwhere(diff)[0])


def test_phi_off_delta_sigma_is_refused_with_the_first_float_witness():
    g = octonion_group()
    sigma, beta = octonion_sigma(g), pauli_conjugators(g)
    phi = octonion_associator_tricharacter(g)
    for cell, value in ((((1, 0, 0), (0, 1, 0), (0, 0, 1)), "1/2"), (((1, 1, 1),) * 3, "1/6")):
        bad = phi + Cochain3.from_entries(g, [(cell, value)])
        with pytest.raises(TwistDataError, match="multiplier relation") as exact:
            TwistData(g, 2, beta, sigma, bad)
        assert exact.value.witness == first_mismatch(sigma, bad)
        assert exact.value.witness == tuple(g.element(c).index for c in cell)
        unchecked = TwistData(g, 2, beta, sigma, bad, validate=False)
        assert float_twist_witness(unchecked) == ("phase", exact.value.witness)


@pytest.mark.parametrize(
    "k, times, witness",
    [(1, True, (1, 2)), (2, True, (1, 2)), (5, True, (1, 4)), (6, True, (1, 6)), (3, False, (1, 2))],
    ids=["k1-times-H", "k2-times-H", "k5-times-H", "k6-times-H", "k3-is-H"],
)
def test_non_projective_beta_is_refused(k, times, witness):
    """beta_k H (or H in place of beta_3) is unitary but not a Pauli up to a
    phase. The twist names the first failing (x, y) in index order, as the
    float reference does, not the cell of largest defect."""
    g = octonion_group()
    sigma, phi = octonion_sigma(g), octonion_associator_tricharacter(g)
    beta = pauli_conjugators(g).copy()
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    beta[k] = beta[k] @ hadamard if times else hadamard
    message = (
        r"^beta action is not a homomorphism: alpha_s alpha_t != alpha_\(s\+t\) "
        rf"at s index {witness[0]}, t index {witness[1]} \(defect 7\.071e-01\)$"
    )
    with pytest.raises(TwistDataError, match=message) as exact:
        TwistData(g, 2, beta, sigma, phi)
    unchecked = TwistData(g, 2, beta, sigma, phi, validate=False)
    assert exact.value.witness == witness
    assert float_twist_witness(unchecked) == ("composition", witness)


def test_sigma_on_another_group_is_refused():
    with pytest.raises(IncompatibleGroupsError, match="sigma lives on a different group"):
        TwistData.scalar_from_sigma(make_group([4]), Cochain2.zero(make_group([2, 2])))


def test_exact_twist_check_on_a_plain_sigma_and_a_tricharacter_builds_no_n3_array():
    """A twist on a plain sigma (no cached coboundary) and a tricharacter phi
    sweeps delta sigma slab by slab against phi's slabs: its traced peak
    stays below one n^3 uint8 array, and neither cochain caches a table of
    delta sigma or of phi."""
    group = make_group([2, 4, 4, 4])
    n = group.order
    phi = Tricharacter(group, levi_civita(group.rank), 2)
    tau = trivializing_cochain(phi)
    sigma = Cochain2(group, tau.table, tau.den)  # the same values, no cached coboundary
    beta = np.ones((n, 1, 1), dtype=complex)
    tracemalloc.start()
    try:
        tw = TwistData(group, 1, beta, sigma, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tw.phi is phi and peak < n**3
    assert "coboundary" not in vars(sigma) and "table" not in vars(phi)


def test_plain_psi_rows_are_summed_once_per_check_and_reports_are_identical(monkeypatch):
    """A plain psi's summed exponent rows, the sheared rows of the plain sum
    psi + phi, are read once per verify_duality call, whatever the number of
    batches, and the report is bit-identical to that of the tricharacter psi
    with the same values, whose sum with phi is a tricharacter that streams."""
    tw = z4_scalar_twist()
    tri = Tricharacter(tw.group, levi_civita(), 4)
    plain = Cochain3(tw.group, tri.table, tri.den)
    calls, rows = [], CochainTable.sheared_rows
    monkeypatch.setattr(CochainTable, "sheared_rows", lambda c: calls.append(type(c)) or rows(c))
    trials = 3 * _pairs_per_batch(tw.group.order, tw.dim)
    report = verify_duality(tw, plain, trials=trials, seed=3)
    assert calls == [Cochain3]
    assert report.as_dict() == verify_duality(tw, tri, trials=trials, seed=3).as_dict()
    assert calls == [Cochain3]  # tri + phi is a tricharacter, read by its own rows
    assert report.passed and report.trials == trials


def test_a_verdict_passes_when_tol_equals_the_achieved_error():
    """Every float verdict passes on error <= tol: verify_duality and
    criterion 4 rerun with tol set to the error they achieved."""
    tw = pauli_m2_twist()
    psi = Cochain3.zero(tw.group)
    missed = verify_duality(tw, psi, trials=4, include_multiplier=False)
    assert not missed.passed and missed.witness is not None
    at = verify_duality(tw, psi, trials=4, tol=missed.max_error, include_multiplier=False)
    assert at.passed and at.max_error == missed.max_error and at.witness is None
    worst = criterion_fourier_evaluation(trials=5).data["max_error"]
    assert criterion_fourier_evaluation(tolerance=worst, trials=5).passed


@pytest.mark.parametrize("den", [1, 2, 3, 4, 6, 8, 12, 127, 128, 255, 1000])
def test_row_phases_are_the_phases_of_the_row_in_lowest_terms(den):
    """The row phases of the duality check and of strictified_product equal
    exp_phases of the row in lowest terms bit for bit, on narrow unsigned
    rows as sheared_rows yields them, with and without a common factor: the
    quarter-turn shortcut changes no bit."""
    rng = np.random.default_rng(den)
    for step in {1, 2, 3, den}:
        if den % step:
            continue
        row = (rng.integers(0, den // step, size=(16, 16)) * step).astype(
            np.min_scalar_type(den - 1)
        )
        assert np.array_equal(crossed._row_phases(row, den), exp_phases(*_lowest_terms(row, den)))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_block_product_is_matmul_on_stacked_blocks(d):
    """The unrolled block product equals np.matmul on broadcast stacks of
    d x d blocks, also written in place over either operand."""
    rng = np.random.default_rng(d)
    a = rng.standard_normal((6, 4, 3, d, d)) + 1j * rng.standard_normal((6, 4, 3, d, d))
    b = rng.standard_normal((4, 3, d, d)) + 1j * rng.standard_normal((4, 3, d, d))
    expected = a @ b
    assert np.abs(_block_product(a, b) - expected).max() <= 1e-13
    assert np.abs(_block_product(a[0, 0], b[0]) - a[0, 0] @ b[0]).max() <= 1e-13
    into = np.empty_like(expected)
    assert _block_product(a, b, out=into) is into
    assert np.abs(into - expected).max() <= 1e-13
    left = a.copy()
    assert _block_product(left, b, out=left) is left
    assert np.abs(left - expected).max() <= 1e-13
    right = np.broadcast_to(b, a.shape).copy()
    assert _block_product(a, right, out=right) is right
    assert np.abs(right - expected).max() <= 1e-13


@pytest.mark.parametrize(
    "check",
    [
        lambda **kw: verify_duality(z4_scalar_twist(), epsilon_tricharacter_z4(), **kw),
        lambda **kw: nap_condition_check(octonion_bundle(), **kw),
    ],
    ids=["verify_duality", "nap_condition_check"],
)
@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": "5"}, "trials '5' is not an integer"),
        ({"trials": 2.5}, "trials 2.5 is not an integer"),
        ({"trials": True}, "trials True is not an integer"),
        ({"seed": -1}, "seed -1 is negative"),
        ({"seed": 1.0}, "seed 1.0 is not an integer"),
        ({"tol": float("nan")}, "tol nan must be a finite non-negative number"),
        ({"tol": -1}, "tol -1 must be a finite non-negative number"),
        ({"tol": "1e-10"}, "tol '1e-10' must be a finite non-negative number"),
        ({"tol": float("inf")}, "tol inf must be a finite non-negative number"),
        pytest.param(
            {"tol": 10**400},
            f"tol {10**400} must be a finite non-negative number",
            id="kwargs9-tol 10**400 must be a finite non-negative number",
        ),
    ],
)
def test_duality_refuses_malformed_arguments_with_a_typed_error(check, kwargs, message):
    # trials "5", 2.5 or True raised a bare TypeError, seed -1 numpy's
    # ValueError, tol nan or -1 returned a failing report with no witness, and
    # tol inf or 10**400 passed every float verdict
    with pytest.raises(ConfigError, match=f"^{message}$"):
        check(**kwargs)


@pytest.mark.parametrize("twist", [z4_scalar_twist, pauli_m2_twist], ids=["d1", "d2"])
def test_a_batch_is_drawn_as_strictified_elements_a_then_b(twist):
    """_draw_batch fills a and b(y - z, z) with the values that
    StrictifiedElement.random draws, a then b, pair by pair, bit for bit."""
    tw = twist()
    a, b_sub = crossed._draw_batch(tw, np.random.default_rng(11), 3)
    rng = np.random.default_rng(11)
    for i in range(3):
        assert np.array_equal(a[i], StrictifiedElement.random(tw, rng).values)
        b = StrictifiedElement.random(tw, rng).values
        assert np.array_equal(b_sub[i], crossed._at(b, crossed._diffs(tw.group)))


def test_the_duality_check_holds_two_batch_arrays():
    """At |G| = 128 (the duality_large inputs) with one batch of 8 pairs, the
    check's traced peak stays below its two batch arrays (a and b(y - z, z)),
    one tile of weighted summands and four n^2 complex rows."""
    group = make_group([2, 4, 4, 4])
    eps = levi_civita(group.rank)
    tw = TwistData.scalar_from_sigma(group, trivializing_cochain(Tricharacter(group, eps, 2)))
    psi = Tricharacter(group, eps, 4)
    n = group.order
    batch, tile = _pairs_per_batch(n, 1), _pairs_per_tile(n, 1)
    assert (batch, tile) == (8, 2)
    verify_duality(tw, psi, trials=1)  # numpy's one-time allocations
    tracemalloc.start()
    try:
        report = verify_duality(tw, psi, trials=batch, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.trials == batch
    assert peak < (2 * batch + tile + 4) * n * n * 16


def shear_invariant_cochain(group, den, rng):
    """A plain 3-cochain c over den with c(w - y, y - z, z) = c(w, y, z): one
    random value on each orbit of (a, b, c) -> (a + b + c, b + c, c) that
    avoids the identity in every slot, zero on the others."""
    n, add = group.order, group.add_table
    table = np.zeros((n, n, n), dtype=np.int64)
    seen = np.zeros((n, n, n), dtype=bool)
    for start in itertools.product(range(n), repeat=3):
        if seen[start]:
            continue
        orbit, cell = [], start
        while not seen[cell]:
            seen[cell] = True
            orbit.append(cell)
            a, b, c = cell
            cell = (add[add[a, b], c], add[b, c], c)
        value = 0 if any(0 in cell for cell in orbit) else int(rng.integers(1, den))
        for cell in orbit:
            table[cell] = value
    return Cochain3(group, table, den)


def test_duality_past_the_common_denominator_bound_multiplies_phase_rows():
    """sigma over 4 (2^31 + 11), with delta sigma = delta tau over 4, and a
    shear-invariant psi over 2^31 - 1: both sides' exponents need a common
    denominator past 2^62, so their phase rows are multiplied term by term.
    The parent accepts this validated twist; the check passes, and without
    the multiplier it fails at the per-pair reference's witness."""
    group = make_group([4, 4])
    n, add = group.order, group.add_table
    rng = np.random.default_rng(23)
    big, other = 2**31 + 11, 2**31 - 1
    f = rng.integers(0, big, size=n)
    f[0] = 0
    df = (f[None, :] - f[add] + f[:, None]) % big  # delta f(x, y), a 2-cocycle
    t = rng.integers(0, 4, size=(n, n))
    t[0] = t[:, 0] = 0
    tau = Cochain2(group, t, 4)
    sigma = tau + Cochain2(group, df, big)
    tw = TwistData.scalar_from_sigma(group, sigma)
    assert tw.phi == coboundary2(tau) and tw.phi.den <= 4 and sigma.den == 4 * big
    psi = shear_invariant_cochain(group, other, rng)
    assert psi.den == other
    for include_multiplier in (True, False):
        rows = crossed._DualityRows(tw, psi, include_multiplier).exponent_rows()
        _, left, right = next(rows)
        assert crossed._exponent_sum(left) is None
        assert (crossed._exponent_sum(right) is None) == include_multiplier
    assert verify_duality(tw, psi, trials=4, seed=2).passed
    report = verify_duality(tw, psi, trials=4, seed=2, include_multiplier=False)
    mode, trials, max_error, witness = per_pair_duality(tw, psi, 4, 2, False)
    assert (report.mode, report.trials, report.witness) == (mode, trials, witness)
    assert not report.passed and abs(report.max_error - max_error) <= 1e-9 * max_error


@pytest.mark.parametrize("setup", [z4_with_epsilon_psi, m2_with_octonion_psi], ids=["d1", "d2"])
def test_a_row_makes_one_sum_per_tile(setup, monkeypatch):
    """With the entry budget cut to 3 pairs a tile, a batch of 8 pairs runs
    3 tiles a row, and a row forms one weighted sum of e(E_L) - e(E_R) per
    tile, for d = 2 as for d = 1."""
    tw, psi = setup()
    n, d = tw.group.order, tw.dim
    monkeypatch.setattr(crossed, "_ENTRY_BUDGET", 3 * n * n * d * d)
    calls = []
    sum_over_y = crossed._sum_over_y
    monkeypatch.setattr(crossed, "_sum_over_y", lambda *args: calls.append(1) or sum_over_y(*args))
    batch = crossed._draw_batch(tw, np.random.default_rng(0), 8)
    rows = list(crossed._DualityRows(tw, psi, True).rows(*batch))
    assert len(rows) == n and all(defect.shape == (8, n, d, d) for _, defect in rows)
    assert len(calls) == 3 * n


def exact_and_float_reports(check, *args, **kwargs):
    """check(*args, **kwargs).as_dict() as it stands, the answers of
    _DualityRows.rows_agree in that call, and the report again with every
    rows_agree answering "not decided", which runs the float rows on every
    pair."""
    answers, rows_agree = [], crossed._DualityRows.rows_agree
    with pytest.MonkeyPatch.context() as m:
        m.setattr(crossed._DualityRows, "rows_agree", lambda s: answers.append(rows_agree(s)) or answers[-1])
        exact = check(*args, **kwargs).as_dict()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(crossed._DualityRows, "rows_agree", lambda s: False)
        floats = check(*args, **kwargs).as_dict()
    return exact, answers, floats


def one_slot_psi(tw):
    """The tricharacter with one nonzero tensor entry mod 4: not alternating,
    so not shear-invariant, and the duality check fails."""
    tensor = np.zeros((3, 3, 3), dtype=np.int64)
    tensor[0, 1, 2] = 1
    return Tricharacter(tw.group, tensor, 4)


@pytest.mark.parametrize(
    "setup, psi",
    [
        (pauli_m2_twist, lambda tw: Cochain3.zero(tw.group)),
        (pauli_m2_twist, lambda tw: -tw.phi),
        (pauli_m2_twist, lambda tw: octonion_associator_tricharacter(tw.group)),
        (z4_scalar_twist, lambda tw: Cochain3.zero(tw.group)),
        (z4_scalar_twist, lambda tw: -tw.phi),
        (z4_scalar_twist, lambda tw: epsilon_tricharacter_z4()),
    ],
    ids=["m2-zero", "m2-minus-phi", "m2-tricharacter", "z4-zero", "z4-minus-phi", "z4-generic"],
)
def test_criterion_5_reports_are_those_of_the_float_rows(setup, psi):
    """Criterion 5's six regimes, the d = 2 Pauli twist as the scalar one,
    are each decided by their exact rows alone, and the report is the one
    the float rows give on every pair, bit for bit."""
    tw = setup()
    exact, answers, floats = exact_and_float_reports(verify_duality, tw, psi(tw), trials=100)
    assert exact == floats and answers == [True]
    assert exact["passed"] and exact["max_error"] == 0.0 and exact["witness"] is None


@pytest.mark.parametrize("bundle", [octonion_bundle, two_point_bundle])
def test_nap_condition_reports_are_those_of_the_float_rows(bundle):
    """Every fiber of a bundled NAP bundle is a scalar twist that its exact
    rows decide, with the float rows' report."""
    built = bundle()
    exact, answers, floats = exact_and_float_reports(nap_condition_check, built)
    assert exact == floats and exact["passed"]
    assert answers == [True] * len(built.base)


@pytest.mark.parametrize("control", ["one_slot_psi", "without_multiplier"])
def test_failing_scalar_checks_keep_the_float_rows_report(control):
    """A psi that is not shear-invariant and a check without the multiplier
    differ at an exact row, so every pair runs through the float rows and
    the failure keeps its error and worst-trial witness."""
    tw = z4_scalar_twist()
    if control == "one_slot_psi":
        args, kwargs = (tw, one_slot_psi(tw)), {}
    else:
        args, kwargs = (tw, epsilon_tricharacter_z4()), {"include_multiplier": False}
    exact, answers, floats = exact_and_float_reports(verify_duality, *args, trials=20, seed=3, **kwargs)
    assert exact == floats and answers == [False]
    assert not exact["passed"] and exact["witness"][0] == "trial"


def test_a_scalar_check_that_its_rows_decide_draws_no_pair(monkeypatch):
    """A passing scalar check never reaches _draw_batch; the same check
    without the multiplier fails at an exact row and draws its pairs."""

    def refuse(*args):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(crossed, "_draw_batch", refuse)
    tw, psi = z4_scalar_twist(), epsilon_tricharacter_z4()
    report = verify_duality(tw, psi, trials=100)
    assert report.passed and report.trials == 100 and report.mode == "random"
    with pytest.raises(AssertionError, match="a batch was drawn"):
        verify_duality(tw, psi, trials=100, include_multiplier=False)


def test_rows_that_differ_only_after_the_first_are_not_decided():
    """A one-entry psi at (a, b, c) enters E_R only in row w = a and E_L only
    in row w = a + b + c; with a != 0 row 0 agrees, and the check still runs
    the float rows and fails, with their report."""
    tw = z4_scalar_twist()
    psi = Cochain3.from_entries(tw.group, {((1, 0, 0), (0, 1, 0), (0, 0, 1)): "1/4"})
    _, left, right = next(crossed._DualityRows(tw, psi, True).exponent_rows())
    (e_left, den_left), (e_right, den_right) = crossed._exponent_sum(left), crossed._exponent_sum(right)
    assert den_left == den_right and np.array_equal(e_left, e_right)
    exact, answers, floats = exact_and_float_reports(verify_duality, tw, psi, trials=8, seed=3)
    assert exact == floats and answers == [False] and not exact["passed"]
