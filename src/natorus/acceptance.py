"""The package's verification suite: nine independent checks, one line each.

Every check returns a CriterionResult; run_all executes them in order and
prints a single PASS/FAIL line per criterion. The CLI's verify-all
subcommand and the acceptance tests are both thin wrappers over this module.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import presets
from .bundles import extract_sigma, nap_condition_check
from .cochains import (
    Cochain2,
    Cochain3,
    check_multiplier_relation,
    coboundary2,
    cocycle3_witness,
    is_cocycle3,
    is_trivial_on,
)
from .crossed import TwistData, evaluation_side_product, fourier_side_product, verify_duality
from .groups import make_group
from .kernels import associativity_cocycle_sweep
from .phases import Report
from .quantization import (
    GAction,
    GradedElement,
    associator_table,
    deformed_product,
    grading_check,
    phi_zero_intertwiner,
)
from .twisted_algebra import (
    cross_form,
    octonion_algebra,
    octonion_associator_tricharacter,
    octonion_group,
)


@dataclass
class CriterionResult(Report):
    number: int
    name: str
    passed: bool
    runtime: float
    detail: str
    data: dict = field(default_factory=dict)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number}: {self.name} ({self.runtime:.2f}s) {self.detail}"


def _result(number, name, t0, passed, detail, **data) -> CriterionResult:
    return CriterionResult(number, name, bool(passed), time.perf_counter() - t0, detail, data)


def _random_cochain2(group, rng, den: int = 8) -> Cochain2:
    table = rng.integers(0, den, size=(group.order,) * 2)
    table[0, :] = 0
    table[:, 0] = 0
    return Cochain2(group, table, den)


def _swept(check, phi: Cochain3):
    """check(phi) by the exhaustive sweep, on a plain-table copy of phi, and
    whether that answer equals check(phi) itself, which a `Tricharacter`
    certifies from its tensor."""
    swept = check(Cochain3(phi.group, phi.table, phi.den))
    return swept, swept == check(phi)


def _disagreement(agree: bool) -> str:
    return "" if agree else "; sweep and tensor certificate disagree"


def criterion_cocycle_substrate(tolerance=1e-10, trials=100, seed=0) -> CriterionResult:
    """delta phi = 0 exhaustively for both bundled tricharacters, swept on
    plain-table copies and matched against their tensor certificates; delta
    of a coboundary vanishes for random 2-cochains."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    oct_ok, oct_agree = _swept(is_cocycle3, octonion_associator_tricharacter())
    eps_ok, eps_agree = _swept(is_cocycle3, presets.epsilon_tricharacter_z4())
    dd_ok = True
    for group in (octonion_group(), make_group([4])):
        for _ in range(25):
            dd_ok = dd_ok and is_cocycle3(coboundary2(_random_cochain2(group, rng)))
    agree = oct_agree and eps_agree
    passed = oct_ok and eps_ok and dd_ok and agree
    detail = (
        f"octonion exhaustive: {oct_ok}; eps mod 4 on Z/4^3 exhaustive: {eps_ok}; "
        f"delta(delta sigma) = 0 for 50 random 2-cochains: {dd_ok}"
    ) + _disagreement(agree)
    return _result(1, "cocycle substrate", t0, passed, detail)


def criterion_multiplier_relation(tolerance=1e-10, trials=100, seed=0) -> CriterionResult:
    """The diagonal multiplier from phi satisfies its defining relation on
    all 512 triples of Z/2^3, exactly: swept on a plain-table copy and
    matched against the tensor certificate."""
    t0 = time.perf_counter()
    witness, agree = _swept(check_multiplier_relation, octonion_associator_tricharacter())
    detail = "all 512 triples exact" if witness is None else f"failed at {witness}"
    passed = witness is None and agree
    return _result(2, "multiplier relation", t0, passed, detail + _disagreement(agree))


def criterion_associativity_cocycle(tolerance=1e-10, trials=100, seed=0) -> CriterionResult:
    """The translation-multiplier combination is constant and equals
    phi(eta, zeta, xi) for every triple, on both bundled tricharacters (swept
    on plain-table copies and matched against their tensor certificates);
    restricting phi to a trivializing subgroup kills it."""
    t0 = time.perf_counter()
    phi_oct = octonion_associator_tricharacter()
    phi_z4 = presets.epsilon_tricharacter_z4()
    oct_fail, oct_agree = _swept(associativity_cocycle_sweep, phi_oct)
    z4_fail, z4_agree = _swept(associativity_cocycle_sweep, phi_z4)
    r_oct = is_trivial_on(phi_oct, presets.octonion_trivializing_generators())
    r_z4 = is_trivial_on(phi_z4, presets.z4_trivializing_generators())
    agree = oct_agree and z4_agree
    passed = oct_fail is None and z4_fail is None and r_oct and r_z4 and agree
    detail = (
        f"octonion sweep: {'clean' if oct_fail is None else oct_fail}; "
        f"Z/4^3 sweep: {'clean' if z4_fail is None else z4_fail}; "
        f"vanishes on trivializing subgroups: {r_oct and r_z4}"
    ) + _disagreement(agree)
    return _result(3, "associativity cocycle", t0, passed, detail)


def criterion_fourier_evaluation(tolerance=1e-10, trials=100, seed=0) -> CriterionResult:
    """Fourier-side convolution equals the shifted-evaluation product for
    scalar and 2x2-block coefficients on Z/4."""
    t0 = time.perf_counter()
    group = make_group([4])
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dim in (1, 2):
        shape = (4, 4) if dim == 1 else (4, 4, dim, dim)
        for _ in range(trials):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            diff = evaluation_side_product(group, a, b) - fourier_side_product(group, a, b)
            worst = max(worst, float(np.abs(diff).max()))
    detail = f"max error {worst:.3e} over {2 * trials} pairs (scalar and M2 blocks)"
    return _result(4, "fourier vs evaluation product", t0, worst <= tolerance, detail, max_error=worst)


def criterion_duality(tolerance=1e-10, trials=100, seed=0) -> CriterionResult:
    """The duality transform intertwines the strictified product with the
    psi-twisted kernel product in every regime.

    On Z/2^3 with M2 coefficients and the octonion phi the alternating
    tricharacters are exactly {0, phi} and -phi = phi, so the generic regime
    is run both there and on the Z/4^3 scalar configuration, where a
    tricharacter distinct from 0 and +-phi exists (eps mod 4).
    """
    t0 = time.perf_counter()
    tw = presets.pauli_m2_twist()
    g = tw.group
    regimes = [
        ("psi=0", tw, Cochain3.zero(g)),
        ("psi=-phi", tw, -tw.phi),
        ("psi=tricharacter", tw, octonion_associator_tricharacter(g)),
    ]
    tw4 = presets.z4_scalar_twist()
    regimes += [
        ("z4 psi=0", tw4, Cochain3.zero(tw4.group)),
        ("z4 psi=-phi", tw4, -tw4.phi),
        ("z4 psi generic", tw4, presets.epsilon_tricharacter_z4()),
    ]
    worst = 0.0
    passed = True
    parts = []
    for name, twist, psi in regimes:
        rep = verify_duality(twist, psi, trials=trials, seed=seed, tol=tolerance)
        worst = max(worst, rep.max_error)
        passed = passed and rep.passed
        parts.append(f"{name}: {rep.max_error:.2e}")
    detail = f"{trials} pairs per regime; " + "; ".join(parts)
    return _result(5, "duality transform", t0, passed, detail, max_error=worst)


def criterion_deformation_consistency(tolerance=1e-10, trials=100, seed=0) -> CriterionResult:
    """With phi = 0 the block intertwiner is multiplicative for both bundled
    actions; with the octonion phi the homogeneous associator phase is
    exactly phi on every character triple."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for action in (GAction.translation(make_group([4])), presets.m4_conjugation_action()):
        phi0 = Cochain3.zero(action.group)
        for _ in range(trials):
            a = GradedElement.from_matrix(action, action.algebra.random_element(rng))
            b = GradedElement.from_matrix(action, action.algebra.random_element(rng))
            lhs = phi_zero_intertwiner(deformed_product(a, b, phi0))
            rhs = phi_zero_intertwiner(a) @ phi_zero_intertwiner(b)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    flat_ok = worst <= tolerance
    rep = associator_table(
        GAction.translation(octonion_group()),
        octonion_associator_tricharacter(),
        rng=rng,
        tol=tolerance,
    )
    passed = flat_ok and rep.passed
    detail = (
        f"flat intertwiner max error {worst:.3e} over {2 * trials} pairs; "
        f"associator orientation on all {len(rep.entries)} triples: max {rep.max_error:.3e}"
    )
    return _result(6, "flat intertwiner and associator orientation", t0, passed, detail)


def criterion_octonion_suite(tolerance=1e-10, trials=100, seed=0) -> CriterionResult:
    """Norm multiplicativity, alternativity, unit squares, the associator
    cross-product formula, and the over-a-point bundle condition."""
    t0 = time.perf_counter()
    alg = octonion_algebra()
    g = alg.group
    rng = np.random.default_rng(seed)
    norm_worst = 0.0
    for _ in range(1000):
        a = alg.element(rng.standard_normal(8))
        b = alg.element(rng.standard_normal(8))
        ab = a * b
        norm_worst = max(norm_worst, abs(ab.norm() - a.norm() * b.norm()) / (a.norm() * b.norm()))
    norm_ok = norm_worst < 1e-12
    basis = alg.basis
    alt_ok = True
    for ea in basis:
        aa = ea * ea
        for eb in basis:
            left = ea * (ea * eb)
            right = (ea * ea) * eb
            alt_ok = alt_ok and np.array_equal(left.coeffs, right.coeffs)
            left = (eb * ea) * ea
            right = eb * aa
            alt_ok = alt_ok and np.array_equal(left.coeffs, right.coeffs)
    unit = basis[0]
    sq_ok = all(
        np.array_equal((e * e).coeffs, -unit.coeffs) for e in basis[1:]
    )
    assoc_ok = True
    for a in g.elements:
        for b in g.elements:
            for c in g.elements:
                assoc_ok = assoc_ok and alg.associator_phase(a, b, c) == cross_form(a, b, c)
    nap = nap_condition_check(presets.octonion_bundle(), trials=trials, seed=seed, tol=tolerance)
    exhaustive = all(r.mode == "exhaustive" for r in nap.points.values())
    passed = norm_ok and alt_ok and sq_ok and assoc_ok and nap.passed and exhaustive
    detail = (
        f"norm mult rel err {norm_worst:.2e} (1000 pairs); alternativity exact: {alt_ok}; "
        f"e(a)^2 = -1: {sq_ok}; associator = (1/2) a.(b x c) on 512 triples: {assoc_ok}; "
        f"point-bundle crossed product exhaustive: {nap.passed} ({nap.max_error:.2e})"
    )
    return _result(7, "octonion suite", t0, passed, detail)


def criterion_bundle_construction(tolerance=1e-10, trials=100, seed=0) -> CriterionResult:
    """A two-point bundle with distinct sigma passes the crossed-product
    condition fiberwise, and the multiplier quotient recovers the injected
    bicharacter exactly, as a certified 2-cocycle."""
    t0 = time.perf_counter()
    bundle = presets.two_point_bundle()
    nap = nap_condition_check(bundle, trials=trials, seed=seed, tol=tolerance)
    shift = presets.shift_bicharacter(bundle.group)
    tw_p = TwistData.scalar_from_sigma(bundle.group, bundle.fiber("p").sigma)
    tw_q = TwistData.scalar_from_sigma(bundle.group, bundle.fiber("q").sigma)
    ex = extract_sigma(tw_q, tw_p)
    recovered = ex.sigma == shift  # exact; the float error below keeps the report's form
    recovery = float(np.abs(ex.sigma.complex_table - shift.complex_table).max())
    passed = nap.passed and ex.passed and recovered
    detail = (
        f"fiberwise crossed-product condition: {nap.passed} ({nap.max_error:.2e}); "
        f"sigma extraction certified: {ex.passed}; bicharacter recovery error {recovery:.2e}"
    )
    return _result(8, "bundle construction and sigma extraction", t0, passed, detail)


def criterion_negative_controls(tolerance=1e-10, trials=100, seed=0) -> CriterionResult:
    """Corrupted inputs must fail loudly: a non-cocycle phi with a witness
    quadruple, a non-homomorphic action with a grading witness, and the
    duality check without its multiplier factor."""
    t0 = time.perf_counter()
    g = octonion_group()
    bad_phi = Cochain3.from_entries(g, [(((1, 0, 0), (0, 1, 0), (1, 1, 0)), "1/2")])
    w = cocycle3_witness(bad_phi)
    phi_caught = not is_cocycle3(bad_phi) and w is not None
    g4 = make_group([4])
    translation = GAction.translation(g4)
    wm = translation.unitaries.copy()
    wm[[2, 3]] = wm[[3, 2]]
    grading = grading_check(GAction(g4, translation.algebra, wm))
    action_caught = (not grading.passed) and grading.witness is not None
    rep = verify_duality(
        presets.pauli_m2_twist(),
        Cochain3.zero(g),
        trials=min(trials, 20),
        seed=seed,
        tol=tolerance,
        include_multiplier=False,
    )
    duality_caught = (not rep.passed) and rep.max_error > 1e-3
    passed = phi_caught and action_caught and duality_caught
    detail = (
        f"non-cocycle phi witnessed: {phi_caught} "
        f"(witness {None if w is None else tuple(x.coords for x in w)}); "
        f"broken action witnessed: {action_caught} (witness {grading.witness}); "
        f"multiplier-free duality error {rep.max_error:.2e} > 1e-3: {duality_caught}"
    )
    return _result(9, "negative controls", t0, passed, detail)


ALL_CRITERIA = (
    criterion_cocycle_substrate,
    criterion_multiplier_relation,
    criterion_associativity_cocycle,
    criterion_fourier_evaluation,
    criterion_duality,
    criterion_deformation_consistency,
    criterion_octonion_suite,
    criterion_bundle_construction,
    criterion_negative_controls,
)


def run_all(tolerance=1e-10, trials=100, seed=0, stream=None) -> list[CriterionResult]:
    """Run every criterion, printing one line each; returns all results."""
    if stream is None:
        stream = sys.stdout
    results = []
    for fn in ALL_CRITERIA:
        res = fn(tolerance=tolerance, trials=trials, seed=seed)
        results.append(res)
        print(res.line(), file=stream)
        stream.flush()
    return results
