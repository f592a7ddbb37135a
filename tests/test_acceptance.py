"""Full acceptance gate: every verification criterion at its stated bounds.

The nine checks below are the same ones `natorus verify-all` runs. Each test
prints the one-line pass/fail summary for its criterion so a verbose pytest
run doubles as the acceptance report.
"""

import io

import numpy as np
import pytest

from natorus import (
    Cochain3,
    GAction,
    GradedElement,
    deformed_product,
    evaluation_side_product,
    fourier_side_product,
    make_group,
    octonion_algebra,
    octonion_group,
    phi_zero_intertwiner,
)
from natorus.acceptance import run_all
from natorus.presets import m4_conjugation_action

TOLERANCE = 1e-10
TRIALS = 100
SEED = 0


@pytest.fixture(scope="module")
def results():
    buf = io.StringIO()
    res = run_all(tolerance=TOLERANCE, trials=TRIALS, seed=SEED, stream=buf)
    return {r.number: r for r in res}


def check(results, number, runtime_bound=None):
    r = results[number]
    print(r.line())
    assert r.passed, f"{r.name}: {r.detail}"
    if runtime_bound is not None:
        assert r.runtime < runtime_bound, f"{r.name} took {r.runtime:.2f}s"
    return r


def test_cocycle_substrate_exhaustive(results):
    check(results, 1, runtime_bound=5.0)


def test_multiplier_relation_all_triples(results):
    check(results, 2, runtime_bound=1.0)


def test_associativity_cocycle_reproduced(results):
    check(results, 3, runtime_bound=5.0)


def test_fourier_side_equals_evaluation_side(results):
    r = check(results, 4)
    assert r.data["max_error"] < 1e-10


def test_duality_all_three_regimes(results):
    r = check(results, 5, runtime_bound=60.0)
    assert r.data["max_error"] < 1e-10


def test_deformation_consistency(results):
    check(results, 6)


def test_octonion_suite(results):
    check(results, 7)


def test_bundle_construction_and_sigma_recovery(results):
    check(results, 8)


def test_negative_controls(results):
    check(results, 9)


def test_every_criterion_covered(results):
    assert sorted(results) == list(range(1, 10))


def test_sweeping_criteria_fail_when_the_certificate_disagrees(monkeypatch):
    """Criteria 1-3 sweep plain-table copies of the bundled tricharacters and
    fail, saying why, when the tensor certificate gives another answer."""
    from natorus import Tricharacter, acceptance

    monkeypatch.setattr(Tricharacter, "coboundary_witness", property(lambda self: (1, 1, 1, 1)))
    swept = acceptance.associativity_cocycle_sweep

    def certified_wrongly(phi):
        return (0, 0, 0, 0) if isinstance(phi, Tricharacter) else swept(phi)

    monkeypatch.setattr(acceptance, "associativity_cocycle_sweep", certified_wrongly)
    for criterion in acceptance.ALL_CRITERIA[:3]:
        r = criterion(tolerance=TOLERANCE, trials=TRIALS, seed=SEED)
        assert not r.passed
        assert r.detail.endswith("; sweep and tensor certificate disagree"), r.detail


# ------------------------------------------- sampled criteria against their loops
#
# Criteria 4, 6 and 7 draw their samples as arrays and call each kernel once per
# chunk of pairs. The per-pair loops they replaced are kept here as references:
# each criterion must leave its generator where its loop leaves it, and give
# the loop's errors.


def fourier_pairs_one_by_one(trials, seed):
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
    return worst, rng


def flat_intertwiner_pairs_one_by_one(trials, seed):
    """Criterion 6's flat loop, then the associator table's draws: one
    generic matrix per character of Z/2^3, one call each."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for action in (GAction.translation(make_group([4])), m4_conjugation_action()):
        phi0 = Cochain3.zero(action.group)
        for _ in range(trials):
            a = GradedElement.from_matrix(action, action.algebra.random_element(rng))
            b = GradedElement.from_matrix(action, action.algebra.random_element(rng))
            lhs = phi_zero_intertwiner(deformed_product(a, b, phi0))
            rhs = phi_zero_intertwiner(a) @ phi_zero_intertwiner(b)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    octonion_translation = GAction.translation(octonion_group())
    for _ in octonion_group().elements:
        octonion_translation.algebra.random_element(rng)
    return worst, rng


def norm_pairs_one_by_one(seed):
    alg = octonion_algebra()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        a = alg.element(rng.standard_normal(8))
        b = alg.element(rng.standard_normal(8))
        ab = a * b
        worst = max(worst, abs(ab.norm() - a.norm() * b.norm()) / (a.norm() * b.norm()))
    return worst, rng


def generators_made(monkeypatch):
    """Every generator np.random.default_rng makes from here on, in order."""
    made = []
    make = np.random.default_rng

    def recorded(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recorded)
    return made


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_sampled_criteria_match_their_per_pair_loops(monkeypatch, seed):
    """Criteria 4 and 6 give their loop's worst error bit for bit, criterion
    7 its loop's printed norm error, and each leaves its generator (the first
    it makes) in its loop's final state."""
    from natorus import acceptance

    loops = {
        4: fourier_pairs_one_by_one(TRIALS, seed),
        6: flat_intertwiner_pairs_one_by_one(TRIALS, seed),
        7: norm_pairs_one_by_one(seed),
    }
    criteria = {
        4: acceptance.criterion_fourier_evaluation,
        6: acceptance.criterion_deformation_consistency,
        7: acceptance.criterion_octonion_suite,
    }
    for number, (worst, loop_rng) in loops.items():
        made = generators_made(monkeypatch)
        r = criteria[number](tolerance=TOLERANCE, trials=TRIALS, seed=seed)
        monkeypatch.undo()
        assert r.passed, r.detail
        assert made[0].bit_generator.state == loop_rng.bit_generator.state, number
        if number == 7:
            assert r.detail.startswith(f"norm mult rel err {worst:.2e} (1000 pairs);"), r.detail
        else:
            assert r.data["max_error"] == worst, number


def counted(monkeypatch, owner, name):
    """The arguments of every call of owner.name from here on."""
    calls = []
    call = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return call(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_flat_intertwiner_makes_one_deformed_product_per_chunk(monkeypatch):
    """Criterion 6 stacks its pairs: one deformed_product call per chunk of
    pairs for each action (n d = 16 for both), never one per pair."""
    from natorus import acceptance

    calls = counted(monkeypatch, acceptance, "deformed_product")
    acceptance.criterion_deformation_consistency(tolerance=TOLERANCE, trials=TRIALS, seed=SEED)
    chunks = acceptance._chunks(TRIALS, 16 * 16**2)
    assert 1 < len(chunks) < TRIALS
    assert [a.blocks.shape[0] for a, _, _ in calls] == chunks * 2


def test_norm_check_makes_one_product_per_chunk(monkeypatch):
    """Criterion 7 multiplies its 1,000 norm pairs one stacked call per chunk
    (2-D coefficient stacks); its exhaustive alternativity check stacks every
    basis pair too, so it makes a handful of calls in all."""
    from natorus import TwistedGroupAlgebra, acceptance

    calls = counted(monkeypatch, TwistedGroupAlgebra, "multiply")
    acceptance.criterion_octonion_suite(tolerance=TOLERANCE, trials=TRIALS, seed=SEED)
    stacked = [x.coeffs.shape[0] for _, x, _ in calls if x.coeffs.ndim == 2]
    assert stacked == acceptance._chunks(1000, 16 * 8**2)
    assert 1 < len(stacked) < 100 and sum(stacked) == 1000
    assert len(calls) - len(stacked) < 10
