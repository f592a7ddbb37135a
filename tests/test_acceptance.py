"""Full acceptance gate: every verification criterion at its stated bounds.

The nine checks below are the same ones `natorus verify-all` runs. Each test
prints the one-line pass/fail summary for its criterion so a verbose pytest
run doubles as the acceptance report.
"""

import io

import pytest

from natorus.acceptance import run_all

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
