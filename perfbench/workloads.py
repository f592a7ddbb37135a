"""The benchmark's workloads, driven through the public API of natorus.

Each workload has three parts: `setup(seed)` builds the inputs (timed as set-up),
`run(inputs)` makes every check call (timed as wall time), and
`observe(inputs, result)` turns the outcome into what the gate compares:
`exact` values (verdicts, witnesses in group coordinates, SHA-256 digests of
exact tables), which must equal the stored references, and `bounded` float
errors, each checked against the program's own tolerance. Verdicts and
digests do not depend on the seed; only the random float trials do.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re

import numpy as np

import natorus as nt
from natorus import acceptance

TOLERANCE = 1e-10  # the tolerance `natorus verify-all` runs with
# The Levi-Civita tensor sits on the last three (Z/4) factors of both groups.
DUALITY_FACTORS = (2, 4, 4, 4)  # |G| = 128: n^3 tables of 16 MB (int64) and 32 MB (complex)
SWEEP_FACTORS = (4, 4, 4)  # |G| = 64: 2 MB int64 chunks per sweep step, ~1.5 s a pass
DUALITY_TRIALS = 8
CONTROL_TRIALS = 2
CONTROL_FLOOR = 1e-3  # a multiplier-free duality check must miss by more than this
SCI_FLOAT = re.compile(r"[-+]?\d\.\d+e[-+]\d+")


def digest(cochain) -> str:
    h = hashlib.sha256(repr((cochain.den, cochain.table.shape)).encode())
    h.update(np.ascontiguousarray(cochain.table, dtype=np.int64).data)
    return h.hexdigest()


def coords(elements) -> list | None:
    return None if elements is None else [list(e.coords) for e in elements]


def epsilon_tensor(rank: int) -> np.ndarray:
    """The Levi-Civita tensor on the last three coordinates of a rank-`rank` group."""
    eps = np.zeros((rank, rank, rank), dtype=np.int64)
    o = rank - 3
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[o + i, o + j, o + k] = 1
        eps[o + j, o + i, o + k] = -1
    return eps


def _unit(rank: int, axis: int) -> tuple:
    return tuple(int(a == axis) for a in range(rank))


# ------------------------------------------------------------ verify_suite


def verify_suite_setup(seed):
    # run_all builds its own presets, so set-up is the import alone.
    return {"seed": seed}


def verify_suite_run(inputs):
    return acceptance.run_all(
        tolerance=TOLERANCE, trials=100, seed=inputs["seed"], stream=io.StringIO()
    )


def verify_suite_observe(inputs, results):
    exact, bounded = {}, []
    exact["criteria"] = [r.number for r in results]
    for r in results:
        key = f"c{r.number}"
        exact[f"{key}.passed"] = r.passed
        masked = SCI_FLOAT.sub("#", f"{r.name}|{r.detail}")
        exact[f"{key}.detail_sha"] = hashlib.sha256(masked.encode()).hexdigest()
        for i, value in enumerate(SCI_FLOAT.findall(r.detail)):
            if r.number == 9:  # the multiplier-free control must miss
                bounded.append([f"{key}.control_error", float(value), ">", CONTROL_FLOOR])
            else:
                bounded.append([f"{key}.error[{i}]", float(value), "<=", TOLERANCE])
        if "max_error" in r.data:
            bounded.append([f"{key}.max_error", r.data["max_error"], "<", TOLERANCE])
        if r.number == 9:
            phi_w = re.search(r"non-cocycle phi witnessed: \w+ \(witness (\(.*?\)\))\)", r.detail)
            act_w = re.search(r"broken action witnessed: \w+ \(witness (\(.*?\))\)", r.detail)
            exact["c9.phi_witness"] = _literal(phi_w)
            exact["c9.action_witness"] = _literal(act_w)
    return {"exact": exact, "bounded": bounded}


def _literal(match):
    if match is None:
        return None
    return _lists(ast.literal_eval(match.group(1)))


def _lists(value):
    return [_lists(v) for v in value] if isinstance(value, tuple) else value


# ------------------------------------------------------------ duality_large


def duality_large_setup(seed):
    group = nt.make_group(DUALITY_FACTORS)
    eps = epsilon_tensor(group.rank)
    tau = nt.trivializing_cochain(nt.Tricharacter(group, eps, 2))
    twist = nt.TwistData.scalar_from_sigma(group, tau)  # validates exhaustively
    psi = nt.Tricharacter(group, eps, 4)
    return {"seed": seed, "tau": tau, "twist": twist, "psi": psi}


def duality_large_run(inputs):
    tw, psi, seed = inputs["twist"], inputs["psi"], inputs["seed"]
    report = nt.verify_duality(tw, psi, trials=DUALITY_TRIALS, seed=seed, tol=TOLERANCE)
    control = nt.verify_duality(
        tw, psi, trials=CONTROL_TRIALS, seed=seed, tol=TOLERANCE, include_multiplier=False
    )
    return report, control


def duality_large_observe(inputs, result):
    report, control = result
    exact = {
        "psi_sha": digest(inputs["psi"]),
        "tau_sha": digest(inputs["tau"]),
        "twist_phi_sha": digest(inputs["twist"].phi),
        "duality.passed": report.passed,
        "duality.mode": report.mode,
        "duality.trials": report.trials,
        "duality.witness": report.witness,
        "control.passed": control.passed,
        "control.mode": control.mode,
        "control.witness_kind": None if control.witness is None else control.witness[0],
    }
    bounded = [
        ["duality.max_error", report.max_error, "<", report.tol],
        ["control.max_error", control.max_error, ">", CONTROL_FLOOR],
    ]
    return {"exact": exact, "bounded": bounded}


# ------------------------------------------------------------ exact_sweeps


def exact_sweeps_setup(seed):
    # No float trials here: the seed changes nothing.
    group = nt.make_group(SWEEP_FACTORS)
    k = group.rank
    psi = nt.Tricharacter(group, epsilon_tensor(k), 4)
    delta = nt.Cochain3.from_entries(
        group, [((_unit(k, k - 3), _unit(k, k - 2), _unit(k, k - 1)), "1/4")]
    )
    return {"psi": psi, "corrupted": psi + delta}


def exact_sweeps_run(inputs):
    psi = inputs["psi"]
    return (
        nt.is_cocycle3(psi),
        nt.check_multiplier_relation(psi),
        nt.associativity_cocycle_sweep(psi),
        nt.cocycle3_witness(inputs["corrupted"]),
    )


def exact_sweeps_observe(inputs, result):
    cocycle, multiplier, assoc, witness = result
    exact = {
        "psi_sha": digest(inputs["psi"]),
        "corrupted_sha": digest(inputs["corrupted"]),
        "psi.is_cocycle3": cocycle,
        "psi.multiplier_witness": None if multiplier is None else list(multiplier),
        "psi.assoc_witness": None if assoc is None else list(assoc),
        "corrupted.witness": coords(witness),
    }
    return {"exact": exact, "bounded": []}


WORKLOADS = {
    "verify_suite": (verify_suite_setup, verify_suite_run, verify_suite_observe),
    "duality_large": (duality_large_setup, duality_large_run, duality_large_observe),
    "exact_sweeps": (exact_sweeps_setup, exact_sweeps_run, exact_sweeps_observe),
}
