"""Smoke tests for the scripts under bench/, so that they keep running."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_one_order(script, order=8):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / script), "--order", str(order)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_duality_ladder_runs_one_order():
    # Order 16 is the first that builds the trivializer from a tricharacter.
    cases = ((8, 2, {"twist", "psi"}), (16, 1, {"group", "trivializer", "twist", "psi"}))
    for order, dim, stages in cases:
        point = run_one_order("duality_ladder.py", order)
        assert point["order"] == order and point["dim"] == dim and point["trials"] == 100
        assert set(point["setup_s"]) == stages
        assert all(isinstance(s, float) and s >= 0 for s in point["setup_s"].values())
        assert point["max_error"] < 1e-10
        assert point["first_call_s"] > 0
        assert 0 < point["setup_peak_rss_mb"] <= point["peak_rss_mb"]
        # Differences of two timings, so only their presence is checked.
        assert {"per_trial_s", "call_setup_s"} <= set(point)
        # The multiplier-free control runs its 100 pairs through the float rows.
        assert point["control_per_trial_s"] > 0


def test_sweep_ladder_runs_one_order():
    point = run_one_order("sweep_ladder.py")
    assert point["order"] == 8 and point["factors"] == [2, 2, 2] and point["den"] == 2
    assert set(point["sweep_s"]) == {
        "is_cocycle3",
        "check_multiplier_relation",
        "associativity_cocycle_sweep",
        "cocycle3_witness",
    }
    assert all(s > 0 for s in point["sweep_s"].values())
    full = set(point["sweep_s"]) - {"cocycle3_witness"}
    assert set(point["ns_per_cell"]) == full
    # The certificate times the same three checks on the tensor input; a
    # median of 20 answers with no sweep stays below the swept one.
    assert set(point["certificate_s"]) == full
    assert all(0 <= point["certificate_s"][k] < point["sweep_s"][k] for k in full)
    assert point["table_mb"] == 8**3 / 2**20  # one byte per entry over den 2
    # indices 1-7 in one block: two buffers of seven tables, and the transposed copy
    assert point["buffer_mb"] == 15 * point["table_mb"]
    assert point["peak_rss_mb"] > 0


def test_sweep_ladder_memory_rung_runs_the_witness_alone():
    point = run_one_order("sweep_ladder.py", 256)
    assert point["order"] == 256 and point["den"] == 4 and point["repeats"] == 0
    assert set(point["sweep_s"]) == {"cocycle3_witness"} and point["sweep_s"]["cocycle3_witness"] > 0
    assert "certificate_s" not in point and "ns_per_cell" not in point
    assert point["table_mb"] == 16.0  # 256^3 entries of one byte
    assert point["buffer_mb"] == 48.0  # two one-index buffers and the transposed copy
    assert point["peak_rss_mb"] > 0


def test_associator_ladder_runs_one_order():
    point = run_one_order("associator_ladder.py")
    assert point["order"] == 8 and point["factors"] == [2, 2, 2] and point["den"] == 2
    assert point["points"] == 8 and point["block_dim"] == 8
    assert point["triples"] == 512 and point["repeats"] == 5
    assert point["associator_s"] > 0 and point["max_error"] < 1e-10
    assert point["peak_rss_mb"] > 0
