"""The benchmark's workloads clear its correctness gate, in-process.

Each workload of `perfbench/workloads.py` runs once on one seed; its
observed values go through `json.dumps`/`json.loads`, as the worker's report
does, and `perfbench/run.py`'s `gate` compares them with
`perfbench/references.json`. So a change to a criterion's detail text or to
an exact digest fails here in seconds, not only in `perfbench/selftest.py`
or a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load("run")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_clears_the_gate(workload):
    workloads = load("workloads")
    setup, execute, observe = workloads.WORKLOADS[workload]
    inputs = setup(run.pass_seed(0, 0))
    observed = json.loads(json.dumps(observe(inputs, execute(inputs))))
    expected = run.load_references(workload)
    checks, failures = run.gate(observed, expected)
    assert failures == []
    assert checks >= len(expected) > 0
