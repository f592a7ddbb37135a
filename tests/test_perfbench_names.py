"""The names that perfbench/spans.py traces must exist in the package.

`perfbench/spans.py` binds each traced function by (module, attribute path),
so renaming or deleting one of them breaks `perfbench/run.py --trace 1` and
`perfbench/selftest.py`. This resolves every entry without installing any
wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize(
    "modname, path", sorted({(modname, path) for _, modname, path, _ in load_spans()})
)
def test_traced_name_resolves(modname, path):
    module = importlib.import_module(f"natorus.{modname}")
    if "." not in path:
        assert callable(getattr(module, path))
        return
    clsname, attr = path.split(".")
    # install() reads the attribute from the class's own namespace.
    assert attr in vars(getattr(module, clsname))
