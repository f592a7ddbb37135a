"""Span tracing for the benchmark, installed from outside the program.

`install(tracer)` wraps the public functions of each natorus layer and binds
every wrapper in every natorus namespace that holds the original (modules
that did `from .x import f`, and tuples such as `acceptance.ALL_CRITERIA`),
so no call path escapes the trace. Spans are kept in memory; a layer's self
time is its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# (span stem, module, attribute path, hook). A stem gathers several entry
# points into one layer metric. A hook (counter, argument position) feeds an
# extra counter from the cochain passed at that position: "distinct" keys it
# by content, "cells" adds n^4 for the n^4-cell sweep it is about to make.
SPANS = [
    ("groups.table", "groups", "FiniteAbelianGroup.coords", None),
    ("groups.table", "groups", "FiniteAbelianGroup.elements", None),
    ("groups.table", "groups", "FiniteAbelianGroup.add_table", None),
    ("groups.table", "groups", "FiniteAbelianGroup.neg_table", None),
    ("groups.table", "groups", "FiniteAbelianGroup.sub_table", None),
    ("groups.table", "groups", "FiniteAbelianGroup.pairing_numerators", None),
    ("groups.table", "groups", "FiniteAbelianGroup.character_matrix", None),
    ("cochains.weight", "cochains", "CochainTable.complex_table", ("distinct", 0)),
    ("cochains.arith", "cochains", "CochainTable.__add__", None),
    ("cochains.arith", "cochains", "CochainTable.__sub__", None),
    ("cochains.arith", "cochains", "CochainTable.__neg__", None),
    ("cochains.arith", "cochains", "CochainTable.__eq__", None),
    ("cochains.arith", "cochains", "CochainTable._from_table", None),
    ("cochains.arith", "cochains", "coboundary2", None),
    ("cochains.tricharacter", "cochains", "Tricharacter.__init__", None),
    ("cochains.phi_multiplier", "cochains", "PhiMultiplier.__init__", ("distinct", 1)),
    ("cochains.sweep", "cochains", "is_cocycle3", ("cells", 0)),
    ("cochains.sweep", "cochains", "cocycle3_witness", ("cells", 0)),
    ("cochains.sweep", "cochains", "check_multiplier_relation", ("cells", 0)),
    ("cochains.sweep", "cochains", "coboundary3", ("cells", 0)),
    ("kernels.kernel_product", "kernels", "kernel_product", None),
    ("kernels.assoc_sweep", "kernels", "associativity_cocycle_sweep", None),
    ("twisted_algebra.multiply", "twisted_algebra", "TwistedGroupAlgebra.multiply", None),
    ("quantization.deformed_product", "quantization", "deformed_product", None),
    ("quantization.associator_table", "quantization", "associator_table", None),
    ("quantization.grading_check", "quantization", "grading_check", None),
    ("quantization.intertwiner", "quantization", "phi_zero_intertwiner", None),
    ("crossed.strictified_product", "crossed", "strictified_product", None),
    ("crossed.takai_transform", "crossed", "takai_transform", None),
    ("crossed.verify_duality", "crossed", "verify_duality", None),
    ("crossed.twist_validate", "crossed", "TwistData.validate", None),
    ("crossed.fourier", "crossed", "evaluation_side_product", None),
    ("crossed.fourier", "crossed", "fourier_side_product", None),
    ("bundles.nap_check", "bundles", "nap_condition_check", None),
    ("bundles.extract_sigma", "bundles", "extract_sigma", None),
    ("bundles.build", "bundles", "build_nap_bundle", None),
] + [
    (f"acceptance.c{i}", "acceptance", name, None)
    for i, name in enumerate(
        (
            "criterion_cocycle_substrate",
            "criterion_multiplier_relation",
            "criterion_associativity_cocycle",
            "criterion_fourier_evaluation",
            "criterion_duality",
            "criterion_deformation_consistency",
            "criterion_octonion_suite",
            "criterion_bundle_construction",
            "criterion_negative_controls",
        ),
        start=1,
    )
]

STEMS = sorted({stem for stem, _, _, _ in SPANS})


def _content_key(cochain) -> str:
    """Identity of a cochain by value: two rebuilds of one table share a key."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((cochain.den, cochain.table.shape)).encode())
    h.update(np.ascontiguousarray(cochain.table).data)
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.spans = []  # (id, stem, start, end, parent id)
        self.self_s = dict.fromkeys(STEMS, 0.0)
        self.calls = dict.fromkeys(STEMS, 0)
        self.cells = dict.fromkeys(STEMS, 0)
        self.distinct = {stem: set() for stem in STEMS}
        self._stack = []  # [id, start, excluded at open, child time]
        self._excluded = 0.0
        self._next_id = 0

    @contextmanager
    def untimed(self):
        """Bookkeeping whose time is taken out of every open span."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - t0

    def wrap(self, stem, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                with tracer.untimed():
                    tracer._count(stem, hook[0], args[hook[1]])
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, time.perf_counter(), tracer._excluded, 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                span_id, start, excl0, child = frame
                dur = end - start - (tracer._excluded - excl0)
                tracer.self_s[stem] += dur - child
                tracer.calls[stem] += 1
                if tracer._stack:
                    tracer._stack[-1][3] += dur
                tracer.spans.append((span_id, stem, start, end, parent))

        return wrapper

    def _count(self, stem, counter, cochain):
        if counter == "distinct":
            self.distinct[stem].add(_content_key(cochain))
        else:
            self.cells[stem] += cochain.group.order ** 4

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "stem", "start", "end", "parent"], "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every entry in SPANS and rebind it wherever natorus holds it."""
    importlib.import_module("natorus")
    replaced = {}
    for stem, modname, path, hook in SPANS:
        module = importlib.import_module(f"natorus.{modname}")
        if "." not in path:
            original = getattr(module, path)
            wrapped = tracer.wrap(stem, original, hook)
            setattr(module, path, wrapped)
            replaced[id(original)] = (original, wrapped)
            continue
        clsname, attr = path.split(".")
        cls = getattr(module, clsname)
        raw = cls.__dict__[attr]
        if isinstance(raw, functools.cached_property):
            new = functools.cached_property(tracer.wrap(stem, raw.func, hook))
            new.__set_name__(cls, attr)
        elif isinstance(raw, classmethod):
            new = classmethod(tracer.wrap(stem, raw.__func__, hook))
        else:
            new = tracer.wrap(stem, raw, hook)
        setattr(cls, attr, new)
    _rebind(replaced)


def _rebind(replaced: dict) -> None:
    for name, module in list(sys.modules.items()):
        if name != "natorus" and not name.startswith("natorus."):
            continue
        for key, value in list(vars(module).items()):
            if id(value) in replaced and replaced[id(value)][0] is value:
                setattr(module, key, replaced[id(value)][1])
            elif isinstance(value, tuple) and any(id(v) in replaced for v in value):
                setattr(
                    module,
                    key,
                    tuple(replaced[id(v)][1] if id(v) in replaced else v for v in value),
                )
    # Every binding of an original must now be gone.
    for name, module in sys.modules.items():
        if name == "natorus" or name.startswith("natorus."):
            for key, value in vars(module).items():
                if any(value is orig for orig, _ in replaced.values()):
                    raise RuntimeError(f"{name}.{key} still bound to an unwrapped function")
