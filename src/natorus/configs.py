"""JSON descriptor ingestion.

Every descriptor is validated before any computation, and every violation
raises ConfigError (CLI exit code 2) with a message naming the offending
field. These are the accepted spellings, and the only ones:

  group    {"factors": [2, 2, 2]}                      or just [2, 2, 2]
  cochain2 "zero" | "octonion"                          (absent or null: "zero")
           {"type": "bicharacter", "matrix": [[...]], "modulus": 2}
           {"type": "table", "entries": [{"args": [[..],[..]], "value": "1/2"}]}
  cochain3 "zero" | "octonion" | "epsilon-z4"           (absent or null: "zero")
           {"type": "tricharacter", "tensor": [[[...]]], "modulus": 2}
           {"type": "table", "entries": [{"args": [[..],[..],[..]], "value": ...}]}
  action   "translation" | "m4-conjugation"             (absent or null: "translation")
           {"algebra": {"kind": "functions"|"matrix", "dim": n},
            "action": {"type": "translation"} | {"generators": [matrix, ...]}}
  twist    "pauli-m2" | {"group": ..., "dim": d, "sigma": cochain2, "phi": cochain3,
           "beta": "pauli" | [matrix, ...]}
  bundle   "octonion-point" | "two-point"
           {"base": ["p","q"], "group": ..., "phi": ...,
            "sigma": {"p": cochain2, ...}, "trivializer": cochain2?}

"zero" and "translation" are built on the config's group. Every other name
lives on a fixed group, which must equal the config's: "octonion" on [2, 2, 2],
"epsilon-z4" on [4, 4, 4], "m4-conjugation" on [4]. Factors, dims, moduli,
trials, seeds, tensor entries and coordinates (one per factor) are integers
that fit in int64. Matrix entries are numbers or [re, im] pairs.
"""

from __future__ import annotations

import json
import numbers
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import presets
from .bundles import NAPBundle, build_nap_bundle
from .cochains import Cochain2, Cochain3, Tricharacter, bicharacter_from_matrix
from .crossed import TwistData
from .errors import ConfigError, NatorusError, require_int
from .groups import FiniteAbelianGroup, make_group
from .quantization import GAction, MatrixAlgebra, full_matrix_algebra, functions_algebra
from .twisted_algebra import octonion_associator_tricharacter, octonion_sigma

FORMATS = ("json", "csv", "text")

# kind -> name -> builder. The builders named in _ON_GROUP take the config's
# group; every other one builds on its own fixed group.
_NAMED = {
    "2-cochain": {"zero": Cochain2.zero, "octonion": octonion_sigma},
    "3-cochain": {
        "zero": Cochain3.zero,
        "octonion": octonion_associator_tricharacter,
        "epsilon-z4": presets.epsilon_tricharacter_z4,
    },
    "action": {"translation": GAction.translation, "m4-conjugation": presets.m4_conjugation_action},
    "twist": {"pauli-m2": presets.pauli_m2_twist},
    "bundle": {"octonion-point": presets.octonion_bundle, "two-point": presets.two_point_bundle},
}
_ON_GROUP = {"zero", "translation"}

# arity -> (cochain class, multilinear form type, its field, its builder)
_FORMS = {
    2: (Cochain2, "bicharacter", "matrix", bicharacter_from_matrix),
    3: (Cochain3, "tricharacter", "tensor", Tricharacter),
}


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(obj).__name__}")
    return obj


def _require(obj: dict, key: str, what: str):
    if key not in obj:
        raise ConfigError(f"{what} descriptor is missing required key {key!r}")
    return obj[key]


@contextmanager
def _building(kind: str):
    """Re-raise any NatorusError from building a `kind` descriptor as ConfigError."""
    try:
        yield
    except NatorusError as exc:
        raise ConfigError(f"bad {kind} descriptor: {exc}") from None


def _named(kind: str, name, group: FiniteAbelianGroup | None = None):
    """The named `kind` descriptor `name`, refused unless it lives on `group`."""
    builders = _NAMED[kind]
    if not isinstance(name, str) or name not in builders:
        raise ConfigError(f"unknown {kind} descriptor {name!r}")
    out = builders[name](group) if name in _ON_GROUP else builders[name]()
    if group is not None and out.group != group:
        raise ConfigError(f"{name!r} needs group factors {list(out.group.factors)}")
    return out


def _integer(v, what: str, minimum: int | None = None) -> int:
    """v as an int (`require_int`, so not a boolean, and >= minimum) inside int64."""
    if not -(2**63) <= (v := require_int(v, what, minimum)) < 2**63:
        raise ConfigError(f"{what} {v} does not fit in int64")
    return v


def parse_coords(group: FiniteAbelianGroup, obj, what: str) -> tuple:
    """A group element's coordinates: one integer per factor."""
    if not isinstance(obj, (list, tuple)) or len(obj) != group.rank:
        raise ConfigError(f"{what}: {obj!r} is not a list of {group.rank} coordinates")
    return tuple(_integer(c, f"{what} coordinate") for c in obj)


def parse_group(obj) -> FiniteAbelianGroup:
    if isinstance(obj, dict):
        obj = _require(obj, "factors", "group")
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ConfigError("group descriptor needs a nonempty 'factors' list")
    return make_group([_integer(f, "group factor", minimum=2) for f in obj])


def parse_scalar(v, what: str) -> complex:
    if isinstance(v, bool):
        raise ConfigError(f"{what}: booleans are not matrix entries")
    if isinstance(v, numbers.Real):
        return complex(v)
    if (
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(c, numbers.Real) and not isinstance(c, bool) for c in v)
    ):
        return complex(v[0], v[1])
    raise ConfigError(f"{what}: entry {v!r} is not a number or [re, im] pair")


def parse_matrix(obj, what: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ConfigError(f"{what}: expected a nonempty nested list")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, (list, tuple)) or len(row) != len(obj):
            raise ConfigError(f"{what}: row {i} does not make the matrix square")
        rows.append([parse_scalar(v, what) for v in row])
    return np.array(rows, dtype=complex)


def parse_square(obj, dim: int, what: str) -> np.ndarray:
    """A dim x dim matrix."""
    mat = parse_matrix(obj, what)
    if mat.shape != (dim, dim):
        raise ConfigError(f"{what} must be {dim}x{dim}, got {mat.shape[0]}x{mat.shape[0]}")
    return mat


def parse_vector(obj, length: int, what: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or len(obj) != length:
        raise ConfigError(f"{what}: expected a list of {length} entries")
    return np.array([parse_scalar(v, what) for v in obj], dtype=complex)


def _int_tensor(obj, shape: tuple, what: str):
    if not shape:
        return _integer(obj, f"{what} entry")
    if not isinstance(obj, (list, tuple)) or len(obj) != shape[0]:
        raise ConfigError(f"{what}: expected shape {shape}, one index per group factor")
    return [_int_tensor(x, shape[1:], what) for x in obj]


def _parse_cochain(group: FiniteAbelianGroup, obj, arity: int):
    kind = f"{arity}-cochain"
    if not isinstance(obj, dict):
        return _named(kind, "zero" if obj is None else obj, group)
    cls, form, key, build = _FORMS[arity]
    typ = _require(obj, "type", kind)
    if typ == form:
        tensor = _int_tensor(_require(obj, key, form), (group.rank,) * arity, form)
        modulus = obj.get("modulus")
        if modulus is not None:
            modulus = _integer(modulus, f"{form} modulus", minimum=1)
        with _building(kind):
            return build(group, tensor, modulus)
    if typ != "table":
        raise ConfigError(f"unknown {kind} type {typ!r}")
    entries = _require(obj, "entries", kind)
    if not isinstance(entries, (list, tuple)):
        raise ConfigError(f"{kind}: 'entries' must be a list")
    pairs = []
    for i, item in enumerate(entries):
        if not isinstance(item, dict) or not isinstance(item.get("args"), (list, tuple)):
            raise ConfigError(f"{kind}: entry {i} needs a list of {arity} 'args' and a 'value'")
        coords = tuple(parse_coords(group, a, f"{kind} entry {i}") for a in item["args"])
        pairs.append((coords, _require(item, "value", f"{kind} entry")))
    with _building(kind):
        return cls.from_entries(group, pairs)


def parse_cochain2(group: FiniteAbelianGroup, obj) -> Cochain2:
    return _parse_cochain(group, obj, 2)


def parse_cochain3(group: FiniteAbelianGroup, obj) -> Cochain3:
    return _parse_cochain(group, obj, 3)


def parse_algebra(obj) -> MatrixAlgebra:
    if not isinstance(obj, dict):
        raise ConfigError("algebra descriptor must be an object with 'kind' and 'dim'")
    kind = _require(obj, "kind", "algebra")
    dim = _integer(_require(obj, "dim", "algebra"), "algebra dim", minimum=1)
    if kind not in ("functions", "matrix"):
        raise ConfigError(f"unknown algebra kind {kind!r}")
    return functions_algebra(dim) if kind == "functions" else full_matrix_algebra(dim)


def parse_action(group: FiniteAbelianGroup, obj) -> GAction:
    if not isinstance(obj, dict):
        return _named("action", "translation" if obj is None else obj, group)
    algebra = parse_algebra(_require(obj, "algebra", "action"))
    spec = _require(obj, "action", "action")
    if not isinstance(spec, dict):
        raise ConfigError("the 'action' field must be an object")
    if spec.get("type") == "translation":
        if algebra.kind != "functions" or algebra.dim != group.order:
            raise ConfigError("translation needs the functions algebra of size |G|")
        return GAction.translation(group)
    gens = spec.get("generators")
    if not isinstance(gens, (list, tuple)) or len(gens) != group.rank:
        raise ConfigError(f"action needs type 'translation' or {group.rank} 'generators'")
    mats = [parse_square(m, algebra.dim, f"generator {i}") for i, m in enumerate(gens)]
    with _building("action"):
        action = GAction.from_unitary_generators(group, algebra, mats)
        action.validate()
    return action


def parse_twist(obj) -> TwistData:
    if not isinstance(obj, dict):
        return _named("twist", obj)
    group = parse_group(_require(obj, "group", "twist"))
    dim = _integer(obj.get("dim", 1), "twist dim", minimum=1)
    sigma = parse_cochain2(group, obj.get("sigma"))
    phi = parse_cochain3(group, obj.get("phi")) if "phi" in obj else None
    beta = obj.get("beta")
    with _building("twist"):  # validate checks phi = delta sigma exactly
        if beta == "pauli":
            beta = presets.pauli_conjugators(group)
        elif beta is not None:
            if not isinstance(beta, (list, tuple)) or len(beta) != group.order:
                raise ConfigError("twist 'beta' must list one unitary per group element")
            beta = np.stack([parse_square(m, dim, f"beta[{i}]") for i, m in enumerate(beta)])
        return TwistData(group, dim, beta, sigma, phi)


def parse_bundle(obj) -> NAPBundle:
    if not isinstance(obj, dict):
        return _named("bundle", obj)
    base = _require(obj, "base", "bundle")
    if not isinstance(base, (list, tuple)) or not base:
        raise ConfigError("bundle 'base' must be a nonempty list of labels")
    group = parse_group(_require(obj, "group", "bundle"))
    phi = parse_cochain3(group, _require(obj, "phi", "bundle"))
    sigma_descr = obj.get("sigma", {})
    if not isinstance(sigma_descr, dict):
        raise ConfigError("bundle 'sigma' must map base labels to 2-cochains")
    sigma = {str(x): parse_cochain2(group, d) for x, d in sigma_descr.items()}
    trivializer = parse_cochain2(group, obj["trivializer"]) if "trivializer" in obj else None
    with _building("bundle"):
        return build_nap_bundle(base, group, phi, sigma, trivializer)


@dataclass
class RunConfig:
    """A loaded configuration plus run parameters with validated defaults."""

    raw: dict = field(default_factory=dict)
    path: str = "<none>"
    tolerance: float = 1e-10
    trials: int = 100
    seed: int = 0
    format: str = "json"

    def require(self, key: str):
        if key not in self.raw:
            raise ConfigError(f"config {self.path} is missing required key {key!r}")
        return self.raw[key]

    def group(self) -> FiniteAbelianGroup:
        return parse_group(self.require("group"))

    def twist(self) -> TwistData:
        return parse_twist(self.require("twist"))

    def bundle(self) -> NAPBundle:
        return parse_bundle(self.require("bundle"))


def load_config(path: str | None, **overrides) -> RunConfig:
    """Read and validate a config file; keyword overrides win over file values.

    A missing path yields an empty config with defaults, so subcommands that
    need no descriptors still honor the global flags.
    """
    raw = load_json(path) if path else {}
    cfg = RunConfig(raw=raw, path=path or "<none>")
    for key in ("tolerance", "trials", "seed", "format"):
        if key in raw:
            setattr(cfg, key, raw[key])
        if key in overrides and overrides[key] is not None:
            setattr(cfg, key, overrides[key])
    tol = cfg.tolerance
    # a bool is an int, and an infinite tolerance would pass every float verdict
    if (
        isinstance(tol, bool)
        or not isinstance(tol, numbers.Real)
        or not 0 < tol <= sys.float_info.max
    ):
        raise ConfigError(f"tolerance {tol!r} must be a positive finite number")
    cfg.tolerance = float(tol)
    cfg.trials = _integer(cfg.trials, "trials", minimum=1)
    cfg.seed = _integer(cfg.seed, "seed", minimum=0)
    if cfg.format not in FORMATS:
        raise ConfigError(f"format {cfg.format!r} must be one of {FORMATS}")
    return cfg
