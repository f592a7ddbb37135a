"""JSON descriptor ingestion.

Every descriptor is validated by hand before any computation, and every
violation raises ConfigError with a message naming the offending field.
Descriptors follow a small vocabulary:

  group    {"factors": [2, 2, 2]}                      or just [2, 2, 2]
  cochain2 "zero" | "octonion"
           {"type": "bicharacter", "matrix": [[...]], "modulus": 2}
           {"type": "table", "entries": [{"args": [[..],[..]], "value": "1/2"}]}
  cochain3 "zero" | "octonion" | "epsilon-z4"
           {"type": "tricharacter", "tensor": [[[...]]], "modulus": 2}
           {"type": "table", "entries": [{"args": [[..],[..],[..]], "value": ...}]}
  action   "translation" | "m4-conjugation"
           {"algebra": {"kind": "functions"|"matrix", "dim": n},
            "action": {"type": "translation"} | {"generators": [matrix, ...]}}
  twist    "pauli-m2" | {"group": ..., "dim": d, "sigma": cochain2, "phi": cochain3,
           "beta": "pauli" | [matrix, ...]}
  bundle   "octonion-point" | "two-point"
           {"base": ["p","q"], "group": ..., "phi": ...,
            "sigma": {"p": cochain2, ...}, "trivializer": cochain2?}

Matrices are nested lists whose entries are numbers or [re, im] pairs.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import presets
from .bundles import NAPBundle, build_nap_bundle
from .cochains import (
    Cochain2,
    Cochain3,
    Tricharacter,
    bicharacter_from_matrix,
    coboundary2,
)
from .crossed import TwistData
from .errors import ConfigError, NatorusError
from .groups import FiniteAbelianGroup, make_group
from .phases import Phase
from .quantization import GAction, MatrixAlgebra, full_matrix_algebra, functions_algebra
from .twisted_algebra import octonion_associator_tricharacter, octonion_sigma

FORMATS = ("json", "csv", "text")


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


def parse_group(obj) -> FiniteAbelianGroup:
    if isinstance(obj, dict):
        obj = _require(obj, "factors", "group")
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ConfigError("group descriptor needs a nonempty 'factors' list")
    for f in obj:
        if not isinstance(f, int) or isinstance(f, bool) or f < 1:
            raise ConfigError(f"group factor {f!r} is not a positive integer")
    try:
        return make_group(obj)
    except NatorusError as exc:
        raise ConfigError(f"bad group descriptor: {exc}") from None


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


def parse_vector(obj, length: int, what: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or len(obj) != length:
        raise ConfigError(f"{what}: expected a list of {length} entries")
    return np.array([parse_scalar(v, what) for v in obj], dtype=complex)


def _parse_entries(obj, arity: int, what: str) -> list:
    if not isinstance(obj, (list, tuple)):
        raise ConfigError(f"{what}: 'entries' must be a list")
    pairs = []
    for i, item in enumerate(obj):
        if not isinstance(item, dict) or "args" not in item or "value" not in item:
            raise ConfigError(f"{what}: entry {i} needs 'args' and 'value'")
        args = item["args"]
        if not isinstance(args, (list, tuple)) or len(args) != arity:
            raise ConfigError(f"{what}: entry {i} needs {arity} argument tuples")
        try:
            value = Phase.parse(item["value"])
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ConfigError(f"{what}: entry {i} has a bad phase: {exc}") from None
        pairs.append((tuple(tuple(a) for a in args), value))
    return pairs


def _int_tensor(obj, shape: tuple, what: str) -> np.ndarray:
    try:
        arr = np.array(obj, dtype=np.int64)
    except (ValueError, TypeError):
        raise ConfigError(f"{what}: expected a nested integer list") from None
    if arr.shape != shape:
        raise ConfigError(f"{what}: shape {arr.shape} does not match group rank")
    return arr


def parse_cochain2(group: FiniteAbelianGroup, obj) -> Cochain2:
    if obj == "zero" or obj is None:
        return Cochain2.zero(group)
    if obj == "octonion":
        return octonion_sigma(group)
    if not isinstance(obj, dict):
        raise ConfigError(f"unknown 2-cochain descriptor {obj!r}")
    kind = _require(obj, "type", "2-cochain")
    try:
        if kind == "zero":
            return Cochain2.zero(group)
        if kind == "octonion":
            return octonion_sigma(group)
        if kind == "bicharacter":
            mat = _int_tensor(
                _require(obj, "matrix", "bicharacter"), (group.rank,) * 2, "bicharacter"
            )
            return bicharacter_from_matrix(group, mat, obj.get("modulus"))
        if kind == "table":
            pairs = _parse_entries(_require(obj, "entries", "2-cochain"), 2, "2-cochain")
            return Cochain2.from_entries(group, pairs)
    except NatorusError as exc:
        raise ConfigError(f"bad 2-cochain descriptor: {exc}") from None
    raise ConfigError(f"unknown 2-cochain type {kind!r}")


def parse_cochain3(group: FiniteAbelianGroup, obj) -> Cochain3:
    if obj == "zero" or obj is None:
        return Cochain3.zero(group)
    if obj == "octonion":
        return octonion_associator_tricharacter(group)
    if obj == "epsilon-z4":
        phi = presets.epsilon_tricharacter_z4()
        if phi.group != group:
            raise ConfigError("'epsilon-z4' needs group factors [4, 4, 4]")
        return phi
    if not isinstance(obj, dict):
        raise ConfigError(f"unknown 3-cochain descriptor {obj!r}")
    kind = _require(obj, "type", "3-cochain")
    try:
        if kind == "zero":
            return Cochain3.zero(group)
        if kind == "octonion":
            return octonion_associator_tricharacter(group)
        if kind == "tricharacter":
            tensor = _int_tensor(
                _require(obj, "tensor", "tricharacter"), (group.rank,) * 3, "tricharacter"
            )
            return Tricharacter(group, tensor, obj.get("modulus"))
        if kind == "table":
            pairs = _parse_entries(_require(obj, "entries", "3-cochain"), 3, "3-cochain")
            return Cochain3.from_entries(group, pairs)
    except NatorusError as exc:
        raise ConfigError(f"bad 3-cochain descriptor: {exc}") from None
    raise ConfigError(f"unknown 3-cochain type {kind!r}")


def parse_algebra(obj) -> MatrixAlgebra:
    if not isinstance(obj, dict):
        raise ConfigError("algebra descriptor must be an object with 'kind' and 'dim'")
    kind = _require(obj, "kind", "algebra")
    dim = _require(obj, "dim", "algebra")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ConfigError(f"algebra dim {dim!r} is not a positive integer")
    if kind == "functions":
        return functions_algebra(dim)
    if kind == "matrix":
        return full_matrix_algebra(dim)
    raise ConfigError(f"unknown algebra kind {kind!r}")


def parse_action(group: FiniteAbelianGroup, obj) -> GAction:
    if obj == "translation" or obj is None:
        return GAction.translation(group)
    if obj == "m4-conjugation":
        action = presets.m4_conjugation_action()
        if action.group != group:
            raise ConfigError("'m4-conjugation' needs group factors [4]")
        return action
    if not isinstance(obj, dict):
        raise ConfigError(f"unknown action descriptor {obj!r}")
    if "preset" in obj:
        return parse_action(group, obj["preset"])
    algebra = parse_algebra(_require(obj, "algebra", "action"))
    spec = _require(obj, "action", "action")
    if not isinstance(spec, dict):
        raise ConfigError("the 'action' field must be an object")
    if spec.get("type") == "translation":
        if algebra.kind != "functions" or algebra.dim != group.order:
            raise ConfigError("translation needs the functions algebra of size |G|")
        return GAction.translation(group)
    gens = spec.get("generators")
    if gens is None:
        raise ConfigError("action descriptor needs 'generators' or type 'translation'")
    if not isinstance(gens, (list, tuple)) or len(gens) != group.rank:
        raise ConfigError(f"need one generator per group factor ({group.rank})")
    mats = [parse_matrix(g, f"generator {i}") for i, g in enumerate(gens)]
    try:
        return GAction.from_unitary_generators(group, algebra, mats)
    except NatorusError as exc:
        raise ConfigError(f"bad action descriptor: {exc}") from None


def parse_twist(obj) -> TwistData:
    if obj == "pauli-m2":
        return presets.pauli_m2_twist()
    if not isinstance(obj, dict):
        raise ConfigError(f"unknown twist descriptor {obj!r}")
    if "preset" in obj:
        return parse_twist(obj["preset"])
    group = parse_group(_require(obj, "group", "twist"))
    dim = obj.get("dim", 1)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ConfigError(f"twist dim {dim!r} is not a positive integer")
    sigma = parse_cochain2(group, obj.get("sigma"))
    phi = parse_cochain3(group, obj.get("phi")) if "phi" in obj else None
    beta_descr = obj.get("beta")
    if beta_descr is None:
        if phi is not None:
            if coboundary2(sigma) != phi:
                raise ConfigError("scalar twist needs phi = delta sigma; they differ")
        try:
            return TwistData.scalar_from_sigma(group, sigma, dim)
        except NatorusError as exc:
            raise ConfigError(f"bad twist descriptor: {exc}") from None
    if beta_descr == "pauli":
        beta = presets.pauli_conjugators(group) if group.factors == (2, 2, 2) else None
        if beta is None:
            raise ConfigError("'pauli' conjugators need group factors [2, 2, 2]")
    else:
        if not isinstance(beta_descr, (list, tuple)) or len(beta_descr) != group.order:
            raise ConfigError("twist 'beta' must list one unitary per group element")
        beta = np.stack([parse_matrix(m, f"beta[{i}]") for i, m in enumerate(beta_descr)])
    if phi is None:
        phi = coboundary2(sigma)
    try:
        return TwistData.with_scalar_multiplier(group, sigma, beta, phi, dim)
    except NatorusError as exc:
        raise ConfigError(f"bad twist descriptor: {exc}") from None


def parse_bundle(obj) -> NAPBundle:
    if obj == "octonion-point":
        return presets.octonion_bundle()
    if obj == "two-point":
        return presets.two_point_bundle()
    if not isinstance(obj, dict):
        raise ConfigError(f"unknown bundle descriptor {obj!r}")
    if "preset" in obj:
        return parse_bundle(obj["preset"])
    base = _require(obj, "base", "bundle")
    if not isinstance(base, (list, tuple)) or not base:
        raise ConfigError("bundle 'base' must be a nonempty list of labels")
    group = parse_group(_require(obj, "group", "bundle"))
    phi = parse_cochain3(group, _require(obj, "phi", "bundle"))
    sigma_descr = obj.get("sigma", {})
    if not isinstance(sigma_descr, dict):
        raise ConfigError("bundle 'sigma' must map base labels to 2-cochains")
    sigma = {str(x): parse_cochain2(group, d) for x, d in sigma_descr.items()}
    trivializer = (
        parse_cochain2(group, obj["trivializer"]) if "trivializer" in obj else None
    )
    try:
        return build_nap_bundle(base, group, phi, sigma, trivializer)
    except NatorusError as exc:
        raise ConfigError(f"bad bundle descriptor: {exc}") from None


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
    if not isinstance(cfg.tolerance, numbers.Real) or not cfg.tolerance > 0:
        raise ConfigError(f"tolerance {cfg.tolerance!r} must be a positive number")
    cfg.tolerance = float(cfg.tolerance)
    if not isinstance(cfg.trials, int) or isinstance(cfg.trials, bool) or cfg.trials < 1:
        raise ConfigError(f"trials {cfg.trials!r} must be a positive integer")
    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool):
        raise ConfigError(f"seed {cfg.seed!r} must be an integer")
    if cfg.format not in FORMATS:
        raise ConfigError(f"format {cfg.format!r} must be one of {FORMATS}")
    return cfg
