"""Command-line entry point.

One executable, nine subcommands, JSON in and JSON out (CSV for
multiplication tables). Exit codes: 0 success / all checks passed, 1 a check
ran and failed (the report carries a witness), 2 configuration problem
(unknown subcommand, malformed JSON, schema violation), each with its own
message. Reports are deterministic for a fixed config and seed except for
the timestamp field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import acceptance, configs
from .bundles import nap_condition_check
from .cochains import cocycle3_witness, is_trivial_on, restrict
from .errors import ConfigError, NatorusError
from .kernels import associativity_cocycle_sweep
from .phases import Phase
from .quantization import GradedElement, associator_table, deformed_norm, deformed_product, represent
from .crossed import verify_duality
from .twisted_algebra import TwistedGroupAlgebra, octonion_algebra


def _c2j(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_json(m: np.ndarray) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[_c2j(v) for v in row] for row in m]


def _emit(payload: dict, fmt: str = "json") -> None:
    payload = dict(payload)
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if fmt == "text":
        for key, value in sorted(payload.items()):
            print(f"{key}: {value}")
        return
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_report(command: str, report, fmt: str) -> int:
    """Emit a verifier's report under `command`; exit 0 when it passed, else 1."""
    _emit({"command": command, **report.as_dict()}, fmt)
    return 0 if report.passed else 1


def _emit_table(payload: dict, labels: list, rows: list, fmt: str) -> int:
    """A table of string cells: CSV rows under a header of labels, else the payload."""
    if fmt == "csv":
        print("x," + ",".join(labels))
        for label, row in zip(labels, rows):
            print(label + "," + ",".join(row))
    else:
        _emit(payload, fmt)
    return 0


def _ints(text: str) -> list:
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _group_from_args(cfg: configs.RunConfig, args):
    if getattr(args, "group", None):
        return configs.parse_group(_ints(args.group))
    return cfg.group()


# ------------------------------------------------------------- subcommands


def cmd_group(cfg: configs.RunConfig, args) -> int:
    g = _group_from_args(cfg, args)
    _emit(
        {
            "command": "group info",
            "factors": list(g.factors),
            "rank": g.rank,
            "order": g.order,
            "exponent": g.exponent,
            "elements": [list(e.coords) for e in g.elements],
        },
        cfg.format,
    )
    return 0


def cmd_cocycle(cfg: configs.RunConfig, args) -> int:
    g = cfg.group()
    phi = configs.parse_cochain3(g, cfg.require("phi"))
    if args.action == "verify":
        witness = cocycle3_witness(phi)
        payload = {
            "command": "cocycle verify",
            "group": list(g.factors),
            "passed": witness is None,
            "mode": phi.cocycle_mode,
            "alternating": phi.is_alternating(),
            "witness": None if witness is None else [list(w.coords) for w in witness],
        }
        _emit(payload, cfg.format)
        return 0 if witness is None else 1
    # restrict
    gens = [configs.parse_coords(g, _ints(s), "--subgroup") for s in args.subgroup or []]
    if not gens:
        raise ConfigError("cocycle restrict needs at least one --subgroup generator")
    table = {
        " | ".join(str(list(c)) for c in key): str(value)
        for key, value in restrict(phi, gens).items()
    }
    _emit(
        {
            "command": "cocycle restrict",
            "group": list(g.factors),
            "generators": [list(t) for t in gens],
            "trivial": is_trivial_on(phi, gens),
            "table": table,
        },
        cfg.format,
    )
    return 0


def cmd_tga(cfg: configs.RunConfig, args) -> int:
    g = cfg.group()
    sigma = configs.parse_cochain2(g, cfg.raw.get("sigma"))
    alg = TwistedGroupAlgebra(g, sigma)
    a = alg.element(configs.parse_vector(cfg.require("a"), g.order, "element a"))
    b = alg.element(configs.parse_vector(cfg.require("b"), g.order, "element b"))
    prod = a * b
    _emit(
        {
            "command": "tga mul",
            "group": list(g.factors),
            "product": [_c2j(c) for c in prod.coeffs],
            "norm": prod.norm(),
        },
        cfg.format,
    )
    return 0


def _octonion_table() -> tuple:
    alg = octonion_algebra()
    g = alg.group
    labels = [f"e{i}" for i in range(8)]
    signs = alg.sigma.complex_table.real.astype(int)
    add = g.add_table
    rows = []
    for i in range(8):
        rows.append(
            [("+" if signs[i, j] > 0 else "-") + labels[add[i, j]] for j in range(8)]
        )
    return labels, rows


def cmd_oct(cfg: configs.RunConfig, args) -> int:
    labels, rows = _octonion_table()
    payload = {"command": "oct table", "basis": labels, "table": rows}
    return _emit_table(payload, labels, rows, cfg.format)


def cmd_kernels(cfg: configs.RunConfig, args) -> int:
    g = _group_from_args(cfg, args)
    phi_descr = args.phi if getattr(args, "phi", None) else cfg.require("phi")
    phi = configs.parse_cochain3(g, phi_descr)
    failing = associativity_cocycle_sweep(phi)
    if failing is not None:
        _emit(
            {
                "command": "kernels assoc-cocycle",
                "passed": False,
                "mode": phi.cocycle_mode,
                "witness": [list(g.element(i).coords) for i in failing],
            },
            cfg.format,
        )
        return 1
    # once the check is clean the cocycle at (xi, eta, zeta) is phi(eta, zeta, xi)
    n = g.order
    den = phi.den
    t = phi.table
    table = [
        [[str(Phase(int(t[ie, iz, ix]), den)) for iz in range(n)] for ie in range(n)]
        for ix in range(n)
    ]
    _emit(
        {
            "command": "kernels assoc-cocycle",
            "group": list(g.factors),
            "passed": True,
            "mode": phi.cocycle_mode,
            "matches_phi_cycled": True,
            "table": table,
        },
        cfg.format,
    )
    return 0


def cmd_quantize(cfg: configs.RunConfig, args) -> int:
    g = cfg.group()
    action = configs.parse_action(g, cfg.raw.get("action"))
    phi = configs.parse_cochain3(g, cfg.raw.get("phi"))

    def element(key: str) -> GradedElement:
        raw = cfg.require(key)
        if raw and isinstance(raw, list) and not isinstance(raw[0], list):
            if action.algebra.kind != "functions":
                raise ConfigError(f"element {key!r}: flat vectors need the functions algebra")
            mat = np.diag(configs.parse_vector(raw, action.dim, f"element {key}"))
        else:
            mat = configs.parse_square(raw, action.dim, f"element {key}")
        return GradedElement.from_matrix(action, mat)

    if args.action == "product":
        prod = deformed_product(element("a"), element("b"), phi)
        operator = represent(prod, phi)
        _emit(
            {
                "command": "quantize product",
                "degrees": [list(d.coords) for d in prod.degrees()],
                "operator": _matrix_json(operator),
                "norm": float(np.linalg.norm(operator, 2)),  # deformed_norm, from this operator
            },
            cfg.format,
        )
        return 0
    if args.action == "norm":
        a = element("a")
        _emit({"command": "quantize norm", "norm": deformed_norm(a, phi)}, cfg.format)
        return 0
    # associator-table
    rng = np.random.default_rng(cfg.seed)
    report = associator_table(action, phi, rng=rng, tol=cfg.tolerance)
    return _emit_report("quantize associator-table", report, cfg.format)


def cmd_duality(cfg: configs.RunConfig, args) -> int:
    tw = cfg.twist()
    psi = configs.parse_cochain3(tw.group, cfg.raw.get("psi"))
    report = verify_duality(tw, psi, trials=cfg.trials, seed=cfg.seed, tol=cfg.tolerance)
    return _emit_report("duality check", report, cfg.format)


def cmd_bundle(cfg: configs.RunConfig, args) -> int:
    bundle = cfg.bundle()
    if args.action == "build":
        _emit(
            {
                "command": "bundle build",
                "base": list(bundle.base.labels),
                "group": list(bundle.group.factors),
                "fiber_dimension": bundle.group.order,
                "phi_trivial": bundle.phi.is_zero(),
                "fibers": {
                    x: {"associative": bundle.fiber(x).is_associative()}
                    for x in bundle.base
                },
            },
            cfg.format,
        )
        return 0
    if args.action == "check":
        report = nap_condition_check(bundle, trials=cfg.trials, seed=cfg.seed, tol=cfg.tolerance)
        return _emit_report("bundle check", report, cfg.format)
    # fiber
    if not args.point:
        raise ConfigError("bundle fiber needs --point")
    if args.point not in bundle.base:
        raise ConfigError(f"no fiber over {args.point!r}; base is {bundle.base.labels}")
    alg = bundle.fiber(args.point)
    den = alg.sigma.den
    table = alg.sigma.table
    targets = bundle.group.add_table
    n = bundle.group.order
    if not args.emit_table:
        _emit(
            {
                "command": "bundle fiber",
                "point": args.point,
                "dimension": n,
                "associative": alg.is_associative(),
            },
            cfg.format,
        )
        return 0
    entries = [
        [f"{Phase(int(table[i, j]), den)}:e{targets[i, j]}" for j in range(n)]
        for i in range(n)
    ]
    payload = {"command": "bundle fiber", "point": args.point, "table": entries}
    return _emit_table(payload, [f"e{i}" for i in range(n)], entries, cfg.format)


def cmd_verify_all(cfg: configs.RunConfig, args) -> int:
    results = acceptance.run_all(
        tolerance=cfg.tolerance, trials=cfg.trials, seed=cfg.seed, stream=sys.stderr
    )
    passed = all(r.passed for r in results)
    _emit(
        {
            "command": "verify-all",
            "passed": passed,
            "criteria": [r.as_dict() for r in results],
        },
        cfg.format,
    )
    return 0 if passed else 1


# ---------------------------------------------------------------- dispatch


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--seed", type=int, help="random seed (default 0)")
    common.add_argument("--trials", type=int, help="random trial count (default 100)")
    common.add_argument("--tolerance", type=float, help="numeric tolerance (default 1e-10)")
    common.add_argument(
        "--format", choices=configs.FORMATS, help="output format (default json)"
    )

    parser = argparse.ArgumentParser(
        prog="natorus",
        description="Finite nonassociative deformations: checks and tables.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=[common])
        p.set_defaults(handler=handler)
        return p

    p = command("group", cmd_group, "group descriptor info")
    p.add_argument("action", choices=["info"])
    p.add_argument("--group", help="factors as comma-separated integers, e.g. 2,2,2")

    p = command("cocycle", cmd_cocycle, "verify or restrict a 3-cochain")
    p.add_argument("action", choices=["verify", "restrict"])
    p.add_argument(
        "--subgroup",
        action="append",
        help="subgroup generator as comma-separated coordinates; repeatable",
    )

    p = command("tga", cmd_tga, "twisted group algebra operations")
    p.add_argument("action", choices=["mul"])

    p = command("oct", cmd_oct, "octonion tables")
    p.add_argument("action", choices=["table"])

    p = command("kernels", cmd_kernels, "twisted kernel checks")
    p.add_argument("action", choices=["assoc-cocycle"])
    p.add_argument("--group", help="factors as comma-separated integers")
    p.add_argument("--phi", help="3-cochain preset name, e.g. octonion")

    p = command("quantize", cmd_quantize, "graded deformed products")
    p.add_argument("action", choices=["product", "associator-table", "norm"])

    p = command("duality", cmd_duality, "crossed-product duality check")
    p.add_argument("action", choices=["check"])

    p = command("bundle", cmd_bundle, "bundle construction and checks")
    p.add_argument("action", choices=["build", "check", "fiber"])
    p.add_argument("--point", help="base point label for 'fiber'")
    p.add_argument("--emit-table", action="store_true", help="emit structure constants")

    command("verify-all", cmd_verify_all, "run the full verification suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = configs.load_config(
            args.config,
            seed=args.seed,
            trials=args.trials,
            tolerance=args.tolerance,
            format=getattr(args, "format", None),
        )
        return args.handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NatorusError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
