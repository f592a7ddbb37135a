"""JSON configuration parsing and the command line surface."""

import json
from pathlib import Path

import numpy as np
import pytest

from natorus import ConfigError, IncompatibleGroupsError, Tricharacter, make_group
from natorus.cli import main
from natorus.configs import (
    load_config,
    parse_action,
    parse_bundle,
    parse_cochain2,
    parse_cochain3,
    parse_group,
    parse_twist,
)
from natorus.presets import pauli_conjugators

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    data = json.loads(out)
    data.pop("timestamp", None)
    return data


# ------------------------------------------------------------------ configs


def test_load_config_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    cfg = load_config(str(path))
    assert cfg.tolerance == 1e-10
    assert cfg.trials == 100
    assert cfg.seed == 0
    assert cfg.format == "json"


def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trials": 7, "tolerance": 1e-8}))
    cfg = load_config(str(path), seed=3, format="text")
    assert cfg.trials == 7 and cfg.tolerance == 1e-8
    assert cfg.seed == 3 and cfg.format == "text"


def test_load_config_without_path_uses_defaults():
    cfg = load_config(None, trials=5)
    assert cfg.trials == 5


@pytest.mark.parametrize(
    "overrides",
    [{"tolerance": 0.0}, {"tolerance": -1e-3}, {"trials": 0}, {"format": "yaml"}, {"seed": "x"}],
)
def test_load_config_rejects_bad_settings(overrides):
    with pytest.raises(ConfigError):
        load_config(None, **overrides)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="config"):
        load_config("/nonexistent/cfg.json")


def test_load_config_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_config_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_parse_group_forms():
    assert parse_group({"factors": [2, 2, 2]}).factors == (2, 2, 2)
    assert parse_group([4]).factors == (4,)
    with pytest.raises(ConfigError):
        parse_group({"rank": 3})
    with pytest.raises(ConfigError):
        parse_group("Z8")


def test_parse_cochain_presets():
    g = make_group([2, 2, 2])
    assert parse_cochain2(g, "zero").is_zero()
    assert not parse_cochain2(g, "octonion").is_zero()
    assert parse_cochain3(g, "octonion").is_alternating()
    assert parse_cochain3(make_group([4, 4, 4]), "epsilon-z4").den == 4
    with pytest.raises(ConfigError):
        parse_cochain3(g, "mystery")


def test_parse_cochain_tables():
    g = make_group([2, 2])
    sigma = parse_cochain2(
        g,
        {"type": "table", "entries": [{"args": [[1, 0], [0, 1]], "value": "1/2"}]},
    )
    assert sigma.value((1, 0), (0, 1)).numerator == 1
    tri = parse_cochain3(
        make_group([2, 2, 2]),
        {"type": "tricharacter", "tensor": _eps().tolist(), "modulus": 2},
    )
    assert tri.is_alternating()


def test_parse_bicharacter_matrix():
    g = make_group([2, 2, 2])
    sigma = parse_cochain2(
        g, {"type": "bicharacter", "matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]], "modulus": 2}
    )
    assert sigma.value((1, 0, 0), (0, 1, 0)).numerator == 1


def test_named_descriptor_on_another_group_is_refused():
    with pytest.raises(ConfigError, match=r"needs group factors \[2, 2, 2\]"):
        parse_cochain2(make_group([4]), "octonion")
    with pytest.raises(IncompatibleGroupsError):
        pauli_conjugators(make_group([2, 2]))


@pytest.mark.parametrize(
    "parse, descriptor",
    [
        (parse_cochain2, {"type": "zero"}),
        (parse_cochain3, {"type": "octonion"}),
        (parse_action, {"preset": "translation"}),
        (lambda g, d: parse_twist(d), {"preset": "pauli-m2"}),
        (lambda g, d: parse_bundle(d), {"preset": "two-point"}),
    ],
    ids=["cochain2-type", "cochain3-type", "action-preset", "twist-preset", "bundle-preset"],
)
def test_removed_spellings_are_refused(parse, descriptor):
    with pytest.raises(ConfigError):
        parse(make_group([2, 2, 2]), descriptor)


def test_parse_action_presets():
    g = make_group([4])
    assert parse_action(g, "translation").group == g
    assert parse_action(g, "m4-conjugation").algebra.dim == 4
    with pytest.raises(ConfigError):
        parse_action(g, "rotation")


def test_parse_twist_preset_and_descriptor():
    tw = parse_twist("pauli-m2")
    assert tw.dim == 2
    scalar = parse_twist({"group": [2, 2, 2], "dim": 1, "sigma": "octonion"})
    assert scalar.dim == 1
    with pytest.raises(ConfigError):
        parse_twist({"group": [2, 2, 2], "dim": 1, "sigma": "octonion", "phi": "zero"})


def test_parse_bundle_presets():
    assert set(parse_bundle("two-point").base.labels) == {"p", "q"}
    assert parse_bundle("octonion-point").base.labels == ("pt",)
    with pytest.raises(ConfigError):
        parse_bundle("moebius")


# ---------------------------------------------------------------------- CLI


def test_group_info(capsys):
    code, out, _ = run_cli(capsys, "group", "info", "--group", "2,4")
    assert code == 0
    data = payload(out)
    assert data["factors"] == [2, 4]
    assert data["order"] == 8
    assert data["exponent"] == 4


def test_cocycle_verify_passes(capsys):
    code, out, _ = run_cli(
        capsys, "cocycle", "verify", "--config", str(CONFIGS / "octonion.json")
    )
    assert code == 0
    assert payload(out)["passed"] is True
    assert payload(out)["mode"] == "certificate"  # "octonion" is a Tricharacter


def test_cocycle_verify_builds_no_table_for_a_tricharacter(capsys, monkeypatch):
    """The verdict, the mode and `alternating` are all decided on the tensor."""

    def refuse(self):
        raise AssertionError("the n^3 table of a tricharacter was built")

    monkeypatch.setattr(Tricharacter, "table", property(refuse))
    code, out, _ = run_cli(
        capsys, "cocycle", "verify", "--config", str(CONFIGS / "octonion.json")
    )
    assert code == 0
    assert payload(out)["alternating"] is True and payload(out)["mode"] == "certificate"


def test_cocycle_verify_fails_with_witness(capsys):
    code, out, _ = run_cli(
        capsys, "cocycle", "verify", "--config", str(CONFIGS / "bad_cocycle.json")
    )
    assert code == 1
    data = payload(out)
    assert data["passed"] is False
    assert data["mode"] == "exhaustive"  # a table entry is swept
    assert len(data["witness"]) == 4


def test_cocycle_restrict_reports_trivial_subgroup(capsys):
    code, out, _ = run_cli(
        capsys,
        "cocycle",
        "restrict",
        "--config",
        str(CONFIGS / "octonion.json"),
        "--subgroup",
        "1,0,0",
        "--subgroup",
        "0,1,0",
    )
    assert code == 0
    data = payload(out)
    assert data["trivial"] is True
    assert len(data["table"]) == 64


def test_tga_mul_octonion_basis(capsys):
    code, out, _ = run_cli(
        capsys, "tga", "mul", "--config", str(CONFIGS / "tga_octonion_mul.json")
    )
    assert code == 0
    data = payload(out)
    coeffs = data["product"]
    # e(0,0,1) e(0,1,0) = +e(0,1,1): index 3 in lexicographic order.
    assert coeffs[3] == [1.0, 0.0]
    assert all(c == [0.0, 0.0] for i, c in enumerate(coeffs) if i != 3)
    assert data["norm"] == 1.0


def test_oct_table_csv_golden_rows(capsys):
    code, out, _ = run_cli(capsys, "oct", "table", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,e0,e1,e2,e3,e4,e5,e6,e7"
    assert lines[1] == "e0,+e0,+e1,+e2,+e3,+e4,+e5,+e6,+e7"
    assert len(lines) == 9
    # Every off-diagonal entry of the body is a signed basis label.
    for row in lines[2:]:
        cells = row.split(",")[1:]
        assert all(c[0] in "+-" and c[1] == "e" for c in cells)


def test_oct_table_json(capsys):
    code, out, _ = run_cli(capsys, "oct", "table")
    assert code == 0
    data = payload(out)
    assert data["basis"] == [f"e{i}" for i in range(8)]
    assert data["table"][0][0] == "+e0"


def test_kernels_assoc_cocycle(capsys):
    code, out, _ = run_cli(
        capsys, "kernels", "assoc-cocycle", "--group", "2,2,2", "--phi", "octonion"
    )
    assert code == 0
    data = payload(out)
    assert data["passed"] is True
    assert data["mode"] == "certificate"


def test_kernels_assoc_cocycle_sweeps_a_table(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_table_config(_BAD_ARGS)))
    code, out, _ = run_cli(capsys, "kernels", "assoc-cocycle", "--config", str(path))
    assert code == 1
    data = payload(out)
    assert data["passed"] is False and data["mode"] == "exhaustive"
    assert len(data["witness"]) == 4


def test_quantize_product_and_norm(capsys):
    cfg = str(CONFIGS / "quantize_translation.json")
    code, out, _ = run_cli(capsys, "quantize", "product", "--config", cfg)
    assert code == 0
    assert "norm" in payload(out)
    code, out, _ = run_cli(capsys, "quantize", "norm", "--config", cfg)
    assert code == 0


def test_quantize_product_represents_the_product_once(capsys, monkeypatch):
    # The operator and its norm come from one dense matrix.
    import natorus.cli
    import natorus.quantization

    represent, calls = natorus.quantization.represent, []

    def counted(*args):
        calls.append(args)
        return represent(*args)

    for module in (natorus.cli, natorus.quantization):
        monkeypatch.setattr(module, "represent", counted)
    cfg = str(CONFIGS / "quantize_translation.json")
    code, out, _ = run_cli(capsys, "quantize", "product", "--config", cfg)
    assert code == 0 and len(calls) == 1
    assert payload(out)["norm"] == natorus.quantization.deformed_norm(*calls[0])


@pytest.mark.parametrize("action", ["product", "norm"])
def test_quantize_refuses_a_non_cocycle_phi(capsys, tmp_path, action):
    # Every quantize action needs phi to be a 3-cocycle, the norm included.
    config = json.loads((CONFIGS / "quantize_translation.json").read_text())
    config["phi"] = {"type": "table", "entries": [{"args": [[1], [1], [1]], "value": "1/2"}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "quantize", action, "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("check failed:") and "not a 3-cocycle" in err


def test_quantize_associator_table(capsys):
    cfg = str(CONFIGS / "associator_octonion.json")
    code, out, _ = run_cli(capsys, "quantize", "associator-table", "--config", cfg)
    assert code == 0
    assert payload(out)["passed"] is True


def test_duality_check_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "duality",
        "check",
        "--config",
        str(CONFIGS / "duality_m2.json"),
        "--trials",
        "20",
        "--seed",
        "7",
    )
    assert code == 0
    data = payload(out)
    assert data["passed"] is True
    assert data["trials"] == 20


def test_bundle_subcommands(capsys):
    cfg = str(CONFIGS / "two_point_bundle.json")
    code, out, _ = run_cli(capsys, "bundle", "build", "--config", cfg)
    assert code == 0
    assert set(payload(out)["base"]) == {"p", "q"}
    code, out, _ = run_cli(capsys, "bundle", "check", "--config", cfg, "--trials", "10")
    assert code == 0
    assert payload(out)["passed"] is True
    code, out, _ = run_cli(capsys, "bundle", "fiber", "--config", cfg, "--point", "q")
    assert code == 0


def test_verify_all_cli(capsys):
    code, out, err = run_cli(
        capsys, "verify-all", "--config", str(CONFIGS / "octonion.json"), "--trials", "40"
    )
    assert code == 0
    data = payload(out)
    assert data["passed"] is True
    assert len(data["criteria"]) == 9
    pass_lines = [line for line in err.splitlines() if line.startswith("[PASS]")]
    assert len(pass_lines) == 9


def test_output_is_deterministic(capsys):
    argv = ["duality", "check", "--config", str(CONFIGS / "duality_m2.json"), "--trials", "10"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert payload(out1) == payload(out2)


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "group", "info", "--group", "2,2", "--format", "text")
    assert code == 0
    assert "order: 4" in out


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_missing_config_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "cocycle", "verify", "--config", "/nope/missing.json")
    assert code == 2
    assert "config error" in err


def test_missing_required_key_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    code, _, err = run_cli(capsys, "duality", "check", "--config", str(path))
    assert code == 2
    assert "config error" in err


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, _ = run_cli(capsys, "group", "info", "--config", str(path))
    assert code == 2


def test_bad_cocycle_config_exits_1(capsys):
    code, _, _ = run_cli(capsys, "cocycle", "verify", "--config", str(CONFIGS / "bad_cocycle.json"))
    assert code == 1


def _tricharacter_config(corner=0, modulus=2):
    """A tricharacter on Z/2^3 whose tensor is zero but for `corner` at [0, 0, 0]."""
    tensor = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    tensor[0][0][0] = corner
    phi = {"type": "tricharacter", "tensor": tensor, "modulus": modulus}
    return {"group": [2, 2, 2], "phi": phi}


def _table_config(args, value="1/2", factors=(2, 2, 2)):
    entries = [{"args": args, "value": value}]
    return {"group": list(factors), "phi": {"type": "table", "entries": entries}}


def _action_config(generator):
    algebra = {"kind": "matrix", "dim": 2}
    return {
        "group": [2],
        "action": {"algebra": algebra, "action": {"generators": [generator]}},
        "phi": "zero",
        "a": [[1, 0], [0, 0]],
        "b": [[0, 0], [0, 1]],
    }


_EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
_BAD_ARGS = [[1, 0, 0], [0, 1, 0], [1, 1, 0]]  # the entry of configs/bad_cocycle.json

# name -> (argv, config written to a file and passed as --config, or None)
MALFORMED = {
    "table-args-not-tuples": (["cocycle", "verify"], _table_config([1, 2, 3])),
    "coordinate-string": (
        ["cocycle", "verify"], _table_config([["a", 0, 0], [0, 1, 0], [1, 1, 0]])
    ),
    "coordinate-float": (["cocycle", "verify"], _table_config([[1.5, 0, 0], [0, 1, 0], [1, 1, 0]])),
    "phase-value-bool": (["cocycle", "verify"], _table_config([[1], [1], [1]], True, factors=[2])),
    "phase-pair-float": (["cocycle", "verify"], _table_config(_BAD_ARGS, [1.5, 2])),
    "phase-pair-strings": (["cocycle", "verify"], _table_config(_BAD_ARGS, ["1", "2"])),
    "modulus-string": (["cocycle", "verify"], _tricharacter_config(modulus="x")),
    "modulus-list": (["cocycle", "verify"], _tricharacter_config(modulus=[2])),
    "modulus-float": (["cocycle", "verify"], _tricharacter_config(modulus=2.5)),
    "modulus-bool": (["cocycle", "verify"], _tricharacter_config(modulus=True)),
    "tensor-entry-float": (["cocycle", "verify"], _tricharacter_config(corner=0.5)),
    "tensor-entry-beyond-int64": (["cocycle", "verify"], _tricharacter_config(corner=2**70)),
    "octonion-phi-on-z4-cubed": (["cocycle", "verify"], {"group": [4, 4, 4], "phi": "octonion"}),
    "octonion-sigma-on-z4": (
        ["tga", "mul"], {"group": [4], "sigma": "octonion", "a": [1, 0, 0, 0], "b": [0, 1, 0, 0]}
    ),
    "non-unitary-generator": (["quantize", "product"], _action_config([[2, 0], [0, 1]])),
    "generator-of-wrong-size": (["quantize", "product"], _action_config(_EYE3)),
    "beta-of-mixed-sizes": (
        ["duality", "check"], {"twist": {"group": [2], "dim": 2, "beta": [[[1, 0], [0, 1]], _EYE3]}}
    ),
    "subgroup-of-wrong-rank": (
        ["cocycle", "restrict", "--config", str(CONFIGS / "octonion.json"), "--subgroup", "1,0"],
        None,
    ),
    "tolerance-bool": (["cocycle", "verify"], {**_tricharacter_config(), "tolerance": True}),
    "tolerance-beyond-float": (
        ["cocycle", "verify"], {**_tricharacter_config(), "tolerance": 10**400}
    ),
    "tolerance-infinite-flag": (
        ["duality", "check", "--config", str(CONFIGS / "duality_m2.json"), "--tolerance", "inf"],
        None,
    ),
    "tolerance-overflowing-flag": (
        ["duality", "check", "--config", str(CONFIGS / "duality_m2.json"), "--tolerance", "1e400"],
        None,
    ),
    "negative-seed": (
        ["duality", "check", "--config", str(CONFIGS / "duality_m2.json"), "--seed", "-1"],
        None,
    ),
}


@pytest.mark.parametrize("value", ["1/2", [1, 2]])
def test_integer_phase_pair_is_read(capsys, tmp_path, value):
    """[1, 2] is the phase 1/2: the one-entry cochain fails with the witness
    of the "1/2" spelling."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_table_config(_BAD_ARGS, value)))
    code, out, _ = run_cli(capsys, "cocycle", "verify", "--config", str(path))
    _, expected, _ = run_cli(
        capsys, "cocycle", "verify", "--config", str(CONFIGS / "bad_cocycle.json")
    )
    assert code == 1
    assert payload(out) == payload(expected)


@pytest.mark.parametrize("argv, config", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_exits_2_without_traceback(capsys, tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err and out == ""


def _eps():
    eps = np.zeros((3, 3, 3), dtype=np.int64)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1
        eps[i, k, j] = -1
    return eps
