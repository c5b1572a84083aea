"""Front-end behaviour: exit codes, determinism, golden report, registry."""
import copy
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfdeform.cli import build_parser, main, run_config, report_json
from hopfdeform.config import COMMANDS, ConfigError, RunConfig, build_cocycle, build_instance, read_int
from hopfdeform.convolution import tuple_comul_terms
from hopfdeform.deformation import SplitPreconditionError
from hopfdeform.registry import example_config, example_names

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def _write(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


_ZERO_ON_Z = {"instance": {"type": "group_algebra_zd", "d": 1}, "cocycle": {"type": "zero"}}
_ZERO_ON_OSC = {"instance": {"type": "symmetric_star", "generators": ["x", "xstar"]}, "cocycle": {"type": "zero"}}
_NON_COCYCLE_ON_Z = {
    "instance": {"type": "group_algebra_zd", "d": 1},
    "cocycle": {"type": "z_polynomial", "coeffs": [[1, 0, [0.001, 0]]]},
    "command": "validate",
}
_OSC_INSTANCE = _ZERO_ON_OSC["instance"]
_H4_ZERO = {"instance": {"type": "sweedler_h4"}, "cocycle": {"type": "zero"}}
_ZD_SMALL = json.loads((DATA / "zd_matrix_small.json").read_text(encoding="utf-8"))


def _fast(config: dict, samples: int = 30) -> dict:
    config = dict(config)
    config["sample_budget"] = samples
    return config


@pytest.mark.parametrize("name", example_names())
def test_every_registry_example_exits_zero(name, tmp_path, capsys):
    cfg = _fast(example_config(name), samples=40)
    assert main(["--config", _write(tmp_path, cfg)]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_registry_contains_expected_entries():
    assert set(example_names()) == {"oscillator", "z-cubic", "zd-matrix", "group-hermitian"}


@pytest.mark.parametrize("name", example_names())
def test_registry_round_trips_through_config(name):
    raw = example_config(name)
    cfg = RunConfig.from_dict(raw)
    again = RunConfig.from_dict(cfg.to_dict())
    assert cfg.to_dict() == again.to_dict()


def test_reports_are_byte_identical(tmp_path):
    cfg = _fast(example_config("zd-matrix"), samples=30)
    path = _write(tmp_path, cfg)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["--config", path, "--json-out", str(out1)]) == 0
    assert main(["--config", path, "--json-out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_json_out_is_a_config_error(where, tmp_path, capsys):
    target = tmp_path / "absent" / "r.json" if where == "missing_dir" else tmp_path
    code = main(["--example", "z-cubic", "--samples", "5", "--json-out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:") and str(target) in err


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_an_unwritable_json_out_ends_the_run_before_any_suite(where, tmp_path, capsys):
    target = tmp_path / "absent" / "r.json" if where == "missing_dir" else tmp_path
    before = sorted(tmp_path.rglob("*"))
    assert main(["--example", "z-cubic", "--samples", "5", "--json-out", str(target)]) == 2
    captured = capsys.readouterr()
    assert "overall:" not in captured.out
    assert captured.err.startswith(f"configuration error: cannot write --json-out {str(target)!r}: ")
    assert sorted(tmp_path.rglob("*")) == before


def test_seed_changes_report(tmp_path):
    cfg = _fast(example_config("zd-matrix"), samples=30)
    path = _write(tmp_path, cfg)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["--config", path, "--json-out", str(out1), "--seed", "1"]) == 0
    assert main(["--config", path, "--json-out", str(out2), "--seed", "2"]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert r1["config"]["seed"] == 1 and r2["config"]["seed"] == 2


def test_env_seed_fallback(tmp_path, monkeypatch):
    cfg = _fast(example_config("z-cubic"), samples=20)
    del cfg["seed"]
    path = _write(tmp_path, cfg)
    out = tmp_path / "r.json"
    monkeypatch.setenv("HOPFDEFORM_SEED", "777")
    assert main(["--config", path, "--json-out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 777


def test_config_seed_wins_over_env_seed(tmp_path, monkeypatch):
    cfg = _fast(example_config("z-cubic"), samples=20)
    path = _write(tmp_path, cfg)
    out = tmp_path / "r.json"
    monkeypatch.setenv("HOPFDEFORM_SEED", "5")
    assert main(["--config", path, "--json-out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 1102


@pytest.mark.parametrize(
    "name, exit_code",
    [
        pytest.param("zd_matrix_small", 0, id="zd_matrix_small"),
        pytest.param("oscillator_small", 0, id="oscillator_small"),
        pytest.param("z_cubic_small", 0, id="z_cubic_small"),
        pytest.param("group_hermitian_small", 0, id="group_hermitian_small"),
        # fails split:parts_sum by one rounding step against its exact 0.0 tolerance
        pytest.param("zd_matrix_failing", 1, id="zd_matrix_failing"),
    ],
)
def test_golden_report_bytes(name, exit_code, tmp_path):
    out = tmp_path / "report.json"
    code = main(["--config", str(DATA / f"{name}.json"), "--json-out", str(out)])
    assert code == exit_code
    assert out.read_bytes() == (GOLDEN / f"{name}.report.json").read_bytes()


# sha256 of report_json for each built-in example's full-report at budget 200,
# which reaches the high-degree pairs the budget-25 goldens never build
BUDGET_200_DIGESTS = {
    "group-hermitian": "df51b8cc5b96f55abe9e10baefa5b9c8f96e68498b62682ca5af12c544ddc3a7",
    "oscillator": "2e56d6f6725270a1e084e4b3c1482051d7c87760ddd5eb9eb03c96f7c94c974d",
    "z-cubic": "26ab55408aea399fd168895e37c45d639e8f02173788d34784d3bdecf8c43527",
    "zd-matrix": "1abd8886a8d63cca47659e880d3cb9ff62690da3a0f2a0f1a1576975e3e42066",
}


@pytest.mark.parametrize("name", sorted(BUDGET_200_DIGESTS))
def test_budget_200_report_digest(name):
    raw = example_config(name)
    raw["sample_budget"] = 200
    cfg = RunConfig.from_dict(raw)
    text = report_json(cfg, run_config(cfg))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BUDGET_200_DIGESTS[name]


# sha256 of report_json for Sweedler H4 with the zero cocycle and witness at
# budget 40: the only non-cocommutative instance, so these pin the Hopf suite
# without the involution law and the trivial suite outside the group algebras
H4_DIGESTS = {
    "full-report": "9a51a6dbd186a25f1b61d3b0a98c3a62d20b618d3bccf8d5ecde3276a59ebc6e",
    "trivial-check": "706fd0b312e289c112cae0ac31270a8e46cd2aedcbab870da2561f2fab49c33a",
}


@pytest.mark.parametrize("command", sorted(H4_DIGESTS))
def test_h4_report_digest(command):
    cfg = RunConfig.from_dict({
        "instance": {"type": "sweedler_h4"},
        "cocycle": {"type": "zero"},
        "witness": {"type": "zero"},
        "seed": 20240817,
        "sample_budget": 40,
        "command": command,
    })
    text = report_json(cfg, run_config(cfg))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == H4_DIGESTS[command]


# sha256 of report_json for the oscillator with pairing entries at ±1e308, at
# budget 25, and the number of results each report holds: σ and the
# convolution powers overflow, so these pin where each run meets its first
# non-finite value and what it reports there.  With only L(x⊗x*) = 1e308 and
# degree ≤ 2, that first value is a leg weight 2·1e308 on the tuple xx*⊗x*²,
# which the convolution exponential refuses.  With L(x*⊗x) = −1e308 too, it
# is the weight −inf of the leg of x²x*⊗x²x* whose left tuple is x*⊗x and
# right tuple x²⊗xx*, in the commuting residual's L ⋆ μ², which the scalar
# convolution refuses.
NEAR_LIMIT_MESSAGES = {
    "antisymmetric": "non-finite leg weight (-inf+0j) of primitive_bilinear on ((2, 1), (2, 1)), "
                     "right tuple ((2, 0), (1, 1))",
    "one_sided": "non-finite leg weight (inf+0j) of primitive_bilinear on ((1, 1), (0, 2))",
}
NEAR_LIMIT_PAIRINGS = {
    "antisymmetric": ([[[0.0, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [0.0, 0.0]]], 4),
    "one_sided": ([[[0.0, 0.0], [1e308, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], 2),
}
NEAR_LIMIT_DIGESTS = {
    ("antisymmetric", "antipode"): ("e2c672f5e5cd9d6f44619a67a544e533874aa933864241e093edfac51720a51e", 1),
    ("antisymmetric", "full-report"): ("ce07aaa3ebe43c25267a4f4edb4d767e659b085be617e1d7a327593ba52b68ba", 1),
    ("one_sided", "antipode"): ("f4392ebd4bb00cae23483bdd535250356e8f4ac9dfa6ca65f6a55ad4db026881", 4),
    ("one_sided", "full-report"): ("a9bc6878b4d801cc8cf873ea9c61ed1d384a5eaf28561dd11101f6b3dfc928e8", 16),
}


@pytest.mark.parametrize("pairing, command", sorted(NEAR_LIMIT_DIGESTS))
def test_near_limit_pairing_report_digest(pairing, command):
    matrix, max_degree = NEAR_LIMIT_PAIRINGS[pairing]
    cfg = RunConfig.from_dict({
        "instance": _OSC_INSTANCE | {"involution": [["x", "xstar"]]},
        "cocycle": {"type": "primitive_bilinear", "matrix": matrix},
        "seed": 20240817,
        "sample_budget": 25,
        "sampler": {"max_degree": max_degree},
        "command": command,
    })
    report = run_config(cfg)
    digest, results = NEAR_LIMIT_DIGESTS[pairing, command]
    assert [r.law_id for r in report.failures()] == ["non_finite"]
    assert len(report.results) == results
    assert report.extras["non_finite"].startswith(NEAR_LIMIT_MESSAGES[pairing])
    text = report_json(cfg, report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_deep_pair_report_digest(tmp_path):
    # tabulates μ_t on the degree-24 pair (x⁶x*⁶, x⁶x*⁶), whose Taylor series
    # in t is the longest any test reads
    out = tmp_path / "report.json"
    assert main(["--config", str(DATA / "oscillator_deep.json"), "--json-out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0bf4ed5c20ff4ce240ee0baf2ffd43b4b074c7c62b765c6a66b639bb0c10cc00"
    )


# sha256 of report_json for each single command at budget 25: every built-in
# example (trivial-check on z-cubic, the one with a witness) and Sweedler H4
# with the zero cocycle and witness
COMMAND_DIGESTS = {
    ("group-hermitian", "antipode"): "f74ff62216ba929c741002cebd84bdc09a21d64797cc9c73cbbccafc43d21701",
    ("group-hermitian", "deform"): "798d34bf02d22df794b40f839c4947a1575dd3a4f68944900d009e7e65a2a771",
    ("group-hermitian", "split"): "6080bed681c8391a671cb4d32e031f5267ec47c2d689c94f57fbc500799c8ec5",
    ("group-hermitian", "validate"): "f0d86718130216955dc1e514af90758d2b6482782cae8002fb531a2f378d323c",
    ("oscillator", "antipode"): "b5c7b76769489f5a6409f7be768be867ee6b45b0b543286fda9efd65f5e74854",
    ("oscillator", "deform"): "0ba5b14ad759d82dae54360eeb32378f8c880699b093faad493ca430371cc4b8",
    ("oscillator", "split"): "7986dc29970babbf59bf461892c175ef17e051dc64f91f238f630c45ebf2fd83",
    ("oscillator", "validate"): "4489c8c6a7205dac8ea33a334343117a054caec0d0dd9da820808066c130a4c7",
    ("sweedler-h4", "antipode"): "d4de159a4453886b089f26e990e5b69f10fd0c1bb6ef11f90d685102f0daec15",
    ("sweedler-h4", "deform"): "d136094d815e9c065bd91ac0f664cb87d06b4e518093454d0597ac1ceaac05ea",
    ("sweedler-h4", "split"): "fff6a814b9b0ec3e37898496ddb5060ccca8b1a235a45bb0adee59d5b1b11961",
    ("sweedler-h4", "validate"): "8bc35b6eb8d2a5fed72bbc3ee5ef67424eff0b96d5c0800615a3975e825604b1",
    ("z-cubic", "antipode"): "aa8fd196974dc439c0489f5ec6831c49b68a86f3ef45ab5c95e58f686850e3ea",
    ("z-cubic", "deform"): "3c1d2bf6f494cf1f7b9a2395217546ae6434c8850bb37c9d941b237fce9896c6",
    ("z-cubic", "split"): "426b2d8227d36bfcdb205df96c29ed2248ac1bb9966aa97d0f3d13d9962790bc",
    ("z-cubic", "trivial-check"): "2f9591d43182b1dd1bf89252968254ce12cdf3803e8ac2c8cd76b2e47e08ff06",
    ("z-cubic", "validate"): "3d2d7d89fd19c3468aeb7bcd1f9e5a3a579140ab9c93ab4df9e4068a5c6c85f9",
    ("zd-matrix", "antipode"): "90f61da91522969221480821bacc4a1527ed5d9f737be4315fdf62e3189bd0e6",
    ("zd-matrix", "deform"): "fb4c960809029b0043d34e1578bb7ec42594dc65de3e262dc91e9951995df966",
    ("zd-matrix", "split"): "5521ea3384d36db8ce7fb3a2b9087534ebf3683b4992592bfb9a245f3766c79a",
    ("zd-matrix", "validate"): "fec5e4d7e1b3878103a864e9d386c4afb045d9b71043d290f896a9ea1eada6d9",
}


@pytest.mark.parametrize("name, command", sorted(COMMAND_DIGESTS))
def test_single_command_report_digest(name, command):
    if name == "sweedler-h4":
        raw = {"instance": {"type": "sweedler_h4"}, "cocycle": {"type": "zero"}, "witness": {"type": "zero"}}
    else:
        raw = example_config(name)
    cfg = RunConfig.from_dict({"seed": 20240817, **raw, "sample_budget": 25, "command": command})
    text = report_json(cfg, run_config(cfg))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == COMMAND_DIGESTS[name, command]


@pytest.mark.parametrize("command, flag", [("split", "sigma_circ_s"), ("full-report", "split:sigma_circ_s")])
def test_split_precondition_failure_is_a_failed_flag(command, flag, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise SplitPreconditionError("σ(x) differs from σ(S x)")

    monkeypatch.setattr("hopfdeform.cli.split_cocommutative", refuse)
    out = tmp_path / "report.json"
    cfg = {**_fast(example_config("group-hermitian"), samples=10), "command": command}
    assert main(["--config", _write(tmp_path, cfg), "--json-out", str(out)]) == 1
    report = json.loads(out.read_text(encoding="utf-8"))["report"]
    assert [r["law_id"] for r in report["results"] if not r["passed"]] == [flag]
    assert report["extras"]["split_precondition_failure"] == "σ(x) differs from σ(S x)"
    # the suites after the splitting still run inside full-report
    assert any(r["law_id"].startswith("star:") for r in report["results"]) == (command == "full-report")


# this table cocycle passes the generator checks, but σ and its flipped form disagree
_SIGMA_FLIP = {
    "instance": {"type": "group_algebra_zd", "d": 3},
    "cocycle": {"type": "grouplike_table", "entries": [[[1, 1, 1], [-1, -1, -1], 1]]},
    "sampler": {"coord_bound": 2},
    "sample_budget": 40,
    "seed": 1,
}


@pytest.mark.parametrize("command, flags", [
    ("antipode", ["sigma_flip"]),
    ("split", ["sigma_flip"]),
    ("full-report", ["hopf:sigma_flip", "split:sigma_flip"]),
])
def test_a_sigma_flip_disagreement_is_a_failed_law(command, flags, tmp_path):
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, {**_SIGMA_FLIP, "command": command}), "--json-out", str(out)]) == 1
    report = json.loads(out.read_text(encoding="utf-8"))["report"]
    failed = [r for r in report["results"] if not r["passed"]]
    assert [r["law_id"] for r in failed] == flags
    assert {r["statement"] for r in failed} == {"L∘(id(x)S)∘Delta = L∘(S(x)id)∘Delta"}
    # the flag counts the keys that σ and its flipped form were compared on, not the sample budget
    assert {r["samples"] for r in failed} == {60}
    assert report["extras"]["sigma_flip_failure"] == "sigma and its flipped form disagree by 1.000e+00"
    assert "antipode_tabulation" not in report["extras"]
    assert ("tabulation" in report["extras"]) == (command != "split")


def test_a_sigma_flip_failure_is_computed_once_per_report(monkeypatch):
    import hopfdeform.deformation as deformation

    calls = []
    compute = deformation.sigma_functional
    monkeypatch.setattr(deformation, "sigma_functional", lambda *args: calls.append(args) or compute(*args))
    cfg = RunConfig.from_dict({**_SIGMA_FLIP, "command": "full-report"})
    text = report_json(cfg, run_config(cfg))
    # the hopf: and split: suites and the tabulation all ask for σ; the kept error answers the last two
    assert len(calls) == 1
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "4820e71f1d806cc801f0111d7c4e954a0603278f191a2e14e47729b489c35d36"
    )


def test_list_examples(capsys):
    assert main(["--list-examples"]) == 0
    out = capsys.readouterr().out
    for name in ("oscillator", "z-cubic", "zd-matrix", "group-hermitian"):
        assert name in out


def test_exit_2_on_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["--config", str(path)]) == 2


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({"instance": {"type": "nope"}, "cocycle": {"type": "zero"}}, id="unknown_instance"),
        pytest.param(
            {
                "instance": {"type": "symmetric_star", "generators": ["x", "y"]},
                "cocycle": {"type": "primitive_bilinear", "matrix": [[float("nan"), 1.0], [0.0, 0.0]]},
            },
            id="primitive_bilinear_nan_entry",
        ),
        pytest.param(
            {
                "instance": {"type": "group_algebra_zd", "d": 1},
                "cocycle": {"type": "z_polynomial", "coeffs": [[2, 1, [float("nan"), 0.0]]]},
            },
            id="z_polynomial_nan_coefficient",
        ),
        pytest.param({**_ZERO_ON_Z, "sample_budget": "ten"}, id="sample_budget_not_int"),
        pytest.param({**_ZERO_ON_Z, "seed": "x"}, id="seed_not_int"),
        pytest.param({**_ZERO_ON_Z, "sampler": {"coord_bound": "a"}}, id="coord_bound_not_int"),
        pytest.param({**_ZERO_ON_Z, "t_grid": ["a"]}, id="t_grid_not_number"),
        pytest.param({**_ZERO_ON_Z, "instance": 3}, id="instance_not_object"),
        pytest.param({**_ZERO_ON_Z, "instance": {"type": "group_algebra_zd", "d": "x"}}, id="d_not_int"),
        pytest.param({**_ZERO_ON_Z, "instance": {"type": "group_algebra_zd", "d": 0}}, id="d_zero"),
        pytest.param({**_ZERO_ON_Z, "instance": {"type": "group_algebra_zd", "d": -2}}, id="d_negative"),
        pytest.param(
            {
                "instance": {"type": "group_algebra_zd", "d": 2},
                "cocycle": {"type": "zero"},
                "command": "deform",
                "sample_budget": 5,
                "tabulate": [[["a", "b"], [0, 1]]],
            },
            id="tabulate_key_not_int",
        ),
        pytest.param({**_ZERO_ON_Z, "sampler": {"coord_bound": -1}}, id="coord_bound_negative"),
        pytest.param({**_ZERO_ON_OSC, "sampler": {"max_support": 0}}, id="max_support_zero"),
        pytest.param({**_ZERO_ON_OSC, "sampler": {"max_degree": -1}}, id="max_degree_negative"),
        # a bool or a non-integral number in an integer field is not truncated
        pytest.param({**_ZD_SMALL, "instance": {"type": "group_algebra_zd", "d": 2.7}}, id="d_not_integral"),
        pytest.param({**_ZERO_ON_Z, "instance": {"type": "group_algebra_zd", "d": True}}, id="d_bool"),
        pytest.param({**_ZD_SMALL, "sample_budget": 25.9}, id="sample_budget_not_integral"),
        pytest.param({**_ZD_SMALL, "seed": 424242.5}, id="seed_not_integral"),
        pytest.param({**_ZD_SMALL, "sampler": {"coord_bound": 1.5}}, id="coord_bound_not_integral"),
        pytest.param({**_ZD_SMALL, "tabulate": [[[1, 0.5], [0, 1]]]}, id="tabulate_key_not_integral"),
        pytest.param(
            {**_ZD_SMALL, "cocycle": {"type": "grouplike_table", "entries": [[[1, 0.5], [0, 1], 0.0]]}},
            id="grouplike_table_key_not_integral",
        ),
        pytest.param(
            {**_ZERO_ON_Z, "cocycle": {"type": "z_polynomial", "coeffs": [[2.5, 1, 0.0]]}},
            id="z_polynomial_exponent_not_integral",
        ),
        # a bool is not a number, and a tolerance must be a known, non-negative one;
        # read as 1.0, the bool tolerance would pass this failing validate run
        pytest.param({**_NON_COCYCLE_ON_Z, "tolerances": {"law": True}}, id="tolerance_bool"),
        pytest.param({**_NON_COCYCLE_ON_Z, "tolerances": {"lawx": 1.0}}, id="tolerance_unknown_key"),
        pytest.param({**_ZERO_ON_Z, "tolerances": {"law": -1e-8}}, id="tolerance_negative"),
        pytest.param({**_ZERO_ON_Z, "tolerances": {"strict": "1e-12"}}, id="tolerance_not_number"),
        pytest.param({**_ZERO_ON_Z, "t_grid": [True]}, id="t_grid_bool"),
        pytest.param(
            {**_ZERO_ON_Z, "cocycle": {"type": "z_polynomial", "coeffs": [[2, 1, True]]}},
            id="complex_scalar_bool",
        ),
        pytest.param(
            {**_ZERO_ON_Z, "cocycle": {"type": "z_polynomial", "coeffs": [[2, 1, [0.5, False]]]}},
            id="complex_pair_entry_bool",
        ),
        pytest.param({**_ZERO_ON_Z, "require_star": "no"}, id="require_star_not_bool"),
        pytest.param(
            {**_ZERO_ON_Z, "instance": {"type": "group_algebra_zd", "d": 1, "star": "no"}},
            id="instance_star_not_bool",
        ),
        # a misspelt key is rejected, not ignored in favour of the default
        pytest.param({**_ZD_SMALL, "sampler": {"coord_bund": 1}}, id="sampler_unknown_key"),
        pytest.param(
            {**_ZD_SMALL, "instance": {"type": "group_algebra_zd", "d": 2, "strar": False}},
            id="instance_unknown_key",
        ),
        pytest.param({**_ZERO_ON_Z, "cocycle": {"type": "zero", "matrix": [[1.0]]}}, id="cocycle_unknown_key"),
        pytest.param({**_ZERO_ON_Z, "witness": {"type": "zero", "expr": "k"}}, id="witness_unknown_key"),
        # a string is not a list of generator names, and a name may not repeat
        pytest.param(
            {**_ZERO_ON_OSC, "instance": {"type": "symmetric_star", "generators": "xy", "involution": [["x", "y"]]}},
            id="generators_string",
        ),
        pytest.param(
            {**_ZERO_ON_OSC, "instance": {"type": "symmetric_star", "generators": ["x", "x"], "involution": [["x", "x"]]}},
            id="generators_repeated",
        ),
        # a key the instance cannot hold, or a repeated pair, is not silently dropped
        pytest.param(
            {**_NON_COCYCLE_ON_Z, "cocycle": {"type": "grouplike_table", "entries": [[[1, 2], [1], 5.0]]}},
            id="grouplike_table_key_wrong_length",
        ),
        pytest.param(
            {**_NON_COCYCLE_ON_Z, "cocycle": {"type": "grouplike_table", "entries": [[[1], [1], 5.0], [[1], [1], 6.0]]}},
            id="grouplike_table_pair_repeated",
        ),
        # a descriptor is a JSON object; only null or a missing key means "no witness"
        pytest.param({**_ZERO_ON_Z, "instance": [["type", "sweedler_h4"]]}, id="instance_key_value_list"),
        pytest.param({**_ZERO_ON_Z, "cocycle": [["type", "zero"]]}, id="cocycle_key_value_list"),
        pytest.param({**_ZERO_ON_Z, "witness": [["type", "zero"]]}, id="witness_key_value_list"),
        pytest.param({**_ZERO_ON_Z, "witness": 0}, id="witness_zero"),
        pytest.param({**_ZERO_ON_Z, "witness": False}, id="witness_false"),
        pytest.param({**_ZERO_ON_Z, "witness": []}, id="witness_empty_list"),
        pytest.param({**_ZERO_ON_Z, "witness": ""}, id="witness_empty_string"),
        pytest.param({**_ZERO_ON_Z, "witness": {}}, id="witness_empty_object"),
        # likewise only a null or missing involution means "no involution"
        pytest.param({**_ZERO_ON_OSC, "instance": {**_OSC_INSTANCE, "involution": False}}, id="involution_false"),
        pytest.param({**_ZERO_ON_OSC, "instance": {**_OSC_INSTANCE, "involution": 0}}, id="involution_zero"),
        pytest.param({**_ZERO_ON_OSC, "instance": {**_OSC_INSTANCE, "involution": ""}}, id="involution_empty_string"),
        pytest.param({**_ZERO_ON_OSC, "instance": {**_OSC_INSTANCE, "involution": {}}}, id="involution_empty_object"),
        pytest.param({**_ZERO_ON_OSC, "instance": {**_OSC_INSTANCE, "involution": []}}, id="involution_empty_list"),
        pytest.param(
            {**_ZERO_ON_OSC, "instance": {**_OSC_INSTANCE, "involution": 0}, "require_star": True},
            id="involution_zero_with_require_star",
        ),
    ],
)
def test_exit_2_on_unknown_instance(payload, tmp_path):
    assert main(["--config", _write(tmp_path, payload)]) == 2


# a string is not a number, not even one that int() reads; read as one, each of these configs runs
_STRING_INTS = [
    ("sample_budget_string", {**_ZD_SMALL, "sample_budget": "5"}, "sample_budget"),
    ("sample_budget_underscored_string", {**_ZD_SMALL, "sample_budget": "1_0"}, "sample_budget"),
    ("seed_string", {**_ZD_SMALL, "seed": "7"}, "seed"),
    ("coord_bound_string", {**_ZD_SMALL, "sampler": {"coord_bound": "2"}}, "sampler coord_bound"),
    ("d_string", {**_ZD_SMALL, "instance": {"type": "group_algebra_zd", "d": "2"}}, "instance d"),
    ("tabulate_key_string", {**_ZD_SMALL, "tabulate": [[["1", "0"], [0, 1]]]}, "basis key coordinate"),
    ("z_polynomial_exponent_string", {**_ZERO_ON_Z, "cocycle": {"type": "z_polynomial", "coeffs": [["2", 1, 0.0]]}},
     "z_polynomial exponent"),
]


@pytest.mark.parametrize("payload, field", [pytest.param(p, f, id=name) for name, p, f in _STRING_INTS])
def test_a_string_in_an_integer_field_is_named_in_the_message(payload, field, tmp_path, capsys):
    assert main(["--config", _write(tmp_path, payload)]) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err


_HUGE_FLOAT_INTS = [
    ("sample_budget", {**_ZD_SMALL, "sample_budget": 1e300}, "sample_budget"),
    ("max_support", {**_ZD_SMALL, "sampler": {"max_support": 1e300}}, "sampler max_support"),
    ("seed", {**_ZD_SMALL, "seed": 1e300}, "seed"),
    ("negative_coord_bound", {**_ZD_SMALL, "sampler": {"coord_bound": -1e300}}, "sampler coord_bound"),
    ("d", {**_ZD_SMALL, "instance": {"type": "group_algebra_zd", "d": 2.0**53 + 2}}, "instance d"),
    ("tabulate_key", {**_ZD_SMALL, "tabulate": [[[1e300, 0], [0, 1]]]}, "basis key coordinate"),
    ("z_polynomial_exponent", {**_ZERO_ON_Z, "cocycle": {"type": "z_polynomial", "coeffs": [[1e300, 1, 0.0]]}},
     "z_polynomial exponent"),
]


@pytest.mark.parametrize("payload, field", [pytest.param(p, f, id=name) for name, p, f in _HUGE_FLOAT_INTS])
def test_a_float_beyond_2_53_in_an_integer_field_is_named_in_the_message(payload, field, tmp_path, capsys):
    # such a float need not be the integer written, and as a budget or a bound it would run until killed
    start = time.perf_counter()
    assert main(["--config", _write(tmp_path, payload)]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"{field} must be an integer, got the float" in capsys.readouterr().err


def test_an_integral_float_up_to_2_53_is_read_as_its_integer():
    assert read_int(2.0**53, "seed") == 2**53
    assert read_int(-(2.0**53), "seed") == -(2**53)
    assert read_int(10**30, "seed") == 10**30  # an exact JSON integer is read as it stands
    with pytest.raises(ConfigError, match="seed must be an integer, got the float"):
        read_int(2.0**53 + 2, "seed")


def _no_sampler(*args, **kwargs):
    raise AssertionError("a sample was drawn before the configuration was read")


_BAD_PAIRS = {"key_of_wrong_length": [[[1], [1, 2]]], "triple": [[[1], [1], [1]]], "single": [[[0], [1]], [[1]]]}


@pytest.mark.parametrize(
    "payload, code",
    [
        *(
            pytest.param(
                {**example_config("z-cubic"), "command": command, "tabulate": pairs}, 2, id=f"{name}-{command}"
            )
            for name, pairs in _BAD_PAIRS.items()
            for command in COMMANDS
        ),
        pytest.param(
            {**_NON_COCYCLE_ON_Z, "command": "deform", "tabulate": [[[1], "x"]]}, 2, id="deform_non_cocycle"
        ),
        pytest.param(
            {**example_config("oscillator"), "sample_budget": 800, "tabulate": [["x", [1, 2]]]}, 2,
            id="oscillator_full_report_budget_800",
        ),
        # tabulate is a list of two-entry lists; a string or an object is not split into a pair
        pytest.param({**_H4_ZERO, "command": "deform", "tabulate": {"gx": 1}}, 2, id="h4_tabulate_object"),
        pytest.param({**_H4_ZERO, "command": "deform", "tabulate": ["gx"]}, 2, id="h4_tabulate_string_entry"),
        pytest.param(
            {**_H4_ZERO, "command": "deform", "tabulate": [{"g": 0, "x": 0}]}, 2, id="h4_tabulate_object_entry"
        ),
        # a missing involution keeps its exit code 3
        pytest.param(
            {**_ZERO_ON_Z, "instance": {"type": "group_algebra_zd", "d": 1, "star": False},
             "require_star": True, "tabulate": [[[1], [1, 2]]]}, 3,
            id="star_without_involution",
        ),
    ],
)
def test_a_bad_tabulate_entry_ends_the_run_before_sampling(payload, code, tmp_path, monkeypatch):
    monkeypatch.setattr("hopfdeform.cli.ElementSampler", _no_sampler)
    assert main(["--config", _write(tmp_path, payload)]) == code


def test_a_bad_file_value_exits_2_although_a_flag_replaces_it(tmp_path):
    cfg = {**_fast(example_config("z-cubic")), "seed": "x"}
    assert main(["--config", _write(tmp_path, cfg), "--seed", "5"]) == 2


@pytest.mark.parametrize(
    "data",
    [
        pytest.param('{"instance": {"type": "é"}}'.encode("latin-1"), id="not_utf8"),
        pytest.param(b"[" * 200_000 + b"]" * 200_000, id="nested_too_deep"),
    ],
)
def test_exit_2_on_a_config_file_json_cannot_read(data, tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert main(["--config", str(path)]) == 2


def test_a_t_grid_flag_that_is_not_numbers_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--example", "z-cubic", "--t-grid=a,1"])
    assert exc.value.code == 2


def test_the_t_grid_help_names_the_form_that_takes_a_negative_first_number(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per flag, so the form is not wrapped at a hyphen
    assert "--t-grid=-1,0,1" in build_parser().format_help()
    assert main(["--example", "z-cubic", "--t-grid=-1,0,1", "--command", "validate"]) == 0


def test_an_involution_naming_an_unknown_generator_exits_2(tmp_path, capsys):
    instance = {"type": "symmetric_star", "generators": ["x", "y"], "involution": [["x", "z"]]}
    cfg = {**_ZERO_ON_OSC, "instance": instance}
    assert main(["--config", _write(tmp_path, cfg)]) == 2
    assert "'z' is not a generator" in capsys.readouterr().err


def test_integral_floats_read_as_integers():
    cfg = RunConfig.from_dict({**_ZD_SMALL, "sample_budget": 25.0, "sampler": {"coord_bound": 2.0}})
    assert cfg.to_dict() == RunConfig.from_dict(_ZD_SMALL).to_dict()
    assert build_instance({"type": "group_algebra_zd", "d": 2.0}).unit == (0, 0)


def test_exit_2_on_unknown_command(tmp_path):
    cfg = _fast(example_config("z-cubic"))
    cfg["command"] = "frobnicate"
    assert main(["--config", _write(tmp_path, cfg)]) == 2


def test_exit_2_trivial_check_needs_witness(tmp_path):
    cfg = _fast(example_config("zd-matrix"))
    cfg["command"] = "trivial-check"
    assert main(["--config", _write(tmp_path, cfg)]) == 2


def test_exit_3_star_without_involution(tmp_path):
    cfg = {
        "instance": {"type": "group_algebra_zd", "d": 1, "star": False},
        "cocycle": {"type": "z_polynomial", "coeffs": [[2, 1, [1, 0]], [1, 2, [1, 0]]]},
        "require_star": True,
        "command": "validate",
        "sample_budget": 20,
    }
    assert main(["--config", _write(tmp_path, cfg)]) == 3


def test_exit_1_on_non_cocycle(tmp_path, capsys):
    cfg = {
        "instance": {"type": "group_algebra_zd", "d": 1},
        "cocycle": {"type": "z_polynomial", "coeffs": [[1, 0, [1, 0]]]},
        "command": "validate",
        "sample_budget": 40,
        "sampler": {"coord_bound": 2},
    }
    assert main(["--config", _write(tmp_path, cfg)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_exit_1_aborts_downstream_suites(tmp_path):
    cfg = {
        "instance": {"type": "group_algebra_zd", "d": 1},
        "cocycle": {"type": "z_polynomial", "coeffs": [[1, 0, [1, 0]]]},
        "command": "full-report",
        "sample_budget": 30,
        "sampler": {"coord_bound": 2},
    }
    report = run_config(RunConfig.from_dict(cfg))
    assert not report.overall_pass
    assert "aborted" in report.extras


def test_command_and_grid_overrides(tmp_path, capsys):
    cfg = _fast(example_config("zd-matrix"), samples=25)
    path = _write(tmp_path, cfg)
    assert main(["--config", path, "--command", "antipode", "--t-grid=-1,1"]) == 0
    out = capsys.readouterr().out
    assert "command: antipode" in out


def test_tolerance_override_takes_effect(tmp_path):
    # the cubic witness matches its generator only up to float rounding, so an
    # absurdly small law tolerance must flip the witness law to FAIL
    cfg = _fast(example_config("z-cubic"), samples=30)
    cfg["command"] = "validate"
    path = _write(tmp_path, cfg)
    assert main(["--config", path]) == 0
    assert main(["--config", path, "--tolerance", "1e-30"]) == 1
    assert main(["--config", path, "--tolerance=-1e-8"]) == 2


def test_split_command_reports_parts(tmp_path):
    cfg = _fast(example_config("zd-matrix"), samples=40)
    cfg["command"] = "split"
    report = run_config(RunConfig.from_dict(cfg))
    assert report.overall_pass
    assert report.extras["l1_is_zero"] is False
    assert report.extras["constant_antipodes"] is False


def test_split_command_cubic_trivial(tmp_path):
    cfg = _fast(example_config("z-cubic"), samples=40)
    cfg["command"] = "split"
    report = run_config(RunConfig.from_dict(cfg))
    assert report.overall_pass
    assert report.extras["l1_is_zero"] is True
    assert report.extras["l2_equals_l"] is True
    assert report.extras["constant_antipodes"] is True
    assert report.extras["trivial"] is True


def test_h4_zero_cocycle_antipode_command(tmp_path):
    cfg = {
        "instance": {"type": "sweedler_h4"},
        "cocycle": {"type": "zero"},
        "command": "antipode",
        "sample_budget": 40,
        "tabulate": [["g", "x"]],
    }
    report = run_config(RunConfig.from_dict(cfg))
    assert report.overall_pass
    keys = {row["key"] for row in report.extras["antipode_tabulation"]}
    assert keys == {"g", "x"}


def test_oscillator_full_report_tabulates_ccr(tmp_path):
    cfg = _fast(example_config("oscillator"), samples=30)
    cfg["t_grid"] = [1.0]
    report = run_config(RunConfig.from_dict(cfg))
    assert report.overall_pass
    row = report.extras["tabulation"][0]
    assert row["pair"] == ["x", "xstar"]
    assert row["values"][0]["commutator"] == "(1+0i)*1"


def test_report_json_schema(tmp_path):
    cfg = RunConfig.from_dict(_fast(example_config("z-cubic"), samples=20))
    report = run_config(cfg)
    payload = json.loads(report_json(cfg, report))
    assert set(payload) == {"config", "report"}
    assert payload["config"]["command"] == "full-report"
    for law in payload["report"]["results"]:
        assert set(law) == {"law_id", "statement", "samples", "max_residual", "tolerance", "passed"}


def test_trivial_check_with_pbw_witness(tmp_path):
    cfg = {
        "instance": {
            "type": "symmetric_star",
            "generators": ["x", "xstar"],
            "involution": [["x", "xstar"]],
        },
        "cocycle": {
            "type": "primitive_bilinear",
            "matrix": [[[0.25, 0.0], [0.75, 0.0]], [[0.75, 0.0], [-0.5, 0.0]]],
        },
        "witness": {"type": "pbw_trivializer"},
        "command": "trivial-check",
        "sample_budget": 40,
        "seed": 5150,
    }
    assert main(["--config", _write(tmp_path, cfg)]) == 0


@pytest.mark.parametrize(
    "argv, env_seed",
    [
        pytest.param([], None, id="no_inputs"),
        pytest.param(["--example", "z-cubic", "--t-grid=nan,1"], None, id="t_grid_nan"),
        pytest.param(["--example", "z-cubic", "--t-grid=inf"], None, id="t_grid_inf"),
        pytest.param(["--example", "z-cubic", "--tolerance", "nan"], None, id="tolerance_nan"),
        pytest.param(["--example", "z-cubic"], "abc", id="env_seed_not_int"),
    ],
)
def test_usage_error_without_inputs(argv, env_seed, monkeypatch):
    if env_seed is not None:
        monkeypatch.setenv("HOPFDEFORM_SEED", env_seed)
    assert main(argv) == 2


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"t_grid": [1e300]}, id="exp_overflow"),
        pytest.param({"sampler": {"coord_bound": 40}, "command": "deform"}, id="coefficient_overflow"),
        pytest.param({"cocycle": {"type": "grouplike_table", "expr": "m1/n1"}}, id="cocycle_division_by_zero"),
        pytest.param(
            {"command": "trivial-check", "witness": {"type": "grouplike_expression", "expr": "1/k1"}},
            id="witness_division_by_zero",
        ),
        # an integer too large for a float, in a key the cocycle reads
        pytest.param({"tabulate": [[[10**400, 0], [0, 1]]]}, id="key_coordinate_overflow"),
        pytest.param(
            {
                "instance": {"type": "group_algebra_zd", "d": 1},
                "cocycle": {"type": "z_polynomial", "coeffs": [[2, 1, 1.0], [1, 2, 1.0]]},
                "tabulate": [[[10**300], [1]]],
            },
            id="polynomial_power_overflow",
        ),
    ],
)
def test_non_finite_value_fails_its_law(change, tmp_path, capsys):
    cfg = json.loads((DATA / "zd_matrix_small.json").read_text(encoding="utf-8"))
    cfg.update(change)
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--json-out", str(out)]) == 1
    assert "[FAIL] non_finite" in capsys.readouterr().out
    report = json.loads(out.read_text())["report"]
    assert report["results"][-1]["law_id"] == "non_finite"
    assert report["extras"]["non_finite"].startswith("non-finite ")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_non_finite_residual_is_written_as_strict_json(tmp_path, capsys):
    cfg = {
        "instance": {"type": "group_algebra_zd", "d": 1},
        "cocycle": {"type": "grouplike_table", "expr": "0*m*n"},
        "witness": {"type": "grouplike_expression", "expr": "1e308*1e308*k - 1e308*1e308*k"},
        "command": "validate",
        "seed": 7,
        "sample_budget": 10,
    }
    out = tmp_path / "report.json"
    assert main(["--config", _write(tmp_path, cfg), "--json-out", str(out)]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
    report = json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)["report"]
    assert {r["law_id"]: r["max_residual"] for r in report["results"]}["witness"] == "NaN"
    assert report["extras"]["classifier"]["residuals"]["witness"] == "NaN"


def test_report_json_spells_every_non_finite_float():
    cfg = RunConfig.from_dict(_ZERO_ON_Z)
    report = run_config(cfg)
    report.extras["spelled"] = [math.nan, math.inf, -math.inf, (1.5, -math.inf), {"x": 0.25}]
    text = report_json(cfg, report)
    spelled = json.loads(text, parse_constant=_reject_constant)["report"]["extras"]["spelled"]
    assert spelled == ["NaN", "Infinity", "-Infinity", [1.5, "-Infinity"], {"x": 0.25}]


def _paths(value, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


def _mutants():
    configs = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(DATA.glob("*.json"))]
    configs.append({"instance": {"type": "sweedler_h4"}, "cocycle": {"type": "zero"}, "witness": {"type": "zero"}})
    for config in configs:
        for path in _paths(config):
            value = config
            for key in path:
                value = value[key]
            yield config, path, "x" if not isinstance(value, str) else 7
            yield config, path, True
            yield config, path, float("nan")
            yield config, path, 1e300
            if path:
                yield config, path, "missing"
            if isinstance(value, dict):
                yield config, path + ("extra",), 1


def _mutate(config: dict, path: tuple, replacement):
    if not path:
        return replacement
    config = copy.deepcopy(config)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if replacement == "missing":
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return config


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(_mutants())))
def test_a_mutated_config_ends_in_an_exit_code(tmp_path_factory, mutant):
    # one mutation (wrong type, bool, NaN, 1e300, missing or extra key) at one
    # path of a test config; --samples keeps every run small
    config, path, replacement = mutant
    path_out = tmp_path_factory.getbasetemp() / "mutant.json"
    path_out.write_text(json.dumps(_mutate(config, path, replacement)), encoding="utf-8")
    assert main(["--config", str(path_out), "--samples", "6"]) in (0, 1, 2, 3)


# a dyadic complex scalar with |re|, |im| <= 1/4: the finite-difference laws
# miss by about h·|L|²/2 against a tolerance of 10·h, so larger entries fail
# them without any fault in the program
_SMALL_SCALAR = st.lists(st.integers(-2, 2).map(lambda n: n / 8), min_size=2, max_size=2)


@st.composite
def _small_generator(draw) -> dict:
    """A zd_matrix cocycle on Z^d, d <= 3, or a primitive_bilinear pairing of 2 or 3 generators."""
    if draw(st.booleans()):
        size = draw(st.integers(1, 3))
        instance = {"type": "group_algebra_zd", "d": size}
        cocycle, sampler = "zd_matrix", {"coord_bound": 1}
    else:
        size = draw(st.integers(2, 3))
        instance = {"type": "symmetric_star", "generators": [f"g{i + 1}" for i in range(size)]}
        cocycle, sampler = "primitive_bilinear", {"max_degree": 2}
    row = st.lists(_SMALL_SCALAR, min_size=size, max_size=size)
    return {
        "instance": instance,
        "cocycle": {"type": cocycle, "matrix": draw(st.lists(row, min_size=size, max_size=size))},
        "sampler": sampler,
        "seed": draw(st.integers(1, 2**31 - 1)),
        "sample_budget": 10,
    }


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_small_generator())
def test_a_small_random_generator_validates_and_deforms(raw):
    for command in ("validate", "deform"):
        report = run_config(RunConfig.from_dict({**raw, "command": command}))
        assert report.overall_pass, (command, [r.law_id for r in report.failures()])


@pytest.mark.parametrize("name", example_names())
def test_a_run_leaves_no_reference_cycle(name):
    # a memo that held its owner would keep every memo of a finished run
    # alive until the next full collection
    cfg = RunConfig.from_dict(_fast(example_config(name), samples=25))
    gc.collect()
    gc.disable()
    try:
        run_config(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_an_oscillator_deform_run_peaks_under_6_mb_traced():
    # Λ is built from the coproduct rows on each call and kept nowhere
    inst = build_instance(example_config("oscillator")["instance"])
    pair = (inst.unit, inst.unit)
    first = tuple_comul_terms(inst, pair)
    assert first and first == tuple_comul_terms(inst, pair) and first is not tuple_comul_terms(inst, pair)
    # traced peak on Python 3.11: 3.3 MB, and 13.6 MB with a table of every
    # basis pair's Λ legs; a new memo or another Python version moves it too
    cfg = RunConfig.from_dict({**_fast(example_config("oscillator"), samples=200), "command": "deform"})
    gc.collect()
    tracemalloc.start()
    try:
        run_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


def test_an_oscillator_deform_run_stores_few_convolution_powers(monkeypatch):
    # each Taylor series stops at the highest power its coproduct legs can
    # reach; the full series up to the degree stored 7,390 powers of L here
    built = []
    monkeypatch.setattr("hopfdeform.cli.build_cocycle", lambda *args: built.append(build_cocycle(*args)) or built[-1])
    cfg = RunConfig.from_dict({**_fast(example_config("oscillator"), samples=200), "command": "deform"})
    assert run_config(cfg).overall_pass
    L, = built
    assert 0 < sum(max(0, len(powers) - 2) for powers in L._powers.values()) < 7390 / 4


def test_a_huge_integer_power_ends_at_once(tmp_path):
    # 9**9**9 has 1.2e9 bits: computed exactly, it would run for many minutes
    # before overflowing, so a regression hangs this subprocess, not the suite
    config = {**_NON_COCYCLE_ON_Z, "cocycle": {"type": "grouplike_table", "expr": "9**9**9"}}
    root = Path(__file__).parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hopfdeform.cli", "--config", _write(tmp_path, config)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "[FAIL] non_finite" in proc.stdout


def test_integer_powers_keep_their_values():
    from hopfdeform.instances import compile_expression

    fn = compile_expression("2**10 - m**3 + (-2)**-2 + 2**0.5 + (10**400) / (10**399)", ["m"])
    assert fn({"m": 3}) == complex(2**10 - 3**3 + (-2) ** -2 + 2**0.5 + 10.0)


_HALF_ON_Z = {"instance": {"type": "group_algebra_zd", "d": 1},
              "cocycle": {"type": "zd_matrix", "matrix": [[0.5]]}, "command": "deform"}


@pytest.mark.parametrize("prune", [1.0, 2.0, 1e300])
def test_a_prune_threshold_of_one_or_more_is_a_config_error(prune, tmp_path, capsys):
    # at such a threshold every basis element 1·k is pruned, and this genuine cocycle would fail ∂L = 0
    assert main(["--config", _write(tmp_path, {**_HALF_ON_Z, "tolerances": {"prune": prune}})]) == 2
    assert f"tolerances prune must be in [0, 1), got {prune!r}" in capsys.readouterr().err


@pytest.mark.parametrize("prune", [0.0, 0.5, 0.999])
def test_a_prune_threshold_below_one_is_read(prune, tmp_path):
    cfg = {**_HALF_ON_Z, "command": "validate", "sample_budget": 20, "tolerances": {"prune": prune}}
    assert main(["--config", _write(tmp_path, cfg)]) == 0
