"""Front-end behaviour: exit codes, determinism, golden report, registry."""
import copy
import gc
import hashlib
import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfdeform.cli import main, run_config, report_json
from hopfdeform.config import RunConfig, build_instance
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
    ],
)
def test_exit_2_on_unknown_instance(payload, tmp_path):
    assert main(["--config", _write(tmp_path, payload)]) == 2


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
                "tabulate": [[[1e300], [1]]],
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


def _sets_run_size(config: dict, path: tuple) -> bool:
    """Budgets, sampler bounds, d and monomial exponents: a huge value there makes a huge run."""
    return (
        path in {("sample_budget",), ("instance", "d")}
        or path[:1] == ("sampler",)
        or (path[:2] == ("cocycle", "coeffs") and len(path) == 4 and path[3] < 2)
        or (path[:1] == ("tabulate",) and config["instance"]["type"] == "symmetric_star")
    )


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
            if not _sets_run_size(config, path):
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
