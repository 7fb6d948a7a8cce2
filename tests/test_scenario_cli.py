"""Scenario schema validation, builders, and the command-line front end."""

from __future__ import annotations

import ast
import copy
import json
import math
import multiprocessing
import re
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactrel import (
    GaussianMomentum,
    ParseError,
    StepSizeUnderflow,
    ValidationError,
    build_density_spec,
    build_initial_state,
    build_integrator_config,
    build_system,
    load_scenario,
    output,
    preset_scenario,
    serialize_scenario,
)
from contactrel.checks import WAVY_DIAG
from contactrel.cli import execute_ensemble, execute_single, main
from contactrel.integrators import integrate, reparametrize_by_phi, reparametrize_by_tau
from contactrel.scenario import PRESETS, run_ensemble, run_single


def _minimal(**overrides) -> dict:
    doc = {
        "metric": {"kind": "minkowski"},
        "mass": {"kind": "constant", "m0": 1.0},
        "initial": {"kind": "single", "p_spatial": [0.5, 0.0, 0.0]},
        "stop": [{"kind": "lambda_reached", "value": 1.0}],
    }
    doc.update(overrides)
    return doc


def _gas_doc(**outputs) -> dict:
    return {
        "name": "small-gas",
        "metric": {"kind": "minkowski"},
        "mass": {"kind": "exp_decay", "m0": 1.0, "alpha": 0.1},
        "initial": {
            "kind": "ensemble",
            "n": 200,
            "seed": 4,
            "momentum": {"kind": "gaussian", "mean": [0, 0, 0], "sigma": [0.2, 0.2, 0.2]},
        },
        "stop": [{"kind": "lambda_reached", "value": 1.0}],
        "outputs": {"path": "gas", "reports": 4, "snapshot_stride": 2, **outputs},
    }


# ---------------------------------------------------------------------------
# schema


def test_minimal_scenario_fills_defaults():
    cfg = load_scenario(_minimal())
    assert cfg.name == "scenario"
    assert cfg.c == 1.0
    assert cfg.initial["q0"] == [0.0, 0.0, 0.0, 0.0]
    assert cfg.initial["phi0"] == 0.0
    assert cfg.initial["allow_off_shell"] is False
    assert cfg.integrator["method"] == "rk45"
    assert cfg.integrator["rel_tol"] == 1e-10
    assert cfg.integrator["abs_tol"] == 1e-12
    assert cfg.outputs["format"] == "csv"
    assert cfg.outputs["stride"] == 1
    assert cfg.outputs["reports"] == 50
    assert cfg.outputs["reparametrize_phi"] is False


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValidationError, match="speed"):
        load_scenario(_minimal(speed=3.0))


def test_unknown_nested_key_rejected():
    with pytest.raises(ValidationError, match="integrator.step"):
        load_scenario(_minimal(integrator={"step": 0.1}))


def test_missing_point_mass_strength_rejected():
    doc = _minimal(metric={"kind": "weak_field", "potential": {"kind": "point_mass"}})
    with pytest.raises(ValidationError, match="potential.GM"):
        load_scenario(doc)


def test_zero_rest_mass_in_decay_law_rejected():
    with pytest.raises(ValidationError, match="mass.m0"):
        load_scenario(_minimal(mass={"kind": "exp_decay", "m0": 0.0, "alpha": 0.1}))


def test_negative_decay_rate_is_allowed():
    cfg = load_scenario(_minimal(mass={"kind": "exp_decay", "m0": 1.0, "alpha": -0.1}))
    assert cfg.mass["alpha"] == -0.1


def _expression_doc(entry: str) -> dict:
    return _minimal(metric={"kind": "expression", "diag": ["-1", "1", "1", entry]})


@pytest.mark.parametrize("entry", [
    "().__class__.__base__.__subclasses__().__len__()*0+1",  # attribute walk
    "1+0*2**1100",  # literals are floats, so this overflows instead of giving 1
    "1+0*9**9**9",  # as integers, a power that would never end
    "sin(x1, x2)",  # a ufunc's second argument is its output array
    "abs(x1, out=x1)",
    "pi(1)",
    "sin + 1",
    "x1[0]",
    "True",
    "'1'",
])
def test_expression_outside_the_grammar_is_rejected_fast(entry):
    t0 = time.perf_counter()
    with pytest.raises(ValidationError, match=re.escape("metric.diag[3]")):
        load_scenario(_expression_doc(entry))
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("entry", [
    "*".join(["x1"] * 400),  # its derivative nests deeper than the compiler allows
    "sin(" * 200 + "x1" + ")" * 200,  # its derivative grows with the square of the depth
])
def test_differentiating_an_entry_is_bounded(entry):
    t0 = time.perf_counter()
    try:
        load_scenario(_expression_doc(entry))
    except ValidationError as exc:
        assert exc.field == "metric.diag[3]"
        assert exc.reason.startswith("invalid expression: ValueError")
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("entry, error", [
    ("-1 + x1/(2-2)", "NonFiniteDerivative"),  # d/dx1 divides two literals by zero
    ("-(1 + x1*(-8)**(1/3))", "NonFiniteMetric"),  # complex, not real
])
def test_entry_without_a_real_value_is_rejected(entry, error):
    doc = _minimal(metric={"kind": "expression", "diag": [entry, "1", "1", "1"]})
    with pytest.raises(ValidationError) as exc, np.errstate(all="ignore"):
        load_scenario(doc)
    assert exc.value.field == "metric.diag[0]"
    assert exc.value.reason.startswith(f"invalid expression: {error}")


def test_every_documented_expression_loads():
    for entry in ["-(1 + 0.1*sin(x1))",  # the README example
                  "-(1 + 0.1*sin(0.7*x1 + 0.5*phi))", "1 + 0.1*cos(0.7*x2)",
                  "-(1 + 0.2*sin(x1 + 0.5*phi))", "1 + 0.1*x2**2", "-1e308",
                  "+exp(-x3**2/2)*sqrt(abs(tanh(x0))+pi)/log(e+2)",
                  "1 + 0.1*sign(x1)*x1**2"]:
        cfg = load_scenario(_expression_doc(entry))
        assert cfg.metric["diag"][3] == entry


# the entry grammar, written out independently of geometry.py
_GRAMMAR_NODES = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Call, ast.BinOp, ast.UnaryOp,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub,
)
_GRAMMAR_VALUES = {"x0", "x1", "x2", "x3", "phi", "pi", "e"}
_GRAMMAR_FUNCTIONS = {"sin", "cos", "tan", "exp", "log", "sqrt", "tanh", "abs", "sign"}
_FUZZ_TOKENS = [
    "x0", "x1", "phi", "pi", "e", "sin", "abs", "exp", "1", "2.5", "9", "0",
    "(", ")", ",", "+", "-", "*", "/", "**", " ",
    ".", "[", "]", ":", "=", "'os'", "lambda", "__class__", "__import__",
    "__subclasses__", "__builtins__", "getattr", "True",
]
# nested templates reach well-formed expressions far more often than a flat
# token string; str.format ignores the second operand of one-operand forms
_FUZZ_TEMPLATES = [
    "({}+{})", "({}-{})", "({}*{})", "({}/{})", "({}**{})", "-{}", "sin({})", "exp({})",
    "abs({}, {})", "{}.__class__", "{}[{}]", "(lambda: {})", "__import__({})",
]
_FUZZ_ENTRIES = st.one_of(
    st.lists(st.sampled_from(_FUZZ_TOKENS), min_size=1, max_size=12).map("".join),
    st.recursive(
        st.sampled_from(_FUZZ_TOKENS[:12] + ["()", "'os'", "__class__", "True"]),
        lambda inner: st.builds(str.format, st.sampled_from(_FUZZ_TEMPLATES), inner, inner),
        max_leaves=8,
    ),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_FUZZ_ENTRIES)
def test_expression_loader_fuzz(entry):
    with np.errstate(all="ignore"):
        try:
            load_scenario(_expression_doc(entry))
        except ValidationError as exc:
            assert exc.field == "metric.diag[3]"
            # outside the grammar, the refusal comes before any evaluation
            assert _in_grammar(entry) or exc.reason.startswith("invalid expression: ValueError")
            return
    assert _in_grammar(entry)


def _in_grammar(entry: str) -> bool:
    try:
        tree = ast.parse(entry, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError):
        return False
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    callees = {id(c.func) for c in calls}
    return all(
        isinstance(node, _GRAMMAR_NODES)
        and (not isinstance(node, ast.Name)
             or node.id in (_GRAMMAR_FUNCTIONS if id(node) in callees else _GRAMMAR_VALUES))
        and (not isinstance(node, ast.Constant) or type(node.value) in (int, float))
        for node in ast.walk(tree)
    ) and all(isinstance(c.func, ast.Name) and len(c.args) == 1 and not c.keywords
              for c in calls)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        load_scenario('{\n  "metric": }')
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_non_object_document_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValidationError, match="must be a JSON object"):
        load_scenario(path)


def test_momentum_input_must_be_exactly_one():
    init = {"kind": "single", "p_spatial": [0.5, 0, 0], "v": [0.5, 0, 0]}
    with pytest.raises(ValidationError, match="exactly one"):
        load_scenario(_minimal(initial=init))
    with pytest.raises(ValidationError, match="exactly one"):
        load_scenario(_minimal(initial={"kind": "single"}))


def test_off_shell_momentum_needs_explicit_flag():
    init = {"kind": "single", "p": [-2.0, 0.0, 0.0, 0.0]}
    cfg = load_scenario(_minimal(initial=init))
    sys = build_system(cfg)
    with pytest.raises(ValidationError, match="off the mass shell"):
        build_initial_state(cfg, sys)
    cfg2 = load_scenario(_minimal(initial={**init, "allow_off_shell": True}))
    s = build_initial_state(cfg2, build_system(cfg2))
    assert s.p[0] == -2.0


def test_ensemble_rejects_non_lambda_stops():
    doc = _gas_doc()
    doc["stop"] = [{"kind": "tau_reached", "value": 1.0}]
    with pytest.raises(ValidationError, match="lambda_reached"):
        load_scenario(doc)


def test_ensemble_rejects_reparametrized_companions():
    with pytest.raises(ValidationError, match="single runs"):
        load_scenario(_gas_doc(reparametrize_tau=True))


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"stop": [{"kind": "tau_reached", "value": 1.0}]}, "tau"),
        ({"stop": [{"kind": "mass_floor", "value": 0.5}]}, "mass_floor"),
        ({"integrator": {"shell_projection": 5}}, "shell_projection"),
        ({"outputs": {"reparametrize_tau": True}}, "reparametrize_tau"),
    ],
)
def test_massless_scenarios_reject_mass_dependent_features(patch, field):
    doc = _minimal(mass={"kind": "zero"})
    doc["initial"]["p_spatial"] = [1.0, 0.0, 0.0]
    doc.update(patch)
    with pytest.raises(ValidationError, match=field):
        load_scenario(doc)


@pytest.mark.parametrize("value", [0.0, -1.0])
@pytest.mark.parametrize("kind", ["massive", "massless", "ensemble"])
def test_lambda_reached_must_be_positive(kind, value, tmp_path, capsys):
    # at 0 and below, a run used to fail on a misleading error, crash, or go
    # backward in lambda
    doc = _gas_doc() if kind == "ensemble" else _minimal()
    if kind == "massless":
        doc.update(mass={"kind": "zero"}, initial={"kind": "single", "p_spatial": [1.0, 0, 0]})
    doc["stop"][0]["value"] = value
    with pytest.raises(ValidationError, match=re.escape("stop[0].value")):
        load_scenario(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    command = "ensemble" if kind == "ensemble" else "run"
    assert main([command, str(path), "--out-dir", str(tmp_path)]) == 2
    assert "must be > 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_load_from_file_and_missing_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_minimal()))
    assert load_scenario(path).kind == "single"
    assert load_scenario(str(path)).kind == "single"
    with pytest.raises(ParseError, match="cannot read"):
        load_scenario(str(tmp_path / "nope.json"))


def test_serialization_round_trips_every_preset():
    for name in PRESETS:
        cfg = preset_scenario(name)
        assert load_scenario(serialize_scenario(cfg)) == cfg


def _holder(doc, path):
    """The object or list inside doc that holds path's last key, and that key."""
    *parents, key = path
    for k in parents:
        doc = doc[k]
    return doc, key


@pytest.mark.parametrize("path, value, field", [
    (("integrator",), {"abs_tol": 0.0}, "integrator.abs_tol"),
    (("integrator",), {"rel_tol": -1.0}, "integrator.rel_tol"),
    (("initial", "phi_halfwidth"), -0.1, "initial.phi_halfwidth"),
    (("initial", "q_halfwidth"), [0.0, -1.0, 0.0, 0.0], "initial.q_halfwidth[1]"),
    (("initial", "momentum", "sigma"), [0.2, 0.0, 0.2], "initial.momentum.sigma[1]"),
    (("initial", "momentum"), {"kind": "uniform", "center": [0, 0, 0], "halfwidth": [1, 1, -1]},
     "initial.momentum.halfwidth[2]"),
    (("stop", 0), {"kind": "coordinate_bound", "value": 1.0, "axis": 4}, "stop[0].axis"),
])
def test_errors_name_the_field_or_element_they_check(path, value, field):
    doc = _gas_doc()
    target, key = _holder(doc, path)
    target[key] = value
    with pytest.raises(ValidationError) as exc:
        load_scenario(doc)
    assert exc.value.field == field


@pytest.mark.parametrize("mass, c, field", [
    ({"kind": "exp_decay", "m0": 1, "alpha": 1000, "tau0": 1}, 1.0, "mass.tau0"),  # overflows
    ({"kind": "exp_decay", "m0": 1, "alpha": -1000, "tau0": 1}, 1.0, "mass.tau0"),  # is 0
    ({"kind": "exp_decay", "m0": 1e300, "alpha": 100, "tau0": 1}, 1.0, "mass.tau0"),  # is inf
    ({"kind": "exp_decay", "m0": 1, "alpha": 0.1}, 1e-200, "c"),  # alpha / c^2 overflows
])
def test_decay_law_that_cannot_be_built_is_refused(mass, c, field, tmp_path, capsys):
    # build_system cannot make these laws: refused at load, not by a traceback
    doc = _minimal(mass=mass, c=c)
    with pytest.raises(ValidationError) as exc:
        load_scenario(doc)
    assert exc.value.field == field
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
    assert f"{field}:" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("patch", [
    {"c": 1e200, "metric": {"kind": "weak_field", "potential": {"kind": "point_mass", "GM": 1.0}}},
    {"c": 1e200, "mass": {"kind": "exp_decay", "m0": 1.0, "alpha": 0.1}},
    {"metric": {"kind": "weak_field",
                "potential": {"kind": "point_mass", "GM": 1.0, "softening": 1e200}}},
])
def test_extreme_constants_that_load_also_build(patch):
    # c^2 and softening^2 beyond the float range are inf, not an OverflowError
    build_system(load_scenario(_minimal(**patch)))


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.mark.parametrize("mass, c, floor", [
    ({"kind": "constant", "m0": 1.0}, 1.0, 0.5),
    ({"kind": "exp_decay", "m0": 1.0, "alpha": 0.0}, 1.0, 0.5),
    ({"kind": "exp_decay", "m0": 1.0, "alpha": 0.1}, 1e200, 0.5),  # alpha / c^2 = 0.1 / inf
    ({"kind": "exp_decay", "m0": 1.0, "alpha": -0.1}, 1.0, 0.5),  # grows away from the floor
    ({"kind": "exp_decay", "m0": 1.0, "alpha": 0.1}, 1.0, 2.0),  # falls away from it
    ({"kind": "exp_decay", "m0": 1.0, "alpha": 0.1}, 1.0, 0.0),
    ({"kind": "exp_decay", "m0": 1.0, "alpha": 0.1}, 1.0, -1.0),
], ids=["constant", "alpha-0", "c-squared-inf", "growing-mass-floor-below",
        "falling-mass-floor-above", "floor-0", "floor-negative"])
def test_lone_mass_floor_of_a_mass_of_slope_0_is_refused(mass, c, floor, tmp_path, capsys):
    # on the shell phi falls, so the mass moves one way only; a floor behind
    # it or at or below 0 is never reached, and such a run had no usable stop:
    # it ended in a traceback or with the wrong advice to add a mass_floor.
    # Beside another stop the floor still loads
    doc = _minimal(mass=mass, c=c, stop=[{"kind": "mass_floor", "value": floor}])
    doc["initial"]["p_spatial"] = [0.3, 0.0, 0.0]
    with pytest.raises(ValidationError) as exc:
        load_scenario(doc)
    assert exc.value.field == "stop"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "stop: no mass_floor is reachable" in _one_error_line(capsys)
    assert sorted(tmp_path.iterdir()) == [path]
    doc["stop"].append({"kind": "lambda_reached", "value": 1.0})
    assert load_scenario(doc).stop[0]["kind"] == "mass_floor"


@pytest.mark.parametrize("alpha, floor", [(0.1, 0.5), (-0.1, 2.0)])
def test_lone_mass_floor_the_mass_moves_toward_ends_the_run(alpha, floor):
    doc = _minimal(mass={"kind": "exp_decay", "m0": 1.0, "alpha": alpha},
                   stop=[{"kind": "mass_floor", "value": floor}])
    doc["initial"]["p_spatial"] = [0.3, 0.0, 0.0]
    traj = run_single(load_scenario(doc))
    assert traj.metadata["termination"]["reason"] == "mass_floor"
    # off the shell phi may rise, so only a slope of 0 refuses a lone floor there
    doc["mass"]["alpha"] = -alpha
    doc["initial"] = {"kind": "single", "p": [-1.0, 0.0, 0.0, 0.0], "allow_off_shell": True}
    assert load_scenario(doc).stop[0]["value"] == floor


@pytest.mark.parametrize("min_step", [0, -1.0])
def test_non_positive_min_step_is_refused(min_step, tmp_path, capsys):
    # with min_step 0 a run whose steps are all rejected shrank h to 0 and
    # retried forever
    doc = _minimal(integrator={"min_step": min_step})
    with pytest.raises(ValidationError) as exc:
        load_scenario(doc)
    assert exc.value.field == "integrator.min_step"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "integrator.min_step: must be > 0" in _one_error_line(capsys)
    assert sorted(tmp_path.iterdir()) == [path]


def test_start_whose_shell_residual_is_nan_is_off_the_shell(tmp_path, capsys):
    # g p p of these finite momenta is -inf + inf = nan, which no tolerance
    # accepts; the state used to pass as on the shell and fail inside the run
    doc = _minimal(initial={"kind": "single", "p": [-1e200, 1e200, 0.0, 0.0]})
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "off the mass shell (residual nan)" in _one_error_line(capsys)
    assert sorted(tmp_path.iterdir()) == [path]


def test_negative_seed_is_refused_at_load(tmp_path, capsys):
    doc = _gas_doc()
    doc["initial"]["seed"] = -1
    with pytest.raises(ValidationError) as exc:
        load_scenario(doc)
    assert exc.value.field == "initial.seed"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["ensemble", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "initial.seed:" in _one_error_line(capsys)
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("entry, reason", [
    ("1/x1", "not finite at the origin"),  # numpy warns as it divides by zero
    ("sqrt(x1)", "not finite at the origin"),  # in its derivative
    ("1e308*10", "not finite at the origin"),  # float arithmetic gives inf in silence
])
def test_entry_verdict_does_not_depend_on_the_warnings_filter(entry, reason):
    doc = _minimal(metric={"kind": "expression", "diag": ["-1", entry, "1", "1"]})
    messages = set()
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(ValidationError) as exc:
                load_scenario(doc)
        assert exc.value.field == "metric.diag[1]"
        messages.add(str(exc.value))
    assert len(messages) == 1 and reason in messages.pop()


@pytest.mark.parametrize("initial", [
    {"kind": "single", "p_spatial": [0.5, 0.0, 0.0]},
    {"kind": "single", "v": [0.3, 0.0, 0.0]},
    _gas_doc()["initial"],
])
def test_huge_c_ends_in_a_named_error(initial, tmp_path, capsys):
    # c = 1e200 loads and builds, but no initial momentum has a finite (m c)^2
    doc = _gas_doc() if initial["kind"] == "ensemble" else _minimal()
    doc.update(c=1e200, initial=initial)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    command = "ensemble" if initial["kind"] == "ensemble" else "run"
    assert main([command, str(path), "--out-dir", str(tmp_path)]) == 2
    assert "c = 1e+200 with m = 1 is too large" in _one_error_line(capsys)
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("action", ["default", "error"])
@pytest.mark.parametrize("c", [1e100, 1e150])
@pytest.mark.parametrize("initial", [
    {"kind": "single", "p_spatial": [0.5, 0.0, 0.0]},
    {"kind": "single", "v": [0.3, 0.0, 0.0]},
], ids=["p_spatial", "v"])
def test_huge_c_within_the_scale_check_ends_in_a_named_error(
        initial, c, action, tmp_path, capsys):
    # (m c)^2 is finite, but the field's scaled norm overflows and the first
    # step size underflows to 0; the verdict must not hang on the warnings filter
    doc = _minimal(c=c, initial=initial)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "the first step size underflowed to 0" in _one_error_line(capsys)
        with pytest.raises(StepSizeUnderflow):
            execute_single(load_scenario(doc), str(tmp_path))
    assert sorted(tmp_path.iterdir()) == [path]


def _huge_c_gas(**outputs) -> dict:
    """A 10-marker gas whose field overflows: its first step size underflows."""
    doc = _gas_doc(**outputs)
    doc.update(c=6e153, mass={"kind": "constant", "m0": 1.0})
    doc["initial"]["n"] = 10
    return doc


@pytest.mark.parametrize("action", ["default", "error"])
def test_huge_c_ensemble_ends_in_a_named_error(action, tmp_path, capsys):
    # a marker block is seeded by the same first-step rule as a single run, so
    # its overflowing field ends in StepSizeUnderflow, not in a traceback; the
    # snapshot of report 0, written before the first step, is removed again,
    # and so is the out dir made for it
    doc = _huge_c_gas()
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        assert main(["ensemble", str(path), "--out-dir", str(out)]) == 2
        assert "the first step size underflowed to 0" in _one_error_line(capsys)
        assert not out.exists()
        with pytest.raises(StepSizeUnderflow):
            execute_ensemble(load_scenario(doc), str(out))
        assert not out.exists()


@pytest.mark.parametrize("initial", [
    {"kind": "single", "p_spatial": [0.3, 0.0, 0.0]},
    {"kind": "single", "p": [-0.8, 0.6, 0.0, 0.0]},  # on the shell of g = diag(-1, -1, 1, 1)
    {"kind": "single", "v": [0.3, 0.0, 0.0]},
    {**_gas_doc()["initial"], "n": 10},
], ids=["p_spatial", "p", "v", "ensemble"])
def test_start_off_the_signature_ends_in_a_named_error(initial, tmp_path, capsys):
    # g^{11} < 0 at the start: whichever form gives the momentum, the start
    # state (every sampled marker of an ensemble) is refused before any file
    doc = _gas_doc() if initial["kind"] == "ensemble" else _minimal()
    doc.update(metric={"kind": "expression", "diag": ["-1", "-1", "1", "1"]},
               mass={"kind": "constant", "m0": 1.0}, initial=initial)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    command = "ensemble" if initial["kind"] == "ensemble" else "run"
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "does not have signature (-,+,+,+)" in _one_error_line(capsys)
    assert sorted(tmp_path.iterdir()) == [path]


# g^{11} = 1 + phi/2 changes sign at phi = -2; on the shell a unit mass has
# dphi/dlambda = -1, so a run from phi = 0 crosses it at lambda = 2
_LEAVING_METRIC = {"kind": "expression", "diag": ["-1", "1 + 0.5*phi", "1", "1"]}


def _leaving_run(stop) -> dict:
    return _minimal(metric=_LEAVING_METRIC, stop=[stop],
                    initial={"kind": "single", "p_spatial": [0.3, 0.0, 0.0]})


@pytest.mark.parametrize("action", ["default", "error"])
def test_run_that_leaves_the_signature_ends_in_a_named_error(action, tmp_path, capsys):
    # the flow tests no sign, but every recorded sample is read through the
    # checked diagonal, so the run is refused before any file is written
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_leaving_run({"kind": "lambda_reached", "value": 5.0})))
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "does not have signature (-,+,+,+)" in _one_error_line(capsys)
    assert sorted(tmp_path.iterdir()) == [path]


def test_run_that_stops_short_of_the_signature_change_writes_its_table(tmp_path, capsys):
    # its accepted states stay in (-,+,+,+), but trial stages of its last
    # steps reach past phi = -2: a sign test on the flow's field would end it
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_leaving_run({"kind": "phi_reached", "value": -1.9})))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert "termination: phi_reached" in capsys.readouterr().out
    assert [f.name for f in (tmp_path / "out").iterdir()] == ["run_output.csv"]


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
def test_gas_that_leaves_the_signature_leaves_no_table(forked, tmp_path, monkeypatch, capsys):
    # every marker starts in (-,+,+,+) and ends past phi = -2: the end state
    # is refused while the run's tables are still open, which removes them
    _snapshots_here(monkeypatch, forked)
    doc = _gas_doc()
    doc.update(metric=_LEAVING_METRIC, mass={"kind": "constant", "m0": 1.0},
               stop=[{"kind": "lambda_reached", "value": 5.0}])
    doc["initial"].update(n=20, seed=1, momentum={
        "kind": "gaussian", "mean": [0.3, 0.0, 0.0], "sigma": [0.1, 0.1, 0.1]})
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["ensemble", str(path), "--out-dir", str(tmp_path / "out" / "a")]) == 2
    assert "does not have signature (-,+,+,+)" in _one_error_line(capsys)
    assert multiprocessing.active_children() == []
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("out_dir, outputs_path", [
    ("fresh/a/b", "gas"),    # --out-dir and its parents are new
    ("old", "sub/dir/gas"),  # outputs.path adds directories under an existing out dir
], ids=["out-dir", "outputs-path"])
def test_failed_run_removes_the_directories_it_made(out_dir, outputs_path, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_huge_c_gas(path=outputs_path)))
    (tmp_path / "old").mkdir()
    assert main(["ensemble", str(path), "--out-dir", str(tmp_path / out_dir)]) == 2
    assert "the first step size underflowed to 0" in _one_error_line(capsys)
    assert sorted(tmp_path.iterdir()) == [tmp_path / "old", path]
    assert list((tmp_path / "old").iterdir()) == []


def _snapshots_here(monkeypatch, forked: bool) -> list:
    """Snapshot names this process writes itself: none when a writer process
    is started, whatever the host's CPU count, and all with no fork."""
    here, real = [], output._write_snapshot

    def spy(path, rows, fmt_style):
        here.append(Path(path).name)
        return real(path, rows, fmt_style)

    monkeypatch.setattr(output, "_write_snapshot", spy)
    if forked:
        monkeypatch.setattr(output, "_usable_cpus", lambda: 2.0)
    else:
        monkeypatch.setattr(output, "_fork_context", lambda: None)
    return here


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
def test_failed_series_write_removes_the_snapshots(forked, tmp_path, monkeypatch):
    # the series is written once the last snapshot is complete; its failure
    # removes the snapshots and leaves with the series write's own error
    here = _snapshots_here(monkeypatch, forked)
    blocked = tmp_path / "gas_series.csv"
    blocked.mkdir()
    with pytest.raises(IsADirectoryError) as raised:
        execute_ensemble(load_scenario(_gas_doc()), str(tmp_path))
    assert str(raised.value.filename) == str(blocked)
    assert raised.value.__context__ is None
    assert multiprocessing.active_children() == []
    assert here == ([] if forked else [f"gas_snapshot_{k:04d}.csv" for k in (0, 2, 4)])
    assert list(tmp_path.iterdir()) == [blocked]


def test_failed_companion_write_removes_the_trajectory(tmp_path):
    blocked = tmp_path / "decay_flat_tau.csv"
    blocked.mkdir()
    with pytest.raises(IsADirectoryError) as raised:
        execute_single(preset_scenario("decay-flat"), str(tmp_path))
    assert str(raised.value.filename) == str(blocked)
    assert list(tmp_path.iterdir()) == [blocked]


@pytest.mark.parametrize("command, blocked, forked", [
    ("run", "decay_flat_tau.csv", None),
    *[("ensemble", name, forked)
      for name in ["gas_series.csv", "gas_snapshot_0000.csv", "gas_snapshot_0004.csv"]
      for forked in [True, False]],
])
def test_unwritable_output_ends_in_one_error_line(
        command, blocked, forked, tmp_path, monkeypatch, capsys):
    # not a traceback, and not exit 1, which is a failed verification's code
    if forked is not None:
        _snapshots_here(monkeypatch, forked)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    if command == "run":
        argv = ["run", "--preset", "decay-flat"]
    else:
        path = tmp_path / "gas.json"
        path.write_text(json.dumps(_gas_doc()))
        argv = ["ensemble", str(path)]
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert str(out / blocked) in _one_error_line(capsys)
    assert multiprocessing.active_children() == []
    assert list(out.iterdir()) == [out / blocked]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["zero", "exp_decay", "weak_field", "ensemble", "uniform", "rk4",
                       "coordinate_bound", "jsonl"]),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)


def _paths(doc, here=()):
    """Every key and list index path inside a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else [])
    return [p for k, v in items for p in (here + (k,), *_paths(v, here + (k,)))]


@st.composite
def _fuzzed_documents(draw):
    """A preset's document, as written or with every default filled, changed at one path."""
    name = draw(st.sampled_from(sorted(PRESETS)))
    doc = draw(st.sampled_from([PRESETS[name][1](),
                                json.loads(serialize_scenario(preset_scenario(name)))]))
    target, key = _holder(doc, draw(st.sampled_from(_paths(doc))))
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        target[key] = draw(_JSON_VALUES)
    elif action == "delete":
        del target[key]
    else:
        target = target[key] if isinstance(target[key], dict) else target
        if isinstance(target, list):
            target = doc
        target["unknown_" + draw(st.text(max_size=4))] = draw(_JSON_VALUES)
    return action, doc


@settings(derandomize=True, deadline=None, max_examples=600)
@given(_fuzzed_documents())
def test_loader_fuzz_accepts_only_what_builds(case):
    action, doc = case
    try:
        cfg = load_scenario(doc)
    except ValidationError as exc:
        assert action != "add" or exc.reason == "unknown key"
        return
    assert action != "add"
    assert load_scenario(serialize_scenario(cfg)) == cfg
    build_system(cfg)
    build_integrator_config(cfg)
    if cfg.kind == "ensemble":
        build_density_spec(cfg)


# ---------------------------------------------------------------------------
# preset checks


def _preset_run(cfg, tmp_path, n=500):
    """The run a preset's check reads; ensembles are cut to n markers."""
    if cfg.kind == "single":
        return execute_single(cfg, str(tmp_path))[0]
    return run_ensemble(replace(cfg, initial={**cfg.initial, "n": n}))[2]


def _shift(arr, index, delta):
    arr[index] += delta


# Each edit moves the preset's measured value just past its tolerance.
_PAST_TOLERANCE = {
    "special-relativity-free": lambda t: _shift(t.q, (-1, 1), 2e-10),
    "newtonian-orbit": lambda t: _shift(t.q, (-1, 1), 2e-3),
    "photon-null": lambda t: _shift(t.phi, -1, 2e-12),
    "decay-flat": lambda t: _shift(t.tau, -1, 2e-7),  # law moves by alpha * 2e-7
    "decay-gas": lambda r: _shift(r, (-1, 3), 2e-6 * abs(r[-1, 3])),
    "absorbing-gas": lambda r: _shift(r, (-1, 2), r[-2, 2] - r[-1, 2]),
    "photon-gas": lambda r: _shift(r, (-1, 2), 2e-12),
}


@pytest.mark.parametrize("name", list(PRESETS))
def test_preset_check_passes_its_run_and_fails_past_tolerance(name, tmp_path):
    cfg = preset_scenario(name)
    check = PRESETS[name][2]
    run = _preset_run(cfg, tmp_path)
    measured, tol, passed, detail = check(cfg, run)
    assert passed, detail

    bad = copy.deepcopy(run)
    _PAST_TOLERANCE[name](bad)
    measured_bad, tol_bad, passed_bad, _ = check(cfg, bad)
    assert tol_bad == tol
    assert not passed_bad
    assert measured_bad != measured


@pytest.mark.parametrize("name", ["decay-flat", "decay-gas"])
def test_decay_preset_checks_read_alpha_from_the_config(name, tmp_path):
    # a literal alpha = 0.1 would miss the decay-flat law by about 0.15
    cfg = preset_scenario(name)
    cfg = replace(cfg, mass={**cfg.mass, "alpha": 0.2})
    measured, tol, passed, detail = PRESETS[name][2](cfg, _preset_run(cfg, tmp_path))
    assert passed, (measured, tol, detail)


# ---------------------------------------------------------------------------
# builders


def test_build_initial_state_from_velocity():
    doc = _minimal(initial={"kind": "single", "v": [0.6, 0.0, 0.0]})
    cfg = load_scenario(doc)
    s = build_initial_state(cfg, build_system(cfg))
    assert s.p[0] == pytest.approx(-1.25, abs=1e-14)
    assert s.p[1] == pytest.approx(0.75, abs=1e-14)


def test_build_density_spec_maps_fields():
    cfg = load_scenario(_gas_doc())
    spec = build_density_spec(cfg)
    assert isinstance(spec.momentum, GaussianMomentum)
    assert spec.momentum.sigma == (0.2, 0.2, 0.2)
    assert spec.q_center == (0.0, 0.0, 0.0, 0.0)
    assert spec.phi_halfwidth == 0.0


def test_build_density_spec_rejects_single_kind():
    cfg = load_scenario(_minimal())
    with pytest.raises(ValidationError):
        build_density_spec(cfg)


def test_build_integrator_config_translates_stops():
    doc = _minimal(
        integrator={"method": "rk4", "fixed_step": 0.01},
        stop=[
            {"kind": "lambda_reached", "value": 2.0},
            {"kind": "coordinate_bound", "value": 1.5, "axis": 1},
        ],
    )
    cfg = load_scenario(doc)
    ic = build_integrator_config(cfg)
    assert ic.method == "rk4"
    assert ic.fixed_step == 0.01
    assert ic.max_step == math.inf
    kinds = {(s.kind, s.value, s.axis) for s in ic.stop}
    assert kinds == {("lambda_reached", 2.0, 0), ("coordinate_bound", 1.5, 1)}


# ---------------------------------------------------------------------------
# command line


def test_cli_presets_lists_every_name(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_cli_run_preset_writes_companions(tmp_path, capsys):
    assert main(["run", "--preset", "decay-flat", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "lambda_reached" in out
    names = {p.name for p in tmp_path.iterdir()}
    assert "decay_flat.csv" in names
    assert "decay_flat_tau.csv" in names
    header = (tmp_path / "decay_flat.csv").read_text().splitlines()[0]
    assert header == (
        "lambda,q0,q1,q2,q3,p0,p1,p2,p3,phi,H,tau,shell_residual"
    )


@pytest.mark.parametrize(
    "name", [name for name in PRESETS if preset_scenario(name).kind == "single"])
def test_cli_run_preset_writes_one_row_per_sample(name, tmp_path, capsys):
    # verify checks these presets without writing, so their tables are pinned
    # here: each holds its run's rows, first column named by the parameter
    cfg = preset_scenario(name)
    assert main(["run", "--preset", name, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    sys_ = build_system(cfg)
    traj = integrate(sys_, build_initial_state(cfg, sys_), build_integrator_config(cfg))
    base = cfg.outputs["path"]
    tables = {f"{base}.csv": traj}
    if cfg.outputs["reparametrize_phi"]:
        tables[f"{base}_phi.csv"] = reparametrize_by_phi(traj)
    if cfg.outputs["reparametrize_tau"]:
        tables[f"{base}_tau.csv"] = reparametrize_by_tau(traj)
    assert len(tables) == (2 if name == "decay-flat" else 1)
    assert {p.name for p in tmp_path.iterdir()} == set(tables)
    for fname, run in tables.items():
        text = (tmp_path / fname).read_text()
        assert text.split(",", 1)[0] == run.parameter
        rows = np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)
        expected = np.column_stack(
            [run.lam, run.q, run.p, run.phi, run.ham, run.tau, run.shell])
        np.testing.assert_array_equal(rows, expected[::cfg.outputs["stride"]])


def test_cli_run_scenario_file_jsonl(tmp_path, capsys):
    doc = _minimal()
    doc["outputs"] = {"path": "traj", "format": "jsonl"}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "traj.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    assert first["lambda"] == 0.0
    assert first["p0"] == pytest.approx(-math.sqrt(1.25))
    capsys.readouterr()


def test_cli_requires_exactly_one_source(tmp_path, capsys):
    assert main(["run"]) == 2
    assert main(["run", "x.json", "--preset", "decay-flat"]) == 2
    assert main(["run", "--preset", "no-such-preset"]) == 2
    capsys.readouterr()


def test_cli_kind_guards(tmp_path, capsys):
    # ensemble preset under `run`, single preset under `ensemble`
    assert main(["run", "--preset", "decay-gas", "--out-dir", str(tmp_path)]) == 2
    assert main(["ensemble", "--preset", "decay-flat", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_ensemble_outputs_and_determinism(tmp_path, capsys):
    path = tmp_path / "gas.json"
    path.write_text(json.dumps(_gas_doc()))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["ensemble", str(path), "--out-dir", str(dir_a)]) == 0
    assert main(["ensemble", str(path), "--out-dir", str(dir_b)]) == 0
    capsys.readouterr()

    names = {p.name for p in dir_a.iterdir()}
    # reports=4, snapshot_stride=2 -> snapshots at report indices 0, 2, 4
    assert names == {
        "gas_series.csv",
        "gas_snapshot_0000.csv",
        "gas_snapshot_0002.csv",
        "gas_snapshot_0004.csv",
    }
    for name in sorted(names):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    series = (dir_a / "gas_series.csv").read_text().splitlines()
    assert series[0] == "lambda,total_weight,entropy,entropy_rate_analytic"
    assert len(series) == 6  # header + reports + 1


def test_ensemble_report_counts_rejected_steps(tmp_path):
    # on the wavy metric the step-size controller overshoots and retries (2
    # rejected steps at rel_tol 1e-6, 1e-7 and 1e-8); the report carries the
    # counts of the one stepping loop behind the series
    doc = _gas_doc(reports=2)
    doc["metric"] = {"kind": "expression", "diag": list(WAVY_DIAG)}
    doc["mass"] = {"kind": "constant", "m0": 1.0}
    doc["stop"] = [{"kind": "lambda_reached", "value": 10.0}]
    doc["integrator"] = {"rel_tol": 1e-7, "abs_tol": 1e-9}
    cfg = load_scenario(doc)
    stats = run_ensemble(cfg)[3]
    rows, report = execute_ensemble(cfg, str(tmp_path))
    assert report.steps_rejected == stats["steps_rejected"] >= 1
    assert report.steps == stats["steps_accepted"]


def test_cli_ensemble_csv_jsonl_parity(tmp_path, capsys):
    for fmt in ("csv", "jsonl"):
        doc = _gas_doc(format=fmt)
        p = tmp_path / f"gas_{fmt}.json"
        p.write_text(json.dumps(doc))
        assert main(["ensemble", str(p), "--out-dir", str(tmp_path / fmt)]) == 0
    capsys.readouterr()

    csv_lines = (tmp_path / "csv" / "gas_series.csv").read_text().splitlines()
    jsonl_lines = (tmp_path / "jsonl" / "gas_series.jsonl").read_text().splitlines()
    header = csv_lines[0].split(",")
    assert len(csv_lines) - 1 == len(jsonl_lines)
    for row, line in zip(csv_lines[1:], jsonl_lines):
        rec = json.loads(line)
        for key, cell in zip(header, row.split(",")):
            assert float(cell) == rec[key]


def test_cli_verify_json_with_perturbation(capsys):
    # One full battery pass in-process; the deliberate field perturbation must
    # be caught by the divergence identity and nothing else.
    code = main(["verify", "--json", "--perturb-divergence"])
    out = capsys.readouterr().out
    assert code == 1
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    by_name = {r["name"]: r for r in records}
    assert len(by_name) == 12
    assert by_name["divergence-identity"]["passed"] is False
    for name, rec in by_name.items():
        if name != "divergence-identity":
            assert rec["passed"] is True, name


def test_cli_reports_parse_errors_as_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_gas_preset_reuses_battery_run(monkeypatch):
    # A preset record checks the run that a battery check read through
    # _preset_run, so it must not step its preset a second time: a gas run
    # as entropy-decay reads it, and photon-behavior's photon-null run.
    from contactrel import checks, kinetic

    checks._preset_outcome.cache_clear()
    checks._preset_run("photon-gas")
    assert checks._check_record(False, "photon-behavior").passed

    def refuse(*args, **kwargs):
        raise AssertionError("preset integrated twice")

    monkeypatch.setattr(kinetic, "ensemble_series", refuse)
    monkeypatch.setattr(checks, "run_ensemble", refuse)
    monkeypatch.setattr(checks, "run_single", refuse)
    for preset in ("photon-gas", "photon-null"):
        result = checks._check_record(False, f"preset:{preset}")
        assert result.name == f"preset:{preset}"
        assert result.passed, result.detail


def test_verify_integrates_a_failed_preset_once(monkeypatch):
    # a preset run that raises is kept with its exception: the entropy-decay
    # task integrates each gas once, and every record that reads a failed
    # run fails with the same detail
    from contactrel import checks

    calls = []

    def refuse(cfg, *args, **kwargs):
        calls.append(cfg.name)
        raise RuntimeError(f"{cfg.name} refused")

    monkeypatch.setattr(checks, "run_ensemble", refuse)
    names = [name for name, _ in checks.CHECKS] + [f"preset:{name}" for name in PRESETS]
    task = next(task for task in checks._tasks(names) if task[0] == "entropy-decay")
    checks._preset_outcome.cache_clear()
    try:
        records = {r.name: r for r in checks._run_task(False, task)}
    finally:
        checks._preset_outcome.cache_clear()
    assert sorted(calls) == ["absorbing-gas", "decay-gas", "photon-gas"]
    assert not any(r.passed for r in records.values())
    assert (records["entropy-decay"].detail == records["preset:decay-gas"].detail
            == "raised RuntimeError: decay-gas refused")


def _unbudgeted(cfg):
    """cfg with the document default of max_steps in place of verify's budget."""
    return replace(cfg, integrator={**cfg.integrator, "max_steps": 10**6})


def test_verify_runs_each_preset_on_its_budget(monkeypatch):
    # verify, not the preset document (10^6 steps), sets a preset run's
    # budget: more than the healthy run's accepted steps, and at most 11
    # times as many, so that a broken step control fails the record soon.
    # The configs are caught on their way in, so none is stepped.
    from contactrel import checks

    healthy = {}
    for name in PRESETS:
        run = checks._preset_run(name)[1]
        stats = run.metadata if preset_scenario(name).kind == "single" else run[3]
        healthy[name] = stats["steps_accepted"]
    received = []

    def catch(cfg, *args, **kwargs):
        received.append(cfg)
        raise RuntimeError("not stepped")

    monkeypatch.setattr(checks, "run_single", catch)
    monkeypatch.setattr(checks, "run_ensemble", catch)
    checks._preset_outcome.cache_clear()
    try:
        for name in PRESETS:
            record = checks._check_record(False, f"preset:{name}")
            assert not record.passed and "not stepped" in record.detail
    finally:
        checks._preset_outcome.cache_clear()
    assert [cfg.name for cfg in received] == list(PRESETS)
    for name, cfg in zip(PRESETS, received):
        budget = cfg.integrator["max_steps"]
        assert healthy[name] < budget <= 11 * healthy[name], name
        assert _unbudgeted(cfg) == preset_scenario(name)  # the one change


def test_verify_measures_the_decay_law(monkeypatch):
    # Both decay checks take their target from dynamics.mass_from_tau, so a
    # law that is 1% off must fail them, by measurement and not by a raise.
    from contactrel import checks, dynamics

    law = dynamics.mass_from_tau
    monkeypatch.setattr(dynamics, "mass_from_tau", lambda *args: 1.01 * law(*args))
    record = checks._check_record(False, "preset:decay-flat")
    assert not record.passed and math.isfinite(record.measured), record.detail
    assert not checks.check_decay_cancellation().passed


# ---------------------------------------------------------------------------
# the verify records in forked workers


def _force_pool(monkeypatch, workers=2):
    """Give verify a pool of this many workers, whatever the host's CPU count."""
    from contactrel import output

    monkeypatch.setattr(output, "_usable_cpus", lambda: float(workers))


def _verify_records(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out, [json.loads(line) for line in out.splitlines() if line.strip()]


def test_verify_pool_matches_in_process_and_runs_each_gas_once(tmp_path, monkeypatch, capsys):
    # The same records, byte for byte, from the worker pool and from the
    # in-process path; each of the 7 presets is integrated once per battery,
    # its preset record reading the run of the check that reads it.  The log
    # is a file so that calls made in forked workers are counted.  With four
    # workers a preset record split off its reader's task would find a
    # worker idle while the reader still runs, and integrate its preset
    # again.  A run is a preset's when its config is the preset document
    # but for the step budget that verify sets.
    from contactrel import checks, cli, output

    _force_pool(monkeypatch, workers=4)
    log = tmp_path / "runs.log"
    docs = [preset_scenario(name) for name in PRESETS]

    def counted(real):
        def run(cfg, *args, **kwargs):
            if _unbudgeted(cfg) in docs:
                with open(log, "a") as fh:
                    fh.write(f"{cfg.name}\n")
            return real(cfg, *args, **kwargs)
        return run

    monkeypatch.setattr(checks, "run_single", counted(checks.run_single))
    monkeypatch.setattr(checks, "run_ensemble", counted(checks.run_ensemble))
    results = []

    def kept(*args, real=cli.run_all):
        results[:] = real(*args)
        return results

    monkeypatch.setattr(cli, "run_all", kept)
    outs = []
    for in_process in (False, True):
        if in_process:
            monkeypatch.setattr(output, "_fork_context", lambda: None)
        checks._preset_outcome.cache_clear()
        log.write_text("")
        code, out, records = _verify_records(["verify", "--all-presets", "--json"], capsys)
        assert code == 0, out
        assert [r["name"] for r in records] == (
            [name for name, _ in checks.CHECKS] + [f"preset:{name}" for name in PRESETS])
        assert sorted(log.read_text().splitlines()) == sorted(PRESETS)
        # a Python bool, which json.dumps writes, not a numpy.bool_
        assert [type(r.passed) for r in results] == [bool] * 19
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_all_presets_writes_no_file(tmp_path, monkeypatch, capsys):
    # every preset is checked on its run in memory; the log is a file so
    # that writes made in forked workers are counted
    from contactrel import checks, output

    _force_pool(monkeypatch, workers=4)
    log = tmp_path / "writes.log"
    log.write_text("")
    real = output._write_table

    def logged(path, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{path}\n")
        return real(path, *args, **kwargs)

    monkeypatch.setattr(output, "_write_table", logged)
    code, out, records = _verify_records(["verify", "--all-presets", "--json"], capsys)
    assert code == 0, out
    assert len(records) == len(checks.CHECKS) + len(PRESETS)
    assert log.read_text() == ""


def test_verify_check_raising_in_a_worker_fails_in_place(monkeypatch, capsys):
    # A rebound catalog of two entries prints two records, in catalog order;
    # the one that raised in its worker is a named failed record.
    import os

    from contactrel import checks
    from contactrel.checks import CheckResult

    def boom():
        raise ValueError("broken on purpose")

    def fine():
        return CheckResult("fine", True, 0.0, 1.0, detail=str(os.getpid()))

    _force_pool(monkeypatch)
    monkeypatch.setattr(checks, "CHECKS", (("boom", boom), ("fine", fine)))
    code, _, records = _verify_records(["verify", "--json"], capsys)
    assert code == 1
    assert [r["name"] for r in records] == ["boom", "fine"]
    assert records[0]["passed"] is False
    assert records[0]["detail"] == "raised ValueError: broken on purpose"
    assert records[1]["passed"] is True
    assert records[1]["detail"] != str(os.getpid())  # computed by a worker


def test_verify_worker_that_dies_fails_its_records_without_hanging(monkeypatch, capsys):
    import multiprocessing
    import os
    import signal

    from contactrel import checks
    from contactrel.checks import CheckResult

    def die():
        os._exit(3)

    def fine():
        return CheckResult("fine", True, 0.0, 1.0)

    def hung(signum, frame):
        raise TimeoutError("verify did not return after a worker died")

    _force_pool(monkeypatch)
    monkeypatch.setattr(checks, "CHECKS", (("die", die), ("fine", fine)))
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        code, _, records = _verify_records(["verify", "--json"], capsys)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    assert [r["name"] for r in records] == ["die", "fine"]
    assert records[0]["passed"] is False
    assert records[0]["detail"].startswith("raised BrokenProcessPool")
    assert multiprocessing.active_children() == []
