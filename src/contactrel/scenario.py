"""Scenario configuration: JSON schema, validation, builders, and presets.

A scenario is a JSON object with keys ``metric``, ``mass``, ``initial``,
``stop`` (required) and ``c``, ``integrator``, ``outputs``, ``name``
(optional).  Loading normalizes every optional key to its default, so a
loaded config serializes and reloads to an equal value.  Validation rejects
unknown keys and reports offending fields by dotted path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, geometry, kinetic
from .dynamics import ContactHamiltonianSystem, ExtendedState, MassModel
from .errors import NonFiniteDerivative, ParseError, ValidationError
from .integrators import IntegratorConfig, StopCondition
from .kinetic import DensitySpec, GaussianMomentum, UniformMomentum

__all__ = [
    "ScenarioConfig",
    "load_scenario",
    "serialize_scenario",
    "build_system",
    "build_initial_state",
    "build_density_spec",
    "build_integrator_config",
    "run_ensemble",
    "preset_scenario",
    "PRESETS",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """Normalized scenario; every field is plain JSON-compatible data."""

    name: str
    metric: dict
    mass: dict
    c: float
    initial: dict
    integrator: dict
    stop: list
    outputs: dict

    @property
    def kind(self) -> str:
        return self.initial["kind"]


# --- low-level field coercion --------------------------------------------------


def _as_float(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(path, f"expected a number, got {type(v).__name__}")
    out = float(v)
    if not math.isfinite(out):
        raise ValidationError(path, "must be finite")
    return out


def _as_int(v, path: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(path, f"expected an integer, got {type(v).__name__}")
    if minimum is not None and v < minimum:
        raise ValidationError(path, f"must be >= {minimum}")
    return v


def _as_bool(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise ValidationError(path, f"expected a boolean, got {type(v).__name__}")
    return v


def _as_str(v, path: str, choices=None) -> str:
    if not isinstance(v, str):
        raise ValidationError(path, f"expected a string, got {type(v).__name__}")
    if choices is not None and v not in choices:
        raise ValidationError(path, f"must be one of {sorted(choices)}, got {v!r}")
    return v


def _as_vec(v, path: str, length: int) -> list:
    if not isinstance(v, list) or len(v) != length:
        raise ValidationError(path, f"expected a list of {length} numbers")
    return [_as_float(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _as_dict(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ValidationError(path, f"expected an object, got {type(v).__name__}")
    return v


def _check_keys(d: dict, path: str, required: set, optional: set):
    for key in required:
        if key not in d:
            raise ValidationError(f"{path}.{key}" if path else key, "is required")
    unknown = set(d) - required - optional
    if unknown:
        key = sorted(unknown)[0]
        raise ValidationError(f"{path}.{key}" if path else key, "unknown key")


# --- section normalizers --------------------------------------------------------


def _norm_metric(d, path="metric") -> dict:
    d = _as_dict(d, path)
    kind = _as_str(d.get("kind"), f"{path}.kind", {"minkowski", "weak_field", "expression"}) \
        if "kind" in d else None
    if kind is None:
        raise ValidationError(f"{path}.kind", "is required")
    if kind == "minkowski":
        _check_keys(d, path, {"kind"}, set())
        return {"kind": "minkowski"}
    if kind == "weak_field":
        _check_keys(d, path, {"kind", "potential"}, set())
        pot = _as_dict(d["potential"], f"{path}.potential")
        pkind = _as_str(pot.get("kind"), f"{path}.potential.kind",
                        {"point_mass", "uniform_gradient"}) if "kind" in pot else None
        if pkind is None:
            raise ValidationError(f"{path}.potential.kind", "is required")
        if pkind == "point_mass":
            _check_keys(pot, f"{path}.potential", {"kind", "GM"}, {"softening"})
            gm = _as_float(pot["GM"], f"{path}.potential.GM")
            soft = _as_float(pot.get("softening", 0.0), f"{path}.potential.softening")
            if soft < 0:
                raise ValidationError(f"{path}.potential.softening", "must be >= 0")
            return {"kind": "weak_field",
                    "potential": {"kind": "point_mass", "GM": gm, "softening": soft}}
        _check_keys(pot, f"{path}.potential", {"kind", "g"}, set())
        g = _as_vec(pot["g"], f"{path}.potential.g", 3)
        return {"kind": "weak_field", "potential": {"kind": "uniform_gradient", "g": g}}
    # expression
    _check_keys(d, path, {"kind", "diag"}, set())
    diag = d["diag"]
    if not isinstance(diag, list) or len(diag) != 4:
        raise ValidationError(f"{path}.diag", "expected a list of 4 expression strings")
    for i, s in enumerate(diag):
        _as_str(s, f"{path}.diag[{i}]")
        try:  # the entry alone, so that the error names it: grammar, derivatives, origin
            code, derivatives = geometry._entry_codes(s, f"<metric diag[{i}]>")
            geometry._evaluate([code], np.zeros(4), 0.0)
            geometry._evaluate(list(derivatives.values()), np.zeros(4), 0.0, NonFiniteDerivative)
        except Exception as exc:
            raise ValidationError(f"{path}.diag[{i}]",
                                  f"invalid expression: {type(exc).__name__}: {exc}")
    return {"kind": "expression", "diag": [str(s) for s in diag]}


def _norm_mass(d, path="mass") -> dict:
    d = _as_dict(d, path)
    if "kind" not in d:
        raise ValidationError(f"{path}.kind", "is required")
    kind = _as_str(d["kind"], f"{path}.kind", {"constant", "exp_decay", "zero"})
    if kind == "zero":
        _check_keys(d, path, {"kind"}, set())
        return {"kind": "zero"}
    if kind == "constant":
        _check_keys(d, path, {"kind", "m0"}, set())
        m0 = _as_float(d["m0"], f"{path}.m0")
        if not m0 > 0:
            raise ValidationError(f"{path}.m0", "must be > 0")
        return {"kind": "constant", "m0": m0}
    _check_keys(d, path, {"kind", "m0", "alpha"}, {"tau0"})
    m0 = _as_float(d["m0"], f"{path}.m0")
    if not m0 > 0:
        raise ValidationError(f"{path}.m0", "must be > 0 (a decaying mass cannot start at zero)")
    alpha = _as_float(d["alpha"], f"{path}.alpha")
    tau0 = _as_float(d.get("tau0", 0.0), f"{path}.tau0")
    return {"kind": "exp_decay", "m0": m0, "alpha": alpha, "tau0": tau0}


def _norm_initial(d, path="initial") -> dict:
    d = _as_dict(d, path)
    if "kind" not in d:
        raise ValidationError(f"{path}.kind", "is required")
    kind = _as_str(d["kind"], f"{path}.kind", {"single", "ensemble"})
    if kind == "single":
        _check_keys(d, path, {"kind"},
                    {"q0", "phi0", "p_spatial", "v", "p", "allow_off_shell"})
        out = {
            "kind": "single",
            "q0": _as_vec(d.get("q0", [0.0] * 4), f"{path}.q0", 4),
            "phi0": _as_float(d.get("phi0", 0.0), f"{path}.phi0"),
        }
        given = [k for k in ("p_spatial", "v", "p") if k in d]
        if len(given) != 1:
            raise ValidationError(
                path, "exactly one of p_spatial, v, p must be given"
            )
        key = given[0]
        out[key] = _as_vec(d[key], f"{path}.{key}", 3 if key != "p" else 4)
        out["allow_off_shell"] = _as_bool(
            d.get("allow_off_shell", False), f"{path}.allow_off_shell"
        )
        return out
    _check_keys(d, path, {"kind", "n", "seed", "momentum"},
                {"q_center", "q_halfwidth", "phi_center", "phi_halfwidth"})
    mom = _as_dict(d["momentum"], f"{path}.momentum")
    if "kind" not in mom:
        raise ValidationError(f"{path}.momentum.kind", "is required")
    mkind = _as_str(mom["kind"], f"{path}.momentum.kind", {"gaussian", "uniform"})
    if mkind == "gaussian":
        _check_keys(mom, f"{path}.momentum", {"kind", "mean", "sigma"}, set())
        momentum = {
            "kind": "gaussian",
            "mean": _as_vec(mom["mean"], f"{path}.momentum.mean", 3),
            "sigma": _as_vec(mom["sigma"], f"{path}.momentum.sigma", 3),
        }
        if any(s <= 0 for s in momentum["sigma"]):
            raise ValidationError(f"{path}.momentum.sigma", "must be > 0 componentwise")
    else:
        _check_keys(mom, f"{path}.momentum", {"kind", "center", "halfwidth"}, set())
        momentum = {
            "kind": "uniform",
            "center": _as_vec(mom["center"], f"{path}.momentum.center", 3),
            "halfwidth": _as_vec(mom["halfwidth"], f"{path}.momentum.halfwidth", 3),
        }
        if any(h < 0 for h in momentum["halfwidth"]):
            raise ValidationError(f"{path}.momentum.halfwidth", "must be >= 0")
    out = {
        "kind": "ensemble",
        "n": _as_int(d["n"], f"{path}.n", minimum=1),
        "seed": _as_int(d["seed"], f"{path}.seed"),
        "q_center": _as_vec(d.get("q_center", [0.0] * 4), f"{path}.q_center", 4),
        "q_halfwidth": _as_vec(d.get("q_halfwidth", [0.0] * 4), f"{path}.q_halfwidth", 4),
        "phi_center": _as_float(d.get("phi_center", 0.0), f"{path}.phi_center"),
        "phi_halfwidth": _as_float(d.get("phi_halfwidth", 0.0), f"{path}.phi_halfwidth"),
        "momentum": momentum,
    }
    if any(h < 0 for h in out["q_halfwidth"]) or out["phi_halfwidth"] < 0:
        raise ValidationError(f"{path}.q_halfwidth", "halfwidths must be >= 0")
    return out


def _norm_integrator(d, path="integrator") -> dict:
    d = _as_dict(d, path)
    _check_keys(d, path, set(),
                {"method", "rel_tol", "abs_tol", "fixed_step", "min_step",
                 "max_step", "max_steps", "shell_projection"})
    out = {
        "method": _as_str(d.get("method", "rk45"), f"{path}.method", {"rk4", "rk45"}),
        "rel_tol": _as_float(d.get("rel_tol", 1e-10), f"{path}.rel_tol"),
        "abs_tol": _as_float(d.get("abs_tol", 1e-12), f"{path}.abs_tol"),
        "fixed_step": None if d.get("fixed_step") is None
        else _as_float(d["fixed_step"], f"{path}.fixed_step"),
        "min_step": _as_float(d.get("min_step", 1e-14), f"{path}.min_step"),
        "max_step": None if d.get("max_step") is None
        else _as_float(d["max_step"], f"{path}.max_step"),
        "max_steps": _as_int(d.get("max_steps", 1_000_000), f"{path}.max_steps", 1),
        "shell_projection": _as_int(d.get("shell_projection", 0), f"{path}.shell_projection", 0),
    }
    if out["rel_tol"] <= 0 or out["abs_tol"] <= 0:
        raise ValidationError(f"{path}.rel_tol", "tolerances must be > 0")
    if out["method"] == "rk4" and not (out["fixed_step"] and out["fixed_step"] > 0):
        raise ValidationError(f"{path}.fixed_step", "rk4 requires a positive fixed_step")
    if out["fixed_step"] is not None and out["fixed_step"] <= 0:
        raise ValidationError(f"{path}.fixed_step", "must be > 0")
    if out["max_step"] is not None and out["max_step"] <= 0:
        raise ValidationError(f"{path}.max_step", "must be > 0")
    return out


_STOP_KINDS = {"lambda_reached", "phi_reached", "tau_reached", "coordinate_bound", "mass_floor"}


def _norm_stop(lst, path="stop") -> list:
    if not isinstance(lst, list) or not lst:
        raise ValidationError(path, "expected a non-empty list of stop conditions")
    out = []
    for i, d in enumerate(lst):
        p = f"{path}[{i}]"
        d = _as_dict(d, p)
        if "kind" not in d:
            raise ValidationError(f"{p}.kind", "is required")
        kind = _as_str(d["kind"], f"{p}.kind", _STOP_KINDS)
        if kind == "coordinate_bound":
            _check_keys(d, p, {"kind", "value", "axis"}, set())
            out.append({"kind": kind,
                        "value": _as_float(d["value"], f"{p}.value"),
                        "axis": _as_int(d["axis"], f"{p}.axis", 0)})
            if out[-1]["axis"] > 3:
                raise ValidationError(f"{p}.axis", "must be 0..3")
        else:
            _check_keys(d, p, {"kind", "value"}, set())
            out.append({"kind": kind, "value": _as_float(d["value"], f"{p}.value")})
            if kind == "lambda_reached" and not out[-1]["value"] > 0:
                raise ValidationError(f"{p}.value", "must be > 0: runs go forward in lambda")
    return out


def _norm_outputs(d, path="outputs") -> dict:
    d = _as_dict(d, path)
    _check_keys(d, path, set(),
                {"path", "format", "stride", "reports", "snapshot_stride",
                 "reparametrize_phi", "reparametrize_tau"})
    out = {
        "path": _as_str(d.get("path", "run_output"), f"{path}.path"),
        "format": _as_str(d.get("format", "csv"), f"{path}.format", {"csv", "jsonl"}),
        "stride": _as_int(d.get("stride", 1), f"{path}.stride", 1),
        "reports": _as_int(d.get("reports", 50), f"{path}.reports", 1),
        "snapshot_stride": _as_int(d.get("snapshot_stride", 10), f"{path}.snapshot_stride", 0),
        "reparametrize_phi": _as_bool(d.get("reparametrize_phi", False), f"{path}.reparametrize_phi"),
        "reparametrize_tau": _as_bool(d.get("reparametrize_tau", False), f"{path}.reparametrize_tau"),
    }
    return out


def _normalize(data: dict) -> ScenarioConfig:
    _check_keys(data, "", {"metric", "mass", "initial", "stop"},
                {"c", "integrator", "outputs", "name"})
    c = _as_float(data.get("c", 1.0), "c")
    if not c > 0:
        raise ValidationError("c", "must be > 0")
    cfg = ScenarioConfig(
        name=_as_str(data.get("name", "scenario"), "name"),
        metric=_norm_metric(data["metric"]),
        mass=_norm_mass(data["mass"]),
        c=c,
        initial=_norm_initial(data["initial"]),
        integrator=_norm_integrator(data.get("integrator", {})),
        stop=_norm_stop(data["stop"]),
        outputs=_norm_outputs(data.get("outputs", {})),
    )
    # cross-field rules
    massless = cfg.mass["kind"] == "zero"
    for i, s in enumerate(cfg.stop):
        if massless and s["kind"] == "tau_reached":
            raise ValidationError(f"stop[{i}].kind", "tau is undefined for massless particles")
        if massless and s["kind"] == "mass_floor":
            raise ValidationError(f"stop[{i}].kind", "mass_floor never triggers for zero mass")
    if massless and cfg.integrator["shell_projection"] > 0:
        raise ValidationError("integrator.shell_projection",
                              "shell projection is undefined for massless particles")
    if massless and cfg.outputs["reparametrize_tau"]:
        raise ValidationError("outputs.reparametrize_tau",
                              "tau is undefined for massless particles")
    if cfg.kind == "ensemble":
        kinds = {s["kind"] for s in cfg.stop}
        if kinds != {"lambda_reached"}:
            raise ValidationError("stop", "ensemble runs support only lambda_reached stops")
        if cfg.outputs["reparametrize_phi"] or cfg.outputs["reparametrize_tau"]:
            raise ValidationError("outputs", "reparametrized companions apply to single runs only")
    return cfg


def load_scenario(source) -> ScenarioConfig:
    """Load and validate a scenario from a dict, a JSON string, or a file path."""
    if isinstance(source, ScenarioConfig):
        return source
    if isinstance(source, dict):
        data = source
    else:
        text = None
        if isinstance(source, Path) or (isinstance(source, str) and not source.lstrip().startswith("{")):
            try:
                text = Path(source).read_text()
            except OSError as exc:
                raise ParseError(f"cannot read scenario file {source!r}: {exc}")
        else:
            text = source
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)
        if not isinstance(data, dict):
            raise ValidationError("<top>", "scenario must be a JSON object")
    return _normalize(data)


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Canonical JSON text that loads back equal to cfg."""
    obj = {
        "name": cfg.name,
        "metric": cfg.metric,
        "mass": cfg.mass,
        "c": cfg.c,
        "initial": cfg.initial,
        "integrator": cfg.integrator,
        "stop": cfg.stop,
        "outputs": cfg.outputs,
    }
    return json.dumps(obj, indent=2)


# --- builders --------------------------------------------------------------------


def build_system(cfg: ScenarioConfig) -> ContactHamiltonianSystem:
    m = cfg.metric
    if m["kind"] == "minkowski":
        metric = geometry.minkowski()
    elif m["kind"] == "weak_field":
        pot = m["potential"]
        if pot["kind"] == "point_mass":
            p, g = geometry.point_mass_potential(pot["GM"], pot["softening"])
            name = f"weak-field point-mass GM={pot['GM']}"
        else:
            p, g = geometry.uniform_gradient_potential(pot["g"])
            name = "weak-field uniform-gradient"
        metric = geometry.weak_field(p, g, c=cfg.c, name=name)
    else:
        metric = geometry.expression_metric(m["diag"])

    ms = cfg.mass
    anchor_phi = (
        cfg.initial["phi0"] if cfg.kind == "single" else cfg.initial["phi_center"]
    )
    if ms["kind"] == "zero":
        mass = MassModel.zero()
    elif ms["kind"] == "constant":
        mass = MassModel.constant(ms["m0"])
    else:
        # m = m0 at proper time tau0 along flows started at the initial phi
        m_start = ms["m0"] * math.exp(ms["alpha"] * ms["tau0"])
        mass = MassModel.exp_decay(m_start, ms["alpha"], phi0=anchor_phi, c=cfg.c)
    return ContactHamiltonianSystem(metric=metric, mass=mass, c=cfg.c)


def build_initial_state(cfg: ScenarioConfig, sys: ContactHamiltonianSystem) -> ExtendedState:
    init = cfg.initial
    if init["kind"] != "single":
        raise ValidationError("initial.kind", "build_initial_state needs a single-particle scenario")
    q0 = np.asarray(init["q0"], dtype=float)
    phi0 = init["phi0"]
    if "p_spatial" in init:
        p = dynamics.solve_p0_on_shell(sys, q0, phi0, np.asarray(init["p_spatial"]))
        return ExtendedState(q=q0, p=p, phi=phi0)
    if "v" in init:
        return dynamics.state_from_velocity(sys, q0, phi0, np.asarray(init["v"]))
    state = ExtendedState(q=q0, p=np.asarray(init["p"], dtype=float), phi=phi0)
    _, shell = dynamics._h_and_shell(sys, *dynamics._as_batch(state))
    res = float(shell[0])
    gpp = res - (float(sys.mass.value(phi0)) * sys.c) ** 2
    if abs(res) > 1e-8 * max(1.0, abs(gpp)) and not init["allow_off_shell"]:
        raise ValidationError(
            "initial.p",
            f"state is off the mass shell (residual {res:.3e}); "
            "set allow_off_shell to accept it",
        )
    return state


def build_density_spec(cfg: ScenarioConfig) -> DensitySpec:
    init = cfg.initial
    if init["kind"] != "ensemble":
        raise ValidationError("initial.kind", "build_density_spec needs an ensemble scenario")
    mom = init["momentum"]
    if mom["kind"] == "gaussian":
        momentum = GaussianMomentum(mean=tuple(mom["mean"]), sigma=tuple(mom["sigma"]))
    else:
        momentum = UniformMomentum(center=tuple(mom["center"]), halfwidth=tuple(mom["halfwidth"]))
    return DensitySpec(
        momentum=momentum,
        q_center=tuple(init["q_center"]),
        q_halfwidth=tuple(init["q_halfwidth"]),
        phi_center=init["phi_center"],
        phi_halfwidth=init["phi_halfwidth"],
    )


def build_integrator_config(cfg: ScenarioConfig) -> IntegratorConfig:
    integ = cfg.integrator
    stops = tuple(
        StopCondition(kind=s["kind"], value=s["value"], axis=s.get("axis", 0))
        for s in cfg.stop
    )
    return IntegratorConfig(
        method=integ["method"],
        rel_tol=integ["rel_tol"],
        abs_tol=integ["abs_tol"],
        fixed_step=integ["fixed_step"],
        min_step=integ["min_step"],
        max_step=math.inf if integ["max_step"] is None else integ["max_step"],
        max_steps=integ["max_steps"],
        shell_projection=integ["shell_projection"],
        stop=stops,
    )


def run_ensemble(cfg: ScenarioConfig, on_report=None):
    """Sample an ensemble scenario and propagate it over its lambda span.

    Returns (initial ensemble, final ensemble, series rows, step counts):
    the last three are :func:`kinetic.ensemble_series`'s result, the counts
    a dict with "steps_accepted" and "steps_rejected".
    """
    e0 = kinetic.sample_ensemble(build_system(cfg), build_density_spec(cfg),
                                 cfg.initial["n"], cfg.initial["seed"])
    span = min(s["value"] for s in cfg.stop)
    e_end, rows, stats = kinetic.ensemble_series(
        e0, span, cfg.outputs["reports"], kinetic.EntropyFunctional.shannon_boltzmann(),
        build_integrator_config(cfg), on_report,
    )
    return e0, e_end, rows, stats


# --- presets ----------------------------------------------------------------------
# Each preset is a scenario document plus the closed-form claim its run must
# meet: check(cfg, run) -> (measured, tolerance, passed, detail), where run is
# the Trajectory of a single preset and the series rows of an ensemble preset.


def _preset_special_relativity_free() -> dict:
    return {
        "name": "special-relativity-free",
        "metric": {"kind": "minkowski"},
        "mass": {"kind": "constant", "m0": 1.0},
        "c": 1.0,
        "initial": {"kind": "single", "q0": [0, 0, 0, 0], "phi0": 0.0,
                    "p_spatial": [1.0, 0.0, 0.0]},
        "stop": [{"kind": "lambda_reached", "value": 10.0}],
        "outputs": {"path": "special_relativity_free"},
    }


def _check_special_relativity_free(cfg, traj):
    # on shell H = 0, and dq1/dlam = p1 along the straight ray
    h_max = float(np.max(np.abs(traj.ham)))
    ray = cfg.initial["q0"][1] + cfg.initial["p_spatial"][0] * traj.lam
    straight = float(np.max(np.abs(traj.q[:, 1] - ray)))
    measured = max(h_max, straight)
    return measured, 1e-10, measured < 1e-10, f"|H|max={h_max:.2e}, ray diff={straight:.2e}"


def _preset_newtonian_orbit() -> dict:
    # GM = 1, r0 = 1, tangential v = 1 => circular orbit, period 2 pi; c >> v
    return {
        "name": "newtonian-orbit",
        "metric": {"kind": "weak_field",
                   "potential": {"kind": "point_mass", "GM": 1.0}},
        "mass": {"kind": "constant", "m0": 1.0},
        "c": 1000.0,
        "initial": {"kind": "single", "q0": [0, 1.0, 0, 0], "phi0": 0.0,
                    "v": [0.0, 1.0, 0.0]},
        "integrator": {"max_step": 0.05},
        "stop": [{"kind": "lambda_reached", "value": 6.283185307179586}],
        "outputs": {"path": "newtonian_orbit"},
    }


def _check_newtonian_orbit(cfg, traj):
    r0 = float(np.linalg.norm(cfg.initial["q0"][1:]))
    r = np.sqrt(np.sum(traj.q[:, 1:] ** 2, axis=1))
    measured = float(np.max(np.abs(r - r0)))
    return measured, 1e-3, measured < 1e-3, "radial drift over one orbital period"


def _preset_photon_null() -> dict:
    return {
        "name": "photon-null",
        "metric": {"kind": "minkowski"},
        "mass": {"kind": "zero"},
        "c": 1.0,
        "initial": {"kind": "single", "q0": [0, 0, 0, 0], "phi0": 0.0,
                    "p_spatial": [1.0, 0.0, 0.0]},
        "stop": [{"kind": "lambda_reached", "value": 10.0}],
        "outputs": {"path": "photon_null"},
    }


def _check_photon_null(cfg, traj):
    phi_drift = float(np.max(np.abs(traj.phi - traj.phi[0])))
    measured = max(phi_drift, float(np.max(np.abs(traj.shell))))
    tau_nan = bool(np.all(np.isnan(traj.tau)))
    return (measured, 1e-12, measured < 1e-12 and tau_nan,
            f"phi drift + null shell residual; tau_nan={tau_nan}")


def _preset_decay_flat() -> dict:
    return {
        "name": "decay-flat",
        "metric": {"kind": "minkowski"},
        "mass": {"kind": "exp_decay", "m0": 1.0, "alpha": 0.1, "tau0": 0.0},
        "c": 1.0,
        "initial": {"kind": "single", "q0": [0, 0, 0, 0], "phi0": 0.0,
                    "p_spatial": [0.0, 0.0, 0.0]},
        "stop": [{"kind": "lambda_reached", "value": 10.0}],
        "outputs": {"path": "decay_flat", "reparametrize_tau": True},
    }


def _check_decay_flat(cfg, traj):
    # phi route vs the decay law: m(phi(end)) = mass_from_tau(phi0, tau(end))
    sys = build_system(cfg)
    m_end = sys.mass.value(float(traj.phi[-1]))
    law = dynamics.mass_from_tau(sys, cfg.initial["phi0"], float(traj.tau[-1]))
    measured = abs(m_end / law - 1.0)
    return measured, 1e-8, measured < 1e-8, "mass decay law vs accumulated proper time"


def _preset_decay_gas() -> dict:
    return {
        "name": "decay-gas",
        "metric": {"kind": "minkowski"},
        "mass": {"kind": "exp_decay", "m0": 1.0, "alpha": 0.1, "tau0": 0.0},
        "c": 1.0,
        "initial": {"kind": "ensemble", "n": 10000, "seed": 12345,
                    "momentum": {"kind": "gaussian", "mean": [0.0, 0.0, 0.0],
                                 "sigma": [0.2, 0.2, 0.2]}},
        "stop": [{"kind": "lambda_reached", "value": 5.0}],
        "outputs": {"path": "decay_gas", "reports": 50, "snapshot_stride": 10},
    }


def _check_decay_gas(cfg, rows):
    # flat space: every marker has m = m0 / (1 + alpha m0 lam), so the entropy
    # rate is -4 alpha m0 / (1 + alpha m0 lam)
    alpha, m0 = cfg.mass["alpha"], build_system(cfg).mass.m0
    target = -4.0 * alpha * m0 / (1.0 + alpha * m0 * rows[-1, 0])
    measured = abs(rows[-1, 3] - target) / abs(target)
    passed = bool(np.all(np.diff(rows[:, 2]) < 0.0)) and measured < 1e-6
    return (measured, 1e-6, passed,
            f"entropy strictly decreasing; final rate vs {-4.0 * alpha * m0:g}<m/m0>")


def _preset_absorbing_gas() -> dict:
    return {
        "name": "absorbing-gas",
        "metric": {"kind": "minkowski"},
        "mass": {"kind": "exp_decay", "m0": 1.0, "alpha": -0.1, "tau0": 0.0},
        "c": 1.0,
        "initial": {"kind": "ensemble", "n": 5000, "seed": 99,
                    "momentum": {"kind": "gaussian", "mean": [0.0, 0.0, 0.0],
                                 "sigma": [0.2, 0.2, 0.2]}},
        "stop": [{"kind": "lambda_reached", "value": 5.0}],
        "outputs": {"path": "absorbing_gas", "reports": 50, "snapshot_stride": 10},
    }


def _check_absorbing_gas(cfg, rows):
    measured = float(np.min(np.diff(rows[:, 2])))
    return measured, 0.0, measured > 0.0, "smallest entropy increment (must be > 0)"


def _preset_photon_gas() -> dict:
    return {
        "name": "photon-gas",
        "metric": {"kind": "minkowski"},
        "mass": {"kind": "zero"},
        "c": 1.0,
        "initial": {"kind": "ensemble", "n": 4000, "seed": 7,
                    "momentum": {"kind": "gaussian", "mean": [0.6, 0.0, 0.0],
                                 "sigma": [0.1, 0.1, 0.1]}},
        "stop": [{"kind": "lambda_reached", "value": 5.0}],
        "outputs": {"path": "photon_gas", "reports": 50, "snapshot_stride": 10},
    }


def _check_photon_gas(cfg, rows):
    s_drift = float(np.max(np.abs(rows[:, 2] - rows[0, 2])))
    w_drift = float(np.max(np.abs(rows[:, 1] - rows[0, 1]))) / rows[0, 1]
    return (max(s_drift, w_drift), 1e-8, s_drift < 1e-12 and w_drift < 1e-8,
            f"entropy drift {s_drift:.2e} (tol 1e-12), weight drift {w_drift:.2e}")


PRESETS = {
    "special-relativity-free": (
        "Free massive particle in flat spacetime (straight worldline).",
        _preset_special_relativity_free, _check_special_relativity_free,
    ),
    "newtonian-orbit": (
        "Weak-field circular orbit, GM=1, r=1, v/c=1e-3 (one period).",
        _preset_newtonian_orbit, _check_newtonian_orbit,
    ),
    "photon-null": (
        "Massless particle on the null shell: phi frozen, straight ray.",
        _preset_photon_null, _check_photon_null,
    ),
    "decay-flat": (
        "Resting particle with exponentially decaying mass (alpha=0.1).",
        _preset_decay_flat, _check_decay_flat,
    ),
    "decay-gas": (
        "10k-marker decaying-mass gas; entropy decreases at rate ~ -0.4.",
        _preset_decay_gas, _check_decay_gas,
    ),
    "absorbing-gas": (
        "Gas with growing mass (alpha=-0.1); entropy increases.",
        _preset_absorbing_gas, _check_absorbing_gas,
    ),
    "photon-gas": (
        "Massless gas in flat spacetime; densities and entropy frozen.",
        _preset_photon_gas, _check_photon_gas,
    ),
}


def preset_scenario(name: str) -> ScenarioConfig:
    """Named example scenario as a normalized config."""
    if name not in PRESETS:
        raise ValidationError("preset", f"unknown preset {name!r}; try: {', '.join(PRESETS)}")
    return load_scenario(PRESETS[name][1]())
