"""Scenario configuration: JSON schema, validation, builders, and presets.

A scenario is a JSON object with keys ``metric``, ``mass``, ``initial``,
``stop`` (required) and ``c``, ``integrator``, ``outputs``, ``name``
(optional).  The schema is data: ``_SCENARIO`` gives each object as a table
``{key: (reader, default)}``, and each object with a ``"kind"`` as one such
table per kind.  One reader walks it: it refuses missing required keys and
unknown keys, fills every optional key with its default (so a loaded config
serializes and reloads to an equal value), and checks each field's type and
range.  ``_normalize`` adds the rules that span keys.  Every error names the
offending field or list element by path, e.g. ``initial.momentum.sigma[1]``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, geometry, kinetic
from .dynamics import ContactHamiltonianSystem, ExtendedState, MassModel
from .errors import NonFiniteDerivative, ParseError, ShellSolveFailed, ValidationError
from .integrators import IntegratorConfig, StopCondition, Trajectory, integrate
from .kinetic import DensitySpec, GaussianMomentum, UniformMomentum

__all__ = [
    "ScenarioConfig",
    "load_scenario",
    "serialize_scenario",
    "build_system",
    "build_initial_state",
    "build_density_spec",
    "build_integrator_config",
    "run_single",
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


# --- schema ---------------------------------------------------------------------
# A reader is read(value, path) -> value: it checks and coerces one JSON value,
# or raises ValidationError naming path.  A JSON object is a table
# {key: (reader, default)}, where the default is REQUIRED, OPTIONAL (the key
# stays absent) or a value that is read in place of a missing key.

REQUIRED, OPTIONAL = object(), object()


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _typed(types, noun: str):
    def read(v, path):
        if not isinstance(v, types) or (isinstance(v, bool) and types is not bool):
            raise ValidationError(path, f"expected {noun}, got {type(v).__name__}")
        return v
    return read


_STR, _BOOL, _INT = _typed(str, "a string"), _typed(bool, "a boolean"), _typed(int, "an integer")
_OBJECT, _NUMERIC = _typed(dict, "an object"), _typed((int, float), "a number")


def _number(v, path: str) -> float:
    try:
        out = float(_NUMERIC(v, path))
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ValidationError(path, "must be finite")
    return out


def _check(read, ok, reason: str):
    """``read``, then refuse a value where ``ok(value)`` is false."""
    def checked(v, path):
        out = read(v, path)
        if not ok(out):
            raise ValidationError(path, reason.format(out))
        return out
    return checked


def _positive(reason: str = "must be > 0"):
    return _check(_number, lambda x: x > 0, reason)


_POSITIVE, _NONNEGATIVE = _positive(), _check(_number, lambda x: x >= 0, "must be >= 0")


def _integer(lo=-math.inf, hi=math.inf):
    reason = f"must be >= {lo}" if hi == math.inf else f"must be {lo}..{hi}"
    return _check(_INT, lambda n: lo <= n <= hi, reason)


def _choice(*options):
    return _check(_STR, lambda s: s in options, f"must be one of {sorted(options)}, got {{!r}}")


def _nullable(read):
    return lambda v, path: None if v is None else read(v, path)


def _list(n, read=_number, noun: str = "numbers"):
    """A list of ``n`` items (None: one or more), each read by ``read``."""
    shape = f"a list of {n}" if n else "a non-empty list of"

    def items(v, path):
        if not isinstance(v, list) or not v or n and len(v) != n:
            raise ValidationError(path, f"expected {shape} {noun}")
        return [read(x, f"{path}[{i}]") for i, x in enumerate(v)]
    return items


def _fields(table: dict, d: dict, path: str, known=()) -> dict:
    """The object ``d`` read by ``table``; ``known`` keys may appear besides the table's."""
    for key, (_, default) in table.items():
        if default is REQUIRED and key not in d:
            raise ValidationError(_at(path, key), "is required")
    unknown = d.keys() - table.keys() - set(known)
    if unknown:
        raise ValidationError(_at(path, min(unknown, key=str)), "unknown key")
    return {key: read(d[key] if key in d else default, _at(path, key))
            for key, (read, default) in table.items() if key in d or default is not OPTIONAL}


def _object(table: dict):
    return lambda v, path: _fields(table, _OBJECT(v, path), path)


def _kinds(**tables):
    """An object whose "kind" picks its table."""
    kind_of = _choice(*tables)

    def read(v, path):
        d = _OBJECT(v, path)
        if "kind" not in d:
            raise ValidationError(_at(path, "kind"), "is required")
        kind = kind_of(d["kind"], _at(path, "kind"))
        return {"kind": kind, **_fields(tables[kind], d, path, ("kind",))}
    return read


def _entry(s, path: str) -> str:
    """An expression entry of the diagonal, checked alone so that the error names it."""
    _STR(s, path)
    try:  # grammar, derivatives, value at the origin
        code, derivatives = geometry._entry_codes(s, f"<metric {path.rpartition('.')[2]}>")
        with np.errstate(all="ignore"):  # so that no warnings filter changes the verdict
            value = geometry._evaluate([code], np.zeros(4), 0.0)
            slopes = geometry._evaluate(list(derivatives.values()), np.zeros(4), 0.0,
                                        NonFiniteDerivative)
    except Exception as exc:
        raise ValidationError(path, f"invalid expression: {type(exc).__name__}: {exc}")
    if not (np.isfinite(value).all() and np.isfinite(slopes).all()):
        raise ValidationError(path, "invalid expression: not finite at the origin")
    return str(s)


_VEC3, _VEC4, _ZERO4 = _list(3), _list(4), [0.0] * 4
_VALUE = {"value": (_number, REQUIRED)}
_DEFAULT = IntegratorConfig()  # owns the integrator defaults

_SCENARIO = {
    "c": (_POSITIVE, 1.0),
    "name": (_STR, "scenario"),
    "metric": (_kinds(
        minkowski={},
        weak_field={"potential": (_kinds(
            point_mass={"GM": (_number, REQUIRED), "softening": (_NONNEGATIVE, 0.0)},
            uniform_gradient={"g": (_VEC3, REQUIRED)},
        ), REQUIRED)},
        expression={"diag": (_list(4, _entry, "expression strings"), REQUIRED)},
    ), REQUIRED),
    "mass": (_kinds(
        constant={"m0": (_POSITIVE, REQUIRED)},
        exp_decay={
            "m0": (_positive("must be > 0 (a decaying mass cannot start at zero)"), REQUIRED),
            "alpha": (_number, REQUIRED),
            "tau0": (_number, 0.0),
        },
        zero={},
    ), REQUIRED),
    "initial": (_kinds(
        single={
            "q0": (_VEC4, _ZERO4),
            "phi0": (_number, 0.0),
            "p_spatial": (_VEC3, OPTIONAL),
            "v": (_VEC3, OPTIONAL),
            "p": (_VEC4, OPTIONAL),
            "allow_off_shell": (_BOOL, False),
        },
        ensemble={
            "n": (_integer(1), REQUIRED),
            "seed": (_integer(0), REQUIRED),
            "q_center": (_VEC4, _ZERO4),
            "q_halfwidth": (_list(4, _NONNEGATIVE), _ZERO4),
            "phi_center": (_number, 0.0),
            "phi_halfwidth": (_NONNEGATIVE, 0.0),
            "momentum": (_kinds(
                gaussian={"mean": (_VEC3, REQUIRED), "sigma": (_list(3, _POSITIVE), REQUIRED)},
                uniform={"center": (_VEC3, REQUIRED),
                         "halfwidth": (_list(3, _NONNEGATIVE), REQUIRED)},
            ), REQUIRED),
        },
    ), REQUIRED),
    "integrator": (_object({
        "method": (_choice("rk4", "rk45"), _DEFAULT.method),
        "rel_tol": (_POSITIVE, _DEFAULT.rel_tol),
        "abs_tol": (_POSITIVE, _DEFAULT.abs_tol),
        "fixed_step": (_nullable(_POSITIVE), _DEFAULT.fixed_step),
        "min_step": (_POSITIVE, _DEFAULT.min_step),
        "max_step": (_nullable(_POSITIVE),  # JSON null is IntegratorConfig's math.inf
                     None if _DEFAULT.max_step == math.inf else _DEFAULT.max_step),
        "max_steps": (_integer(1), _DEFAULT.max_steps),
        "shell_projection": (_integer(0), _DEFAULT.shell_projection),
    }), {}),
    "stop": (_list(None, _kinds(
        lambda_reached={"value": (_positive("must be > 0: runs go forward in lambda"), REQUIRED)},
        phi_reached=_VALUE, tau_reached=_VALUE, mass_floor=_VALUE,
        coordinate_bound={**_VALUE, "axis": (_integer(0, 3), REQUIRED)},
    ), "stop conditions"), REQUIRED),
    "outputs": (_object({
        "path": (_STR, "run_output"),
        "format": (_choice("csv", "jsonl"), "csv"),
        "stride": (_integer(1), 1),
        "reports": (_integer(1), 50),
        "snapshot_stride": (_integer(0), 10),
        "reparametrize_phi": (_BOOL, False),
        "reparametrize_tau": (_BOOL, False),
    }), {}),
}


def _decay_start(mass: dict) -> float:
    """m0 exp(alpha tau0): an exp_decay law's mass at the initial phi, inf on overflow."""
    try:
        return mass["m0"] * math.exp(mass["alpha"] * mass["tau0"])
    except OverflowError:
        return math.inf


def _check_floor_reachable(cfg: ScenarioConfig) -> None:
    """Refuse stops that are all mass floors where the run's mass reaches none.

    The mass is m_start + slope (phi - phi0), slope alpha / c^2 (0 for a
    constant mass, and where c^2 is inf).  On the shell phi falls, so floor f
    is reached only if f > 0 and (m_start - f) slope > 0; off it phi may rise.
    """
    constant = cfg.mass["kind"] == "constant"
    slope = 0.0 if constant else cfg.mass["alpha"] / (cfg.c * cfg.c)
    m_start = cfg.mass["m0"] if constant else _decay_start(cfg.mass)
    if cfg.kind == "single" and not cfg.initial["allow_off_shell"]:
        floors = [s["value"] for s in cfg.stop]
        reachable = any(f > 0.0 and (m_start - f) * slope > 0.0 for f in floors)
    else:
        reachable = slope != 0.0
    if not reachable:
        moves = "stays at" if slope == 0.0 else "falls from" if slope > 0.0 else "grows from"
        raise ValidationError("stop", f"no mass_floor is reachable: the mass {moves} "
                                      f"{m_start:g} as phi falls; add a stop")


def _normalize(data: dict) -> ScenarioConfig:
    cfg = ScenarioConfig(**_fields(_SCENARIO, data, ""))
    # rules that span keys
    if cfg.kind == "single" and sum(k in cfg.initial for k in ("p_spatial", "v", "p")) != 1:
        raise ValidationError("initial", "exactly one of p_spatial, v, p must be given")
    if cfg.integrator["method"] == "rk4" and cfg.integrator["fixed_step"] is None:
        raise ValidationError("integrator.fixed_step", "rk4 requires a positive fixed_step")
    if cfg.mass["kind"] == "exp_decay":  # the law build_system makes must exist
        if not 0.0 < _decay_start(cfg.mass) < math.inf:
            raise ValidationError("mass.tau0", "the mass m0*exp(alpha*tau0) where runs start "
                                               "must be finite and > 0")
        c2 = cfg.c * cfg.c
        if not (c2 > 0.0 and math.isfinite(cfg.mass["alpha"] / c2)):
            raise ValidationError("c", "too small for a decay law: alpha/c^2 is not finite")
    massless = cfg.mass["kind"] == "zero"
    for i, s in enumerate(cfg.stop):
        if massless and s["kind"] == "tau_reached":
            raise ValidationError(f"stop[{i}].kind", "tau is undefined for massless particles")
        if massless and s["kind"] == "mass_floor":
            raise ValidationError(f"stop[{i}].kind", "mass_floor never triggers for zero mass")
    if all(s["kind"] == "mass_floor" for s in cfg.stop):
        _check_floor_reachable(cfg)
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
        mass = MassModel.exp_decay(_decay_start(ms), ms["alpha"], phi0=anchor_phi, c=cfg.c)
    return ContactHamiltonianSystem(metric=metric, mass=mass, c=cfg.c)


def _check_rest_scale(sys: ContactHamiltonianSystem, phi) -> None:
    """Refuse c or m c whose square overflows: initial momenta and H square both."""
    m = float(sys.mass.value(phi))
    scale = sys.c * max(m, 1.0)
    if not math.isfinite(4.0 * scale * scale):
        raise ShellSolveFailed(f"c = {sys.c:g} with m = {m:g} is too large: "
                               "4 c^2 or 4 (m c)^2 is beyond the float range")


def build_initial_state(cfg: ScenarioConfig, sys: ContactHamiltonianSystem) -> ExtendedState:
    init = cfg.initial
    if init["kind"] != "single":
        raise ValidationError("initial.kind", "build_initial_state needs a single-particle scenario")
    q0 = np.asarray(init["q0"], dtype=float)
    phi0 = init["phi0"]
    _check_rest_scale(sys, phi0)
    if "p_spatial" in init:
        p = dynamics.solve_p0_on_shell(sys, q0, phi0, np.asarray(init["p_spatial"]))
        return ExtendedState(q=q0, p=p, phi=phi0)
    if "v" in init:
        return dynamics.state_from_velocity(sys, q0, phi0, np.asarray(init["v"]))
    state = ExtendedState(q=q0, p=np.asarray(init["p"], dtype=float), phi=phi0)
    res = float(dynamics._h_and_shell(sys, *dynamics._as_batch(state))[1][0])
    if not (init["allow_off_shell"] or dynamics._on_shell(sys, res, phi0)):
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
    max_step = cfg.integrator["max_step"]  # JSON null is math.inf, no bound
    integ = {**cfg.integrator, "max_step": math.inf if max_step is None else max_step}
    return IntegratorConfig(**integ, stop=tuple(StopCondition(**s) for s in cfg.stop))


def run_single(cfg: ScenarioConfig) -> Trajectory:
    """Build a single-particle scenario's system, state and integrator; integrate it."""
    sys = build_system(cfg)
    return integrate(sys, build_initial_state(cfg, sys), build_integrator_config(cfg))


def run_ensemble(cfg: ScenarioConfig, on_report=None):
    """Sample an ensemble scenario and propagate it over its lambda span.

    Returns (initial ensemble, final ensemble, series rows, step counts):
    the last three are :func:`kinetic.ensemble_series`'s result, the counts
    a dict with "steps_accepted" and "steps_rejected".
    """
    sys = build_system(cfg)
    _check_rest_scale(sys, cfg.initial["phi_center"])
    e0 = kinetic.sample_ensemble(sys, build_density_spec(cfg), cfg.initial["n"],
                                 cfg.initial["seed"])
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
    # flat space: every marker has m = m0 / (1 + alpha m0 lam), so at every
    # report (dense output too) the entropy rate is -4 alpha m0 / (1 + alpha m0 lam)
    alpha, m0 = cfg.mass["alpha"], build_system(cfg).mass.m0
    target = -4.0 * alpha * m0 / (1.0 + alpha * m0 * rows[:, 0])
    measured = float(np.max(np.abs(rows[:, 3] - target) / np.abs(target)))
    passed = bool(np.all(np.diff(rows[:, 2]) < 0.0)) and measured < 1e-6
    return (measured, 1e-6, passed,
            f"entropy strictly decreasing; rate vs {-4.0 * alpha * m0:g}<m/m0> at every report")


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
