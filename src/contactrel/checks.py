"""Verification battery: the package's acceptance checks as callable functions.

Each check measures a residual against a fixed tolerance and returns the
tuple (measured, tolerance, passed, detail), as each preset's own check in
``scenario.PRESETS`` does.  ``_check_record`` is the one place that calls a
check and builds its CheckResult, under the name the catalog gives it: its
name in CHECKS, or "preset:NAME".  ``run_all`` executes the full battery,
and with ``all_presets`` the "preset:NAME" record of every bundled preset
too, which applies the preset's own check to its run, without output files.
The CLI ``verify`` command calls it and the acceptance test suite reads each
record through ``_check_record``, so there is a single source of truth for
what "working" means.

Every contact-flow run of the battery is a scenario document, run by one
runner, ``_run``, as ``contactrel run`` or ``ensemble`` runs it:
``_PRESET_RUNS`` names the presets that records read, and ``_BATTERY_RUNS``
holds the other checks' documents.  Several records read a preset run, so
``_preset_run`` computes it once per process; no check reads another's
result except through that cache, so ``run_all`` computes the records in
forked workers, one per usable CPU, and returns them in catalog order.
Only the geodesic reference, the reduced rk4 loop and the random states of
the identity checks are built in code; the batched field evaluates a
metric's states as one (n, .) block.

Every run carries a ``max_steps`` of about ten times the accepted steps it
takes when healthy, so a broken field ends in MaxStepsExceeded, a failed
record, instead of stepping on toward the default budget of 10^6 steps.

``perturb_divergence=True`` rescales the analytic divergence by 1% inside the
divergence check; it exists so that the battery can be shown to catch a
deliberately wrong value (the check must then fail).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, geometry, output
from .dynamics import ContactHamiltonianSystem, ExtendedState, MassModel
from .errors import NotMonotone
from .integrators import (IntegratorConfig, StopCondition, _run_loop, geodesic_reference,
                          reparametrize_by_phi, reparametrize_by_tau)
from .scenario import (PRESETS, build_integrator_config, build_system, load_scenario,
                       preset_scenario, run_ensemble, run_single)

__all__ = ["CheckResult", "run_all", "CHECKS"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: measured {self.measured:.3e} "
            f"(tolerance {self.tolerance:.3e}) {self.detail}"
        )


# --- shared fixtures ----------------------------------------------------------


# Diagonal metric with q and phi dependence, for the identity checks; also the
# metric of the gas-curved benchmark workload
WAVY_DIAG = (
    "-(1 + 0.1*sin(0.7*x1 + 0.5*phi))",
    "1 + 0.1*cos(0.7*x2)",
    "1 + 0.1*sin(0.7*x3 + 0.5*phi)",
    "1 + 0.1*cos(0.7*x1)",
)


def _identity_metrics() -> list[geometry.MetricField]:
    pot, grad = geometry.point_mass_potential(0.3, softening=0.8)
    return [
        geometry.minkowski(),
        geometry.weak_field(pot, grad, c=1.0, name="weak-field"),
        geometry.expression_metric(WAVY_DIAG, name="wavy"),
    ]


def _random_states(rng, n):
    q = rng.uniform(-2.0, 2.0, size=(n, 4))
    p = np.column_stack(
        [rng.uniform(-2.0, -0.5, size=n), rng.uniform(-1.0, 1.0, size=(n, 3))]
    )
    phi = rng.uniform(-1.0, 1.0, size=n)
    return q, p, phi


def _decay_closed_form(lam, alpha):
    """(q^0, p_0, phi, tau) at lam: flat space, unit mass at rest, decay rate alpha, c=1."""
    q0 = np.log(1.0 + alpha * lam) / alpha
    return q0, -1.0 / (1.0 + alpha * lam), -lam / (1.0 + alpha * lam), q0


# --- the battery's runs -----------------------------------------------------------


def _run(doc):
    """(cfg, run): a document's run as ``contactrel run`` or ``ensemble`` runs it.

    run is run_single's Trajectory, or run_ensemble's (e0, e_end, rows, stats).
    """
    cfg = load_scenario(doc)
    return cfg, run_single(cfg) if cfg.kind == "single" else run_ensemble(cfg)


# Each preset's verify step budget, about ten times its healthy run's accepted
# steps (after the #), so that a broken step control fails the records that
# read the run by name instead of stepping on toward the documents' 10^6; and
# the check that reads the run, whose task the preset record joins (_tasks).
_PRESET_RUNS = {
    "special-relativity-free": (70, None),  # 7
    "newtonian-orbit": (1820, None),  # 182, and 3 rejected
    "photon-null": (70, "photon-behavior"),  # 7
    "decay-flat": (400, "energy-conservation"),  # 38
    "decay-gas": (280, "entropy-decay"),  # 28
    "absorbing-gas": (400, "entropy-decay"),  # 40
    "photon-gas": (60, "entropy-decay"),  # 6
}


def _particle(name, metric, mass, initial, integrator, stop, c=1.0) -> dict:
    """A single-particle document that stops at ``stop``, a (kind, value)."""
    kind, value = stop
    return {"name": name, "metric": metric, "mass": mass, "c": c,
            "initial": {"kind": "single", **initial}, "integrator": integrator,
            "stop": [{"kind": kind, "value": value}]}


def _point_mass(gm) -> dict:
    return {"kind": "weak_field", "potential": {"kind": "point_mass", "GM": gm}}


_FLAT, _UNIT = {"kind": "minkowski"}, {"kind": "constant", "m0": 1.0}
_DECAY = {"kind": "exp_decay", "m0": 1.0, "alpha": 0.1}
_ORBIT_START = {"q0": [0, 1, 0, 0], "v": [0, 0.2, 0]}  # r = 1, moving along y

# The other contact-flow runs of the battery, as documents that ``contactrel
# run`` or ``ensemble`` runs as they stand, listed under the check that reads
# them, in the order it reads them.  Each max_steps is about ten times the
# healthy run's accepted steps (after the #), as for the presets.  One check
# reads each run, so unlike a preset run none is kept.
_BATTERY_RUNS = {
    "energy-conservation": [  # decay-flat, projected back onto the shell after every step
        {**PRESETS["decay-flat"][1](), "name": "energy-conservation",
         "integrator": {"max_steps": 400, "shell_projection": 1}},  # 38
    ],
    "geodesic-recovery": [  # about one orbital period
        _particle("geodesic-recovery", _point_mass(0.04), _UNIT, _ORBIT_START,
                  {"rel_tol": 1e-11, "abs_tol": 1e-13, "max_step": 0.25, "max_steps": 2500},
                  ("tau_reached", 31.0)),  # 235
    ],
    "newtonian-limit": [
        _particle("newtonian-limit", _point_mass(1.0), _UNIT, {**_ORBIT_START, "v": [0, 1.0, 0]},
                  {"method": "rk4", "fixed_step": 0.02, "max_steps": 500},
                  ("lambda_reached", 1.0), c=1000.0),  # 50
    ],
    "decay-cancellation": [  # one start, with a constant and with a decaying mass
        _particle(f"decay-cancellation-{kind}", _point_mass(0.05), mass, _ORBIT_START,
                  {"rel_tol": 3e-12, "abs_tol": 1e-14, "max_step": 0.15, "max_steps": budget},
                  ("tau_reached", 5.0))
        for kind, mass, budget in (("constant", _UNIT, 690), ("decay", _DECAY, 900))  # 69, 91
    ],
    "proper-time": [
        _particle("proper-time-curved", _point_mass(0.05), _DECAY, _ORBIT_START,
                  {"method": "rk4", "fixed_step": 0.02, "max_steps": 2500},
                  ("lambda_reached", 5.0)),  # 250
        # v = 0.6c in flat space, at c = 1 and at c = 3
        *(_particle(f"proper-time-flat-c{c:g}", _FLAT, _UNIT, {"v": [0.6 * c, 0, 0]},
                    {"max_steps": 60}, ("tau_reached", 2.0), c=c)  # 6
          for c in (1.0, 3.0)),
    ],
    "reduction-equivalence": [
        _particle("reduction-equivalence", _point_mass(0.05), _DECAY, _ORBIT_START,
                  {"rel_tol": 1e-11, "abs_tol": 1e-13, "max_step": 0.15, "max_steps": 600},
                  ("lambda_reached", 5.0)),  # 58
    ],
    "entropy-decay": [
        {"name": "entropy-decay-constant-mass", "metric": _FLAT, "mass": _UNIT, "c": 1.0,
         "initial": {"kind": "ensemble", "n": 2000, "seed": 5, "momentum": {
             "kind": "gaussian", "mean": [0.0, 0.0, 0.0], "sigma": [0.2, 0.2, 0.2]}},
         "integrator": {"max_steps": 60}, "stop": [{"kind": "lambda_reached", "value": 2.0}],
         "outputs": {"reports": 5}},  # 6
    ],
    "measure-conservation": [  # decay-gas over twice its span
        {**PRESETS["decay-gas"][1](), "name": "measure-conservation",
         "integrator": {"max_steps": 420}, "stop": [{"kind": "lambda_reached", "value": 10.0}],
         "outputs": {"reports": 20}},  # 42
    ],
    "convergence-order": [  # a unit mass at rest, by rk4 at three step sizes
        _particle(f"convergence-order-h{h:g}", _FLAT, _DECAY, {"p": [-1, 0, 0, 0]},
                  {"method": "rk4", "fixed_step": h, "max_steps": round(10 * 2.0 / h)},
                  ("lambda_reached", 2.0))  # 20, 40, 80
        for h in (0.1, 0.05, 0.025)
    ],
}


def _runs(check: str):
    """(cfg, run) of each of the check's documents, each run as it is read."""
    return map(_run, _BATTERY_RUNS[check])


@functools.lru_cache(maxsize=len(_PRESET_RUNS))
def _preset_outcome(name: str):
    """_preset_run's value, or the exception it raises, computed once per process."""
    cfg = preset_scenario(name)
    try:
        return _run(replace(cfg, integrator={**cfg.integrator, "max_steps": _PRESET_RUNS[name][0]}))
    except Exception as exc:
        return exc


def _preset_run(name: str):
    """(cfg, run): the preset's _run, with the preset's verify budget as max_steps.

    A run that fails is not repeated, and each reader gets its exception.
    """
    outcome = _preset_outcome(name)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _preset_check(name: str):
    """The preset's own check on its run: (measured, tolerance, passed, detail)."""
    cfg, run = _preset_run(name)
    return PRESETS[name][2](cfg, run if cfg.kind == "single" else run[2])


# --- criterion 1: contact identities -------------------------------------------


def check_contact_identities():
    rng = np.random.default_rng(2024)
    mass = MassModel.exp_decay(1.0, 0.1, phi0=0.0, c=1.0)
    worst_r1 = worst_r2 = 0.0
    for metric in _identity_metrics():
        sys = ContactHamiltonianSystem(metric=metric, mass=mass, c=1.0)
        r1, r2 = dynamics._contact_residual_arrays(sys, *_random_states(rng, 1000))
        worst_r1 = max(worst_r1, float(np.max(r1)))
        worst_r2 = max(worst_r2, float(np.max(r2)))
    return (max(worst_r1, worst_r2), 1e-8, worst_r1 < 1e-12 and worst_r2 < 1e-8,
            f"r1_max={worst_r1:.3e} (tol 1e-12), r2_max={worst_r2:.3e} (tol 1e-8)")


# --- criterion 2: energy conservation and shell projection ----------------------


def check_energy_conservation():
    _, free = _preset_run("decay-flat")
    drift = float(np.max(np.abs(free.ham - free.ham[0])))
    free_shell = float(np.max(np.abs(free.shell)))
    (_, projected), = _runs("energy-conservation")
    shell = float(np.max(np.abs(projected.shell)))
    return (max(drift, shell), 1e-8, drift < 1e-8 and free_shell < 1e-8 and shell < 1e-12,
            f"H_drift={drift:.3e} (tol 1e-8), free_shell={free_shell:.3e} (tol 1e-8), "
            f"projected_shell={shell:.3e} (tol 1e-12)")


# --- criterion 3: divergence --------------------------------------------------


def _divergence_trace(sys, y):
    """Trace of the field's Jacobian at each row of y = (q, p, phi) (n, 9).

    Sums the 4th-order stencil of component j in coordinate j over the nine
    extended coordinates; coordinate x steps by _H_FD_STEP * (1 + |x|).
    """

    def field(ys):
        dq, dp, dphi, _ = dynamics._field_arrays(sys, ys[:, 0:4], ys[:, 4:8], ys[:, 8])
        return np.column_stack([dq, dp, dphi])

    trace = np.zeros(len(y))
    for j in range(9):

        def component(x, j=j):
            ys = y.copy()
            ys[:, j] = x
            return field(ys)[:, j]

        h = dynamics._H_FD_STEP * (1.0 + np.abs(y[:, j]))
        trace += geometry._fd4_of(component, y[:, j], h)
    return trace


def check_divergence(perturb: bool = False):
    rng = np.random.default_rng(77)
    n_states = 100
    mass = MassModel.exp_decay(1.0, 0.1, phi0=0.0, c=1.0)
    metrics = _identity_metrics()
    # One draw per state, state i for metric i % 3: the draw order fixes
    # which states the check sees.
    y = np.empty((n_states, 9))
    for i in range(n_states):
        q, p, phi = _random_states(rng, 1)
        y[i] = np.concatenate([q[0], p[0], phi])
    worst = 0.0
    for k, metric in enumerate(metrics):
        sys = ContactHamiltonianSystem(metric=metric, mass=mass, c=1.0)
        y_k = y[k::len(metrics)]
        trace = _divergence_trace(sys, y_k)
        analytic = -4.0 * dynamics._dH_dphi_arrays(sys, y_k[:, 0:4], y_k[:, 4:8], y_k[:, 8])
        if perturb:
            analytic *= 1.01
        mismatch = np.abs(trace - analytic) / np.maximum(1.0, np.abs(analytic))
        worst = max(worst, float(np.max(mismatch)))
    detail = f"relative trace mismatch over {n_states} random states"
    return worst, 1e-6, worst < 1e-6, detail + (" [perturbed]" if perturb else "")


# --- criterion 4: geodesic recovery ----------------------------------------------


def check_geodesic_recovery():
    (cfg, traj), = _runs("geodesic-recovery")
    sys, s0 = build_system(cfg), traj.state(0)
    # the geodesic equation over the same proper time, on the same tolerances
    t_end = cfg.stop[0]["value"]
    cfg_geo = replace(build_integrator_config(cfg), stop=(StopCondition("lambda_reached", t_end),))
    geo = geodesic_reference(sys, s0.q, dynamics.four_velocity(sys, s0), cfg_geo)

    num = 200
    on_tau = reparametrize_by_tau(traj, num=num)
    geo_tau = reparametrize_by_tau(geo, num=num)
    dq = float(np.max(np.abs(on_tau.q - geo_tau.q)))
    # u^mu = g^{mu mu} p_mu / m, dynamics.four_velocity of every sample at once
    g = geometry._values(sys.metric, on_tau.q, on_tau.phi)
    u_contact = g * on_tau.p / sys.mass.value(on_tau.phi)[:, None]
    du = float(np.max(np.abs(u_contact - geo_tau.p)))
    return dq, 1e-6, dq < 1e-6, f"sup|q| diff over one orbit; four-velocity diff {du:.3e}"


# --- criterion 5: Newtonian limit -------------------------------------------------


def check_newtonian_limit():
    (cfg, traj), = _runs("newtonian-limit")
    c, pot = cfg.c, cfg.metric["potential"]
    # coordinate velocity v^i = c dq^i/dlam / dq^0/dlam, exact at samples
    v = c * traj.deriv[:, 1:4] / traj.deriv[:, 0:1]
    dt_dlam = traj.deriv[:, 0] / c
    h = float(np.diff(traj.lam)[0])
    # dv/dlam by 4th-order central differences on the uniform lambda grid
    dv = geometry._fd4(v[:-4], v[1:-3], v[3:-1], v[4:], h)
    accel = dv / dt_dlam[2:-2, None]
    _, grad = geometry.point_mass_potential(pot["GM"], pot["softening"])
    target = -grad(traj.q[2:-2, 1:])
    worst = float(np.max(np.max(np.abs(accel - target), axis=1)
                         / np.max(np.abs(target), axis=1)))
    return (worst, 1e-4, worst < 1e-4,
            f"relative acceleration mismatch, v/c={cfg.initial['v'][1] / c:.0e}")


# --- criterion 6: decay cancellation ----------------------------------------------


def check_decay_cancellation():
    # both runs start from the same four-velocity (same initial momentum too,
    # since m(0) = 1 for both mass models)
    (_, const), (cfg, decay) = _runs("decay-cancellation")
    tr_c = reparametrize_by_tau(const, num=200)
    tr_d = reparametrize_by_tau(decay, num=200)
    dq = float(np.max(np.abs(tr_c.q - tr_d.q)))

    # momentum norm of the decaying run must follow the decay law m(tau)
    sys_decay = build_system(cfg)
    pnorm = np.sqrt(-geometry._gpp(geometry._values(sys_decay.metric, tr_d.q, tr_d.phi), tr_d.p))
    target = dynamics.mass_from_tau(sys_decay, cfg.initial["phi0"], tr_d.lam)
    dp = float(np.max(np.abs(pnorm - target)))
    return (max(dq, dp), 1e-8, dq < 1e-8 and dp < 1e-8,
            f"worldline diff {dq:.3e}, momentum-norm diff {dp:.3e}")


# --- criterion 7: time dilation -----------------------------------------------------


def check_proper_time():
    # part 1: tau accumulated through the phi relation vs direct quadrature of
    # the metric line element along a curved-space decaying-mass orbit
    (cfg, traj), *flat = _runs("proper-time")
    sys = build_system(cfg)
    gl = geometry._reciprocals(sys.metric, traj.q, traj.phi)
    integrand = np.sqrt(-geometry._gpp(gl, traj.deriv[:, 0:4])) / sys.c
    h = float(traj.lam[1] - traj.lam[0])
    simpson = (h / 3.0) * (
        integrand[0] + integrand[-1]
        + 4.0 * np.sum(integrand[1:-1:2]) + 2.0 * np.sum(integrand[2:-1:2])
    )
    quad_err = abs(float(traj.tau[-1]) - simpson) / abs(simpson)

    # part 2: flat-space v = 0.6c gives dt/dtau = gamma = 1.25, at c = 1 and
    # at c = 3, where a tau off by a power of c shows
    gamma, gamma_err, slope_err = 1.25, 0.0, 0.0
    for cfg_flat, run in flat:
        c = cfg_flat.c
        gamma_err = max(gamma_err, abs(float(run.q[-1, 0]) / (c * float(run.tau[-1])) - gamma))
        by_tau = reparametrize_by_tau(run, num=11)
        slope_err = max(slope_err, float(np.max(np.abs(by_tau.deriv[:, 0] / c - gamma))))
    return (max(quad_err, gamma_err), 1e-6,
            quad_err < 1e-6 and gamma_err < 1e-8 and slope_err < 1e-8,
            f"line-element quadrature {quad_err:.3e} (tol 1e-6); "
            f"gamma endpoint {gamma_err:.3e}, grid slope {slope_err:.3e} at c = 1, 3 (tol 1e-8)")


# --- criterion 8: reduction equivalence ----------------------------------------------


def check_reduction_equivalence():
    (cfg, traj), = _runs("reduction-equivalence")
    sys, s0 = build_system(cfg), traj.state(0)
    by_phi = reparametrize_by_phi(traj, num=41)

    # independent integration of the reduced equations, phi as the parameter:
    # rk4 from grid[0], 12 equal steps to each grid value (ceil(11.5) = 12)
    grid = by_phi.lam
    span, reports = grid[-1] - grid[0], len(grid) - 1
    zs = [np.concatenate([s0.q, s0.p])]

    def rhs(dphi, z, out):
        s = ExtendedState(q=z[0:4], p=z[4:8], phi=grid[0] + dphi)
        out[0:4], out[4:8] = dynamics.reduced_field_phi(sys, s)
        return out

    rk4 = IntegratorConfig(method="rk4", fixed_step=abs(span / reports) / 11.5)
    _run_loop(rhs, zs[0], rk4, span, [], 8, reports=reports,
              on_report=lambda k, dphi, z: zs.append(z.copy()))
    worst = float(np.max(np.abs(np.array(zs) - np.hstack([by_phi.q, by_phi.p]))))
    return worst, 1e-6, worst < 1e-6, "lambda-run resampled in phi vs direct phi-integration"


# --- criterion 9: photon behavior ------------------------------------------------------


def check_photon_behavior():
    # photon-null's own check holds phi frozen, the null shell and tau NaN
    null, _, null_ok, _ = _preset_check("photon-null")
    _, traj = _preset_run("photon-null")
    straight = float(np.max(np.abs(traj.q[:, 1] - traj.lam)))
    raised = False
    try:
        reparametrize_by_phi(traj)
    except NotMonotone:
        raised = True
    return (max(null, straight), 1e-12, null_ok and straight < 1e-9 and raised,
            f"null_check={null_ok} (phi drift, shell {null:.3e}), ray_diff={straight:.3e}, "
            f"phi_reparam_rejected={raised}")


# --- criteria 10/11: kinetic entropy and measure -----------------------------------------


def check_entropy_decay():
    # each gas preset's own check holds its claim on the entropy column:
    # decay-gas falls at its rate, absorbing-gas rises, photon-gas stays frozen
    gases = ("decay-gas", "absorbing-gas", "photon-gas")
    decay_ok, absorbing_ok, photon_ok = (_preset_check(gas)[2] for gas in gases)
    (cfg, (e0, _, rows, _)), (_, (_, _, rows_abs, _)), (_, (_, _, rows_ph, _)) = (
        _preset_run(gas) for gas in gases)
    n, alpha = e0.n, cfg.mass["alpha"]
    lam, weight, entropy_col, rate_col = rows.T
    rate0_err = abs(rate_col[0] - (-4.0 * alpha))

    # empirical slope between reports vs analytic rate at the midpoint, using
    # the exact flat-space solution rate(lam) = -4 alpha / (1 + alpha lam)
    tol_rel = 0.01 + 3.0 / math.sqrt(n)
    worst_rel = 0.0
    for k in range(len(lam) - 1):
        slope = (entropy_col[k + 1] - entropy_col[k]) / (lam[k + 1] - lam[k])
        mid = 0.5 * (lam[k] + lam[k + 1])
        analytic_mid = -4.0 * alpha / (1.0 + alpha * mid)
        worst_rel = max(worst_rel, abs(slope - analytic_mid) / abs(analytic_mid))

    # the rates: growing mass raises entropy; photons and constant mass freeze it
    absorbing_ok = bool(absorbing_ok and rows_abs[0, 3] > 0.0)
    photon_ok = bool(photon_ok and np.max(np.abs(rows_ph[:, 3])) < 1e-12)
    (_, (_, _, rows_cm, _)), = _runs("entropy-decay")
    constant_ok = bool(
        np.max(np.abs(rows_cm[:, 2] - rows_cm[0, 2])) < 1e-12
        and np.max(np.abs(rows_cm[:, 3])) < 1e-12
    )
    passed = (decay_ok and rate0_err < 1e-10 and worst_rel < tol_rel
              and absorbing_ok and photon_ok and constant_ok)
    return (worst_rel, tol_rel, passed,
            f"decay_gas_check={decay_ok}, rate(0)+0.4={rate0_err:.2e}, "
            f"absorbing_increases={absorbing_ok}, photon_frozen={photon_ok}, "
            f"constant_mass_frozen={constant_ok}")


def check_measure_conservation():
    (cfg, (e0, e_end, rows, _)), = _runs("measure-conservation")
    span, alpha = cfg.stop[0]["value"], cfg.mass["alpha"]
    weight_drift = float(np.max(np.abs(rows[:, 1] - rows[0, 1]))) / rows[0, 1]
    # pointwise transport: f(lam)/f(0) = (1 + alpha lam)^4 for every marker
    ratio = e_end.f / e0.f
    target = (1.0 + alpha * span) ** 4
    transport_err = float(np.max(np.abs(ratio - target) / target))
    return (max(weight_drift, transport_err), 1e-6, weight_drift < 1e-8 and transport_err < 1e-6,
            f"weight_drift={weight_drift:.3e} (tol 1e-8) over span {span}, "
            f"f_transport={transport_err:.3e}")


# --- criterion 12: convergence order ------------------------------------------------------


def check_convergence_order():
    hs, errs = [], []
    for cfg, traj in _runs("convergence-order"):
        hs.append(cfg.integrator["fixed_step"])
        q0e, p0e, phie, taue = _decay_closed_form(cfg.stop[0]["value"], cfg.mass["alpha"])
        errs.append(max(abs(traj.q[-1, 0] - q0e), abs(traj.p[-1, 0] - p0e),
                        abs(traj.phi[-1] - phie), abs(traj.tau[-1] - taue)))
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return (slope, 4.0, 3.7 <= slope <= 4.3,
            f"log-log error slope from h={hs} (errors {[f'{e:.2e}' for e in errs]})")


# --- battery -------------------------------------------------------------------------------


CHECKS = (
    ("contact-identities", check_contact_identities),
    ("energy-conservation", check_energy_conservation),
    ("divergence-identity", check_divergence),
    ("geodesic-recovery", check_geodesic_recovery),
    ("newtonian-limit", check_newtonian_limit),
    ("decay-cancellation", check_decay_cancellation),
    ("proper-time", check_proper_time),
    ("reduction-equivalence", check_reduction_equivalence),
    ("photon-behavior", check_photon_behavior),
    ("entropy-decay", check_entropy_decay),
    ("measure-conservation", check_measure_conservation),
    ("convergence-order", check_convergence_order),
)


def _failed(name: str, exc: BaseException) -> CheckResult:
    """The record of a check that raised: a failed check, not a crash of verify."""
    return CheckResult(
        name=name, passed=False, measured=math.nan, tolerance=math.nan,
        detail=f"raised {type(exc).__name__}: {exc}",
    )


def _check_record(perturb_divergence: bool, name: str) -> CheckResult:
    """The record ``name``: a check that CHECKS holds, or "preset:NAME".

    The one place a check is called and its record built, under its catalog
    name; a check that raises gives the failed record of _failed.  CHECKS is
    read at this call, and the divergence check is picked by its name, so a
    catalog whose entries wrap their checks still takes ``perturb``.
    """
    try:
        if name.startswith("preset:"):  # no output file is written
            out = _preset_check(name.removeprefix("preset:"))
        else:
            kwargs = {"perturb": perturb_divergence} if name == "divergence-identity" else {}
            out = dict(CHECKS)[name](**kwargs)
        measured, tolerance, passed, detail = out
    except Exception as exc:
        return _failed(name, exc)
    # a numpy comparison gives numpy.bool_, which json.dumps refuses
    return CheckResult(name, bool(passed), measured, tolerance, detail)


def _tasks(names) -> list[tuple[str, ...]]:
    """Split record names into tasks, each computed by one process.

    Every record is a task of its own, except a preset record whose reader
    (_PRESET_RUNS) is among ``names``: it joins the reader's task, since in
    another worker it would integrate the preset a second time.
    """
    reader = {f"preset:{p}": check for p, (_, check) in _PRESET_RUNS.items() if check in names}
    tasks = {name: [name] for name in names if name not in reader}
    for name in names:
        if name in reader:
            tasks[reader[name]].append(name)
    return [tuple(task) for task in tasks.values()]


def _run_task(perturb_divergence: bool, task) -> list[CheckResult]:
    return [_check_record(perturb_divergence, name) for name in task]


def run_all(perturb_divergence: bool = False, all_presets: bool = False) -> list[CheckResult]:
    """Run the full battery, then with ``all_presets`` every preset record.

    Failures are reported, not raised, and the records come back in catalog
    order.  Each task (see :func:`_tasks`) runs in a worker forked from this
    process, so it sees CHECKS and every other module state as they are at
    this call.  The pool has one worker per usable CPU (a cgroup quota
    counts), no more than there are tasks, and takes the tasks one at a time
    in catalog order.  Workers ignore Ctrl-C, which the caller receives; it
    then waits for the running tasks and drops the rest.  A worker that dies
    fails the records of every task it had not finished, by name.  With one
    task, or where output._fork_context() gives no context (under two usable
    CPUs, no fork, a daemonic caller), the tasks run one after another in
    this process.
    """
    names = [name for name, _ in CHECKS]
    if all_presets:
        names += [f"preset:{name}" for name in PRESETS]
    tasks = _tasks(names)
    run = functools.partial(_run_task, perturb_divergence)
    ctx = output._fork_context() if len(tasks) > 1 else None
    if ctx is None:
        done = list(map(run, tasks))
    else:
        import signal
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(
            min(int(output._usable_cpus()), len(tasks)), mp_context=ctx,
            initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            done = []
            for task, future in zip(tasks, [pool.submit(run, task) for task in tasks]):
                try:
                    done.append(future.result())
                except BrokenProcessPool as exc:
                    done.append([_failed(name, exc) for name in task])
        finally:
            pool.shutdown(cancel_futures=True)
    by_name = {name: r for task, records in zip(tasks, done)
               for name, r in zip(task, records)}
    return [by_name[name] for name in names]
