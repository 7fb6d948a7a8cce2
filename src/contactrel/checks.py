"""Verification battery: the package's acceptance checks as callable functions.

Each check measures a residual against a fixed tolerance, on a scenario it
builds or on a preset's run, and returns a CheckResult.  ``run_all``
executes the full battery, and with ``all_presets`` the "preset:NAME"
record of every bundled preset too, which applies the preset's own check
(``scenario.PRESETS``) to its run, without output files; the CLI ``verify``
command calls it and the acceptance test suite drives the same functions,
so there is a single source of truth for what "working" means.  Every
record reads a preset's run, or its failure, from one cached runner,
``_preset_run``, and no check reads another's result except through that
cache, so ``run_all`` computes the records in forked workers, one per usable
CPU, and returns them in catalog order.

The contact-identity and divergence checks evaluate all random states of a
metric as one (n, .) block through the batched field
(``dynamics._contact_residual_arrays`` and ``_divergence_trace``), not one
state at a time.

Every run in the battery carries a ``max_steps`` of about ten times the
accepted steps it takes when healthy, so a broken field ends in
MaxStepsExceeded, a failed record, instead of stepping on toward the default
budget of 10^6 steps; verify sets a preset's (``_PRESET_RUNS``).

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
from .integrators import (
    IntegratorConfig,
    StopCondition,
    _run_loop,
    geodesic_reference,
    integrate,
    reparametrize_by_phi,
    reparametrize_by_tau,
)
from .scenario import PRESETS, load_scenario, preset_scenario, run_ensemble, run_single

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


def _decay_flat_system(alpha=0.1) -> ContactHamiltonianSystem:
    return ContactHamiltonianSystem(
        metric=geometry.minkowski(),
        mass=MassModel.exp_decay(1.0, alpha, phi0=0.0, c=1.0),
        c=1.0,
    )


def _decay_closed_form(lam, alpha=0.1):
    """Flat space, unit mass at rest, decay rate alpha, c=1 (exact solution)."""
    lam = np.asarray(lam, dtype=float)
    m = 1.0 / (1.0 + alpha * lam)
    phi = -lam / (1.0 + alpha * lam)
    q0 = np.log(1.0 + alpha * lam) / alpha
    p0 = -m
    tau = q0.copy()
    return q0, p0, phi, tau, m


def _orbit_system(gm, c=1.0, mass=None) -> ContactHamiltonianSystem:
    pot, grad = geometry.point_mass_potential(gm)
    return ContactHamiltonianSystem(
        metric=geometry.weak_field(pot, grad, c=c, name=f"weak-field GM={gm}"),
        mass=mass or MassModel.constant(1.0),
        c=c,
    )


# --- preset runs ------------------------------------------------------------------


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


@functools.lru_cache(maxsize=len(_PRESET_RUNS))
def _preset_outcome(name: str):
    """_preset_run's value, or the exception it raises, computed once per process."""
    cfg = preset_scenario(name)
    cfg = replace(cfg, integrator={**cfg.integrator, "max_steps": _PRESET_RUNS[name][0]})
    try:
        return cfg, run_single(cfg) if cfg.kind == "single" else run_ensemble(cfg)
    except Exception as exc:
        return exc


def _preset_run(name: str):
    """(cfg, run): the preset run as ``contactrel run`` or ``ensemble`` runs it.

    The one change is cfg's ``max_steps``, the preset's verify budget.  run
    is run_single's Trajectory, or run_ensemble's (e0, e_end, rows, stats);
    a run that fails is not repeated, and each reader gets its exception.
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


def check_contact_identities() -> CheckResult:
    rng = np.random.default_rng(2024)
    mass = MassModel.exp_decay(1.0, 0.1, phi0=0.0, c=1.0)
    worst_r1 = worst_r2 = 0.0
    for metric in _identity_metrics():
        sys = ContactHamiltonianSystem(metric=metric, mass=mass, c=1.0)
        r1, r2 = dynamics._contact_residual_arrays(sys, *_random_states(rng, 1000))
        worst_r1 = max(worst_r1, float(np.max(r1)))
        worst_r2 = max(worst_r2, float(np.max(r2)))
    passed = worst_r1 < 1e-12 and worst_r2 < 1e-8
    return CheckResult(
        name="contact-identities",
        passed=passed,
        measured=max(worst_r1, worst_r2),
        tolerance=1e-8,
        detail=f"r1_max={worst_r1:.3e} (tol 1e-12), r2_max={worst_r2:.3e} (tol 1e-8)",
    )


# --- criterion 2: energy conservation and shell projection ----------------------


def check_energy_conservation() -> CheckResult:
    cfg, free = _preset_run("decay-flat")
    drift = float(np.max(np.abs(free.ham - free.ham[0])))
    free_shell = float(np.max(np.abs(free.shell)))
    # the same run, projected back onto the shell after every step
    projected = run_single(replace(cfg, integrator={**cfg.integrator, "shell_projection": 1}))
    shell = float(np.max(np.abs(projected.shell)))
    passed = drift < 1e-8 and free_shell < 1e-8 and shell < 1e-12
    return CheckResult(
        name="energy-conservation",
        passed=passed,
        measured=max(drift, shell),
        tolerance=1e-8,
        detail=(
            f"H_drift={drift:.3e} (tol 1e-8), free_shell={free_shell:.3e} (tol 1e-8), "
            f"projected_shell={shell:.3e} (tol 1e-12)"
        ),
    )


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


def check_divergence(perturb: bool = False) -> CheckResult:
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
    return CheckResult(
        name="divergence-identity",
        passed=worst < 1e-6,
        measured=worst,
        tolerance=1e-6,
        detail=f"relative trace mismatch over {n_states} random states"
        + (" [perturbed]" if perturb else ""),
    )


# --- criterion 4: geodesic recovery ----------------------------------------------


def check_geodesic_recovery() -> CheckResult:
    sys = _orbit_system(gm=0.04)
    s0 = dynamics.state_from_velocity(sys, [0, 1, 0, 0], 0.0, [0.0, 0.2, 0.0])
    u0 = dynamics.four_velocity(sys, s0)
    t_end = 31.0  # about one orbital period of the r=1, v=0.2 orbit
    cfg = IntegratorConfig(
        rel_tol=1e-11, abs_tol=1e-13, max_step=0.25, max_steps=2500,
        stop=(StopCondition("tau_reached", t_end),),
    )
    traj = integrate(sys, s0, cfg)
    cfg_geo = IntegratorConfig(
        rel_tol=1e-11, abs_tol=1e-13, max_step=0.25, max_steps=2500,
        stop=(StopCondition("lambda_reached", t_end),),
    )
    geo = geodesic_reference(sys, s0.q, u0, cfg_geo)

    num = 200
    on_tau = reparametrize_by_tau(traj, num=num)
    geo_tau = reparametrize_by_tau(geo, num=num)
    dq = float(np.max(np.abs(on_tau.q - geo_tau.q)))
    # u^mu = g^{mu mu} p_mu / m, dynamics.four_velocity of every sample at once
    g = geometry._values(sys.metric, on_tau.q, on_tau.phi)
    u_contact = g * on_tau.p / sys.mass.value(on_tau.phi)[:, None]
    du = float(np.max(np.abs(u_contact - geo_tau.p)))
    passed = dq < 1e-6
    return CheckResult(
        name="geodesic-recovery",
        passed=passed,
        measured=dq,
        tolerance=1e-6,
        detail=f"sup|q| diff over one orbit; four-velocity diff {du:.3e}",
    )


# --- criterion 5: Newtonian limit -------------------------------------------------


def check_newtonian_limit() -> CheckResult:
    gm, c = 1.0, 1000.0
    sys = _orbit_system(gm=gm, c=c)
    s0 = dynamics.state_from_velocity(sys, [0, 1, 0, 0], 0.0, [0.0, 1.0, 0.0])
    cfg = IntegratorConfig(
        method="rk4", fixed_step=0.02, max_steps=500,
        stop=(StopCondition("lambda_reached", 1.0),),
    )
    traj = integrate(sys, s0, cfg)
    # coordinate velocity v^i = c dq^i/dlam / dq^0/dlam, exact at samples
    v = c * traj.deriv[:, 1:4] / traj.deriv[:, 0:1]
    dt_dlam = traj.deriv[:, 0] / c
    h = float(np.diff(traj.lam)[0])
    # dv/dlam by 4th-order central differences on the uniform lambda grid
    dv = geometry._fd4(v[:-4], v[1:-3], v[3:-1], v[4:], h)
    accel = dv / dt_dlam[2:-2, None]
    _, grad = geometry.point_mass_potential(gm)
    target = -grad(traj.q[2:-2, 1:])
    worst = float(np.max(np.max(np.abs(accel - target), axis=1)
                         / np.max(np.abs(target), axis=1)))
    return CheckResult(
        name="newtonian-limit",
        passed=worst < 1e-4,
        measured=worst,
        tolerance=1e-4,
        detail=f"relative acceleration mismatch, v/c={1.0 / c:.0e}",
    )


# --- criterion 6: decay cancellation ----------------------------------------------


def check_decay_cancellation() -> CheckResult:
    gm, alpha, t_end = 0.05, 0.1, 5.0
    sys_const = _orbit_system(gm=gm, mass=MassModel.constant(1.0))
    sys_decay = _orbit_system(gm=gm, mass=MassModel.exp_decay(1.0, alpha, phi0=0.0, c=1.0))
    s0 = dynamics.state_from_velocity(sys_const, [0, 1, 0, 0], 0.0, [0.0, 0.2, 0.0])
    # both runs start from the same four-velocity (same initial momentum too,
    # since m(0) = 1 for both mass models)
    cfg = IntegratorConfig(
        rel_tol=3e-12, abs_tol=1e-14, max_step=0.15, max_steps=900,
        stop=(StopCondition("tau_reached", t_end),),
    )
    tr_c = reparametrize_by_tau(integrate(sys_const, s0, cfg), num=200)
    tr_d = reparametrize_by_tau(integrate(sys_decay, s0, cfg), num=200)
    dq = float(np.max(np.abs(tr_c.q - tr_d.q)))

    # momentum norm of the decaying run must follow the decay law m(tau)
    pnorm = np.sqrt(-geometry._gpp(geometry._values(sys_decay.metric, tr_d.q, tr_d.phi), tr_d.p))
    target = dynamics.mass_from_tau(sys_decay, 0.0, tr_d.lam)
    dp = float(np.max(np.abs(pnorm - target)))
    passed = dq < 1e-8 and dp < 1e-8
    return CheckResult(
        name="decay-cancellation",
        passed=passed,
        measured=max(dq, dp),
        tolerance=1e-8,
        detail=f"worldline diff {dq:.3e}, momentum-norm diff {dp:.3e}",
    )


# --- criterion 7: time dilation -----------------------------------------------------


def check_proper_time() -> CheckResult:
    # part 1: tau accumulated through the phi relation vs direct quadrature of
    # the metric line element along a curved-space decaying-mass orbit
    sys = _orbit_system(gm=0.05, mass=MassModel.exp_decay(1.0, 0.1, phi0=0.0, c=1.0))
    s0 = dynamics.state_from_velocity(sys, [0, 1, 0, 0], 0.0, [0.0, 0.2, 0.0])
    cfg = IntegratorConfig(
        method="rk4", fixed_step=0.02, max_steps=2500,
        stop=(StopCondition("lambda_reached", 5.0),),
    )
    traj = integrate(sys, s0, cfg)
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
    cfg_flat = IntegratorConfig(max_steps=60, stop=(StopCondition("tau_reached", 2.0),))
    for c in (1.0, 3.0):
        flat = ContactHamiltonianSystem(geometry.minkowski(), MassModel.constant(1.0), c)
        s0f = dynamics.state_from_velocity(flat, [0, 0, 0, 0], 0.0, [0.6 * c, 0.0, 0.0])
        run = integrate(flat, s0f, cfg_flat)
        gamma_err = max(gamma_err, abs(float(run.q[-1, 0]) / (c * float(run.tau[-1])) - gamma))
        by_tau = reparametrize_by_tau(run, num=11)
        slope_err = max(slope_err, float(np.max(np.abs(by_tau.deriv[:, 0] / c - gamma))))
    passed = quad_err < 1e-6 and gamma_err < 1e-8 and slope_err < 1e-8
    return CheckResult(
        name="proper-time",
        passed=passed,
        measured=max(quad_err, gamma_err),
        tolerance=1e-6,
        detail=(
            f"line-element quadrature {quad_err:.3e} (tol 1e-6); "
            f"gamma endpoint {gamma_err:.3e}, grid slope {slope_err:.3e} at c = 1, 3 (tol 1e-8)"
        ),
    )


# --- criterion 8: reduction equivalence ----------------------------------------------


def check_reduction_equivalence() -> CheckResult:
    sys = _orbit_system(gm=0.05, mass=MassModel.exp_decay(1.0, 0.1, phi0=0.0, c=1.0))
    s0 = dynamics.state_from_velocity(sys, [0, 1, 0, 0], 0.0, [0.0, 0.2, 0.0])
    cfg = IntegratorConfig(
        rel_tol=1e-11, abs_tol=1e-13, max_step=0.15, max_steps=600,
        stop=(StopCondition("lambda_reached", 5.0),),
    )
    by_phi = reparametrize_by_phi(integrate(sys, s0, cfg), num=41)

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
    return CheckResult(
        name="reduction-equivalence",
        passed=worst < 1e-6,
        measured=worst,
        tolerance=1e-6,
        detail="lambda-run resampled in phi vs direct phi-integration",
    )


# --- criterion 9: photon behavior ------------------------------------------------------


def check_photon_behavior() -> CheckResult:
    # photon-null's own check holds phi frozen, the null shell and tau NaN
    null, _, null_ok, _ = _preset_check("photon-null")
    _, traj = _preset_run("photon-null")
    straight = float(np.max(np.abs(traj.q[:, 1] - traj.lam)))
    raised = False
    try:
        reparametrize_by_phi(traj)
    except NotMonotone:
        raised = True
    return CheckResult(
        name="photon-behavior",
        passed=null_ok and straight < 1e-9 and raised,
        measured=max(null, straight),
        tolerance=1e-12,
        detail=(
            f"null_check={null_ok} (phi drift, shell {null:.3e}), ray_diff={straight:.3e}, "
            f"phi_reparam_rejected={raised}"
        ),
    )


# --- criteria 10/11: kinetic entropy and measure -----------------------------------------


def check_entropy_decay() -> CheckResult:
    # each gas preset's own check holds its claim on the entropy column:
    # decay-gas falls at its rate, absorbing-gas rises, photon-gas stays frozen
    gases = ("decay-gas", "absorbing-gas", "photon-gas")
    decay_ok, absorbing_ok, photon_ok = (_preset_check(gas)[2] for gas in gases)
    (e0, _, rows, _), (_, _, rows_abs, _), (_, _, rows_ph, _) = (
        _preset_run(gas)[1] for gas in gases)
    n = e0.n
    alpha = 0.1
    lam, weight, entropy_col, rate_col = rows.T
    rate0_err = abs(rate_col[0] - (-0.4))

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
    rows_cm = _constant_mass_gas_rows()
    constant_ok = bool(
        np.max(np.abs(rows_cm[:, 2] - rows_cm[0, 2])) < 1e-12
        and np.max(np.abs(rows_cm[:, 3])) < 1e-12
    )
    passed = (decay_ok and rate0_err < 1e-10 and worst_rel < tol_rel
              and absorbing_ok and photon_ok and constant_ok)
    return CheckResult(
        name="entropy-decay",
        passed=passed,
        measured=worst_rel,
        tolerance=tol_rel,
        detail=(
            f"decay_gas_check={decay_ok}, rate(0)+0.4={rate0_err:.2e}, "
            f"absorbing_increases={absorbing_ok}, photon_frozen={photon_ok}, "
            f"constant_mass_frozen={constant_ok}"
        ),
    )


def _constant_mass_gas_rows() -> np.ndarray:
    return run_ensemble(load_scenario({
        "name": "constant-gas",
        "metric": {"kind": "minkowski"},
        "mass": {"kind": "constant", "m0": 1.0},
        "c": 1.0,
        "initial": {"kind": "ensemble", "n": 2000, "seed": 5,
                    "momentum": {"kind": "gaussian", "mean": [0.0, 0.0, 0.0],
                                 "sigma": [0.2, 0.2, 0.2]}},
        "integrator": {"max_steps": 60},
        "stop": [{"kind": "lambda_reached", "value": 2.0}],
        "outputs": {"reports": 5},
    }))[2]


def check_measure_conservation() -> CheckResult:
    cfg, span = preset_scenario("decay-gas"), 10.0
    e0, e_end, rows, _ = run_ensemble(replace(
        cfg, integrator={**cfg.integrator, "max_steps": 420},
        stop=[{"kind": "lambda_reached", "value": span}],
        outputs={**cfg.outputs, "reports": 20},
    ))
    weight_drift = float(np.max(np.abs(rows[:, 1] - rows[0, 1]))) / rows[0, 1]
    # pointwise transport: f(lam)/f(0) = (1 + alpha lam)^4 for every marker
    alpha = 0.1
    ratio = e_end.f / e0.f
    target = (1.0 + alpha * span) ** 4
    transport_err = float(np.max(np.abs(ratio - target) / target))
    passed = weight_drift < 1e-8 and transport_err < 1e-6
    return CheckResult(
        name="measure-conservation",
        passed=passed,
        measured=max(weight_drift, transport_err),
        tolerance=1e-6,
        detail=(
            f"weight_drift={weight_drift:.3e} (tol 1e-8) over span {span}, "
            f"f_transport={transport_err:.3e}"
        ),
    )


# --- criterion 12: convergence order ------------------------------------------------------


def check_convergence_order() -> CheckResult:
    sys = _decay_flat_system()
    s0 = ExtendedState(q=[0, 0, 0, 0], p=[-1, 0, 0, 0], phi=0.0)
    lam_end = 2.0
    hs = [0.1, 0.05, 0.025]
    errs = []
    for h in hs:
        cfg = IntegratorConfig(
            method="rk4", fixed_step=h, max_steps=round(10 * lam_end / h),
            stop=(StopCondition("lambda_reached", lam_end),),
        )
        traj = integrate(sys, s0, cfg)
        q0e, p0e, phie, taue, _ = _decay_closed_form(lam_end)
        err = max(
            abs(traj.q[-1, 0] - q0e),
            abs(traj.p[-1, 0] - p0e),
            abs(traj.phi[-1] - phie),
            abs(traj.tau[-1] - taue),
        )
        errs.append(err)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    passed = 3.7 <= slope <= 4.3
    return CheckResult(
        name="convergence-order",
        passed=passed,
        measured=slope,
        tolerance=4.0,
        detail=f"log-log error slope from h={hs} (errors {[f'{e:.2e}' for e in errs]})",
    )


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
    """The record ``name``: a check that CHECKS holds, or "preset:NAME"."""
    try:
        if name.startswith("preset:"):  # no output file is written
            measured, tol, passed, detail = _preset_check(name.removeprefix("preset:"))
            r = CheckResult(name, passed, measured, tol, detail)
        else:
            fn = dict(CHECKS)[name]
            r = fn(perturb=perturb_divergence) if fn is check_divergence else fn()
    except Exception as exc:
        return _failed(name, exc)
    return replace(r, passed=bool(r.passed))  # a numpy comparison gives numpy.bool_


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
