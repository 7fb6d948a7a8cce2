"""Adaptive/fixed stepping, event location, and reparametrization.

The flat-space decaying-mass rest particle has a closed-form solution
(unit starting mass, rate 0.1, c = 1):

    m(lam)   = 1 / (1 + 0.1 lam)
    phi(lam) = -lam / (1 + 0.1 lam)
    q0(lam)  = tau(lam) = 10 ln(1 + 0.1 lam)
    p0(lam)  = -m(lam)

which pins down endpoints, event locations, and resampled values exactly.
"""

from __future__ import annotations

import dataclasses
import math
import mmap
import os
import subprocess
import tracemalloc
from pathlib import Path
from sys import executable

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactrel import (
    ContactHamiltonianSystem,
    ContactRelError,
    Ensemble,
    EntropyFunctional,
    ExtendedState,
    IntegratorConfig,
    MasslessProjection,
    MassModel,
    MaxStepsExceeded,
    StepSizeUnderflow,
    StopCondition,
    Trajectory,
    TransversalityFailure,
    ensemble_series,
    expression_metric,
    geodesic_reference,
    integrate,
    minkowski,
    point_mass_potential,
    reparametrize_by_phi,
    reparametrize_by_tau,
    solve_p0_on_shell,
    state_from_velocity,
    uniform_gradient_potential,
    weak_field,
)
from contactrel import dynamics, geometry, integrators
from contactrel.checks import WAVY_DIAG
from contactrel.integrators import (
    _dp_dense,
    _dp_step,
    _error_norm,
    _hermite_eval,
    _hermite_slope,
    _rk4_step,
    advance_batch,
)

ALPHA = 0.1


def _marker_rows(q, p):
    """An ensemble's (9, n) rows of markers at q (n, 4), p (n, 4) and phi = 0."""
    return np.concatenate([q.T, p.T, np.zeros((1, len(q)))])


def _decay_sys():
    return ContactHamiltonianSystem(
        metric=minkowski(), mass=MassModel.exp_decay(1.0, ALPHA), c=1.0
    )


def _rest_state():
    return ExtendedState(q=[0, 0, 0, 0], p=[-1, 0, 0, 0], phi=0.0)


def _closed_form(lam):
    m = 1.0 / (1.0 + ALPHA * lam)
    return {
        "m": m,
        "phi": -lam / (1.0 + ALPHA * lam),
        "q0": math.log(1.0 + ALPHA * lam) / ALPHA,
        "p0": -m,
        "tau": math.log(1.0 + ALPHA * lam) / ALPHA,
    }


def _stop(kind, value, axis=0):
    return (StopCondition(kind, value, axis=axis),)


# --- basic stepping -------------------------------------------------------------


def test_rk45_endpoint_matches_closed_form():
    traj = integrate(
        _decay_sys(), _rest_state(),
        IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, stop=_stop("lambda_reached", 10.0)),
    )
    ref = _closed_form(10.0)
    assert traj.lam[-1] == 10.0  # exact landing
    assert traj.q[-1, 0] == pytest.approx(ref["q0"], abs=1e-10)
    assert traj.p[-1, 0] == pytest.approx(ref["p0"], abs=1e-10)
    assert traj.phi[-1] == pytest.approx(ref["phi"], abs=1e-10)
    assert traj.tau[-1] == pytest.approx(ref["tau"], abs=1e-10)
    assert traj.parameter == "lambda"
    assert traj.metadata["on_shell_start"] is True
    assert traj.metadata["termination"]["reason"] == "lambda_reached"


def test_rk4_fixed_step_grid():
    traj = integrate(
        _decay_sys(), _rest_state(),
        IntegratorConfig(method="rk4", fixed_step=0.25, stop=_stop("lambda_reached", 1.0)),
    )
    assert len(traj) == 5
    assert np.array_equal(traj.lam, [0.0, 0.25, 0.5, 0.75, 1.0])
    ref = _closed_form(1.0)
    # classic RK4 at h = 0.25: global error ~ 2e-8 on this problem
    assert traj.q[-1, 0] == pytest.approx(ref["q0"], abs=1e-7)


def test_adaptive_respects_max_step():
    traj = integrate(
        _decay_sys(), _rest_state(),
        IntegratorConfig(max_step=0.3, stop=_stop("lambda_reached", 5.0)),
    )
    assert np.max(np.diff(traj.lam)) <= 0.3 + 1e-12


def test_max_steps_exceeded():
    with pytest.raises(MaxStepsExceeded):
        integrate(
            _decay_sys(), _rest_state(),
            IntegratorConfig(max_steps=3, max_step=0.1, stop=_stop("lambda_reached", 10.0)),
        )


def test_lambda_column_strictly_increasing():
    traj = integrate(
        _decay_sys(), _rest_state(),
        IntegratorConfig(stop=_stop("lambda_reached", 4.0)),
    )
    assert np.all(np.diff(traj.lam) > 0)
    assert traj.metadata["steps_accepted"] >= len(traj) - 1


def test_shell_projection_keeps_samples_on_shell():
    traj = integrate(
        _decay_sys(), _rest_state(),
        IntegratorConfig(shell_projection=3, stop=_stop("lambda_reached", 10.0)),
    )
    assert np.max(np.abs(traj.shell)) < 1e-13



def _off(y, exact):
    """max |y - exact| / max(1, |exact|) over the non-NaN entries of exact."""
    held = ~np.isnan(exact)
    return float(np.max(np.abs(y[held] - exact[held]) / np.maximum(1.0, np.abs(exact[held]))))


@st.composite
def _flat_starts(draw):
    """(system, start rows (10, k) on its shell, span): k markers of one flat system.

    The mass is a photon's, or m0 with slope s of either sign or 0, at c;
    x = s c^2 m0 lam stays within +-0.5 over the span, so 1 + x keeps clear of 0.
    """
    c, span, phi0 = draw(st.floats(0.5, 3.0)), draw(st.floats(0.05, 2.0)), draw(st.floats(-1.0, 1.0))
    if draw(st.booleans()):
        mass = MassModel.zero()
    else:
        m0, x_end = draw(st.floats(0.2, 3.0)), draw(st.just(0.0) | st.floats(-0.5, 0.5))
        mass = MassModel.exp_decay(m0, x_end / (m0 * span), phi0=phi0, c=c)
    sys = ContactHamiltonianSystem(metric=minkowski(), mass=mass, c=c)
    p_spatial = np.array(draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
                                       min_size=1, max_size=3)))
    assume(np.all(np.linalg.norm(p_spatial, axis=1) > 0.1))  # a photon has no rest frame
    k = len(p_spatial)
    q = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)))
    y0 = np.empty((10, k))
    y0[0:4] = q[:, None]
    y0[4:8] = solve_p0_on_shell(sys, np.tile(q, (k, 1)), np.full(k, phi0), p_spatial).T
    y0[8] = phi0
    y0[9] = np.linspace(-1.0, 1.0, k)  # ln f
    return sys, y0, span


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_flat_starts())
def test_stepper_runs_on_the_closed_form_of_flat_systems(case):
    # differential testing of both run paths against the exact solution,
    # dynamics._closed_form: a run by integrate at every sample, and a block
    # by _advance_block at its end
    sys, y0, span = case
    cfg = IntegratorConfig(stop=_stop("lambda_reached", span))
    s0 = ExtendedState(q=y0[0:4, 0], p=y0[4:8, 0], phi=y0[8, 0])
    traj = integrate(sys, s0, cfg)
    assert traj.lam[-1] == span
    assert _off(traj.y.T, dynamics._closed_form(sys, traj.y[0], traj.lam, "tau")) < 1e-9
    ends = []
    integrators._advance_block(sys, y0.copy(), span, 1, cfg,
                               lambda k, lam, y: ends.append(y.copy()))
    assert _off(ends[0], dynamics._closed_form(sys, y0, span, "ln_f")) < 1e-9


# --- event location --------------------------------------------------------------


def test_phi_reached_event_closed_form():
    target = -0.5
    lam_star = -target / (1.0 + ALPHA * target)  # 0.5263157894736842
    traj = integrate(
        _decay_sys(), _rest_state(),
        IntegratorConfig(max_step=0.05, stop=_stop("phi_reached", target)),
    )
    assert traj.metadata["termination"]["reason"] == "phi_reached"
    assert traj.phi[-1] == pytest.approx(target, abs=1e-12)
    assert traj.lam[-1] == pytest.approx(lam_star, abs=1e-8)


def test_tau_reached_event_closed_form():
    lam_star = (math.exp(ALPHA) - 1.0) / ALPHA  # tau = 1
    traj = integrate(
        _decay_sys(), _rest_state(),
        IntegratorConfig(max_step=0.05, stop=_stop("tau_reached", 1.0)),
    )
    assert traj.tau[-1] == pytest.approx(1.0, abs=1e-12)
    assert traj.lam[-1] == pytest.approx(lam_star, abs=1e-8)
    assert traj.q[-1, 0] == pytest.approx(1.0, abs=1e-9)  # rest particle: t = tau


def test_mass_floor_event_closed_form():
    # m = 0.8 at phi = -2, i.e. lam = 2.5
    traj = integrate(
        _decay_sys(), _rest_state(),
        IntegratorConfig(max_step=0.05, stop=_stop("mass_floor", 0.8)),
    )
    assert traj.metadata["termination"]["reason"] == "mass_floor"
    assert traj.phi[-1] == pytest.approx(-2.0, abs=1e-9)
    assert traj.lam[-1] == pytest.approx(2.5, abs=1e-8)


def test_coordinate_bound_event_exact_for_linear_motion():
    sys = ContactHamiltonianSystem(
        metric=minkowski(), mass=MassModel.constant(1.0), c=1.0
    )
    s0 = state_from_velocity(sys, [0, 0, 0, 0], 0.0, [0.6, 0.0, 0.0])
    traj = integrate(
        sys, s0,
        IntegratorConfig(stop=_stop("coordinate_bound", 1.5, axis=1)),
    )
    # q1 = 0.75 lam exactly, so the crossing sits at lam = 2
    assert traj.metadata["termination"]["reason"] == "coordinate_bound"
    assert traj.q[-1, 1] == pytest.approx(1.5, abs=1e-12)
    assert traj.lam[-1] == pytest.approx(2.0, abs=1e-10)


def test_earliest_stop_wins():
    traj = integrate(
        _decay_sys(), _rest_state(),
        IntegratorConfig(
            max_step=0.05,
            stop=(
                StopCondition("lambda_reached", 10.0),
                StopCondition("phi_reached", -0.5),
                StopCondition("mass_floor", 0.8),
            ),
        ),
    )
    assert traj.metadata["termination"]["reason"] == "phi_reached"
    assert traj.lam[-1] < 0.6


def test_earliest_of_several_crossings_in_one_step_wins():
    # the first rk4 step (lam 0 -> 2, phi 0 -> -1.67) crosses phi = -0.5 and
    # the floor m = 0.96 at phi = -0.4; the floor, listed last, comes first
    traj = integrate(
        _decay_sys(), _rest_state(),
        IntegratorConfig(
            method="rk4", fixed_step=2.0,
            stop=(
                StopCondition("lambda_reached", 10.0),
                StopCondition("phi_reached", -0.5),
                StopCondition("mass_floor", 0.96),
            ),
        ),
    )
    assert len(traj) == 2
    assert traj.metadata["termination"]["reason"] == "mass_floor"
    assert traj.phi[-1] == pytest.approx(-0.4, abs=1e-12)


@pytest.mark.parametrize("kind, value", [
    ("lambda_reached", 0.0), ("lambda_reached", -1.0), ("lambda_reached", math.nan),
    ("phi_reached", math.nan), ("tau_reached", math.inf), ("mass_floor", -math.inf),
])
def test_stop_condition_refuses_values_no_run_can_reach(kind, value):
    # the scenario loader refuses these too; a run used to fail late or go backward in lambda
    with pytest.raises(ValueError):
        StopCondition(kind, value)


@pytest.mark.parametrize("max_step", [0.0, -0.5, math.nan])
def test_integrator_config_refuses_a_non_positive_max_step(max_step):
    # -0.5 used to end in StepSizeUnderflow("step size -inf ...") after a RuntimeWarning
    with pytest.raises(ValueError, match="max_step"):
        IntegratorConfig(max_step=max_step)


@pytest.mark.parametrize("value, name", [
    *((value, name) for value in (math.nan, math.inf, 0.0, -1e-10)
      for name in ("rel_tol", "abs_tol", "fixed_step")),
    (0, "max_steps"), (-1, "max_steps"), (-3, "shell_projection"),
    (2.5, "max_steps"), (0.5, "shell_projection"), (True, "max_steps"),
])
def test_integrator_config_refuses_a_tolerance_or_step_that_is_not_finite_and_positive(name, value):
    # NaN passed a test of <= 0: a nan tolerance ended in a StepSizeUnderflow
    # that blamed the field, an inf one in a RuntimeWarning, and rk4 with an
    # inf fixed_step in NaN states and a TransversalityFailure; max_steps 0
    # or -1 ended in MaxStepsExceeded before the first step, and a negative
    # shell_projection ran as 0 in silence.  A count that is not an int was
    # taken as one: shell_projection 0.5 projected after every step, and
    # max_steps 2.5 raised "exceeded 2.5 accepted steps"
    method = "rk4" if name == "fixed_step" else "rk45"
    with pytest.raises(ValueError, match=name):
        IntegratorConfig(**{"method": method, "fixed_step": 0.1, name: value})


@pytest.mark.parametrize("min_step", [0.0, -1.0, math.nan])
def test_integrator_config_refuses_a_non_positive_min_step(min_step):
    # with min_step 0 a run whose steps are all rejected shrank h to 0 and
    # retried forever
    with pytest.raises(ValueError, match="min_step"):
        IntegratorConfig(min_step=min_step)


def test_trajectory_refuses_samples_that_do_not_match_its_lambda():
    # 3 rows of y for 4 lambda values were accepted, and reparametrize_by_phi
    # then reported a misleading NotMonotone
    n = 4
    ok = dict(lam=np.arange(float(n)), y=np.zeros((n, 10)), deriv=np.zeros((n, 10)),
              shell=np.zeros(n))
    assert len(Trajectory(**ok)) == n
    for name, bad in (("y", np.zeros((3, 10))), ("y", np.zeros((10, n))),
                      ("deriv", np.zeros((n, 9))), ("shell", np.zeros(3)),
                      ("shell", np.zeros((n, 1)))):
        with pytest.raises(ValueError, match=r"of 4 samples takes y and deriv \(n, 10\)"):
            Trajectory(**{**ok, name: bad})


def test_a_photon_run_steps_its_nan_tau_row(monkeypatch):
    # one (10,) state for every mass: the field fills a photon's tau row with
    # NaN, and the trajectory keeps the stepper's samples and derivatives
    calls, recorded = set(), []
    block_field, run_recorded = integrators._block_field, integrators._run_recorded

    def field(sys_, y, quadrature, out):
        calls.add((y.shape, quadrature))
        return block_field(sys_, y, quadrature, out)

    def record(*args, **kwargs):
        recorded.append(run_recorded(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(integrators, "_block_field", field)
    monkeypatch.setattr(integrators, "_run_recorded", record)
    sys = ContactHamiltonianSystem(metric=expression_metric(WAVY_DIAG), mass=MassModel.zero())
    s0 = ExtendedState(q=np.zeros(4), p=solve_p0_on_shell(sys, np.zeros(4), 0.0, [1.0, 0.0, 0.0]),
                       phi=0.0)
    traj = integrate(sys, s0, IntegratorConfig(stop=_stop("lambda_reached", 3.0)))
    assert calls == {((10,), "tau")}
    _, ys, fs, _, _ = recorded[0]
    assert traj.y is ys and traj.deriv is fs and ys.shape == (len(traj), 10)
    assert np.all(np.isnan(traj.tau)) and np.all(np.isnan(traj.deriv[:, 9]))
    assert np.all(np.isfinite(traj.y[:, 0:9])) and np.all(np.isfinite(traj.deriv[:, 0:9]))


def test_step_below_min_step_ends_in_step_size_underflow():
    # a slow fall from r = 0.05 onto the unsoftened point mass: the default
    # min_step takes 6936 steps over the span, min_step 1e-3 stops at the first
    # step it would have to shrink below that
    sys = ContactHamiltonianSystem(
        metric=weak_field(*point_mass_potential(1.0), c=1.0), mass=MassModel.constant(1.0), c=1.0)
    s0 = state_from_velocity(sys, [0.0, 0.05, 0.0, 0.0], 0.0, [0.0, 0.2, 0.0])
    cfg = IntegratorConfig(min_step=1e-3, stop=_stop("lambda_reached", 1.0))
    with pytest.raises(StepSizeUnderflow,
                       match=r"^step size 2\.469e-04 fell below min_step=1\.000e-03$"):
        integrate(sys, s0, cfg)


def test_mass_floor_of_a_constant_mass_is_no_event():
    sys = ContactHamiltonianSystem(metric=minkowski(), mass=MassModel.constant(1.0), c=1.0)
    # alone it is no stop at all, refused before the first step
    with pytest.raises(ValueError, match="no usable stop condition"):
        integrate(sys, _rest_state(), IntegratorConfig(max_steps=50, stop=_stop("mass_floor", 0.5)))
    # a floor at the constant mass itself never fires either
    traj = integrate(
        sys, _rest_state(),
        IntegratorConfig(stop=(StopCondition("mass_floor", 1.0),
                               StopCondition("lambda_reached", 2.0))),
    )
    assert traj.metadata["termination"]["reason"] == "lambda_reached"


# --- reparametrization ----------------------------------------------------------------


def test_reparametrize_by_phi_interior_closed_form():
    traj = integrate(
        _decay_sys(), _rest_state(),
        IntegratorConfig(stop=_stop("lambda_reached", 10.0)),
    )
    by_phi = reparametrize_by_phi(traj, num=21)
    assert by_phi.parameter == "phi"
    assert by_phi.lam[0] == traj.phi[0]
    assert by_phi.lam[-1] == traj.phi[-1]
    for k in range(21):
        phi = by_phi.lam[k]
        lam = -phi / (1.0 + ALPHA * phi)
        ref = _closed_form(lam)
        assert by_phi.q[k, 0] == pytest.approx(ref["q0"], abs=1e-6)
        assert by_phi.p[k, 0] == pytest.approx(ref["p0"], abs=1e-6)
        assert by_phi.tau[k] == pytest.approx(ref["tau"], abs=1e-6)
    # the resampled derivative column is d phi / d phi = 1
    assert np.allclose(by_phi.deriv[:, 8], 1.0)


@pytest.mark.parametrize("c", [1.0, 3.0])
def test_reparametrize_by_tau_uniform_motion(c):
    # v = 0.6 c: q^0 = c gamma tau and q^1 = 0.6 c gamma tau; at c != 1 a proper
    # time d tau = -d phi / (m c^2) that is short of a factor of c shows
    sys = ContactHamiltonianSystem(
        metric=minkowski(), mass=MassModel.constant(1.0), c=c
    )
    s0 = state_from_velocity(sys, [0, 0, 0, 0], 0.0, [0.6 * c, 0.0, 0.0])
    traj = integrate(sys, s0, IntegratorConfig(stop=_stop("lambda_reached", 4.0)))
    by_tau = reparametrize_by_tau(traj, num=9)
    gamma = 1.25
    assert by_tau.parameter == "tau"
    assert np.allclose(np.diff(by_tau.lam), by_tau.lam[1] - by_tau.lam[0])
    assert np.max(np.abs(by_tau.q[:, 0] - c * gamma * by_tau.lam)) < 1e-9
    assert np.max(np.abs(by_tau.q[:, 1] - 0.6 * c * gamma * by_tau.lam)) < 1e-9


@pytest.mark.parametrize("num", [0, 1])
def test_resample_rejects_grids_below_two_points(num):
    # a 1-point grid would pair the first sample's values with the last
    # sample's derivative row
    traj = integrate(
        _decay_sys(), _rest_state(),
        IntegratorConfig(stop=_stop("lambda_reached", 10.0)),
    )
    for resample in (reparametrize_by_phi, reparametrize_by_tau):
        with pytest.raises(ValueError, match="at least 2 points"):
            resample(traj, num=num)
    assert len(reparametrize_by_tau(traj, num=None)) == len(traj)
    assert len(reparametrize_by_tau(traj, num=2)) == 2


def test_reparametrize_by_tau_massless_rejected():
    sys = ContactHamiltonianSystem(metric=minkowski(), mass=MassModel.zero(), c=1.0)
    p = solve_p0_on_shell(sys, np.zeros(4), 0.0, [1.0, 0.0, 0.0])
    traj = integrate(
        sys, ExtendedState(q=[0, 0, 0, 0], p=p, phi=0.0),
        IntegratorConfig(stop=_stop("lambda_reached", 2.0)),
    )
    with pytest.raises(MasslessProjection):
        reparametrize_by_tau(traj)


def _pointwise_resample(traj, col, num):
    """Reference: bisect one interior grid point at a time (the scalar loop)."""
    vals = np.column_stack([traj.q, traj.p, traj.phi, traj.tau])
    s = vals[:, col]
    direction = 1.0 if s[-1] > s[0] else -1.0
    out_vals, out_der, out_lam = [], [], []
    for target in np.linspace(s[0], s[-1], num)[1:-1]:
        i = int(np.searchsorted(s * direction, target * direction, side="right")) - 1
        i = min(max(i, 0), len(s) - 2)
        h = traj.lam[i + 1] - traj.lam[i]
        y0, y1, f0, f1 = vals[i], vals[i + 1], traj.deriv[i], traj.deriv[i + 1]
        a, b, ga = 0.0, 1.0, s[i] - target
        for _ in range(80):
            mid = 0.5 * (a + b)
            gm = _hermite_eval(y0[col], y1[col], f0[col], f1[col], h, mid) - target
            if gm == 0.0:
                a = b = mid
                break
            if (ga < 0) != (gm < 0):
                b = mid
            else:
                a, ga = mid, gm
            if b - a < 1e-16:
                break
        t = 0.5 * (a + b)
        y = _hermite_eval(y0, y1, f0, f1, h, t)
        y[col] = target
        d = _hermite_slope(y0, y1, f0, f1, h, t)
        d = d / d[col]
        d[col] = 1.0
        out_vals.append(y)
        out_der.append(d)
        out_lam.append(traj.lam[i] + t * h)
    return np.array(out_vals), np.array(out_der), np.array(out_lam)


@pytest.mark.parametrize("num", [3, 41, 200])
def test_resample_matches_pointwise_bisection(num):
    # the vectorised bisection does the scalar loop's arithmetic, so the
    # interior samples agree to the last bit
    sys = ContactHamiltonianSystem(
        metric=weak_field(*point_mass_potential(0.05)),
        mass=MassModel.exp_decay(1.0, ALPHA), c=1.0,
    )
    s0 = state_from_velocity(sys, [0, 1, 0, 0], 0.0, [0.0, 0.2, 0.0])
    traj = integrate(sys, s0, IntegratorConfig(max_step=0.15, stop=_stop("lambda_reached", 5.0)))
    for resample, col in ((reparametrize_by_tau, 9), (reparametrize_by_phi, 8)):
        out = resample(traj, num=num)
        vals, der, lam = _pointwise_resample(traj, col, num)
        assert np.array_equal(out.y[1:-1], vals)
        assert np.array_equal(out.deriv[1:-1], der)
        assert np.array_equal(out.metadata["lambda_of_parameter"][1:-1], lam)


def test_trajectory_state_accessor():
    traj = integrate(
        _decay_sys(), _rest_state(),
        IntegratorConfig(stop=_stop("lambda_reached", 1.0)),
    )
    s = traj.state(0)
    assert isinstance(s, ExtendedState)
    assert np.array_equal(s.p, [-1, 0, 0, 0])
    # each sample is held once: q, p, phi and tau are views of y, H is shell / 2
    assert [f.name for f in dataclasses.fields(traj)] == [
        "lam", "y", "deriv", "shell", "parameter", "metadata"]
    for view, rows in ((traj.q, slice(0, 4)), (traj.p, slice(4, 8)), (traj.phi, 8), (traj.tau, 9)):
        assert np.shares_memory(view, traj.y) and np.array_equal(view, traj.y[:, rows])
    assert traj.ham.tobytes() == (0.5 * traj.shell).tobytes()


# --- batched stepping -------------------------------------------------------------------


def test_advance_batch_matches_integrate():
    sys = _decay_sys()
    y0 = np.zeros((3, 10))
    y0[:, 4] = [-1.0, -1.2, -1.5]  # three rest-like markers, different p0
    y0[:, 9] = 0.0
    out, steps = advance_batch(sys, y0, 3.0, IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13))
    assert steps > 0
    for i in range(3):
        s0 = ExtendedState(q=y0[i, 0:4], p=y0[i, 4:8], phi=float(y0[i, 8]))
        traj = integrate(
            sys, s0,
            IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, stop=_stop("lambda_reached", 3.0)),
        )
        assert np.max(np.abs(out[i, 0:4] - traj.q[-1])) < 1e-9
        assert np.max(np.abs(out[i, 4:8] - traj.p[-1])) < 1e-9
        assert abs(out[i, 8] - traj.phi[-1]) < 1e-9


@pytest.mark.parametrize("metric, mass", [
    (minkowski, MassModel.exp_decay(1.0, ALPHA)),
    (lambda: expression_metric(WAVY_DIAG), MassModel.constant(1.0)),
], ids=["minkowski-decay", "wavy-constant"])
def test_a_block_of_copies_takes_the_single_run_step_sequence(metric, mass):
    # one step policy: a block of identical markers is seeded and controlled
    # like the state it copies, so both take the same steps (rejected ones
    # too: 2 on the wavy metric) to the same bits
    sys = ContactHamiltonianSystem(metric=metric(), mass=mass, c=1.0)
    q = np.array([0.0, 0.3, -0.2, 0.1])
    p = solve_p0_on_shell(sys, q, 0.0, [1.0, -0.5, 0.8])
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, stop=_stop("lambda_reached", 5.0))
    traj = integrate(sys, ExtendedState(q=q, p=p, phi=0.0), cfg)
    n = 7
    e = Ensemble(sys=sys, lam=0.0, y=_marker_rows(np.tile(q, (n, 1)), np.tile(p, (n, 1))),
                 w=np.ones(n), f=np.ones(n))
    end, _, stats = ensemble_series(e, 5.0, 1, EntropyFunctional.shannon_boltzmann(), cfg)
    assert stats["steps_accepted"] == traj.metadata["steps_accepted"]
    assert stats["steps_rejected"] == traj.metadata["steps_rejected"]
    for i in range(n):
        assert np.array_equal(end.q[i], traj.q[-1])
        assert np.array_equal(end.p[i], traj.p[-1])
        assert end.phi[i] == traj.phi[-1]


def test_dense_reports_are_handed_on_as_they_are_read(monkeypatch):
    # a long rk45 step passes many reports of a massless gas; each must reach
    # on_report before the next is read, so no report waits in a list
    reads = []
    dense = integrators._dp_dense

    def counted(*args):
        reads.append(None)
        return dense(*args)

    monkeypatch.setattr(integrators, "_dp_dense", counted)
    sys = ContactHamiltonianSystem(metric=minkowski(), mass=MassModel.zero(), c=1.0)
    n, reports = 100, 50
    q = np.zeros((n, 4))
    p = solve_p0_on_shell(sys, q, np.zeros(n), np.random.default_rng(5).normal(size=(n, 3)))
    e = Ensemble(sys=sys, lam=0.0, y=_marker_rows(q, p), w=np.ones(n), f=np.ones(n))
    seen = []
    _, _, stats = ensemble_series(e, 5.0, reports, EntropyFunctional.shannon_boltzmann(),
                                  on_report=lambda k, cur: seen.append((k, len(reads))))
    assert stats["steps_accepted"] < reports // 2  # steps pass several reports each
    # report 0 is the start, report k < reports the k-th dense read, and the
    # last lands on the span end
    assert seen == [(k, min(k, reports - 1)) for k in range(reports + 1)]


def test_advance_batch_round_trip():
    sys = _decay_sys()
    y0 = np.zeros((2, 10))
    y0[:, 4] = [-1.0, -1.3]
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    mid, _ = advance_batch(sys, y0, 2.0, cfg)
    back, _ = advance_batch(sys, mid, -2.0, cfg)
    assert np.max(np.abs(back - y0)) < 1e-8


def test_advance_batch_rk4_mode():
    sys = _decay_sys()
    y0 = np.zeros((1, 10))
    y0[0, 4] = -1.0
    out, steps = advance_batch(
        sys, y0, 1.0, IntegratorConfig(method="rk4", fixed_step=0.05)
    )
    assert steps == 20
    ref = _closed_form(1.0)
    assert out[0, 8] == pytest.approx(ref["phi"], abs=1e-9)


def test_rk4_equal_steps_shared_by_integrate_and_advance_batch():
    # span 1.0 with fixed_step 0.3 becomes ceil(1/0.3) = 4 equal steps of 0.25
    # on both paths, which then agree to the last bit
    sys = _decay_sys()
    cfg = IntegratorConfig(method="rk4", fixed_step=0.3, stop=_stop("lambda_reached", 1.0))
    traj = integrate(sys, _rest_state(), cfg)
    assert traj.metadata["steps_accepted"] == 4
    assert np.array_equal(np.diff(traj.lam), [0.25] * 4)
    y0 = np.zeros((1, 10))
    y0[0, 4] = -1.0
    out, steps = advance_batch(sys, y0, 1.0, cfg)
    assert steps == 4
    assert np.array_equal(out[0, 0:4], traj.q[-1])
    assert np.array_equal(out[0, 4:8], traj.p[-1])
    assert out[0, 8] == traj.phi[-1]


def test_rk4_field_evaluations_per_step(monkeypatch):
    # advance_batch reads no field value after its last step: 4 evaluations
    # per step.  integrate keeps the end derivative as its last deriv row.
    calls = []
    field = integrators._field_rows

    def counted(*args):
        calls.append(1)
        return field(*args)

    monkeypatch.setattr(integrators, "_field_rows", counted)
    sys = _decay_sys()
    cfg = IntegratorConfig(method="rk4", fixed_step=0.25, stop=_stop("lambda_reached", 1.0))
    y0 = np.zeros((3, 10))
    y0[:, 4] = [-1.0, -1.2, -1.5]
    _, steps = advance_batch(sys, y0, 1.0, cfg)
    assert (steps, len(calls)) == (4, 16)

    calls.clear()
    traj = integrate(sys, _rest_state(), cfg)
    assert len(calls) == 4 * 4 + 1
    dq, dp, dphi, _ = dynamics._field_arrays(sys, traj.q[-1:], traj.p[-1:], traj.phi[-1:])
    assert np.array_equal(traj.deriv[-1, 0:9], np.concatenate([dq[0], dp[0], dphi]))


def _dp(rhs, y, h):
    """One _dp_step from y at lam = 0, in fresh buffers; returns (y5, ks, err)."""
    ks = [np.empty_like(y) for _ in range(7)]
    yi, y5 = np.empty_like(y), np.empty_like(y)
    rhs(0.0, y, ks[0])
    err = _dp_step(rhs, 0.0, y, h, ks, yi, y5, len(y), slice(None))
    return y5, ks, err


def _dense(y, h, ks, theta):
    return _dp_dense(y, h, ks, theta, np.empty_like(y))


def _wavy_rhs(lam, y, out):
    return np.subtract(np.cos(y), 0.1 * y, out=out)


def test_dp_step_fsal_stage_owns_its_memory():
    # The FSAL stage is carried to the next step as its f; the run's buffers
    # are separate arrays, so none of them is a view into a stage stack that
    # would keep the others alive, and no write of the step lands in another.
    y = np.linspace(0.0, 1.0, 30).reshape(3, 10)
    ks = [np.empty_like(y) for _ in range(7)]
    yi, y5 = np.empty_like(y), np.empty_like(y)
    _wavy_rhs(0.0, y, ks[0])
    err = _dp_step(_wavy_rhs, 0.0, y, 0.1, ks, yi, y5, 3, slice(None))
    buffers = [yi, y5, *ks]
    assert all(b.base is None and b.shape == y.shape for b in buffers)
    buffers.append(y)
    assert np.shares_memory(err, yi) and err.shape == y.shape
    assert not any(np.shares_memory(a, b) for i, a in enumerate(buffers) for b in buffers[i + 1:])
    assert np.array_equal(ks[6], np.cos(y5) - 0.1 * y5)


def _reference_rk4_step(rhs, lam, y, h):
    """The textbook RK4 step, a new array per stage input and per term."""
    k1 = rhs(lam, y, np.empty_like(y))
    k2 = rhs(lam + 0.5 * h, y + 0.5 * h * k1, np.empty_like(y))
    k3 = rhs(lam + 0.5 * h, y + 0.5 * h * k2, np.empty_like(y))
    k4 = rhs(lam + h, y + h * k3, np.empty_like(y))
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("massive, shape", [(False, (10,)), (True, (10,)), (True, (10, 10_000))],
                         ids=["photon", "massive", "block"])
def test_rk4_step_in_buffers_is_the_textbook_step_bit_for_bit(massive, shape):
    # a photon state with its NaN tau row, a massive state with its tau row
    # and a marker block, through the block field scaled by (1 + lam), so
    # that stage times count
    mass = MassModel.exp_decay(1.0, ALPHA, c=1.7) if massive else MassModel.zero()
    sys = ContactHamiltonianSystem(metric=expression_metric(WAVY_DIAG), mass=mass, c=1.7)
    quadrature = "tau" if len(shape) == 1 else "ln_f"

    def rhs(lam, y, out):
        integrators._block_field(sys, y, quadrature, out)
        out *= 1.0 + lam
        return out

    rng = np.random.default_rng(len(shape))
    y = rng.normal(0.0, 0.3, size=shape)
    y[4] -= 2.0
    keep = y.copy()
    for lam, h in ((0.0, 0.3), (0.7, -0.05)):
        ks = [np.full_like(y, np.nan) for _ in range(4)]
        yi, y5 = np.full_like(y, np.nan), np.full_like(y, np.nan)
        rhs(lam, y, ks[0])
        # stage inputs on the rows a gradient metric's field reads: the NaN
        # left in yi's row 9 is never read
        assert _rk4_step(rhs, lam, y, h, ks, yi, y5, slice(0, 9)) is y5
        ref = _reference_rk4_step(rhs, lam, y, h)
        assert np.all(np.isfinite(ref[0:9])) and np.all(np.isfinite(ref[9]) == massive)
        # a photon's tau row is NaN, whose sign bit says nothing
        assert np.array_equal(np.signbit(y5[0:9]), np.signbit(ref[0:9]))
        assert np.array_equal(y5, ref, equal_nan=True)
        assert np.array_equal(y, keep)


def _reference_error_norm(err, y0, y1, cfg, ncore):
    """The error norm written as one expression, with its temporaries."""
    sc = cfg.abs_tol + cfg.rel_tol * np.maximum(
        np.abs(y0[..., :ncore]), np.abs(y1[..., :ncore])
    )
    return float(np.max(np.sqrt(np.mean((err[..., :ncore] / sc) ** 2, axis=-1))))


@pytest.mark.parametrize("shape", [(10, 1000), (10,), (10, 1)])
def test_error_norm_in_place_is_bit_identical(shape):
    # components on axis 0, against the reference over row-major (n, 10) copies
    rng = np.random.default_rng(7)
    cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-11)
    for scale in (1e-12, 1.0, 1e6):
        err, y0, y1 = (scale * rng.normal(size=shape) for _ in range(3))
        y0[0] = 0.0  # markers where abs_tol dominates the scale
        args = [a.copy() for a in (err, y0, y1)]
        rows = [np.ascontiguousarray(a.T) for a in (err, y0, y1)]
        for ncore in (8, 9):
            got = _error_norm(*args, cfg, ncore, np.empty((ncore,) + shape[1:]))
            assert got == _reference_error_norm(*rows, cfg, ncore)
            if len(shape) == 2:  # each marker alone, so no row hides behind the max
                for i in range(shape[1]):
                    one = _error_norm(*(a[:, i:i + 1] for a in args), cfg, ncore,
                                      np.empty((ncore, 1)))
                    assert one == _reference_error_norm(*(r[i:i + 1] for r in rows), cfg, ncore)
        assert all(np.array_equal(a, b) for a, b in zip(args, (err, y0, y1)))


def test_dense_output_ends_on_the_step():
    y = np.random.default_rng(3).normal(size=(50, 10))
    y5, ks, _ = _dp(_wavy_rhs, y, 0.3)
    assert np.array_equal(_dense(y, 0.3, ks, 0.0), y)
    ulp = np.finfo(float).eps * np.max(np.abs(y5))
    assert np.max(np.abs(_dense(y, 0.3, ks, 1.0) - y5)) <= 4 * ulp


def test_dense_output_keeps_a_frozen_column_exact():
    # a quadrature column whose derivative is exactly 0 (a photon's ln f)
    def rhs(lam, y, out):
        _wavy_rhs(lam, y, out)
        out[:, 9] = 0.0
        return out

    y = np.random.default_rng(5).normal(size=(40, 10))
    _, ks, _ = _dp(rhs, y, 0.25)
    for theta in (0.1, 1 / 3, 0.77, 1.0):
        assert np.array_equal(_dense(y, 0.25, ks, theta)[:, 9], y[:, 9])


def test_dense_output_is_fourth_order():
    # y' = -y from the exact y(0) = 1: the mid-step error of a 4th-order
    # continuous extension is O(h^5), so halving h divides it by about 2^5
    def rhs(lam, y, out):
        return np.negative(y, out=out)

    errs = []
    for h in (0.4, 0.2, 0.1):
        y0 = np.ones(1)
        _, ks, _ = _dp(rhs, y0, h)
        errs.append(abs(_dense(y0, h, ks, 0.5)[0] - math.exp(-0.5 * h)))
    assert all(a / b >= 2 ** 4.5 for a, b in zip(errs, errs[1:]))


def test_dense_coefficients_match_scipy():
    rk = pytest.importorskip("scipy.integrate._ivp.rk")
    assert np.array_equal(np.array(integrators._DP_P), rk.RK45.P)


def test_rk45_series_of_a_flat_gas_matches_the_closed_form():
    # 10^4 markers of a decaying-mass gas in flat space, all starting at
    # phi = 0: at every report m(phi) = 1/(1 + alpha lam) and ln f has grown
    # by 4 ln(1 + alpha lam), whatever the momentum.  The reports before the
    # span end come off the dense output of steps that do not land on them.
    sys, n, span, reports = _decay_sys(), 10_000, 5.0, 50
    rng = np.random.default_rng(11)
    y0 = np.zeros((10, n))  # component-major: row j is component j of every marker
    p_spatial = rng.normal(0.0, 0.2, (n, 3))
    y0[4:8] = solve_p0_on_shell(sys, np.zeros((n, 4)), np.zeros(n), p_spatial).T
    y0[9] = rng.normal(size=n)
    cfg = IntegratorConfig()
    seen = []
    stats = integrators._advance_block(sys, y0, span, reports, cfg,
                                       lambda k, lam, y: seen.append((k, lam, y.copy())))
    assert [k for k, _, _ in seen] == list(range(1, reports + 1))
    # each report names the lambda it was read at; the last is the landed span end
    assert [lam for _, lam, _ in seen] == (
        [k * (span / reports) for k in range(1, reports)] + [span])
    assert stats["steps_accepted"] < reports
    worst = 0.0
    for k, lam, y in seen:
        m = sys.mass.value(y[8])
        worst = max(worst, np.max(np.abs(m * (1.0 + ALPHA * lam) - 1.0)),
                    np.max(np.abs(y[9] - y0[9] - 4.0 * math.log1p(ALPHA * lam))))
    assert worst <= 0.5 * cfg.rel_tol


def _gas_bits(kind, rows_read, poison):
    """Series rows and end state of a 300-marker Minkowski gas, as bytes, with ``_rows_read`` patched.

    ``kind`` is "rk45" or "rk4", the stepper.  With ``poison`` every step
    first fills yi with NaN: nothing writes its rows outside the range
    before stage 6, so every stage input carries NaN there.
    """
    sys = ContactHamiltonianSystem(metric=minkowski(), mass=MassModel.exp_decay(1.0, ALPHA), c=1.0)
    n = 300
    rng = np.random.default_rng(23)
    q = np.zeros((n, 4))
    q[:, 1:] = rng.uniform(-1.0, 1.0, (n, 3))
    p = solve_p0_on_shell(sys, q, np.zeros(n), rng.normal(0.0, 0.2, (n, 3)))
    e = Ensemble(sys=sys, lam=0.0, y=_marker_rows(q, p), w=np.full(n, 1.0 / n),
                 f=rng.uniform(0.5, 1.5, n))
    cfg = (IntegratorConfig(method="rk4", fixed_step=0.1) if kind == "rk4"
           else IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrators, "_rows_read", rows_read)
        if poison:
            for name in ("_dp_step", "_rk4_step"):
                def poisoned(rhs, lam, y, h, ks, yi, *rest, step=getattr(integrators, name)):
                    yi.fill(np.nan)
                    return step(rhs, lam, y, h, ks, yi, *rest)

                mp.setattr(integrators, name, poisoned)
        end, rows, _ = ensemble_series(e, 2.0, 8, EntropyFunctional.shannon_boltzmann(), cfg)
    return [a.tobytes() for a in (rows, end.y, end.f)]


def _unbuilt_rows_unread(kind, rows_read):
    """Whether the gas, its stage inputs built on rows_read's range with NaN
    elsewhere, gives the bits of the run that builds them whole."""
    whole = _gas_bits(kind, lambda sys: None, poison=False)
    try:
        return _gas_bits(kind, rows_read, poison=True) == whole
    except ContactRelError:
        return False


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["rk45", "rk4"])
def test_stage_inputs_are_built_only_on_the_rows_the_field_reads(kind):
    # a constant metric's field reads p and phi only, so NaN in every other
    # row of a stage input changes no bit of the series or the end state
    sys = ContactHamiltonianSystem(metric=minkowski(), mass=MassModel.exp_decay(1.0, ALPHA))
    assert integrators._rows_read(sys) == slice(4, 9)
    assert _unbuilt_rows_unread(kind, integrators._rows_read)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["rk45", "rk4"])
def test_a_range_without_phi_fails_the_unbuilt_row_check(kind):
    # the mutant: the range without row 8 (phi), which the field reads
    assert not _unbuilt_rows_unread(kind, lambda sys: slice(4, 8))


def test_a_metric_with_a_gradient_somewhere_builds_every_row():
    # a gradient metric builds its stage inputs whole, and so does a
    # hand-made field whose gradient is None only on batches where x1 <= 0:
    # its None at one marker says nothing of the q the others read
    def diagonal(q, phi):
        bend = np.maximum(q[..., 1], 0.0)
        g = np.stack(np.broadcast_arrays(-1.0, 1.0 + bend**2, 1.0, 1.0), axis=-1)
        if not np.any(bend):
            return g, None
        gradient = np.zeros(q.shape[:-1] + (4, 5))
        gradient[..., 1, 1] = 2.0 * bend
        return g, gradient

    patchy = geometry.MetricField(func=None, d_q=None, d_phi=None, diagonal=diagonal, name="patchy")
    block = np.zeros((10, 2))
    block[1] = [-0.5, 0.5]
    assert patchy.diagonal(block[0:4, :1].T, block[8, :1])[1] is None
    assert patchy.diagonal(block[0:4].T, block[8])[1] is not None
    for metric in (expression_metric(WAVY_DIAG), patchy):
        sys = ContactHamiltonianSystem(metric=metric, mass=MassModel.exp_decay(1.0, ALPHA))
        assert integrators._rows_read(sys) is None


def _layout_systems():
    """Minkowski, weak-field and expression metrics, each with a phi-dependent mass."""
    mass = MassModel.exp_decay(1.0, ALPHA)
    metrics = {
        "minkowski": minkowski(),
        "weak-field": weak_field(*point_mass_potential(1.0, 0.5), c=10.0),
        "expression": expression_metric(WAVY_DIAG),
    }
    return {k: ContactHamiltonianSystem(metric=m, mass=mass, c=1.0) for k, m in metrics.items()}


@pytest.mark.parametrize("kind", ["minkowski", "weak-field", "expression"])
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_block_field_rows_equal_the_field_on_row_major_slices(kind, n):
    # _block_field hands the field (n, 4) views of (10, n) rows; the result
    # must not depend on that layout, to the last bit
    sys = _layout_systems()[kind]
    rng = np.random.default_rng(n)
    block = rng.normal(size=(10, n))
    block[1:4] += 3.0  # away from the point mass
    block[4] -= 2.0
    q, p = np.ascontiguousarray(block[0:4].T), np.ascontiguousarray(block[4:8].T)
    dq, dp, dphi, dhdphi = dynamics._field_arrays(sys, q, p, block[8].copy())
    out = integrators._block_field(sys, block, "ln_f", np.empty_like(block))
    assert out.shape == (10, n) and out.flags.c_contiguous
    assert np.array_equal(out[0:4], dq.T) and np.array_equal(out[4:8], dp.T)
    assert np.array_equal(out[8], dphi) and np.array_equal(out[9], 4.0 * dhdphi)
    assert np.all(np.isfinite(out))


# an expression whose powers act on computed values, which numpy rounds one
# way on arrays and another way on numpy scalars
POWER_DIAG = (
    "-(1 + 0.1*sin(x1)**2)*exp(0.05*phi**2)",
    "(2 + sin(x1))**(0.1*phi)",
    "1 + 0.1*cos(x2 + phi)**3",
    "1 + 0.1*x3**2",
)


@pytest.mark.parametrize("kind", ["minkowski", "point-mass", "uniform-gradient",
                                  "expression", "power"])
@pytest.mark.parametrize("mass", ["constant", "affine", "zero"])
def test_block_field_of_a_single_state_equals_the_one_row_field(kind, mass):
    # A single run steps a (10,) state through _block_field, which hands the
    # field (4,) q and p; every row must equal, to the last bit, the field
    # of the state as a one-row batch and tau' = -phi' / (m * c**2) (with
    # c = 1.7, m * c * c would round differently), NaN for a photon
    metric = {
        "minkowski": minkowski(),
        "point-mass": weak_field(*point_mass_potential(1.0, 0.5), c=10.0),
        "uniform-gradient": weak_field(*uniform_gradient_potential([0.3, -0.2, 0.1]), c=3.0),
        "expression": expression_metric(WAVY_DIAG),
        "power": expression_metric(POWER_DIAG),
    }[kind]
    mass_model = {
        "constant": MassModel.constant(1.3),
        "affine": MassModel.exp_decay(1.0, ALPHA, c=1.7),
        "zero": MassModel.zero(),
    }[mass]
    sys = ContactHamiltonianSystem(metric=metric, mass=mass_model, c=1.7)
    rng = np.random.default_rng(7)
    for _ in range(300):
        y = rng.normal(size=10)
        y[1:4] += 3.0  # away from the point mass
        y[4] -= 2.0
        dq, dp, dphi, dhdphi = dynamics._field_arrays(sys, y[None, 0:4], y[None, 4:8], y[8:9])
        ref = np.concatenate([dq[0], dp[0], dphi])
        out = integrators._block_field(sys, y, "tau", np.empty(10))
        assert out.shape == (10,)
        assert np.array_equal(out[0:9], ref)
        if sys.massive:
            m = float(sys.mass.value(y[8]))
            assert out[9] == -dphi[0] / (m * sys.c**2)
        else:
            assert np.isnan(out[9])
        assert integrators._block_field(sys, y, "ln_f", np.empty(10))[9] == 4.0 * dhdphi[0]


def _reference_block_field(sys, y, quadrature):
    """The block field as the allocating form computes it, over (n, 4) views."""
    q, p, phi = y[0:4].T, y[4:8].T, y[8]
    g, d_gpp = geometry._contract(sys.metric, q, p, phi)
    if d_gpp is None:
        d_gpp = np.zeros(q.shape[:-1] + (5,))
    dq, dq_gpp, dphi_gpp = g * p, d_gpp[..., :4], d_gpp[..., 4]
    m = np.asarray(sys.mass.value(phi), dtype=float)
    dhdphi = 0.5 * dphi_gpp + m * sys.c**2 * sys.mass.slope
    dp = -0.5 * dq_gpp
    dp -= p * dhdphi[..., None]
    t = p * dq
    dphi = (t[..., 0] + t[..., 2]) + (t[..., 1] + t[..., 3])
    out = np.empty_like(y)
    out[0:4], out[4:8], out[8] = dq.T, dp.T, dphi
    out[9] = -dphi / (m * sys.c**2) if quadrature == "tau" else 4.0 * dhdphi
    return out


@pytest.mark.parametrize("kind", ["minkowski", "point-mass", "uniform-gradient", "wavy"])
@pytest.mark.parametrize("n", [1, 10_000])
@pytest.mark.parametrize("quadrature", ["tau", "ln_f"])
def test_in_place_block_field_is_the_reference_field_bit_for_bit(kind, n, quadrature):
    # _block_field forms dp, dphi and row 9 in the slot it is given, with the
    # per-element operations of the allocating form; every row must match it
    metric = {
        "minkowski": minkowski(),
        "point-mass": weak_field(*point_mass_potential(1.0, 0.5), c=10.0),
        "uniform-gradient": weak_field(*uniform_gradient_potential([0.3, -0.2, 0.1]), c=3.0),
        "wavy": expression_metric(WAVY_DIAG),
    }[kind]
    sys = ContactHamiltonianSystem(metric=metric, mass=MassModel.exp_decay(1.0, ALPHA, c=1.7),
                                   c=1.7)
    rng = np.random.default_rng(n)
    y = rng.normal(size=(10, n))
    y[1:4] += 3.0  # away from the point mass
    y[4] -= 2.0
    y[4, :2] = 0.0  # zero products, where a -0 would show
    out = np.full_like(y, np.nan)
    assert integrators._block_field(sys, y, quadrature, out) is out
    ref = _reference_block_field(sys, y, quadrature)
    assert np.all(np.isfinite(ref))
    assert np.array_equal(np.signbit(out), np.signbit(ref)) and np.array_equal(out, ref)


def _reference_combine(coeffs, ks):
    """The allocating sum: a new array per term."""
    acc = coeffs[0] * ks[0]
    for a, kj in zip(coeffs[1:], ks[1:]):
        if a != 0.0:
            acc += a * kj
    return acc


@pytest.mark.parametrize("shape", [(10,), (10, 1), (10, 10_000)])
def test_combine_into_a_buffer_is_the_allocating_sum_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape))
    ks = [rng.normal(size=shape) for _ in range(7)]
    keep = [k.copy() for k in ks]
    out, tmp = np.empty(shape), np.empty(shape)
    thetas = (0.0, 0.3, 1.0)
    dense = [[sum(c * t ** (r + 1) for r, c in enumerate(row)) for row in integrators._DP_P]
             for t in thetas]
    for coeffs in (*integrators._DP_A[1:], integrators._DP_E, *dense):
        assert integrators._combine(coeffs, ks, out, tmp) is out
        assert np.array_equal(out, _reference_combine(coeffs, ks))
    assert all(np.array_equal(a, b) for a, b in zip(ks, keep))


def _minor_fault_counter():
    """This process's minor page fault count as a function; skips the test
    where the platform keeps no such count."""
    resource = pytest.importorskip("resource")

    def minflt():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    # a platform that keeps no count shows none for pages of a fresh map
    # written one by one; a run's own count can be 0 where it reuses pages
    # that an earlier test freed
    pages = 64
    with mmap.mmap(-1, pages * mmap.PAGESIZE) as fresh:
        f0 = minflt()
        for i in range(pages):
            fresh[i * mmap.PAGESIZE] = 1
        if minflt() == f0:
            pytest.skip("this platform keeps no minor page fault count")
    return minflt


def test_block_steps_allocate_no_block_sized_arrays():
    # A (10, 10^4) block steps in buffers the run allocates once, under rk45
    # and rk4 alike.  Steps that allocated and freed block-sized temporaries
    # had glibc trim and re-fault the top of its heap: for 20 steps, 6.0k
    # minor faults under rk45 alone and 9.0k inside the suite, 21.8k under
    # rk4, where the run's own buffers and its report take 2.2-3.0k under
    # rk45 and 1.8k under rk4 (x86-64 Linux, 4 KiB pages, a second run of
    # each method in the process).
    minflt = _minor_fault_counter()
    sys = _decay_sys()
    n = 10_000
    p_spatial = np.random.default_rng(3).normal(0.0, 0.2, (n, 3))
    p = solve_p0_on_shell(sys, np.zeros((n, 4)), np.zeros(n), p_spatial)
    e = Ensemble(sys=sys, lam=0.0, y=_marker_rows(np.zeros((n, 4)), p),
                 w=np.full(n, 1.0 / n), f=np.ones(n))

    def faults(cfg):
        f0 = minflt()
        _, _, stats = ensemble_series(e, 2.0, 1, EntropyFunctional.shannon_boltzmann(), cfg)
        return minflt() - f0, stats

    for cfg in (IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, max_step=0.11),
                IntegratorConfig(method="rk4", fixed_step=0.1)):
        faults(cfg)  # the first run of each method in the process
        count, stats = faults(cfg)
        assert stats["steps_accepted"] >= 20
        assert count < 4500, f"{cfg.method}: {count} minor page faults"


@pytest.mark.parametrize("mass", [MassModel.exp_decay(1.0, ALPHA), MassModel.zero()])
def test_flat_field_allocates_one_row(mass):
    # A metric without a gradient writes g . p into the run's rows and forms
    # no gradient, and dphi is summed in the rows: the one (n,) row it
    # allocates is dH/dphi, where allocating the contraction took thirteen.
    sys = ContactHamiltonianSystem(metric=minkowski(), mass=mass, c=1.7)
    n = 10_000
    y = np.random.default_rng(2).normal(size=(10, n))
    out = np.empty_like(y)
    dynamics._field_rows(sys, y[0:4], y[4:8], y[8], out)
    tracemalloc.start()
    try:
        dynamics._field_rows(sys, y[0:4], y[4:8], y[8], out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * y[8].nbytes, f"{peak} bytes at peak"


def test_first_decay_gas_run_of_a_process_faults_few_pages():
    # The first decay-gas run in a fresh interpreter, where glibc's mmap and
    # trim thresholds are still 128 KiB.  A field that allocated its (n, 4)
    # contraction and a zero gradient on every call had each of those 320 KB
    # arrays mapped and faulted in anew, 32k-45k minor faults; a field that
    # writes into the run's rows, with reports that keep few rows alive,
    # takes 2.6k-6.0k, as the heap's layout varies (x86-64 Linux, 4 KiB
    # pages, over 84 layouts set by the environment's size, the hash seed
    # and earlier allocations).
    _minor_fault_counter()
    code = (
        "import resource\n"
        "from contactrel import scenario\n"
        "cfg = scenario.preset_scenario('decay-gas')\n"
        "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "scenario.run_ensemble(cfg)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    count = int(out.stdout)
    assert count < 10_000, f"{count} minor page faults"


def test_a_stage_where_the_mass_reaches_zero_raises():
    # m = 1 + phi vanishes at phi = -1, which rk4 steps of 3.0 overshoot; the
    # proper-time row of that stage would divide by m <= 0, so it raises
    sys = ContactHamiltonianSystem(
        metric=minkowski(), mass=MassModel.exp_decay(1.0, 1.0), c=1.0
    )
    cfg = IntegratorConfig(method="rk4", fixed_step=3.0, stop=_stop("lambda_reached", 6.0))
    with pytest.raises(TransversalityFailure, match="mass reached zero"):
        integrate(sys, _rest_state(), cfg)


@pytest.mark.parametrize("dlam", [0.5, 0.0])
def test_advance_batch_keeps_its_row_major_interface(dlam):
    sys = _decay_sys()
    y0 = np.zeros((3, 10))
    y0[:, 4] = [-1.0, -1.2, -1.5]
    y0[:, 1] = [0.1, 0.2, 0.3]
    keep = y0.copy()
    out, _ = advance_batch(sys, y0, dlam, IntegratorConfig())
    assert out.shape == (3, 10) and out.flags.c_contiguous
    assert not np.shares_memory(out, y0)
    assert np.array_equal(y0, keep)
    if dlam == 0.0:
        assert np.array_equal(out, y0)


def test_advance_batch_max_steps_exceeded():
    y0 = np.zeros((4, 10))
    y0[:, 4] = [-1.0, -1.1, -1.2, -1.3]
    with pytest.raises(MaxStepsExceeded):
        advance_batch(
            _decay_sys(), y0, 10.0, IntegratorConfig(max_steps=3, max_step=0.1)
        )


# --- geodesic reference -------------------------------------------------------------------


def test_geodesic_reference_flat_straight_line():
    sys = ContactHamiltonianSystem(
        metric=minkowski(), mass=MassModel.constant(1.0), c=1.0
    )
    u0 = np.array([1.25, 0.75, 0.0, 0.0])  # normalized: -1.25^2 + 0.75^2 = -1
    cfg = IntegratorConfig(stop=_stop("lambda_reached", 3.0))
    geo = geodesic_reference(sys, np.zeros(4), u0, cfg)
    assert geo.parameter == "tau"
    assert np.max(np.abs(geo.q - np.outer(geo.lam, u0))) < 1e-12
    assert np.max(np.abs(geo.p - u0)) < 1e-12


def test_geodesic_reference_rejects_phi_dependent_metric():
    from contactrel import expression_metric

    metric = expression_metric(["-(1 + 0.1*phi)", "1", "1", "1"])
    sys = ContactHamiltonianSystem(metric=metric, mass=MassModel.constant(1.0), c=1.0)
    with pytest.raises(ValueError):
        geodesic_reference(
            sys, np.zeros(4), np.array([1.0, 0, 0, 0]),
            IntegratorConfig(stop=_stop("lambda_reached", 1.0)),
        )


def test_geodesic_reference_rejects_unnormalized_velocity():
    pot, grad = point_mass_potential(0.05)
    sys = ContactHamiltonianSystem(
        metric=weak_field(pot, grad), mass=MassModel.constant(1.0), c=1.0
    )
    with pytest.raises(ValueError):
        geodesic_reference(
            sys, np.array([0.0, 1.0, 0.0, 0.0]), np.array([2.0, 0, 0, 0]),
            IntegratorConfig(stop=_stop("lambda_reached", 1.0)),
        )


@pytest.mark.parametrize("diag", [
    # g^{11} vanishes at x1 = 2, where the geodesic turns
    ["-1", "1 - 0.5*x1", "1", "1"],
    # g^{11} is exactly 0 past x1 = 0.5
    ["-1", "1 - sign(x1 - 0.5)", "1", "1"],
    # g^{22} changes sign at x1 = 2, which the straight geodesic crosses
    ["-1", "1", "1 - 0.5*x1", "1"],
])
def test_geodesic_reference_stops_with_a_named_reason_where_the_metric_degenerates(diag):
    # The right-hand side sign-tests g^{aa} at every stage, so the first
    # stage outside (-,+,+,+) ends the run with BadSignature, before any
    # division by a vanishing entry and never in silence.
    from contactrel import BadSignature, expression_metric, four_velocity

    sys = ContactHamiltonianSystem(
        metric=expression_metric(diag), mass=MassModel.constant(1.0), c=1.0
    )
    s0 = state_from_velocity(sys, np.zeros(4), 0.0, [0.5, 0.0, 0.0])
    with pytest.raises(BadSignature):
        geodesic_reference(
            sys, s0.q, four_velocity(sys, s0),
            IntegratorConfig(stop=_stop("lambda_reached", 50.0)),
        )
