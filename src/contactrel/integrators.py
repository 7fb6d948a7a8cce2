"""Time integration of contact flows, with events, resampling and references.

The main entry point is :func:`integrate`, which advances an extended state
along the evolution contact field in the flow parameter lambda.  Massive runs
carry proper time tau as an extra quadrature variable (d tau/d lambda =
-(d phi/d lambda) / (m c^2)); tau is excluded from the adaptive error norm,
which covers only the 9 extended coordinates.

Steppers are a classic fixed-step RK4 and an embedded Dormand-Prince 5(4)
pair with FSAL.  Stop conditions are located on the cubic Hermite interpolant
of each accepted step and refined by bisection, so the final sample sits on
the stop surface to root-finding precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import geometry
from .dynamics import (
    ContactHamiltonianSystem,
    ExtendedState,
    FourVelocity,
    _field_arrays,
    _h_and_shell,
)
from .errors import (
    InsufficientSamples,
    MasslessProjection,
    MaxStepsExceeded,
    NotMonotone,
    NotTimelike,
    StepSizeUnderflow,
    TransversalityFailure,
)

__all__ = [
    "StopCondition",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "reparametrize_by_phi",
    "reparametrize_by_tau",
    "geodesic_reference",
    "advance_batch",
]


@dataclass(frozen=True)
class StopCondition:
    """A termination rule for integrate().

    kinds: lambda_reached(value), phi_reached(value), tau_reached(value),
    coordinate_bound(axis, value), mass_floor(value).
    """

    kind: str
    value: float = 0.0
    axis: int = 0

    def __post_init__(self):
        kinds = ("lambda_reached", "phi_reached", "tau_reached",
                 "coordinate_bound", "mass_floor")
        if self.kind not in kinds:
            raise ValueError(f"unknown stop condition kind: {self.kind!r}")
        if self.kind == "coordinate_bound" and self.axis not in (0, 1, 2, 3):
            raise ValueError("coordinate_bound axis must be 0..3")


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical parameters for integrate() and advance_batch().

    ``method`` is "rk45" (adaptive, default) or "rk4" (fixed step, requires
    ``fixed_step``).  ``shell_projection`` = k > 0 rescales the momentum back
    to the mass shell every k accepted steps (massive systems only).
    """

    method: str = "rk45"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    fixed_step: float | None = None
    min_step: float = 1e-14
    max_step: float = math.inf
    max_steps: int = 1_000_000
    shell_projection: int = 0
    stop: tuple[StopCondition, ...] = ()

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method: {self.method!r}")
        if self.method == "rk4" and not (self.fixed_step and self.fixed_step > 0):
            raise ValueError("rk4 requires a positive fixed_step")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class Trajectory:
    """Discrete samples of a flow, with enough data to resample it.

    Columns (length n): ``lam`` holds the flow parameter named by
    ``parameter`` ("lambda", "phi", or "tau"); ``q`` (n, 4), ``p`` (n, 4),
    ``phi``, ``ham``, ``tau`` (NaN for massless runs), ``shell``.  ``deriv``
    (n, 10) stores d[q, p, phi, tau]/d(parameter) at each sample, which makes
    cubic Hermite interpolation between samples possible without re-deriving
    the field.  ``metadata`` records system description, configuration, and
    the termination reason.
    """

    lam: np.ndarray
    q: np.ndarray
    p: np.ndarray
    phi: np.ndarray
    ham: np.ndarray
    tau: np.ndarray
    shell: np.ndarray
    deriv: np.ndarray
    parameter: str = "lambda"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        d = np.diff(self.lam)
        if len(self.lam) >= 2 and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("trajectory samples must be strictly ordered in the flow parameter")

    def __len__(self) -> int:
        return len(self.lam)

    def state(self, i: int = -1) -> ExtendedState:
        return ExtendedState(q=self.q[i], p=self.p[i], phi=float(self.phi[i]))


# --- cubic Hermite utilities --------------------------------------------------


def _hermite_eval(y0, y1, f0, f1, h, t):
    """Cubic Hermite value at fraction t of a step of width h."""
    t2 = t * t
    t3 = t2 * t
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + t
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _hermite_slope(y0, y1, f0, f1, h, t):
    """Derivative of the cubic Hermite with respect to the parameter."""
    t2 = t * t
    dh00 = 6 * t2 - 6 * t
    dh10 = 3 * t2 - 4 * t + 1
    dh01 = -6 * t2 + 6 * t
    dh11 = 3 * t2 - 2 * t
    return (dh00 * y0 + dh01 * y1) / h + dh10 * f0 + dh11 * f1


# --- Dormand-Prince 5(4) tableau ----------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def _dp_step(rhs, lam, y, h, k1):
    """One embedded step; returns (y5, k_end, err).  k_end = f(lam+h, y5) (FSAL)."""
    k = np.empty((7,) + y.shape)
    k[0] = k1
    for i in range(1, 6):
        yi = y + h * np.tensordot(np.asarray(_DP_A[i]), k[:i], axes=1)
        k[i] = rhs(lam + _DP_C[i] * h, yi)
    y5 = y + h * np.tensordot(np.asarray(_DP_A[6]), k[:6], axes=1)
    k[6] = rhs(lam + h, y5)
    err = h * np.tensordot(_DP_E, k, axes=1)
    return y5, k[6], err


def _rk4_step(rhs, lam, y, h, k1):
    k2 = rhs(lam + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(lam + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(lam + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _error_norm(err, y0, y1, cfg, ncore):
    sc = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y0[:ncore]), np.abs(y1[:ncore]))
    return float(np.sqrt(np.mean((err[:ncore] / sc) ** 2)))


def _initial_step(rhs, lam0, y0, f0, cfg, ncore, lam_span):
    """Step-size seed following the usual embedded-pair heuristic."""
    sc = cfg.abs_tol + cfg.rel_tol * np.abs(y0[:ncore])
    d0 = float(np.sqrt(np.mean((y0[:ncore] / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f0[:ncore] / sc) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, lam_span) if lam_span > 0 else h0
    f1 = rhs(lam0 + h0, y0 + h0 * f0)
    d2 = float(np.sqrt(np.mean(((f1[:ncore] - f0[:ncore]) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100 * h0, h1, cfg.max_step)
    return min(h, lam_span) if lam_span > 0 else h


# --- generic single-system stepping loop --------------------------------------


def _run_loop(rhs, y0, cfg, lam_end, events, ncore, project=None):
    """Advance y0 from lam = 0 until lam_end or an event fires.

    ``events`` is a list of (label, fn) with fn(lam, y) -> float; an event
    fires when its value crosses zero between accepted samples.  ``project``
    optionally maps y -> y after every cfg.shell_projection accepted steps.
    Returns (lams, ys, fs, termination, stats).
    """
    lam = 0.0
    y = np.array(y0, dtype=float)
    f = rhs(lam, y)
    lams, ys, fs = [lam], [y.copy()], [f.copy()]
    ev_prev = [fn(lam, y) for _, fn in events]
    termination = None
    accepted = rejected = 0

    if cfg.method == "rk4":
        h = float(cfg.fixed_step)
    else:
        span = lam_end - lam if lam_end is not None else -1.0
        h = _initial_step(rhs, lam, y, f, cfg, ncore, span)

    while termination is None:
        if accepted >= cfg.max_steps:
            raise MaxStepsExceeded(
                f"exceeded {cfg.max_steps} accepted steps before any stop condition"
            )
        h_try = h
        if lam_end is not None:
            h_try = min(h_try, lam_end - lam)
        if cfg.method == "rk45":
            h_try = min(h_try, cfg.max_step)
            # attempt until the error controller accepts
            while True:
                y_new, f_new, err = _dp_step(rhs, lam, y, h_try, f)
                norm = _error_norm(err, y, y_new, cfg, ncore)
                if norm <= 1.0:
                    break
                rejected += 1
                h_try *= max(0.2, 0.9 * norm ** -0.2)
                if h_try < cfg.min_step:
                    raise StepSizeUnderflow(
                        f"step size {h_try:.3e} fell below min_step={cfg.min_step:.3e}"
                    )
            factor = 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm ** -0.2))
            h = min(cfg.max_step, h_try * factor)
        else:
            y_new = _rk4_step(rhs, lam, y, h_try, f)
            f_new = rhs(lam + h_try, y_new)
        lam_new = lam + h_try
        accepted += 1

        # locate the earliest zero crossing of any event on this step
        hit = None
        ev_new = []
        for j, (label, fn) in enumerate(events):
            e1 = fn(lam_new, y_new)
            ev_new.append(e1)
            e0 = ev_prev[j]
            crossed = ((e0 < 0) != (e1 < 0)) or e1 == 0.0
            if e0 == 0.0 or not crossed:
                continue
            a, b = 0.0, 1.0
            ga = e0
            for _ in range(90):
                mid = 0.5 * (a + b)
                ym = _hermite_eval(y, y_new, f, f_new, h_try, mid)
                gm = fn(lam + mid * h_try, ym)
                if gm == 0.0:
                    a = b = mid
                    break
                if (ga < 0) != (gm < 0):
                    b = mid
                else:
                    a, ga = mid, gm
                if b - a < 1e-16:
                    break
            t_star = b
            lam_star = lam + t_star * h_try
            if lam_star <= lam:
                lam_star = np.nextafter(lam, lam_new)
                t_star = (lam_star - lam) / h_try
            if hit is None or lam_star < hit[0]:
                hit = (lam_star, t_star, label)

        if hit is not None:
            lam_star, t_star, label = hit
            y_star = _hermite_eval(y, y_new, f, f_new, h_try, t_star)
            f_star = rhs(lam_star, y_star)
            lams.append(lam_star)
            ys.append(y_star)
            fs.append(f_star)
            termination = {"reason": label, "parameter_value": float(lam_star)}
            break

        if (
            project is not None
            and cfg.shell_projection > 0
            and accepted % cfg.shell_projection == 0
        ):
            y_new = project(y_new)
            f_new = rhs(lam_new, y_new)

        lam, y, f = lam_new, y_new, f_new
        ev_prev = ev_new
        lams.append(lam)
        ys.append(y.copy())
        fs.append(f.copy())

        if lam_end is not None and lam >= lam_end - 1e-14 * max(1.0, abs(lam_end)):
            termination = {"reason": "lambda_reached", "parameter_value": float(lam)}

    stats = {"steps_accepted": accepted, "steps_rejected": rejected}
    return np.array(lams), np.array(ys), np.array(fs), termination, stats


# --- contact-flow integration --------------------------------------------------


def _make_events(cfg: IntegratorConfig, sys: ContactHamiltonianSystem, massive: bool):
    lam_end = None
    events = []
    for stop in cfg.stop:
        if stop.kind == "lambda_reached":
            lam_end = stop.value if lam_end is None else min(lam_end, stop.value)
        elif stop.kind == "phi_reached":
            events.append(("phi_reached", lambda lam, y, v=stop.value: y[8] - v))
        elif stop.kind == "tau_reached":
            if not massive:
                raise ValueError("tau_reached stop is undefined for massless systems")
            events.append(("tau_reached", lambda lam, y, v=stop.value: y[9] - v))
        elif stop.kind == "coordinate_bound":
            events.append(
                ("coordinate_bound", lambda lam, y, a=stop.axis, v=stop.value: y[a] - v)
            )
        elif stop.kind == "mass_floor":
            events.append(
                ("mass_floor", lambda lam, y, v=stop.value: float(sys.mass.value(y[8])) - v)
            )
    return lam_end, events


def integrate(sys: ContactHamiltonianSystem, s0: ExtendedState, cfg: IntegratorConfig) -> Trajectory:
    """Advance a state along the evolution contact field in lambda.

    Integration runs in increasing lambda from 0 until one of cfg.stop fires.
    Massive runs accumulate proper time tau from 0 as a quadrature variable;
    massless runs record tau = NaN.  Every accepted step is recorded, with
    per-sample H, shell residual and field derivatives.
    """
    if not cfg.stop:
        raise ValueError("integrate needs at least one stop condition")
    massive = sys.massive
    if cfg.shell_projection > 0 and not massive:
        raise ValueError("shell projection is undefined for massless systems")
    lam_end, events = _make_events(cfg, sys, massive)
    if lam_end is None and not events:
        raise ValueError("no usable stop condition")

    dim = 10 if massive else 9
    y0 = np.empty(dim)
    y0[0:4], y0[4:8], y0[8] = s0.q, s0.p, s0.phi
    if massive:
        y0[9] = 0.0
    c2 = sys.c**2

    def rhs(lam, y):
        dq, dp, dphi, _ = _field_arrays(sys, y[None, 0:4], y[None, 4:8], y[8:9])
        dy = np.empty(dim)
        dy[0:4], dy[4:8], dy[8] = dq[0], dp[0], dphi[0]
        if massive:
            m = float(sys.mass.value(y[8]))
            if m <= 0.0:
                raise TransversalityFailure(
                    "mass reached zero during integration; add a mass_floor stop"
                )
            dy[9] = -dy[8] / (m * c2)
        return dy

    def project(y):
        g = geometry._eval_raw(sys.metric, y[None, 0:4], y[8:9])[0]
        gpp = float(y[4:8] @ g @ y[4:8])
        if not gpp < 0.0:
            raise NotTimelike("momentum left the timelike cone; cannot project")
        m = float(sys.mass.value(y[8]))
        out = y.copy()
        out[4:8] *= math.sqrt((m * sys.c) ** 2 / (-gpp))
        return out

    lams, ys, fs, termination, stats = _run_loop(
        rhs, y0, cfg, lam_end, events, ncore=9, project=project if massive else None
    )

    q_arr, p_arr, phi_arr = ys[:, 0:4], ys[:, 4:8], ys[:, 8]
    ham, shell = _h_and_shell(sys, q_arr, p_arr, phi_arr)
    n = len(lams)
    tau = ys[:, 9].copy() if massive else np.full(n, np.nan)
    deriv = np.empty((n, 10))
    deriv[:, 0:9] = fs[:, 0:9]
    deriv[:, 9] = fs[:, 9] if massive else np.nan

    gpp0 = shell[0] - (float(sys.mass.value(phi_arr[0])) * sys.c) ** 2
    on_shell = abs(shell[0]) <= 1e-8 * max(1.0, abs(gpp0))
    if massive and on_shell and n >= 2 and not np.all(np.diff(phi_arr) < 0.0):
        raise NotMonotone("phi failed to decrease along a massive on-shell flow")

    metadata = {
        "system": f"{sys.metric.name} / {sys.mass.kind}",
        "c": sys.c,
        "massive": massive,
        "on_shell_start": bool(on_shell),
        "termination": termination,
        **stats,
    }
    return Trajectory(
        lam=lams, q=q_arr, p=p_arr, phi=phi_arr, ham=np.asarray(ham),
        tau=tau, shell=np.asarray(shell), deriv=deriv,
        parameter="lambda", metadata=metadata,
    )


# --- reparametrization ----------------------------------------------------------


def _resample(traj: Trajectory, col: int, new_parameter: str, num: int | None):
    """Rebuild a trajectory on a uniform grid of column ``col`` of [q,p,phi,tau]."""
    n = len(traj)
    if n < 3:
        raise InsufficientSamples(f"need at least 3 samples, have {n}")
    vals = np.column_stack([traj.q, traj.p, traj.phi, traj.tau])
    derivs = traj.deriv
    s = vals[:, col]
    ds = np.diff(s)
    if np.all(ds > 0):
        direction = 1.0
    elif np.all(ds < 0):
        direction = -1.0
    else:
        raise NotMonotone(f"{new_parameter} is not strictly monotone along the trajectory")

    num = num or n
    grid = np.linspace(s[0], s[-1], num)
    asc = s * direction
    h_all = np.diff(traj.lam)

    out_vals = np.empty((num, 10))
    out_der = np.empty((num, 10))
    out_lam = np.empty(num)
    out_lin = np.empty((num, 2))  # linear interp of (ham, shell)
    lin_src = np.column_stack([traj.ham, traj.shell])

    for k, target in enumerate(grid):
        if k == 0 or k == num - 1:
            i = 0 if k == 0 else n - 1
            out_vals[k] = vals[i]
            out_der[k] = derivs[i]
            out_lam[k] = traj.lam[i]
            out_lin[k] = lin_src[i]
            continue
        i = int(np.searchsorted(asc, target * direction, side="right")) - 1
        i = min(max(i, 0), n - 2)
        h = h_all[i]
        y0, y1 = vals[i], vals[i + 1]
        f0, f1 = derivs[i], derivs[i + 1]
        a, b = 0.0, 1.0
        ga = s[i] - target
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
        out_vals[k] = _hermite_eval(y0, y1, f0, f1, h, t)
        out_vals[k, col] = target  # put the grid value exactly
        dy_dlam = _hermite_slope(y0, y1, f0, f1, h, t)
        out_der[k] = dy_dlam / dy_dlam[col]
        out_der[k, col] = 1.0
        out_lam[k] = traj.lam[i] + t * h
        out_lin[k] = (1 - t) * lin_src[i] + t * lin_src[i + 1]

    # endpoints: rescale the stored lambda-derivatives to the new parameter
    for k, i in ((0, 0), (num - 1, n - 1)):
        d = derivs[i] / derivs[i][col]
        d[col] = 1.0
        out_der[k] = d

    metadata = dict(traj.metadata)
    metadata["reparametrized_from"] = traj.parameter
    metadata["lambda_of_parameter"] = out_lam
    return Trajectory(
        lam=grid,
        q=out_vals[:, 0:4],
        p=out_vals[:, 4:8],
        phi=out_vals[:, 8],
        ham=out_lin[:, 0],
        tau=out_vals[:, 9],
        shell=out_lin[:, 1],
        deriv=out_der,
        parameter=new_parameter,
        metadata=metadata,
    )


def reparametrize_by_phi(traj: Trajectory, num: int | None = None) -> Trajectory:
    """Resample a trajectory on a uniform phi grid (requires monotone phi)."""
    return _resample(traj, col=8, new_parameter="phi", num=num)


def reparametrize_by_tau(traj: Trajectory, num: int | None = None) -> Trajectory:
    """Resample a trajectory on a uniform proper-time grid (massive only)."""
    if not np.all(np.isfinite(traj.tau)):
        raise MasslessProjection("trajectory has no proper time (massless run)")
    return _resample(traj, col=9, new_parameter="tau", num=num)


# --- geodesic reference ----------------------------------------------------------


def geodesic_reference(
    sys: ContactHamiltonianSystem,
    q0,
    u0: FourVelocity | np.ndarray,
    cfg: IntegratorConfig,
    phi0: float = 0.0,
) -> Trajectory:
    """Integrate the geodesic equation du^mu/dtau = -Gamma^mu_{ab} u^a u^b.

    Independent reference for constant-mass motion in a phi-independent
    metric, parametrized by proper time.  The returned trajectory stores the
    contravariant four-velocity in the ``p`` slot (see metadata["p_column"]).
    Stop conditions: lambda_reached (meaning tau) and coordinate_bound only.
    """
    if not cfg.stop:
        raise ValueError("geodesic_reference needs at least one stop condition")
    for stop in cfg.stop:
        if stop.kind not in ("lambda_reached", "coordinate_bound"):
            raise ValueError(f"stop kind {stop.kind!r} is not supported for geodesics")
    q0 = np.asarray(q0, dtype=float).reshape(4)
    u = u0.u if isinstance(u0, FourVelocity) else np.asarray(u0, dtype=float).reshape(4)

    _, dphi_g = geometry.metric_derivatives(sys.metric, q0, phi0)
    if np.max(np.abs(dphi_g)) > 1e-10:
        raise ValueError("geodesic reference requires a phi-independent metric")
    gl0 = geometry.lowered_metric(sys.metric, q0, phi0)
    norm0 = float(u @ gl0 @ u)
    if abs(norm0 + sys.c**2) > 1e-6 * sys.c**2:
        raise ValueError(f"u0 is not normalized: g u u = {norm0:.6e}, expected {-sys.c**2}")

    lam_end = None
    events = []
    for stop in cfg.stop:
        if stop.kind == "lambda_reached":
            lam_end = stop.value if lam_end is None else min(lam_end, stop.value)
        else:
            events.append(
                ("coordinate_bound", lambda lam, y, a=stop.axis, v=stop.value: y[a] - v)
            )

    def rhs(lam, y):
        q, uvec = y[0:4], y[4:8]
        gamma = geometry.christoffel(sys.metric, q, phi0)
        dy = np.empty(8)
        dy[0:4] = uvec
        dy[4:8] = -np.einsum("mab,a,b->m", gamma, uvec, uvec)
        return dy

    y0 = np.concatenate([q0, u])
    lams, ys, fs, termination, stats = _run_loop(
        rhs, y0, cfg, lam_end, events, ncore=8, project=None
    )

    n = len(lams)
    q_arr, u_arr = ys[:, 0:4], ys[:, 4:8]
    gl = np.linalg.inv(geometry._eval_raw(sys.metric, q_arr, np.full(n, phi0)))
    uu = np.einsum("nab,na,nb->n", gl, u_arr, u_arr)
    shell = uu + sys.c**2
    deriv = np.zeros((n, 10))
    deriv[:, 0:8] = fs
    deriv[:, 9] = 1.0  # d tau / d tau

    metadata = {
        "system": f"{sys.metric.name} / geodesic",
        "c": sys.c,
        "p_column": "four_velocity",
        "termination": termination,
        **stats,
    }
    return Trajectory(
        lam=lams, q=q_arr, p=u_arr, phi=np.full(n, phi0),
        ham=0.5 * shell, tau=lams.copy(), shell=shell, deriv=deriv,
        parameter="tau", metadata=metadata,
    )


# --- batched ensemble stepping -----------------------------------------------


def advance_batch(
    sys: ContactHamiltonianSystem,
    y: np.ndarray,
    dlam: float,
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, int]:
    """Advance a marker block (n, 10) = [q, p, phi, ln f] by dlam in lambda.

    All markers share the step sequence.  With method "rk45" the error norm
    is the worst per-marker RMS over the 9 extended coordinates (ln f is a
    quadrature variable like tau); "rk4" uses fixed_step.  Supports either
    sign of dlam.  Returns (new block, accepted steps).
    """
    if dlam == 0.0:
        return y.copy(), 0

    def rhs(block):
        dq, dp, dphi, dhdphi = _field_arrays(sys, block[:, 0:4], block[:, 4:8], block[:, 8])
        out = np.empty_like(block)
        out[:, 0:4], out[:, 4:8], out[:, 8] = dq, dp, dphi
        out[:, 9] = 4.0 * dhdphi
        return out

    sign = 1.0 if dlam > 0 else -1.0
    remaining = abs(dlam)
    y = np.array(y, dtype=float)

    if cfg.method == "rk4":
        if not (cfg.fixed_step and cfg.fixed_step > 0):
            raise ValueError("rk4 requires a positive fixed_step")
        nsteps = max(1, math.ceil(remaining / cfg.fixed_step))
        h = sign * abs(dlam) / nsteps
        for _ in range(nsteps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return y, nsteps

    def norm_of(err, y0, y1):
        sc = cfg.abs_tol + cfg.rel_tol * np.maximum(
            np.abs(y0[:, :9]), np.abs(y1[:, :9])
        )
        per_marker = np.sqrt(np.mean((err[:, :9] / sc) ** 2, axis=1))
        return float(np.max(per_marker))

    h = min(remaining / 8.0, cfg.max_step)
    f = rhs(y)
    accepted = 0
    while remaining > 1e-14 * abs(dlam):
        if accepted >= cfg.max_steps:
            raise MaxStepsExceeded(f"ensemble advance exceeded {cfg.max_steps} steps")
        h = min(h, remaining)
        while True:
            hs = sign * h
            k = np.empty((7,) + y.shape)
            k[0] = f
            for i in range(1, 6):
                yi = y + hs * np.tensordot(np.asarray(_DP_A[i]), k[:i], axes=1)
                k[i] = rhs(yi)
            y5 = y + hs * np.tensordot(np.asarray(_DP_A[6]), k[:6], axes=1)
            k[6] = rhs(y5)
            err = hs * np.tensordot(_DP_E, k, axes=1)
            norm = norm_of(err, y, y5)
            if norm <= 1.0:
                break
            h *= max(0.2, 0.9 * norm ** -0.2)
            if h < cfg.min_step:
                raise StepSizeUnderflow(
                    f"ensemble step size {h:.3e} fell below min_step"
                )
        y, f = y5, k[6]
        remaining -= h
        accepted += 1
        factor = 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm ** -0.2))
        h = min(cfg.max_step, h * factor)
    return y, accepted
