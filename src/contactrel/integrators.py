"""Time integration of contact flows, with events, resampling and references.

The main entry point is :func:`integrate`, which advances an extended state
along the evolution contact field in the flow parameter lambda.  Massive runs
carry proper time tau as an extra quadrature variable (d tau/d lambda =
-(d phi/d lambda) / (m c^2)); tau is excluded from the adaptive error norm,
which covers only the 9 extended coordinates.

One right-hand side, ``_block_field``, and one stepping loop, ``_run_loop``,
serve a single state (d,) and a marker block (d, n) alike: components sit on
axis 0 in both, so row j of a block is component j (q0..q3, p0..p3, phi,
ln f) of every marker, one contiguous run.  :func:`integrate` and the marker
blocks of :func:`kinetic.ensemble_series` differ only in the quadrature row
the field carries (tau or ln f) and what they keep of the accepted samples;
they share the step policy, so a block of copies of one state takes that
state's steps.  :func:`geodesic_reference` runs its own right-hand side, an
independent reference, through the same loop.
Its steppers are an embedded Dormand-Prince 5(4) pair
with FSAL, whose error norm is the worst marker's RMS, and a classic RK4 that
splits a lambda span into ceil(span/fixed_step) equal steps.  Every run
allocates its step's buffers once, arrays shaped like the state: ten for
Dormand-Prince (:func:`_dp_step`), seven for RK4 (:func:`_rk4_step`).  Every
right-hand side writes into the slot it is handed, and an accepted step
swaps buffers instead of allocating new ones.  The field writes g . p into
its slot, so besides what a metric with a gradient allocates in
``geometry._contract`` (its diagonal, its gradient and their contraction),
no step allocates an array larger than one (n,) row.  The states the loop
hands on (samples, reports) are buffers that later steps overwrite: a
caller copies what it keeps.  A Dormand-Prince series of
reports reads its intermediate reports off the pair's 4th-order continuous
extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6), so its steps
follow the tolerance, not the report count.  Stop conditions are located on
the cubic Hermite interpolant of each accepted step and refined by
bisection, so the final sample sits on the stop surface to root-finding
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .dynamics import (
    ContactHamiltonianSystem,
    ExtendedState,
    _field_rows,
    _h_and_shell,
    _on_shell,
    project_to_shell,
)
from .errors import (
    InsufficientSamples,
    MasslessProjection,
    MaxStepsExceeded,
    NotMonotone,
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
]


@dataclass(frozen=True)
class StopCondition:
    """A termination rule for integrate().

    kinds: lambda_reached(value), phi_reached(value), tau_reached(value),
    coordinate_bound(axis, value), mass_floor(value).  The value is finite,
    and a lambda_reached value is > 0: runs go forward in lambda.
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
        if not math.isfinite(self.value):
            raise ValueError(f"stop condition value must be finite, got {self.value!r}")
        if self.kind == "lambda_reached" and not self.value > 0:
            raise ValueError("lambda_reached needs a value > 0: runs go forward in lambda")


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical parameters for integrate(), geodesic_reference() and ensemble_series().

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
        if not self.min_step > 0:  # else a rejected step can shrink to 0 and retry forever
            raise ValueError(f"min_step must be positive, got {self.min_step!r}")
        if not self.max_step > 0:
            raise ValueError(f"max_step must be positive, got {self.max_step!r}")


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


def _hermite_crossing(y0, y1, f0, f1, h, target):
    """Bisect where each cubic Hermite y(t) crosses its target; returns (a, b).

    Elementwise over (m,) arrays of one column's values y0, y1 and slopes
    f0, f1 at the ends of steps of width h, where y(t) - target changes sign
    on [0, 1].  The fractions a <= b bracket the crossing (a = b at an exact
    root) until b - a < 1e-16 or a and b are adjacent doubles; each pass
    halves the bracket, so every element stops within 54 passes.
    """
    m = np.shape(target)[0]
    a = np.zeros(m)
    b = np.ones(m)
    ga = y0 - target
    live = np.ones(m, dtype=bool)
    for _ in range(64):
        mid = 0.5 * (a + b)
        live &= (a < mid) & (mid < b)  # else a, b are adjacent and would not move
        if not live.any():
            break
        gm = _hermite_eval(y0, y1, f0, f1, h, mid) - target
        zero = gm == 0.0  # an exact root sets a = b = mid
        flip = (ga < 0) != (gm < 0)
        b = np.where(live & (flip | zero), mid, b)
        a = np.where(live & (~flip | zero), mid, a)
        ga = np.where(live & ~flip, gm, ga)
        live &= ~(b - a < 1e-16)
    return a, b


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
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# continuous extension: b_j(theta) = sum_r _DP_P[j][r] theta^(r+1)
_DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


def _combine(coeffs, ks, out, tmp):
    """out = sum_j coeffs[j] ks[j], accumulated in tableau order; zero terms skipped.

    ``tmp`` holds each product before it is added.  Neither ``out`` nor
    ``tmp`` may be a ks[j] whose coefficient is nonzero.
    """
    np.multiply(coeffs[0], ks[0], out=out)
    for a, kj in zip(coeffs[1:], ks[1:]):
        if a != 0.0:
            np.multiply(a, kj, out=tmp)
            out += tmp
    return out


def _dp_step(rhs, lam, y, h, ks, yi, y5, ncore):
    """One embedded step from y, written into the run's buffers; returns err.

    ``ks`` holds seven buffers shaped like y: ks[0] is f(lam, y) on entry,
    and ``rhs(lam_i, y_i, ks[i])`` writes stage i into ks[i], ks[6] being
    f(lam + h, y5) (FSAL).  Stages 1..5 take their inputs in ``yi``, stage 6
    the 5th-order solution, which goes into ``y5``.  k_1 has weight 0 in
    stage 7, the error estimate and the dense output, so once stage 6's input
    is built ks[1] is the scratch of the later sums (:func:`_dp_dense` and
    the error norm's scale too).  Once stage 6 has been evaluated yi is
    free, and the error estimate over the first ``ncore`` components (the
    ones the norm covers) is written into yi[:ncore] and returned.
    """
    for i in range(1, 7):
        x = y5 if i == 6 else yi
        _combine(_DP_A[i], ks, x, ks[1] if i == 6 else ks[i])
        x *= h
        x += y
        rhs(lam + _DP_C[i] * h, x, ks[i])
    err = _combine(_DP_E, [k[:ncore] for k in ks], yi[:ncore], ks[1][:ncore])
    err *= h
    return err


def _dp_dense(y, h, ks, theta, out):
    """State at fraction theta of an accepted step from y of width h, into ``out``.

    Dormand-Prince's continuous extension y + h sum_j b_j(theta) k_j, 4th
    order in h; exactly y at theta = 0 and the step's y5 to round-off at 1.
    ks are :func:`_dp_step`'s stages, ks[1] its scratch.
    """
    powers = (theta, theta * theta, theta ** 3, theta ** 4)
    b = [sum(c * t for c, t in zip(row, powers)) for row in _DP_P]
    _combine(b, ks, out, ks[1])
    out *= h
    out += y
    return out


def _rk4_step(rhs, lam, y, h, ks, yi, y5):
    """One classic RK4 step from y into ``y5``; ks[0] is f(lam, y) on entry.

    Stage i is written into ks[i] from its input y + (c_i h) k_{i-1}, built
    in ``yi``, which is then the scratch of y + (h/6)(k1 + 2 k2 + 2 k3 + k4).
    """
    for i, c in enumerate((0.5, 0.5, 1.0), start=1):
        np.multiply(c * h, ks[i - 1], out=yi)
        yi += y
        rhs(lam + c * h, yi, ks[i])
    _combine((1.0, 2.0, 2.0, 1.0), ks, y5, yi)
    y5 *= h / 6.0
    y5 += y
    return y5


def _error_norm(err, y0, y1, cfg, ncore, sc):
    """Worst per-marker RMS of err over the first ncore components, scaled by tolerance.

    Components sit on axis 0, of a (d,) state or a (d, n) block.  The scale
    abs_tol + rel_tol max(|y0|, |y1|) and then (err / scale)^2 are built in
    place in ``sc``, shaped like y0[:ncore];
    max(|y0|, |y1|) is formed as max(|y0|, y1, -y1), which needs no second
    array and equals it but for the sign of a zero, which abs_tol > 0 absorbs.
    A marker's ncore (8 to 15) squares are summed in the order np.mean takes
    along a contiguous run: pairwise over the first 8, then the rest in
    sequence.  The norm is thus bit-identical to the plain expression over a
    row-major (n, d) block.
    """
    y1 = y1[:ncore]
    np.abs(y0[:ncore], out=sc)
    np.maximum(sc, y1, out=sc)
    np.negative(sc, out=sc)
    np.minimum(sc, y1, out=sc)
    np.negative(sc, out=sc)
    sc *= cfg.rel_tol
    sc += cfg.abs_tol
    np.divide(err[:ncore], sc, out=sc)
    np.square(sc, out=sc)
    total = ((sc[0] + sc[1]) + (sc[2] + sc[3])) + ((sc[4] + sc[5]) + (sc[6] + sc[7]))
    for row in sc[8:]:
        total += row
    return float(np.max(np.sqrt(total / ncore)))


def _initial_step(rhs, lam0, y0, ks, yi, cfg, ncore, lam_span):
    """Step-size seed following the usual embedded-pair heuristic.

    ks[0] is f0 = f(lam0, y0); ks[1], ks[2] and yi are scratch.  A norm that
    overflows is inf; a seed that is then not > 0 raises StepSizeUnderflow,
    since the loop could not move from it.
    """
    f0, f1, sc = ks[0], ks[1], ks[2][:ncore]
    with np.errstate(over="ignore"):
        d0 = _error_norm(y0, y0, y0, cfg, ncore, sc)
        d1 = _error_norm(f0, y0, y0, cfg, ncore, sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, lam_span) if lam_span > 0 else h0
    h = h0
    if h0 > 0.0:  # else d1 overflowed, and no step could start
        np.multiply(h0, f0, out=yi)
        yi += y0
        rhs(lam0 + h0, yi, f1)
        with np.errstate(over="ignore"):
            d2 = _error_norm(np.subtract(f1, f0, out=f1), y0, y0, cfg, ncore, sc) / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        h = min(100 * h0, h1, cfg.max_step)
    if not h > 0.0:
        raise StepSizeUnderflow(
            f"the first step size underflowed to {h:.3e}: the field is too large "
            f"for rel_tol={cfg.rel_tol:.3e} and abs_tol={cfg.abs_tol:.3e}"
        )
    return min(h, lam_span) if lam_span > 0 else h


# --- the stepping loop ------------------------------------------------------------


def _run_loop(rhs, y0, cfg, span, events, ncore, sample=None, project=None,
              reports=1, on_report=None):
    """Advance y0, a (d,) state or a (d, n) marker block, from lam = 0.

    Components sit on axis 0: y[j] is component j of the state, or of every
    marker of a block, and y[:ncore] are the ones the error norm covers.

    The run ends at lam = span (either sign; None when there is no lambda
    stop) or when an event fires.  ``on_report(k, lam, y)`` receives the
    state at lam = k span / reports for k = 1..reports, in order, with the
    lam at which y was read, and the series is one step sequence: the
    step-size proposal and the FSAL stage carry over from report to report.
    rk45 lands a step only on the span end and reads every earlier report
    off the dense output (:func:`_dp_dense`) of the accepted step that
    passes it, at k span / reports, handing each on as soon as it is read;
    rk4 lands a step on every report.  A landed report is read at the lam
    where its step ends.
    ``events`` is a list of (label, column, value) for a (d,) state; an
    event fires when y[column] crosses value between accepted samples, and
    the crossing is located on the step's cubic Hermite
    (:func:`_hermite_crossing`).
    ``sample(lam, y, f)``, if given, receives the start and every accepted
    sample, with f = rhs(lam, y); ``rhs(lam, y, out)`` writes the field into
    out, a buffer other than y.  y, f and the reports are the run's buffers,
    which later steps overwrite, so ``sample`` and ``on_report`` copy what
    they keep.  All markers share one step sequence and the error norm is
    the worst marker's.  rk45 starts from :func:`_initial_step`, for a state
    and a block alike (a block's seed follows its worst marker's norms); rk4
    splits each report interval into ceil(|interval|/fixed_step) equal
    steps, or takes steps of fixed_step when span is None, and evaluates rhs
    at the end of the run only if a sample or an event reads it.
    ``project(y)``, if given, moves y in place after every
    cfg.shell_projection accepted steps.  Returns (termination, stats).
    """
    lam = 0.0
    y = np.array(y0, dtype=float, order="C")
    dense = cfg.method == "rk45"
    # the step's buffers, shaped like y, for the whole run (see _dp_step, _rk4_step)
    ks = [np.empty_like(y) for _ in range(7 if dense else 4)]
    yi, y5 = np.empty_like(y), np.empty_like(y)
    f = rhs(lam, y, ks[0])
    if sample is not None:
        sample(lam, y, f)
    labels = [label for label, _, _ in events]
    columns = np.array([column for _, column, _ in events], dtype=int)
    values = np.array([value for _, _, value in events], dtype=float)
    direction = -1.0 if span is not None and span < 0 else 1.0
    termination = None
    accepted = rejected = 0
    k = 1
    interval = None if span is None else span / reports
    target = span if dense else interval

    if cfg.method == "rk4":
        h = float(cfg.fixed_step)
        if span is not None:
            h = abs(interval) / max(1, math.ceil(abs(interval) / h))
    else:
        h = _initial_step(rhs, lam, y, ks, yi, cfg, ncore, -1.0 if span is None else interval)

    while termination is None:
        if accepted >= cfg.max_steps:
            raise MaxStepsExceeded(
                f"exceeded {cfg.max_steps} accepted steps before any stop condition"
            )
        h_try = h
        if target is not None:
            h_try = min(h_try, direction * (target - lam))
        if dense:
            h_try = min(h_try, cfg.max_step)
            # attempt until the error controller accepts
            while True:
                err = _dp_step(rhs, lam, y, direction * h_try, ks, yi, y5, ncore)
                norm = _error_norm(err, y, y5, cfg, ncore, ks[1][:ncore])
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
            _rk4_step(rhs, lam, y, direction * h_try, ks, yi, y5)
        y_new, f_new = y5, ks[-1]  # rk45's FSAL stage; rk4's last stage, now free
        hs = direction * h_try
        lam_new = lam + hs
        accepted += 1
        landed = target is not None and (
            direction * lam_new >= direction * target - 1e-14 * max(1.0, abs(target))
        )
        # rk4's end-of-step field is read by the next step, an event or a sample
        if not dense and (events or sample is not None or not (landed and k == reports)):
            rhs(lam_new, y_new, f_new)

        # locate the earliest crossing of any event surface on this step
        hit = None
        if events:
            e0, e1 = y[columns] - values, y_new[columns] - values
            crossed = (((e0 < 0) != (e1 < 0)) | (e1 == 0.0)) & (e0 != 0.0)
            if crossed.any():
                c = columns[crossed]
                _, t = _hermite_crossing(y[c], y_new[c], f[c], f_new[c], hs, values[crossed])
                lam_star = lam + t * hs
                # a crossing at the step's start is put one double after it
                early = direction * (lam_star - lam) <= 0.0
                lam_star[early] = np.nextafter(lam, lam_new)
                t[early] = (lam_star[early] - lam) / hs
                j = int(np.argmin(direction * lam_star))
                hit = (lam_star[j], t[j], labels[np.flatnonzero(crossed)[j]])

        if dense:
            # hand on each report this step passes (up to an event) as it is
            # read off the dense output, so one report is alive at a time
            lam_end = lam_new if hit is None else hit[0]
            while k < reports and direction * k * interval <= direction * lam_end:
                if on_report is not None:
                    at = k * interval
                    on_report(k, at, _dp_dense(y, hs, ks, (at - lam) / hs, yi))
                k += 1

        if hit is not None:
            lam_star, t_star, label = hit
            y_star = _hermite_eval(y, y_new, f, f_new, hs, t_star)
            if sample is not None:
                sample(lam_star, y_star, rhs(lam_star, y_star, ks[1]))  # a free stage
            termination = {"reason": label, "parameter_value": float(lam_star)}
            break

        if (
            project is not None
            and cfg.shell_projection > 0
            and accepted % cfg.shell_projection == 0
        ):
            project(y_new)
            rhs(lam_new, y_new, f_new)

        # swap y/y5 and f/ks[-1]: the old state and field are free slots
        y5, ks[0], ks[-1] = y, f_new, f
        lam, y, f = lam_new, y_new, f_new
        if sample is not None:
            sample(lam, y, f)

        if landed:
            if on_report is not None:
                on_report(k, lam, y)
            if k == reports:
                termination = {"reason": "lambda_reached", "parameter_value": float(lam)}
            else:
                k += 1
                target = k * interval

    return termination, {"steps_accepted": accepted, "steps_rejected": rejected}


def _run_recorded(rhs, y0, cfg, span, events, ncore, project=None):
    """_run_loop keeping a copy of every sample; returns (lams, ys, fs, termination, stats)."""
    samples = []
    termination, stats = _run_loop(
        rhs, y0, cfg, span, events, ncore,
        lambda lam, y, f: samples.append((lam, y.copy(), f.copy())), project=project,
    )
    lams, ys, fs = (np.array(col) for col in zip(*samples))
    return lams, ys, fs, termination, stats


# --- contact-flow integration --------------------------------------------------


def _block_field(sys, y, quadrature, out):
    """d/dlambda of a state (d,) or a block (d, n): the evolution field and its quadrature.

    Components sit on axis 0, and rows 0..8 of ``out``, shaped like y, receive
    d(q, p, phi), formed in place by :func:`dynamics._field_rows`.
    ``quadrature`` names row 9: "tau", the proper time of a massive run,
    d tau = -d phi / (m c^2), which raises TransversalityFailure once m <= 0;
    "ln_f", the density each marker carries, d ln f = 4 dH/dphi
    (div X_H = -4 dH/dphi); None for a (9,) massless state.
    """
    dhdphi = _field_rows(sys, y[0:4], y[4:8], y[8], out)
    if quadrature == "tau":
        m = sys.mass.value(y[8])  # a float for a state
        if not (m > 0.0 if y.ndim == 1 else np.all(m > 0.0)):
            raise TransversalityFailure(
                "mass reached zero during integration; add a mass_floor stop"
            )
        out[9] = -out[8] / (m * sys.c**2)
    elif quadrature == "ln_f":
        np.multiply(4.0, dhdphi, out=out[9, ...])
    return out


def _make_events(cfg: IntegratorConfig, sys: ContactHamiltonianSystem, massive: bool):
    """(lambda span or None, [(label, column, value)]) of cfg.stop.

    A mass floor is the phi where the affine m(phi) reaches it; a mass of
    slope 0 never crosses one, so it is no event.
    """
    lam_end = None
    events = []
    for stop in cfg.stop:
        if stop.kind == "lambda_reached":
            lam_end = stop.value if lam_end is None else min(lam_end, stop.value)
        elif stop.kind == "phi_reached":
            events.append(("phi_reached", 8, stop.value))
        elif stop.kind == "tau_reached":
            if not massive:
                raise ValueError("tau_reached stop is undefined for massless systems")
            events.append(("tau_reached", 9, stop.value))
        elif stop.kind == "coordinate_bound":
            events.append(("coordinate_bound", stop.axis, stop.value))
        elif sys.mass.slope != 0.0:  # mass_floor
            m = sys.mass
            events.append(("mass_floor", 8, m.phi_ref + (stop.value - m.m0) / m.slope))
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

    y0 = np.concatenate([s0.q, s0.p, [s0.phi, 0.0] if massive else [s0.phi]])

    def project(y):
        y[4:8] = project_to_shell(sys, ExtendedState(q=y[0:4], p=y[4:8], phi=y[8])).p

    quadrature = "tau" if massive else None
    lams, ys, fs, termination, stats = _run_recorded(
        lambda lam, y, out: _block_field(sys, y, quadrature, out), y0, cfg, lam_end,
        events, ncore=9, project=project if massive else None,
    )

    q_arr, p_arr, phi_arr = ys[:, 0:4], ys[:, 4:8], ys[:, 8]
    ham, shell = _h_and_shell(sys, q_arr, p_arr, phi_arr)
    n = len(lams)
    tau = ys[:, 9].copy() if massive else np.full(n, np.nan)
    deriv = np.empty((n, 10))
    deriv[:, 0:9] = fs[:, 0:9]
    deriv[:, 9] = fs[:, 9] if massive else np.nan

    on_shell = _on_shell(sys, shell[0], phi_arr[0])
    if massive and on_shell and n >= 2 and not np.all(np.diff(phi_arr) < 0.0):
        raise NotMonotone("phi failed to decrease along a massive on-shell flow")

    metadata = {
        "system": f"{sys.metric.name} / {sys.mass.kind}",
        "c": sys.c,
        "massive": massive,
        "on_shell_start": on_shell,
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

    num = n if num is None else num
    if num < 2:
        raise ValueError(f"a resampled grid needs at least 2 points, got {num}")
    grid = np.linspace(s[0], s[-1], num)
    asc = s * direction
    h_all = np.diff(traj.lam)

    out_vals = np.empty((num, 10))
    out_der = np.empty((num, 10))
    out_lam = np.empty(num)
    out_lin = np.empty((num, 2))  # linear interp of (ham, shell)
    lin_src = np.column_stack([traj.ham, traj.shell])

    # interior grid points: bisect all of them at once on their Hermite steps
    target = grid[1:-1]
    i = np.searchsorted(asc, target * direction, side="right") - 1
    i = np.clip(i, 0, n - 2)
    h = h_all[i]
    y0, y1, f0, f1 = vals[i], vals[i + 1], derivs[i], derivs[i + 1]
    a, b = _hermite_crossing(y0[:, col], y1[:, col], f0[:, col], f1[:, col], h, target)
    t = 0.5 * (a + b)
    tc, hc = t[:, None], h[:, None]
    out_vals[1:-1] = _hermite_eval(y0, y1, f0, f1, hc, tc)
    out_vals[1:-1, col] = target  # put the grid value exactly
    dy_dlam = _hermite_slope(y0, y1, f0, f1, hc, tc)
    out_der[1:-1] = dy_dlam / dy_dlam[:, col:col + 1]
    out_der[1:-1, col] = 1.0
    out_lam[1:-1] = traj.lam[i] + t * h
    out_lin[1:-1] = (1 - tc) * lin_src[i] + tc * lin_src[i + 1]

    # endpoints: the stored samples, with the lambda-derivatives rescaled to
    # the new parameter
    for k, j in ((0, 0), (num - 1, n - 1)):
        out_vals[k], out_lam[k], out_lin[k] = vals[j], traj.lam[j], lin_src[j]
        d = derivs[j] / derivs[j][col]
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


def _geodesic_field(metric, y, out):
    """d(q, u)/dtau of the geodesic equation at y = (q, u) (8,), at phi = 0, into out.

    For a diagonal metric, with u_a = u^a / g^{aa} and D[a, k] = d g^{aa}/d q^k,
    du^mu/dtau = -Gamma^mu_{ab} u^a u^b
               = u_mu (D[mu] . u) - 1/2 g^{mu mu} sum_a D[a, mu] u_a^2.
    g^{aa} is read through geometry._signed, so a point off (-,+,+,+) raises
    BadSignature before any division.
    """
    u = y[4:8]
    g, grad = geometry._signed(metric, y[0:4], 0.0)
    u_low = u / g
    d_q = np.zeros((4, 4)) if grad is None else grad[:, :4]
    out[0:4] = u
    out[4:8] = u_low * (d_q @ u) - 0.5 * g * ((u_low * u_low) @ d_q)
    return out


def geodesic_reference(
    sys: ContactHamiltonianSystem,
    q0,
    u0,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Integrate the geodesic equation du^mu/dtau = -Gamma^mu_{ab} u^a u^b.

    Independent reference for constant-mass motion in a phi-independent
    metric, parametrized by proper time; the metric is evaluated at phi = 0,
    and the ``phi`` column is 0.  The right-hand side is the closed form of
    a diagonal metric, read off the diagonal g^{aa} and its gradient
    (:func:`_geodesic_field`).  ``u0`` is the initial contravariant
    four-velocity, a (4,) array with g_{mu nu} u^mu u^nu = -c^2 (as
    dynamics.four_velocity returns it).  The returned trajectory stores the
    contravariant four-velocity in the ``p`` slot (see metadata["p_column"]).
    Stop conditions: lambda_reached (meaning tau) and coordinate_bound only.
    Raises BadSignature at the first stage, trial or accepted, whose g^{aa}
    leave (-,+,+,+), and NonFiniteMetric / NonFiniteDerivative where the
    metric or its gradient is not finite.
    """
    if not cfg.stop:
        raise ValueError("geodesic_reference needs at least one stop condition")
    for stop in cfg.stop:
        if stop.kind not in ("lambda_reached", "coordinate_bound"):
            raise ValueError(f"stop kind {stop.kind!r} is not supported for geodesics")
    q0 = np.asarray(q0, dtype=float).reshape(4)
    u = np.asarray(u0, dtype=float).reshape(4)

    _, grad = sys.metric.diagonal(q0, 0.0)
    if grad is not None and np.max(np.abs(grad[:, 4])) > 1e-10:
        raise ValueError("geodesic reference requires a phi-independent metric")
    norm0 = float(np.dot(geometry._reciprocals(sys.metric, q0, 0.0) * u, u))
    if abs(norm0 + sys.c**2) > 1e-6 * sys.c**2:
        raise ValueError(f"u0 is not normalized: g u u = {norm0:.6e}, expected {-sys.c**2}")

    lam_end, events = _make_events(cfg, sys, massive=False)
    y0 = np.concatenate([q0, u])
    lams, ys, fs, termination, stats = _run_recorded(
        lambda lam, y, out: _geodesic_field(sys.metric, y, out), y0, cfg, lam_end, events,
        ncore=8,
    )

    n = len(lams)
    q_arr, u_arr = ys[:, 0:4], ys[:, 4:8]
    phi = np.zeros(n)
    shell = geometry._gpp(geometry._reciprocals(sys.metric, q_arr, phi), u_arr) + sys.c**2
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
        lam=lams, q=q_arr, p=u_arr, phi=phi,
        ham=0.5 * shell, tau=lams.copy(), shell=shell, deriv=deriv,
        parameter="tau", metadata=metadata,
    )


# --- batched ensemble stepping -----------------------------------------------


def _advance_block(sys, y, span, reports, cfg, on_report):
    """Advance a (10, n) block over span as ``reports`` equal intervals in one run.

    Row j of y is component j (q0..q3, p0..p3, phi, ln f) of every marker;
    on_report(k, lam, block) receives the block at the end of interval k, as
    :func:`_run_loop` hands it on.  Returns the loop's step counts.  Callers
    pass a nonzero span.
    """
    _, stats = _run_loop(
        lambda lam, block, out: _block_field(sys, block, "ln_f", out), y, cfg, span, (),
        ncore=9, reports=reports, on_report=on_report,
    )
    return stats


def advance_batch(
    sys: ContactHamiltonianSystem,
    y: np.ndarray,
    dlam: float,
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, int]:
    """Advance a row-major marker block (n, 10) = [q, p, phi, ln f] by dlam in lambda.

    Not public API: a thin adapter over :func:`_advance_block`, kept only
    because the benchmark probes (``bench/probes.py``, ``bench/tracing.py``)
    call it by name; ensembles go through :func:`kinetic.ensemble_series`.
    The block runs as its (10, n) transpose; the input is not modified.
    Supports either sign of dlam, and dlam = 0 takes no step.  Returns (new
    C-contiguous (n, 10) block, accepted steps).
    """
    rows = np.asarray(y, dtype=float)
    if dlam == 0.0:
        return rows.copy(), 0
    out = []
    stats = _advance_block(sys, rows.T, dlam, 1, cfg, lambda k, _, block: out.append(block.T.copy()))
    return out[0], stats["steps_accepted"]
