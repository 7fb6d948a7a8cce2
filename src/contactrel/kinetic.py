"""Collisionless kinetic layer: marker ensembles and entropy production.

A distribution f on extended phase space is represented by n markers with
fixed quadrature weights w_i (sum w = initial measure of the support) and
transported density values f_i.  Along characteristics of the evolution
contact field, d f_i/d lambda = 4 f_i dH/dphi (the flow compresses phase
space at rate div X_H = -4 dH/dphi), so ln f_i is integrated as a quadrature
variable next to the marker coordinates.  An :class:`Ensemble` holds its
markers in the stepper's layout, the (9, n) rows [q0..q3, p0..p3, phi], and
:func:`ensemble_series` steps them with ln f as a tenth row.

Entropy functionals S[f] = integral sigma(f) are estimated by

    S approx sum_i (w_i / f_i) sigma(f_i),

and their exact production rate along the flow by

    dS/dlambda = 4 sum_i (w_i / f_i) [f_i sigma'(f_i) - sigma(f_i)] dH/dphi_i,

which is non-positive whenever dH/dphi >= 0 on all markers, since concave
sigma with sigma(0) = 0 has f sigma' - sigma <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import (
    ContactHamiltonianSystem,
    _dH_dphi_arrays,
    solve_p0_on_shell,
)
from .errors import EmptyEnsemble, NonPositiveDensity, UnnormalizableSpec
from .integrators import IntegratorConfig, _advance_block

__all__ = [
    "Ensemble",
    "EntropyFunctional",
    "GaussianMomentum",
    "UniformMomentum",
    "DensitySpec",
    "sample_ensemble",
    "entropy",
    "entropy_rate",
    "ensemble_series",
]


@dataclass(frozen=True)
class EntropyFunctional:
    """A concave density functional sigma with sigma(0) = 0."""

    sigma: Callable[[np.ndarray], np.ndarray]
    sigma_prime: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    @classmethod
    def shannon_boltzmann(cls) -> "EntropyFunctional":
        """sigma(f) = -f ln f, so S = -sum w_i ln f_i."""

        # each formed in one array of its own, since every report reads them
        # over all markers: -(f ln f) has the bits of (-f) ln f, and
        # -1 - ln f those of -ln f - 1
        def sigma(f):
            f = np.asarray(f, dtype=float)
            positive = f > 0.0
            out = np.where(positive, f, 1.0)
            np.log(out, out=out)
            out *= f
            np.negative(out, out=out)
            out[~positive] = 0.0
            return out

        def sigma_prime(f):
            f = np.asarray(f, dtype=float)
            out = np.log(f, out=np.empty_like(f))
            return np.subtract(-1.0, out, out=out)

        return cls(sigma=sigma, sigma_prime=sigma_prime, name="shannon-boltzmann")


@dataclass
class Ensemble:
    """Marker block at a common flow parameter ``lam``.

    ``y`` (9, n) holds the markers in the rows the stepper advances,
    [q0..q3, p0..p3, phi], row j holding component j of every marker; ``q``
    (n, 4), ``p`` (n, 4) and ``phi`` (n,) are views of it.  ``w`` (n,) are
    the quadrature weights and ``f`` (n,) the densities.  Construction
    raises ValueError for a y that is not (9, n) or a w or f that is not
    (n,), EmptyEnsemble for zero markers and NonPositiveDensity, naming the
    count and ``lam``, for any density that is not > 0 (NaN included); no
    marker is ever dropped.  Propagation builds an Ensemble at every report,
    so a density that underflows to zero raises there.  Weights are never
    modified by propagation.
    """

    sys: ContactHamiltonianSystem
    lam: float
    y: np.ndarray
    w: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        self.y, self.w, self.f = (np.asarray(a, dtype=float) for a in (self.y, self.w, self.f))
        n = self.y.shape[-1] if self.y.ndim else 0
        if (self.y.shape, self.w.shape, self.f.shape) != ((9, n), (n,), (n,)):
            raise ValueError(f"an ensemble takes y (9, n), w (n,) and f (n,), got y "
                             f"{self.y.shape}, w {self.w.shape} and f {self.f.shape}")
        if n == 0:
            raise EmptyEnsemble("ensemble has no markers")
        if not np.all(self.f > 0.0):
            bad = np.count_nonzero(~(self.f > 0.0))
            raise NonPositiveDensity(
                f"density of {bad} of {n} markers is not positive "
                f"at lambda = {self.lam:.17g}"
            )

    q = property(lambda self: self.y[0:4].T)
    p = property(lambda self: self.y[4:8].T)
    phi = property(lambda self: self.y[8])
    n = property(lambda self: self.y.shape[1])

    def total_weight(self) -> float:
        return float(np.sum(self.w))


@dataclass(frozen=True)
class GaussianMomentum:
    """Independent normal components for the spatial momentum."""

    mean: tuple[float, float, float]
    sigma: tuple[float, float, float]


@dataclass(frozen=True)
class UniformMomentum:
    """Uniform box for the spatial momentum; zero halfwidth pins a component."""

    center: tuple[float, float, float]
    halfwidth: tuple[float, float, float]


@dataclass(frozen=True)
class DensitySpec:
    """Normalized product density over (q, p_spatial, phi).

    Position components and phi are uniform over intervals center +- halfwidth
    (zero halfwidth pins the coordinate and removes it from the density); the
    spatial momentum is either a uniform box or an independent Gaussian.  p_0
    is always determined by the mass-shell constraint, never sampled.
    """

    momentum: GaussianMomentum | UniformMomentum
    q_center: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    q_halfwidth: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    phi_center: float = 0.0
    phi_halfwidth: float = 0.0


def _uniform_axes(spec: DensitySpec) -> list[tuple[str, float, float]]:
    """(label, c, h) of each uniform axis: q^0..q^3, phi, a uniform momentum's three.

    An axis is uniform over c +- h; h = 0 pins it and drops it from the
    density.  The order is the sampling order.
    """
    mom = spec.momentum
    axes = [("q", c, h) for c, h in zip(spec.q_center, spec.q_halfwidth)]
    axes.append(("phi", spec.phi_center, spec.phi_halfwidth))
    if isinstance(mom, UniformMomentum):
        axes += [("momentum", c, h) for c, h in zip(mom.center, mom.halfwidth)]
    return axes


def _validate_spec(spec: DensitySpec) -> None:
    """Check normalizability: some axis is active, and none has a negative width."""
    active = 0
    for label, _, h in _uniform_axes(spec):
        if h < 0:
            raise UnnormalizableSpec(f"negative {label} halfwidth")
        active += h > 0
    mom = spec.momentum
    if isinstance(mom, GaussianMomentum):
        if any(s <= 0 for s in mom.sigma):
            raise UnnormalizableSpec("Gaussian momentum needs sigma > 0 in every component")
        active += 3
    elif not isinstance(mom, UniformMomentum):
        raise UnnormalizableSpec(f"unknown momentum law {type(mom).__name__}")
    if active == 0:
        raise UnnormalizableSpec(
            "all dimensions are pinned; the spec defines a point mass, not a density"
        )


def sample_ensemble(
    sys: ContactHamiltonianSystem,
    spec: DensitySpec,
    n: int,
    seed: int,
) -> Ensemble:
    """Draw n markers from the spec's density, on shell, with w_i = 1/n.

    Sampling uses the density itself as the proposal, so f_i is the density
    evaluated at each drawn point and the weights are uniform.  Reproducible
    for a fixed seed.
    """
    if n <= 0:
        raise EmptyEnsemble("sample_ensemble needs n > 0")
    _validate_spec(spec)
    rng = np.random.default_rng(seed)

    logf = np.zeros(n)
    y = np.empty((9, n))
    # a Gaussian momentum has no uniform axes, and zip ends at phi
    for row, (_, c_, h_) in zip([*y[0:4], y[8], *y[5:8]], _uniform_axes(spec)):
        if h_ > 0:
            row[:] = rng.uniform(c_ - h_, c_ + h_, size=n)
            logf -= math.log(2.0 * h_)
        else:
            row[:] = c_

    mom = spec.momentum
    if isinstance(mom, GaussianMomentum):
        for row, mu_, s_ in zip(y[5:8], mom.mean, mom.sigma):
            row[:] = rng.normal(mu_, s_, size=n)
            logf += (
                -0.5 * ((row - mu_) / s_) ** 2
                - math.log(s_ * math.sqrt(2.0 * math.pi))
            )

    y[4] = solve_p0_on_shell(sys, y[0:4].T, y[8], y[5:8].T)[:, 0]
    return Ensemble(sys=sys, lam=0.0, y=y, w=np.full(n, 1.0 / n), f=np.exp(logf))


def _weight_per_density(e: Ensemble) -> np.ndarray:
    """w / f, after checking that f is positive and finite and w / f finite."""
    if not np.all(e.f > 0.0):
        raise NonPositiveDensity("ensemble carries non-positive density values")
    if not np.all(np.isfinite(e.f)):
        raise NonPositiveDensity("ensemble carries non-finite density values")
    with np.errstate(over="ignore"):
        ratio = e.w / e.f
    if not np.isfinite(np.max(ratio)):  # max is inf or nan if any entry is
        bad = np.count_nonzero(~np.isfinite(ratio))
        raise NonPositiveDensity(
            f"w / f is not finite for {bad} of {e.n} markers"
        )
    return ratio


def entropy(e: Ensemble, functional: EntropyFunctional) -> float:
    """Marker estimate S approx sum_i (w_i/f_i) sigma(f_i)."""
    ratio = _weight_per_density(e)
    return float(np.sum(np.multiply(ratio, functional.sigma(e.f), out=ratio)))


def entropy_rate(e: Ensemble, functional: EntropyFunctional) -> float:
    """Exact dS/dlambda of the marker estimator at the ensemble's instant.

    rate = 4 sum_i (w_i/f_i) [f_i sigma'(f_i) - sigma(f_i)] dH/dphi_i.
    """
    ratio = _weight_per_density(e)
    dhdphi = _dH_dphi_arrays(e.sys, e.q, e.p, e.phi)
    bracket = e.f * functional.sigma_prime(e.f)
    bracket -= functional.sigma(e.f)
    np.multiply(ratio, bracket, out=ratio)
    ratio *= dhdphi
    return float(4.0 * np.sum(ratio))


def ensemble_series(
    e: Ensemble,
    dlam_total: float,
    reports: int,
    functional: EntropyFunctional,
    cfg: IntegratorConfig | None = None,
    on_report: Callable[[int, Ensemble], None] | None = None,
) -> tuple[Ensemble, np.ndarray, dict]:
    """Advance an ensemble in ``reports`` equal intervals, logging a row each.

    The markers move as one (10, n) block whose row j is component j (q0..q3,
    p0..p3, phi, ln f) of every marker, along one step sequence over the
    whole span, so cfg.max_steps bounds the steps of the whole series.
    Weights are untouched; densities evolve by d ln f/d lambda = 4 dH/dphi.
    With rk45 the reports are read off the steps' dense output and only the
    span end is landed on, so the step count follows the tolerance, not
    ``reports``; rk4 lands a step on every report.  Returns (final ensemble,
    rows, step counts) where rows has shape (reports + 1, 4) with columns
    (lambda, total weight, entropy, analytic entropy rate), and the counts
    are a dict with "steps_accepted" and "steps_rejected".  Report k is
    labelled e.lam plus the lambda at which the run read it, k dlam_total /
    reports or, for a landed report, where its step ends.  The optional
    ``on_report`` callback receives (report index, ensemble) at the initial
    instant and after every interval, e.g. to write snapshots.  A reported
    ensemble's y is rows 0..8 of the stepper's (10, n) buffer, not a copy,
    which the next step or report overwrites: a callback copies what it
    keeps, as the snapshot writer does.  Only the final ensemble, which no
    step follows, is returned as it is.  Raises NonPositiveDensity, with the
    number of markers and the lambda, when exp(ln f) underflows to zero for
    any marker, instead of dropping it.
    """
    if reports < 1:
        raise ValueError("reports must be at least 1")
    if not math.isfinite(dlam_total) or dlam_total == 0.0:
        raise ValueError("dlam_total must be finite and nonzero")
    rows = np.empty((reports + 1, 4))

    def log(k: int, cur: Ensemble):
        rows[k] = (cur.lam, cur.total_weight(), entropy(cur, functional),
                   entropy_rate(cur, functional))
        if on_report is not None:
            on_report(k, cur)

    log(0, e)
    block = np.vstack([e.y, np.log(e.f)])
    end = e

    def land(k: int, lam: float, y: np.ndarray):
        nonlocal end
        cur = Ensemble(sys=e.sys, lam=e.lam + lam, y=y[0:9], w=e.w.copy(), f=np.exp(y[9]))
        log(k, cur)
        if k == reports:
            end = cur

    stats = _advance_block(e.sys, block, dlam_total, reports, cfg or IntegratorConfig(), land)
    return end, rows, stats
