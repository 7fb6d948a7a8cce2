"""Contact Hamiltonian dynamics on extended phase space (q^mu, p_mu, phi).

The Hamiltonian is H = 1/2 (g^{ab}(q, phi) p_a p_b + m(phi)^2 c^2); the
mass shell is H = 0.  The evolution contact vector field X_H satisfies

    dq^mu/dlam = g^{mu nu} p_nu
    dp_mu/dlam = -1/2 (d g^{ab}/d q^mu) p_a p_b - p_mu dH/dphi
    dphi/dlam  = g^{ab} p_a p_b

with dH/dphi = 1/2 (d g^{ab}/d phi) p_a p_b + m c^2 m'.  X_H conserves H but
not phase-space volume: div X_H = -4 dH/dphi.

Index conventions follow geometry.py; p_0 = -E/c is negative for
future-directed momenta in signature (-,+,+,+).

Along a massive flow dphi = -m c^2 dtau, so an affine m(phi) decays as
m(tau) = m0 exp(-alpha tau); ``mass_from_tau`` is that law, and the battery's
decay checks measure the flow against it.

The public functions take one ExtendedState.  H, the shell residual, dH/dphi
and the contact-identity residuals have no public single-state form: the
private batched functions over q (n, 4), p (n, 4), phi (n,) blocks
(``_h_and_shell``, ``_field_arrays``, ``_dH_dphi_arrays``,
``_contact_residual_arrays``) compute them, and the integrators, the kinetic
layer, the scenario builder and the verification battery call those
directly.  evolution_field is the n = 1 case of ``_field_arrays``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import (
    MasslessProjection,
    NotTimelike,
    ShellSolveFailed,
    TransversalityFailure,
)
from .geometry import MetricField

__all__ = [
    "MassModel",
    "ContactHamiltonianSystem",
    "ExtendedState",
    "project_to_shell",
    "evolution_field",
    "reduced_field_phi",
    "four_velocity",
    "mass_from_tau",
    "solve_p0_on_shell",
    "state_from_velocity",
]

# m(phi)^2 c^2 below this is treated as massless for reduction purposes.
TRANSVERSALITY_TOL = 1e-12
# Base step of the stencils over extended coordinates (_fd_grad_H and the
# battery's divergence trace): coordinate x steps by _H_FD_STEP * (1 + |x|).
_H_FD_STEP = 1e-3


@dataclass(frozen=True)
class MassModel:
    """Rest mass as a function of the contact coordinate phi.

    Kinds
    -----
    constant : m(phi) = m0
    affine_phi : m(phi) = m0 + slope * (phi - phi_ref).  With
        slope = alpha / c^2 this encodes exponential proper-time decay
        m(tau) = m0 exp(-alpha (tau - tau0)) exactly, because
        dphi = -m c^2 dtau.
    zero : massless (photons); proper time is undefined.
    """

    kind: str
    m0: float = 0.0
    slope: float = 0.0
    phi_ref: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "affine_phi", "zero"):
            raise ValueError(f"unknown mass model kind: {self.kind!r}")
        if self.kind != "zero" and not self.m0 > 0.0:
            raise ValueError("mass models with kind != 'zero' need m0 > 0")

    @classmethod
    def constant(cls, m0: float) -> "MassModel":
        return cls(kind="constant", m0=float(m0))

    @classmethod
    def zero(cls) -> "MassModel":
        return cls(kind="zero")

    @classmethod
    def exp_decay(cls, m0: float, alpha: float, phi0: float = 0.0, c: float = 1.0) -> "MassModel":
        """Affine-in-phi mass that decays exponentially in proper time.

        ``alpha`` is the proper-time rate; ``phi0`` anchors where m = m0.
        """
        return cls(
            kind="affine_phi",
            m0=float(m0),
            slope=float(alpha) / (float(c) * float(c)),  # c^2 past 1e308 is inf: slope 0
            phi_ref=float(phi0),
        )

    def value(self, phi):
        """m(phi); vectorized over phi."""
        phi = np.asarray(phi, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(phi) if phi.ndim else 0.0
        if self.kind == "constant":
            return np.full_like(phi, self.m0) if phi.ndim else self.m0
        out = self.m0 + self.slope * (phi - self.phi_ref)
        return out if phi.ndim else float(out)

    def deriv(self, phi):
        """m'(phi); vectorized over phi."""
        phi = np.asarray(phi, dtype=float)
        s = self.slope if self.kind == "affine_phi" else 0.0
        return np.full_like(phi, s) if phi.ndim else s


@dataclass(frozen=True)
class ContactHamiltonianSystem:
    """A metric field, a mass model, and the speed of light."""

    metric: MetricField
    mass: MassModel
    c: float = 1.0

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError("c must be positive")

    @property
    def massive(self) -> bool:
        return self.mass.kind != "zero"


def _vec4(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"{name} must have shape (4,), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite components")
    return arr


@dataclass(frozen=True)
class ExtendedState:
    """A point (q^mu, p_mu, phi) of the 9-dimensional extended phase space."""

    q: np.ndarray
    p: np.ndarray
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "q", _vec4(self.q, "q"))
        object.__setattr__(self, "p", _vec4(self.p, "p"))
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError("phi is non-finite")
        object.__setattr__(self, "phi", phi)


# --- batched internals -------------------------------------------------------
# q: (n, 4), p: (n, 4), phi: (n,).  These skip the full signature validation
# for speed; they only check finiteness of the metric evaluation.  Metric
# derivatives enter only through the field's contract callback.


def _h_and_shell(sys, q, p, phi):
    g = geometry._eval_raw(sys.metric, q, phi)
    m = np.asarray(sys.mass.value(phi), dtype=float)
    shell = geometry._gpp(g, p) + (m * sys.c) ** 2
    return 0.5 * shell, shell


def _dH_dphi_from(sys, phi, dphi_gpp):
    """dH/dphi from d_phi(g^{ab} p_a p_b)."""
    m = np.asarray(sys.mass.value(phi), dtype=float)
    dm = np.asarray(sys.mass.deriv(phi), dtype=float)
    return 0.5 * dphi_gpp + m * sys.c**2 * dm


def _dH_dphi_arrays(sys, q, p, phi):
    _, _, dphi_gpp = sys.metric.contract(q, p, phi)
    return _dH_dphi_from(sys, phi, dphi_gpp)


def _field_arrays(sys, q, p, phi):
    """Batched evolution field: returns (dq, dp, dphi, dHdphi)."""
    dq, dq_gpp, dphi_gpp = sys.metric.contract(q, p, phi)
    dHdphi = _dH_dphi_from(sys, phi, dphi_gpp)
    dp = -0.5 * dq_gpp
    dp -= p * dHdphi[..., None]
    dphi = np.einsum("...a,...a->...", p, dq)  # p . dq, annihilated by eta exactly
    return dq, dp, dphi, dHdphi


def _fd_grad_H(sys, q, p, phi):
    """4th-order central differences of H in all 9 extended coordinates.

    Batched like _field_arrays; coordinate x of each row steps by
    _H_FD_STEP * (1 + |x|).  Returns dH/dq (n, 4), dH/dp (n, 4), dH/dphi (n,).
    """

    def fd(h_of, x):
        return geometry._fd4_of(h_of, x, _H_FD_STEP * (1.0 + np.abs(x)))

    dHdq = np.empty(q.shape)
    dHdp = np.empty(p.shape)
    for mu in range(4):

        def h_of_q(x, mu=mu):
            qs = q.copy()
            qs[:, mu] = x
            return _h_and_shell(sys, qs, p, phi)[0]

        def h_of_p(x, mu=mu):
            ps = p.copy()
            ps[:, mu] = x
            return _h_and_shell(sys, q, ps, phi)[0]

        dHdq[:, mu] = fd(h_of_q, q[:, mu])
        dHdp[:, mu] = fd(h_of_p, p[:, mu])
    dHdphi_fd = fd(lambda x: _h_and_shell(sys, q, p, x)[0], phi)
    return dHdq, dHdp, dHdphi_fd


def _contact_residual_arrays(sys, q, p, phi):
    """Residuals of the defining contact identities: r1 (n,) and r2 (n,).

    r1: |eta(X_H)| = |dphi - p . dH/dp|: the analytic dphi against p
        contracted with the finite-difference gradient of H in p.
    r2: max-norm residual of iota_X d eta = dH - (dH/dphi) eta, with the
        gradient of H estimated by finite differences.  Componentwise this
        checks  -dp_mu = dH/dq^mu + (dH/dphi) p_mu  and  dq^mu = dH/dp_mu,
        plus the dphi component where the analytic dH/dphi is compared
        against its finite-difference estimate.
    """
    dq, dp, dphi, dHdphi = _field_arrays(sys, q, p, phi)
    dHdq, dHdp, dHdphi_fd = _fd_grad_H(sys, q, p, phi)
    r1 = np.abs(dphi - np.einsum("...a,...a->...", p, dHdp))  # eta(X_H) = dphi - p.dH/dp
    res_q = np.abs(-dp - dHdq - dHdphi_fd[:, None] * p)   # dq^mu coefficients
    res_p = np.abs(dq - dHdp)                              # dp_mu coefficients
    res_phi = np.abs(dHdphi - dHdphi_fd)                   # dphi coefficient
    r2 = np.maximum(np.maximum(res_q.max(axis=1), res_p.max(axis=1)), res_phi)
    return r1, r2


def _as_batch(s: ExtendedState):
    return s.q[None, :], s.p[None, :], np.asarray([s.phi])


# --- public single-state operations ------------------------------------------


def project_to_shell(sys: ContactHamiltonianSystem, s: ExtendedState) -> ExtendedState:
    """Rescale p so the state lands exactly on the mass shell.

    p -> beta p with beta = sqrt(m^2 c^2 / (-g^{ab} p_a p_b)).  Requires a
    timelike momentum (g p p < 0) and positive mass; on-shell states are fixed
    points up to round-off.
    """
    q, p, phi = _as_batch(s)
    g = geometry._eval_raw(sys.metric, q, phi)
    gpp = float(geometry._gpp(g, p)[0])
    if not gpp < 0.0:
        raise NotTimelike(f"g p p = {gpp:.6e} is not negative; cannot rescale to shell")
    m = float(sys.mass.value(s.phi))
    if not m > 0.0:
        raise MasslessProjection("shell projection needs m(phi) > 0")
    beta = math.sqrt((m * sys.c) ** 2 / (-gpp))
    return ExtendedState(q=s.q, p=beta * s.p, phi=s.phi)


def evolution_field(
    sys: ContactHamiltonianSystem, s: ExtendedState
) -> tuple[np.ndarray, np.ndarray, float]:
    """The evolution contact vector field X_H at a state: (dq, dp, dphi)/dlam."""
    q, p, phi = _as_batch(s)
    dq, dp, dphi, _ = _field_arrays(sys, q, p, phi)
    return dq[0], dp[0], float(dphi[0])


def reduced_field_phi(sys: ContactHamiltonianSystem, s: ExtendedState) -> tuple[np.ndarray, np.ndarray]:
    """On-shell flow with phi as the evolution parameter.

    dq^mu/dphi = -g^{mu nu} p_nu / (m^2 c^2)
    dp_mu/dphi = [1/2 (d g^{ab}/d q^mu) p_a p_b
                  + 1/2 p_mu (d g^{ab}/d phi) p_a p_b] / (m^2 c^2)
                  + p_mu m'/m

    Well-defined only while m(phi)^2 c^2 stays away from zero.
    """
    m = float(sys.mass.value(s.phi))
    m2c2 = (m * sys.c) ** 2
    if m2c2 < TRANSVERSALITY_TOL:
        raise TransversalityFailure(
            f"m(phi)^2 c^2 = {m2c2:.3e} < {TRANSVERSALITY_TOL}; phi is not a valid parameter"
        )
    gp, dq_gpp, dphi_gpp = sys.metric.contract(*_as_batch(s))
    dm = float(sys.mass.deriv(s.phi))

    dqdphi = -gp[0] / m2c2
    dpdphi = 0.5 * dq_gpp[0] / m2c2
    dpdphi += 0.5 * s.p * float(dphi_gpp[0]) / m2c2
    dpdphi += s.p * dm / m
    return dqdphi, dpdphi


def four_velocity(sys: ContactHamiltonianSystem, s: ExtendedState) -> np.ndarray:
    """u^mu = g^{mu nu} p_nu / m for a massive state, as a (4,) array."""
    m = float(sys.mass.value(s.phi))
    if not m > 0.0:
        raise MasslessProjection("four-velocity needs m(phi) > 0")
    q, p, phi = _as_batch(s)
    g = geometry._eval_raw(sys.metric, q, phi)
    return np.einsum("ab,b->a", g[0], s.p) / m


def mass_from_tau(sys: ContactHamiltonianSystem, phi_start: float, dtau):
    """Mass after elapsed proper time dtau, starting from phi = phi_start.

    Follows dm/dtau = -c^2 m'(phi) m: constant mass stays m0; an affine mass
    with slope alpha/c^2 decays as m(phi_start) exp(-alpha dtau).  dtau may
    be an array; the result then has its shape.
    """
    mass = sys.mass
    if mass.kind == "zero":
        raise MasslessProjection("proper time is undefined for massless particles")
    m_start = float(mass.value(phi_start))
    if mass.kind == "constant" or mass.slope == 0.0:
        return np.full_like(dtau, m_start, dtype=float) if np.ndim(dtau) else m_start
    return m_start * np.exp(-mass.slope * sys.c**2 * dtau)


# --- on-shell construction helpers -------------------------------------------


def solve_p0_on_shell(sys: ContactHamiltonianSystem, q, phi, p_spatial) -> np.ndarray:
    """Solve g^{ab} p_a p_b + m^2 c^2 = 0 for p_0 given spatial momentum.

    Batched: q (..., 4), phi scalar or (...,), p_spatial (..., 3).  Picks
    the future-directed root p_0 < 0.  Raises ShellSolveFailed when no such
    root exists (e.g. zero spatial momentum for a photon).
    """
    single = np.asarray(q).ndim == 1
    q = np.atleast_2d(np.asarray(q, dtype=float))
    p_spatial = np.atleast_2d(np.asarray(p_spatial, dtype=float))
    phi_arr = np.broadcast_to(np.asarray(phi, dtype=float), q.shape[:-1])
    g = geometry._eval_raw(sys.metric, q, phi_arr)
    m = np.asarray(sys.mass.value(phi_arr), dtype=float)

    a = g[..., 0, 0]
    b = 2.0 * np.einsum("...i,...i->...", g[..., 0, 1:], p_spatial)
    c0 = (
        np.einsum("...ij,...i,...j->...", g[..., 1:, 1:], p_spatial, p_spatial)
        + (m * sys.c) ** 2
    )
    disc = b * b - 4.0 * a * c0
    if np.any(disc <= 0.0):
        raise ShellSolveFailed("no real energy root for the given spatial momentum")
    sq = np.sqrt(disc)
    roots = np.stack([(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)], axis=-1)
    neg = roots < 0.0
    if not np.all(np.sum(neg, axis=-1) == 1):
        raise ShellSolveFailed("energy root with p_0 < 0 is missing or ambiguous")
    p0 = np.where(neg[..., 0], roots[..., 0], roots[..., 1])
    p = np.concatenate([p0[..., None], p_spatial], axis=-1)
    return p[0] if single else p


def state_from_velocity(sys: ContactHamiltonianSystem, q, phi: float, v_spatial) -> ExtendedState:
    """On-shell state from a coordinate three-velocity dx^i/dt.

    Normalizes u = A (c, v) so that g_{mu nu} u^mu u^nu = -c^2, then lowers
    p_mu = m g_{mu nu} u^nu.  Requires m > 0 and a timelike (c, v).
    """
    m = float(sys.mass.value(phi))
    if not m > 0.0:
        raise MasslessProjection("velocity initialization needs m(phi) > 0")
    q = _vec4(q, "q")
    v = np.asarray(v_spatial, dtype=float).reshape(3)
    u_tilde = np.concatenate([[sys.c], v])
    gl = geometry.lowered_metric(sys.metric, q, phi)
    norm2 = float(u_tilde @ gl @ u_tilde)
    if not norm2 < 0.0:
        raise NotTimelike(f"(c, v) has non-timelike norm {norm2:.6e}")
    u = sys.c * u_tilde / math.sqrt(-norm2)
    p = m * (gl @ u)
    return ExtendedState(q=q, p=p, phi=float(phi))
