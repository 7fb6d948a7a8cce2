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
m(tau) = m0 exp(-alpha tau), ``mass_from_tau``; beside it ``_closed_form`` is
the flow's exact solution on the shell, which the battery holds runs to.

The public functions take one ExtendedState.  The shell residual (H is half
of it), dH/dphi and the contact-identity residuals have no public
single-state form: the private batched functions over q (n, 4), p (n, 4),
phi (n,) blocks (``_shell``, ``_field_arrays``, ``_dH_dphi_arrays``,
``_contact_residual_arrays``) compute them, and the integrators, the kinetic
layer, the scenario builder and the verification battery call those
directly.  evolution_field is the n = 1 case of ``_field_arrays``.  The field
arithmetic itself is written once, in ``_field_rows``, over component-major
(4, n) rows: the integrators hand it the rows of a (d, n) block and the slot
to write, and ``_field_arrays`` hands it transposed views of (n, 4) arrays.
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

    Every kind is one affine law, m(phi) = m0 + slope * (phi - phi_ref), so
    m'(phi) is the number ``slope``.  With slope = alpha / c^2 it encodes
    exponential proper-time decay m(tau) = m0 exp(-alpha (tau - tau0))
    exactly, because dphi = -m c^2 dtau.  The kind names the law and says
    which parameters it admits:

    Kinds
    -----
    constant : m0 > 0, slope 0
    affine_phi : m0 > 0, any slope
    zero : m0 = slope = 0; massless (photons), proper time is undefined.
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
        if self.kind == "zero" and self.m0 != 0.0:
            raise ValueError("a zero mass needs m0 = 0")
        if self.kind != "affine_phi" and self.slope != 0.0:
            raise ValueError(f"a {self.kind} mass needs slope 0")

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
        """m(phi); vectorized over phi, a float for a scalar phi.

        Exactly m0 (+0.0 for a zero mass) at every finite phi when slope is 0.
        """
        phi = np.asarray(phi, dtype=float)
        out = phi - self.phi_ref  # one array: the flow reads m at every stage
        out *= self.slope
        out += self.m0
        return out if phi.ndim else float(out)


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
# q: (n, 4), p: (n, 4), phi: (n,).  The metric enters as its diagonal g^{aa}
# (geometry._values: checked finite and (-,+,+,+), else BadSignature) and,
# on the flow, through geometry._contract: the raw diagonal, read unsigned,
# and the gradient of g^{ab} p_a p_b, None for a field without one.


def _shell(sys, q, p, phi):
    """The shell residual g^{ab} p_a p_b + (m c)^2 over the batch; H is half of it."""
    g = geometry._values(sys.metric, q, phi)
    m = np.asarray(sys.mass.value(phi), dtype=float)
    return geometry._gpp(g, p) + (m * sys.c) ** 2


def _on_shell(sys, shell, phi) -> bool:
    """Whether a shell residual g p p + (m c)^2 at phi is within 1e-8 max(1, |g p p|)."""
    gpp = shell - (float(sys.mass.value(phi)) * sys.c) ** 2
    return bool(abs(shell) <= 1e-8 * max(1.0, abs(gpp)))


def _dH_dphi_from(sys, phi, d_gpp):
    """dH/dphi from the (..., 5) gradient of g^{ab} p_a p_b (None where it is zero)."""
    dHdphi = np.asarray(sys.mass.value(phi), dtype=float)  # m, a fresh array
    dHdphi *= sys.c**2
    dHdphi *= sys.mass.slope
    if d_gpp is not None:
        dHdphi += 0.5 * d_gpp[..., 4]
    return dHdphi


def _dH_dphi_arrays(sys, q, p, phi):
    return _dH_dphi_from(sys, phi, geometry._contract(sys.metric, q, p, phi)[1])


def _field_rows(sys, q, p, phi, out):
    """The evolution field written into rows 0..8 of ``out``; returns dH/dphi.

    Component-major: q and p are (4, ...) rows, row a holding component a of
    every marker, and phi is (...); out[0:4], out[4:8] and out[8] receive dq,
    dp and dphi.  ``geometry._contract`` is handed the (..., 4) transposes.
    g . p is written straight into the dq rows and p . dq formed and summed
    in the dp rows, so a field without a gradient allocates one phi-shaped
    row, dH/dphi; a gradient field scales the contraction's own (..., 5)
    array by -1/2 in place and subtracts p dH/dphi from it.
    """
    g, d_gpp = geometry._contract(sys.metric, q.T, p.T, phi)
    dHdphi = _dH_dphi_from(sys, phi, d_gpp)
    dq_rows, dp_rows = out[0:4], out[4:8]
    np.multiply(g, p.T, out=dq_rows.T)
    # p . dq, annihilated by eta exactly: (t0 + t2) + (t1 + t3) in the rows,
    # as einsum sums a C-ordered row of 4, so the bits do not depend on the
    # operands' layout
    t = np.multiply(p, dq_rows, out=dp_rows)
    np.add(t[1], t[3], out=t[1, ...])
    np.add(t[0], t[2], out=out[8, ...])
    out[8] += t[1]
    np.multiply(p, dHdphi, out=dp_rows)
    if d_gpp is None:  # -1/2 times a zero gradient is -0.0, which keeps the sign of a zero dp
        np.subtract(-0.0, dp_rows, out=dp_rows)
    else:
        d_gpp *= -0.5
        np.subtract(d_gpp[..., :4].T, dp_rows, out=dp_rows)
    return dHdphi


def _field_arrays(sys, q, p, phi):
    """Batched evolution field over (n, 4) q and p: returns (dq, dp, dphi, dHdphi).

    :func:`_field_rows` on transposed views; dq and dp are (n, 4) views of
    one component-major array.
    """
    out = np.empty((9,) + q.shape[:-1])
    dHdphi = _field_rows(sys, q.T, p.T, phi, out)
    return out[0:4].T, out[4:8].T, out[8], dHdphi


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
            return 0.5 * _shell(sys, qs, p, phi)

        def h_of_p(x, mu=mu):
            ps = p.copy()
            ps[:, mu] = x
            return 0.5 * _shell(sys, q, ps, phi)

        dHdq[:, mu] = fd(h_of_q, q[:, mu])
        dHdp[:, mu] = fd(h_of_p, p[:, mu])
    dHdphi_fd = fd(lambda x: 0.5 * _shell(sys, q, p, x), phi)
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
    gpp = float(geometry._gpp(geometry._values(sys.metric, q, phi), p)[0])
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
    q, p, phi = _as_batch(s)
    g, d_gpp = geometry._contract(sys.metric, q, p, phi)
    d_gpp = np.zeros(5) if d_gpp is None else d_gpp[0]

    dqdphi = -(g * p)[0] / m2c2
    dpdphi = 0.5 * d_gpp[:4] / m2c2
    dpdphi += 0.5 * s.p * float(d_gpp[4]) / m2c2
    dpdphi += s.p * sys.mass.slope / m
    return dqdphi, dpdphi


def four_velocity(sys: ContactHamiltonianSystem, s: ExtendedState) -> np.ndarray:
    """u^mu = g^{mu nu} p_nu / m for a massive state, as a (4,) array."""
    m = float(sys.mass.value(s.phi))
    if not m > 0.0:
        raise MasslessProjection("four-velocity needs m(phi) > 0")
    q, _, phi = _as_batch(s)
    return geometry._values(sys.metric, q, phi)[0] * s.p / m


def mass_from_tau(sys: ContactHamiltonianSystem, phi_start: float, dtau):
    """Mass after elapsed proper time dtau, starting from phi = phi_start.

    Follows dm/dtau = -c^2 m'(phi) m: a mass with slope 0 stays m(phi_start)
    exactly; slope alpha/c^2 decays as m(phi_start) exp(-alpha dtau).  dtau
    may be an array; the result then has its shape.
    """
    mass = sys.mass
    if not sys.massive:
        raise MasslessProjection("proper time is undefined for massless particles")
    m_start = float(mass.value(phi_start))
    if mass.slope == 0.0:
        return np.full_like(dtau, m_start, dtype=float) if np.ndim(dtau) else m_start
    return m_start * np.exp(-mass.slope * sys.c**2 * dtau)


def _closed_form(sys, y0, lam, quadrature):
    """The flow's exact rows at lam from on-shell start rows y0, (10,) or (10, n).

    Row 9 is ``quadrature``, "tau" or "ln_f", as in integrators._block_field,
    and a row's marker axis broadcasts against lam.  H = 0 is a first
    integral, so under every metric dphi/dlam = -m^2 c^2, and with m affine
    in phi, slope s, x = s c^2 m(phi0) lam gives m = m(phi0) / (1 + x),
    phi = phi0 - (m(phi0) c)^2 lam / (1 + x) and tau = tau0 + m(phi0) L,
    where L = log1p(x) / (s c^2 m(phi0)), or lam for s = 0, integrates
    m / m(phi0).  A constant metric also gives p = p0 / (1 + x),
    q = q0 + g p0 L and ln f = ln f0 + 4 log1p(x).  Every other row is NaN,
    a photon's tau too.  An oracle for the battery, not a run path.
    """
    y0 = np.asarray(y0, dtype=float)
    s, c2 = sys.mass.slope, sys.c**2
    m0 = sys.mass.value(y0[8])
    x = s * c2 * m0 * np.asarray(lam, dtype=float)
    out = np.full((10,) + x.shape, np.nan)
    out[8] = y0[8] - m0 * m0 * c2 * lam / (1.0 + x)
    span = lam if s == 0.0 else np.log1p(x) / (s * c2 * m0)
    if quadrature == "tau" and sys.massive:
        out[9] = y0[9] + m0 * span
    if sys.metric.constant:
        g = geometry._values(sys.metric, y0[0:4].T, y0[8])
        for a in range(4):
            out[a] = y0[a] + g[..., a] * y0[4 + a] * span
            out[4 + a] = y0[4 + a] / (1.0 + x)
        if quadrature == "ln_f":
            out[9] = y0[9] + 4.0 * np.log1p(x)
    return out


# --- on-shell construction helpers -------------------------------------------


def solve_p0_on_shell(sys: ContactHamiltonianSystem, q, phi, p_spatial) -> np.ndarray:
    """Solve g^{ab} p_a p_b + m^2 c^2 = 0 for p_0 given spatial momentum.

    Batched: q (..., 4), phi scalar or (...,), p_spatial (..., 3).  On the
    checked diagonal (BadSignature) the future-directed root is
    p_0 = sqrt(-4 g^{00} c0) / (2 g^{00}) < 0, c0 = g^{ii} p_i^2 + m^2 c^2.
    Raises ShellSolveFailed where none exists (zero momentum for a photon).
    """
    single = np.asarray(q).ndim == 1
    q = np.atleast_2d(np.asarray(q, dtype=float))
    p_spatial = np.atleast_2d(np.asarray(p_spatial, dtype=float))
    phi_arr = np.broadcast_to(np.asarray(phi, dtype=float), q.shape[:-1])
    g = geometry._values(sys.metric, q, phi_arr)
    m = np.asarray(sys.mass.value(phi_arr), dtype=float)
    disc = -4.0 * g[..., 0] * (geometry._gpp(g[..., 1:], p_spatial) + (m * sys.c) ** 2)
    if not np.all(disc > 0.0):
        raise ShellSolveFailed("no real energy root for the given spatial momentum")
    p0 = np.sqrt(disc) / (2.0 * g[..., 0])
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
    r = geometry._reciprocals(sys.metric, q, phi)
    norm2 = float(np.dot(r * u_tilde, u_tilde))
    if not norm2 < 0.0:
        raise NotTimelike(f"(c, v) has non-timelike norm {norm2:.6e}")
    u = sys.c * u_tilde / math.sqrt(-norm2)
    p = m * (r * u)
    return ExtendedState(q=q, p=p, phi=float(phi))
