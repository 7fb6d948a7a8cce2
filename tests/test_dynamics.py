"""Generating function, flow field, shell algebra, and mass models."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from contactrel import (
    BadSignature,
    ContactHamiltonianSystem,
    ExtendedState,
    MasslessProjection,
    MassModel,
    NotTimelike,
    ShellSolveFailed,
    evolution_field,
    expression_metric,
    four_velocity,
    lowered_metric,
    mass_from_tau,
    minkowski,
    point_mass_potential,
    project_to_shell,
    reduced_field_phi,
    solve_p0_on_shell,
    state_from_velocity,
    uniform_gradient_potential,
    weak_field,
)
from contactrel import checks, dynamics, geometry


def _flat(mass=None, c=1.0):
    return ContactHamiltonianSystem(
        metric=minkowski(), mass=mass or MassModel.constant(1.0), c=c
    )


def _curved(mass=None, gm=0.3, c=1.0):
    pot, grad = point_mass_potential(gm, softening=0.5)
    return ContactHamiltonianSystem(
        metric=weak_field(pot, grad, c=c), mass=mass or MassModel.constant(1.0), c=c
    )


def _h_and_shell(sys, s):
    """H and the shell residual at one state, through the batched path."""
    h, shell = dynamics._h_and_shell(sys, *dynamics._as_batch(s))
    return float(h[0]), float(shell[0])


def _random_onshell(sys, rng):
    q = rng.uniform(-2, 2, size=4)
    phi = rng.uniform(-1, 1)
    p_s = rng.uniform(-0.8, 0.8, size=3)
    p = solve_p0_on_shell(sys, q, phi, p_s)
    return ExtendedState(q=q, p=p, phi=float(phi))


# --- Hamiltonian and shell ---------------------------------------------------------


def test_hamiltonian_hand_values():
    sys = _flat()
    rest = ExtendedState(q=[0, 0, 0, 0], p=[-1, 0, 0, 0], phi=0.0)
    assert _h_and_shell(sys, rest)[0] == 0.0
    off = ExtendedState(q=[0, 0, 0, 0], p=[-2, 0, 0, 0], phi=0.0)
    # H = (g p p + m^2 c^2)/2 = (-4 + 1)/2
    h, shell = _h_and_shell(sys, off)
    assert h == pytest.approx(-1.5)
    assert shell == pytest.approx(-3.0)


def test_solve_p0_flat_345_triangle():
    sys = _flat()
    p = solve_p0_on_shell(sys, np.zeros(4), 0.0, [0.75, 0.0, 0.0])
    assert p[0] == pytest.approx(-1.25, abs=1e-15)
    assert np.allclose(p[1:], [0.75, 0, 0])


def test_solve_p0_massless():
    sys = _flat(MassModel.zero())
    p = solve_p0_on_shell(sys, np.zeros(4), 0.0, [1.0, 0.0, 0.0])
    assert p[0] == -1.0


def test_solve_p0_curved_lands_on_shell():
    sys = _curved(MassModel.exp_decay(1.0, 0.1))
    rng = np.random.default_rng(17)
    for _ in range(25):
        s = _random_onshell(sys, rng)
        assert abs(_h_and_shell(sys, s)[0]) < 1e-12


def test_solve_p0_batched_matches_loop():
    sys = _curved()
    rng = np.random.default_rng(4)
    q = rng.uniform(-2, 2, size=(6, 4))
    phi = rng.uniform(-1, 1, size=6)
    ps = rng.uniform(-0.8, 0.8, size=(6, 3))
    batch = solve_p0_on_shell(sys, q, phi, ps)
    assert batch.shape == (6, 4)
    for i in range(6):
        single = solve_p0_on_shell(sys, q[i], float(phi[i]), ps[i])
        assert np.array_equal(single, batch[i])


def test_solve_p0_zero_null_momentum_fails():
    sys = _flat(MassModel.zero())
    with pytest.raises(ShellSolveFailed):
        solve_p0_on_shell(sys, np.zeros(4), 0.0, [0.0, 0.0, 0.0])


def test_state_from_velocity_gamma_oracle():
    sys = _flat()
    s = state_from_velocity(sys, [0, 0, 0, 0], 0.0, [0.6, 0.0, 0.0])
    # gamma = 1.25: u = (1.25, 0.75, 0, 0), p_mu = eta u
    assert s.p[0] == pytest.approx(-1.25, abs=1e-12)
    assert s.p[1] == pytest.approx(0.75, abs=1e-12)
    assert abs(_h_and_shell(sys, s)[0]) < 1e-14


def test_state_from_velocity_rejects_superluminal():
    sys = _flat()
    with pytest.raises(NotTimelike):
        state_from_velocity(sys, [0, 0, 0, 0], 0.0, [1.0, 0.0, 0.0])


def test_four_velocity_normalization():
    sys = _curved(MassModel.exp_decay(1.0, 0.15), c=2.0)
    rng = np.random.default_rng(33)
    for _ in range(20):
        s = _random_onshell(sys, rng)
        u = four_velocity(sys, s)
        gl = lowered_metric(sys.metric, s.q, s.phi)
        assert u @ gl @ u == pytest.approx(-sys.c**2, rel=1e-12)


def test_project_to_shell():
    sys = _curved()
    s = ExtendedState(q=[0, 1.5, 0, 0], p=[-1.7, 0.3, -0.2, 0.1], phi=0.0)
    proj = project_to_shell(sys, s)
    assert abs(_h_and_shell(sys, proj)[0]) < 1e-14
    # projection only rescales p
    ratio = proj.p / s.p
    assert np.max(np.abs(ratio - ratio[0])) < 1e-14


def test_project_to_shell_massless_rejected():
    sys = _flat(MassModel.zero())
    s = ExtendedState(q=[0, 0, 0, 0], p=[-1.1, 1, 0, 0], phi=0.0)
    with pytest.raises(MasslessProjection):
        project_to_shell(sys, s)


def test_project_to_shell_spacelike_rejected():
    sys = _flat()
    s = ExtendedState(q=[0, 0, 0, 0], p=[-0.1, 1.0, 0, 0], phi=0.0)
    with pytest.raises(NotTimelike):
        project_to_shell(sys, s)


@pytest.mark.parametrize("read", [four_velocity, project_to_shell])
def test_shell_readers_refuse_a_state_off_the_signature(read):
    # g^{11} = 1 + phi/2 < 0 at phi = -3, while g p p < 0 still holds
    sys = ContactHamiltonianSystem(
        metric=expression_metric(["-1", "1 + 0.5*phi", "1", "1"]),
        mass=MassModel.constant(1.0), c=1.0,
    )
    with pytest.raises(BadSignature):
        read(sys, ExtendedState(q=np.zeros(4), p=[-1.5, 0.3, 0.0, 0.0], phi=-3.0))


# --- the shell algebra on the diagonal, against the (..., 4, 4) forms ---------------

# one field of each built-in kind; the expression is WAVY_DIAG
_KINDS = {
    "minkowski": minkowski(),
    "point-mass": weak_field(*point_mass_potential(0.3, softening=0.5)),
    "uniform-gradient": weak_field(*uniform_gradient_potential([0.05, -0.02, 0.03]), c=2.0),
    "expression": expression_metric(checks.WAVY_DIAG),
}


def _kind_system(kind):
    c = 1.5
    return ContactHamiltonianSystem(
        metric=_KINDS[kind], mass=MassModel.exp_decay(1.0, 0.1, phi0=0.2, c=c), c=c
    )


def _draws(n, seed=29):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-2, 2, size=(n, 4)), rng.uniform(-1, 1, size=n),
            rng.uniform(-0.8, 0.8, size=(n, 3)))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _p0_textbook(g, m, c, p_s):
    """The future-directed root of g^{00} p0^2 + 2 g^{0i} p_i p0 + g^{ij} p_i p_j
    + m^2 c^2 = 0 over a (..., 4, 4) inverse metric."""
    a = g[..., 0, 0]
    b = 2.0 * np.einsum("...i,...i->...", g[..., 0, 1:], p_s)
    c0 = np.einsum("...ij,...i,...j->...", g[..., 1:, 1:], p_s, p_s) + (m * c) ** 2
    sq = np.sqrt(b * b - 4.0 * a * c0)
    roots = np.stack([(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)], axis=-1)
    assert np.all(np.sum(roots < 0.0, axis=-1) == 1)
    return np.where(roots[..., 0] < 0.0, roots[..., 0], roots[..., 1])


@pytest.mark.parametrize("n", [1, 10_000])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_batched_shell_algebra_is_the_matrix_form_bit_for_bit(kind, n):
    sys = _kind_system(kind)
    q, phi, p_s = _draws(n)
    g = geometry.inverse_metric(sys.metric, q, phi)
    m = sys.mass.value(phi)
    ref_p0 = _p0_textbook(g, m, sys.c, p_s)
    p = solve_p0_on_shell(sys, q, phi, p_s)
    assert _same_bits(p[:, 0], ref_p0) and _same_bits(p[:, 1:], p_s)
    if n == 1:
        assert _same_bits(solve_p0_on_shell(sys, q[0], phi[0], p_s[0]), p[0])
    p_off = 1.1 * p
    shell = np.einsum("...ab,...a,...b->...", g, p_off, p_off) + (m * sys.c) ** 2
    h, s = dynamics._h_and_shell(sys, q, p_off, phi)
    assert _same_bits(s, shell) and _same_bits(h, 0.5 * shell)


@pytest.mark.parametrize("n", [1, 200])  # one call a state: 10^4 states take 4-6 s a kind
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_single_state_shell_algebra_is_the_matrix_form_bit_for_bit(kind, n):
    sys = _kind_system(kind)
    q, phi, p_s = _draws(n)
    p = solve_p0_on_shell(sys, q, phi, p_s)
    for i in range(n):
        s = ExtendedState(q=q[i], p=p[i], phi=phi[i])
        g = geometry.inverse_metric(sys.metric, s.q, s.phi)
        gl = lowered_metric(sys.metric, s.q, s.phi)
        m = float(sys.mass.value(s.phi))
        assert _same_bits(four_velocity(sys, s), g @ s.p / m)
        # u = A (c, v) with g_{ab} u^a u^b = -c^2, then p = m g_{ab} u^b
        u_tilde = np.concatenate([[sys.c], 0.3 * sys.c * p_s[i]])
        u = sys.c * u_tilde / math.sqrt(-(u_tilde @ gl @ u_tilde))
        assert _same_bits(state_from_velocity(sys, s.q, s.phi, u_tilde[1:]).p, m * (gl @ u))
        off = ExtendedState(q=s.q, p=1.1 * s.p, phi=s.phi)
        beta = math.sqrt((m * sys.c) ** 2 / -float(np.einsum("ab,a,b->", g, off.p, off.p)))
        assert _same_bits(project_to_shell(sys, off).p, beta * off.p)


# --- flow field ----------------------------------------------------------------------


def test_rest_decay_field_hand_values():
    sys = _flat(MassModel.exp_decay(1.0, 0.1))
    s = ExtendedState(q=[0, 0, 0, 0], p=[-1, 0, 0, 0], phi=0.0)
    dq, dp, dphi = evolution_field(sys, s)
    assert np.allclose(dq, [1, 0, 0, 0])
    assert dphi == -1.0
    assert dynamics._dH_dphi_arrays(sys, *dynamics._as_batch(s))[0] == pytest.approx(0.1)
    # dp_mu = -p_mu dH/dphi in flat space
    assert np.allclose(dp, [0.1, 0, 0, 0])


def test_contact_identities_random_states():
    sys = _curved(MassModel.exp_decay(1.0, 0.1))
    rng = np.random.default_rng(71)
    for _ in range(50):
        q = rng.uniform(-2, 2, size=4)
        p = np.concatenate([[rng.uniform(-2, -0.5)], rng.uniform(-1, 1, size=3)])
        s = ExtendedState(q=q, p=p, phi=rng.uniform(-1, 1))
        r1, r2 = dynamics._contact_residual_arrays(sys, *dynamics._as_batch(s))
        assert r1[0] < 1e-12
        assert r2[0] < 1e-8


# --- batched identity checks against their per-state references ------------------

_IDENTITY_MASS = MassModel.exp_decay(1.0, 0.1)
_IDENTITY_METRIC_IDS = [m.name for m in checks._identity_metrics()]


def _identity_system(k):
    metric = checks._identity_metrics()[k]
    return ContactHamiltonianSystem(metric=metric, mass=_IDENTITY_MASS, c=1.0)


def _pointwise_divergence_trace(sys, y):
    # the battery's former per-state loop: one evolution_field call per
    # stencil point, coordinate by coordinate
    trace = np.zeros(len(y))
    for i, row in enumerate(y):
        for j in range(9):

            def component(x, j=j):
                ys = row.copy()
                ys[j] = x
                dq, dp, dphi = evolution_field(sys, ExtendedState(q=ys[0:4], p=ys[4:8], phi=ys[8]))
                return np.concatenate([dq, dp, [dphi]])[j]

            trace[i] += geometry._fd4_of(component, row[j], 1e-3 * (1.0 + abs(row[j])))
    return trace


@pytest.mark.parametrize("k", range(3), ids=_IDENTITY_METRIC_IDS)
def test_contact_residual_arrays_match_single_state_calls(k):
    sys = _identity_system(k)
    q, p, phi = checks._random_states(np.random.default_rng(100 + k), 250)
    r1, r2 = dynamics._contact_residual_arrays(sys, q, p, phi)
    ref = np.array([
        np.concatenate(dynamics._contact_residual_arrays(sys, *dynamics._as_batch(
            ExtendedState(q=q[i], p=p[i], phi=phi[i]))))
        for i in range(250)
    ])
    assert np.array_equal(r1, ref[:, 0])
    assert np.array_equal(r2, ref[:, 1])


@pytest.mark.parametrize("k", range(3), ids=_IDENTITY_METRIC_IDS)
def test_divergence_trace_matches_per_state_loop(k):
    sys = _identity_system(k)
    q, p, phi = checks._random_states(np.random.default_rng(200 + k), 40)
    y = np.column_stack([q, p, phi])
    assert np.array_equal(checks._divergence_trace(sys, y), _pointwise_divergence_trace(sys, y))


@st.composite
def _identity_blocks(draw):
    # a block of states from the battery's _random_states domain
    n = draw(st.integers(1, 8))

    def block(shape, lo, hi):
        return draw(hnp.arrays(np.float64, shape, elements=st.floats(lo, hi)))

    q = block((n, 4), -2.0, 2.0)
    p = np.column_stack([block((n,), -2.0, -0.5), block((n, 3), -1.0, 1.0)])
    phi = block((n,), -1.0, 1.0)
    return draw(st.integers(0, 2)), q, p, phi


@settings(derandomize=True, deadline=None)
@given(_identity_blocks())
def test_contact_identities_hold_on_random_blocks(case):
    k, q, p, phi = case
    r1, r2 = dynamics._contact_residual_arrays(_identity_system(k), q, p, phi)
    assert np.all(r1 < 1e-12)
    assert np.all(r2 < 1e-8)


@settings(derandomize=True, deadline=None)
@given(_identity_blocks())
def test_divergence_identity_holds_on_random_blocks(case):
    k, q, p, phi = case
    sys = _identity_system(k)
    trace = checks._divergence_trace(sys, np.column_stack([q, p, phi]))
    analytic = -4.0 * dynamics._dH_dphi_arrays(sys, q, p, phi)
    assert np.all(np.abs(trace - analytic) / np.maximum(1.0, np.abs(analytic)) < 1e-6)


def test_reduced_field_consistency_with_lambda_flow():
    # dq/dphi from the reduced equations equals (dq/dlam)/(dphi/dlam) on shell
    sys = _curved(MassModel.exp_decay(1.0, 0.1))
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = _random_onshell(sys, rng)
        dq, dp, dphi = evolution_field(sys, s)
        dq_phi, dp_phi = reduced_field_phi(sys, s)
        assert np.max(np.abs(dq_phi - dq / dphi)) < 1e-12
        assert np.max(np.abs(dp_phi - dp / dphi)) < 1e-12


# --- mass models and proper time -----------------------------------------------------


def test_mass_model_exp_decay_slope():
    m = MassModel.exp_decay(2.0, 0.3, phi0=0.5, c=2.0)
    assert m.value(0.5) == pytest.approx(2.0)
    assert m.slope == pytest.approx(0.3 / 4.0)
    # affine in phi
    assert m.value(0.5 + 1.0) == pytest.approx(2.0 + 0.3 / 4.0)


def test_mass_model_zero_and_constant():
    z = MassModel.zero()
    assert z.value(1.3) == 0.0 and z.slope == 0.0
    c = MassModel.constant(2.5)
    assert c.value(-4.0) == 2.5 and c.slope == 0.0
    assert ContactHamiltonianSystem(metric=minkowski(), mass=z, c=1.0).massive is False
    assert ContactHamiltonianSystem(metric=minkowski(), mass=c, c=1.0).massive is True


def _per_kind_value(mass, phi):
    """m(phi) written out per kind: the reference that the one affine law of
    MassModel.value must match bit for bit."""
    phi = np.asarray(phi, dtype=float)
    if mass.kind == "zero":
        return np.zeros_like(phi) if phi.ndim else 0.0
    if mass.kind == "constant":
        return np.full_like(phi, mass.m0) if phi.ndim else mass.m0
    out = mass.m0 + mass.slope * (phi - mass.phi_ref)
    return out if phi.ndim else float(out)


_EDGE_PHIS = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 0.5, -3.75]


@pytest.mark.parametrize("mass", [
    MassModel.zero(),
    MassModel.constant(2.5),
    MassModel.exp_decay(2.0, 0.3, phi0=0.5, c=2.0),
    MassModel.exp_decay(1.3, 0.1, phi0=-0.25, c=1e200),  # c^2 is inf: slope 0
], ids=["zero", "constant", "affine", "affine-slope-0"])
def test_mass_value_matches_the_per_kind_law_bit_for_bit(mass):
    for phi in _EDGE_PHIS:
        got = mass.value(phi)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(_per_kind_value(mass, phi)).tobytes()
    for arr in (np.array(_EDGE_PHIS), np.array(_EDGE_PHIS).reshape(3, 3)[:, ::2]):
        got = mass.value(arr)
        assert got.dtype == np.float64 and got.shape == arr.shape
        assert got.tobytes() == _per_kind_value(mass, arr).tobytes()
    if mass.slope == 0.0:  # exactly m0 everywhere, and +0.0 for a zero mass
        assert mass.value(np.array(_EDGE_PHIS)).tobytes() == np.full(9, mass.m0).tobytes()


def test_mass_model_kinds_admit_only_their_parameters():
    with pytest.raises(ValueError, match="constant mass needs slope 0"):
        MassModel(kind="constant", m0=1.0, slope=0.5)
    with pytest.raises(ValueError, match="zero mass needs slope 0"):
        MassModel(kind="zero", slope=-0.5)
    with pytest.raises(ValueError, match="zero mass needs m0 = 0"):
        MassModel(kind="zero", m0=1.0)
    with pytest.raises(ValueError, match="need m0 > 0"):
        MassModel(kind="affine_phi", m0=0.0, slope=0.5)


def test_mass_from_tau_decay():
    sys = _flat(MassModel.exp_decay(1.0, 0.1))
    assert mass_from_tau(sys, 0.0, 3.0) == pytest.approx(math.exp(-0.3), rel=1e-14)
    const = _flat(MassModel.constant(1.7))
    assert mass_from_tau(const, 0.0, 5.0) == 1.7
    # an array of elapsed proper times gives the law at each of them
    tau = np.linspace(0.0, 5.0, 11)
    decayed = mass_from_tau(sys, 0.0, tau)
    assert decayed.shape == tau.shape
    assert np.allclose(decayed, np.exp(-0.1 * tau), rtol=1e-14, atol=0.0)
    assert np.array_equal(mass_from_tau(const, 0.0, tau), np.full(11, 1.7))
    # slope 0 (c^2 is inf) keeps the start mass exactly, a float for a scalar
    flat0 = _flat(MassModel.exp_decay(1.3, 0.1, phi0=-0.25, c=1e200))
    assert type(mass_from_tau(flat0, 0.7, 5.0)) is float and mass_from_tau(flat0, 0.7, 5.0) == 1.3
    assert mass_from_tau(flat0, 0.7, tau).tobytes() == np.full(11, 1.3).tobytes()
    with pytest.raises(MasslessProjection):
        mass_from_tau(_flat(MassModel.zero()), 0.0, tau)


def test_extended_state_validation():
    with pytest.raises(ValueError):
        ExtendedState(q=[0, 0, 0], p=[-1, 0, 0, 0], phi=0.0)
    with pytest.raises(ValueError):
        ExtendedState(q=[0, 0, 0, 0], p=[-1, 0, 0, np.nan], phi=0.0)
