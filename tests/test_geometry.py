"""Metric fields: values, derivatives, the lowered metric, the geodesic right-hand side."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactrel import (
    BadSignature,
    NonFiniteMetric,
    SingularMetric,
    expression_metric,
    geometry,
    inverse_metric,
    lowered_metric,
    metric_derivatives,
    minkowski,
    point_mass_potential,
    uniform_gradient_potential,
    weak_field,
)
from contactrel.checks import WAVY_DIAG
from contactrel.integrators import _geodesic_field

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def _point_mass_metric(gm=0.3, soft=0.5, c=1.0):
    pot, grad = point_mass_potential(gm, softening=soft)
    return weak_field(pot, grad, c=c, name="pm")


def test_minkowski_values_and_derivatives():
    m = minkowski()
    q = np.array([0.3, -1.2, 0.5, 2.0])
    assert np.array_equal(inverse_metric(m, q, 0.7), ETA)
    dq, dphi = metric_derivatives(m, q, 0.7)
    assert np.all(dq == 0.0) and np.all(dphi == 0.0)
    y = np.concatenate([q, [1.25, 0.75, 0.0, 0.0]])
    assert np.all(_geodesic_field(m, y, np.empty(8))[4:] == 0.0)


def test_minkowski_batched_evaluation():
    m = minkowski()
    q = np.zeros((5, 4))
    g = inverse_metric(m, q, np.zeros(5))
    assert g.shape == (5, 4, 4)
    assert np.array_equal(g[3], ETA)


def test_weak_field_values():
    # g^{00} = -1 + 2 phi_N / c^2, g^{ii} = 1 - 2 phi_N / c^2
    gm, c = 0.01, 2.0
    pot, grad = point_mass_potential(gm)
    m = weak_field(pot, grad, c=c)
    q = np.array([0.0, 2.0, 0.0, 0.0])
    phi_n = -gm / 2.0
    g = inverse_metric(m, q, 0.0)
    assert g[0, 0] == pytest.approx(-1.0 + 2.0 * phi_n / c**2, abs=1e-15)
    for i in (1, 2, 3):
        assert g[i, i] == pytest.approx(1.0 - 2.0 * phi_n / c**2, abs=1e-15)
    off = g - np.diag(np.diagonal(g))
    assert np.all(off == 0.0)


def test_point_mass_gradient_matches_potential():
    pot, grad = point_mass_potential(0.7, softening=0.4)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=3)
        g = grad(x)
        h = 1e-6
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (pot(xp) - pot(xm)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_fd4_on_shifted_slices_matches_pointwise_stencil():
    # check_newtonian_limit differentiates a sampled series with one _fd4 call
    # over shifted slices and a batched gradient; both must equal the
    # per-sample loops bit for bit
    rng = np.random.default_rng(5)
    v = rng.normal(size=(40, 3))
    x = rng.uniform(0.5, 2.0, size=(40, 3))
    h = 0.02
    fast = geometry._fd4(v[:-4], v[1:-3], v[3:-1], v[4:], h)
    _, grad = point_mass_potential(1.0)
    batched = grad(x)
    for i in range(2, len(v) - 2):
        ref = (v[i - 2] - 8 * v[i - 1] + 8 * v[i + 1] - v[i + 2]) / (12.0 * h)
        assert np.array_equal(fast[i - 2], ref)
    for i in range(len(x)):
        assert np.array_equal(batched[i], grad(x[i]))


def test_uniform_gradient_potential():
    pot, grad = uniform_gradient_potential([0.1, -0.2, 0.3])
    x = np.array([1.0, 2.0, 3.0])
    assert pot(x) == pytest.approx(0.1 - 0.4 + 0.9)
    assert np.allclose(grad(x), [0.1, -0.2, 0.3])


def _stencil_derivatives(metric, q, phi, step=1e-5):
    """4th-order stencil of func in each q^mu and in phi, derivative index last;
    coordinate x steps by step * (1 + |x|)."""
    phi = np.asarray(phi, dtype=float)

    def along(mu):
        def f(x):
            qs = q.copy()
            qs[..., mu] = x
            return metric.func(qs, phi)
        return f

    dq = np.stack([geometry._fd4_of(along(mu), q[..., mu], step * (1.0 + np.abs(q[..., mu])))
                   for mu in range(4)], axis=-1)
    dphi = geometry._fd4_of(lambda x: metric.func(q, x), phi, step * (1.0 + np.abs(phi)))
    return dq, dphi


def test_analytic_weak_field_derivatives_match_finite_differences():
    gm, c = 0.3, 1.5
    pot, grad = point_mass_potential(gm, softening=0.5)
    analytic = weak_field(pot, grad, c=c)
    rng = np.random.default_rng(11)
    for _ in range(25):
        q = rng.uniform(-2, 2, size=4)
        dq_a, dphi_a = metric_derivatives(analytic, q, 0.0)
        dq_f, dphi_f = _stencil_derivatives(analytic, q, 0.0)
        assert np.max(np.abs(dq_a - dq_f)) < 1e-9
        # phi-independent metric: the stencil is pure roundoff
        assert np.max(np.abs(dphi_a - dphi_f)) < 1e-10


def _christoffel(metric, q):
    """Gamma^mu_{ab} at (q, phi = 0) by the textbook formula, from the full tensors:
    d_k g_{sb} = -g_{sm} (d_k g^{mn}) g_{nb}, then
    Gamma^mu_{ab} = 1/2 g^{mu s} (d_a g_{sb} + d_b g_{sa} - d_s g_{ab})."""
    g = inverse_metric(metric, q, 0.0)
    gl = lowered_metric(metric, q, 0.0)
    dq, _ = metric_derivatives(metric, q, 0.0)
    dgl = -np.einsum("sm,mnk,nb->sbk", gl, dq, gl)  # dgl[s, b, k] = d_k g_{sb}
    lower = np.einsum("sba->sab", dgl) + dgl - np.einsum("abs->sab", dgl)
    return 0.5 * np.einsum("ms,sab->mab", g, lower)


def test_christoffel_uniform_gradient_closed_form():
    # For phi_N = g_acc * x1 the exact symbol at the origin is
    # Gamma^1_{00} = g_acc / c^2 (phi_N vanishes there), and a particle at
    # rest there accelerates by -Gamma^1_{00} in x1.
    g_acc, c = 0.05, 2.0
    pot, grad = uniform_gradient_potential([g_acc, 0.0, 0.0])
    m = weak_field(pot, grad, c=c)
    gamma = _christoffel(m, np.zeros(4))
    assert gamma[1, 0, 0] == pytest.approx(g_acc / c**2, rel=1e-12)
    assert gamma[2, 0, 0] == pytest.approx(0.0, abs=1e-14)
    assert gamma[3, 0, 0] == pytest.approx(0.0, abs=1e-14)
    y = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    accel = _geodesic_field(m, y, np.empty(8))[4:]
    assert accel[1] == pytest.approx(-g_acc / c**2, rel=1e-12)
    assert np.all(accel[[0, 2, 3]] == 0.0)


def test_christoffel_symmetry_and_compatibility():
    # metric compatibility in inverse form:
    # d g^{ab}/d q^m = -Gamma^a_{ms} g^{sb} - Gamma^b_{ms} g^{as}
    m = _point_mass_metric()
    rng = np.random.default_rng(21)
    for _ in range(20):
        q = rng.uniform(-2, 2, size=4)
        gamma = _christoffel(m, q)
        assert np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2))) < 1e-13
        g = inverse_metric(m, q, 0.0)
        dq, _ = metric_derivatives(m, q, 0.0)
        lhs = np.moveaxis(dq, -1, 0)  # lhs[m, a, b]
        rhs = -np.einsum("ams,sb->mab", gamma, g) - np.einsum("bms,as->mab", gamma, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


# one field of each built-in kind; the expression is WAVY_DIAG
_KINDS = {
    "minkowski": minkowski(),
    "point-mass": _point_mass_metric(),
    "uniform-gradient": weak_field(*uniform_gradient_potential([0.05, -0.02, 0.03]), c=2.0),
    "expression": expression_metric(WAVY_DIAG),
}


@pytest.mark.parametrize("kind", ["point-mass", "uniform-gradient", "expression"])
def test_geodesic_field_is_minus_gamma_u_u(kind):
    # the closed form of a diagonal metric against -Gamma^mu_{ab} u^a u^b
    # built by the textbook formula, at phi = 0
    metric = _KINDS[kind]
    rng = np.random.default_rng(13)
    for _ in range(50):
        q = rng.uniform(-2, 2, size=4)
        u = np.concatenate([rng.uniform(1.0, 2.0, size=1), rng.uniform(-1, 1, size=3)])
        ref = -np.einsum("mab,a,b->m", _christoffel(metric, q), u, u)
        dy = _geodesic_field(metric, np.concatenate([q, u]), np.empty(8))
        assert np.array_equal(dy[0:4], u)
        assert np.max(np.abs(dy[4:] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_lowered_metric_is_inverse():
    m = _point_mass_metric()
    q = np.array([0.1, 1.3, -0.4, 0.8])
    g = inverse_metric(m, q, 0.0)
    gl = lowered_metric(m, q, 0.0)
    assert np.max(np.abs(g @ gl - np.eye(4))) < 1e-13


@pytest.mark.parametrize("n", [1, 10_000])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_lowered_metric_is_the_inverse_bit_for_bit(kind, n):
    # reciprocal lowering against numpy's inverse; inv leaves -0 in some
    # off-diagonal entries, where the lowered metric holds +0
    rng = np.random.default_rng(17)
    q = rng.uniform(-2, 2, size=(n, 4))
    phi = rng.uniform(-1, 1, size=n)
    if n == 1:
        q, phi = q[0], phi[0]
    gl = lowered_metric(_KINDS[kind], q, phi)
    ref = np.linalg.inv(inverse_metric(_KINDS[kind], q, phi))
    assert gl.shape == ref.shape
    assert np.array_equal(gl, ref)
    diagonal = np.eye(4, dtype=bool)
    assert np.array_equal(gl[..., diagonal].view(np.uint64), ref[..., diagonal].view(np.uint64))
    assert not np.any(np.signbit(gl[..., ~diagonal]))


def test_expression_metric_matches_hand_built():
    expr = expression_metric(["-(1 + 0.2*sin(x1 + 0.5*phi))", "1 + 0.1*x2**2", "1", "1"])
    q = np.array([0.0, 0.7, -0.3, 0.0])
    g = inverse_metric(expr, q, 0.4)
    assert g[0, 0] == pytest.approx(-(1 + 0.2 * np.sin(0.7 + 0.2)), rel=1e-15)
    assert g[1, 1] == pytest.approx(1 + 0.1 * 0.09, rel=1e-15)
    dq, dphi = metric_derivatives(expr, q, 0.4)
    assert dq[0, 0, 1] == pytest.approx(-0.2 * np.cos(0.9), rel=1e-8)
    assert dphi[0, 0] == pytest.approx(-0.1 * np.cos(0.9), rel=1e-8)


def test_expression_metric_rejects_wrong_arity():
    with pytest.raises(ValueError):
        expression_metric(["-1", "1", "1"])


def test_expression_metric_has_no_builtins():
    # refused by the entry grammar when the metric is built, before any evaluation
    with pytest.raises(ValueError, match="only the named functions can be called"):
        expression_metric(["-(1)", "1", "1", "__import__('os').getpid()"], name="evil")


@pytest.mark.parametrize("entry", ["-" * 2000 + "1", "(" * 300 + "1" + ")" * 300, "9" * 5000])
def test_expression_metric_refuses_what_it_cannot_compile(entry):
    with pytest.raises(ValueError):
        expression_metric(["-1", "1", "1", entry])


def test_non_finite_metric_rejected():
    expr = expression_metric(["-1/x1", "1", "1", "1"])
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteMetric):
            inverse_metric(expr, np.zeros(4), 0.0)


@pytest.mark.parametrize("metric, error", [
    (expression_metric(["1", "1", "1", "1"], name="flipped"), BadSignature),
    (expression_metric(["1", "-1", "1", "1"], name="time-not-first"), BadSignature),
    (expression_metric(["-1", "1e-320", "1", "1"], name="subnormal"), SingularMetric),
], ids=["flipped", "time-not-first", "subnormal"])
def test_wrong_signature_rejected(metric, error):
    # a subnormal g^{11} passes the sign test, but its reciprocal overflows:
    # lowering raises SingularMetric, and no RuntimeWarning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is BadSignature:
            with pytest.raises(BadSignature):
                inverse_metric(metric, np.zeros(4), 0.0)
        with pytest.raises(error):
            lowered_metric(metric, np.zeros(4), 0.0)


# --- exact expression derivatives ---------------------------------------------

_LEAVES = ["x0", "x1", "x2", "x3", "phi", "0.5", "2", "3", "pi", "e"]
_FORMS = ["({} + {})", "({} - {})", "({} * {})", "({} / {})", "({} ** {})", "-{}", "+{}",
          "sin({})", "cos({})", "tan({})", "exp({})", "log({})", "sqrt({})", "tanh({})",
          "abs({})", "sign({})"]
# str.format ignores the second operand of the one-operand forms
_EXPRESSIONS = st.recursive(
    st.sampled_from(_LEAVES),
    lambda inner: st.builds(str.format, st.sampled_from(_FORMS), inner, inner),
    max_leaves=6,
)
_POINTS = np.random.default_rng(8)
_Q = _POINTS.uniform(-1.5, 1.5, size=(16, 4))
_PHI = _POINTS.uniform(-1.0, 1.0, size=16)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_EXPRESSIONS)
def test_expression_derivatives_match_the_stencil(entry):
    # Compared where the exact derivative and the stencil are both finite and
    # the stencil has converged: at steps h and h/2 it agrees to 1e-7, so no
    # kink, jump or round-off floor lies within its reach.
    metric = expression_metric([entry, "1", "1", "1"])
    with np.errstate(all="ignore"):
        try:
            value = metric.func(_Q, _PHI)[:, 0, 0]
            exact = np.column_stack([metric.d_q(_Q, _PHI)[:, 0, 0, :],
                                     metric.d_phi(_Q, _PHI)[:, 0, 0]])
            coarse, fine = (np.column_stack([dq[:, 0, 0, :], dphi[:, 0, 0]])
                            for dq, dphi in (_stencil_derivatives(metric, _Q, _PHI, 1e-3),
                                             _stencil_derivatives(metric, _Q, _PHI, 5e-4)))
        except (ArithmeticError, TypeError):  # a constant part such as 1/(2-2)
            return
        scale = np.maximum(1.0, np.maximum(np.abs(fine), np.abs(value)[:, None]))
        usable = (np.isfinite(exact) & np.isfinite(coarse) & np.isfinite(fine)
                  & (np.abs(coarse - fine) <= 1e-7 * scale))
        err = np.abs(exact - fine) / scale
    assert np.all(err[usable] <= 1e-6), (entry, np.max(err[usable]))
