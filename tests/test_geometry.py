"""Metric fields: values, derivatives, Christoffel symbols, the lowered metric."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactrel import (
    BadSignature,
    MetricField,
    NonFiniteMetric,
    christoffel,
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
    assert np.all(christoffel(m, q, 0.7) == 0.0)


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


def test_christoffel_uniform_gradient_closed_form():
    # For phi_N = g_acc * x1 the exact symbol at the origin is
    # Gamma^1_{00} = g_acc / c^2 (phi_N vanishes there).
    g_acc, c = 0.05, 2.0
    pot, grad = uniform_gradient_potential([g_acc, 0.0, 0.0])
    m = weak_field(pot, grad, c=c)
    gamma = christoffel(m, np.zeros(4), 0.0)
    assert gamma[1, 0, 0] == pytest.approx(g_acc / c**2, rel=1e-12)
    assert gamma[2, 0, 0] == pytest.approx(0.0, abs=1e-14)
    assert gamma[3, 0, 0] == pytest.approx(0.0, abs=1e-14)


def test_christoffel_symmetry_and_compatibility():
    # metric compatibility in inverse form:
    # d g^{ab}/d q^m = -Gamma^a_{ms} g^{sb} - Gamma^b_{ms} g^{as}
    m = _point_mass_metric()
    rng = np.random.default_rng(21)
    for _ in range(20):
        q = rng.uniform(-2, 2, size=4)
        gamma = christoffel(m, q, 0.0)
        assert np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2))) < 1e-13
        g = inverse_metric(m, q, 0.0)
        dq, _ = metric_derivatives(m, q, 0.0)
        lhs = np.moveaxis(dq, -1, 0)  # lhs[m, a, b]
        rhs = -np.einsum("ams,sb->mab", gamma, g) - np.einsum("bms,as->mab", gamma, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_christoffel_validates_the_metric_once(monkeypatch):
    calls = []
    validate = geometry.inverse_metric

    def counted(*args):
        calls.append(1)
        return validate(*args)

    monkeypatch.setattr(geometry, "inverse_metric", counted)
    m = _point_mass_metric()
    q = np.array([0.1, 1.3, -0.4, 0.8])
    gamma = christoffel(m, q, 0.0)
    assert len(calls) == 1
    gl = np.linalg.inv(validate(m, q, 0.0))
    assert np.array_equal(geometry._lower(m, validate(m, q, 0.0)), 0.5 * (gl + gl.T))
    assert gamma.shape == (4, 4, 4)


def test_lowered_metric_is_inverse():
    m = _point_mass_metric()
    q = np.array([0.1, 1.3, -0.4, 0.8])
    g = inverse_metric(m, q, 0.0)
    gl = lowered_metric(m, q, 0.0)
    assert np.max(np.abs(g @ gl - np.eye(4))) < 1e-13


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


def test_wrong_signature_rejected():
    flipped = expression_metric(["1", "1", "1", "1"], name="flipped")
    with pytest.raises(BadSignature):
        inverse_metric(flipped, np.zeros(4), 0.0)


def test_asymmetric_metric_rejected():
    def func(q, phi):
        g = np.broadcast_to(ETA, q.shape[:-1] + (4, 4)).copy()
        g[..., 0, 1] = 0.25
        return g

    skew = dataclasses.replace(minkowski(), func=func, name="skew")
    with pytest.raises(BadSignature):
        inverse_metric(skew, np.zeros(4), 0.0)


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
