"""Each field's contract callback agrees with its derivative tensors and with
a stencil over its metric values."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from contactrel import (
    ContactHamiltonianSystem,
    ExtendedState,
    MassModel,
    MetricField,
    NonFiniteDerivative,
    NonFiniteMetric,
    evolution_field,
    expression_metric,
    metric_derivatives,
    minkowski,
    point_mass_potential,
    weak_field,
)
from contactrel.checks import WAVY_DIAG
from contactrel.geometry import _fd4_of

# a diagonal metric over most of the entry grammar: quotients, constant and
# variable exponents, and every function but sign
GRAMMAR_DIAG = (
    "-(1 + 0.1*tanh(x0*x1))*exp(0.05*phi**2)",
    "(2 + sin(x1))**(0.1*phi) / (1 + 0.1*x2**2)",
    "sqrt(1 + x3**2) + 0.1*abs(x2)**3",
    "1 + 0.01*log(3 + x0)*tan(0.3*x1) + 0.1*cos(x3)",
)
ANALYTIC_TOL = 1e-13
# The stencil reference differences the scalar g^{ab} p_a p_b; its round-off
# over the step is about eps |g p p| / FD_STEP.
FD_STEP = 1e-5
FD_TOL = 1e-9


def _weak():
    pot, grad = point_mass_potential(0.3, softening=0.8)
    return weak_field(pot, grad, c=1.0)


METRICS = {
    "minkowski": minkowski,
    "weak-analytic": _weak,
    "expression": lambda: expression_metric(GRAMMAR_DIAG),
    "wavy": lambda: expression_metric(WAVY_DIAG, name="wavy"),
}


def _states(n, seed=5):
    rng = np.random.default_rng(seed)
    q = rng.uniform(-2.0, 2.0, size=(n, 4))
    p = np.column_stack(
        [rng.uniform(-2.0, -0.5, size=n), rng.uniform(-1.0, 1.0, size=(n, 3))]
    )
    return q, p, rng.uniform(-1.0, 1.0, size=n)


def _tensor_reference(metric, q, p, phi):
    dq_g, dphi_g = metric_derivatives(metric, q, phi)
    gp = np.einsum("nab,nb->na", metric.func(q, phi), p)
    d_q = np.einsum("nabm,na,nb->nm", dq_g, p, p)
    d_phi = np.einsum("nab,na,nb->n", dphi_g, p, p)
    return gp, d_q, d_phi


def _stencil_reference(metric, q, p, phi):
    """g . p from func, and the 4th-order stencil of g^{ab} p_a p_b in q and phi."""

    def gpp(qs, ps):
        return np.einsum("nab,na,nb->n", metric.func(qs, ps), p, p)

    def step(x):
        return FD_STEP * (1.0 + np.abs(x))

    d_q = np.empty(q.shape)
    for mu in range(4):

        def along(x, mu=mu):
            qs = q.copy()
            qs[:, mu] = x
            return gpp(qs, phi)

        d_q[:, mu] = _fd4_of(along, q[:, mu], step(q[:, mu]))
    d_phi = _fd4_of(lambda x: gpp(q, x), phi, step(phi))
    return np.einsum("nab,nb->na", metric.func(q, phi), p), d_q, d_phi


def _assert_close(got, want, tol):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w) / np.maximum(1.0, np.abs(w))) <= tol


@pytest.mark.parametrize("n", [1, 1000])
@pytest.mark.parametrize("kind", list(METRICS))
def test_contract_matches_tensor_path(kind, n):
    metric = METRICS[kind]()
    q, p, phi = _states(n)
    _assert_close(metric.contract(q, p, phi), _tensor_reference(metric, q, p, phi),
                  ANALYTIC_TOL)


@pytest.mark.parametrize("n", [1, 1000])
@pytest.mark.parametrize("kind", list(METRICS))
def test_contract_matches_stencil_on_func(kind, n):
    metric = METRICS[kind]()
    q, p, phi = _states(n)
    _assert_close(metric.contract(q, p, phi), _stencil_reference(metric, q, p, phi), FD_TOL)


def test_contract_callbacks_are_supplied_where_documented():
    # every field carries its derivatives and contraction; none is optional
    for make in METRICS.values():
        metric = make()
        assert callable(metric.d_q) and callable(metric.d_phi) and callable(metric.contract)
    with pytest.raises(TypeError):
        MetricField(func=minkowski().func)
    with pytest.raises(TypeError):
        weak_field(point_mass_potential(0.3)[0])


def test_wavy_metric_is_written_once():
    # the gas-curved benchmark workload keeps its own copy, read here without
    # importing the benchmark package
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "workloads.py").read_text())
    copies = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "WAVY_DIAG" for t in node.targets)]
    assert len(copies) == 1
    assert list(ast.literal_eval(copies[0])) == list(WAVY_DIAG)


def _origin_state():
    return ExtendedState(q=np.zeros(4), p=[-1.0, 0.1, 0.0, 0.0], phi=0.0)


def _field_at_origin(metric):
    sys_ = ContactHamiltonianSystem(metric=metric, mass=MassModel.constant(1.0))
    with np.errstate(all="ignore"):
        return evolution_field(sys_, _origin_state())


def _unsoftened(soft_potential: bool):
    """Point mass at the origin: potential -inf there, gradient 0/0 = nan."""
    pot, grad = point_mass_potential(1.0)
    if soft_potential:
        pot, _ = point_mass_potential(1.0, softening=0.5)
    return weak_field(pot, grad)


def test_non_finite_metric_and_derivative_are_rejected():
    with pytest.raises(NonFiniteMetric):
        _field_at_origin(_unsoftened(soft_potential=False))
    # finite potential, non-finite gradient
    with pytest.raises(NonFiniteDerivative):
        _field_at_origin(_unsoftened(soft_potential=True))
    with pytest.raises(NonFiniteMetric):
        _field_at_origin(expression_metric(("-1/x1", "1", "1", "1")))


def test_singular_expression_derivative_is_named():
    # sqrt(x1) is finite at 0, its derivative is not; no stencil steps to x1 < 0
    with pytest.raises(NonFiniteDerivative):
        _field_at_origin(expression_metric(("-(1 + sqrt(x1))", "1", "1", "1")))


def test_abs_has_derivative_zero_at_its_kink():
    metric = expression_metric(("-(1 + abs(x1))", "1", "1", "1"))
    q, p = np.zeros((1, 4)), np.array([[-1.0, 0.3, 0.0, 0.0]])
    _, d_q, d_phi = metric.contract(q, p, np.zeros(1))
    assert np.all(d_q == 0.0) and np.all(d_phi == 0.0)
    dq_g, _ = metric_derivatives(metric, q[0], 0.0)
    assert np.all(dq_g == 0.0)
