"""The contracted metric path agrees with the full derivative tensors."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from contactrel import (
    ContactHamiltonianSystem,
    ExtendedState,
    MassModel,
    NonFiniteDerivative,
    NonFiniteMetric,
    contract,
    evolution_field,
    expression_metric,
    metric_derivatives,
    minkowski,
    point_mass_potential,
    weak_field,
)
from contactrel.checks import _wavy_metric

WAVY_DIAG = (
    "-(1 + 0.1*sin(0.7*x1 + 0.5*phi))",
    "1 + 0.1*cos(0.7*x2)",
    "1 + 0.1*sin(0.7*x3 + 0.5*phi)",
    "1 + 0.1*cos(0.7*x1)",
)
ANALYTIC_TOL = 1e-13
# Differencing the scalar g^{ab} p_a p_b instead of each g^{ab} changes only
# the round-off over the step h (about eps |g p p| / h).
FD_TOL = 1e-9


def _weak(gradient: bool):
    pot, grad = point_mass_potential(0.3, softening=0.8)
    return weak_field(pot, grad if gradient else None, c=1.0)


METRICS = {
    "minkowski": (minkowski, ANALYTIC_TOL),
    "weak-analytic": (lambda: _weak(True), ANALYTIC_TOL),
    "weak-fd": (lambda: _weak(False), FD_TOL),
    "expression": (lambda: expression_metric(WAVY_DIAG), FD_TOL),
    "wavy": (_wavy_metric, ANALYTIC_TOL),
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


@pytest.mark.parametrize("n", [1, 1000])
@pytest.mark.parametrize("kind", list(METRICS))
def test_contract_matches_tensor_path(kind, n):
    make, tol = METRICS[kind]
    metric = make()
    q, p, phi = _states(n)
    fast = contract(metric, q, p, phi)
    ref = _tensor_reference(metric, q, p, phi)
    for got, want in zip(fast, ref):
        assert got.shape == want.shape
        err = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
        assert err <= tol


def test_contract_callbacks_are_supplied_where_documented():
    assert minkowski().contract is not None
    assert _weak(True).contract is not None
    assert _weak(False).contract is None
    assert expression_metric(WAVY_DIAG).contract is None


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


@pytest.mark.parametrize("path", ["callback", "fallback"])
def test_non_finite_metric_and_derivative_are_rejected(path):
    def on_path(metric):
        assert metric.contract is not None
        return metric if path == "callback" else dataclasses.replace(metric, contract=None)

    with pytest.raises(NonFiniteMetric):
        _field_at_origin(on_path(_unsoftened(soft_potential=False)))
    # finite potential, non-finite gradient
    with pytest.raises(NonFiniteDerivative):
        _field_at_origin(on_path(_unsoftened(soft_potential=True)))


def test_finite_difference_overflow_is_a_non_finite_derivative():
    # every evaluation is finite, but the stencil's 8 g^{00} overflows
    with pytest.raises(NonFiniteDerivative):
        _field_at_origin(expression_metric(("-1e308", "1", "1", "1")))
