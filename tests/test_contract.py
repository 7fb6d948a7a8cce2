"""Each field's diagonal callback, and the contraction geometry._contract
forms from it, agree with the field's derivative tensors and with a stencil
over its metric values."""

from __future__ import annotations

import ast
import re
import warnings
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
    uniform_gradient_potential,
    weak_field,
)
from contactrel import dynamics
from contactrel.checks import WAVY_DIAG
from contactrel.geometry import _contract, _fd4_of
from contactrel.integrators import _geodesic_field

# a diagonal metric over most of the entry grammar: quotients, constant and
# variable exponents, and every function but sign
GRAMMAR_DIAG = (
    "-(1 + 0.1*tanh(x0*x1))*exp(0.05*phi**2)",
    "(2 + sin(x1))**(0.1*phi) / (1 + 0.1*x2**2)",
    "sqrt(1 + x3**2) + 0.1*abs(x2)**3",
    "1 + 0.01*log(3 + x0)*tan(0.3*x1) + 0.1*cos(x3)",
)
ANALYTIC_TOL = 1e-13
# The stencil reference differences each entry g^{aa}; its round-off over the
# step is about eps |g^{aa}| / FD_STEP, and eps |g p p| / FD_STEP once contracted.
FD_STEP = 1e-5
FD_TOL = 1e-9


def _weak():
    pot, grad = point_mass_potential(0.3, softening=0.8)
    return weak_field(pot, grad, c=1.0)


METRICS = {
    "minkowski": minkowski,
    "weak-analytic": _weak,
    "weak-uniform": lambda: weak_field(*uniform_gradient_potential([0.03, -0.05, 0.02]), c=1.0),
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
    """_contract's three arrays and diagonal's two from func and metric_derivatives."""
    dq_g, dphi_g = metric_derivatives(metric, q, phi)
    g = metric.func(q, phi)
    gp = np.einsum("nab,nb->na", g, p)
    d_q = np.einsum("nabm,na,nb->nm", dq_g, p, p)
    d_phi = np.einsum("nab,na,nb->n", dphi_g, p, p)
    grad = np.concatenate([np.diagonal(dq_g, axis1=1, axis2=2).transpose(0, 2, 1),
                           np.diagonal(dphi_g, axis1=1, axis2=2)[..., None]], axis=-1)
    return gp, d_q, d_phi, np.diagonal(g, axis1=1, axis2=2), grad


def _stencil_reference(metric, q, p, phi):
    """As _tensor_reference, with every derivative the 4th-order stencil over func."""

    def diag(qs, ps):
        return np.diagonal(metric.func(qs, ps), axis1=1, axis2=2)

    def step(x):
        return FD_STEP * (1.0 + np.abs(x))

    grad = np.empty(q.shape + (5,))
    for mu in range(4):

        def along(x, mu=mu):
            qs = q.copy()
            qs[:, mu] = x
            return diag(qs, phi)

        grad[..., mu] = _fd4_of(along, q[:, mu], step(q[:, mu]))
    grad[..., 4] = _fd4_of(lambda x: diag(q, x), phi, step(phi))
    d_gpp = np.einsum("nak,na->nk", grad, p * p)
    g = diag(q, phi)
    return g * p, d_gpp[:, :4], d_gpp[:, 4], g, grad


def _in_chunks(fn, *arrays, rows=1000):
    """fn over chunks of rows of its (n, ...) arguments, its outputs joined.

    A reference at n = 10^4 would otherwise build rank-3 tensors of several
    MB, and freeing those raises glibc's mmap threshold for the rest of the
    process: test_block_steps_allocate_no_block_sized_arrays would then find
    the block's buffers already paged in.
    """
    parts = [fn(*(a[i:i + rows] for a in arrays)) for i in range(0, len(arrays[0]), rows)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _assert_close(got, want, tol):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w) / np.maximum(1.0, np.abs(w))) <= tol


def _contract_and_diagonal(metric, q, p, phi):
    """_contract's three arrays and diagonal's two, broadcast to the batch, a
    gradient of None as zeros."""
    g, grad = metric.diagonal(q, phi)
    return (*_contract(metric, q, p, phi), np.broadcast_to(g, q.shape),
            np.zeros(q.shape + (5,)) if grad is None else grad)


@pytest.mark.parametrize("n", [1, 1000, 10_000])
@pytest.mark.parametrize("kind", list(METRICS))
def test_contract_matches_tensor_path(kind, n):
    metric = METRICS[kind]()
    q, p, phi = _states(n)
    want = _in_chunks(lambda *state: _tensor_reference(metric, *state), q, p, phi)
    _assert_close(_contract_and_diagonal(metric, q, p, phi), want, ANALYTIC_TOL)


@pytest.mark.parametrize("n", [1, 1000, 10_000])
@pytest.mark.parametrize("kind", list(METRICS))
def test_contract_matches_stencil_on_func(kind, n):
    metric = METRICS[kind]()
    q, p, phi = _states(n)
    want = _in_chunks(lambda *state: _stencil_reference(metric, *state), q, p, phi)
    _assert_close(_contract_and_diagonal(metric, q, p, phi), want, FD_TOL)


def test_contract_callbacks_are_supplied_where_documented():
    # every field carries its tensor form and its diagonal; none is optional
    for make in METRICS.values():
        metric = make()
        assert callable(metric.d_q) and callable(metric.d_phi) and callable(metric.diagonal)
    with pytest.raises(TypeError):
        MetricField(func=minkowski().func)
    with pytest.raises(TypeError):
        weak_field(point_mass_potential(0.3)[0])


def _covector_diagonal(metric, q, phi):
    """g^{aa}, d g^{aa}/d q^k and d g^{aa}/d phi as _contract gives them for the
    four unit covectors e_a: the reading the diagonal callback replaces."""
    rows = q.shape[:-1] + (4,)
    g_e, d_q, d_phi = _contract(
        metric,
        np.broadcast_to(q[..., None, :], rows + (4,)),
        np.broadcast_to(np.eye(4), rows + (4,)),
        np.broadcast_to(np.asarray(phi, dtype=float)[..., None], rows),
    )
    return np.diagonal(g_e, axis1=-2, axis2=-1), d_q, d_phi


def _covector_contract(metric, q, p, phi):
    """The contraction formed from _covector_diagonal, in _contract's arithmetic."""

    def rows(q, p, phi):
        g, d_q, d_phi = _covector_diagonal(metric, q, phi)
        grad = np.concatenate([d_q, d_phi[..., None]], axis=-1)
        d_gpp = np.einsum("...ak,...a->...k", grad, p * p)
        return g * p, d_gpp[..., :4], d_gpp[..., 4]

    return _in_chunks(rows, q, p, phi)


def _assert_same_bits(got, want):
    assert np.all(np.isfinite(want))
    assert np.array_equal(np.signbit(got), np.signbit(want)) and np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 10_000])
@pytest.mark.parametrize("kind", list(METRICS))
def test_field_and_geodesic_reads_are_the_covector_reads_bit_for_bit(kind, n, monkeypatch):
    # the field rows and the geodesic right-hand side read the diagonal
    # callback; they must keep the bits of reading the metric through the
    # contraction of the four unit covectors, signs of zero included
    metric = METRICS[kind]()
    q, p, phi = _states(n, seed=n)
    q[0, 1:] = 0.0  # the centre of the point mass, where its gradient is 0 and -0
    p[-1, 1:3] = 0.0  # zero products, where a -0 would show
    sys = ContactHamiltonianSystem(metric=metric, mass=MassModel.exp_decay(1.0, 0.1, c=1.7),
                                   c=1.7)
    out = np.full((9, n), np.nan)
    dhdphi = dynamics._field_rows(sys, q.T, p.T, phi, out)
    with monkeypatch.context() as patch:
        patch.setattr("contactrel.geometry._contract", _covector_contract)
        ref = np.full((9, n), np.nan)
        ref_dhdphi = dynamics._field_rows(sys, q.T, p.T, phi, ref)
    _assert_same_bits(out, ref)
    _assert_same_bits(dhdphi, ref_dhdphi)

    for k in range(min(n, 50)):
        y = np.concatenate([q[k], p[k]])
        g, d_q, _ = _covector_diagonal(metric, y[0:4], 0.0)
        u_low = y[4:8] / g
        want = np.concatenate([y[4:8], u_low * (d_q @ y[4:8])
                               - 0.5 * g * ((u_low * u_low) @ d_q)])
        _assert_same_bits(_geodesic_field(metric, y, np.full(8, np.nan)), want)


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
    metric = expression_metric(("-(1 + sqrt(x1))", "1", "1", "1"))
    with pytest.raises(NonFiniteDerivative):
        _field_at_origin(metric)
    # the geodesic reference reads the gradient itself, not a contraction of it
    y = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    with np.errstate(all="ignore"), pytest.raises(NonFiniteDerivative):
        _geodesic_field(metric, y, np.empty(8))


def test_abs_has_derivative_zero_at_its_kink():
    metric = expression_metric(("-(1 + abs(x1))", "1", "1", "1"))
    q, p = np.zeros((1, 4)), np.array([[-1.0, 0.3, 0.0, 0.0]])
    _, d_q, d_phi = _contract(metric, q, p, np.zeros(1))
    assert np.all(d_q == 0.0) and np.all(d_phi == 0.0)
    dq_g, _ = metric_derivatives(metric, q[0], 0.0)
    assert np.all(dq_g == 0.0)


def test_constant_division_by_zero_in_a_derivative_is_named():
    # d/dx1 of x1/(2-2) divides two float literals, which Python raises on
    metric = expression_metric(("-1 + x1/(2-2)", "1", "1", "1"))
    with pytest.raises(NonFiniteDerivative, match=re.escape("diag[0]> d/dx1")):
        metric_derivatives(metric, np.zeros(4), 0.0)


def test_complex_entry_is_refused_not_cast_to_real():
    # a float power of a negative literal is complex; its real part is not the entry
    metric = expression_metric(("-(1 + x1*(-8)**(1/3))", "1", "1", "1"))
    q = np.array([0.0, 0.5, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteMetric, match="complex"):
            metric.func(q, 0.0)
        with pytest.raises(NonFiniteDerivative, match="complex"):
            metric_derivatives(metric, q, 0.0)
