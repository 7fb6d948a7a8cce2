"""Spacetime geometry: inverse-metric fields and derived curvature quantities.

Conventions
-----------
* Signature (-,+,+,+); coordinate index 0 is the time direction, q^0 = c t.
* The primary object is the *inverse* metric g^{mu nu}(q, phi), which is what
  the Hamiltonian needs.  The lowered metric g_{mu nu} is obtained by matrix
  inversion on demand.
* Evaluation is batched: ``q`` has shape (..., 4), ``phi`` is a scalar or has
  shape (...), and the metric comes back with shape (..., 4, 4).
* Derivative tensors put the derivative index last:
  ``d_q[..., a, b, mu] = d g^{ab} / d q^mu`` and ``d_phi[..., a, b]``.

Analytic derivatives are optional; missing ones fall back to 4th-order central
finite differences with step ``FD_STEP * (1 + |x|)`` for coordinate x.

The flow needs the metric only through the quadratic form g^{ab} p_a p_b, so
:func:`contract` returns just ``g . p`` and the gradient of that scalar, never
a rank-3 tensor.  :func:`metric_derivatives` and :func:`christoffel` build the
full tensors for the geodesic reference and for inspection.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BadSignature, NonFiniteDerivative, NonFiniteMetric, SingularMetric

__all__ = [
    "MetricField",
    "inverse_metric",
    "lowered_metric",
    "metric_derivatives",
    "contract",
    "christoffel",
    "minkowski",
    "weak_field",
    "point_mass_potential",
    "uniform_gradient_potential",
    "expression_metric",
]

_ETA_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])
_ETA = np.diag(_ETA_DIAG)

# Validation thresholds for inverse_metric.
SYMMETRY_TOL = 1e-14
CONDITION_LIMIT = 1e12
# Base step of the finite-difference fallback; coordinate x steps by FD_STEP * (1 + |x|).
FD_STEP = 1e-5


@dataclass(frozen=True)
class MetricField:
    """Inverse metric field g^{mu nu}(q, phi) with optional analytic derivatives.

    Parameters
    ----------
    func : callable
        ``func(q, phi) -> (..., 4, 4)`` inverse metric, batched as described in
        the module docstring.
    d_q : callable or None
        ``d_q(q, phi) -> (..., 4, 4, 4)`` with the q-derivative index last.
        When None, 4th-order central differences of ``func`` with the step
        ``FD_STEP * (1 + |q^mu|)`` are used.
    d_phi : callable or None
        ``d_phi(q, phi) -> (..., 4, 4)``.  When None, finite differences.
    contract : callable or None
        ``contract(q, p, phi) -> (g . p (..., 4), d_mu(g^{ab} p_a p_b) (..., 4),
        d_phi(g^{ab} p_a p_b) (...))``, the three contractions the flow needs.
        It raises NonFiniteMetric / NonFiniteDerivative when its own metric or
        derivative entries are non-finite.  When None, :func:`contract` builds
        them from ``func``, ``d_q`` and ``d_phi``.
    name : str
        Human-readable tag used in reports and serialized scenarios.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_q: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    d_phi: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    contract: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
    name: str = "custom"

    def __call__(self, q: np.ndarray, phi) -> np.ndarray:
        return self.func(np.asarray(q, dtype=float), phi)


def _finite_metric(name: str, g):
    if not np.all(np.isfinite(g)):
        raise NonFiniteMetric(f"metric '{name}' produced non-finite entries")
    return g


def _finite_derivative(name: str, d) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(d)):
        raise NonFiniteDerivative(f"metric '{name}' derivatives are non-finite")
    return d


def _eval_raw(metric: MetricField, q: np.ndarray, phi) -> np.ndarray:
    """g^{mu nu} at (q, phi), checked for finiteness only."""
    return _finite_metric(metric.name, metric.func(q, phi))


def inverse_metric(metric: MetricField, q: np.ndarray, phi) -> np.ndarray:
    """Evaluate g^{mu nu} at (q, phi) with finiteness, symmetry and signature checks.

    Accepts a single point (q shape (4,)) or a batch (q shape (..., 4)).
    Raises NonFiniteMetric, BadSignature, or SingularMetric.
    """
    q = np.asarray(q, dtype=float)
    g = _eval_raw(metric, q, phi)
    scale = np.maximum(1.0, np.max(np.abs(g)))
    asym = np.max(np.abs(g - np.swapaxes(g, -1, -2)))
    if asym > SYMMETRY_TOL * scale:
        raise BadSignature(
            f"metric '{metric.name}' is not symmetric (asymmetry {asym:.3e})"
        )
    evals = np.linalg.eigvalsh(g)
    if not (np.all(evals[..., 0] < 0.0) and np.all(evals[..., 1:] > 0.0)):
        raise BadSignature(
            f"metric '{metric.name}' does not have signature (-,+,+,+)"
        )
    return g


def lowered_metric(metric: MetricField, q: np.ndarray, phi) -> np.ndarray:
    """g_{mu nu} by inversion of the validated inverse metric."""
    return _lower(metric, inverse_metric(metric, q, phi))


def _lower(metric: MetricField, g: np.ndarray) -> np.ndarray:
    """Symmetrised inverse of an already validated inverse metric g."""
    if np.any(np.linalg.cond(g) > CONDITION_LIMIT):
        raise SingularMetric(
            f"metric '{metric.name}' is numerically singular at the requested point"
        )
    gl = np.linalg.inv(g)
    return 0.5 * (gl + np.swapaxes(gl, -1, -2))


def _fd4(f_m2, f_m1, f_p1, f_p2, h):
    """4th-order central difference from the four shifted evaluations."""
    return (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * h)


def _fd4_of(f, x, h):
    """_fd4 of f at x - 2h, x - h, x + h, x + 2h; h broadcasts over f's value."""
    vals = [f(x + s * h) for s in (-2.0, -1.0, 1.0, 2.0)]
    hh = np.reshape(h, np.shape(h) + (1,) * (np.ndim(vals[0]) - np.ndim(h)))
    return _fd4(vals[0], vals[1], vals[2], vals[3], hh)


def _fd_dq(f, q: np.ndarray) -> np.ndarray:
    """d f(q) / d q^mu for every mu, derivative index last."""
    cols = []
    for mu in range(4):

        def f_mu(x, mu=mu):
            qs = q.copy()
            qs[..., mu] = x
            return f(qs)

        cols.append(_fd4_of(f_mu, q[..., mu], FD_STEP * (1.0 + np.abs(q[..., mu]))))
    return np.stack(cols, axis=-1)


def _fd_dphi(f, phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    return _fd4_of(f, phi, FD_STEP * (1.0 + np.abs(phi)))


def metric_derivatives(metric: MetricField, q: np.ndarray, phi) -> tuple[np.ndarray, np.ndarray]:
    """Return (d_q, d_phi) derivative tensors of the inverse metric.

    ``d_q[..., a, b, mu] = d g^{ab}/d q^mu`` and ``d_phi[..., a, b]``; both are
    exactly symmetric in (a, b).  Uses analytic callbacks when the field
    provides them, 4th-order central differences otherwise.
    """
    q = np.asarray(q, dtype=float)
    if metric.d_q is not None:
        dq = metric.d_q(q, phi)
    else:
        dq = _fd_dq(lambda qs: _eval_raw(metric, qs, phi), q)
    if metric.d_phi is not None:
        dphi = metric.d_phi(q, phi)
    else:
        dphi = _fd_dphi(lambda ps: _eval_raw(metric, q, ps), phi)
    dq = np.asarray(dq, dtype=float)
    dphi = np.asarray(dphi, dtype=float)
    if not (np.all(np.isfinite(dq)) and np.all(np.isfinite(dphi))):
        raise NonFiniteDerivative(
            f"metric '{metric.name}' derivatives are non-finite"
        )
    dq = 0.5 * (dq + np.swapaxes(dq, -2, -3))
    dphi = 0.5 * (dphi + np.swapaxes(dphi, -1, -2))
    return dq, dphi


def _gpp(g, p):
    """g^{ab} p_a p_b over the batch."""
    return np.einsum("...ab,...a,...b->...", g, p, p)


def contract(metric: MetricField, q: np.ndarray, p: np.ndarray, phi):
    """The metric contractions the contact flow needs, at a batch of states.

    Returns ``(g . p, d_mu(g^{ab} p_a p_b), d_phi(g^{ab} p_a p_b))`` with
    shapes (..., 4), (..., 4) and (...).  Uses the field's ``contract``
    callback when it has one.  Otherwise each derivative comes from the
    analytic ``d_q`` / ``d_phi`` callback contracted with p, or from the
    4th-order stencil applied to the scalar g^{ab} p_a p_b (the same
    evaluations of ``func`` as :func:`metric_derivatives`, no rank-3 tensor).
    Raises NonFiniteMetric or NonFiniteDerivative like metric_derivatives.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if metric.contract is not None:
        return metric.contract(q, p, phi)
    gp = np.einsum("...ab,...b->...a", _eval_raw(metric, q, phi), p)
    if metric.d_q is not None:
        dq_g = _finite_derivative(metric.name, metric.d_q(q, phi))
        d_q = np.einsum("...abm,...a,...b->...m", dq_g, p, p)
    else:
        d_q = _finite_derivative(metric.name, _fd_dq(
            lambda qs: _gpp(_eval_raw(metric, qs, phi), p), q))
    if metric.d_phi is not None:
        d_phi = _gpp(_finite_derivative(metric.name, metric.d_phi(q, phi)), p)
    else:
        d_phi = _finite_derivative(metric.name, _fd_dphi(
            lambda ps: _gpp(_eval_raw(metric, q, ps), p), phi))
    return gp, d_q, d_phi


def christoffel(metric: MetricField, q: np.ndarray, phi) -> np.ndarray:
    """Christoffel symbols Gamma^mu_{ab} of the lowered metric at fixed phi.

    Built from inverse-metric derivatives via
    d g_{sb}/d q^a = -g_{sm} (d g^{mn}/d q^a) g_{nb}, then
    Gamma^mu_{ab} = 1/2 g^{mu s} (d_a g_{sb} + d_b g_{sa} - d_s g_{ab}).
    Output is exactly symmetric in the lower pair.
    """
    q = np.asarray(q, dtype=float)
    g = inverse_metric(metric, q, phi)
    gl = _lower(metric, g)
    dq, _ = metric_derivatives(metric, q, phi)
    # L[..., s, b, a] = d g_{sb} / d q^a
    L = -np.einsum("...sm,...mna,...nb->...sba", gl, dq, gl)
    # C[s, a, b] = d_a g_{sb} + d_b g_{sa} - d_s g_{ab}
    term1 = np.swapaxes(L, -1, -2)             # [s, a, b] = L[s, b, a] = d_a g_{sb}
    term2 = L                                  # [s, a, b] = L[s, a, b] = d_b g_{sa}
    perm = list(range(L.ndim))
    perm[-3], perm[-2], perm[-1] = perm[-1], perm[-3], perm[-2]
    term3 = np.transpose(L, perm)              # [s, a, b] = L[a, b, s] = d_s g_{ab}
    C = term1 + term2 - term3
    gamma = 0.5 * np.einsum("...ms,...sab->...mab", g, C)
    return 0.5 * (gamma + np.swapaxes(gamma, -1, -2))


# --- constructors -----------------------------------------------------------


def _batch_like(q: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Broadcast a constant (4, 4) matrix over the batch shape of q."""
    return np.broadcast_to(mat, q.shape[:-1] + (4, 4))


def minkowski() -> MetricField:
    """Flat inverse metric diag(-1, 1, 1, 1), independent of q and phi."""

    def func(q, phi):
        return _batch_like(q, _ETA)

    def d_q(q, phi):
        return np.zeros(q.shape[:-1] + (4, 4, 4))

    def d_phi(q, phi):
        return np.zeros(q.shape[:-1] + (4, 4))

    def contract(q, p, phi):
        return _ETA_DIAG * p, np.zeros(p.shape), np.zeros(p.shape[:-1])

    return MetricField(func=func, d_q=d_q, d_phi=d_phi, contract=contract, name="minkowski")


def point_mass_potential(gm: float, softening: float = 0.0):
    """Newtonian potential of a point mass at the spatial origin.

    Returns (potential, gradient) callables over spatial positions x with
    shape (..., 3):  phi_N = -GM / sqrt(|x|^2 + soft^2).
    """
    gm = float(gm)
    s2 = float(softening) ** 2

    def pot(x):
        r2 = np.sum(x * x, axis=-1) + s2
        return -gm / np.sqrt(r2)

    def grad(x):
        r2 = np.sum(x * x, axis=-1) + s2
        return gm * x / np.power(r2, 1.5)[..., None]

    return pot, grad


def uniform_gradient_potential(g_vec: Sequence[float]):
    """Linear potential phi_N = g . x (uniform acceleration -g)."""
    g_arr = np.asarray(g_vec, dtype=float).reshape(3)

    def pot(x):
        return np.einsum("...i,i->...", x, g_arr)

    def grad(x):
        return np.broadcast_to(g_arr, x.shape).copy()

    return pot, grad


def weak_field(
    potential: Callable[[np.ndarray], np.ndarray],
    gradient: Callable[[np.ndarray], np.ndarray] | None = None,
    c: float = 1.0,
    name: str = "weak-field",
) -> MetricField:
    """Weak-field inverse metric for a static Newtonian potential.

    g^{00} = -(1 - 2 phi_N/c^2), g^{ii} = 1 - 2 phi_N/c^2, off-diagonal zero,
    to first order in phi_N/c^2.  ``potential`` maps spatial positions
    (..., 3) -> (...); ``gradient`` maps (..., 3) -> (..., 3) and enables
    analytic q-derivatives (otherwise finite differences are used).
    The potential has no phi dependence, so d_phi is identically zero.
    With ``gradient`` the field also supplies the ``contract`` callback.
    """
    c2 = float(c) ** 2

    def func(q, phi):
        x = q[..., 1:]
        u = 2.0 * potential(x) / c2
        g = np.zeros(q.shape[:-1] + (4, 4))
        g[..., 0, 0] = -1.0 + u
        for i in (1, 2, 3):
            g[..., i, i] = 1.0 - u
        return g

    d_q = contract = None
    if gradient is not None:

        def d_q(q, phi):
            x = q[..., 1:]
            du = 2.0 * gradient(x) / c2  # (..., 3) = d u / d x^i
            out = np.zeros(q.shape[:-1] + (4, 4, 4))
            for i in (1, 2, 3):
                out[..., 0, 0, i] = du[..., i - 1]
                for j in (1, 2, 3):
                    out[..., j, j, i] = -du[..., i - 1]
            return out

        def contract(q, p, phi):
            # g^{ab} p_a p_b = (1 - u) eta^{ab} p_a p_b
            x = q[..., 1:]
            u = _finite_metric(name, 2.0 * potential(x) / c2)
            du = _finite_derivative(name, 2.0 * gradient(x) / c2)
            eta_p = _ETA_DIAG * p
            eta_pp = np.einsum("...a,...a->...", eta_p, p)
            d_gpp = np.zeros(p.shape)
            d_gpp[..., 1:] = -du * eta_pp[..., None]
            return (1.0 - u)[..., None] * eta_p, d_gpp, np.zeros(p.shape[:-1])

    def d_phi(q, phi):
        return np.zeros(q.shape[:-1] + (4, 4))

    return MetricField(func=func, d_q=d_q, d_phi=d_phi, contract=contract, name=name)


_EXPR_NAMESPACE = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "abs": np.abs,
    "pi": np.pi,
    "e": np.e,
}


_EXPR_VALUES = frozenset({"x0", "x1", "x2", "x3", "phi", "pi", "e"})
_EXPR_FUNCTIONS = frozenset(k for k, v in _EXPR_NAMESPACE.items() if callable(v))
_EXPR_NODES = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Call, ast.BinOp, ast.UnaryOp,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub,
)


def _compile_entry(s: str, label: str):
    """Compile one metric entry after checking it against the entry grammar.

    The grammar: numeric literals, the names x0..x3, phi, pi and e,
    ``+ - * / **``, unary +/-, and one-argument calls of the functions in
    _EXPR_NAMESPACE.  Anything else raises ValueError before compilation, so a
    scenario string cannot reach attributes, subscripts or builtins.  Literals
    are compiled as floats: an integer power such as 9**9**9 cannot run
    without bound, it overflows at once.
    """
    try:
        tree = ast.parse(s, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ValueError(f"cannot parse: {exc}") from None
    callees = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if not isinstance(node, _EXPR_NODES):
            raise ValueError(f"{type(node).__name__} is not allowed")
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                raise ValueError(f"literal {node.value!r} is not a number")
            try:
                node.value = float(node.value)
            except OverflowError:
                raise ValueError("integer literal too large for a float") from None
        elif isinstance(node, ast.Name):
            allowed = _EXPR_FUNCTIONS if id(node) in callees else _EXPR_VALUES
            if node.id not in allowed:
                raise ValueError(f"name {node.id!r} is not allowed here")
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name):
                raise ValueError("only the named functions can be called")
            # a ufunc's second positional argument is its output array
            if len(node.args) != 1 or node.keywords:
                raise ValueError(f"{node.func.id}() takes exactly one argument")
    try:
        return compile(tree, label, "eval")
    except RecursionError:  # nesting the parser accepted but the compiler does not
        raise ValueError("expression is nested too deeply") from None


def expression_metric(diag: Sequence[str], name: str = "expression") -> MetricField:
    """Diagonal inverse metric whose entries are numpy expressions.

    ``diag`` holds four strings over the variables x0..x3 and phi, e.g.
    ``("-(1 + 0.1*sin(x1))", "1", "1", "1")``.  Entries are evaluated with
    numpy semantics and broadcast over the batch; derivatives come from the
    finite-difference fallback.  Each entry is checked against a small
    grammar (:func:`_compile_entry`; ValueError otherwise), compiled once and
    evaluated in a namespace without builtins.
    """
    if len(diag) != 4:
        raise ValueError("expression_metric needs exactly 4 diagonal entries")
    codes = [_compile_entry(s, f"<metric diag[{i}]>") for i, s in enumerate(diag)]

    def func(q, phi):
        batch = q.shape[:-1]
        phi_arr = np.asarray(phi, dtype=float)
        local = {
            "x0": q[..., 0], "x1": q[..., 1], "x2": q[..., 2], "x3": q[..., 3],
            "phi": phi_arr,
        }
        g = np.zeros(batch + (4, 4))
        for i, code in enumerate(codes):
            val = eval(code, {"__builtins__": {}}, {**_EXPR_NAMESPACE, **local})
            g[..., i, i] = np.broadcast_to(val, batch)
        return g

    return MetricField(func=func, name=name)
