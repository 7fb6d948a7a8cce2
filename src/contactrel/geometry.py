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

Every built-in field is diagonal and carries exact derivatives: each
constructor gives its diagonal g^{aa} and the gradient of that diagonal (the
weak field writes it out, :func:`expression_metric` differentiates its
entries symbolically), and ``_diagonal_metric`` builds all four callbacks of
the field from those two.  The flow needs the metric only through the
quadratic form g^{ab} p_a p_b, so the dynamics calls each field's
``contract(q, p, phi)``, which returns ``g . p`` and the gradient of that
scalar, never a rank-3 tensor.
:func:`metric_derivatives` and :func:`christoffel` build the full tensors for
the geodesic reference and for inspection.
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
    "christoffel",
    "minkowski",
    "weak_field",
    "point_mass_potential",
    "uniform_gradient_potential",
    "expression_metric",
]

_ETA_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])

# Validation thresholds for inverse_metric.
SYMMETRY_TOL = 1e-14
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class MetricField:
    """Inverse metric field g^{mu nu}(q, phi) with its exact derivatives.

    All four callbacks are required.  The built-in constructors get them from
    ``_diagonal_metric``; a hand-made field must keep them consistent, as
    ``tests/test_contract.py`` checks for the built-in ones.

    Parameters
    ----------
    func : callable
        ``func(q, phi) -> (..., 4, 4)`` inverse metric, batched as described in
        the module docstring.
    d_q : callable
        ``d_q(q, phi) -> (..., 4, 4, 4)`` with the q-derivative index last.
    d_phi : callable
        ``d_phi(q, phi) -> (..., 4, 4)``.
    contract : callable
        ``contract(q, p, phi) -> (g . p (..., 4), d_mu(g^{ab} p_a p_b) (..., 4),
        d_phi(g^{ab} p_a p_b) (...))``, the three contractions the flow needs.
        It raises NonFiniteMetric / NonFiniteDerivative when its own metric or
        derivative entries are non-finite.
    name : str
        Human-readable tag used in reports and serialized scenarios.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_q: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    contract: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]]
    name: str = "custom"


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


def metric_derivatives(metric: MetricField, q: np.ndarray, phi) -> tuple[np.ndarray, np.ndarray]:
    """Return (d_q, d_phi) derivative tensors of the inverse metric.

    ``d_q[..., a, b, mu] = d g^{ab}/d q^mu`` and ``d_phi[..., a, b]``; both are
    exactly symmetric in (a, b).
    """
    q = np.asarray(q, dtype=float)
    dq = _d_q(metric, q, phi)
    dphi = _finite_derivative(metric.name, metric.d_phi(q, phi))
    return dq, 0.5 * (dphi + np.swapaxes(dphi, -1, -2))


def _d_q(metric: MetricField, q: np.ndarray, phi) -> np.ndarray:
    """The d_q tensor of :func:`metric_derivatives` alone."""
    dq = _finite_derivative(metric.name, metric.d_q(q, phi))
    return 0.5 * (dq + np.swapaxes(dq, -2, -3))


def _gpp(g, p):
    """g^{ab} p_a p_b over the batch."""
    return np.einsum("...ab,...a,...b->...", g, p, p)


def christoffel(metric: MetricField, q: np.ndarray, phi) -> np.ndarray:
    """Christoffel symbols Gamma^mu_{ab} of the lowered metric at fixed phi.

    Built from inverse-metric derivatives via
    d g_{sb}/d q^a = -g_{sm} (d g^{mn}/d q^a) g_{nb}, then
    Gamma^mu_{ab} = 1/2 g^{mu s} (d_a g_{sb} + d_b g_{sa} - d_s g_{ab}).
    Output is exactly symmetric in the lower pair.
    """
    q = np.asarray(q, dtype=float)
    g = inverse_metric(metric, q, phi)
    return _christoffel(g, _lower(metric, g), _d_q(metric, q, phi))


def _christoffel(g, gl, dq):
    """:func:`christoffel` from g^{ab}, its symmetrised inverse and the d_q tensor.

    Nothing is validated here: the caller has checked the metric.
    """
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


def _diagonal_metric(name: str, diag, gradient=None) -> MetricField:
    """A diagonal inverse metric: the one builder of every built-in field.

    ``diag`` is ``(q, phi) -> (..., 4)``, the entries g^{aa}, or a constant
    (4,) array.  ``gradient`` is ``(q, phi) -> (..., 4, 5)``, holding
    d g^{aa} / d(x0, x1, x2, x3, phi), or None where it is identically zero.
    ``contract`` uses g^{ab} p_a p_b = sum_a g^{aa} p_a^2 and checks that the
    entries and the contracted derivatives are finite (a constant diagonal
    once, here).
    """
    eye = np.eye(4)
    if callable(diag):
        def func(q, phi):
            return np.einsum("...a,ab->...ab", diag(q, phi), eye)

        def values(q, phi):
            return _finite_metric(name, diag(q, phi))
    else:
        const = _finite_metric(name, np.asarray(diag, dtype=float))
        matrix = np.diag(const)

        def func(q, phi):
            return np.broadcast_to(matrix, q.shape[:-1] + (4, 4))

        def values(q, phi):
            return const

    def d_q(q, phi):
        if gradient is None:
            return np.zeros(q.shape[:-1] + (4, 4, 4))
        return np.einsum("...am,ab->...abm", gradient(q, phi)[..., :4], eye)

    def d_phi(q, phi):
        if gradient is None:
            return np.zeros(q.shape[:-1] + (4, 4))
        return np.einsum("...a,ab->...ab", gradient(q, phi)[..., 4], eye)

    def contract(q, p, phi):
        g_p = values(q, phi) * p
        if gradient is None:
            return g_p, np.zeros(p.shape), np.zeros(p.shape[:-1])
        d_gpp = _finite_derivative(
            name, np.einsum("...ak,...a->...k", gradient(q, phi), p * p))
        return g_p, d_gpp[..., :4], d_gpp[..., 4]

    return MetricField(func=func, d_q=d_q, d_phi=d_phi, contract=contract, name=name)


def minkowski() -> MetricField:
    """Flat inverse metric diag(-1, 1, 1, 1), independent of q and phi."""
    return _diagonal_metric("minkowski", _ETA_DIAG)


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
    gradient: Callable[[np.ndarray], np.ndarray],
    c: float = 1.0,
    name: str = "weak-field",
) -> MetricField:
    """Weak-field inverse metric for a static Newtonian potential.

    g^{00} = -(1 - 2 phi_N/c^2), g^{ii} = 1 - 2 phi_N/c^2, off-diagonal zero,
    to first order in phi_N/c^2.  ``potential`` maps spatial positions
    (..., 3) -> (...); ``gradient`` maps (..., 3) -> (..., 3) and gives the
    q-derivatives.  The potential has no phi dependence, so d_phi is
    identically zero.
    """
    c2 = float(c) ** 2

    def diag(q, phi):
        return (1.0 - 2.0 * potential(q[..., 1:]) / c2)[..., None] * _ETA_DIAG

    def grad(q, phi):
        du = 2.0 * gradient(q[..., 1:]) / c2  # (..., 3) = d u / d x^i
        out = np.zeros(q.shape[:-1] + (4, 5))
        out[..., 0, 1:4] = du  # d g^{aa} / d x^i = -eta^{aa} du_i
        out[..., 1:, 1:4] = -du[..., None, :]
        return out

    return _diagonal_metric(name, diag, grad)


# The functions of the entry grammar, each with f'(u) as entry text in u; None
# where f' is zero (sign is taken as flat at its jump, so abs' is 0 at 0).
_CHAIN = {
    "sin": "cos(u)", "cos": "-sin(u)", "tan": "1 / cos(u)**2", "exp": "exp(u)",
    "log": "1 / u", "sqrt": "0.5 / sqrt(u)", "tanh": "1 - tanh(u)**2", "abs": "sign(u)",
    "sign": None,
}
_EXPR_NAMESPACE = {**{f: getattr(np, f) for f in _CHAIN}, "pi": np.pi, "e": np.e}
# The variables of an entry, in the order of its derivative slots.
_EXPR_VARIABLES = ("x0", "x1", "x2", "x3", "phi")
_EXPR_VALUES = frozenset(_EXPR_VARIABLES + ("pi", "e"))
_EXPR_NODES = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Call, ast.BinOp, ast.UnaryOp,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub,
)
# Largest written-out derivative of an entry, in nodes; it grows up to quadratically.
_MAX_DERIVATIVE_NODES = 10_000


def _compile_entry(s: str, label: str):
    """Check one metric entry against the entry grammar; return (tree, code).

    The grammar: numeric literals, the names x0..x3, phi, pi and e,
    ``+ - * / **``, unary +/-, and one-argument calls of the functions in
    _CHAIN.  Anything else raises ValueError before compilation, so a
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
            allowed = _CHAIN if id(node) in callees else _EXPR_VALUES
            if node.id not in allowed:
                raise ValueError(f"name {node.id!r} is not allowed here")
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name):
                raise ValueError("only the named functions can be called")
            # a ufunc's second positional argument is its output array
            if len(node.args) != 1 or node.keywords:
                raise ValueError(f"{node.func.id}() takes exactly one argument")
    try:
        return tree, compile(tree, label, "eval")
    except RecursionError:  # nesting the parser accepted but the compiler does not
        raise ValueError("expression is nested too deeply") from None


# --- exact derivatives of the entry grammar -------------------------------------
# A derivative is a tree over the grammar, and None stands for an identically
# zero one, so that zero terms are pruned instead of evaluated.  Derivative
# factors are put on the right, where _op drops them when they are 1.


def _op(a, op: ast.operator, b):
    """The tree a op b, with zero (None) terms and a right factor of 1 left out."""
    if isinstance(op, (ast.Add, ast.Sub)):
        if b is None:
            return a
        if a is None:
            return b if isinstance(op, ast.Add) else ast.UnaryOp(ast.USub(), b)
    elif a is None or b is None:
        return None
    elif isinstance(b, ast.Constant) and b.value == 1.0:
        return a
    return ast.BinOp(a, op, b)


class _Bind(ast.NodeTransformer):
    """Puts the tree ``u`` in place of the name u in a _CHAIN template."""

    def __init__(self, u: ast.expr):
        self.u = u

    def visit_Name(self, node):
        return self.u if node.id == "u" else node


def _derivative(node: ast.expr, var: str):
    """d node / d var over the entry grammar; None when it is identically zero."""
    if isinstance(node, ast.Constant):
        return None
    if isinstance(node, ast.Name):
        return ast.Constant(1.0) if node.id == var else None
    if isinstance(node, ast.UnaryOp):
        d = _derivative(node.operand, var)
        return _op(None, ast.Sub(), d) if isinstance(node.op, ast.USub) else d
    if isinstance(node, ast.Call):  # the chain rule
        u, template = node.args[0], _CHAIN[node.func.id]
        du = _derivative(u, var)
        if du is None or template is None:
            return None
        return _op(_Bind(u).visit(ast.parse(template, mode="eval").body), ast.Mult(), du)
    a, op, b = node.left, node.op, node.right
    da, db = _derivative(a, var), _derivative(b, var)
    if isinstance(op, (ast.Add, ast.Sub)):
        return _op(da, op, db)
    if isinstance(op, ast.Mult):
        return _op(_op(b, op, da), ast.Add(), _op(a, op, db))
    if isinstance(op, ast.Div):  # da / b - a db / b**2
        b2 = ast.BinOp(b, ast.Pow(), ast.Constant(2.0))
        return _op(_op(da, op, b), ast.Sub(), _op(_op(a, ast.Mult(), db), op, b2))
    if db is None:  # the power rule, b a**(b - 1) da
        if da is None or (isinstance(b, ast.Constant) and b.value == 0.0):
            return None
        power = ast.BinOp(a, op, ast.BinOp(b, ast.Sub(), ast.Constant(1.0)))
        return _op(_op(b, ast.Mult(), power), ast.Mult(), da)
    # a**b (db log(a) + b da / a)
    log_a = ast.Call(ast.Name("log", ast.Load()), [a], [])
    rate = _op(_op(log_a, ast.Mult(), db), ast.Add(), _op(_op(b, ast.Mult(), da), ast.Div(), a))
    return _op(node, ast.Mult(), rate)


def _written_size(node: ast.AST, memo: dict) -> int:
    """Node count of a tree with each shared subtree counted once per use."""
    if id(node) not in memo:
        memo[id(node)] = 1 + sum(_written_size(c, memo) for c in ast.iter_child_nodes(node))
    return memo[id(node)]


def _entry_codes(s: str, label: str):
    """Compile one entry and each of its derivatives that is not identically zero.

    Returns ``(code, {slot: code})``, slot k holding the derivative in
    ``_EXPR_VARIABLES[k]``.  Each derivative is written out as entry text and
    compiled through :func:`_compile_entry`.  Raises ValueError, never
    RecursionError, when a derivative cannot be built or compiled.
    """
    tree, code = _compile_entry(s, label)
    derivatives = {}
    try:
        for k, var in enumerate(_EXPR_VARIABLES):
            d = _derivative(tree.body, var)
            if d is None:
                continue
            if _written_size(d, {}) > _MAX_DERIVATIVE_NODES:
                raise ValueError(f"its derivative in {var} has over {_MAX_DERIVATIVE_NODES} nodes")
            derivatives[k] = _compile_entry(ast.unparse(d), f"{label} d/d{var}")[1]
    except RecursionError:
        raise ValueError("expression is nested too deeply to differentiate") from None
    return code, derivatives


def _evaluate(codes, q: np.ndarray, phi, error=NonFiniteMetric) -> np.ndarray:
    """The compiled entries at (q, phi), stacked on a last axis over q's batch.

    An entry without a real value raises ``error``: one that is complex, or
    one whose constants fail in Python float arithmetic (``1/(2-2)`` raises
    ZeroDivisionError where numpy would give inf).
    """
    env = dict(_EXPR_NAMESPACE, x0=q[..., 0], x1=q[..., 1], x2=q[..., 2], x3=q[..., 3],
               phi=np.asarray(phi, dtype=float))
    out = np.empty(q.shape[:-1] + (len(codes),))
    for k, code in enumerate(codes):
        try:
            value = eval(code, {"__builtins__": {}}, env)
        except ArithmeticError as exc:
            raise error(f"{code.co_filename}: {type(exc).__name__}: {exc}") from None
        if np.iscomplexobj(value):
            raise error(f"{code.co_filename} takes a complex value")
        out[..., k] = value
    return out


def expression_metric(diag: Sequence[str], name: str = "expression") -> MetricField:
    """Diagonal inverse metric whose entries are numpy expressions.

    ``diag`` holds four strings over the variables x0..x3 and phi, e.g.
    ``("-(1 + 0.1*sin(x1))", "1", "1", "1")``.  Each entry is checked against
    a small grammar (:func:`_compile_entry`; ValueError otherwise), compiled
    once and evaluated with numpy semantics in a namespace without builtins,
    broadcast over the batch.  Its derivatives are exact: the entry is
    differentiated symbolically, and derivatives that are identically zero are
    never evaluated.
    """
    if len(diag) != 4:
        raise ValueError("expression_metric needs exactly 4 diagonal entries")
    entries = [_entry_codes(s, f"<metric diag[{i}]>") for i, s in enumerate(diag)]
    values = [code for code, _ in entries]
    slots = [(a, k) for a, (_, derivs) in enumerate(entries) for k in derivs]
    derivatives = [entries[a][1][k] for a, k in slots]
    rows, cols = np.array(slots, dtype=int).reshape(-1, 2).T

    def gradient(q, phi):
        out = np.zeros(q.shape[:-1] + (4, len(_EXPR_VARIABLES)))
        out[..., rows, cols] = _evaluate(derivatives, q, phi, NonFiniteDerivative)
        return out

    return _diagonal_metric(name, lambda q, phi: _evaluate(values, q, phi), gradient)
