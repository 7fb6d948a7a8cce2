"""Spacetime geometry: diagonal inverse-metric fields and their derivatives.

Conventions
-----------
* Signature (-,+,+,+); coordinate index 0 is the time direction, q^0 = c t.
* The primary object is the *inverse* metric g^{mu nu}(q, phi), which is what
  the Hamiltonian needs.  Every field is diagonal with index 0 as time: the
  signature is the sign test g^{00} < 0 < g^{ii}, and g_{mu nu} is 1/g^{aa}.
* Evaluation is batched: ``q`` has shape (..., 4), ``phi`` is a scalar or has
  shape (...), and the metric is read as its (..., 4) diagonal g^{aa}.
* Derivative tensors put the derivative index last:
  ``d_q[..., a, b, mu] = d g^{ab} / d q^mu`` and ``d_phi[..., a, b]``.

Every built-in field carries exact derivatives: each constructor gives its
diagonal g^{aa} and the gradient of that diagonal (the weak field writes it
out, :func:`expression_metric` differentiates its entries symbolically), and
``_diagonal_metric`` builds the field's callbacks from those two.  Every model
path reads the metric through one of them, ``diagonal(q, phi)``, which
returns g^{aa} and its gradient checked finite.  The flow needs the metric
only through the quadratic form g^{ab} p_a p_b, so the dynamics calls
:func:`_contract`, which returns the diagonal and the gradient of that
scalar (None for a field without a gradient), never a rank-3 tensor, and
tests no sign: a trial stage may leave the domain of a run whose accepted
states stay in it.  The flow writes ``g . p`` into its own rows.  Every
other reader goes through the one sign test, :func:`_signed`: the geodesic
reference with the gradient at each stage, the shell algebra, a run's
recorded samples and the matrices with the diagonal alone (:func:`_values`).
Only :func:`inverse_metric` and :func:`lowered_metric` build a (..., 4, 4)
matrix.  The tensor form, ``func``, ``d_q``, ``d_phi`` and
:func:`metric_derivatives`, is off every model path: the reference tests and
the benchmark read it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadSignature, NonFiniteDerivative, NonFiniteMetric, SingularMetric

__all__ = [
    "MetricField",
    "inverse_metric",
    "lowered_metric",
    "metric_derivatives",
    "minkowski",
    "weak_field",
    "point_mass_potential",
    "uniform_gradient_potential",
    "expression_metric",
]

_ETA_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])
_DIAGONAL = np.arange(4)


@dataclass(frozen=True)
class MetricField:
    """Diagonal inverse metric field g^{mu nu}(q, phi) with its exact derivatives.

    Index 0 is time, and every reader but the flow refuses one off (-,+,+,+).
    All four callbacks are required.  The built-in constructors get them from
    ``_diagonal_metric``; a hand-made field must keep them consistent, as
    ``tests/test_contract.py`` checks for the built-in ones.  Every model path
    (the flow, the shell algebra, the geodesic reference) reads ``diagonal``;
    ``func``, ``d_q`` and ``d_phi`` are the tensor form, which only the
    reference tests and the benchmark read.

    Parameters
    ----------
    func : callable
        ``func(q, phi) -> (..., 4, 4)`` inverse metric over a (..., 4) batch of
        q, zero off the diagonal.
    d_q : callable
        ``d_q(q, phi) -> (..., 4, 4, 4)`` with the q-derivative index last.
    d_phi : callable
        ``d_phi(q, phi) -> (..., 4, 4)``.
    diagonal : callable
        ``diagonal(q, phi) -> (g^{aa} (..., 4), d g^{aa} / d(x0, x1, x2, x3,
        phi) (..., 4, 5) or None where it is identically zero)``; g^{aa} may
        be a constant (4,) array, broadcast against q's batch.  It raises
        NonFiniteMetric where an entry is non-finite, and then
        NonFiniteDerivative where a derivative is.
    name : str
        Human-readable tag used in reports and serialized scenarios.
    constant : bool
        Whether g^{aa} is the same at every (q, phi), so that ``diagonal``
        returns None for the gradient of every batch.  A marker block's flow
        then reads no q, and builds its stage inputs on p and phi only.
        ``_diagonal_metric`` sets it for a constant (4,) diagonal built
        without a gradient; a hand-made field, whose None may depend on the
        batch, leaves it False.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_q: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    diagonal: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray | None]]
    name: str = "custom"
    constant: bool = False


def _finite_metric(name: str, g):
    if not np.isfinite(g).all():
        raise NonFiniteMetric(f"metric '{name}' produced non-finite entries")
    return g


def _finite_derivative(name: str, d) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if not np.isfinite(d).all():
        raise NonFiniteDerivative(f"metric '{name}' derivatives are non-finite")
    return d


def _signed(metric: MetricField, q, phi):
    """metric.diagonal(q, phi), once g^{00} < 0 < g^{ii} holds everywhere; else BadSignature."""
    g, gradient = metric.diagonal(q, phi)
    if not (np.all(g[..., 0] < 0.0) and np.all(g[..., 1:] > 0.0)):
        raise BadSignature(f"metric '{metric.name}' does not have signature (-,+,+,+)")
    return g, gradient


def _values(metric: MetricField, q, phi) -> np.ndarray:
    """g^{aa} at (q, phi) as (..., 4), checked finite and (-,+,+,+) (:func:`_signed`)."""
    q = np.asarray(q, dtype=float)
    return np.broadcast_to(_signed(metric, q, phi)[0], q.shape[:-1] + (4,))


def _contract(metric: MetricField, q, p, phi):
    """(g^{aa}, d(g^{ab} p_a p_b)/d(x0, x1, x2, x3, phi) (..., 5), or None for it).

    The diagonal as ``metric.diagonal`` gives it, a constant (4,) or (..., 4),
    and the gradient of g^{ab} p_a p_b = sum_a g^{aa} p_a^2 contracted from
    the diagonal's gradient; None where that gradient is identically zero, so
    a flat field forms no array here.  The gradient is the einsum's own
    array, which the caller may overwrite.  Raises NonFiniteDerivative where a
    contracted derivative overflows.
    """
    g, gradient = metric.diagonal(q, phi)
    if gradient is None:
        return g, None
    return g, _finite_derivative(metric.name, np.einsum("...ak,...a->...k", gradient, p * p))


def _reciprocals(metric: MetricField, q, phi) -> np.ndarray:
    """g_{aa} = 1/g^{aa} of the checked diagonal; SingularMetric where one overflows."""
    with np.errstate(over="ignore"):
        recip = 1.0 / _values(metric, q, phi)
    if not np.all(np.isfinite(recip)):
        raise SingularMetric(f"metric '{metric.name}' is numerically singular at the "
                             "requested point")
    return recip


def _matrix(diag) -> np.ndarray:
    """The (..., 4, 4) matrix of a (..., 4) diagonal, +0 off the diagonal."""
    out = np.zeros(diag.shape + (4,))
    out[..., _DIAGONAL, _DIAGONAL] = diag
    return out


def inverse_metric(metric: MetricField, q: np.ndarray, phi) -> np.ndarray:
    """Evaluate g^{mu nu} at (q, phi), checked to be finite, diagonal and (-,+,+,+).

    Accepts a single point (q shape (4,)) or a batch (q shape (..., 4)).
    Raises NonFiniteMetric, or BadSignature off (-,+,+,+) (:func:`_signed`).
    """
    return _matrix(_values(metric, q, phi))


def lowered_metric(metric: MetricField, q: np.ndarray, phi) -> np.ndarray:
    """g_{mu nu}: the reciprocals 1/g^{aa} of the validated diagonal, as (..., 4, 4).

    Raises SingularMetric where a reciprocal overflows (a subnormal entry).
    """
    return _matrix(_reciprocals(metric, q, phi))


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
    dq = _finite_derivative(metric.name, metric.d_q(q, phi))
    dphi = _finite_derivative(metric.name, metric.d_phi(q, phi))
    return 0.5 * (dq + np.swapaxes(dq, -2, -3)), 0.5 * (dphi + np.swapaxes(dphi, -1, -2))


def _gpp(g, p):
    """g^{ab} p_a p_b = sum_a g^{aa} p_a^2 over the batch, from the (..., 4) diagonal."""
    return np.einsum("...a,...a,...a->...", g, p, p)


# --- constructors -----------------------------------------------------------


def _diagonal_metric(name: str, diag, gradient=None) -> MetricField:
    """A diagonal inverse metric: the one builder of every built-in field.

    ``diag`` is ``(q, phi) -> (..., 4)``, the entries g^{aa}, or a constant
    (4,) array, which ``diagonal`` returns as it is for numpy to broadcast.
    ``gradient`` is ``(q, phi) -> (..., 4, 5)``, holding d g^{aa} / d(x0, x1,
    x2, x3, phi), or None when it is zero at every (q, phi).  A constant
    diagonal without a gradient, which ``diagonal`` returns without reading
    q, makes the field ``constant``.  ``diagonal`` checks that the entries
    are finite (a constant diagonal once, here) and then that the gradient
    is.  The tensor callbacks place the same entries and gradient on the
    diagonal, unchecked: :func:`metric_derivatives` checks the derivative
    tensors.
    """
    const = None if callable(diag) else _finite_metric(name, np.asarray(diag, dtype=float))

    def entries(q, phi):  # unchecked, for the tensor form
        return diag(q, phi) if const is None else np.broadcast_to(const, q.shape[:-1] + (4,))

    def diagonal(q, phi):
        g = const if const is not None else _finite_metric(name, diag(q, phi))
        return g, None if gradient is None else _finite_derivative(name, gradient(q, phi))

    def tensor(q, phi, slots):  # the gradient's slots on the diagonal, unchecked
        grad = np.zeros(q.shape[:-1] + (4, 5)) if gradient is None else gradient(q, phi)
        return np.einsum("...ak,ab->...abk", grad[..., slots], np.eye(4))

    return MetricField(func=lambda q, phi: _matrix(entries(q, phi)),
                       d_q=lambda q, phi: tensor(q, phi, slice(0, 4)),
                       d_phi=lambda q, phi: tensor(q, phi, slice(4, 5))[..., 0],
                       diagonal=diagonal, name=name,
                       constant=const is not None and gradient is None)


def minkowski() -> MetricField:
    """Flat inverse metric diag(-1, 1, 1, 1), independent of q and phi."""
    return _diagonal_metric("minkowski", _ETA_DIAG)


def point_mass_potential(gm: float, softening: float = 0.0):
    """Newtonian potential of a point mass at the spatial origin.

    Returns (potential, gradient) callables over spatial positions x with
    shape (..., 3):  phi_N = -GM / sqrt(|x|^2 + soft^2).
    """
    gm = float(gm)
    s2 = float(softening) * float(softening)  # inf, not OverflowError, past 1e154

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
    c2 = float(c) * float(c)  # inf, not OverflowError, past 1e154

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
    ZeroDivisionError where numpy would give inf).  A lone point (q shape
    (4,)) is evaluated as a batch of one: on numpy scalars ``**`` takes
    another power routine than on arrays, and would round differently.
    """
    phi = np.asarray(phi, dtype=float)
    single = q.ndim == 1
    if single:
        q, phi = q[None], phi[None]
    env = dict(_EXPR_NAMESPACE, x0=q[..., 0], x1=q[..., 1], x2=q[..., 2], x3=q[..., 3],
               phi=phi)
    out = np.empty(q.shape[:-1] + (len(codes),))
    for k, code in enumerate(codes):
        try:
            value = eval(code, {"__builtins__": {}}, env)
        except ArithmeticError as exc:
            raise error(f"{code.co_filename}: {type(exc).__name__}: {exc}") from None
        if np.iscomplexobj(value):
            raise error(f"{code.co_filename} takes a complex value")
        out[..., k] = value
    return out[0] if single else out


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
