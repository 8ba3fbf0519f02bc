"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy buffer; applying an operation records a backward
closure on the result, so the computation graph doubles as the tape.
``backward()`` on a scalar walks that graph once in reverse topological
order and accumulates gradients into every reachable tensor that asked for
them.  The module also provides the Adam optimizer and a central
finite-difference gradient checker used to verify every loss in this
package.

All math is float64.  The graph is single-use: run a fresh forward pass for
every training step.  Tensors that do not require grad are plain immutable
values and safe to share; graph construction itself is not thread-safe
(module-level ``no_grad`` flag).
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class GraphError(RuntimeError):
    """Misuse of the autodiff graph: non-scalar backward, reused graph,
    missing gradients."""


_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure numpy forward)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _coerce(value) -> "Tensor":
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad


class Tensor:
    """Dense float64 array with optional gradient-tape participation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_rule", "_spent")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._rule = None
        self._spent = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable tensor
        with requires_grad.  One call per forward pass."""
        if self.data.size != 1:
            raise GraphError(f"backward needs a scalar loss, got shape {self.data.shape}")
        if self._spent:
            raise GraphError("backward already ran on this graph; rebuild the forward pass")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._rule is not None and node.grad is not None:
                node._rule(node.grad)
        self._spent = True

    # ---- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return take(self, index)

    def square(self):
        return square(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def relu(self):
        return relu(self)

    def sigmoid(self):
        return sigmoid(self)

    def abs(self):
        return absolute(self)

    def sum(self, axis=None):
        return tensor_sum(self, axis)

    def mean(self, axis=None):
        return tensor_mean(self, axis)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], tuple) else shape)

    def squash(self):
        return squash(self)


def _node(data: np.ndarray, parents: tuple, rule) -> Tensor:
    out = Tensor(data, requires_grad=True)
    out._parents = parents
    out._rule = rule
    return out


def _recording(*tensors: Tensor) -> bool:
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


# ---- elementwise arithmetic ---------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None
    if not _recording(a, b):
        return Tensor(data)

    def rule(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _node(data, (a, b), rule)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None
    if not _recording(a, b):
        return Tensor(data)

    def rule(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), rule)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None
    if not _recording(a, b):
        return Tensor(data)

    def rule(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), rule)


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    data = a.data @ b.data
    if not _recording(a, b):
        return Tensor(data)

    def rule(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _node(data, (a, b), rule)


def mask_mul(a, mask) -> Tensor:
    """Elementwise multiply by a constant mask; no gradient flows into the mask."""
    a = _coerce(a)
    mask = np.asarray(mask.data if isinstance(mask, Tensor) else mask, dtype=np.float64)
    try:
        data = a.data * mask
    except ValueError:
        raise ShapeError(f"mask_mul: shapes {a.data.shape} and {mask.shape} do not broadcast") from None
    if not _recording(a):
        return Tensor(data)

    def rule(g):
        a._accumulate(_unbroadcast(g * mask, a.data.shape))

    return _node(data, (a,), rule)


# ---- elementwise nonlinearities -----------------------------------------


def square(a) -> Tensor:
    a = _coerce(a)
    data = a.data * a.data
    if not _recording(a):
        return Tensor(data)

    def rule(g):
        a._accumulate(2.0 * a.data * g)

    return _node(data, (a,), rule)


def exp(a) -> Tensor:
    a = _coerce(a)
    data = np.exp(a.data)
    if not _recording(a):
        return Tensor(data)

    def rule(g):
        a._accumulate(data * g)

    return _node(data, (a,), rule)


def log(a) -> Tensor:
    a = _coerce(a)
    data = np.log(a.data)
    if not _recording(a):
        return Tensor(data)

    def rule(g):
        a._accumulate(g / a.data)

    return _node(data, (a,), rule)


def relu(a) -> Tensor:
    a = _coerce(a)
    data = np.maximum(a.data, 0.0)
    if not _recording(a):
        return Tensor(data)
    active = a.data > 0.0  # subgradient at the kink is 0

    def rule(g):
        a._accumulate(g * active)

    return _node(data, (a,), rule)


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    data = 1.0 / (1.0 + np.exp(-a.data))
    if not _recording(a):
        return Tensor(data)

    def rule(g):
        a._accumulate(g * data * (1.0 - data))

    return _node(data, (a,), rule)


def absolute(a) -> Tensor:
    a = _coerce(a)
    data = np.abs(a.data)
    if not _recording(a):
        return Tensor(data)
    sign = np.sign(a.data)  # derivative at the kink is 0

    def rule(g):
        a._accumulate(g * sign)

    return _node(data, (a,), rule)


def squash(a) -> Tensor:
    """Norm-bounding nonlinearity: v -> (|v|^2 / (1 + |v|^2)) * v / |v|.

    Accepts a single vector (1-D) or a batch of row vectors (2-D, one row
    per sample).  The zero vector maps to the zero vector.
    """
    a = _coerce(a)
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"squash expects a vector or row batch, got shape {a.data.shape}")
    rows = a.data.reshape(1, -1) if a.data.ndim == 1 else a.data
    sq_norm = (rows * rows).sum(axis=1, keepdims=True)
    norm = np.sqrt(sq_norm)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(sq_norm > 0.0, norm / (1.0 + sq_norm), 0.0)
    data = (rows * scale).reshape(a.data.shape)
    if not _recording(a):
        return Tensor(data)

    def rule(g):
        g_rows = g.reshape(rows.shape)
        dot = (rows * g_rows).sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            curvature = np.where(
                sq_norm > 0.0,
                (1.0 - sq_norm) / (norm * (1.0 + sq_norm) ** 2),
                0.0,
            )
        grad = scale * g_rows + rows * (dot * curvature)
        a._accumulate(grad.reshape(a.data.shape))

    return _node(data, (a,), rule)


# ---- reductions and shape ops -------------------------------------------


def tensor_sum(a, axis=None) -> Tensor:
    a = _coerce(a)
    data = a.data.sum(axis=axis)
    if not _recording(a):
        return Tensor(data)

    def rule(g):
        if axis is None:
            a._accumulate(np.full(a.data.shape, g))
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _node(data, (a,), rule)


def tensor_mean(a, axis=None) -> Tensor:
    a = _coerce(a)
    data = a.data.mean(axis=axis)
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        count = int(np.prod([a.data.shape[i] for i in axes]))
    if not _recording(a):
        return Tensor(data)

    def rule(g):
        if axis is None:
            a._accumulate(np.full(a.data.shape, g / count))
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(g / count, axis), a.data.shape).copy())

    return _node(data, (a,), rule)


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    data = a.data.reshape(shape)
    if not _recording(a):
        return Tensor(data)

    def rule(g):
        a._accumulate(g.reshape(a.data.shape))

    return _node(data, (a,), rule)


def take(a, index) -> Tensor:
    """Basic slicing/indexing with scatter-add backward."""
    a = _coerce(a)
    data = a.data[index]
    if not _recording(a):
        return Tensor(np.array(data))

    def rule(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, index, g)
        a._accumulate(grad)

    return _node(np.array(data), (a,), rule)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if not (_GRAD_ENABLED and any(t.requires_grad for t in tensors)):
        return Tensor(data)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def rule(g):
        sl = [slice(None)] * g.ndim
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl[axis] = slice(start, stop)
                t._accumulate(g[tuple(sl)])

    return _node(data, tuple(tensors), rule)


# ---- optimizer -----------------------------------------------------------


class Adam:
    """Bias-corrected Adam over a fixed, named set of parameters.

    ``step()`` applies the standard update and zeroes the gradients; it
    raises if any parameter is missing a gradient.
    """

    def __init__(self, params: dict, lr: float = 0.0002, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        if not isinstance(params, dict):
            params = {f"p{i}": p for i, p in enumerate(params)}
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise GraphError(f"parameter '{name}' has no gradient; run backward first")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)
            p.grad = None


# ---- gradient checking ---------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    num_coordinates: int


def grad_check(f, x: Tensor, h: float = 1e-5, tol: float = 1e-4,
               scale_floor: float = 1e-3) -> GradCheckReport:
    """Compare the analytic gradient of scalar-valued ``f`` at ``x`` with
    central finite differences (f(x+h) - f(x-h)) / 2h per coordinate.

    The relative error denominator is floored at ``scale_floor`` so that
    coordinates with near-zero gradients are judged on an absolute scale
    instead of blowing up.  ``f`` must be deterministic and side-effect
    free.
    """
    if h <= 0.0:
        raise ValueError("finite-difference step h must be positive")
    leaf = Tensor(x.data.copy(), requires_grad=True)
    out = f(leaf)
    if out.data.size != 1:
        raise GraphError(f"grad_check target must be scalar, got shape {out.data.shape}")
    out.backward()
    analytic = (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)).reshape(-1).copy()

    base = x.data.reshape(-1).copy()
    shape = x.data.shape
    numeric = np.empty_like(base)
    with no_grad():
        for i in range(base.size):
            bumped = base.copy()
            bumped[i] = base[i] + h
            f_plus = f(Tensor(bumped.reshape(shape))).item()
            bumped[i] = base[i] - h
            f_minus = f(Tensor(bumped.reshape(shape))).item()
            numeric[i] = (f_plus - f_minus) / (2.0 * h)

    if base.size == 0:
        return GradCheckReport(0.0, tol, True, 0)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), scale_floor)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom))
    return GradCheckReport(max_rel, tol, max_rel <= tol, int(base.size))
