"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy buffer; applying an operation records a backward
closure on the result, so the computation graph doubles as the tape.
``backward()`` on a scalar walks that graph once in reverse topological
order and accumulates gradients into every reachable tensor that asked for
them.  This module is the engine: ``Tensor``, ``no_grad``, the one node
constructor ``node`` that every op (the loss kernels in ``losses`` and the
reference ops in the tests included) builds its result with, the shape ops
(``take``, ``reshape``, ``concat``, ``tensor_mean``), ``mask_mul``,
``squash``, the fused ``dense`` layer, the Adam optimizer, which owns the
parameter storage, and a central finite-difference gradient checker used
to verify every loss in this package.

All math is float64.  The graph is single-use: run a fresh forward pass for
every training step.  Tensors that do not require grad are plain immutable
values and safe to share; graph construction itself is not thread-safe
(module-level ``no_grad`` flag).
"""
from __future__ import annotations

import math
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

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_rule", "_spent", "_owned")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._rule = None
        self._spent = False
        self._owned = None  # a gradient array only this tensor holds

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def _accumulate(self, grad: np.ndarray) -> None:
        # never in place: a stored gradient may be another node's array
        self.grad = grad if self.grad is None else self.grad + grad

    def _accumulate_at(self, index, grad: np.ndarray) -> None:
        """Add ``grad`` at a basic ``index`` into a gradient array this tensor
        owns, so slices of one tensor share one zeroed array."""
        if self.grad is None or self.grad is not self._owned:
            self.grad = self._owned = (np.zeros_like(self.data) if self.grad is None
                                       else self.grad.copy())
        self.grad[index] += grad

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
            elif node not in seen:  # tensors hash by identity
                seen.add(node)
                stack.append((node, True))
                for parent in node._parents:
                    if parent not in seen:
                        stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._rule is not None and node.grad is not None:
                node._rule(node.grad)
        self._spent = True

    def __getitem__(self, index):
        return take(self, index)

    def mean(self, axis=None):
        return tensor_mean(self, axis)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], tuple) else shape)

    def squash(self):
        return squash(self)


def node(data, parents: tuple, rule) -> Tensor:
    """An op's result: a graph node whose backward calls ``rule`` with the
    node's gradient when grad mode is on and a parent requires grad, else a
    plain ``Tensor(data)``.  Every op builds its result here."""
    if _GRAD_ENABLED:
        for parent in parents:
            if parent.requires_grad:
                out = Tensor(data, requires_grad=True)
                out._parents = parents
                out._rule = rule
                return out
    return Tensor(data)


# ---- elementwise ops -----------------------------------------------------


def mask_mul(a, mask) -> Tensor:
    """Elementwise multiply by a constant mask; no gradient flows into the mask."""
    a = _coerce(a)
    mask = np.asarray(mask.data if isinstance(mask, Tensor) else mask, dtype=np.float64)
    try:
        data = a.data * mask
    except ValueError:
        raise ShapeError(f"mask_mul: shapes {a.data.shape} and {mask.shape} do not broadcast") from None

    def rule(g):
        a._accumulate(_unbroadcast(g * mask, a.data.shape))

    return node(data, (a,), rule)


def relu_grad(g: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Relu backward, shared by every op that applies a relu."""
    return g * active


def sigmoid_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sigmoid backward from its output, shared by every op that applies one."""
    return g * out * (1.0 - out)


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

    return node(data, (a,), rule)


# ---- reductions and shape ops -------------------------------------------


def tensor_mean(a, axis=None) -> Tensor:
    a = _coerce(a)
    data = a.data.mean(axis=axis)
    shape = a.data.shape
    axes = range(len(shape)) if axis is None else (axis,) if isinstance(axis, int) else axis
    axes = {i % len(shape) for i in axes}
    count = int(np.prod([shape[i] for i in axes]))
    kept = tuple(1 if i in axes else n for i, n in enumerate(shape))  # g's shape, reduced axes kept

    def rule(g):
        grad = np.empty(shape)
        grad[...] = np.reshape(g / count, kept)
        a._accumulate(grad)

    return node(data, (a,), rule)


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    data = a.data.reshape(shape)

    def rule(g):
        a._accumulate(g.reshape(a.data.shape))

    return node(data, (a,), rule)


def _is_basic(index) -> bool:
    """A basic index (ints and slices) selects each element at most once."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(isinstance(part, (slice, int)) for part in parts)


def take(a, index) -> Tensor:
    """Slicing/indexing; the backward scatters, adding at repeated indices.
    Basic slices of one tensor scatter into one shared gradient array."""
    a = _coerce(a)
    data = np.array(a.data[index])

    def rule(g):
        if _is_basic(index):
            a._accumulate_at(index, g)
        else:
            grad = np.zeros_like(a.data)
            np.add.at(grad, index, g)
            a._accumulate(grad)

    return node(data, (a,), rule)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def rule(g):
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
        sl = [slice(None)] * g.ndim
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl[axis] = slice(start, stop)
                t._accumulate(g[tuple(sl)])

    return node(data, tuple(tensors), rule)


# ---- fused ops -------------------------------------------------------------
#
# A fused op is one node standing for a chain of primitive ops (add, sub,
# mul, matmul, relu, ...), which live in the tests as the reference chains.
# Forward and backward evaluate the chain's numpy expressions in the
# chain's order, and a parent receives its contributions in the order the
# chain would add them, so values and gradients are bitwise those of the
# chain.  The loss kernels in ``losses`` are fused the same way.


def dense(x, w, b, act: str = "none") -> Tensor:
    """act(x @ w + b) for act in none, relu, sigmoid."""
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ShapeError(f"dense: incompatible shapes {x.data.shape}, {w.data.shape}, "
                         f"{b.data.shape}")
    z = x.data @ w.data
    z += b.data
    if act == "relu":
        active = z > 0.0
        data = np.maximum(z, 0.0, out=z)
    elif act == "sigmoid":
        data = 1.0 / (1.0 + np.exp(-z))
    elif act == "none":
        data = z
    else:
        raise ValueError(f"dense: unknown activation {act!r}")

    def rule(g):
        if act == "relu":
            g = relu_grad(g, active)
        elif act == "sigmoid":
            g = sigmoid_grad(g, data)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)

    return node(data, (x, w, b), rule)


# ---- optimizer -----------------------------------------------------------


class Adam:
    """Bias-corrected Adam over a fixed, named set of parameters.

    The optimizer owns the storage: the parameters and both moments each
    live in one flat float64 buffer, and every ``p.data``, ``m[name]`` and
    ``v[name]`` is a view into it.  Assign new values with ``[...] =``;
    rebinding ``p.data`` detaches the parameter from the optimizer.
    ``step()`` updates all three buffers with whole-buffer ufuncs and clears
    the gradients; it raises if any parameter is missing a gradient.
    """

    def __init__(self, params: dict, lr: float = 0.0002, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self._flat = np.concatenate([p.data.reshape(-1) for p in params.values()])
        self._m, self._v = np.zeros((2,) + self._flat.shape)
        self._scratch = None  # the flat gradient and one temporary, made by the first step
        self.m, self.v = {}, {}
        start = 0
        for name, p in params.items():
            stop = start + p.data.size
            p.data = self._flat[start:stop].reshape(p.data.shape)
            self.m[name] = self._m[start:stop].reshape(p.data.shape)
            self.v[name] = self._v[start:stop].reshape(p.data.shape)
            start = stop

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise GraphError(f"parameter '{name}' has no gradient; run backward first")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        if self._scratch is None:
            self._scratch = np.empty((2,) + self._flat.shape)
        (g, a), m, v = self._scratch, self._m, self._v
        np.concatenate([p.grad.reshape(-1) for p in self.params.values()], out=g)
        # elementwise the per-parameter update, with the bias corrections
        # folded into two scalars (Kingma & Ba 2015, section 2)
        #   m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g^2
        #   p -= (m / (sqrt(v) (1 / sqrt(bc2)) + epsilon)) (lr / bc1)
        # in the same operation order, so the bits match
        np.multiply(m, self.beta1, out=m)
        np.multiply(g, 1.0 - self.beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, self.beta2, out=v)
        np.multiply(g, g, out=a)
        np.multiply(a, 1.0 - self.beta2, out=a)
        np.add(v, a, out=v)
        np.sqrt(v, out=g)  # g is spent; reuse it
        np.multiply(g, 1.0 / math.sqrt(bc2), out=g)
        np.add(g, self.epsilon, out=g)
        np.divide(m, g, out=a)
        np.multiply(a, self.lr / bc1, out=a)
        np.subtract(self._flat, a, out=self._flat)
        for p in self.params.values():
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
    for name, value in (("h", h), ("tol", tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"grad_check {name} must be finite and > 0, got {value!r}")
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
