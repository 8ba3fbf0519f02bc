"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy buffer; applying an operation records a backward
closure on the result, so the computation graph doubles as the tape.
``backward()`` on a scalar walks that graph once in reverse topological
order and accumulates gradients into every reachable tensor that asked for
them.  This module is the engine: ``Tensor``, ``no_grad``, the one node
constructor ``node`` that every op (the loss kernels in ``losses`` and the
reference ops in the tests included) builds its result with, the shape ops
(``take``, ``reshape``, ``concat``, ``tensor_mean``), ``mask_mul``,
``squash``, the fused ``dense`` layer, the Adam optimizer, state only, which
owns the parameter storage, and a central finite-difference gradient
checker used to verify every loss in this package.  The ops take Tensors;
only ``mask_mul`` also wraps a plain array.  ``Tensor.__getitem__``,
``mean``, ``reshape`` and ``squash`` are the module's ops themselves.

All math is float64.  The graph is single-use: run a fresh forward pass for
every training step.  Tensors that do not require grad are plain immutable
values and safe to share.  Grad mode is a context variable, so each thread
has its own, and ``workers.run_workers`` hands the caller's to its workers.
Two threads must not run ``backward`` into the same parameters at once:
accumulating a gradient is not atomic.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class GraphError(RuntimeError):
    """Misuse of the autodiff graph: non-scalar backward, reused graph,
    missing gradients."""


_GRAD_ENABLED = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure numpy forward)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


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
            self.grad = self._owned = (np.zeros(self.data.shape) if self.grad is None
                                       else self.grad.copy())
        self.grad[index] += grad

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable tensor
        with requires_grad.  One call per forward pass."""
        if self.data.size != 1:
            raise GraphError(f"backward needs a scalar loss, got shape {self.data.shape}")
        if self._spent:
            raise GraphError("backward already ran on this graph; rebuild the forward pass")
        # depth first, last parent first; a node joins ``order`` once all its
        # parents have, and the rules run in reverse.  Leaves have no rule and
        # no parents, so the walk passes over them.
        order, seen, stack = [], set(), [(self, False)]
        push, pop, visit = stack.append, stack.pop, seen.add
        while stack:
            node, expanded = pop()
            if expanded:
                order.append(node)
            elif node not in seen:  # tensors hash by identity
                visit(node)
                push((node, True))
                for parent in node._parents:
                    if parent._rule is not None and parent not in seen:
                        push((parent, False))
        self._accumulate(np.ones(self.data.shape))
        for node in reversed(order):
            if node._rule is not None and node.grad is not None:
                node._rule(node.grad)
        self._spent = True


def node(data, parents: tuple, rule) -> Tensor:
    """An op's result: a graph node whose backward calls ``rule`` with the
    node's gradient when grad mode is on and a parent requires grad, else a
    plain ``Tensor(data)``.  Every op builds its result here."""
    if _GRAD_ENABLED.get():
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
    """Norm-bounding nonlinearity on each row of a (B, d) batch:
    v -> (|v|^2 / (1 + |v|^2)) * v / |v|.  The zero row maps to the zero row.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"squash expects a (B, d) row batch, got shape {a.data.shape}")
    rows = a.data
    sq_norm = np.add.reduce(rows * rows, axis=1, keepdims=True)
    norm = np.sqrt(sq_norm)
    live = sq_norm > 0.0  # zero (and NaN) rows keep scale and curvature 0
    scale = np.divide(norm, 1.0 + sq_norm, out=np.zeros(sq_norm.shape), where=live)
    data = rows * scale

    def rule(g):
        dot = np.add.reduce(rows * g, axis=1, keepdims=True)
        curvature = np.divide(1.0 - sq_norm, norm * (1.0 + sq_norm) ** 2,
                              out=np.zeros(sq_norm.shape), where=live)
        a._accumulate(scale * g + rows * (dot * curvature))

    return node(data, (a,), rule)


# ---- reductions and shape ops -------------------------------------------


def tensor_mean(a, axis=None) -> Tensor:
    data = a.data.mean(axis=axis)  # a bad or repeated axis raises here
    shape = a.data.shape
    kept, count = list(shape), 1  # g's shape with the reduced axes kept, and their size
    for i in (range(len(shape)) if axis is None else (axis,) if isinstance(axis, int) else axis):
        count *= shape[i]
        kept[i] = 1

    def rule(g):
        grad = np.empty(shape)
        grad[...] = (g / count).reshape(kept)
        a._accumulate(grad)

    return node(data, (a,), rule)


def reshape(a, shape) -> Tensor:
    data = a.data.reshape(shape)

    def rule(g):
        a._accumulate(g.reshape(a.data.shape))

    return node(data, (a,), rule)


def take(a, index) -> Tensor:
    """Basic indexing (ints and slices, so each element is selected at most
    once); any other index is a ShapeError.  Slices of one tensor scatter
    their gradients into one shared gradient array."""
    for part in (index if isinstance(index, tuple) else (index,)):
        if not isinstance(part, (slice, int)):
            raise ShapeError(f"take expects ints and slices, got {index!r}")
    data = np.array(a.data[index])

    def rule(g):
        a._accumulate_at(index, g)

    return node(data, (a,), rule)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def rule(g):
        sl, stop = [slice(None)] * g.ndim, 0
        for t in tensors:
            start, stop = stop, stop + t.data.shape[axis]
            if t.requires_grad:
                sl[axis] = slice(start, stop)
                t._accumulate(g[tuple(sl)])

    return node(data, tensors, rule)


Tensor.__getitem__, Tensor.mean, Tensor.reshape, Tensor.squash = take, tensor_mean, reshape, squash


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
            b._accumulate(np.add.reduce(g, axis=0))
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
    rebinding ``p.data`` detaches the parameter from the optimizer.  The
    optimizer is state only: ``step`` takes the four settings, updates all
    three buffers with whole-buffer ufuncs and clears the gradients; it
    raises if any parameter is missing a gradient.
    """

    def __init__(self, params: dict):
        self.params = params
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

    def step(self, lr: float, beta1: float, beta2: float, epsilon: float) -> None:
        grads = []
        for name, p in self.params.items():
            if p.grad is None:
                raise GraphError(f"parameter '{name}' has no gradient; run backward first")
            grads.append(p.grad)
        self.t += 1
        bc1 = 1.0 - beta1 ** self.t
        bc2 = 1.0 - beta2 ** self.t
        if self._scratch is None:
            self._scratch = np.empty((2,) + self._flat.shape)
        (g, a), m, v = self._scratch, self._m, self._v
        np.concatenate(grads, axis=None, out=g)
        # elementwise the per-parameter update, with the bias corrections
        # folded into two scalars (Kingma & Ba 2015, section 2)
        #   m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g^2
        #   p -= (m / (sqrt(v) (1 / sqrt(bc2)) + epsilon)) (lr / bc1)
        # in the same operation order, so the bits match
        np.multiply(m, beta1, out=m)
        np.multiply(g, 1.0 - beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, beta2, out=v)
        np.multiply(g, g, out=a)
        np.multiply(a, 1.0 - beta2, out=a)
        np.add(v, a, out=v)
        np.sqrt(v, out=g)  # g is spent; reuse it
        np.multiply(g, 1.0 / math.sqrt(bc2), out=g)
        np.add(g, epsilon, out=g)
        np.divide(m, g, out=a)
        np.multiply(a, lr / bc1, out=a)
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


def grad_check(f, x: Tensor, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare the analytic gradient of scalar-valued ``f`` at ``x`` with
    central finite differences (f(x+h) - f(x-h)) / 2h per coordinate.

    The relative error denominator is floored at 1e-3 so that coordinates
    with near-zero gradients are judged on an absolute scale instead of
    blowing up.  ``f`` must be deterministic and side-effect free.
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
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom))
    return GradCheckReport(max_rel, tol, max_rel <= tol, int(base.size))
