"""Primitive autodiff ops, the reference chains the fused nodes replace.

The package records one node per dense layer (``autodiff.dense``) and per
loss (the kernels in ``losses``); these elementwise, matmul and reduction
ops rebuild the same computations one primitive at a time.  The oracle
tests compare the fused nodes against chains of them bit for bit, and the
grad-check battery checks each op against finite differences.  Each op
builds its result with the engine's one constructor, ``autodiff.node``, as
the package's ops do, so a chain's graph is walked by the same
``Tensor.backward`` and skipped the same way under ``no_grad``.
"""
import numpy as np

from sirmetric.autodiff import (ShapeError, Tensor, _coerce, _unbroadcast, node, relu_grad,
                                sigmoid_grad)


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None

    def rule(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return node(data, (a, b), rule)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None

    def rule(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return node(data, (a, b), rule)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None

    def rule(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return node(data, (a, b), rule)


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    data = a.data @ b.data

    def rule(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return node(data, (a, b), rule)


def square(a) -> Tensor:
    a = _coerce(a)
    data = a.data * a.data

    def rule(g):
        a._accumulate(2.0 * a.data * g)

    return node(data, (a,), rule)


def exp(a) -> Tensor:
    a = _coerce(a)
    data = np.exp(a.data)

    def rule(g):
        a._accumulate(data * g)

    return node(data, (a,), rule)


def log(a) -> Tensor:
    a = _coerce(a)
    data = np.log(a.data)

    def rule(g):
        a._accumulate(g / a.data)

    return node(data, (a,), rule)


def relu(a) -> Tensor:
    a = _coerce(a)
    data = np.maximum(a.data, 0.0)
    active = a.data > 0.0  # subgradient at the kink is 0

    def rule(g):
        a._accumulate(relu_grad(g, active))

    return node(data, (a,), rule)


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    data = 1.0 / (1.0 + np.exp(-a.data))

    def rule(g):
        a._accumulate(sigmoid_grad(g, data))

    return node(data, (a,), rule)


def absolute(a) -> Tensor:
    a = _coerce(a)
    data = np.abs(a.data)
    sign = np.sign(a.data)  # derivative at the kink is 0

    def rule(g):
        a._accumulate(g * sign)

    return node(data, (a,), rule)


def tensor_sum(a, axis=None) -> Tensor:
    a = _coerce(a)
    data = a.data.sum(axis=axis)

    def rule(g):
        if axis is None:
            a._accumulate(np.full(a.data.shape, g))
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return node(data, (a,), rule)


def scatter_take(a, index) -> Tensor:
    """Indexing by any numpy index; the backward scatters with np.add.at,
    adding at repeated indices.  The reference for the engine's basic-index
    ``take``."""
    a = _coerce(a)
    data = np.array(a.data[index])

    def rule(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, index, g)
        a._accumulate(grad)

    return node(data, (a,), rule)
