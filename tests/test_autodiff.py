"""Core autodiff checks: hand-computed values, backward rules, Adam, and
the finite-difference checker itself."""
import ast
import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from sirmetric import autodiff as ad
from sirmetric.autodiff import Adam, GraphError, ShapeError, Tensor

from reference_ops import (absolute, add, exp, log, matmul, mul, relu, scatter_take, sigmoid,
                           square, tensor_sum)


def test_squash_three_four_vector():
    # |v|=5 so the output is (25/26) * [0.6, 0.8]
    out = ad.squash(Tensor([[3.0, 4.0]]))
    np.testing.assert_allclose(
        out.data, [[0.5769230769230769, 0.7692307692307693]], rtol=0, atol=1e-15)
    assert np.linalg.norm(out.data) < 1.0


def test_squash_zero_vector_maps_to_zero():
    x = Tensor([[0.0, 0.0, 0.0]], requires_grad=True)
    out = ad.squash(x)
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.0]])
    tensor_sum(out).backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 0.0]])


def test_squash_batch_rows_match_single():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(5, 4))
    batched = ad.squash(Tensor(rows)).data
    for i in range(5):
        single = ad.squash(Tensor(rows[i:i + 1])).data
        np.testing.assert_allclose(batched[i:i + 1], single, rtol=0, atol=0)
    norms = np.linalg.norm(batched, axis=1)
    assert np.all(norms < 1.0)


def test_squash_rejects_3d():
    with pytest.raises(ShapeError):
        ad.squash(Tensor(np.zeros((2, 2, 2))))
    with pytest.raises(ShapeError):  # a single vector must come as a one-row batch
        ad.squash(Tensor(np.zeros(3)))


def test_sum_of_squares_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    tensor_sum(square(x)).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_mean_relu_gradient():
    x = Tensor([-1.0, 1.0], requires_grad=True)
    ad.tensor_mean(relu(x)).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.5])


def test_relu_gradient_is_zero_at_kink():
    x = Tensor([0.0], requires_grad=True)
    tensor_sum(relu(x)).backward()
    np.testing.assert_array_equal(x.grad, [0.0])


def test_abs_values_and_gradient():
    x = Tensor([-1.0, 2.0, -3.0], requires_grad=True)
    out = tensor_sum(absolute(x))
    assert out.item() == 6.0
    out.backward()
    np.testing.assert_array_equal(x.grad, [-1.0, 1.0, -1.0])


def test_l2_norm_sq():
    x = Tensor([1.0, 2.0], requires_grad=True)
    out = tensor_sum(square(x))
    assert out.item() == 5.0
    out.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_sigmoid_at_zero():
    x = Tensor([0.0], requires_grad=True)
    out = sigmoid(x)
    assert out.data[0] == 0.5
    tensor_sum(out).backward()
    np.testing.assert_array_equal(x.grad, [0.25])


def test_log_gradient():
    x = Tensor([2.0], requires_grad=True)
    tensor_sum(log(x)).backward()
    np.testing.assert_array_equal(x.grad, [0.5])


def test_matmul_values_and_gradients():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((3, 1)), requires_grad=True)
    out = matmul(a, b)
    np.testing.assert_array_equal(out.data, [[3.0], [3.0]])
    tensor_sum(out).backward()
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(b.grad, [[2.0], [2.0], [2.0]])


def test_matmul_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 1))))


def test_broadcast_add_unbroadcasts_gradient():
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    tensor_sum(add(a, b)).backward()
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])


def test_take_scatter_adds_repeated_indices():
    # the reference take, which the basic-index take is checked against
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    tensor_sum(scatter_take(x, np.array([0, 0, 2]))).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])


@pytest.mark.parametrize("index", [np.array([0, 0, 2]), [0, 2], np.array([True, False, True]),
                                   (slice(None), np.array([1])), None])
def test_take_rejects_non_basic_index(index):
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    with pytest.raises(ShapeError, match="take expects ints and slices"):
        ad.take(x, index)


def test_concat_splits_gradient():
    a = Tensor([1.0, 1.0], requires_grad=True)
    b = Tensor([1.0, 1.0, 1.0], requires_grad=True)
    c = ad.concat([a, b])
    tensor_sum(ad.mask_mul(c, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))).backward()
    np.testing.assert_array_equal(a.grad, [1.0, 2.0])
    np.testing.assert_array_equal(b.grad, [3.0, 4.0, 5.0])


def test_mask_mul_mask_stays_constant():
    x = Tensor([1.0, 2.0], requires_grad=True)
    mask = Tensor([0.0, 1.0], requires_grad=True)
    tensor_sum(ad.mask_mul(x, mask)).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])
    assert mask.grad is None


def test_mean_tuple_axis():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    out = ad.tensor_mean(x, axis=(1, 2))
    np.testing.assert_allclose(out.data, x.data.mean(axis=(1, 2)), rtol=0, atol=0)
    tensor_sum(out).backward()
    np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1.0 / 12.0), rtol=0, atol=1e-16)


def test_reshape_gradient_roundtrips():
    x = Tensor(np.arange(6.0), requires_grad=True)
    y = ad.reshape(x, (2, 3))
    tensor_sum(ad.mask_mul(y, np.arange(6.0).reshape(2, 3))).backward()
    np.testing.assert_array_equal(x.grad, np.arange(6.0))


def test_gradient_accumulates_over_reuse():
    x = Tensor([3.0], requires_grad=True)
    y = add(mul(x, x), x)
    tensor_sum(y).backward()
    np.testing.assert_array_equal(x.grad, [7.0])


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError):
        mul(x, 2.0).backward()


def test_backward_rejects_second_call():
    x = Tensor([1.0], requires_grad=True)
    out = tensor_sum(mul(x, x))
    out.backward()
    with pytest.raises(GraphError):
        out.backward()


def test_no_grad_skips_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        y = square(x)
    assert not y.requires_grad
    assert y._parents == ()


def test_adam_first_step_closed_form():
    p = Tensor([5.0], requires_grad=True)
    opt = Adam({"p": p})
    p.grad = np.array([1.0])
    opt.step(0.0002, 0.9, 0.999, 1e-8)
    expected = 5.0 - 0.0002 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.data, [expected], rtol=1e-12, atol=0)
    assert p.grad is None
    assert opt.t == 1


def test_adam_requires_gradients():
    p = Tensor([5.0], requires_grad=True)
    opt = Adam({"p": p})
    with pytest.raises(GraphError):
        opt.step(0.0002, 0.9, 0.999, 1e-8)


def test_adam_two_steps_match_reference_recurrence():
    rng = np.random.default_rng(3)
    p = Tensor(rng.normal(size=4), requires_grad=True)
    start = p.data.copy()
    grads = [rng.normal(size=4), rng.normal(size=4)]
    opt = Adam({"p": p})
    for g in grads:
        p.grad = g.copy()
        opt.step(0.01, 0.9, 0.999, 1e-8)
    # independent replay of the textbook update
    ref = start.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(p.data, ref, rtol=0, atol=1e-15)


def _away_from_zero(rng, shape, low=0.2, high=1.0):
    return rng.uniform(low, high, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def test_grad_check_battery_over_all_ops():
    rng = np.random.default_rng(11)
    # fixed constants so each case is a deterministic function of its input
    row = Tensor(rng.normal(size=3))
    weight = Tensor(rng.normal(size=(3, 2)))
    tail = Tensor(rng.normal(size=2))
    cases = {
        "mul_broadcast": (lambda t: tensor_sum(square(mul(t, row))),
                          rng.normal(size=(2, 3))),
        "matmul": (lambda t: tensor_sum(square(matmul(t, weight))),
                   rng.normal(size=(2, 3))),
        "exp": (lambda t: tensor_sum(exp(t)), rng.normal(size=4)),
        "log": (lambda t: tensor_sum(log(t)), rng.uniform(0.5, 1.5, size=4)),
        "relu": (lambda t: tensor_sum(square(relu(t))), _away_from_zero(rng, 5)),
        "sigmoid": (lambda t: tensor_sum(square(sigmoid(t))), rng.normal(size=4)),
        "abs": (lambda t: tensor_sum(absolute(t)), _away_from_zero(rng, 5)),
        "squash": (lambda t: tensor_sum(square(ad.squash(t))),
                   rng.normal(size=(3, 4))),
        "mean_axis": (lambda t: tensor_sum(square(ad.tensor_mean(t, axis=0))),
                      rng.normal(size=(3, 2))),
        "scatter_take": (lambda t: tensor_sum(square(scatter_take(t, np.array([0, 0, 1])))),
                         rng.normal(size=(3, 2))),
        "take_slice": (lambda t: tensor_sum(square(t[1:, :1])),
                       rng.normal(size=(3, 2))),
        "dense": (lambda t: tensor_sum(square(ad.dense(t, weight, tail, "sigmoid"))),
                  rng.normal(size=(2, 3))),
        "concat_reshape": (
            lambda t: tensor_sum(square(ad.concat([ad.reshape(t, (6,)), tail]))),
            rng.normal(size=(2, 3))),
    }
    for name, (fn, x) in cases.items():
        report = ad.grad_check(fn, Tensor(x))
        assert report.passed, f"{name}: max rel error {report.max_rel_error}"
        assert report.num_coordinates == x.size


def test_grad_check_flags_wrong_gradient():
    # mask_mul treats its mask as constant, so reusing the input as the mask
    # gives an analytic gradient of x where the true one is 2x
    def dishonest(t):
        return tensor_sum(ad.mask_mul(t, t.data))

    report = ad.grad_check(dishonest, Tensor([1.0, 2.0]))
    assert not report.passed
    assert report.max_rel_error > 0.4


@pytest.mark.parametrize("name,value", [("h", 0.0), ("h", float("nan")), ("tol", float("nan")),
                                        ("tol", float("inf")), ("tol", 0.0), ("tol", -1e-4)])
def test_grad_check_step_and_tolerance_must_be_finite_and_positive(name, value):
    """A nan tolerance would fail every check and an infinite one pass it."""
    calls = []

    def f(t):
        calls.append(t)
        return tensor_sum(t)

    with pytest.raises(ValueError, match=rf"^grad_check {name} must be finite and > 0"):
        ad.grad_check(f, Tensor([1.0]), **{name: value})
    assert not calls


# ---- fused ops against the primitive chains they replace ----------------


def _leaves(rng, *shapes):
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]


def _assert_same_bits(fused, chain, fused_leaves, chain_leaves):
    """Forward value and every leaf gradient are equal, element for element."""
    assert np.array_equal(fused.data, chain.data)
    for f, c in zip(fused_leaves, chain_leaves):
        assert f.grad is not None and np.array_equal(f.grad, c.grad)


@pytest.mark.parametrize("act", ["none", "relu", "sigmoid"])
def test_dense_matches_primitive_chain(act):
    rng = np.random.default_rng(21)
    shapes = ((6, 5), (5, 4), (4,))
    readout = rng.normal(size=(6, 4))  # a non-uniform upstream gradient
    fused_leaves = _leaves(rng, *shapes)
    chain_leaves = [Tensor(t.data.copy(), requires_grad=True) for t in fused_leaves]
    fused = tensor_sum(ad.mask_mul(ad.dense(*fused_leaves, act), readout))
    x, w, b = chain_leaves
    z = add(matmul(x, w), b)
    out = {"none": z, "relu": relu(z), "sigmoid": sigmoid(z)}[act]
    chain = tensor_sum(ad.mask_mul(out, readout))
    fused.backward()
    chain.backward()
    _assert_same_bits(fused, chain, fused_leaves, chain_leaves)


def test_dense_rejects_bad_shapes_and_activation():
    x, w, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(4))
    with pytest.raises(ShapeError):
        ad.dense(x, Tensor(np.ones((2, 4))), b)
    with pytest.raises(ShapeError):
        ad.dense(x, w, Tensor(np.ones(3)))
    with pytest.raises(ValueError):
        ad.dense(x, w, b, "tanh")


def test_take_basic_slice_matches_scatter():
    rng = np.random.default_rng(22)
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    y = Tensor(x.data.copy(), requires_grad=True)
    readout = rng.normal(size=(2, 3))
    tensor_sum(ad.mask_mul(x[2:4], readout)).backward()
    tensor_sum(ad.mask_mul(scatter_take(y, np.array([2, 3])), readout)).backward()
    assert np.array_equal(x.grad, y.grad)


@pytest.mark.parametrize("slice_first", [True, False])
def test_slices_scatter_into_a_gradient_no_other_tensor_holds(slice_first):
    # add hands both operands its own gradient array; a slice of one operand
    # must not write into the array the other operand holds
    rng = np.random.default_rng(23)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    terms = [tensor_sum(a[1:3]), tensor_sum(a[0]), tensor_sum(add(a, b))]
    reduce(add, terms if slice_first else terms[::-1], 0).backward()
    expected = np.ones((4, 3))
    expected[:3] += 1.0
    assert np.array_equal(a.grad, expected)
    assert np.array_equal(b.grad, np.ones((4, 3)))


def _reference_adam(params, grads, lr, beta1, beta2, epsilon):
    """The per-parameter update, one parameter at a time."""
    state = {name: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
    for t, step_grads in enumerate(grads, start=1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for name, (p, m, v) in state.items():
            g = step_grads[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            p -= (m / (np.sqrt(v) * (1.0 / math.sqrt(bc2)) + epsilon)) * (lr / bc1)
    return state


def test_flat_adam_matches_per_parameter_update_bitwise():
    rng = np.random.default_rng(23)
    shapes = {"w": (5, 3), "b": (3,), "s": (), "u": (2, 2, 2)}
    start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    grads = [{name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 2)
              for name, shape in shapes.items()} for _ in range(50)]
    params = {name: Tensor(value, requires_grad=True) for name, value in start.items()}
    opt = Adam(params)
    views = {name: p.data for name, p in params.items()}
    for step_grads in grads:
        for name, p in params.items():
            p.grad = step_grads[name]
        opt.step(0.003, 0.8, 0.99, 1e-7)
        assert all(p.grad is None for p in params.values())
    reference = _reference_adam(start, grads, 0.003, 0.8, 0.99, 1e-7)
    for name, (p, m, v) in reference.items():
        assert params[name].data is views[name]  # updated in place
        assert params[name].data.shape == shapes[name]
        assert np.array_equal(params[name].data, p)
        assert np.array_equal(opt.m[name], m)
        assert np.array_equal(opt.v[name], v)


# ---- every public name has a caller -------------------------------------

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sirmetric"
ROOT = PACKAGE.parent.parent


def _names_taken_from(tree, module):
    """Names one file takes from package module ``module``: ``from .module``
    or ``from sirmetric.module`` imports, and attributes of the module
    imported whole (``from sirmetric import module as alias``; ``alias.<name>``)."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
                (1, module), (0, f"sirmetric.{module}")):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
                (1, None), (0, "sirmetric")):
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name == module)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def _uncalled_public_names(module, caller_paths):
    """Public top-level functions and classes of ``module`` that neither
    another definition in it nor any of ``caller_paths`` refers to."""
    used = set()
    for path in caller_paths:
        used |= _names_taken_from(ast.parse(path.read_text()), module)
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    public = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    uncalled = []
    for definition in public:
        elsewhere = {node.id for other in tree.body if other is not definition
                     for node in ast.walk(other) if isinstance(node, ast.Name)}
        if definition.name not in used | elsewhere:
            uncalled.append(definition.name)
    return public, uncalled


def test_every_public_autodiff_name_has_a_caller_in_the_package():
    # reference ops for the tests live in tests/reference_ops.py, not here
    public, uncalled = _uncalled_public_names(
        "autodiff", [path for path in PACKAGE.glob("*.py") if path.name != "autodiff.py"])
    assert public
    assert uncalled == [], "public autodiff names with no caller in the package"


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")
                                          if not path.stem.startswith("_")
                                          and path.stem != "autodiff"))
def test_every_public_name_has_a_caller_in_the_package_demos_or_acceptance(module):
    """The public surface is what the package, the CLI, the demos and the
    acceptance tests use; any other public function or class is dead."""
    callers = [path for path in PACKAGE.glob("*.py") if path.stem != module]
    callers += sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    _, uncalled = _uncalled_public_names(module, callers)
    assert uncalled == [], f"public {module} names with no caller"
