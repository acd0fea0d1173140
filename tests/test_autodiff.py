import numpy as np
import pytest

from fspll.autodiff import SQRT_EPS, Graph, grad_check, sqrt_eps


def test_relu_values():
    g = Graph()
    out = g.relu(g.leaf([[-1.0, 0.0, 2.0]]))
    np.testing.assert_array_equal(out.values, [[0.0, 0.0, 2.0]])


def test_affine_identity():
    g = Graph()
    x = g.leaf([[1.0, -2.0], [3.0, 0.5]])
    out = g.add_bias(g.matmul(g.leaf(np.eye(2)), x), g.leaf(np.zeros((2, 1))))
    np.testing.assert_array_equal(out.values, x.values)


def test_logsumexp_of_zeros():
    g = Graph()
    out = g.logsumexp_cols(g.leaf([[0.0], [0.0]]))
    np.testing.assert_allclose(out.values, [[np.log(2.0)]], rtol=0, atol=1e-15)


def test_square_gradient():
    g = Graph()
    x = g.leaf([[3.0]])
    sink = g.mul(x, x)
    g.backward(sink)
    np.testing.assert_allclose(x.grad, [[6.0]])


def test_relu_subgradient_zero_at_kink():
    g = Graph()
    x = g.leaf([[-1.0, 2.0]])
    sink = g.sum_all(g.relu(x))
    g.backward(sink)
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0]])
    # exactly-0 input also gets subgradient 0
    g2 = Graph()
    x2 = g2.leaf([[0.0]])
    s2 = g2.sum_all(g2.relu(x2))
    g2.backward(s2)
    assert x2.grad[0, 0] == 0.0


def test_two_layer_chain_matches_finite_differences():
    rng = np.random.default_rng(7)
    g = Graph()
    w1 = g.leaf(rng.uniform(-1, 1, (5, 4)))
    b1 = g.leaf(rng.uniform(-1, 1, (5, 1)))
    w2 = g.leaf(rng.uniform(-1, 1, (3, 5)))
    b2 = g.leaf(rng.uniform(-1, 1, (3, 1)))
    x = g.leaf(rng.uniform(-1, 1, (4, 6)))
    h = g.relu(g.add_bias(g.matmul(w1, x), b1))
    out = g.add_bias(g.matmul(w2, h), b2)
    sink = g.sum_all(g.mul(out, out))
    for leaf in (w1, b1, w2, b2, x):
        res = grad_check(g, sink, leaf, step=1e-5)
        assert res.max_rel_error < 1e-4, res


def test_grad_check_quadratic_is_tight():
    g = Graph()
    x = g.leaf([[1.5, -0.5], [2.0, 0.25]])
    sink = g.sum_all(g.mul(x, x))
    res = grad_check(g, sink, x, step=1e-5)
    assert res.max_rel_error < 1e-6
    assert res.excluded == 0


def test_grad_check_reports_kink_exclusions():
    g = Graph()
    x = g.leaf([[0.0, 1.0]])
    sink = g.sum_all(g.relu(x))
    res = grad_check(g, sink, x, step=1e-5)
    assert res.excluded == 1
    assert res.checked == 1
    assert res.max_rel_error < 1e-8


@pytest.mark.parametrize("op", [
    "add", "sub", "mul", "matmul", "add_bias", "sub_row", "relu", "exp",
    "log", "sqrt", "pairwise_sqdist", "row_sum", "col_sum", "sum_all",
    "logsumexp_cols", "col_max", "scale", "add_scalar",
])
def test_every_primitive_matches_finite_differences(op):
    rng = np.random.default_rng(hash(op) % 2 ** 32)
    g = Graph()
    a = g.leaf(rng.uniform(-2, 2, (3, 4)))
    if op in ("add", "sub", "mul"):
        b = g.leaf(rng.uniform(-2, 2, (3, 4)))
        out = getattr(g, op)(a, b)
        leaves = [a, b]
    elif op == "matmul":
        b = g.leaf(rng.uniform(-2, 2, (4, 5)))
        out = g.matmul(a, b)
        leaves = [a, b]
    elif op == "add_bias":
        b = g.leaf(rng.uniform(-2, 2, (3, 1)))
        out = g.add_bias(a, b)
        leaves = [a, b]
    elif op == "sub_row":
        b = g.leaf(rng.uniform(-2, 2, (1, 4)))
        out = g.sub_row(a, b)
        leaves = [a, b]
    elif op == "pairwise_sqdist":
        b = g.leaf(rng.uniform(-2, 2, (3, 5)))
        out = g.pairwise_sqdist(a, b)
        leaves = [a, b]
    elif op in ("exp", "relu", "row_sum", "col_sum", "sum_all",
                "logsumexp_cols", "col_max"):
        out = getattr(g, op)(a)
        leaves = [a]
    elif op in ("log", "sqrt"):
        a = g.leaf(rng.uniform(0.5, 2, (3, 4)))
        out = getattr(g, op)(a)
        leaves = [a]
    elif op == "scale":
        out = g.scale(a, -1.7)
        leaves = [a]
    else:
        out = g.add_scalar(a, 0.3)
        leaves = [a]
    # reduce to a scalar through a fixed random weighting
    w = g.leaf(rng.uniform(-1, 1, out.shape))
    sink = g.sum_all(g.mul(out, w))
    for leaf in leaves:
        res = grad_check(g, sink, leaf, step=1e-5)
        assert res.max_rel_error < 1e-4, (op, res)


def test_backward_is_linear_in_the_sink():
    values = np.random.default_rng(3).uniform(-1, 1, (2, 3))
    a_coef, b_coef = 2.5, -1.25

    def grads(build_sink):
        g = Graph()
        x = g.leaf(values)
        f = g.sum_all(g.mul(x, x))
        h = g.sum_all(g.exp(x))
        g.backward(build_sink(g, f, h))
        return x.grad

    gf = grads(lambda g, f, h: f)
    gh = grads(lambda g, f, h: h)
    combined = grads(lambda g, f, h: g.add(g.scale(f, a_coef), g.scale(h, b_coef)))
    np.testing.assert_allclose(combined, a_coef * gf + b_coef * gh, rtol=0, atol=1e-10)


def test_forward_is_deterministic():
    def build():
        g = Graph()
        x = g.leaf(np.linspace(-1, 1, 12).reshape(3, 4))
        out = g.logsumexp_cols(g.exp(g.relu(x)))
        return out.values.copy()

    a, b = build(), build()
    np.testing.assert_array_equal(a, b)


def test_shape_mismatch_error_names_primitive_and_shapes():
    g = Graph()
    a = g.leaf(np.zeros((2, 3)))
    b = g.leaf(np.zeros((4, 5)))
    with pytest.raises(ValueError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
        g.matmul(a, b)


def test_backward_requires_scalar_sink():
    g = Graph()
    x = g.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        g.backward(g.relu(x))


def test_backward_after_rebind_requires_forward():
    g = Graph()
    x = g.leaf([[1.0]])
    sink = g.mul(x, x)
    x.set_values([[2.0]])
    with pytest.raises(RuntimeError, match="forward"):
        g.backward(sink)
    g.forward()
    g.backward(sink)
    np.testing.assert_allclose(x.grad, [[4.0]])


def test_backward_accumulates_until_reset():
    g = Graph()
    x = g.leaf([[3.0]])
    sink = g.mul(x, x)
    g.backward(sink)
    g.backward(sink)
    np.testing.assert_allclose(x.grad, [[12.0]])
    g.reset_grads()
    assert x.grad[0, 0] == 0.0


def test_pairwise_sqdist_matches_loop_oracle():
    rng = np.random.default_rng(11)
    a = rng.uniform(-2, 2, (3, 3))
    b = rng.uniform(-2, 2, (3, 3))
    g = Graph()
    out = g.pairwise_sqdist(g.leaf(a), g.leaf(b)).values
    for i in range(3):
        for j in range(3):
            want = sum((a[q, i] - b[q, j]) ** 2 for q in range(3))
            np.testing.assert_allclose(out[i, j], want, rtol=1e-12)


def test_sqrt_epsilon_keeps_gradient_finite_at_zero():
    g = Graph()
    x = g.leaf([[0.0]])
    sink = g.sum_all(g.sqrt(x))
    g.backward(sink)
    assert np.isfinite(x.grad[0, 0])
    np.testing.assert_allclose(sink.values[0, 0], 1e-6, rtol=1e-12)


@pytest.mark.parametrize("x", [
    [[1e-12, 0.5, 4.0], [2.0, 1e-3, 9.0]],          # none below SQRT_EPS
    [[0.0, 1e-13, 4.0], [1e-12, 2.0, 1e-30]],       # some below
    [[5e-13, 1.0, 4.0], [1e-12, 2.0, 3.0]],         # one below, none zero
    [[np.nan, 1.0, np.inf], [4.0, 2.0, 3.0]],       # NaN and inf, none below
    [[np.nan, 0.0, np.inf], [4.0, 2.0, 3.0]],
    [[np.inf, 1e-12], [2.0, 3.0]],
    np.empty((0, 3)),
], ids=["above", "below", "below-positive", "nan-inf", "nan-inf-below", "inf", "empty"])
def test_sqrt_eps_matches_its_shifted_form(x):
    x = np.asarray(x, dtype=np.float64)
    np.testing.assert_array_equal(sqrt_eps(x),
                                  np.sqrt(np.where(x < SQRT_EPS, x + SQRT_EPS, x)))
