import ast
import os
import zlib

import numpy as np
import pytest

import fspll
from fspll.autodiff import Graph
from fspll.embedding import NetworkSpec, init_network
from fspll.episodes import CorruptionSpec, corrupt, make_world, sample_episode
from fspll.trainer import episode_loss_graph


def fd_error(build, values, step=1e-5):
    """Largest relative error, |analytic - numeric| / max(1, |analytic|), of
    backward's gradient for each leaf that build(*values) returns, against
    central differences of the sink. build(*values) -> (graph, sink, leaves),
    one leaf per value; a graph is built for one set of values, so each
    perturbed value gets a graph of its own."""
    graph, sink, leaves = build(*values)
    graph.backward(sink)
    worst = 0.0
    for k, leaf in enumerate(leaves):
        analytic = leaf.grad
        for idx in np.ndindex(analytic.shape):
            f = []
            for delta in (step, -step):
                probe = list(values)
                probe[k] = np.array(values[k], dtype=np.float64)
                probe[k][idx] += delta
                f.append(build(*probe)[1].values[0, 0])
            numeric = (f[0] - f[1]) / (2.0 * step)
            worst = max(worst, abs(analytic[idx] - numeric) / max(1.0, abs(analytic[idx])))
    return worst


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
    values = [rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (5, 1)),
              rng.uniform(-1, 1, (3, 5)), rng.uniform(-1, 1, (3, 1)),
              rng.uniform(-1, 1, (4, 6))]

    def build(*values):
        g = Graph()
        w1, b1, w2, b2, x = leaves = [g.leaf(v) for v in values]
        h = g.relu(g.add_bias(g.matmul(w1, x), b1))
        out = g.add_bias(g.matmul(w2, h), b2)
        return g, g.sum_all(g.mul(out, out)), leaves

    assert fd_error(build, values) < 1e-4


def test_grad_check_quadratic_is_tight():
    def build(x):
        g = Graph()
        leaf = g.leaf(x)
        return g, g.sum_all(g.mul(leaf, leaf)), [leaf]

    assert fd_error(build, [np.array([[1.5, -0.5], [2.0, 0.25]])]) < 1e-6


@pytest.mark.parametrize("op", [
    "mul", "matmul", "add_bias", "sub_row", "relu", "exp", "log", "sqrt",
    "pairwise_sqdist", "col_sum", "sum_all", "logsumexp_cols", "col_max", "scale",
])
def test_every_primitive_matches_finite_differences(op):
    # str hash() is salted per process; crc32 gives every run the same inputs
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    a = rng.uniform(-2, 2, (3, 4))
    if op == "mul":
        b = rng.uniform(-2, 2, (3, 4))
    elif op == "matmul":
        b = rng.uniform(-2, 2, (4, 5))
    elif op == "add_bias":
        b = rng.uniform(-2, 2, (3, 1))
    elif op == "sub_row":
        b = rng.uniform(-2, 2, (1, 4))
    elif op == "pairwise_sqdist":
        b = rng.uniform(-2, 2, (3, 5))
    else:
        b = None
        if op in ("log", "sqrt"):
            a = rng.uniform(0.5, 2, (3, 4))
    values = [a] if b is None else [a, b]

    def apply(g, leaves):
        if op == "scale":
            return g.scale(leaves[0], -1.7)
        return getattr(g, op)(*leaves)

    g = Graph()
    shape = apply(g, [g.leaf(v) for v in values]).shape
    # reduce to a scalar through a fixed random weighting
    weighting = rng.uniform(-1, 1, shape)

    def build(*values):
        g = Graph()
        leaves = [g.leaf(v) for v in values]
        return g, g.sum_all(g.mul(apply(g, leaves), g.leaf(weighting))), leaves

    assert fd_error(build, values) < 1e-4, op


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
    # a f + b h as a f - (-b h), from ops the loss graph uses
    combined = grads(lambda g, f, h: g.sub_row(g.scale(f, a_coef), g.scale(h, -b_coef)))
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


def test_backward_accumulates():
    g = Graph()
    x = g.leaf([[3.0]])
    sink = g.mul(x, x)
    g.backward(sink)
    g.backward(sink)
    np.testing.assert_allclose(x.grad, [[12.0]])


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


def _imports(module):
    """(line, imported names) of each import statement in fspll/<module>.py;
    a relative import's names include "fspll"."""
    path = os.path.join(os.path.dirname(fspll.__file__), f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = ["fspll"] * bool(node.level) + (node.module or "").split(".")
        elif isinstance(node, ast.Import):
            parts = []
        else:
            continue
        yield node.lineno, parts + [part for a in node.names for part in a.name.split(".")]


@pytest.mark.parametrize("module", ["episodes", "embedding", "pll_core", "bench"])
def test_the_pipeline_imports_nothing_from_autodiff(module):
    # the graph is only the fused gradient's test reference: training,
    # rectification and evaluation must run without it
    for line, names in _imports(module):
        assert "autodiff" not in names, f"{module}.py line {line} imports from autodiff"


def test_the_config_table_imports_nothing_from_fspll():
    # every module checks its config keys against the table, so it must be a leaf
    imports = list(_imports("config"))
    assert imports
    for line, names in imports:
        assert "fspll" not in names, f"config.py line {line} imports from fspll"


def test_every_op_builds_the_reference_loss():
    rng = np.random.default_rng(5)
    world = make_world(3, classes=6, dim=5, sigma=0.6)
    episode = corrupt(sample_episode(world, [0, 1, 2], 3, 4, rng), CorruptionSpec(1.0, 1), rng)
    params = init_network(NetworkSpec(5, (6,), 4), 9)
    Q = episode.candidates / episode.candidates.sum(axis=0)
    built = {node.op for supervised in (False, True)
             for node in episode_loss_graph(params, episode, Q, "euclidean", supervised)[0].nodes}
    ops = {name for name in vars(Graph) if not name.startswith("_")} - {"backward"}
    assert built - {None} == ops - {"leaf"}
