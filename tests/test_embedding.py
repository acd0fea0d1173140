import numpy as np
import pytest

from fspll.autodiff import Graph, embed_nodes, param_leaves
from fspll.embedding import NetworkSpec, embed, init_network, load_checkpoint, save_checkpoint

from test_autodiff import fd_error


def test_parameter_count():
    params = init_network(NetworkSpec(4, (8,), 2), seed=0)
    assert params.n_params() == 4 * 8 + 8 + 8 * 2 + 2  # 58


def test_same_seed_bit_identical():
    a = init_network(NetworkSpec(5, (7, 3), 2), seed=42)
    b = init_network(NetworkSpec(5, (7, 3), 2), seed=42)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        np.testing.assert_array_equal(ba, bb)


def test_no_hidden_layer_structure():
    params = init_network(NetworkSpec(3, (), 3), seed=1)
    assert len(params.weights) == 1
    assert params.weights[0].shape == (3, 3)
    assert params.biases[0].shape == (3, 1)


def test_he_initialization_statistics():
    params = init_network(NetworkSpec(100, (200,), 50), seed=3)
    w = params.weights[0]
    assert abs(w.std() - np.sqrt(2.0 / 100)) < 0.01
    assert abs(w.mean()) < 0.01
    assert (params.biases[0] == 0).all()


def test_zero_dimension_layer_rejected():
    with pytest.raises(ValueError, match=r"network.hidden_dims\[0\] must be in \[1, inf\), got 0"):
        NetworkSpec(4, (0,), 2)


def test_identity_network_passes_input_through():
    params = init_network(NetworkSpec(3, (), 3), seed=0)
    params.weights[0] = np.eye(3)
    params.biases[0] = np.zeros((3, 1))
    X = np.random.default_rng(0).uniform(-1, 1, (3, 5))
    np.testing.assert_array_equal(embed(params, X), X)


def test_zero_weights_give_bias_columns():
    params = init_network(NetworkSpec(3, (), 2), seed=0)
    params.weights[0] = np.zeros((2, 3))
    params.biases[0] = np.array([[1.5], [-2.0]])
    out = embed(params, np.random.default_rng(1).uniform(size=(3, 4)))
    np.testing.assert_array_equal(out, np.tile([[1.5], [-2.0]], (1, 4)))


def test_embed_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    params = init_network(NetworkSpec(3, (6,), 4), seed=5)
    X = rng.uniform(-1, 1, (3, 5))

    def build(w1, b1, w2, b2):
        g = Graph()
        layers = [(g.leaf(w1), g.leaf(b1)), (g.leaf(w2), g.leaf(b2))]
        sink = g.sum_all(embed_nodes(g, layers, g.leaf(X)))
        return g, sink, [leaf for pair in layers for leaf in pair]

    values = [params.weights[0], params.biases[0], params.weights[1], params.biases[1]]
    assert fd_error(build, values) < 1e-4


def test_embed_graph_matches_numpy_path():
    rng = np.random.default_rng(6)
    params = init_network(NetworkSpec(4, (8, 8), 6), seed=6)
    X = rng.uniform(-1, 1, (4, 7))
    g = Graph()
    out = embed_nodes(g, param_leaves(g, params), g.leaf(X))
    np.testing.assert_array_equal(out.values, embed(params, X))


def test_embed_is_column_independent():
    rng = np.random.default_rng(7)
    params = init_network(NetworkSpec(4, (8,), 5), seed=7)
    X = rng.uniform(-1, 1, (4, 6))
    batch = embed(params, X)
    singles = np.hstack([embed(params, X[:, [j]]) for j in range(6)])
    np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-12)


def test_embed_output_dim():
    params = init_network(NetworkSpec(9, (4,), 3), seed=8)
    assert embed(params, np.zeros((9, 11))).shape == (3, 11)


def test_embed_rejects_wrong_row_count():
    params = init_network(NetworkSpec(4, (), 2), seed=9)
    with pytest.raises(ValueError, match="feature rows"):
        embed(params, np.zeros((5, 2)))


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = init_network(NetworkSpec(6, (11, 7), 5), seed=123)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.spec == params.spec
    assert loaded.seed == params.seed
    for a, b in zip(params.weights, loaded.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(params.biases, loaded.biases):
        np.testing.assert_array_equal(a, b)
    # and the file itself re-serializes identically
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    params = init_network(NetworkSpec(3, (), 2), seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    doc = path.read_text().replace('"output_dim": 2', '"output_dim": 3')
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(bad)
