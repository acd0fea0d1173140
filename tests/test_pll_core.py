import math
import re
from dataclasses import replace

import numpy as np
import pytest

import fspll.pll_core
from fspll.autodiff import Graph, distance_nodes, loss_nodes, posterior_nodes, prototype_nodes
from fspll.embedding import NetworkParams, NetworkSpec, embed_layers, init_network
from fspll.episodes import CorruptionSpec, corrupt, draw_episodes, make_world, sample_episode
from fspll.pll_core import (DISTANCE_KINDS, SQRT_EPS, RectifyConfig, classify_proba,
                            compute_prototypes, knn_indices, pairwise_distance, predict,
                            rectify, smooth_confidence, sqdist, sqrt_eps, update_confidence)
from fspll.trainer import episode_loss_grad

# ---------------------------------------------------------------------------
# straight-line oracle: unvectorized reimplementation of the rectification
# math, kept deliberately independent of the library code paths.
# ---------------------------------------------------------------------------

def naive_prototypes(Z, Q):
    l, n = Q.shape
    m = Z.shape[0]
    P = [[0.0] * m for _ in range(l)]
    for c in range(l):
        total = sum(Q[c][i] for i in range(n))
        for q in range(m):
            P[c][q] = sum(Q[c][i] * Z[q][i] for i in range(n)) / total
    return np.array(P)


def naive_distance(a, b, kind):
    d2 = sum((ai - bi) ** 2 for ai, bi in zip(a, b))
    if kind == "squared":
        return d2
    return math.sqrt(d2) if d2 >= 1e-12 else math.sqrt(d2 + 1e-12)


def naive_confidence(Z, P, Y, kind):
    l, n = Y.shape
    Q = [[0.0] * n for _ in range(l)]
    for i in range(n):
        sample = [Z[q][i] for q in range(Z.shape[0])]
        denom = sum(math.exp(-naive_distance(sample, P[c], kind))
                    for c in range(l) if Y[c][i] == 1)
        for c in range(l):
            if Y[c][i] == 1:
                Q[c][i] = math.exp(-naive_distance(sample, P[c], kind)) / denom
    return np.array(Q)


def naive_neighbors(Z, k):
    n = Z.shape[1]
    out = []
    for i in range(n):
        sample = [Z[q][i] for q in range(Z.shape[0])]
        ranked = sorted(
            (naive_distance(sample, [Z[q][j] for q in range(Z.shape[0])], "euclidean"), j)
            for j in range(n) if j != i)
        out.append([j for _, j in ranked[:k]])
    return np.array(out)


def naive_smooth(Q, Y, neighbors, lam):
    l, n = Q.shape
    k = len(neighbors[0])
    out = [[0.0] * n for _ in range(l)]
    for i in range(n):
        for c in range(l):
            if Y[c][i] == 1:
                out[c][i] = Q[c][i] + (lam / k) * sum(Q[c][j] for j in neighbors[i])
        total = sum(out[c][i] for c in range(l))
        for c in range(l):
            out[c][i] /= total
    return np.array(out)


def naive_rectify(Z, Y, iterations, lam, k, kind):
    Q = Y / Y.sum(axis=0, keepdims=True)
    neighbors = naive_neighbors(Z, k) if lam > 0 and iterations > 0 else None
    for _ in range(iterations):
        P = naive_prototypes(Z, Q)
        Q = naive_confidence(Z, P, Y, kind)
        if neighbors is not None:
            Q = naive_smooth(Q, Y, neighbors, lam)
    return naive_prototypes(Z, Q), Q


def random_instance(rng, n_s=None, l=None, m=None):
    l = l or rng.integers(2, 5)
    n_s = n_s or rng.integers(l + 1, 11)
    m = m or rng.integers(2, 4)
    Z = rng.uniform(-2, 2, (m, n_s))
    while True:
        Y = (rng.uniform(size=(l, n_s)) < 0.5).astype(int)
        truth = rng.integers(0, l, n_s)
        Y[truth, np.arange(n_s)] = 1
        if (Y.sum(axis=1) > 0).all():
            return Z, Y


# -- prototypes ---------------------------------------------------------------

def test_prototype_single_supporter():
    Z = np.array([[1.0, 5.0], [2.0, -1.0]])
    Q = np.array([[1.0, 0.0], [0.0, 1.0]])
    P = compute_prototypes(Z, Q)
    np.testing.assert_array_equal(P[0], [1.0, 2.0])
    np.testing.assert_array_equal(P[1], [5.0, -1.0])


def test_prototype_equal_confidence_midpoint():
    Z = np.array([[0.0, 4.0], [0.0, 0.0]])
    Q = np.array([[0.5, 0.5]])
    np.testing.assert_allclose(compute_prototypes(Z, Q), [[2.0, 0.0]])


def test_prototype_weighted_mean():
    Z = np.array([[0.0, 4.0], [0.0, 0.0]])
    Q = np.array([[0.25, 0.75]])
    np.testing.assert_allclose(compute_prototypes(Z, Q), [[3.0, 0.0]])


def test_prototype_empty_class_rejected():
    Z = np.ones((2, 3))
    Q = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="class 1"):
        compute_prototypes(Z, Q)


# -- distances ----------------------------------------------------------------

def test_distance_identical_columns_zero():
    A = np.array([[1.0], [2.0]])
    D = pairwise_distance(A, A)
    assert D[0, 0] <= 1e-6  # epsilon-shifted sqrt at exactly 0
    np.testing.assert_array_equal(pairwise_distance(A, A, "squared"), [[0.0]])


def test_distance_three_four_five():
    A = np.array([[0.0], [0.0]])
    B = np.array([[3.0], [4.0]])
    np.testing.assert_allclose(pairwise_distance(A, B, "euclidean"), [[5.0]])
    np.testing.assert_allclose(pairwise_distance(A, B, "squared"), [[25.0]])


def test_distance_matches_scalar_loop():
    rng = np.random.default_rng(0)
    A = rng.uniform(-2, 2, (3, 3))
    B = rng.uniform(-2, 2, (3, 3))
    D = pairwise_distance(A, B, "euclidean")
    for i in range(3):
        for j in range(3):
            np.testing.assert_allclose(
                D[i, j], naive_distance(A[:, i], B[:, j], "euclidean"), rtol=1e-12)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        pairwise_distance(np.ones((2, 1)), np.ones((3, 1)))


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


# -- confidence update ----------------------------------------------------------

def test_confidence_single_candidate():
    D = np.array([[0.3], [9.0]])
    Y = np.array([[1], [0]])
    np.testing.assert_array_equal(update_confidence(D, Y), [[1.0], [0.0]])


def test_confidence_equal_distances():
    D = np.array([[2.0], [2.0]])
    Y = np.array([[1], [1]])
    np.testing.assert_allclose(update_confidence(D, Y), [[0.5], [0.5]])


def test_confidence_log3_distance():
    D = np.array([[0.0], [np.log(3.0)]])
    Y = np.array([[1], [1]])
    np.testing.assert_allclose(update_confidence(D, Y), [[0.75], [0.25]], rtol=1e-12)


def test_confidence_ignores_a_much_closer_non_candidate():
    # label 1 is 800 distance units closer than sample 0's candidates: exp of
    # its shifted distance would overflow and warn; it is exactly 0 instead
    D = np.array([[800.0], [0.0], [800.0 + np.log(3.0)]])
    Y = np.array([[1], [0], [1]])
    Q = update_confidence(D, Y)
    np.testing.assert_allclose(Q, [[0.75], [0.0], [0.25]], rtol=1e-12)
    assert Q[1, 0] == 0.0


def where_confidence(D, Y):
    """update_confidence's softmax with the non-candidates masked after exp."""
    cand = Y > 0
    shift = np.where(cand, D, np.inf).min(axis=-2, keepdims=True)
    expd = np.where(cand, np.exp(shift - D), 0.0)
    return expd / expd.sum(axis=-2, keepdims=True)


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_confidence_matches_the_mask_after_exp_bit_for_bit(lead):
    rng = np.random.default_rng(19)
    D = rng.uniform(0, 6, lead + (10, 30))
    Y = (rng.uniform(size=lead + (10, 30)) < 0.4).astype(int)
    Y[..., 0, :] = 1
    np.testing.assert_array_equal(update_confidence(D, Y), where_confidence(D, Y))


def test_confidence_no_candidate_column_rejected():
    with pytest.raises(ValueError, match="candidate"):
        update_confidence(np.zeros((2, 1)), np.array([[0], [0]]))


def test_confidence_shift_invariance():
    rng = np.random.default_rng(4)
    D = rng.uniform(0, 3, (4, 6))
    Y = np.ones((4, 6), dtype=int)
    shifted = D + rng.uniform(-5, 5, (1, 6))  # constant per column
    np.testing.assert_allclose(update_confidence(D, Y), update_confidence(shifted, Y),
                               rtol=0, atol=1e-12)


# -- neighbors ------------------------------------------------------------------

def test_knn_collinear_points():
    Z = np.array([[0.0, 1.0, 10.0]])
    np.testing.assert_array_equal(knn_indices(Z, 1), [[1], [0], [1]])


def test_knn_full_neighborhood():
    Z = np.array([[0.0, 1.0, 3.0, 7.0]])
    got = knn_indices(Z, 3)
    for i in range(4):
        assert sorted(got[i]) == sorted(set(range(4)) - {i})


def test_knn_matches_brute_force():
    rng = np.random.default_rng(9)
    Z = rng.uniform(-2, 2, (3, 6))
    np.testing.assert_array_equal(knn_indices(Z, 3), naive_neighbors(Z, 3))


def test_knn_tie_break_by_index():
    Z = np.array([[0.0, 1.0, -1.0]])  # samples 1 and 2 equidistant from 0
    np.testing.assert_array_equal(knn_indices(Z, 1)[0], [1])


def test_knn_k_out_of_range():
    Z = np.ones((2, 4))
    with pytest.raises(ValueError, match="k must be"):
        knn_indices(Z, 4)


def stable_knn(Z, k):
    """The kNN graph from a stable full sort of every row of the distances."""
    d2 = sqdist(Z, Z)
    n = Z.shape[-1]
    d2[..., np.arange(n), np.arange(n)] = np.inf
    return np.argsort(d2, axis=-1, kind="stable")[..., :k]


@pytest.fixture
def stable_sorts(monkeypatch):
    """Record each distance plane that knn_indices hands to its stable sort."""
    planes = []
    stable_order = fspll.pll_core._stable_order

    def spy(d2):
        planes.append(d2.shape)
        return stable_order(d2)

    monkeypatch.setattr(fspll.pll_core, "_stable_order", spy)
    return planes


def _coincident(n, spots, seed):
    """n samples in 2-D, each on one of `spots` shared points: ties everywhere."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(2, spots))[:, rng.integers(0, spots, n)]


# (Z, k, whether an episode needs the stable sort)
KNN_CASES = {
    # samples 3 and 4 coincide: sample 0's 3rd and 4th nearest tie
    "tie-at-kth": (np.array([[0.0, 1.0, 2.0, 3.0, 3.0, 7.0, 9.0, 11.0]]), 3, True),
    # samples 1 and 2, and 3 and 4, are equidistant from sample 0
    "tie-inside-k": (np.array([[0.0, 1.0, -1.0, 2.0, -2.0, 5.0]]), 4, True),
    "coincident-n100": (_coincident(100, 5, 0), 9, True),
    "coincident-n25": (_coincident(25, 4, 1), 4, True),
    # squares past the float range: rows of inf, and an inf inside the k + 1
    "inf": (np.array([[0.0, 1.0, 2.0, 1e200, -1e200, 3.0]]), 2, True),
    "inf-k-n-1": (np.array([[0.0, 1.0, 2.0, 1e200, -1e200, 3.0]]), 5, True),
    # sample 2's row and column are NaN, sorted last
    "nan": (np.array([[0.0, 1.0, np.nan, 3.0, 4.0, 6.0], [0.0] * 6]), 2, True),
    # the (k + 1)-th entry is the inf diagonal
    "k-n-1": (np.random.default_rng(2).normal(size=(3, 9)), 8, False),
    "distinct-n50": (np.random.default_rng(3).normal(size=(4, 50)), 4, False),
    "distinct-n100": (np.random.default_rng(4).normal(size=(8, 100)), 9, False),
}


@pytest.mark.parametrize("case", list(KNN_CASES))
def test_knn_matches_the_stable_sort(case, stable_sorts):
    Z, k, ties = KNN_CASES[case]
    np.testing.assert_array_equal(knn_indices(Z, k), stable_knn(Z, k))
    assert stable_sorts == ([(Z.shape[-1],) * 2] if ties else [])


@pytest.mark.parametrize("lead", [(1,), (3,), (2, 3)], ids=str)
def test_knn_stack_sorts_only_tied_episodes_stably(lead, stable_sorts):
    rng = np.random.default_rng(5)
    Z = rng.normal(size=(*lead, 4, 30))
    Z[(0,) * len(lead)][:, 7] = Z[(0,) * len(lead)][:, 3]  # episode 0: a coincident pair
    got = knn_indices(Z, 5)
    assert got.shape == (*lead, 30, 5)
    np.testing.assert_array_equal(got, stable_knn(Z, 5))
    assert len(stable_sorts) == 1


# -- smoothing -------------------------------------------------------------------

def test_smooth_lambda_zero_is_identity():
    rng = np.random.default_rng(1)
    Q = rng.dirichlet(np.ones(3), size=5).T
    Y = np.ones((3, 5), dtype=int)
    nbrs = knn_indices(rng.uniform(size=(2, 5)), 2)
    np.testing.assert_array_equal(smooth_confidence(Q, Y, nbrs, 0.0), Q)


def test_smooth_identical_columns_unchanged():
    q = np.array([0.6, 0.3, 0.1])
    Q = np.tile(q[:, None], (1, 4))
    Y = np.ones((3, 4), dtype=int)
    nbrs = np.array([[1, 2], [0, 2], [0, 1], [0, 1]])
    np.testing.assert_allclose(smooth_confidence(Q, Y, nbrs, 0.5), Q, rtol=0, atol=1e-15)


def test_smooth_hand_computed_case():
    Q = np.array([[1.0, 0.5], [0.0, 0.5]])
    Y = np.ones((2, 2), dtype=int)
    nbrs = np.array([[1], [0]])
    got = smooth_confidence(Q, Y, nbrs, 0.5)
    np.testing.assert_allclose(got[:, 0], [1.25 / 1.5, 0.25 / 1.5], rtol=1e-12)
    np.testing.assert_allclose(got[:, 0], [0.8333, 0.1667], atol=5e-5)


def test_smooth_empty_neighbors_rejected():
    Q = np.ones((2, 2)) / 2
    with pytest.raises(ValueError, match="empty"):
        smooth_confidence(Q, np.ones((2, 2), dtype=int), np.empty((2, 0), dtype=int), 0.5)


# -- rectify ---------------------------------------------------------------------

def test_rectify_zero_iterations_gives_normalized_y_and_pn_prototypes():
    rng = np.random.default_rng(2)
    # homogeneous candidate counts (p=1 corruption): normalized-Y weighting
    # coincides with the unweighted candidate-set mean
    world = make_world(3, classes=4, dim=3, sigma=0.5)
    ep = sample_episode(world, [0, 1, 2], 4, 1, seed=4)
    ep = corrupt(ep, CorruptionSpec(1.0, 1), seed=5)
    Z = ep.support.astype(float)
    P, Q = rectify(Z, ep.candidates, RectifyConfig(iterations=0))
    np.testing.assert_allclose(Q, ep.candidates / ep.candidates.sum(axis=0), rtol=0, atol=0)
    pn = compute_prototypes(Z, ep.candidates.astype(float))
    np.testing.assert_allclose(P, pn, rtol=0, atol=1e-12)


@pytest.mark.parametrize("entry", [2, -1, 0.5])
def test_rectify_rejects_non_binary_candidates(entry):
    Z = np.zeros((2, 3))
    Y = np.eye(3)
    Y[1, 2] = entry
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        rectify(Z, Y, RectifyConfig(iterations=0))


def test_rectify_singleton_candidates_fixed_point():
    rng = np.random.default_rng(6)
    Z = rng.uniform(-1, 1, (3, 6))
    Y = np.zeros((3, 6), dtype=int)
    Y[[0, 0, 1, 1, 2, 2], np.arange(6)] = 1
    for iters in (0, 1, 10):
        _, Q = rectify(Z, Y, RectifyConfig(iterations=iters, lam=0.5, k=2))
        np.testing.assert_array_equal(Q, Y.astype(float))


def test_rectify_matches_naive_oracle():
    rng = np.random.default_rng(12)
    for trial in range(25):
        Z, Y = random_instance(rng)
        k = min(2, Z.shape[1] - 1)
        cfg = RectifyConfig(iterations=10, lam=0.5, k=k)
        P, Q = rectify(Z, Y, cfg)
        P2, Q2 = naive_rectify(Z, Y, 10, 0.5, k, "euclidean")
        np.testing.assert_allclose(Q, Q2, rtol=0, atol=1e-10)
        np.testing.assert_allclose(P, P2, rtol=0, atol=1e-10)


def test_rectify_squared_distance_matches_oracle():
    rng = np.random.default_rng(13)
    Z, Y = random_instance(rng, n_s=8, l=3)
    cfg = RectifyConfig(iterations=5, lam=0.5, k=3, distance="squared")
    P, Q = rectify(Z, Y, cfg)
    P2, Q2 = naive_rectify(Z, Y, 5, 0.5, 3, "squared")
    np.testing.assert_allclose(Q, Q2, rtol=0, atol=1e-10)
    np.testing.assert_allclose(P, P2, rtol=0, atol=1e-10)


def test_rectify_column_stochastic_and_zero_off_candidate():
    rng = np.random.default_rng(14)
    for trial in range(20):
        Z, Y = random_instance(rng)
        k = min(3, Z.shape[1] - 1)
        _, Q = rectify(Z, Y, RectifyConfig(iterations=5, lam=0.7, k=k))
        np.testing.assert_allclose(Q.sum(axis=0), 1.0, rtol=0, atol=1e-9)
        assert (Q[Y == 0] == 0).all()


# -- exact labels: the loop maps Q to itself ---------------------------------------

def loop_rectify(Z, Y, cfg):
    """rectify's loop as the public steps called in turn: the reference for
    rectify's kernels, stacks too."""
    Q = Y / Y.sum(axis=-2, keepdims=True)
    neighbors = knn_indices(Z, cfg.k) if cfg.iterations > 0 and cfg.lam > 0 else None
    for _ in range(cfg.iterations):
        P = compute_prototypes(Z, Q)
        Q = update_confidence(pairwise_distance(P.swapaxes(-1, -2), Z, cfg.distance), Y)
        if neighbors is not None:
            Q = smooth_confidence(Q, Y, neighbors, cfg.lam)
    return compute_prototypes(Z, Q), Q


def exact_instance(rng, T=None, l=3, n_s=8, m=4):
    """Z and a one-candidate-per-sample Y covering every class, one episode
    (T None) or a stack of T."""
    lead = () if T is None else (T,)
    Z = rng.uniform(-2, 2, lead + (m, n_s))
    Y = np.zeros(lead + (l, n_s), dtype=int)
    for y in Y.reshape(-1, l, n_s):
        y[rng.permutation(np.arange(n_s) % l), np.arange(n_s)] = 1
    return Z, Y


@pytest.mark.parametrize("T", [None, 3], ids=["2d", "stacked"])
@pytest.mark.parametrize("distance", ["euclidean", "squared"])
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("iterations", [0, 1, 10])
@pytest.mark.parametrize("k", [1, 4])
def test_rectify_exact_labels_match_the_loop_bit_for_bit(T, distance, lam, iterations, k):
    Z, Y = exact_instance(np.random.default_rng(40), T)
    cfg = RectifyConfig(iterations=iterations, lam=lam, k=k, distance=distance)
    P, Q = rectify(Z, Y, cfg)
    P2, Q2 = loop_rectify(Z, Y, cfg)
    np.testing.assert_array_equal(Q, Q2)
    np.testing.assert_array_equal(P, P2)
    np.testing.assert_array_equal(Q, Y.astype(float))


@pytest.mark.parametrize("iterations", [1, 10])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_rectify_stack_with_one_ambiguous_sample_runs_the_loop(iterations, lam):
    # one two-candidate column in one episode of the stack leaves its
    # uniform start
    Z, Y = exact_instance(np.random.default_rng(42), T=3)
    Y[1, :, 5] = [1, 1, 0] if Y[1, 2, 5] == 0 else [1, 0, 1]
    cfg = RectifyConfig(iterations=iterations, lam=lam, k=2)
    P, Q = rectify(Z, Y, cfg)
    P2, Q2 = loop_rectify(Z, Y, cfg)
    np.testing.assert_array_equal(Q, Q2)
    np.testing.assert_array_equal(P, P2)
    assert not np.array_equal(Q, Y / Y.sum(axis=-2, keepdims=True))


def ambiguous_instance(rng, lead=(), l=10, n_s=30, m=4, coincident=False):
    """Z and a Y in which class 0's candidates are samples 0-3 and every
    sample carries one of classes 1..l-1 plus random extra candidates. With
    coincident, samples 0-3 sit at one point, so that class 0's prototype
    lands on them and their distances take sqrt_eps's shifted branch."""
    Z = rng.uniform(-2, 2, lead + (m, n_s))
    Y = (rng.uniform(size=lead + (l, n_s)) < 0.3).astype(int)
    Y[..., 0, :] = 0
    Y[..., 0, :4] = 1
    Y[..., np.arange(n_s) % (l - 1) + 1, np.arange(n_s)] = 1
    if coincident:
        Z[..., 1:4] = Z[..., :1]
    return Z, Y


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["2d", "T3", "T2x3"])
@pytest.mark.parametrize("distance", ["euclidean", "squared"])
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("k", [1, 4, 9])
@pytest.mark.parametrize("iterations", [0, 1, 10])
def test_rectify_matches_the_public_steps_bit_for_bit(lead, distance, lam, k, iterations):
    Z, Y = ambiguous_instance(np.random.default_rng(43), lead)
    cfg = RectifyConfig(iterations=iterations, lam=lam, k=k, distance=distance)
    P, Q = rectify(Z, Y, cfg)
    P2, Q2 = loop_rectify(Z, Y, cfg)
    np.testing.assert_array_equal(Q, Q2)
    np.testing.assert_array_equal(P, P2)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "T3"])
@pytest.mark.parametrize("distance", ["euclidean", "squared"])
def test_rectify_derives_an_unset_k_as_shots_minus_one(lead, distance):
    # 30 samples of 10 classes: 3 shots per class, so k = 2
    Z, Y = ambiguous_instance(np.random.default_rng(45), lead)
    cfg = RectifyConfig(iterations=10, lam=0.5, distance=distance)
    P, Q = rectify(Z, Y, cfg)
    P2, Q2 = rectify(Z, Y, replace(cfg, k=2))
    np.testing.assert_array_equal(Q, Q2)
    np.testing.assert_array_equal(P, P2)
    assert not np.array_equal(Q, rectify(Z, Y, replace(cfg, k=1))[1])  # k counts here


@pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "T3"])
def test_rectify_on_coincident_samples_matches_the_public_steps(lead):
    Z, Y = ambiguous_instance(np.random.default_rng(44), lead, coincident=True)
    cfg = RectifyConfig(iterations=10, lam=0.5, k=4)
    P, Q = rectify(Z, Y, cfg)
    assert (sqdist(P.swapaxes(-1, -2), Z) < SQRT_EPS).any()
    P2, Q2 = loop_rectify(Z, Y, cfg)
    np.testing.assert_array_equal(Q, Q2)
    np.testing.assert_array_equal(P, P2)


# -- metamorphic relations of rectify ---------------------------------------------

# Both relations hold exactly in real arithmetic. In floating point, a class
# sum taken in another order, or a coordinate shifted and shifted back, moves
# a result by a few ulps per step, and ten iterations of three steps pass it
# on. So results may differ by 2**12 machine epsilons, relative or absolute
# (about 9e-13); a step that breaks a relation moves them by far more.
METAMORPHIC_TOL = 2 ** 12 * np.finfo(np.float64).eps
METAMORPHIC = pytest.mark.parametrize("lead, distance, lam", [
    pytest.param(lead, distance, lam, id=f"{'T3' if lead else '2d'}-{distance}-lam{lam}")
    for lead in [(), (3,)] for distance in ["euclidean", "squared"] for lam in [0.0, 0.5]])


@METAMORPHIC
def test_rectify_permuting_the_classes_permutes_p_and_q(lead, distance, lam):
    Z, Y = ambiguous_instance(np.random.default_rng(45), lead)
    perm = np.random.default_rng(46).permutation(Y.shape[-2])
    cfg = RectifyConfig(iterations=10, lam=lam, k=4, distance=distance)
    P, Q = rectify(Z, Y, cfg)
    P2, Q2 = rectify(Z, Y[..., perm, :], cfg)
    np.testing.assert_allclose(P2, P[..., perm, :], rtol=METAMORPHIC_TOL, atol=METAMORPHIC_TOL)
    np.testing.assert_allclose(Q2, Q[..., perm, :], rtol=METAMORPHIC_TOL, atol=METAMORPHIC_TOL)


@METAMORPHIC
def test_rectify_translating_the_embeddings_leaves_q_unchanged(lead, distance, lam):
    Z, Y = ambiguous_instance(np.random.default_rng(47), lead)
    shift = np.random.default_rng(48).uniform(-2, 2, (Z.shape[-2], 1))
    cfg = RectifyConfig(iterations=10, lam=lam, k=4, distance=distance)
    _, Q = rectify(Z, Y, cfg)
    _, Q2 = rectify(Z + shift, Y, cfg)
    np.testing.assert_allclose(Q2, Q, rtol=METAMORPHIC_TOL, atol=METAMORPHIC_TOL)


@METAMORPHIC
def test_rectify_permuting_the_samples_permutes_q(lead, distance, lam):
    # every sample's distances to the others are distinct, so its k nearest
    # neighbors do not hang on a tie broken by sample index
    Z, Y = ambiguous_instance(np.random.default_rng(49), lead)
    assert (np.diff(np.sort(sqdist(Z, Z), axis=-1), axis=-1) > 0).all()
    perm = np.random.default_rng(50).permutation(Y.shape[-1])
    cfg = RectifyConfig(iterations=10, lam=lam, k=4, distance=distance)
    P, Q = rectify(Z, Y, cfg)
    P2, Q2 = rectify(Z[..., perm], Y[..., perm], cfg)
    np.testing.assert_allclose(Q2, Q[..., perm], rtol=METAMORPHIC_TOL, atol=METAMORPHIC_TOL)
    np.testing.assert_allclose(P2, P, rtol=METAMORPHIC_TOL, atol=METAMORPHIC_TOL)


# classify_proba and the loss take one pass, not ten iterations. A shifted
# coordinate carries an error of a few ulps of its magnitude (up to about 4
# here), and a squared distance of up to about 64 sums four or five products
# of such coordinates: a few hundred ulps at most. So results may differ by
# 2**10 machine epsilons, relative or absolute (about 2.3e-13).
ONE_PASS_TOL = 2 ** 10 * np.finfo(np.float64).eps
ONE_PASS = pytest.mark.parametrize("lead, distance", [
    pytest.param(lead, distance, id=f"{'T3' if lead else '2d'}-{distance}")
    for lead in [(), (3,)] for distance in DISTANCE_KINDS])


def classify_instance(lead):
    """Query embeddings (4 x 9) and prototypes (6 x 4), stacked under lead."""
    rng = np.random.default_rng(51)
    return rng.uniform(-2, 2, lead + (4, 9)), rng.uniform(-2, 2, lead + (6, 4))


@ONE_PASS
def test_classify_proba_permuting_the_classes_permutes_its_rows(lead, distance):
    Zq, P = classify_instance(lead)
    perm = np.random.default_rng(52).permutation(P.shape[-2])
    np.testing.assert_allclose(classify_proba(Zq, P[..., perm, :], distance),
                               classify_proba(Zq, P, distance)[..., perm, :],
                               rtol=ONE_PASS_TOL, atol=ONE_PASS_TOL)


@ONE_PASS
def test_classify_proba_translating_queries_and_prototypes_leaves_it_unchanged(lead, distance):
    Zq, P = classify_instance(lead)
    # a normal draw, unlike the uniform grid of classify_instance, rounds when added
    shift = np.random.default_rng(53).normal(0, 2, (Zq.shape[-2], 1))
    np.testing.assert_allclose(classify_proba(Zq + shift, P + shift.T, distance),
                               classify_proba(Zq, P, distance),
                               rtol=ONE_PASS_TOL, atol=ONE_PASS_TOL)


def loss_instance(lead, distance):
    """A corrupted 4-way episode (or a stack of 3), a 4 -> 6 -> 5 network, its
    support activations and the rectified Q."""
    world = make_world(54, classes=8, dim=4, sigma=0.8)
    rngs = [np.random.default_rng([55, t]) for t in range(lead[0] if lead else 1)]
    episode = draw_episodes(world, np.arange(8), 4, 3, 5, CorruptionSpec(1.0, 2), rngs)
    episode = episode if lead else episode[0]
    params = init_network(NetworkSpec(4, (6,), 5), seed=56)
    layers = embed_layers(params, episode.support)
    _, Q = rectify(layers[-1], episode.candidates,
                   RectifyConfig(iterations=5, lam=0.5, k=2, distance=distance))
    return params, layers, episode, Q


@ONE_PASS
@pytest.mark.parametrize("supervised", [False, True])
def test_loss_is_invariant_under_class_permutation(lead, distance, supervised):
    params, layers, episode, Q = loss_instance(lead, distance)
    perm = np.random.default_rng(57).permutation(Q.shape[-2])
    new_label = np.argsort(perm)  # old label -> its row after the permutation
    relabeled = replace(episode, class_ids=episode.class_ids[..., perm],
                        candidates=episode.candidates[..., perm, :],
                        support_truth=new_label[episode.support_truth],
                        query_truth=new_label[episode.query_truth])
    loss = episode_loss_grad(params, layers, episode, Q, distance, supervised)[0]
    loss2 = episode_loss_grad(params, layers, relabeled, Q[..., perm, :], distance,
                              supervised)[0]
    np.testing.assert_allclose(loss2, loss, rtol=ONE_PASS_TOL, atol=ONE_PASS_TOL)


@ONE_PASS
@pytest.mark.parametrize("supervised", [False, True])
def test_loss_is_invariant_under_translation(lead, distance, supervised):
    # adding a vector to the output bias translates every embedding by it
    params, layers, episode, Q = loss_instance(lead, distance)
    shift = np.random.default_rng(58).uniform(-2, 2, (params.spec.output_dim, 1))
    moved = NetworkParams(params.spec, params.seed, params.weights,
                          [*params.biases[:-1], params.biases[-1] + shift])
    loss = episode_loss_grad(params, layers, episode, Q, distance, supervised)[0]
    loss2 = episode_loss_grad(moved, embed_layers(moved, episode.support), episode, Q,
                              distance, supervised)[0]
    np.testing.assert_allclose(loss2, loss, rtol=ONE_PASS_TOL, atol=ONE_PASS_TOL)


def test_rectify_ignores_a_much_closer_non_candidate():
    # sample 4's one candidate is class 0, whose prototype is over 2000 units
    # further away than class 1's in both iterations
    Z = np.array([[0.0, 0.0, 3000.0, 3000.0, 3000.0, 0.0]])
    Y = np.array([[1, 1, 0, 0, 1, 1], [0, 0, 1, 1, 0, 1]], dtype=float)
    P, Q = rectify(Z, Y, RectifyConfig(iterations=2, lam=0.0))
    np.testing.assert_array_equal(Q, [[1, 1, 0, 0, 1, 1], [0, 0, 1, 1, 0, 0]])
    np.testing.assert_array_equal(P, [[750.0], [3000.0]])


def test_rectify_loop_rejects_non_finite_distances():
    Z = np.array([[0.0, 1.0, 2.0, 1e200]])
    Y = np.array([[1, 1, 0, 1], [0, 0, 1, 1]])
    with pytest.raises(ValueError, match="update_confidence: distances must be finite"):
        rectify(Z, Y, RectifyConfig(iterations=1, lam=0.0))


@pytest.mark.parametrize("iterations", [1, 2])
def test_rectify_loop_rejects_a_class_without_confident_support(iterations):
    # class 1's only candidates are samples 4 and 5, on the prototypes of
    # classes 0 and 2, 2000 apart: its softmax mass underflows to 0 in the
    # first iteration, and the next prototype step raises, the final one
    # after a single iteration
    Z = np.array([[0.0, 0.0, 2000.0, 2000.0, 0.0, 2000.0]])
    Y = np.array([[1, 1, 0, 0, 1, 0], [0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 0, 1]])
    with pytest.raises(ValueError, match="class 1 has no confident support"):
        rectify(Z, Y, RectifyConfig(iterations=iterations, lam=0.0))


@pytest.mark.parametrize("Z_shape, Y_shape", [((2, 5), (3, 4)), ((3, 2, 4), (3, 4))])
def test_rectify_rejects_z_that_does_not_match_y(Z_shape, Y_shape):
    Y = np.zeros(Y_shape, dtype=int)
    Y[..., np.arange(Y_shape[-1]) % Y_shape[-2], np.arange(Y_shape[-1])] = 1
    Y[..., 0, :] = 1
    with pytest.raises(ValueError, match="does not match Y"):
        rectify(np.zeros(Z_shape), Y, RectifyConfig(iterations=1, lam=0.0))


@pytest.mark.parametrize("column", [[0.5, 0.5, 0.0], [2.0, -1.0, 0.0]])
def test_rectify_rejects_non_binary_columns_that_sum_to_one(column):
    Y = np.eye(3)
    Y[:, 0] = column
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        rectify(np.zeros((2, 3)), Y, RectifyConfig(iterations=10, lam=0.5, k=1))


def test_rectify_exact_labels_still_validate():
    Y = np.zeros((3, 4), dtype=int)
    Y[[0, 1, 0, 1], np.arange(4)] = 1  # class 2 has no sample
    with pytest.raises(ValueError, match="class 2 is not a candidate"):
        rectify(np.zeros((2, 4)), Y, RectifyConfig(iterations=10, lam=0.5, k=1))
    Y[:, 3] = [0, 0, 1]  # now exact and valid, with 4 // 3 = 1 shot per class
    with pytest.raises(ValueError, match=re.escape(
            "shots per class=1 leaves no neighbor for smoothing (k = shots - 1); "
            "set rectify.k")):
        rectify(np.zeros((2, 4)), Y, RectifyConfig(iterations=10, lam=0.5))


# -- posteriors, loss, prediction -------------------------------------------------

def test_classify_equidistant_uniform():
    P = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    Zq = np.zeros((2, 1))
    np.testing.assert_allclose(classify_proba(Zq, P), np.full((4, 1), 0.25), rtol=1e-12)


def test_classify_query_on_prototype():
    # three other prototypes at distance 10 -> p ~= 1/(1 + 3 e^-10)
    P = np.vstack([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [-10.0, 0.0]])
    Zq = np.zeros((2, 1))
    probs = classify_proba(Zq, P)
    want = 1.0 / (1.0 + 3.0 * np.exp(-10.0))
    np.testing.assert_allclose(probs[0, 0], want, rtol=1e-6)
    assert abs(probs[0, 0] - 0.99986) < 5e-5


def test_classify_matches_scalar_softmax_oracle():
    rng = np.random.default_rng(15)
    P = rng.uniform(-2, 2, (4, 3))
    Zq = rng.uniform(-2, 2, (3, 5))
    probs = classify_proba(Zq, P)
    for j in range(5):
        d = [naive_distance(Zq[:, j], P[c], "euclidean") for c in range(4)]
        denom = sum(math.exp(-x) for x in d)
        for c in range(4):
            np.testing.assert_allclose(probs[c, j], math.exp(-d[c]) / denom, rtol=1e-10)
    np.testing.assert_allclose(probs.sum(axis=0), 1.0, rtol=0, atol=1e-9)


def test_predict_argmax_and_tie_break():
    probs = np.array([[0.1, 0.5], [0.7, 0.5], [0.2, 0.0]])
    np.testing.assert_array_equal(predict(probs), [1, 0])


def test_predict_agrees_with_nearest_prototype():
    rng = np.random.default_rng(16)
    for _ in range(20):
        P = rng.uniform(-2, 2, (5, 4))
        Zq = rng.uniform(-2, 2, (4, 7))
        probs = classify_proba(Zq, P)
        D = pairwise_distance(P.T, Zq)
        np.testing.assert_array_equal(predict(probs), D.argmin(axis=0))


# -- graph builders agree with the numpy path -------------------------------------

def test_graph_builders_match_numpy_path():
    rng = np.random.default_rng(17)
    Z = rng.uniform(-1, 1, (3, 8))
    Zq = rng.uniform(-1, 1, (3, 5))
    Y = np.ones((3, 8), dtype=int)
    Q = rng.dirichlet(np.ones(3), size=8).T

    g = Graph()
    z_node, zq_node = g.leaf(Z), g.leaf(Zq)
    protos = prototype_nodes(g, z_node, Q)
    np.testing.assert_allclose(protos.values, compute_prototypes(Z, Q).T, rtol=0, atol=1e-12)

    d_node = distance_nodes(g, protos, zq_node, "euclidean")
    P = compute_prototypes(Z, Q)
    np.testing.assert_allclose(d_node.values, pairwise_distance(P.T, Zq), rtol=0, atol=1e-12)

    probs_node = posterior_nodes(g, d_node)
    np.testing.assert_allclose(probs_node.values, classify_proba(Zq, P), rtol=0, atol=1e-12)

    loss_node = loss_nodes(g, probs_node)
    np.testing.assert_allclose(loss_node.values[0, 0],
                               -np.log(probs_node.values.max(axis=0)).mean(), rtol=0, atol=1e-12)


def test_posterior_nodes_shift_invariance():
    rng = np.random.default_rng(18)
    D = rng.uniform(0, 4, (4, 6))
    shift = rng.uniform(-3, 3, (1, 6))

    def probs(mat):
        g = Graph()
        return posterior_nodes(g, g.leaf(mat)).values

    np.testing.assert_allclose(probs(D), probs(D + shift), rtol=0, atol=1e-12)


def test_rectify_config_validation():
    with pytest.raises(ValueError):
        RectifyConfig(iterations=-1)
    with pytest.raises(ValueError):
        RectifyConfig(lam=-0.1)
    with pytest.raises(ValueError):
        RectifyConfig(k=0)
    with pytest.raises(ValueError):
        RectifyConfig(distance="cosine")
    # NaN would skip smoothing silently
    with pytest.raises(ValueError, match=re.escape("rectify.lambda must be in [0, inf), got nan")):
        RectifyConfig(lam=float("nan"))


def test_resolve_k_checks_a_set_k_against_the_support_size():
    # 3 x 3 = 9 support samples leave at most 8 neighbors
    RectifyConfig(k=8).check_k(3, 3, "shots")
    with pytest.raises(ValueError, match=re.escape(
            "rectify.k=9 needs k + 1 support samples, but shots=3 gives 3 x 3 = 9")):
        RectifyConfig(k=9).check_k(3, 3, "shots")
    # no smoothing, no neighbors: k is not used
    RectifyConfig(k=50, lam=0.0).check_k(3, 3, "shots")
    RectifyConfig(k=50, iterations=0).check_k(3, 3, "shots")
    RectifyConfig(lam=0.0).check_k(3, 1, "shots")
    # an unset k is shots - 1
    RectifyConfig().check_k(3, 2, "shots")
    with pytest.raises(ValueError, match=re.escape(
            "shots=1 leaves no neighbor for smoothing (k = shots - 1)")):
        RectifyConfig().check_k(3, 1, "shots")
