"""A stack of T equal-shape episodes must give, bit for bit, what the T
episodes give one at a time: the squared distances, every pll_core helper,
rectify, the embedding, the fused loss gradient, meta_test, and batch-mean
meta_train, which draws, rectifies and differentiates an epoch's tasks in
stacks. k = 9 is the case where a neighbour sum in another order would move
the last bit."""

from dataclasses import fields, replace

import numpy as np
import pytest

import fspll.pll_core
from fspll.embedding import NetworkSpec, embed, embed_layers, init_network
from fspll.episodes import CorruptionSpec, Episode, corrupt, sample_episode
from fspll.pll_core import (DISTANCE_KINDS, RectifyConfig, classify_proba, compute_prototypes,
                            knn_indices, pairwise_distance, predict, rectify,
                            smooth_confidence, sqdist, stack_size, update_confidence,
                            validate_candidates)
from fspll.trainer import episode_loss_grad, lr_at, meta_test, meta_train

from conftest import default_rectify, default_train, default_world
from test_pll_core import distinct_configs

PARAMS = init_network(NetworkSpec(6, (8,), 5), seed=33)


def episodes(T=4, n_way=10, k_shot=10, k_query=6, r=2):
    world = default_world(seed=31, classes=16, dim=6, sigma=0.8)
    out = []
    for t in range(T):
        rng = np.random.default_rng([32, t])
        class_ids = rng.choice(world.classes, size=n_way, replace=False)
        episode = sample_episode(world, class_ids, k_shot, k_query, rng)
        out.append(corrupt(episode, CorruptionSpec(1.0, r), rng))
    return out


def stacked(eps, name):
    return np.stack([getattr(e, name) for e in eps])


def stack(eps):
    """The episodes as one Episode stack."""
    return Episode(*(stacked(eps, field.name) for field in fields(Episode)))


def grid(classify=False):
    """Parametrize `cfg` by the rectify configs of lambda 0 and 0.5, 0 and 10
    iterations and k 2 and 9 that a stacked call tells apart, as
    distinct_configs(classify) gives them."""
    return pytest.mark.parametrize(
        "cfg", distinct_configs([0, 10], [0.0, 0.5], [2, 9], classify),
        ids=lambda c: f"{c.distance}-{c.lam}-{c.iterations}-{c.k}")


def assert_slices_equal(stack, singles):
    assert stack.shape[0] == len(singles)
    for got, want in zip(stack, singles):
        np.testing.assert_array_equal(got, want)


def test_embed_layers_stack_matches_episodes():
    eps = episodes()
    layers = embed_layers(PARAMS, stacked(eps, "support"))
    for i, layer in enumerate(layers):
        assert_slices_equal(layer, [embed_layers(PARAMS, e.support)[i] for e in eps])


def reference_smooth(Q, Y, neighbors, lam):
    """One episode's smoothing as a single fancy-index gather: its l x n x k
    result keeps l innermost in memory, so the k neighbours are added one at a
    time, in order."""
    pooled = Q[:, neighbors].sum(axis=2)
    smoothed = np.where(Y > 0, Q + (lam / neighbors.shape[1]) * pooled, 0.0)
    return smoothed / smoothed.sum(axis=0, keepdims=True)


def gathered_smooth(Q, Y, neighbors, lam):
    """Reference smoothing: one gather of every neighbour row into
    (..., n, k, l), summed over k (l innermost, so in order)."""
    l, n = Q.shape[-2:]
    lead = Q.shape[:-2]
    if lead:
        neighbors = neighbors + n * np.arange(np.prod(lead)).reshape(*lead, 1, 1)
    rows = np.take(Q.swapaxes(-1, -2).reshape(-1, l), neighbors, axis=0)
    pooled = rows.sum(axis=-2).swapaxes(-1, -2)
    smoothed = np.where(Y > 0, Q + (lam / neighbors.shape[-1]) * pooled, 0.0)
    return smoothed / smoothed.sum(axis=-2, keepdims=True)


@pytest.mark.parametrize("k", [4, 9])
def test_smoothing_by_ordered_adds_matches_one_gather(k):
    eps = episodes()
    Z = embed(PARAMS, stacked(eps, "support"))
    Y = stacked(eps, "candidates")
    P = compute_prototypes(Z, Y / Y.sum(axis=-2, keepdims=True))
    Q = update_confidence(pairwise_distance(P.swapaxes(-1, -2), Z), Y)
    neighbors = knn_indices(Z, k)
    np.testing.assert_array_equal(smooth_confidence(Q, Y, neighbors, 0.5),
                                  gathered_smooth(Q, Y, neighbors, 0.5))
    np.testing.assert_array_equal(smooth_confidence(Q[1], Y[1], neighbors[1], 0.5),
                                  gathered_smooth(Q[1], Y[1], neighbors[1], 0.5))


def einsum_sqdist(a, b):
    """Reference squared distances of one episode: einsum over its whole
    m x p x q difference tensor."""
    diff = a[:, :, None] - b[:, None, :]
    return np.einsum("mpq,mpq->pq", diff, diff)


# (a's leading axes, b's); the last two broadcast to (2, 3) and (3,)
@pytest.mark.parametrize("lead_a, lead_b", [((1,), (1,)), ((3,), (3,)), ((2, 3), (2, 3)),
                                            ((2, 1), (3,)), ((3,), ())])
@pytest.mark.parametrize("m", [1, 4, 8, 64])
@pytest.mark.parametrize("scale", [1.0, 1e154])
def test_stacked_sqdist_adds_planes_like_einsum(lead_a, lead_b, m, scale):
    # at scale 1e154 about a third of the squares overflow to inf, silently
    rng = np.random.default_rng([m, len(lead_a), len(lead_b)])
    a = scale * rng.normal(size=(*lead_a, m, 5))
    b = scale * rng.normal(size=(*lead_b, m, 7))
    lead = np.broadcast_shapes(lead_a, lead_b)
    got = sqdist(a, b)
    assert got.shape == (*lead, 5, 7)
    assert np.isinf(got).any() == (scale > 1)
    a, b = np.broadcast_to(a, (*lead, m, 5)), np.broadcast_to(b, (*lead, m, 7))
    for t in np.ndindex(*lead):
        np.testing.assert_array_equal(got[t], einsum_sqdist(a[t], b[t]))


@pytest.mark.parametrize("lead", [(), (2,)])
def test_sqdist_warns_where_the_subtraction_overflows(lead):
    a = np.full((*lead, 3, 4), 1e308)
    with pytest.warns(RuntimeWarning, match="overflow encountered in subtract"):
        assert np.isinf(sqdist(a, -a)).all()


def test_stack_size_follows_the_widest_layer():
    # 256 KB over 8 bytes x width x n, n = 10 x max(5, 10) samples
    assert stack_size(NetworkSpec(8, (), 8), 10, 5, 10) == 262144 // (8 * 10 * 100)
    # an output (or input) narrower than n_way leaves n_way the width
    assert stack_size(NetworkSpec(2, (), 2), 10, 5, 10) == 32
    # a hidden layer, input or output wider than n_way shrinks the stack
    assert stack_size(NetworkSpec(8, (40,), 8), 10, 5, 10) == 8
    assert stack_size(NetworkSpec(40, (), 8), 10, 5, 10) == 8
    assert stack_size(NetworkSpec(8, (), 40), 10, 5, 10) == 8
    # never below one episode, even past the budget
    assert stack_size(NetworkSpec(64, (256,), 64), 20, 20, 15) == 1


@pytest.mark.parametrize("distance", DISTANCE_KINDS)
@pytest.mark.parametrize("k", [2, 9])
def test_helpers_stack_matches_episodes(distance, k):
    eps = episodes()
    Z = embed(PARAMS, stacked(eps, "support"))
    Zq = embed(PARAMS, stacked(eps, "queries"))
    Y = stacked(eps, "candidates")
    Q = Y / Y.sum(axis=-2, keepdims=True)
    validate_candidates(Y)

    P = compute_prototypes(Z, Q)
    assert_slices_equal(P, [compute_prototypes(Z[t], Q[t]) for t in range(len(eps))])
    D = pairwise_distance(P.swapaxes(-1, -2), Z, distance)
    assert_slices_equal(D, [pairwise_distance(P[t].T, Z[t], distance) for t in range(len(eps))])
    Q = update_confidence(D, Y)
    assert_slices_equal(Q, [update_confidence(D[t], Y[t]) for t in range(len(eps))])
    neighbors = knn_indices(Z, k)
    assert_slices_equal(neighbors, [knn_indices(Z[t], k) for t in range(len(eps))])
    smoothed = smooth_confidence(Q, Y, neighbors, 0.5)
    assert_slices_equal(smoothed, [smooth_confidence(Q[t], Y[t], neighbors[t], 0.5)
                                   for t in range(len(eps))])
    assert_slices_equal(smoothed, [reference_smooth(Q[t], Y[t], neighbors[t], 0.5)
                                   for t in range(len(eps))])
    probs = classify_proba(Zq, P, distance)
    assert_slices_equal(probs, [classify_proba(Zq[t], P[t], distance) for t in range(len(eps))])
    assert_slices_equal(predict(probs), [predict(p) for p in probs])


@grid()
def test_rectify_stack_matches_episodes(cfg):
    eps = episodes()
    P, Q = rectify(embed(PARAMS, stacked(eps, "support")), stacked(eps, "candidates"), cfg)
    singles = [rectify(embed(PARAMS, e.support), e.candidates, cfg) for e in eps]
    assert_slices_equal(P, [p for p, _ in singles])
    assert_slices_equal(Q, [q for _, q in singles])


@grid(classify=True)
def test_meta_test_stack_matches_episodes(cfg):
    eps = episodes()
    predictions, accuracies = meta_test(PARAMS, stack(eps), cfg)
    singles = [meta_test(PARAMS, episode[None], cfg) for episode in eps]
    assert_slices_equal(predictions, [p[0] for p, _ in singles])
    assert_slices_equal(accuracies, [a[0] for _, a in singles])


@pytest.mark.parametrize("hidden", [(), (8,), (8, 7)])
@pytest.mark.parametrize("supervised", [False, True])
@pytest.mark.parametrize("distance", DISTANCE_KINDS)
def test_loss_grad_stack_matches_episodes(distance, supervised, hidden):
    eps = episodes()
    params = init_network(NetworkSpec(6, hidden, 5), seed=37)
    cfg = RectifyConfig(iterations=10, lam=0.5, k=9, distance=distance)
    layers = embed_layers(params, stacked(eps, "support"))
    _, Q = rectify(layers[-1], stacked(eps, "candidates"), cfg)
    losses, grad_w, grad_b = episode_loss_grad(params, layers, stack(eps), Q, distance,
                                               supervised)
    assert losses.shape == (len(eps),)
    for t, episode in enumerate(eps):
        single = embed_layers(params, episode.support)
        _, q = rectify(single[-1], episode.candidates, cfg)
        loss, want_w, want_b = episode_loss_grad(params, single, episode, q, distance,
                                                 supervised)
        assert isinstance(loss, float) and losses[t] == loss
        for got, want in zip(grad_w + grad_b, want_w + want_b):
            np.testing.assert_array_equal(got[t], want)


def test_stacked_validation_names_the_episode():
    Y = stacked(episodes(), "candidates")
    Y[2, :, 3] = 0
    with pytest.raises(ValueError, match="episode 2: sample 3 has no candidate label"):
        validate_candidates(Y)


def reference_meta_train(config, world):
    """SGD one task at a time, drawn one at a time, with 2-D calls only: one
    step on the task mean per epoch, or under step_per_task one step after
    each task."""
    pool = np.arange(config.train_classes)
    rect = replace(config.rectify, k=config.k_support - 1)
    params = init_network(config.network, config.init_seed)
    losses = []
    for epoch in range(config.max_epoch):
        lr = lr_at(epoch, config.lr0, config.lr_half_period)
        grad_w = [np.zeros_like(w) for w in params.weights]
        grad_b = [np.zeros_like(b) for b in params.biases]
        loss_sum = 0.0
        for task in range(config.tasks_per_epoch):
            rng = np.random.default_rng([config.task_seed, epoch, task])
            class_ids = rng.choice(pool, size=config.n_way, replace=False)
            episode = sample_episode(world, class_ids, config.k_support, config.k_query, rng)
            episode = corrupt(episode, config.corruption, rng)
            layers = embed_layers(params, episode.support)
            _, Q = rectify(layers[-1], episode.candidates, rect)
            loss, task_w, task_b = episode_loss_grad(params, layers, episode, Q, rect.distance,
                                                     config.supervised_loss)
            loss_sum += loss
            for i in range(len(params.weights)):
                if config.step_per_task:
                    params.weights[i] = params.weights[i] - lr * task_w[i]
                    params.biases[i] = params.biases[i] - lr * task_b[i]
                else:
                    grad_w[i] += task_w[i]
                    grad_b[i] += task_b[i]
        if not config.step_per_task:
            scale = lr / config.tasks_per_epoch
            for i in range(len(params.weights)):
                params.weights[i] = params.weights[i] - scale * grad_w[i]
                params.biases[i] = params.biases[i] - scale * grad_b[i]
        losses.append(loss_sum / config.tasks_per_epoch)
    return params, losses


# One episode's largest array is 8 * width * n = 8 * 30 * 50 bytes, with width
# the hidden layer's 30 (wider than n_way = 5) and n the larger of 5 x 10
# support and 5 x 4 query samples: the default budget stacks all 7 tasks of an
# epoch; 36000 bytes gives stacks of 3, 3 and 1. Under step_per_task every
# stack is one task, whatever the budget, so it runs at the default one.
BUDGETS = [(stack_bytes, step_per_task) for step_per_task in (False, True)
           for stack_bytes in (fspll.pll_core.STACK_BYTES, 36000)
           if not step_per_task or stack_bytes == fspll.pll_core.STACK_BYTES]
BUDGET_IDS = [f"{b}-step_per_task" if step_per_task else str(b) for b, step_per_task in BUDGETS]

# mode -> the TrainConfig fields it changes from fspll at r = 2: each way the
# benches train a checkpoint. fspll's cases keep their budget-only ids.
TRAINING_MODES = {
    "fspll": {},
    "pn": {"rectify": default_rectify(iterations=0)},
    "fspll-nm": {"rectify": default_rectify(iterations=10, lam=0.0)},
    "exact": {"rectify": default_rectify(iterations=0), "corruption": CorruptionSpec(1.0, 0)},
    "supervised": {"supervised_loss": True},
    "squared": {"rectify": default_rectify(iterations=10, lam=0.5, distance="squared")},
}


@pytest.mark.parametrize("mode, stack_bytes, step_per_task", [
    (mode, *budget) for mode in TRAINING_MODES for budget in BUDGETS
], ids=[b if mode == "fspll" else f"{mode}-{b}" for mode in TRAINING_MODES for b in BUDGET_IDS])
def test_batch_mean_meta_train_matches_per_task_reference(monkeypatch, mode, stack_bytes,
                                                          step_per_task):
    monkeypatch.setattr(fspll.pll_core, "STACK_BYTES", stack_bytes)
    world = default_world(seed=34, classes=12, dim=4, sigma=0.7)
    config = default_train(network=NetworkSpec(4, (30,), 6), max_epoch=3, tasks_per_epoch=7,
                           n_way=5, k_support=10, k_query=4, train_classes=8,
                           rectify=default_rectify(iterations=10, lam=0.5),
                           corruption=CorruptionSpec(1.0, 2), lr0=0.05, init_seed=35,
                           task_seed=36, step_per_task=step_per_task)
    config = replace(config, **TRAINING_MODES[mode])
    params, log = meta_train(config, world)
    want, losses = reference_meta_train(config, world)
    assert log.losses() == losses
    for got, ref in zip(params.weights + params.biases, want.weights + want.biases):
        np.testing.assert_array_equal(got, ref)
