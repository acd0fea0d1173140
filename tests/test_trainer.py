import re
from dataclasses import replace

import numpy as np
import pytest

import fspll.trainer
from fspll.embedding import NetworkSpec, embed, embed_layers, init_network
from fspll.episodes import (CorruptionSpec, Episode, corrupt, draw_episodes, make_world,
                            sample_episode)
from fspll.pll_core import RectifyConfig, lse_cols, rectify
from fspll.trainer import (_sample_tasks, check_training, episode_loss_graph, episode_loss_grad,
                           grad_check, lr_at, meta_test, meta_train)

from conftest import default_rectify, default_train, default_world


def tiny_config(**overrides):
    defaults = dict(
        network=NetworkSpec(4, (8,), 6),
        max_epoch=3,
        tasks_per_epoch=2,
        n_way=3,
        k_support=3,
        k_query=4,
        rectify=default_rectify(iterations=5, lam=0.5),
        corruption=CorruptionSpec(1.0, 1),
        train_classes=6,
        init_seed=1,
        task_seed=2,
    )
    defaults.update(overrides)
    return default_train(**defaults)


def tiny_world(seed=0, classes=10, dim=4, sigma=0.6):
    return default_world(seed=seed, classes=classes, dim=dim, sigma=sigma)


def test_lr_schedule_values():
    assert lr_at(0, 0.001, 20) == 0.001
    assert lr_at(20, 0.001, 20) == 0.0005
    assert lr_at(45, 0.001, 20) == 0.00025


def test_lr_schedule_non_increasing():
    rates = [lr_at(e, 0.001, 20) for e in range(100)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_zero_epochs_returns_initial_params():
    world = tiny_world()
    config = tiny_config(max_epoch=0)
    params, log = meta_train(config, world)
    init = init_network(config.network, config.init_seed)
    for a, b in zip(params.weights, init.weights):
        np.testing.assert_array_equal(a, b)
    assert log.entries == []


def test_meta_train_is_bitwise_deterministic():
    world = tiny_world()
    config = tiny_config(max_epoch=1, tasks_per_epoch=1)
    pa, la = meta_train(config, world)
    pb, lb = meta_train(config, world)
    for a, b in zip(pa.weights, pb.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(pa.biases, pb.biases):
        np.testing.assert_array_equal(a, b)
    assert la.losses() == lb.losses()


def test_meta_train_logs_every_epoch_with_schedule():
    world = tiny_world()
    config = tiny_config(max_epoch=4, lr_half_period=2)
    _, log = meta_train(config, world)
    assert [e.epoch for e in log.entries] == [0, 1, 2, 3]
    assert [e.lr for e in log.entries] == [0.001, 0.001, 0.0005, 0.0005]


@pytest.mark.parametrize("step_per_task", [False, True])
@pytest.mark.parametrize("fixed_tasks, draws", [(True, 1), (False, 3)])
def test_fixed_tasks_are_drawn_once(monkeypatch, fixed_tasks, draws, step_per_task):
    calls = []

    def counting_draw_episodes(*args):
        calls.append(args)
        return draw_episodes(*args)

    monkeypatch.setattr(fspll.trainer, "draw_episodes", counting_draw_episodes)
    meta_train(tiny_config(fixed_tasks=fixed_tasks, step_per_task=step_per_task),
               tiny_world())
    assert len(calls) == draws  # one stack per draw, over 3 epochs


def test_meta_train_loss_decreases_on_fixed_tasks():
    world = tiny_world(sigma=1.2, classes=4)
    config = tiny_config(max_epoch=12, tasks_per_epoch=4, train_classes=4,
                         fixed_tasks=True, step_per_task=True,
                         network=NetworkSpec(4, (32, 32), 32), k_query=15)
    _, log = meta_train(config, world)
    losses = log.losses()
    assert losses[-1] < losses[0]


def test_step_per_task_differs_from_epoch_step():
    world = tiny_world()
    pa, _ = meta_train(tiny_config(), world)
    pb, _ = meta_train(tiny_config(step_per_task=True), world)
    assert any(not np.array_equal(a, b) for a, b in zip(pa.weights, pb.weights))


def frozen_task(distance, hidden=(6,)):
    world = tiny_world()
    params = init_network(NetworkSpec(4, hidden, 5), seed=3)
    episode = corrupt(sample_episode(world, [0, 1, 2], 3, 4, seed=4),
                      CorruptionSpec(1.0, 1), seed=5)
    cfg = RectifyConfig(iterations=5, lam=0.5, k=2, distance=distance)
    _, Q = rectify(embed(params, episode.support), episode.candidates, cfg)
    return params, episode, Q


def test_loss_gradient_matches_finite_differences_on_frozen_episode():
    params, episode, Q = frozen_task("euclidean")
    res = grad_check(params, episode, Q, "euclidean", step=1e-5)
    assert res.max_rel_error < 1e-4
    assert res.checked == params.n_params()


@pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
@pytest.mark.parametrize("supervised", [False, True])
@pytest.mark.parametrize("distance", ["euclidean", "squared"])
def test_grad_check_is_tight_on_every_loss(distance, supervised, hidden):
    params, episode, Q = frozen_task(distance, hidden)
    res = grad_check(params, episode, Q, distance, supervised)
    assert res.max_rel_error < 1e-7
    assert (res.checked, res.excluded) == (params.n_params(), 0)


def test_grad_check_sees_one_wrong_gradient_entry(monkeypatch):
    params, episode, Q = frozen_task("euclidean")
    loss_grad = fspll.trainer.episode_loss_grad

    def off_by_a_permille(*args):
        loss, grad_w, grad_b = loss_grad(*args)
        grad_w[0][0, 0] *= 1 + 1e-3
        return loss, grad_w, grad_b

    monkeypatch.setattr(fspll.trainer, "episode_loss_grad", off_by_a_permille)
    res = grad_check(params, episode, Q, "euclidean")
    assert res.max_rel_error > 1e-5


def test_grad_check_excludes_a_relu_kink():
    params, episode, Q = frozen_task("euclidean")
    # hidden unit 0's pre-activation is exactly 0 on every sample, so a step
    # of its weights or bias switches the unit on for one side only
    params.weights[0][0] = 0.0
    params.biases[0][0] = 0.0
    res = grad_check(params, episode, Q, "euclidean")
    assert res.excluded >= 1
    assert res.checked + res.excluded == params.n_params()
    assert res.max_rel_error < 1e-7


def test_grad_check_rejects_a_non_positive_step():
    params, episode, Q = frozen_task("euclidean")
    with pytest.raises(ValueError, match="step must be positive"):
        grad_check(params, episode, Q, "euclidean", step=0.0)


def graph_gradient(params, episode, Q, distance, supervised):
    graph, sink, layers = episode_loss_graph(params, episode, Q, distance, supervised)
    graph.backward(sink)
    return sink.values[0, 0], [w.grad for w, _ in layers], [b.grad for _, b in layers]


def assert_grads_close(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert (abs(g - w) <= 1e-12 * np.maximum(1.0, abs(w))).all()


@pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
@pytest.mark.parametrize("supervised", [False, True])
@pytest.mark.parametrize("distance", ["euclidean", "squared"])
def test_fused_gradient_matches_graph(distance, supervised, hidden):
    world = tiny_world(sigma=0.8)
    params = init_network(NetworkSpec(4, hidden, 5), seed=21)
    episode = corrupt(sample_episode(world, [0, 1, 2, 3], 3, 5, seed=22),
                      CorruptionSpec(1.0, 2), seed=23)
    support_layers = embed_layers(params, episode.support)
    cfg = RectifyConfig(iterations=5, lam=0.5, k=2, distance=distance)
    _, Q = rectify(support_layers[-1], episode.candidates, cfg)
    loss, grad_w, grad_b = episode_loss_grad(params, support_layers, episode, Q, distance,
                                             supervised)
    want_loss, want_w, want_b = graph_gradient(params, episode, Q, distance, supervised)
    assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
    assert_grads_close(grad_w, want_w)
    assert_grads_close(grad_b, want_b)


def test_meta_train_steps_with_fused_gradient():
    world = tiny_world()
    config = tiny_config(max_epoch=1, tasks_per_epoch=1, step_per_task=True,
                         network=NetworkSpec(4, (6,), 5))
    params, log = meta_train(config, world)
    init = init_network(config.network, config.init_seed)
    episode = _sample_tasks(config, world, np.arange(config.train_classes), 0)[0]
    support_layers = embed_layers(init, episode.support)
    rect = replace(config.rectify, k=config.k_support - 1)
    _, Q = rectify(support_layers[-1], episode.candidates, rect)
    loss, grad_w, grad_b = episode_loss_grad(init, support_layers, episode, Q, rect.distance)
    assert log.losses() == [loss]
    for w0, g, w in zip(init.weights + init.biases, grad_w + grad_b,
                        params.weights + params.biases):
        np.testing.assert_array_equal(w, w0 - config.lr0 * g)


def spy_log_posteriors(monkeypatch):
    """Make episode_loss_grad record logp = neg - lse_cols(neg) as it runs."""
    seen = []

    def spy(x):
        out = lse_cols(x)
        seen.append(x - out)
        return out

    monkeypatch.setattr(fspll.trainer, "lse_cols", spy)
    return seen


def take_loss(logp, pick):
    """The loss as the picked log-posteriors, gathered by take_along_axis."""
    return -np.take_along_axis(logp, pick[..., None, :], axis=-2)[..., 0, :].mean(axis=-1)


@pytest.mark.parametrize("supervised", [False, True])
@pytest.mark.parametrize("distance", ["euclidean", "squared"])
def test_loss_pick_matches_take_along_axis(monkeypatch, distance, supervised):
    world = tiny_world(sigma=0.8)
    params = init_network(NetworkSpec(4, (6,), 5), seed=24)
    episode = _sample_tasks(tiny_config(tasks_per_epoch=5, n_way=4), world, np.arange(6), 0)
    layers = embed_layers(params, episode.support)
    _, Q = rectify(layers[-1], episode.candidates, default_rectify(iterations=3, lam=0.5, k=2))
    seen = spy_log_posteriors(monkeypatch)
    loss, _, _ = episode_loss_grad(params, layers, episode, Q, distance, supervised)
    [logp] = seen
    pick = episode.query_truth if supervised else logp.argmax(axis=-2)
    np.testing.assert_array_equal(loss, take_loss(logp, pick))


def test_loss_pick_keeps_the_sign_of_a_zero_log_posterior(monkeypatch):
    # identity embedding, squared distances, prototypes 40 apart: a query on
    # its prototype has logp = -0.0 - 0.0 = -0.0, one a unit away -1 - -1 =
    # +0.0, and the other class's exp underflows. One query per episode, so
    # that no other entry enters its loss.
    params = init_network(NetworkSpec(2, (), 2), seed=0)
    params.weights[0] = np.eye(2)
    support = np.array([[0.0, 40.0], [0.0, 0.0]])
    episode = Episode(class_ids=np.array([[0, 1], [0, 1]]),
                      support=np.stack([support, support]),
                      candidates=np.stack([np.eye(2, dtype=int)] * 2),
                      queries=np.array([[[0.0], [0.0]], [[1.0], [0.0]]]),
                      support_truth=np.array([[0, 1], [0, 1]]),
                      query_truth=np.array([[0], [0]]))
    layers = embed_layers(params, episode.support)
    seen = spy_log_posteriors(monkeypatch)
    loss, _, _ = episode_loss_grad(params, layers, episode,
                                   episode.candidates.astype(float), "squared")
    [logp] = seen
    np.testing.assert_array_equal(np.signbit(logp[:, 0, 0]), [True, False])
    want = take_loss(logp, logp.argmax(axis=-2))
    np.testing.assert_array_equal(loss, want)
    np.testing.assert_array_equal(np.signbit(loss), np.signbit(want))


def test_supervised_loss_stays_finite_when_posterior_underflows():
    # squared distances put a confidently wrong query more than ~745 nats
    # behind the winner: exp underflows to 0, and log(0) would abort training
    world = make_world(1, classes=6, dim=4, sigma=15.0, mean_scale=20.0)
    config = tiny_config(supervised_loss=True,
                         rectify=default_rectify(iterations=0, distance="squared"))
    _, log = meta_train(config, world)
    assert len(log.entries) == 3
    assert all(np.isfinite(loss) for loss in log.losses())


def test_meta_test_perfect_on_separable_world():
    world = tiny_world(sigma=1e-9)
    params = init_network(NetworkSpec(4, (), 4), seed=6)
    episode = sample_episode(world, [6, 7, 8], 3, 5, seed=7)
    _, [accuracy] = meta_test(params, episode[None], default_rectify())
    assert accuracy == 1.0


def test_meta_test_does_not_mutate_params():
    world = tiny_world()
    params = init_network(NetworkSpec(4, (5,), 4), seed=8)
    before = [w.copy() for w in params.weights] + [b.copy() for b in params.biases]
    episode = corrupt(sample_episode(world, [0, 1, 2], 3, 4, seed=9),
                      CorruptionSpec(1.0, 1), seed=10)
    meta_test(params, episode[None], default_rectify())
    after = list(params.weights) + list(params.biases)
    for a, b in zip(before, after):
        np.testing.assert_array_equal(a, b)


def test_meta_test_zero_iterations_equals_pn_rule():
    # with no rectification the pipeline is exactly the uniform-candidate
    # prototype classifier
    from fspll.pll_core import classify_proba, compute_prototypes, predict
    world = tiny_world()
    params = init_network(NetworkSpec(4, (5,), 4), seed=11)
    episode = corrupt(sample_episode(world, [1, 3, 5], 3, 6, seed=12),
                      CorruptionSpec(1.0, 1), seed=13)
    [predictions], _ = meta_test(params, episode[None], default_rectify(iterations=0))
    z = embed(params, episode.support)
    q = episode.candidates / episode.candidates.sum(axis=0)
    protos = compute_prototypes(z, q)
    want = predict(classify_proba(embed(params, episode.queries), protos))
    np.testing.assert_array_equal(predictions, want)


def test_meta_test_dimension_mismatch():
    params = init_network(NetworkSpec(5, (), 4), seed=14)
    episode = sample_episode(tiny_world(), [0, 1], 2, 2, seed=15)
    with pytest.raises(ValueError, match=re.escape(
            "embed: expected 5 feature rows, got shape (1, 4, 4)")):
        meta_test(params, episode[None], default_rectify())


def test_train_config_validation():
    with pytest.raises(ValueError, match="lr0"):
        tiny_config(lr0=0.0)
    with pytest.raises(ValueError, match="tasks_per_epoch"):
        tiny_config(tasks_per_epoch=0)
    with pytest.raises(ValueError, match="max_epoch"):
        tiny_config(max_epoch=-1)
    with pytest.raises(ValueError, match=r"train.init_seed must be in \[0, inf\), got -1"):
        tiny_config(init_seed=-1)
    # a rule that ties two keys together is checked when the run starts
    config = tiny_config(corruption=CorruptionSpec(1.0, 3))
    with pytest.raises(ValueError, match="corruption.r=3 needs r [+] 1 classes per training "
                                         "task, but train.n_way is 3"):
        meta_train(config, tiny_world())
    check_training(tiny_config(corruption=CorruptionSpec(1.0, 2)), tiny_world())


def test_meta_train_rejects_small_class_pool():
    world = tiny_world(classes=4)
    with pytest.raises(ValueError, match="train_classes=4 must be between train.n_way=5"):
        meta_train(tiny_config(n_way=5, train_classes=4), world)


def test_meta_train_rejects_dim_mismatch():
    world = tiny_world(dim=5)
    with pytest.raises(ValueError, match="does not match"):
        meta_train(tiny_config(), world)


def test_non_finite_loss_aborts_with_location():
    # squared distances overflow at absurd world scale; with rectification
    # disabled the overflow reaches the loss graph as a nan posterior
    world = make_world(1, classes=6, dim=4, sigma=1.0, mean_scale=1e200)
    config = tiny_config(max_epoch=1, tasks_per_epoch=1,
                         rectify=default_rectify(iterations=0))
    with pytest.raises(RuntimeError, match="epoch 0, task 0"):
        with pytest.warns(RuntimeWarning, match="invalid value encountered in subtract"):
            meta_train(config, world)
