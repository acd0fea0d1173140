"""Episodic meta-training of the embedding network, and meta-test adaptation.

Each epoch draws its T fresh tasks as one stack of equal-shape episodes; each
task keeps its own stream key (task seed, epoch, task), so the stack holds
the tasks drawn one at a time, bit for bit. Under fixed_tasks every epoch
reuses epoch 0's stack, drawn once. Per task: embed the support set once,
rectify it (the identity on exact labels) to get label confidences (held
constant for gradients), then evaluate the loss and its gradient in one
fused closed-form pass (episode_loss_grad) -- support embeddings feed the
prototypes, query embeddings feed the posterior, the loss is the mean
negative log of the top posterior per query. One loop runs over an epoch's
tasks in stacks: each stack is embedded, rectified and differentiated at
once, and its per-task gradients sum task by task, in task order. By default
the parameters are fixed within an epoch, a stack holds pll_core.stack_size
tasks (a whole epoch when the network is narrow), and one plain SGD step at
lr / tasks_per_epoch follows the epoch. step_per_task makes each stack one
task and steps at lr after it. The learning rate halves on a fixed epoch
period.

episode_loss_graph builds the same loss on the autodiff graph. Training does
not use it: it is the reference the fused gradient is tested against.
grad_check compares the fused gradient with central finite differences of
the fused loss itself.

Meta-test freezes the network: embed, rectify, classify by nearest rectified
prototype via the posterior argmax, for a stack of equal-shape episodes at a
time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .autodiff import (Graph, Tensor, distance_nodes, embed_nodes, loss_nodes, param_leaves,
                       posterior_nodes, prototype_nodes, supervised_loss_nodes)
from .config import DEFAULTS, check
from .embedding import NetworkParams, NetworkSpec, embed, embed_layers, init_network
from .episodes import CorruptionSpec, Episode, World, draw_episodes
from .pll_core import (SQRT_EPS, RectifyConfig, classify_proba, lse_cols, predict, rectify,
                       sqdist, sqrt_eps, stack_size)


@dataclass(frozen=True)
class TrainConfig:
    """Meta-training hyperparameters. n_way/k_support/k_query shape the training
    tasks; rectify.k left unset is k_support - 1."""

    network: NetworkSpec
    max_epoch: int = 200
    tasks_per_epoch: int = 100
    n_way: int = 30
    k_support: int = 5
    k_query: int = 15
    rectify: RectifyConfig = field(default_factory=RectifyConfig)
    corruption: CorruptionSpec = field(default_factory=lambda: CorruptionSpec(1.0, 1))
    lr0: float = 0.001
    lr_half_period: int = 20
    train_classes: int | None = None  # use the first N world classes; None = all
    init_seed: int = 0
    task_seed: int = 0
    step_per_task: bool = False
    fixed_tasks: bool = False
    supervised_loss: bool = False  # ablation only: query loss uses ground truth

    def __post_init__(self):
        check({f"train.{key}": getattr(self, key) for key in DEFAULTS["train"]})


@dataclass
class EpochStats:
    epoch: int
    loss: float
    lr: float
    seconds: float


@dataclass
class TrainLog:
    entries: list[EpochStats] = field(default_factory=list)

    def losses(self) -> list[float]:
        return [e.loss for e in self.entries]


def lr_at(epoch: int, lr0: float, period: int) -> float:
    """Learning rate at a (0-based) epoch: lr0 halved once per `period` epochs."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return lr0 * 2.0 ** (-(epoch // period))


def episode_loss_graph(params: NetworkParams, episode: Episode, Q: np.ndarray,
                       distance: str, supervised: bool = False) -> tuple[Graph, Tensor, list]:
    """Build the per-task loss graph. Q is the rectified confidence matrix,
    entering as a constant; gradients reach the parameters through both the
    support embeddings (prototypes) and the query embeddings (posterior).

    supervised=True scores queries against their hidden ground truth instead
    of the max posterior (ablation mode)."""
    g = Graph()
    layers = param_leaves(g, params)
    z_support = embed_nodes(g, layers, g.leaf(episode.support))
    protos = prototype_nodes(g, z_support, Q)
    z_query = embed_nodes(g, layers, g.leaf(episode.queries))
    distances = distance_nodes(g, protos, z_query, distance)
    probs = posterior_nodes(g, distances)
    if supervised:
        sink = supervised_loss_nodes(g, probs, episode.query_truth)
    else:
        sink = loss_nodes(g, probs)
    return g, sink, layers


def episode_loss_grad(params: NetworkParams, support_layers: list[np.ndarray],
                      episode: Episode, Q: np.ndarray, distance: str,
                      supervised: bool = False
                      ) -> tuple[float | np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The loss of episode_loss_graph and its parameter gradient, fused in
    closed form. support_layers is embed_layers(params, episode.support).

    Works in log-posteriors, logp = neg - lse_cols(neg) with neg the negative
    distances, so a confidently wrong query gives a large finite loss rather
    than log(0). With pick the max-posterior label (or the true label when
    supervised), loss = -mean(logp[pick, q]) and
    d loss / d neg = -(onehot(pick) - softmax) / n_q, which is passed back
    through the distances, the Q-weighted prototypes and the relu MLP.

    Returns (loss, grad_w, grad_b). A stack of tasks (leading axes on the
    episode, support_layers and Q, broadcast as in pll_core) gives an array of
    per-task losses and per-task gradients with the same leading axes, each
    task's the same bits as on its own."""
    loss, fwd = _loss_forward(params, support_layers, episode, Q, distance, supervised)
    return (loss, *_loss_backward(params, support_layers, fwd, distance))


class _LossForward(NamedTuple):
    """episode_loss_grad's forward state: what its backward pass reads, and
    d2 and pick, which grad_check's kink signature reads."""

    query_layers: list[np.ndarray]
    weights: np.ndarray  # n_s x l prototype weights
    protos: np.ndarray
    d2: np.ndarray
    dist: np.ndarray
    logp: np.ndarray
    pick: np.ndarray
    hit: np.ndarray


def _loss_forward(params: NetworkParams, support_layers: list[np.ndarray], episode: Episode,
                  Q: np.ndarray, distance: str, supervised: bool
                  ) -> tuple[float | np.ndarray, _LossForward]:
    """episode_loss_grad's loss, and the forward state its gradient needs."""
    query_layers = embed_layers(params, episode.queries)
    z_q = query_layers[-1]
    # C-contiguous like the graph's leaf copy: a transposed view changes the
    # last bits of the BLAS products
    weights = np.ascontiguousarray(
        (Q / Q.sum(axis=-1)[..., None]).swapaxes(-1, -2))  # n_s x l
    protos = support_layers[-1] @ weights                   # m x l
    d2 = sqdist(protos, z_q)
    dist = sqrt_eps(d2) if distance == "euclidean" else d2
    neg = -dist
    logp = neg - lse_cols(neg)
    pick = (episode.query_truth if supervised else logp.argmax(axis=-2))[..., None, :]
    hit = pick == np.arange(logp.shape[-2])[:, None]
    # x + -0.0 == x, so each column sums to its picked entry, save that a
    # sum NumPy starts from +0.0 turns a picked -0.0 into +0.0; the mean
    # over queries then gives the bits of the gathered entries either way
    loss = -np.where(hit, logp, -0.0).sum(axis=-2).mean(axis=-1)
    return (float(loss) if loss.ndim == 0 else loss,
            _LossForward(query_layers, weights, protos, d2, dist, logp, pick, hit))


def _loss_backward(params: NetworkParams, support_layers: list[np.ndarray],
                   fwd: _LossForward, distance: str
                   ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The parameter gradient of _loss_forward's loss, as (grad_w, grad_b)."""
    z_q = fwd.query_layers[-1]
    g = np.exp(fwd.logp)                    # d loss / d dist = (onehot - softmax) / n_q
    g -= fwd.hit
    g /= -fwd.logp.shape[-1]
    if distance == "euclidean":
        g = g * 0.5 / fwd.dist
    g_protos = 2.0 * (fwd.protos * g.sum(axis=-1)[..., None, :] - z_q @ g.swapaxes(-1, -2))
    g_query = 2.0 * (z_q * g.sum(axis=-2)[..., None, :] - fwd.protos @ g)
    grad_w, grad_b = _mlp_backward(params, fwd.query_layers, g_query)
    support_w, support_b = _mlp_backward(params, support_layers,
                                         g_protos @ fwd.weights.swapaxes(-1, -2))
    return ([a + b for a, b in zip(grad_w, support_w)],
            [a + b for a, b in zip(grad_b, support_b)])


@dataclass
class GradCheckResult:
    """Outcome of a central finite-difference check of episode_loss_grad."""

    max_rel_error: float
    checked: int
    excluded: int


def grad_check(params: NetworkParams, episode: Episode, Q: np.ndarray, distance: str,
               supervised: bool = False, step: float = 1e-5) -> GradCheckResult:
    """Compare episode_loss_grad's gradient with central finite differences
    of its loss, over every weight and bias entry; Q stays constant.

    Relative error per entry is |analytic - numeric| / max(1, |analytic|).
    An entry is excluded, and counted, when its two one-sided evaluations
    differ in their kink signature: the relu masks of the support and query
    activations, the sqrt_eps regime of the squared distances (euclidean
    only) and the max-posterior pick (unsupervised only). The difference
    quotient spans a kink there.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    _, grad_w, grad_b = episode_loss_grad(params, embed_layers(params, episode.support),
                                          episode, Q, distance, supervised)
    n = len(params.weights)

    def loss_and_kinks(arrays: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
        probe = NetworkParams(params.spec, params.seed, arrays[:n], arrays[n:])
        support_layers = embed_layers(probe, episode.support)
        loss, fwd = _loss_forward(probe, support_layers, episode, Q, distance, supervised)
        kinks = [h > 0.0 for h in support_layers[1:-1] + fwd.query_layers[1:-1]]
        if distance == "euclidean":
            kinks.append(fwd.d2 < SQRT_EPS)
        if not supervised:
            kinks.append(fwd.pick)
        return loss, kinks

    arrays = params.weights + params.biases
    max_err, excluded = 0.0, 0
    for a, analytic in enumerate(grad_w + grad_b):
        for idx in np.ndindex(analytic.shape):
            sides = []
            for delta in (step, -step):
                probe = list(arrays)
                probe[a] = arrays[a].copy()
                probe[a][idx] += delta
                sides.append(loss_and_kinks(probe))
            (f_plus, kinks_plus), (f_minus, kinks_minus) = sides
            if any(not np.array_equal(p, q) for p, q in zip(kinks_plus, kinks_minus)):
                excluded += 1
                continue
            numeric = (f_plus - f_minus) / (2.0 * step)
            max_err = max(max_err, abs(analytic[idx] - numeric) / max(1.0, abs(analytic[idx])))
    return GradCheckResult(float(max_err), params.n_params() - excluded, excluded)


def _mlp_backward(params: NetworkParams, layers: list[np.ndarray],
                  g: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weight, bias) gradients, given d loss / d embeddings."""
    n = len(params.weights)
    grad_w, grad_b = [None] * n, [None] * n
    for i in reversed(range(n)):
        if i < n - 1:
            g = g * (layers[i + 1] > 0.0)  # relu subgradient 0 at the kink
        grad_w[i] = g @ layers[i].swapaxes(-1, -2)
        grad_b[i] = g.sum(axis=-1, keepdims=True)
        if i > 0:
            g = params.weights[i].T @ g
    return grad_w, grad_b


def _sample_tasks(config: TrainConfig, world: World, pool: np.ndarray,
                  epoch: int) -> Episode:
    """The epoch's tasks as one stack; task t draws from its own stream."""
    rngs = [np.random.default_rng([config.task_seed, epoch, task])
            for task in range(config.tasks_per_epoch)]
    return draw_episodes(world, pool, config.n_way, config.k_support, config.k_query,
                         config.corruption, rngs)


def effective_rectify(rect: RectifyConfig, corruption: CorruptionSpec, n_way: int, shots: int,
                      source: str) -> RectifyConfig:
    """The rectification rect performs on n_way x shots episodes under
    corruption: on exact labels the identity, which keeps only rect's
    distance, else rect once check_k (naming the shot count `source`) passes."""
    if corruption.exact(n_way * shots):
        return RectifyConfig(iterations=0, distance=rect.distance)
    rect.check_k(n_way, shots, source)
    return rect


def check_training(config: TrainConfig, world: World, r_key: str = "corruption.r"
                   ) -> tuple[np.ndarray, RectifyConfig]:
    """Check the rules that tie config's keys to each other and to world (`r_key`
    names r); return the classes it trains on and the rectification it runs."""
    if world.dim != config.network.input_dim:
        raise ValueError(
            f"world dim {world.dim} does not match network input {config.network.input_dim}")
    config.corruption.check_n_way(config.n_way, r_key, "train.n_way", "training task")
    n_pool = config.train_classes if config.train_classes is not None else world.classes
    if not config.n_way <= n_pool <= world.classes:
        raise ValueError(f"train_classes={n_pool} must be between train.n_way="
                         f"{config.n_way} and the world's {world.classes} classes")
    return np.arange(n_pool), effective_rectify(config.rectify, config.corruption, config.n_way,
                                                config.k_support, "train.k_support")


def meta_train(config: TrainConfig, world: World) -> tuple[NetworkParams, TrainLog]:
    """Train the embedding network and return (final params, per-epoch log)."""
    pool, rect = check_training(config, world)
    step = 1 if config.step_per_task else config.tasks_per_epoch  # tasks per SGD step
    chunk = min(step, stack_size(config.network, config.n_way, config.k_support,
                                 config.k_query))

    params = init_network(config.network, config.init_seed)
    log = TrainLog()
    n = len(params.weights)
    fixed = _sample_tasks(config, world, pool, 0) if config.fixed_tasks else None
    for epoch in range(config.max_epoch):
        t0 = time.perf_counter()
        lr = lr_at(epoch, config.lr0, config.lr_half_period)
        tasks = fixed if config.fixed_tasks else _sample_tasks(config, world, pool, epoch)
        loss_sum, grads = 0.0, None  # grads: weights' then biases' sum since the last step
        for start in range(0, config.tasks_per_epoch, chunk):
            stack = tasks[start:start + chunk]
            layers = embed_layers(params, stack.support)
            _, Q = rectify(layers[-1], stack.candidates, rect)
            stack_loss, stack_w, stack_b = episode_loss_grad(
                params, layers, stack, Q, rect.distance, config.supervised_loss)
            for t, loss in enumerate(stack_loss.tolist()):
                if not np.isfinite(loss):
                    raise RuntimeError(f"non-finite loss at epoch {epoch}, task {start + t}")
                loss_sum += loss
                task = [g[t] for g in stack_w + stack_b]
                grads = task if grads is None else [a + b for a, b in zip(grads, task)]
            if min(start + chunk, config.tasks_per_epoch) % step == 0:
                params.weights[:] = [w - lr / step * g for w, g in zip(params.weights, grads[:n])]
                params.biases[:] = [b - lr / step * g for b, g in zip(params.biases, grads[n:])]
                grads = None
        del tasks, stack, layers  # free a per-epoch stack before the next one is drawn
        log.entries.append(EpochStats(epoch, loss_sum / config.tasks_per_epoch, lr,
                                      time.perf_counter() - t0))
    return params, log


def meta_test(params: NetworkParams, episodes: Episode,
              rectify_cfg: RectifyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Adapt to each episode of a stack with the network frozen and score its
    queries.

    The (T, ...) stack `episodes` (as sample_episode draws it; `episode[None]`
    makes one episode a stack of one) is embedded, rectified and classified in
    one pass. Returns (predictions, accuracies): the T x n_q predicted labels
    and the T query accuracies, each episode's the same as on its own. embed
    and rectify check the inputs; rectify derives an unset k from the episode.
    """
    protos, _ = rectify(embed(params, episodes.support), episodes.candidates, rectify_cfg)
    preds = predict(classify_proba(embed(params, episodes.queries), protos,
                                   rectify_cfg.distance))
    return preds, (preds == episodes.query_truth).mean(axis=-1)
