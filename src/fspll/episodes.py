"""Synthetic worlds and episode construction.

A world is a pool of Gaussian class clusters; an episode is one N-way K-shot
task drawn from it: class-balanced support and query features, a binary
candidate matrix over the support, and hidden ground truth for scoring.
Candidate sets are corrupted by the (p, r) protocol: a fraction p of support
samples receives r extra labels drawn from the episode's other classes.

Everything is a pure function of explicit seeds. Sampling and corruption also
take a stack of T equal-shape episodes, each with its own generator: every
array of the Episode then has a leading axis of length T, and a 2-D episode
is the unstacked case. Each generator makes the same calls in the same order
as for its episode on its own (the class choice; the support normals, then
the query normals; the hit draw; the irrelevant-label words), so a stack
holds, bit for bit, the episodes drawn one at a time. Everything but those
calls runs once over the whole stack. draw_episodes makes the calls in that
order; training tasks and benchmark rounds are both drawn by it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import check


@dataclass(frozen=True)
class World:
    """Pool of class-conditional Gaussian clusters with shared isotropic noise."""

    seed: int
    classes: int
    dim: int
    sigma: float
    mean_scale: float
    means: np.ndarray  # classes x dim

    def __post_init__(self):
        check({f"world.{f.name}": getattr(self, f.name) for f in fields(self) if f.name != "means"})


@dataclass(frozen=True)
class CorruptionSpec:
    """p: proportion of support samples corrupted; r: irrelevant labels added
    each. With r = 0, or a p that hits none of an episode's samples, every
    label stays exact (see `exact`), and rectifying it returns them unchanged."""

    p: float
    r: int

    def __post_init__(self):
        check({"corruption.p": self.p, "corruption.r": self.r})

    def hits(self, n_support: int) -> int:
        """How many of an episode's n_support samples gain r irrelevant
        labels: floor(p * n_support), or none when r = 0."""
        return int(np.floor(self.p * n_support)) if self.r > 0 else 0

    def exact(self, n_support: int) -> bool:
        """True when r = 0 or floor(p * n_support) = 0: no sample gains a label."""
        return self.hits(n_support) == 0

    def check_n_way(self, n_way: int, r_key: str, n_way_key: str, task: str = "episode") -> None:
        """Raise unless an n_way-way `task` leaves r other classes for each
        corrupted sample; `r_key` and `n_way_key` name r and n_way."""
        if self.r > n_way - 1:
            raise ValueError(f"{r_key}={self.r} needs r + 1 classes per {task}, "
                             f"but {n_way_key} is {n_way}")


@dataclass(frozen=True)
class Episode:
    """One N-way K-shot task, or a stack of T of them (a leading T axis on
    every array). Features are column-major (dim x samples); candidates is the
    binary label x sample matrix; truths are episode-local label indices, kept
    only for scoring and diagnostics."""

    class_ids: np.ndarray      # episode-local label index -> world class id
    support: np.ndarray        # dim x n_s
    candidates: np.ndarray     # l x n_s
    queries: np.ndarray        # dim x n_q
    support_truth: np.ndarray  # n_s
    query_truth: np.ndarray    # n_q

    @property
    def n_classes(self) -> int:
        return self.class_ids.shape[-1]

    @property
    def n_support(self) -> int:
        return self.support.shape[-1]

    @property
    def n_queries(self) -> int:
        return self.queries.shape[-1]

    def __getitem__(self, key) -> Episode:
        """Index the stack axis: an integer gives one episode, a slice a
        smaller stack, and `None` makes a 2-D episode a stack of one."""
        return Episode(*(getattr(self, f.name)[key] for f in fields(self)))


def make_world(seed: int, classes: int, dim: int, sigma: float, mean_scale: float) -> World:
    """Class means drawn uniformly from [-mean_scale, mean_scale]^dim."""
    check({"world.seed": seed, "world.classes": classes, "world.dim": dim, "world.sigma": sigma,
           "world.mean_scale": mean_scale})
    rng = np.random.default_rng(seed)
    means = rng.uniform(-mean_scale, mean_scale, size=(classes, dim))
    # equal rows sit side by side once sorted; == keeps float equality
    # (-0.0 equals 0.0, NaN equals nothing)
    rows = means[np.lexsort(means.T)]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise ValueError("class means collided; use a different seed")
    return World(seed, classes, dim, sigma, mean_scale, means)


def sample_episode(world: World, class_ids, k_support: int, k_query: int,
                   seed) -> Episode:
    """Draw a clean episode: features are class mean + sigma * standard normal,
    candidates are one-hot on the ground truth. Samples are grouped by class
    (episode-local class c owns columns [c*K, (c+1)*K)).

    A (T, l) class_ids draws a stack of T episodes; `seed` is then a sequence
    of T seeds or generators, one per episode."""
    class_ids = np.asarray(class_ids, dtype=int)
    stacked = class_ids.ndim == 2
    ids = class_ids if stacked else class_ids[None]
    if (np.diff(np.sort(ids, axis=-1), axis=-1) == 0).any():
        raise ValueError("class_ids must be distinct")
    if ids.min() < 0 or ids.max() >= world.classes:
        raise ValueError("class_ids outside the world's class range")
    rngs = [np.random.default_rng(s) for s in seed] if stacked \
        else [np.random.default_rng(seed)]
    if len(rngs) != len(ids):
        raise ValueError(f"{len(ids)} episodes need one seed each, got {len(rngs)}")
    T, l = ids.shape
    means = world.means[ids].transpose(0, 2, 1)[..., None]  # T x dim x l x 1

    def features(shots):
        # per episode one class-major draw, the same stream as one (dim, shots)
        # draw per class, copied through one reused buffer into the episode's
        # (dim, l, shots) slot: the stack holds no second copy of its noise.
        # The support draws of the whole stack come first.
        out = np.empty((T, world.dim, l, shots))
        block = np.empty((l, world.dim, shots))
        for rng, slot in zip(rngs, out):
            rng.standard_normal(out=block)
            slot[...] = block.transpose(1, 0, 2)
        out *= world.sigma
        out += means
        return out.reshape(T, world.dim, l * shots)

    support = features(k_support)
    queries = features(k_query)
    support_truth = np.repeat(np.arange(l), k_support)
    candidates = np.zeros((T, l, l * k_support), dtype=int)
    candidates[:, support_truth, np.arange(l * k_support)] = 1
    episode = Episode(ids, support, candidates, queries, np.tile(support_truth, (T, 1)),
                      np.tile(np.repeat(np.arange(l), k_query), (T, 1)))
    return episode if stacked else episode[0]


def _choice_rows(rngs, n: int, pop: int, r: int) -> np.ndarray:
    """The (T, n, r) array whose row t is the (n, r) array that n successive
    `rngs[t].choice(pop, r, replace=False)` calls return, leaving each
    generator in the same state, with one word draw per generator.

    For pop <= 10000, `Generator.choice` without replacement is Floyd's
    sampling (a bounded draw on [0, j] for j = pop - r .. pop - 1; a value
    already picked is replaced by j) followed by a Fisher-Yates shuffle of the
    r picks (a bounded draw on [0, i] for i = r - 1 .. 1, swapping i with it).
    Each bounded draw on [0, b - 1], b > 1, is Lemire's multiply-shift of one
    32-bit word u: (u * b) >> 32, unless (u * b) mod 2**32 falls below
    (2**32 - b) mod b, when it is rejected and redrawn. So every row consumes
    the same words unless one is rejected; then that generator's state is
    restored and the per-row loop runs for its episode instead. The replay of
    the words runs once for all T * n calls.
    """
    T = len(rngs)
    if pop > 10000:
        return np.array([[rng.choice(pop, r, replace=False) for _ in range(n)]
                         for rng in rngs])
    floyd = range(pop - r, pop)
    bounds = [j + 1 for j in floyd if j > 0] + list(range(r, 1, -1))
    states = [rng.bit_generator.state for rng in rngs]
    words = np.stack([rng.integers(0, 2**32, size=(n, len(bounds)), dtype=np.uint32)
                      for rng in rngs]).reshape(T * n, len(bounds))
    m = words * np.array(bounds, dtype=np.uint64)
    reject = np.array([(2**32 - b) % b for b in bounds], dtype=np.uint32)
    draws = iter((m >> 32).astype(np.int64).T)
    picks = np.zeros((r, T * n), dtype=np.int64)  # one row per pick, one column per call
    for t, j in enumerate(floyd):
        if j == 0:  # a draw on [0, 0] consumes no word
            continue
        picks[t] = next(draws)
        seen = (picks[:t] == picks[t]).any(axis=0)
        picks[t, seen] = j
    calls = np.arange(T * n)
    for i in range(r - 1, 0, -1):
        k = next(draws)
        swap = picks[k, calls]
        picks[k, calls] = picks[i]
        picks[i] = swap
    rows = picks.T.reshape(T, n, r)
    rejected = (m.astype(np.uint32) < reject).reshape(T, n * len(bounds)).any(axis=1)
    for t in np.flatnonzero(rejected):
        rngs[t].bit_generator.state = states[t]
        rows[t] = [rngs[t].choice(pop, r, replace=False) for _ in range(n)]
    return rows


def corrupt(episode: Episode, spec: CorruptionSpec, seed) -> Episode:
    """Partially label the support set: spec.hits(n_s) samples, chosen without
    replacement, each gain r labels from the episode's other classes. Ground
    truth stays a candidate; queries are untouched. A stack of T episodes
    takes a sequence of T seeds or generators, one per episode.

    Stream contract: after the draw of the hit samples, each hit sample's extra
    labels are exactly the draw `rng.choice(l - 1, r, replace=False)` would
    make, one call per hit sample in order, shifted past the truth; the tests
    pin this against that per-sample loop. In a stack each episode's
    generator makes exactly its own episode's calls."""
    l = episode.n_classes
    spec.check_n_way(l, "corruption.r", "n_way")
    Y = episode.candidates.copy()
    n_hit = spec.hits(episode.n_support)
    if n_hit > 0:
        stacked = Y.ndim == 3
        rngs = [np.random.default_rng(s) for s in seed] if stacked \
            else [np.random.default_rng(seed)]
        stack = Y if stacked else Y[None]
        if len(rngs) != len(stack):
            raise ValueError(f"{len(stack)} episodes need one seed each, got {len(rngs)}")
        hit = np.stack([rng.choice(episode.n_support, size=n_hit, replace=False)
                        for rng in rngs])
        # indices into the l - 1 other classes, shifted past the truth
        extra = _choice_rows(rngs, n_hit, l - 1, spec.r)
        truth = episode.support_truth.reshape(len(stack), -1)
        extra += extra >= np.take_along_axis(truth, hit, axis=1)[..., None]
        stack[np.arange(len(stack))[:, None, None], extra, hit[..., None]] = 1
    return replace(episode, candidates=Y)


def draw_episodes(world: World, pool: np.ndarray, n_way: int, k_support: int, k_query: int,
                  corruption: CorruptionSpec, rngs) -> Episode:
    """A stack of corrupted episodes, one per generator of `rngs`: each picks
    its n_way classes from `pool`, then draws its samples, then corrupts them."""
    class_ids = np.stack([rng.choice(pool, size=n_way, replace=False) for rng in rngs])
    return corrupt(sample_episode(world, class_ids, k_support, k_query, rngs), corruption, rngs)


def episode_hash(episode: Episode) -> str | list[str]:
    """Content digest used to audit that paired methods saw identical
    episodes; a stack gives the list of its episodes' digests."""
    if episode.candidates.ndim == 3:
        return [episode_hash(episode[t]) for t in range(len(episode.candidates))]
    h = hashlib.sha256()
    for arr in (episode.class_ids, episode.support, episode.candidates,
                episode.queries, episode.support_truth, episode.query_truth):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]
