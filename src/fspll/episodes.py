"""Synthetic worlds and episode construction.

A world is a pool of Gaussian class clusters; an episode is one N-way K-shot
task drawn from it: class-balanced support and query features, a binary
candidate matrix over the support, and hidden ground truth for scoring.
Candidate sets are corrupted by the (p, r) protocol: a fraction p of support
samples receives r extra labels drawn from the episode's other classes.

Everything is a pure function of explicit seeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np


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
        if self.classes < 2:
            raise ValueError("a world needs at least 2 classes")
        if self.dim < 1:
            raise ValueError("feature dim must be >= 1")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")


@dataclass(frozen=True)
class CorruptionSpec:
    """p: proportion of support samples corrupted; r: irrelevant labels added
    each. With r = 0 or p = 0 every label stays exact (see `exact`), and
    rectifying such an episode returns its labels unchanged."""

    p: float
    r: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")

    @property
    def exact(self) -> bool:
        """True when no sample of any episode gains an irrelevant label."""
        return self.r == 0 or self.p == 0


@dataclass(frozen=True)
class Episode:
    """One N-way K-shot task. Features are column-major (dim x samples);
    candidates is the binary label x sample matrix; truths are episode-local
    label indices, kept only for scoring and diagnostics."""

    class_ids: np.ndarray      # episode-local label index -> world class id
    support: np.ndarray        # dim x n_s
    candidates: np.ndarray     # l x n_s
    queries: np.ndarray        # dim x n_q
    support_truth: np.ndarray  # n_s
    query_truth: np.ndarray    # n_q

    @property
    def n_classes(self) -> int:
        return len(self.class_ids)

    @property
    def n_support(self) -> int:
        return self.support.shape[1]

    @property
    def n_queries(self) -> int:
        return self.queries.shape[1]


def make_world(seed: int, classes: int, dim: int, sigma: float,
               mean_scale: float = 1.0) -> World:
    """Class means drawn uniformly from [-mean_scale, mean_scale]^dim."""
    if classes < 2 or dim < 1 or sigma <= 0:
        raise ValueError(
            f"invalid world parameters: classes={classes}, dim={dim}, sigma={sigma}")
    rng = np.random.default_rng(seed)
    means = rng.uniform(-mean_scale, mean_scale, size=(classes, dim))
    if len(np.unique(means, axis=0)) != classes:
        raise ValueError("class means collided; use a different seed")
    return World(seed, classes, dim, sigma, mean_scale, means)


def sample_episode(world: World, class_ids, k_support: int, k_query: int,
                   seed) -> Episode:
    """Draw a clean episode: features are class mean + sigma * standard normal,
    candidates are one-hot on the ground truth. Samples are grouped by class
    (episode-local class c owns columns [c*K, (c+1)*K))."""
    class_ids = np.asarray(class_ids, dtype=int)
    if len(np.unique(class_ids)) != len(class_ids):
        raise ValueError("class_ids must be distinct")
    if class_ids.min() < 0 or class_ids.max() >= world.classes:
        raise ValueError("class_ids outside the world's class range")
    l = len(class_ids)
    rng = np.random.default_rng(seed)

    def draw(shots):
        # one draw, class-major: the same stream as one (dim, shots) draw per class
        noise = rng.standard_normal((l, world.dim, shots))
        block = world.means[class_ids][:, :, None] + world.sigma * noise
        return block.transpose(1, 0, 2).reshape(world.dim, l * shots)

    support = draw(k_support)
    queries = draw(k_query)
    support_truth = np.repeat(np.arange(l), k_support)
    query_truth = np.repeat(np.arange(l), k_query)
    candidates = np.zeros((l, l * k_support), dtype=int)
    candidates[support_truth, np.arange(l * k_support)] = 1
    return Episode(class_ids, support, candidates, queries, support_truth, query_truth)


def _choice_rows(rng: np.random.Generator, n: int, pop: int, r: int) -> np.ndarray:
    """The (n, r) array that n successive `rng.choice(pop, r, replace=False)`
    calls return, leaving rng in the same state, drawn in one call.

    For pop <= 10000, `Generator.choice` without replacement is Floyd's
    sampling (a bounded draw on [0, j] for j = pop - r .. pop - 1; a value
    already picked is replaced by j) followed by a Fisher-Yates shuffle of the
    r picks (a bounded draw on [0, i] for i = r - 1 .. 1, swapping i with it).
    Each bounded draw on [0, b - 1], b > 1, is Lemire's multiply-shift of one
    32-bit word u: (u * b) >> 32, unless (u * b) mod 2**32 falls below
    (2**32 - b) mod b, when it is rejected and redrawn. So every row consumes
    the same words unless one is rejected; then the state is restored and the
    per-row loop runs instead.
    """
    if pop <= 10000:
        floyd = range(pop - r, pop)
        bounds = [j + 1 for j in floyd if j > 0] + list(range(r, 1, -1))
        state = rng.bit_generator.state
        m = rng.integers(0, 2**32, size=(n, len(bounds)), dtype=np.uint32) \
            * np.array(bounds, dtype=np.uint64)
        reject = np.array([(2**32 - b) % b for b in bounds], dtype=np.uint32)
        if not (m.astype(np.uint32) < reject).any():
            draws = iter((m >> 32).astype(np.int64).T)
            picks = np.zeros((r, n), dtype=np.int64)  # one row per pick, one column per call
            for t, j in enumerate(floyd):
                if j == 0:  # a draw on [0, 0] consumes no word
                    continue
                picks[t] = next(draws)
                seen = (picks[:t] == picks[t]).any(axis=0)
                picks[t, seen] = j
            calls = np.arange(n)
            for i in range(r - 1, 0, -1):
                k = next(draws)
                swap = picks[k, calls]
                picks[k, calls] = picks[i]
                picks[i] = swap
            return picks.T
        rng.bit_generator.state = state
    return np.stack([rng.choice(pop, r, replace=False) for _ in range(n)])


def corrupt(episode: Episode, spec: CorruptionSpec, seed) -> Episode:
    """Partially label the support set: floor(p * n_s) samples, chosen without
    replacement, each gain r labels from the episode's other classes. Ground
    truth stays a candidate; queries are untouched.

    Stream contract: after the draw of the hit samples, each hit sample's extra
    labels are exactly the draw `rng.choice(l - 1, r, replace=False)` would
    make, one call per hit sample in order, shifted past the truth; the tests
    pin this against that per-sample loop."""
    l = episode.n_classes
    if spec.r > l - 1:
        raise ValueError(f"r={spec.r} needs at least r+1={spec.r + 1} classes, episode has {l}")
    Y = episode.candidates.copy()
    n_hit = int(np.floor(spec.p * episode.n_support))
    if n_hit > 0 and spec.r > 0:
        rng = np.random.default_rng(seed)
        hit = rng.choice(episode.n_support, size=n_hit, replace=False)
        # indices into the l - 1 other classes, shifted past the truth
        extra = _choice_rows(rng, n_hit, l - 1, spec.r)
        extra += extra >= episode.support_truth[hit][:, None]
        Y[extra, hit[:, None]] = 1
    return replace(episode, candidates=Y)


def episode_hash(episode: Episode) -> str:
    """Content digest used to audit that paired methods saw identical episodes."""
    h = hashlib.sha256()
    for arr in (episode.class_ids, episode.support, episode.candidates,
                episode.queries, episode.support_truth, episode.query_truth):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


# -- world manifests -----------------------------------------------------------

def world_to_manifest(world: World) -> dict:
    """JSON-ready description; means are regenerated from the seed on load."""
    return {
        "seed": world.seed,
        "classes": world.classes,
        "dim": world.dim,
        "sigma": world.sigma,
        "mean_scale": world.mean_scale,
    }


def world_from_manifest(doc: dict) -> World:
    return make_world(int(doc["seed"]), int(doc["classes"]), int(doc["dim"]),
                      float(doc["sigma"]), float(doc["mean_scale"]))
