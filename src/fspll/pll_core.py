"""Partial-label disambiguation over embedded support samples.

Given embeddings Z (m x n_s), a binary candidate matrix Y (l x n_s) and a
confidence matrix Q (l x n_s, each column a distribution over its candidate
labels), the rectification loop alternates three closed-form steps:

  1. class prototypes as confidence-weighted means of the support embeddings,
  2. a candidate-restricted softmax of negative prototype distances,
  3. k-nearest-neighbor smoothing of the confidences, then renormalization.

Each step is a public function that checks its inputs and then calls a
private kernel holding the step's math. rectify checks its inputs once at
entry, builds the loop's invariants once (candidate mask, neighbor index
columns, transposed Z), and runs its iterations on the kernels, which keep
only the checks that depend on the data: no confident support, non-finite
distances, lost confidence mass.

Queries are classified by a softmax over (negative) distances to the final
prototypes. Every function here is pure, and every array function also takes
a stack of T equal-shape episodes: leading axes broadcast, so Z is
(..., m, n_s), Y and Q are (..., l, n_s), and a 2-D input is the unstacked
case. Each episode of a stack gets the same bits as on its own. stack_size
picks how many episodes share a call, from the network's widest layer and
the episode shape.

The distance and log-sum-exp kernels (sqdist, sqrt_eps, lse_cols) are shared
with the fused training loss in trainer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DISTANCE_KINDS, check
from .embedding import NetworkSpec

SQRT_EPS = 1e-12  # arguments below this get sqrt(x + SQRT_EPS); keeps gradients finite

# Byte budget for the largest per-episode array of a stacked call: it sets
# how many episodes share one call, and so bounds the memory stacking adds.
# That array is a layer's embeddings (width x n) or an l x n confidence or
# distance plane. sqdist's m x l x n difference tensor is the exception: it
# is at most min(m, l) times the budget per stack, since width >= max(m, l).
STACK_BYTES = 256 * 1024


def sqrt_eps(x: np.ndarray) -> np.ndarray:
    if x.size and x.min() >= SQRT_EPS:  # no entry to shift; NaN takes the where form
        return np.sqrt(x)
    return np.sqrt(np.where(x < SQRT_EPS, x + SQRT_EPS, x))


def sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the columns of a (..., m, p) and b (..., m, q).

    One einsum over the (..., m, p, q) difference tensor, for every rank, so a
    stacked call builds that m-fold temporary for the whole stack: at most
    min(m, l) times STACK_BYTES for a stack that stack_size sized.
    The squares and their sum overflow silently; the subtraction may warn.
    """
    diff = a[..., :, :, None] - b[..., :, None, :]
    return np.einsum("...mpq,...mpq->...pq", diff, diff)


def lse_cols(x: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each column of x (..., rows, cols), max-shifted."""
    m = x.max(axis=-2, keepdims=True)
    return np.log(np.exp(x - m).sum(axis=-2, keepdims=True)) + m


def stack_size(spec: NetworkSpec, n_way: int, k_support: int, k_query: int) -> int:
    """How many n_way-way episodes embedded by a `spec` network go in one stack
    (at least one): n float64 columns of the wider of n_way and the widest
    layer per episode, n the larger of the support and query sample counts."""
    width = max(n_way, spec.input_dim, *spec.hidden_dims, spec.output_dim)
    return max(1, STACK_BYTES // (8 * width * n_way * max(k_support, k_query)))


@dataclass(frozen=True)
class RectifyConfig:
    """Knobs of the rectification loop.

    k is the neighbor count for confidence smoothing; None means shots per
    class minus one, which rectify derives from its episode when it smooths.
    """

    iterations: int = 10
    lam: float = 0.5
    k: int | None = None
    distance: str = "euclidean"

    def __post_init__(self):
        check({"rectify.iterations": self.iterations, "rectify.lambda": self.lam,
               "rectify.k": self.k, "rectify.distance": self.distance})

    def check_k(self, n_way: int, shots: int, source: str) -> None:
        """Check that smoothing, when it runs, finds k neighbors among the
        n_way * shots support samples, k unset meaning shots - 1. `source`
        names the shot count in the errors."""
        if self.iterations == 0 or self.lam == 0:
            return
        if self.k is None and shots < 2:
            raise ValueError(f"{source}={shots} leaves no neighbor for smoothing (k = shots - 1); "
                             "set rectify.k, or rectify.lambda to 0")
        k = shots - 1 if self.k is None else self.k
        if k >= n_way * shots:
            raise ValueError(f"rectify.k={k} needs k + 1 support samples, but "
                             f"{source}={shots} gives {n_way} x {shots} = {n_way * shots}")


def validate_candidates(Y: np.ndarray) -> None:
    """Reject candidate matrices violating the binary/coverage invariants; a
    stack is checked in one pass, and the error names the first bad episode."""
    Y = np.asarray(Y)
    if Y.ndim < 2:
        raise ValueError(f"candidate matrix must be 2-D, got shape {Y.shape}")
    if not ((Y == 0) | (Y == 1)).all():
        raise ValueError("candidate matrix entries must be 0 or 1")
    for axis, what in ((-2, "sample {} has no candidate label"),
                       (-1, "class {} is not a candidate of any sample")):
        empty = Y.sum(axis=axis) == 0
        if empty.any():
            first = np.argwhere(empty)[0]
            where = f"episode {','.join(map(str, first[:-1]))}: " if Y.ndim > 2 else ""
            raise ValueError(where + what.format(first[-1]))


def compute_prototypes(Z: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Confidence-weighted mean embeddings: row c of the result is
    sum_i Q_ci z_i / sum_i Q_ci. Z is m x n_s, Q is l x n_s; returns l x m."""
    Z = np.asarray(Z, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if Z.shape[-1] != Q.shape[-1]:
        raise ValueError(f"sample count mismatch: Z {Z.shape} vs Q {Q.shape}")
    return _prototypes(Z.swapaxes(-1, -2), Q)


def _prototypes(ZT: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """compute_prototypes' kernel; ZT is Z.swapaxes(-1, -2)."""
    row_sums = Q.sum(axis=-1)
    if row_sums.min() <= 0:
        raise ValueError(f"class {np.argwhere(row_sums <= 0)[0, -1]} has no confident support")
    return (Q / row_sums[..., None]) @ ZT


def pairwise_distance(A: np.ndarray, B: np.ndarray, kind: str = "euclidean") -> np.ndarray:
    """Distances between columns of A (m x a) and B (m x b), an a x b matrix.

    Euclidean distances take sqrt_eps, the epsilon-shifted square root that
    the training loss and the reference graph's sqrt take too, so all three
    agree to the last bit.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape[-2] != B.shape[-2]:
        raise ValueError(f"pairwise_distance: dimension mismatch {A.shape} vs {B.shape}")
    if kind not in DISTANCE_KINDS:
        raise ValueError(f"distance must be one of {DISTANCE_KINDS}, got {kind!r}")
    return _distance(A, B, kind)


def _distance(A: np.ndarray, B: np.ndarray, kind: str) -> np.ndarray:
    """pairwise_distance's kernel."""
    d2 = sqdist(A, B)
    return sqrt_eps(d2) if kind == "euclidean" else d2


def update_confidence(D: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Softmax of negative distances, restricted to each sample's candidates.

    D is the l x n_s matrix of prototype-to-sample distances. Columns are
    shifted by their minimal candidate distance before exponentiation.
    """
    D = np.asarray(D, dtype=np.float64)
    Y = np.asarray(Y)
    if D.shape != Y.shape:
        raise ValueError(f"update_confidence: shape mismatch D {D.shape} vs Y {Y.shape}")
    cand = Y > 0
    if not cand.any(axis=-2).all():
        raise ValueError("a sample has no candidate label")
    return _confidence(D, cand)


def _confidence(D: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """update_confidence's kernel; cand is Y > 0, with a candidate in every
    column. Each column of D is shifted by its least candidate distance, so
    candidates get exponents <= 0. A non-candidate's exponent is clamped at
    0, so exp cannot overflow where it is far closer, and multiplying by cand
    then zeroes it as +0.0. Shifting D, not a copy holding -inf at the
    non-candidates, keeps exp off NumPy's slow special-value path."""
    if not np.isfinite(D).all():
        raise ValueError("update_confidence: distances must be finite")
    x = np.where(cand, D, np.inf)
    np.subtract(x.min(axis=-2, keepdims=True), D, out=x)
    np.minimum(x, 0.0, out=x)
    np.exp(x, out=x)
    x *= cand
    x /= x.sum(axis=-2, keepdims=True)
    return x


def knn_indices(Z: np.ndarray, k: int) -> np.ndarray:
    """Per-sample indices of the k nearest other samples, by Euclidean distance
    in embedding space, ties broken by ascending sample index. Returns n_s x k.

    A stack is handled one episode at a time: its n_s x n_s distance matrices
    stacked would cost memory and, at n_s = 100, time.

    Each row is ranked by NumPy's default (unstable, faster) argsort. When
    the first k + 1 distances of every row strictly increase, the k smallest
    are distinct and below every other entry, so any sort puts the same k
    indices first, in the same order. An episode with a tie, an inf or a NaN
    among them is ranked again by the stable sort, which breaks the ties."""
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[-1]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    flat = Z.reshape(-1, *Z.shape[-2:])
    out = np.empty((len(flat), n, k), dtype=np.intp)
    row_starts = np.arange(0, n * n, n)[:, None]  # flat index of each row's first entry
    for t, z in enumerate(flat):
        d2 = sqdist(z, z)
        np.fill_diagonal(d2, np.inf)
        order = d2.argsort(axis=1)[:, :k + 1]
        nearest = d2.take(order + row_starts)
        if not (nearest[:, 1:] > nearest[:, :-1]).all():
            order = _stable_order(d2)
        out[t] = order[:, :k]
    return out.reshape(*Z.shape[:-2], n, k)


def _stable_order(d2: np.ndarray) -> np.ndarray:
    """Row-wise argsort of d2 that breaks ties by ascending column index."""
    return d2.argsort(axis=1, kind="stable")


def smooth_confidence(Q: np.ndarray, Y: np.ndarray, neighbors: np.ndarray,
                      lam: float) -> np.ndarray:
    """Blend each sample's confidences with the mean of its neighbors', scaled
    by lam, over candidate labels only; renormalize columns to sum to 1.

    lam == 0 returns Q unchanged (no renormalization drift).
    """
    Q = np.asarray(Q, dtype=np.float64)
    neighbors = np.asarray(neighbors)
    if neighbors.ndim < 2 or neighbors.shape[-1] == 0:
        raise ValueError("smooth_confidence: neighbor lists are empty")
    if lam == 0:
        return Q.copy()
    cols = _neighbor_columns(neighbors, Q.shape[:-2], Q.shape[-1])
    return _smooth(Q, np.asarray(Y) > 0, cols, lam / len(cols))


def _neighbor_columns(neighbors: np.ndarray, lead: tuple[int, ...],
                      n: int) -> list[np.ndarray]:
    """The k neighbor index columns (..., n), each contiguous, as row indices
    into the (T * n) x l transpose of a confidence stack with leading axes
    `lead`: episode t's rows start at t * n."""
    if lead:  # one episode needs no offset
        neighbors = neighbors + n * np.arange(math.prod(lead)).reshape(*lead, 1, 1)
    return [np.ascontiguousarray(neighbors[..., j]) for j in range(neighbors.shape[-1])]


def _smooth(Q: np.ndarray, cand: np.ndarray, cols: list[np.ndarray],
            scale: float) -> np.ndarray:
    """smooth_confidence's kernel for lam > 0: cand is Y > 0, cols the
    _neighbor_columns of the neighbor lists, scale is lam / k, and Q >= 0, so
    multiplying by cand zeroes non-candidates as +0.0."""
    # Gather each neighbour's confidence columns as (..., n, l) rows of the
    # (T * n) x l transpose and add the k of them one at a time, in order. A
    # pairwise sum over k would move the last bit once k >= 8. take gathers
    # the same rows as fancy indexing, in a third of its time at n = 50.
    rows = Q.swapaxes(-1, -2).reshape(-1, Q.shape[-2])
    pooled = rows.take(cols[0], axis=0)
    for col in cols[1:]:
        pooled += rows.take(col, axis=0)
    pooled *= scale
    smoothed = Q + pooled.swapaxes(-1, -2)  # C-contiguous like Q: totals add rows in order
    smoothed *= cand
    totals = smoothed.sum(axis=-2, keepdims=True)
    if totals.min() <= 0:
        raise ValueError("smooth_confidence: a column lost all confidence mass")
    smoothed /= totals
    return smoothed


def rectify(Z: np.ndarray, Y: np.ndarray, cfg: RectifyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run the full rectification loop from uniform candidate confidence.

    Q starts as Y with each column normalized to sum to 1; each iteration
    recomputes prototypes, applies the candidate softmax update, then the
    neighbor smoothing. The neighbor graph is built once (Z is fixed here);
    an unset cfg.k is n_s // l - 1, shots per class minus one on a
    class-balanced episode. Returns (P, Q) with P recomputed from the final Q.

    The inputs are checked once, here; the loop runs on the steps' kernels
    and gives the bits of the public steps called in turn. Z's leading axes
    must broadcast to Y's, as the candidate softmax keeps Y's shape.
    """
    Z = np.asarray(Z, dtype=np.float64)
    Y = np.asarray(Y)
    validate_candidates(Y)
    if (Z.shape[-1] != Y.shape[-1]
            or np.broadcast_shapes(Z.shape[:-2], Y.shape[:-2]) != Y.shape[:-2]):
        raise ValueError(f"rectify: Z {Z.shape} does not match Y {Y.shape}")
    Q = Y / Y.sum(axis=-2, keepdims=True)
    ZT = Z.swapaxes(-1, -2)
    cand = Y > 0
    cols = None
    if cfg.iterations > 0 and cfg.lam > 0:
        k = cfg.k
        if k is None:
            shots = Y.shape[-1] // Y.shape[-2]
            cfg.check_k(Y.shape[-2], shots, "shots per class")
            k = shots - 1
        cols = _neighbor_columns(knn_indices(Z, k), Y.shape[:-2], Y.shape[-1])
    for _ in range(cfg.iterations):
        P = _prototypes(ZT, Q)
        Q = _confidence(_distance(P.swapaxes(-1, -2), Z, cfg.distance), cand)
        if cols is not None:
            Q = _smooth(Q, cand, cols, cfg.lam / len(cols))
    return _prototypes(ZT, Q), Q


def classify_proba(Z_q: np.ndarray, P: np.ndarray, kind: str = "euclidean") -> np.ndarray:
    """Posterior over classes per query: column-wise softmax of negative
    distances to the prototypes (max-shifted). Z_q is m x n_q, P is l x m."""
    Z_q = np.asarray(Z_q, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    if P.shape[-1] != Z_q.shape[-2]:
        raise ValueError(f"classify_proba: embedding dim mismatch P {P.shape} vs Z_q {Z_q.shape}")
    scores = -pairwise_distance(P.swapaxes(-1, -2), Z_q, kind)
    scores -= scores.max(axis=-2, keepdims=True)
    expd = np.exp(scores)
    return expd / expd.sum(axis=-2, keepdims=True)


def predict(probs: np.ndarray) -> np.ndarray:
    """Label index of each column's largest posterior; ties go to the lowest index."""
    return np.asarray(probs).argmax(axis=-2)
