"""Minimal reverse-mode automatic differentiation over dense 2-D float64
arrays, and the builders of the reference loss graph.

A :class:`Graph` owns an ordered list of nodes: a tape. Nodes are created
through the graph's op methods and evaluated eagerly, so construction order is
already a topological order; ``backward`` walks it in reverse. A graph is
built for one set of leaf values; other values need a new graph.

The graph has only the ops that the builders at the bottom call. Together
they make up trainer.episode_loss_graph, the test reference for the fused
training gradient; training itself steps with trainer.episode_loss_grad and
imports nothing from here.
"""

from __future__ import annotations

import numpy as np

from .embedding import NetworkParams
from .pll_core import DISTANCE_KINDS, lse_cols, sqdist, sqrt_eps


class Tensor:
    """One node of a computation graph: a 2-D float64 value with a gradient slot."""

    __slots__ = ("graph", "node_id", "op", "parents", "values", "grad", "cache")

    def __init__(self, graph: "Graph", node_id: int, op: str | None,
                 parents: tuple[int, ...], values: np.ndarray):
        self.graph = graph
        self.node_id = node_id
        self.op = op
        self.parents = parents
        self.values = values
        self.grad = np.zeros_like(values)
        self.cache: dict = {}

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def is_leaf(self) -> bool:
        return self.op is None

    def __repr__(self):
        return f"Tensor(id={self.node_id}, op={self.op!r}, shape={self.shape})"


class Graph:
    """Computation graph. Single-writer: backward must not run concurrently."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    # -- construction -----------------------------------------------------

    def _new(self, op: str | None, parents: tuple[Tensor, ...], values: np.ndarray) -> Tensor:
        node = Tensor(self, len(self.nodes), op, tuple(p.node_id for p in parents), values)
        self.nodes.append(node)
        return node

    def leaf(self, values) -> Tensor:
        """Create an input node holding a C-contiguous copy of the given 2-D values."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"only 2-D tensors are supported, got ndim={arr.ndim}")
        return self._new(None, (), arr.copy())

    def _parent_values(self, node: Tensor) -> list[np.ndarray]:
        return [self.nodes[i].values for i in node.parents]

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")
        return self._new("mul", (a, b), a.values * b.values)

    def scale(self, x: Tensor, c: float) -> Tensor:
        node = self._new("scale", (x,), float(c) * x.values)
        node.cache["c"] = float(c)
        return node

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul: shape mismatch {a.shape} vs {b.shape}")
        return self._new("matmul", (a, b), a.values @ b.values)

    def add_bias(self, x: Tensor, bias: Tensor) -> Tensor:
        """x + bias, with bias a column vector broadcast across x's columns."""
        if bias.shape != (x.shape[0], 1):
            raise ValueError(f"add_bias: shape mismatch {x.shape} vs {bias.shape}")
        return self._new("add_bias", (x, bias), x.values + bias.values)

    def sub_row(self, x: Tensor, row: Tensor) -> Tensor:
        """x - row, with row a 1-row vector broadcast down x's rows."""
        if row.shape != (1, x.shape[1]):
            raise ValueError(f"sub_row: shape mismatch {x.shape} vs {row.shape}")
        return self._new("sub_row", (x, row), x.values - row.values)

    def relu(self, x: Tensor) -> Tensor:
        return self._new("relu", (x,), np.maximum(x.values, 0.0))

    def exp(self, x: Tensor) -> Tensor:
        return self._new("exp", (x,), np.exp(x.values))

    def log(self, x: Tensor) -> Tensor:
        return self._new("log", (x,), np.log(x.values))

    def sqrt(self, x: Tensor) -> Tensor:
        """Elementwise square root; arguments below SQRT_EPS are shifted by it."""
        return self._new("sqrt", (x,), sqrt_eps(x.values))

    def pairwise_sqdist(self, a: Tensor, b: Tensor) -> Tensor:
        """Squared Euclidean distances between columns of a (m,p) and b (m,q) -> (p,q)."""
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"pairwise_sqdist: shape mismatch {a.shape} vs {b.shape}")
        return self._new("pairwise_sqdist", (a, b), sqdist(a.values, b.values))

    def col_sum(self, x: Tensor) -> Tensor:
        return self._new("col_sum", (x,), x.values.sum(axis=0, keepdims=True))

    def sum_all(self, x: Tensor) -> Tensor:
        return self._new("sum_all", (x,), x.values.sum().reshape(1, 1))

    def logsumexp_cols(self, x: Tensor) -> Tensor:
        """Column-wise log-sum-exp, max-shifted: (r,c) -> (1,c)."""
        node = self._new("logsumexp_cols", (x,), lse_cols(x.values))
        node.cache["softmax"] = np.exp(x.values - node.values)
        return node

    def col_max(self, x: Tensor) -> Tensor:
        """Column-wise maximum (1,c); subgradient routed to the first argmax per column."""
        node = self._new("col_max", (x,), x.values.max(axis=0, keepdims=True))
        node.cache["argmax"] = x.values.argmax(axis=0)
        return node

    # -- differentiation ---------------------------------------------------

    def backward(self, sink: Tensor) -> None:
        """Accumulate d(sink)/d(node) into every node's grad.

        Repeated calls accumulate. The sink must be 1x1.
        """
        if sink.graph is not self:
            raise ValueError("sink belongs to a different graph")
        if sink.shape != (1, 1):
            raise ValueError(f"backward requires a scalar (1x1) sink, got shape {sink.shape}")
        seed = {sink.node_id: np.ones((1, 1))}
        for node in reversed(self.nodes[: sink.node_id + 1]):
            g = seed.pop(node.node_id, None)
            if g is None:
                continue
            node.grad = node.grad + g
            if not node.is_leaf():
                for pid, pg in zip(node.parents, self._vjp(node, g)):
                    if pid in seed:
                        seed[pid] = seed[pid] + pg
                    else:
                        seed[pid] = pg

    def _vjp(self, node: Tensor, g: np.ndarray) -> list[np.ndarray]:
        op = node.op
        pv = self._parent_values(node)
        if op == "mul":
            return [g * pv[1], g * pv[0]]
        if op == "scale":
            return [node.cache["c"] * g]
        if op == "matmul":
            return [g @ pv[1].T, pv[0].T @ g]
        if op == "add_bias":
            return [g, g.sum(axis=1, keepdims=True)]
        if op == "sub_row":
            return [g, -g.sum(axis=0, keepdims=True)]
        if op == "relu":
            return [g * (pv[0] > 0.0)]  # subgradient 0 at the kink
        if op == "exp":
            return [g * node.values]
        if op == "log":
            return [g / pv[0]]
        if op == "sqrt":
            return [g * 0.5 / node.values]
        if op == "pairwise_sqdist":
            a, b = pv
            ga = 2.0 * (a * g.sum(axis=1)[None, :] - b @ g.T)
            gb = 2.0 * (b * g.sum(axis=0)[None, :] - a @ g)
            return [ga, gb]
        if op == "col_sum":
            return [np.broadcast_to(g, pv[0].shape).copy()]
        if op == "sum_all":
            return [np.full(pv[0].shape, g[0, 0])]
        if op == "logsumexp_cols":
            return [g * node.cache["softmax"]]
        if op == "col_max":
            gx = np.zeros_like(pv[0])
            gx[node.cache["argmax"], np.arange(pv[0].shape[1])] = g[0]
            return [gx]
        raise ValueError(f"unknown op {op!r}")


# -- builders of the reference loss graph ---------------------------------------

def param_leaves(graph: Graph, params: NetworkParams) -> list[tuple[Tensor, Tensor]]:
    """Bind the network parameters as graph leaves, one (W, b) pair per layer."""
    return [(graph.leaf(w), graph.leaf(b))
            for w, b in zip(params.weights, params.biases)]


def embed_nodes(graph: Graph, layers: list[tuple[Tensor, Tensor]], x: Tensor) -> Tensor:
    """Differentiable counterpart of embed(), built from graph leaves."""
    h = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = graph.add_bias(graph.matmul(w, h), b)
        if i < last:
            h = graph.relu(h)
    return h


def prototype_nodes(graph: Graph, z: Tensor, Q: np.ndarray) -> Tensor:
    """Prototypes as graph nodes, columns = classes (m x l). Q is a constant:
    gradients flow into the support embeddings only."""
    Q = np.asarray(Q, dtype=np.float64)
    row_sums = Q.sum(axis=1)
    if (row_sums <= 0).any():
        raise ValueError("prototype_nodes: a class has no confident support")
    weights = (Q / row_sums[:, None]).T
    return graph.matmul(z, graph.leaf(weights))


def distance_nodes(graph: Graph, a: Tensor, b: Tensor, kind: str = "euclidean") -> Tensor:
    if kind not in DISTANCE_KINDS:
        raise ValueError(f"distance must be one of {DISTANCE_KINDS}, got {kind!r}")
    d2 = graph.pairwise_sqdist(a, b)
    return graph.sqrt(d2) if kind == "euclidean" else d2


def posterior_nodes(graph: Graph, distances: Tensor) -> Tensor:
    """Column-wise softmax of negative distances, via exp(x - logsumexp(x))."""
    neg = graph.scale(distances, -1.0)
    return graph.exp(graph.sub_row(neg, graph.logsumexp_cols(neg)))


def loss_nodes(graph: Graph, probs: Tensor) -> Tensor:
    """Mean negative log of per-column maxima, as a 1x1 node."""
    n_q = probs.shape[1]
    return graph.scale(graph.sum_all(graph.log(graph.col_max(probs))), -1.0 / n_q)


def supervised_loss_nodes(graph: Graph, probs: Tensor, truth: np.ndarray) -> Tensor:
    """Cross-entropy against known query labels (ablation-only training loss):
    mean negative log of each column's true-label entry."""
    truth = np.asarray(truth, dtype=int)
    l, n_q = probs.shape
    if truth.shape != (n_q,):
        raise ValueError(f"truth must have one label per query, got {truth.shape}")
    mask = np.zeros((l, n_q))
    mask[truth, np.arange(n_q)] = 1.0
    picked = graph.col_sum(graph.mul(probs, graph.leaf(mask)))
    return graph.scale(graph.sum_all(graph.log(picked)), -1.0 / n_q)
