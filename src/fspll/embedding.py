"""Feed-forward embedding network: an MLP mapping feature vectors to the
metric space in which prototypes live. Relu on hidden layers, identity output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import check, check_fields, check_type


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of the embedding network (input -> hidden... -> output)."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        # the input is the world's features, so input_dim takes world.dim's range
        check({"world.dim": self.input_dim, "network.hidden_dims": self.hidden_dims,
               "network.output_dim": self.output_dim})
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))

    def layer_dims(self) -> list[tuple[int, int]]:
        """(out_dim, in_dim) per affine layer."""
        dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


@dataclass
class NetworkParams:
    """Per-layer weight matrices (out x in) and bias column vectors (out x 1)."""

    spec: NetworkSpec
    seed: int
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


def init_network(spec: NetworkSpec, seed: int) -> NetworkParams:
    """He-initialized weights (std sqrt(2/in_dim)), zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for out_dim, in_dim in spec.layer_dims():
        weights.append(rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(out_dim, in_dim)))
        biases.append(np.zeros((out_dim, 1)))
    return NetworkParams(spec, seed, weights, biases)


def embed_layers(params: NetworkParams, X: np.ndarray) -> list[np.ndarray]:
    """Forward pass that keeps every activation: entry 0 is the d x n input,
    entry i the output of layer i (after relu on hidden layers), the last
    entry the m x n embeddings. The fused training gradient backpropagates
    through these. A stack X of shape (..., d, n) gives stacked activations,
    each episode's the same bits as on its own."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2 or X.shape[-2] != params.spec.input_dim:
        raise ValueError(
            f"embed: expected {params.spec.input_dim} feature rows, got shape {X.shape}")
    layers = [X]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = w @ layers[-1] + b
        layers.append(np.maximum(h, 0.0) if i < last else h)
    return layers


def embed(params: NetworkParams, X: np.ndarray) -> np.ndarray:
    """Map a d x n feature matrix (or a stack of them) through the network;
    returns m x n embeddings."""
    return embed_layers(params, X)[-1]


def save_checkpoint(params: NetworkParams, path) -> None:
    """Write spec, seed and per-layer arrays as JSON (row-major, repr floats,
    which round-trip float64 bit-exactly)."""
    doc = {
        "input_dim": params.spec.input_dim,
        "hidden_dims": list(params.spec.hidden_dims),
        "output_dim": params.spec.output_dim,
        "seed": params.seed,
        "layers": [
            {"weights": w.tolist(), "bias": b[:, 0].tolist()}
            for w, b in zip(params.weights, params.biases)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# checkpoint field -> the config key whose type and range it takes; layers
# has none and is checked against the spec
CHECKPOINT_FIELDS = {"input_dim": "world.dim", "hidden_dims": "network.hidden_dims",
                     "output_dim": "network.output_dim", "seed": "train.init_seed",
                     "layers": None}


def load_checkpoint(path) -> NetworkParams:
    """Read a save_checkpoint file. An unreadable or malformed one raises the
    ValueError `checkpoint <path>: <reason>`; a malformed one's names the field."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return _checkpoint_params(json.loads(text))
    except OSError as exc:
        raise ValueError(f"checkpoint {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # invalid JSON, and bytes that are not UTF-8, are ones too
        raise ValueError(f"checkpoint {path}: {exc}") from None


def _checkpoint_params(doc) -> NetworkParams:
    check_fields(doc, CHECKPOINT_FIELDS)
    spec = NetworkSpec(doc["input_dim"], doc["hidden_dims"], doc["output_dim"])
    layers = doc["layers"]
    check_type("field layers", layers, [{}])
    if len(layers) != len(spec.layer_dims()):
        raise ValueError(f"field layers lists {len(layers)} layers, "
                         f"but the spec has {len(spec.layer_dims())}")
    params = NetworkParams(spec, doc["seed"])
    for i, ((out_dim, in_dim), layer) in enumerate(zip(spec.layer_dims(), layers)):
        for part, example in (("weights", [[0.0]]), ("bias", [0.0])):
            if part not in layer:
                raise ValueError(f"field layers[{i}].{part} is missing")
            check_type(f"field layers[{i}].{part}", layer[part], example)
        if len(layer["weights"]) != out_dim or len(layer["bias"]) != out_dim \
                or any(len(row) != in_dim for row in layer["weights"]):
            raise ValueError(f"field layers[{i}] does not have the spec's shape: "
                             f"{out_dim} weight rows of {in_dim} and {out_dim} biases")
        params.weights.append(np.asarray(layer["weights"], dtype=np.float64))
        params.biases.append(np.asarray(layer["bias"], dtype=np.float64).reshape(-1, 1))
    return params
