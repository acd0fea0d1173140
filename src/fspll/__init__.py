"""Few-shot partial-label learning: episodic embedding training with iterative
prototype rectification, plus a synthetic paired benchmark harness."""

from .bench import BenchResult, BenchSpec, run_benchmark, sweep, write_report
from .embedding import (NetworkParams, NetworkSpec, embed, init_network,
                        load_checkpoint, save_checkpoint)
from .episodes import (CorruptionSpec, Episode, World, corrupt, episode_hash, make_world,
                       sample_episode)
from .pll_core import (RectifyConfig, classify_proba, compute_prototypes, knn_indices,
                       pairwise_distance, predict, rectify, smooth_confidence,
                       update_confidence)
from .trainer import (GradCheckResult, TrainConfig, TrainLog, grad_check, lr_at, meta_test,
                      meta_train)

__version__ = "0.1.0"

__all__ = [
    "BenchResult", "BenchSpec", "CorruptionSpec", "Episode", "GradCheckResult",
    "NetworkParams", "NetworkSpec", "RectifyConfig", "TrainConfig", "TrainLog",
    "World", "classify_proba", "compute_prototypes", "corrupt", "embed",
    "episode_hash", "grad_check", "init_network", "knn_indices", "load_checkpoint",
    "lr_at", "make_world", "meta_test", "meta_train", "pairwise_distance", "predict",
    "rectify", "run_benchmark", "sample_episode", "save_checkpoint",
    "smooth_confidence", "sweep", "update_confidence", "write_report",
]
