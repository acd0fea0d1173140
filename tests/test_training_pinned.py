"""Training pinned bit for bit: the SHA-256 of `fspll train`'s checkpoint.json
and log.csv. The bench reports round accuracies to six decimals, so they do
not see the last bits of the weights; these digests do. They cover per-task
stepping (configs/train_tiny.json) and batch-mean steps over stacks of tasks
(configs/train_bench.json, stacks of 4 of an epoch's 20 tasks; the inline
config adds a hidden layer, the squared distance and the supervised loss)."""

import hashlib
import os

import pytest

from fspll.cli import main

from test_cli import write_config

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def batch_mean_doc():
    return {
        "world": {"seed": 41, "classes": 20, "dim": 6, "sigma": 0.6},
        "train_classes": 12,
        "network": {"hidden_dims": [10], "output_dim": 5},
        "train": {"max_epoch": 6, "tasks_per_epoch": 9, "n_way": 6, "k_support": 4,
                  "k_query": 5, "lr0": 0.05, "init_seed": 42, "task_seed": 43,
                  "supervised_loss": True},
        "rectify": {"iterations": 10, "lambda": 0.5, "distance": "squared"},
        "corruption": {"p": 0.5, "r": 2},
    }


@pytest.mark.parametrize("config, expected", [
    ("train_tiny.json", {
        "checkpoint.json": "92bf37e31fb37987fb16dab46d6029541d5d0cd4ed3150f1488e72495ca4cca3",
        "log.csv": "b1cd178db9e323802ef2ebf7cfdc7f7836474a755f45599abcbe3a8f1b298643"}),
    ("train_bench.json", {
        "checkpoint.json": "cb79aa2551f1d26d16d92479391c85ca682a1e81d01dee8f24f638f7a60e97ee",
        "log.csv": "388605c5d318e33ec91c27e65f76f6abb40604d5bd7d876b45b05bcdba357668"}),
    (batch_mean_doc, {
        "checkpoint.json": "eea493affc2372ab4b51bf9f6360a0b61d5de0c9cae11d6bf87b05371a747e11",
        "log.csv": "69a08e5ae7e70347e8459a8645c232243fe57b68ce2605b1d32db758e09c0dec"}),
], ids=["per-task", "batch-mean", "batch-mean-supervised"])
def test_trained_checkpoint_bytes_are_pinned(tmp_path, config, expected):
    cfg = write_config(tmp_path, config()) if callable(config) \
        else os.path.join(CONFIGS, config)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in expected} == expected
