"""Golden report digests: the bytes of a small bench and a small lambda sweep.

The reports round accuracies to six decimals, so these digests move when a
change flips a prediction, not with every last-bit change (test_stacking.py
checks those bit for bit). The bench covers a 10-way 10-shot r = 2 cell, where
smoothing runs with k = 9 neighbours, next to a 5-way cell and r = 0 cells;
its checkpoints train with batch-mean SGD over 6 tasks per epoch.
"""

import hashlib

import pytest

from fspll.cli import main

from test_cli import write_config


def golden_doc():
    return {
        "world": {"seed": 21, "classes": 24, "dim": 6, "sigma": 0.5},
        "train_classes": 12,
        "network": {"hidden_dims": [8], "output_dim": 6},
        "train": {"max_epoch": 3, "tasks_per_epoch": 6, "n_way": 5, "k_support": 4,
                  "k_query": 5, "init_seed": 22, "task_seed": 23},
        "rectify": {"iterations": 10, "lambda": 0.5},
        "bench": {"n_way": [5, 10], "k_shot": [10], "r": [0, 2], "rounds": 7,
                  "methods": ["fspll", "pn"], "k_query": 6, "eval_seed": 24},
        "sweep": {"axis": "lambda", "values": [0.0, 0.5, 2.0]},
    }


def sweep_doc():
    doc = golden_doc()
    doc["bench"] = dict(doc["bench"], n_way=[10], r=[2], rounds=5, methods=["fspll"])
    return doc


def digests(out_dir):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("summary.csv", "rounds.csv")}


@pytest.mark.parametrize("command, doc, expected", [
    ("bench", golden_doc, {
        "summary.csv": "bb93797cdba5b64826a5d614e54af5466f3c3e304f163abd44af9a7d10dc0b9e",
        "rounds.csv": "d3f8b906543e578bbc1cf3c28e03a73d604f65ea643ee030032fd45966518fc7"}),
    ("sweep", sweep_doc, {
        "summary.csv": "5ecc1f38cf978c269d52a87770e7af3573e732ac6d5c7c727eee5dd1338df518",
        "rounds.csv": "e8735df49d2b803f0275d3e2fbd2d8147864c747e6b34d56503548a7bea007c5"}),
], ids=["bench", "sweep"])
def test_report_bytes_are_pinned(tmp_path, command, doc, expected):
    cfg = write_config(tmp_path, doc())
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert digests(out) == expected
