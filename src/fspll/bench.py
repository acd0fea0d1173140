"""Paired benchmark harness: the methods of fspll.config.METHODS, sweeps,
CSV/JSON reports.

One run plan drives training and scoring: before anything is trained, each
(cell, method) pair is derived once from the METHODS table as (training config,
effective test config). BenchSpec checks each key's range; the plan checks each
rule that ties keys together or to the world. "Plus" methods meta-train on
clean labels, the others under their cell's corruption (never the train
config's own). On clean labels (r = 0, or floor(p * n_s) = 0 hit samples of a
cell's or training task's n_s) rectification is the identity:
trainer.effective_rectify keeps only a config's rectify distance, the plan sets
r = 0, and no k is checked or used. A checkpoint is trained once per distinct
training config: every method of an r = 0 cell, and both "plus" methods, share
one. score_rounds draws a base cell's rounds once, in stacks, keeping one
content hash per round for auditing, and scores each distinct run on every
stack: every method, and every value of a sweep, sees the same episodes.
`fspll test` scores through it too, with the same effective config. meta.json
records the plan, keying each distinct training config in plan order, and its
config_hash hashes that record.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import DEFAULTS, KEYS, METHODS, check, check_value
from .embedding import NetworkParams
from .episodes import CorruptionSpec, World, draw_episodes, episode_hash
from .pll_core import RectifyConfig, stack_size
from .trainer import TrainConfig, check_training, effective_rectify, meta_test, meta_train


@dataclass(frozen=True)
class Cell:
    """One evaluation setting of the grid, optionally tagged by a sweep value."""

    n_way: int
    k_shot: int
    r: int
    p: float
    axis: str | None = None
    axis_value: float | None = None

    def label(self) -> str:
        tag = f"N{self.n_way}-K{self.k_shot}-r{self.r}-p{self.p:g}"
        if self.axis is not None:
            tag += f"-{self.axis}{self.axis_value:g}"
        return tag


@dataclass
class BenchSpec:
    """Everything a benchmark run depends on. Every method derives its rectify
    config from the train config's; the corruption is set per method/cell."""

    world: World
    train: TrainConfig
    n_way: list[int]
    k_shot: list[int]
    r: list[int]
    p: float
    rounds: int
    methods: list[str]
    k_query: int
    eval_seed: int

    def __post_init__(self):
        check({f"bench.{key}": getattr(self, key) for key in DEFAULTS["bench"]})

    def cells(self) -> list[Cell]:
        """The grid's cells: n_way outermost, then k_shot, then r."""
        return [Cell(n, k, r, self.p) for n in self.n_way for k in self.k_shot for r in self.r]


def check_held_out(world: World, train_classes: int, n_way: int, key: str) -> None:
    """Reject a class split whose held-out pool (the world classes from
    train_classes on) cannot fill an n_way-way episode."""
    if not 0 <= train_classes <= world.classes:
        raise ValueError(f"train_classes={train_classes} must be between 0 and "
                         f"the world's {world.classes} classes")
    held_out = world.classes - train_classes
    if held_out < n_way:
        raise ValueError(f"held-out pool ({held_out} classes) is smaller than {key}={n_way}: "
                         f"the world's {world.classes} classes minus train_classes={train_classes}")


@dataclass
class BenchResult:
    """Per (cell, method) accuracy lists plus the audit metadata."""

    cells: list[Cell]
    methods: list[str]
    accuracies: dict[tuple[str, str], list[float]]  # (cell label, method) -> per-round acc
    meta: dict  # its "episode_hashes" maps each cell label to its per-round hashes

    def mean(self, cell_label: str, method: str) -> float:
        return float(np.mean(self.accuracies[(cell_label, method)]))

    def std(self, cell_label: str, method: str) -> float:
        return float(np.std(self.accuracies[(cell_label, method)]))  # population std


def config_hash(plan: dict) -> str:
    blob = json.dumps(plan, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _train_config(spec: BenchSpec, rect: RectifyConfig, clean: bool, r_cell: int
                  ) -> TrainConfig:
    """The config that trains a checkpoint rectifying by rect for a cell with
    r_cell, on clean labels if `clean`, checked by check_training and holding
    the rectification it runs."""
    corruption = CorruptionSpec(spec.p, 0 if clean else r_cell)
    if corruption.exact(spec.train.n_way * spec.train.k_support):  # r draws nothing
        corruption = replace(corruption, r=0)
    train = replace(spec.train, rectify=rect, corruption=corruption)
    return replace(train, rectify=check_training(train, spec.world, "bench.r")[1])


def score_rounds(world: World, train_classes: int, k_query: int, eval_seed: int, cell: Cell,
                 rounds: int, runs: list[tuple[NetworkParams, RectifyConfig]]
                 ) -> tuple[list[str], list[list[float]]]:
    """Draw the cell's rounds and score each (checkpoint, test rectify config)
    run on them; return the per-round hashes and each run's per-round
    accuracies.

    Round i is drawn on the held-out classes (every world class from
    train_classes on) from its own stream and corrupted by the cell's (p, r);
    the rounds are drawn and scored in stacks, in round order. The stream key
    leaves out method and sweep axis, so every run sees the same episodes."""
    held_out = np.arange(train_classes, world.classes)
    corruption = CorruptionSpec(cell.p, cell.r)
    size = stack_size(runs[0][0].spec, cell.n_way, cell.k_shot, k_query)
    hashes, accuracies = [], [[] for _ in runs]
    for start in range(0, rounds, size):
        rngs = [np.random.default_rng([eval_seed, cell.n_way, cell.k_shot, cell.r, i])
                for i in range(start, min(start + size, rounds))]
        episodes = draw_episodes(world, held_out, cell.n_way, cell.k_shot, k_query,
                                 corruption, rngs)
        hashes.extend(episode_hash(episodes))
        for (params, test), accs in zip(runs, accuracies):
            accs.extend(meta_test(params, episodes, test)[1].tolist())
    return hashes, accuracies


def _run_cells(spec: BenchSpec, cells: list[Cell], retrain: bool) -> BenchResult:
    """Score each method of spec.methods on each cell, on the episode stream
    of its base cell (the cell without its sweep tag). A method's rectify
    config is the train config's with its METHODS changes; a sweep-tagged cell
    then sets its axis's rectify field at test time, and in training too if
    `retrain`. The run plan maps each base cell to (cell label, method) ->
    (training config, effective test config), and each cell and config is
    checked (check_held_out, effective_rectify, check_training) before any training.
    meta["plan"] records it, and config_hash hashes that record."""
    plan: dict[Cell, dict[tuple[str, str], tuple[TrainConfig, RectifyConfig]]] = {}
    train_keys: dict[TrainConfig, str] = {}
    for cell in cells:
        corruption = CorruptionSpec(cell.p, cell.r)
        corruption.check_n_way(cell.n_way, "bench.r", "bench.n_way")
        check_held_out(spec.world, spec.train.train_classes, cell.n_way, "bench.n_way")
        runs = plan.setdefault(replace(cell, axis=None, axis_value=None), {})
        swept = {} if cell.axis is None else \
            {"lam": cell.axis_value} if cell.axis == "lambda" else {"k": int(cell.axis_value)}
        for name in spec.methods:
            changes, clean = METHODS[name]
            rect = replace(spec.train.rectify, **changes)
            test = effective_rectify(replace(rect, **swept), corruption, cell.n_way, cell.k_shot,
                                     f"cell {cell.label()}: k_shot")
            train = _train_config(spec, replace(rect, **swept) if retrain else rect, clean, cell.r)
            runs[(cell.label(), name)] = (train, test)
            train_keys.setdefault(train, f"t{len(train_keys)}")
    checkpoints: dict[TrainConfig, NetworkParams] = {}
    accuracies: dict[tuple[str, str], list[float]] = {}
    hashes: dict[str, list[str]] = {}
    for base, runs in plan.items():
        distinct = list(dict.fromkeys(runs.values()))
        for train, _ in distinct:
            if train not in checkpoints:
                checkpoints[train] = meta_train(train, spec.world)[0]
        drawn, accs = score_rounds(spec.world, spec.train.train_classes, spec.k_query,
                                   spec.eval_seed, base, spec.rounds,
                                   [(checkpoints[train], test) for train, test in distinct])
        scored = dict(zip(distinct, accs))
        for (label, name), run in runs.items():
            hashes[label] = list(drawn)
            accuracies[(label, name)] = list(scored[run])
    record = {"world": {key: getattr(spec.world, key) for key in DEFAULTS["world"]},
              "train_classes": spec.train.train_classes,
              "k_query": spec.k_query, "eval_seed": spec.eval_seed, "rounds": spec.rounds,
              "train": {key: asdict(train) for train, key in train_keys.items()},
              "runs": {f"{label} {name}": {"train": train_keys[train], "test": asdict(test)}
                       for runs in plan.values() for (label, name), (train, test) in runs.items()}}
    meta = {
        "plan": record,
        "config_hash": config_hash(record),
        "std": "population",
        "methods": list(spec.methods),
        "cells": [c.label() for c in cells],
        "episode_hashes": hashes,
    }
    return BenchResult(list(cells), meta["methods"], accuracies, meta)


def run_benchmark(spec: BenchSpec) -> BenchResult:
    """Train the required checkpoints and score every (cell, method) pair over
    paired episode rounds."""
    return _run_cells(spec, spec.cells(), False)


def sweep(spec: BenchSpec, axis: str, values: list[float], retrain: bool) -> BenchResult:
    """One paired benchmark per axis value: each grid cell, tagged by each
    value, scored on its base cell's episodes.

    axis "lambda" varies the smoothing trade-off, axis "k" the neighbor count
    (an integer), both at meta-test time; each value must lie in that rectify
    key's range. retrain=True also trains each lambda value's checkpoint with
    it; a k sweep cannot. The plan checks k only on the runs that smooth.
    """
    check({"sweep.axis": axis, "sweep.values": values})
    if retrain and axis == "k":
        raise ValueError("sweep.retrain must be false when sweep.axis is 'k'")
    tags: dict[str, int] = {}
    for i, v in enumerate(values):
        check_value(f"sweep.values[{i}]", v, KEYS[f"rectify.{axis}"].domain)
        if axis == "k" and int(v) != v:
            raise ValueError(f"sweep.values[{i}] must be an integer for axis k, got {v}")
        tag = f"{axis}{float(v):g}"  # as Cell.label tags the value's cells
        if tags.setdefault(tag, i) != i:  # else its rows overwrite the earlier value's
            raise ValueError(f"sweep.values[{i}]={v!r} gives the cell tag {tag} "
                             f"of sweep.values[{tags[tag]}]")
    return _run_cells(spec, [replace(cell, axis=axis, axis_value=float(v))
                             for cell in spec.cells() for v in values], retrain)


def write_report(result: BenchResult, out_dir) -> dict[str, str]:
    """Emit rounds.csv, summary.csv and meta.json into out_dir (created if
    missing). Emission is deterministic: same result, same bytes."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ("rounds.csv", "summary.csv", "meta.json")}

    with open(paths["rounds.csv"], "w", encoding="utf-8") as rounds, \
            open(paths["summary.csv"], "w", encoding="utf-8") as summary:
        rounds.write("cell,method,round,accuracy\n")
        summary.write("cell,method,mean,std\n")
        for cell in result.cells:
            label = cell.label()
            for method in result.methods:
                for i, acc in enumerate(result.accuracies[(label, method)]):
                    rounds.write(f"{label},{method},{i},{acc:.6f}\n")
                summary.write(f"{label},{method},"
                              f"{result.mean(label, method):.6f},{result.std(label, method):.6f}\n")

    with open(paths["meta.json"], "w", encoding="utf-8") as fh:
        json.dump(result.meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return paths
