"""Paired benchmark harness: ablation variants, multi-round evaluation,
sensitivity sweeps, CSV/JSON report emission.

All methods of a grid cell are scored on the identical per-round episode
stream (one content hash per round is kept for auditing). Rounds are drawn
and scored in stacks of equal-shape episodes; each round's episode comes from
its own stream key, so stacking changes no result. Checkpoints are
trained once per distinct training signature and shared; "plus" variants
meta-train on clean labels, everything else meta-trains under the same
corruption as the cell it is evaluated in. On clean labels (r = 0 or p = 0)
rectification is the identity, so a clean-label signature keeps only the
distance of its rectify config (and r = 0): every method of an r = 0 cell,
and both "plus" variants, share one checkpoint. Likewise a stack of rounds is
scored once per (checkpoint, effective test config), and every method of an
r = 0 cell shares one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .embedding import NetworkParams
from .episodes import CorruptionSpec, World, corrupt, episode_hash, sample_episode, world_to_manifest
from .pll_core import RectifyConfig, stack_size
from .trainer import TrainConfig, meta_test, meta_train

METHODS = ("fspll", "fspll-nm", "pn", "fspll-plus", "pn-plus")

SWEEP_AXES = ("lambda", "k")


@dataclass(frozen=True)
class MethodVariant:
    """One configured pipeline: how to rectify during training and testing,
    and whether meta-training sees clean labels."""

    name: str
    train_rectify: RectifyConfig
    test_rectify: RectifyConfig
    clean_meta_train: bool


def method_variant(name: str, base: RectifyConfig | None = None) -> MethodVariant:
    """fspll: the full pipeline; fspll-nm: smoothing disabled (lam=0);
    pn: no rectification (0 iterations, prototypes from uniform candidate
    confidence); *-plus: same pipelines but meta-trained on clean labels."""
    base = base if base is not None else RectifyConfig()
    if name == "fspll":
        return MethodVariant(name, base, base, False)
    if name == "fspll-nm":
        cfg = replace(base, lam=0.0)
        return MethodVariant(name, cfg, cfg, False)
    if name == "pn":
        cfg = replace(base, iterations=0)
        return MethodVariant(name, cfg, cfg, False)
    if name == "fspll-plus":
        return MethodVariant(name, base, base, True)
    if name == "pn-plus":
        cfg = replace(base, iterations=0)
        return MethodVariant(name, cfg, cfg, True)
    raise ValueError(f"unknown method {name!r}; valid methods: {', '.join(METHODS)}")


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
    n_way: list[int] = field(default_factory=lambda: [5, 10])
    k_shot: list[int] = field(default_factory=lambda: [5, 10])
    r: list[int] = field(default_factory=lambda: [0, 1, 2])
    p: float = 1.0
    rounds: int = 50
    methods: list[str] = field(default_factory=lambda: ["fspll", "fspll-nm", "pn"])
    k_query: int = 15
    eval_seed: int = 1

    def __post_init__(self):
        for key in ("rounds", "k_query"):
            if getattr(self, key) < 1:
                raise ValueError(f"bench.{key} must be >= 1, got {getattr(self, key)}")
        for key in ("n_way", "k_shot", "r", "methods"):
            if not getattr(self, key):
                raise ValueError(f"bench.{key} must list at least one value")
        for key in ("n_way", "k_shot"):
            if min(getattr(self, key)) < 1:
                raise ValueError(f"bench.{key} must be >= 1, got {min(getattr(self, key))}")
        if min(self.r) < 0:
            raise ValueError(f"bench.r must be >= 0, got {min(self.r)}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"bench.p must be in [0, 1], got {self.p}")
        r_max = max(self.r)
        if r_max > min(self.n_way) - 1:
            raise ValueError(f"bench.r={r_max} needs r + 1 classes per episode, "
                             f"but the smallest bench.n_way is {min(self.n_way)}")
        variants = [method_variant(m, self.train.rectify) for m in self.methods]
        # the r values a checkpoint trains under; "plus" variants train clean
        trained = [r for r in self.r if not CorruptionSpec(self.p, r).exact] \
            if any(not v.clean_meta_train for v in variants) else []
        if max(trained, default=0) > self.train.n_way - 1:
            raise ValueError(f"bench.r={max(trained)} needs r + 1 classes per training task, "
                             f"but train.n_way is {self.train.n_way}")
        n_train = self.train.train_classes  # None: every class, so none held out
        check_held_out(self.world, self.world.classes if n_train is None else n_train,
                       max(self.n_way), "bench.n_way")

    def signature(self) -> dict:
        """Canonical JSON-ready description; hashing it identifies the run."""
        doc = dataclasses.asdict(self)
        doc["world"] = world_to_manifest(self.world)
        return doc


def check_held_out(world: World, train_classes: int, n_way: int, key: str) -> None:
    """Reject a class split whose held-out pool (the world classes from
    train_classes on) cannot fill an n_way-way episode; `key` names n_way."""
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
    episode_hashes: dict[str, list[str]]            # cell label -> per-round hash
    meta: dict

    def mean(self, cell_label: str, method: str) -> float:
        return float(np.mean(self.accuracies[(cell_label, method)]))

    def std(self, cell_label: str, method: str) -> float:
        return float(np.std(self.accuracies[(cell_label, method)]))  # population std


def config_hash(signature: dict) -> str:
    blob = json.dumps(signature, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _effective(rect: RectifyConfig, corruption: CorruptionSpec) -> RectifyConfig:
    """A rectify config that gives rect's results under corruption: on exact
    labels rectification is the identity, and only the distance counts."""
    return RectifyConfig(iterations=0, distance=rect.distance) if corruption.exact else rect


def _train_config(spec: BenchSpec, variant: MethodVariant, r_cell: int) -> TrainConfig:
    """The config that trains a variant's checkpoint for a cell with r_cell."""
    corruption = CorruptionSpec(spec.p, 0 if variant.clean_meta_train else r_cell)
    rect = _effective(variant.train_rectify, corruption)
    if corruption.exact:  # no label is ambiguous, and r draws nothing
        corruption = replace(corruption, r=0)
    return replace(spec.train, rectify=rect, corruption=corruption)


def _train_for(spec: BenchSpec, variant: MethodVariant, r_cell: int,
               cache: dict) -> NetworkParams:
    cfg = _train_config(spec, variant, r_cell)
    key = (cfg.rectify, cfg.corruption)
    if key not in cache:
        params, _ = meta_train(cfg, spec.world)
        cache[key] = params
    return cache[key]


def _stream_rng(eval_seed: int, cell: Cell, round_no: int) -> np.random.Generator:
    # The stream key deliberately excludes method and sweep axis so paired
    # comparisons consume identical episodes.
    return np.random.default_rng([eval_seed, cell.n_way, cell.k_shot, cell.r, round_no])


def _round_chunks(world: World, train_classes: int, k_query: int, eval_seed: int,
                  cell: Cell, rounds: int, size: int):
    """Yield the cell's rounds as episode stacks in round order, `size` rounds
    at a time. Each round's episode is drawn on the held-out classes (every
    world class from train_classes on) from its own stream and corrupted by
    the cell's (p, r)."""
    held_out = np.arange(train_classes, world.classes)
    corruption = CorruptionSpec(cell.p, cell.r)
    for start in range(0, rounds, size):
        rngs = [_stream_rng(eval_seed, cell, r) for r in range(start, min(start + size, rounds))]
        class_ids = np.stack([rng.choice(held_out, size=cell.n_way, replace=False)
                              for rng in rngs])
        episodes = sample_episode(world, class_ids, cell.k_shot, k_query, rngs)
        yield corrupt(episodes, corruption, rngs)


def _run_cells(spec: BenchSpec, cells: list[Cell],
               variants: dict[str, list[MethodVariant]]) -> BenchResult:
    """Evaluate every cell. `variants` maps each cell label to the method
    pipelines to score on that cell's shared episode stream. Methods that
    share a checkpoint and an effective test config (every method of an
    exact-label cell does) are scored once."""
    for cell in cells:  # fail before any checkpoint is trained
        for variant in variants[cell.label()]:
            variant.test_rectify.resolve_k(cell.n_way, cell.k_shot, f"cell {cell.label()}: k_shot")
            _train_config(spec, variant, cell.r).resolved_rectify()
    accuracies: dict[tuple[str, str], list[float]] = {}
    hashes: dict[str, list[str]] = {}
    cache: dict = {}
    for cell in cells:
        label = cell.label()
        cell_variants = variants[label]
        corruption = CorruptionSpec(cell.p, cell.r)
        hashes[label] = []
        for variant in cell_variants:
            accuracies[(label, variant.name)] = []
        size = stack_size(spec.train.network, cell.n_way, cell.k_shot, spec.k_query)
        for episodes in _round_chunks(spec.world, spec.train.train_classes, spec.k_query,
                                      spec.eval_seed, cell, spec.rounds, size):
            hashes[label].extend(episode_hash(episodes))
            # (checkpoint, effective test config) -> accuracies; the cache
            # keeps every checkpoint alive, so its id names it
            scored: dict = {}
            for variant in cell_variants:
                params = _train_for(spec, variant, cell.r, cache)
                test = _effective(variant.test_rectify, corruption)
                key = (id(params), test)
                if key not in scored:
                    scored[key] = [r.accuracy for r in meta_test(params, episodes, test)]
                accuracies[(label, variant.name)].extend(scored[key])
    meta = {
        "config_hash": config_hash(spec.signature()),
        "seeds": {"world": spec.world.seed, "init": spec.train.init_seed,
                  "task": spec.train.task_seed, "eval": spec.eval_seed},
        "std": "population",
        "methods": list(spec.methods),
        "cells": [c.label() for c in cells],
        "episode_hashes": hashes,
    }
    return BenchResult(cells, meta["methods"], accuracies, hashes, meta)


def run_benchmark(spec: BenchSpec) -> BenchResult:
    """Train the required checkpoints and score every (cell, method) pair over
    paired episode rounds."""
    cells = [Cell(n, k, r, spec.p)
             for n in spec.n_way for k in spec.k_shot for r in spec.r]
    variants = {c.label(): [method_variant(m, spec.train.rectify) for m in spec.methods]
                for c in cells}
    return _run_cells(spec, cells, variants)


def sweep(spec: BenchSpec, axis: str, values: list[float],
          retrain: bool = False) -> BenchResult:
    """One paired benchmark per axis value, sharing episode streams.

    axis "lambda" varies the smoothing trade-off, axis "k" the neighbor count,
    both at meta-test time; with retrain=True a lambda sweep also retrains the
    checkpoint at each value (a k sweep never does: the training-side k is
    pinned to the training shot count minus one).
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep.axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ValueError("sweep.values must list at least one value")
    base_cells = [Cell(n, k, r, spec.p)
                  for n in spec.n_way for k in spec.k_shot for r in spec.r]
    for v in values:
        if axis == "lambda" and not (math.isfinite(v) and v >= 0):
            raise ValueError(f"sweep.values: lambda must be a finite number >= 0, got {v}")
        if axis == "k":
            if not math.isfinite(v) or int(v) != v or v < 1:
                raise ValueError(f"sweep.values: k must be a positive integer, got {v}")
            for cell in base_cells:
                n_s = cell.n_way * cell.k_shot
                if v >= n_s:
                    raise ValueError(f"sweep.values: k={int(v)} must be < n_s={n_s} "
                                     f"for cell {cell.label()}")

    cells: list[Cell] = []
    variants: dict[str, list[MethodVariant]] = {}
    for base_cell in base_cells:
        for v in values:
            cell = replace(base_cell, axis=axis, axis_value=float(v))
            cell_variants = []
            for m in spec.methods:
                var = method_variant(m, spec.train.rectify)
                if axis == "lambda":
                    test = replace(var.test_rectify, lam=float(v))
                    train = replace(var.train_rectify, lam=float(v)) if retrain \
                        else var.train_rectify
                else:
                    test = replace(var.test_rectify, k=int(v))
                    train = var.train_rectify
                cell_variants.append(replace(var, train_rectify=train, test_rectify=test))
            cells.append(cell)
            variants[cell.label()] = cell_variants
    return _run_cells(spec, cells, variants)


def write_report(result: BenchResult, out_dir) -> dict[str, str]:
    """Emit rounds.csv, summary.csv and meta.json into out_dir (created if
    missing). Emission is deterministic: same result, same bytes."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ("rounds.csv", "summary.csv", "meta.json")}

    with open(paths["rounds.csv"], "w", encoding="utf-8") as fh:
        fh.write("cell,method,round,accuracy\n")
        for cell in result.cells:
            label = cell.label()
            for method in result.methods:
                for i, acc in enumerate(result.accuracies[(label, method)]):
                    fh.write(f"{label},{method},{i},{acc:.6f}\n")

    with open(paths["summary.csv"], "w", encoding="utf-8") as fh:
        fh.write("cell,method,mean,std\n")
        for cell in result.cells:
            label = cell.label()
            for method in result.methods:
                fh.write(f"{label},{method},"
                         f"{result.mean(label, method):.6f},{result.std(label, method):.6f}\n")

    with open(paths["meta.json"], "w", encoding="utf-8") as fh:
        json.dump(result.meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return paths
