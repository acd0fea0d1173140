"""Command-line entry point: world generation, training, evaluation,
benchmarking, sweeps, and a gradient self-check.

All hyperparameters live in JSON config files; flags only override seeds and
paths. Every key of the file, with --seed applied, is checked against the
table of fspll.config (its type, then its range) before any work. Exit codes:
0 success, 1 domain error (message on stderr), 2 usage error. Every run is a
pure function of (argv, config file, filesystem inputs); randomness flows
from explicit seeds only.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

import numpy as np

from . import __version__
from .bench import (BenchSpec, Cell, check_held_out, effective_rectify, run_benchmark,
                    score_rounds, sweep, write_report)
from .config import DEFAULTS, KEYS, check, check_type, check_value, config_keys
from .embedding import NetworkSpec, embed_layers, init_network, load_checkpoint, save_checkpoint
from .episodes import (CorruptionSpec, corrupt, make_world, sample_episode, world_from_manifest,
                       world_to_manifest)
from .pll_core import RectifyConfig, rectify
from .trainer import TrainConfig, episode_loss_graph, episode_loss_grad, grad_check, meta_train


def _config_help() -> str:
    lines = ["config keys (JSON; defaults in parentheses, then the values a key (or each item "
             "of a list) takes; any other key is an error):"]
    for key, entry in config_keys():
        domain = " | ".join(entry.domain) if isinstance(entry.domain, tuple) else entry.domain
        words = ["distinct" * entry.distinct, domain and f"in {domain}",
                 entry.note and f"-- {entry.note}"]
        lines.append("  ".join([f"  {key} ({json.dumps(entry.default)})", *filter(None, words)]))
    return "\n".join(lines) + "\n"


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None


def _resolve(path, base_dir):
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _settings(doc, table: dict = DEFAULTS, prefix: str = "") -> dict:
    """`doc` over the table's defaults; a key the table does not hold, or a
    value of another type than its default's, is an error."""
    if not isinstance(doc, dict):
        raise ValueError(f"config key {prefix[:-1]} must be a JSON object" if prefix
                         else "a config file must hold a JSON object")
    for key, value in doc.items():
        if key not in table:
            raise ValueError(f"unknown config key {prefix}{key}")
        entry = table[key]
        if not isinstance(entry, dict):
            check_type(f"config key {prefix}{key}", value, entry.default, entry.null_type)
    return {key: _settings(doc.get(key, {}), entry, f"{prefix}{key}.")
            if isinstance(entry, dict) else copy.deepcopy(doc.get(key, entry.default))
            for key, entry in table.items()}


def _load_config(args) -> tuple[dict, str]:
    """The settings of the --config file, with --seed applied to the
    command's seed keys and every key checked, and the directory its relative
    paths start from."""
    cfg = _settings(_load_json(args.config))
    if args.seed is not None:
        for key in args.seed_keys:
            section, name = key.split(".")
            cfg[section][name] = args.seed
    check(dict(config_keys(cfg)))
    return cfg, os.path.dirname(os.path.abspath(args.config))


def _parse_world(cfg: dict, base_dir: str):
    section = cfg["world"]
    if section["path"] is not None:
        path = _resolve(section["path"], base_dir)
        doc = _load_json(path)
        try:
            return world_from_manifest(doc)
        except ValueError as exc:
            raise ValueError(f"world manifest {path}: {exc}") from None
    return make_world(section["seed"], section["classes"], section["dim"],
                      section["sigma"], section["mean_scale"])


def _parse_rectify(cfg: dict) -> RectifyConfig:
    section = cfg["rectify"]
    return RectifyConfig(iterations=section["iterations"], lam=section["lambda"],
                         k=section["k"], distance=section["distance"])


def _parse_train(cfg: dict, input_dim: int) -> TrainConfig:
    return TrainConfig(network=NetworkSpec(input_dim, **cfg["network"]),
                       rectify=_parse_rectify(cfg),
                       corruption=CorruptionSpec(**cfg["corruption"]),
                       train_classes=cfg["train_classes"], **cfg["train"])


def _parse_bench(cfg: dict, base_dir: str) -> BenchSpec:
    world = _parse_world(cfg, base_dir)
    return BenchSpec(world=world, train=_parse_train(cfg, world.dim), **cfg["bench"])


def _require_out(args) -> str:
    """--out, which is made only when results are written: a failed run leaves
    none. Its nearest existing ancestor (or itself) must be a directory."""
    if not args.out:
        raise ValueError("--out <dir> is required for this command")
    existing = args.out
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        where = "names" if existing == args.out else f"lies under {existing},"
        raise ValueError(f"--out {args.out} {where} a file, not a directory")
    return args.out


# -- subcommands ----------------------------------------------------------------

def cmd_gen_world(args) -> int:
    world = _parse_world(*_load_config(args))
    out = _require_out(args)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "world.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(world_to_manifest(world), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} ({world.classes} classes, dim {world.dim})")
    return 0


def cmd_train(args) -> int:
    cfg, base_dir = _load_config(args)
    world = _parse_world(cfg, base_dir)
    config = _parse_train(cfg, world.dim)
    out = _require_out(args)

    params, log = meta_train(config, world)
    os.makedirs(out, exist_ok=True)

    snapshot = {key: cfg[key] for key in ("train_classes", "network", "train", "rectify",
                                          "corruption")}
    snapshot["world"] = world_to_manifest(world)
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")

    # Wall time is only written when asked for: it would break byte-level
    # reproducibility of the run directory.
    with open(os.path.join(out, "log.csv"), "w", encoding="utf-8") as fh:
        fh.write("epoch,loss,lr,seconds\n")
        for e in log.entries:
            seconds = f"{e.seconds:.6f}" if args.timing else "0.000000"
            fh.write(f"{e.epoch},{e.loss!r},{e.lr!r},{seconds}\n")

    ckpt = os.path.join(out, "checkpoint.json")
    save_checkpoint(params, ckpt)
    if log.entries:
        print(f"trained {config.max_epoch} epochs; "
              f"final loss {log.entries[-1].loss:.6f}; wrote {ckpt}")
    else:
        print(f"trained 0 epochs; wrote initialized params to {ckpt}")
    return 0


def cmd_test(args) -> int:
    cfg, base_dir = _load_config(args)
    world = _parse_world(cfg, base_dir)
    section = cfg["test"]
    if section["checkpoint"] is None:
        raise ValueError("config key test.checkpoint is required")
    corruption = CorruptionSpec(**cfg["corruption"])
    rect = effective_rectify(_parse_rectify(cfg), corruption)
    cell = Cell(section["n_way"], section["k_shot"], corruption.r, corruption.p)
    corruption.check_n_way(cell.n_way, "corruption.r", "test.n_way")
    rect.check_k(cell.n_way, cell.k_shot, "test.k_shot")
    check_held_out(world, cfg["train_classes"], cell.n_way, "test.n_way")
    out = _require_out(args) if args.out else None
    params = load_checkpoint(_resolve(section["checkpoint"], base_dir))
    if params.spec.input_dim != world.dim:
        raise ValueError(f"test.checkpoint takes inputs of width {params.spec.input_dim}, "
                         f"but world.dim is {world.dim}")

    rounds = section["rounds"]
    hashes, [accs] = score_rounds(world, cfg["train_classes"], section["k_query"],
                                  section["eval_seed"], cell, rounds, [(params, rect)])

    mean, std = float(np.mean(accs)), float(np.std(accs))
    print(f"accuracy over {rounds} rounds: {mean:.6f} +/- {std:.6f}")
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "test_rounds.csv"), "w", encoding="utf-8") as fh:
            fh.write("round,accuracy,episode_hash\n")
            for i, (acc, h) in enumerate(zip(accs, hashes)):
                fh.write(f"{i},{acc:.6f},{h}\n")
        with open(os.path.join(out, "test_summary.json"), "w", encoding="utf-8") as fh:
            json.dump({"mean": round(mean, 6), "std": round(std, 6), "rounds": rounds,
                       "n_way": cell.n_way, "k_shot": cell.k_shot,
                       "eval_seed": section["eval_seed"]},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def _report(result, out: str) -> int:
    """Write the bench report into out and print each (cell, method) pair's
    mean +/- std."""
    paths = write_report(result, out)
    for cell in result.cells:
        for method in result.methods:
            print(f"{cell.label()} {method}: "
                  f"{result.mean(cell.label(), method):.4f} "
                  f"+/- {result.std(cell.label(), method):.4f}")
    print(f"wrote {paths['rounds.csv']}, {paths['summary.csv']}, {paths['meta.json']}")
    return 0


def cmd_bench(args) -> int:
    spec = _parse_bench(*_load_config(args))
    out = _require_out(args)
    return _report(run_benchmark(spec), out)


def cmd_sweep(args) -> int:
    cfg, base_dir = _load_config(args)
    spec = _parse_bench(cfg, base_dir)
    section = cfg["sweep"]
    if section["axis"] is None or section["values"] is None:
        raise ValueError("config keys sweep.axis and sweep.values are required")
    out = _require_out(args)
    return _report(sweep(spec, section["axis"], list(section["values"]),
                         retrain=section["retrain"]), out)


def cmd_grad_check(args) -> int:
    seed = args.seed if args.seed is not None else 0
    check_value("--seed", seed, KEYS["world.seed"].domain)  # every seed key's range
    rng = np.random.default_rng(seed)
    worst = 0.0
    fused_dev = 0.0
    excluded = 0
    for trial in range(3):
        world = make_world(int(rng.integers(2 ** 31)), classes=6, dim=5, sigma=0.6)
        episode = sample_episode(world, [0, 1, 2], 3, 4, rng)
        episode = corrupt(episode, CorruptionSpec(1.0, 1), rng)
        spec = NetworkSpec(5, (6,), 4)
        params = init_network(spec, int(rng.integers(2 ** 31)))
        rect = RectifyConfig(iterations=5, lam=0.5, k=2)
        support_layers = embed_layers(params, episode.support)
        _, Q = rectify(support_layers[-1], episode.candidates, rect)
        res = grad_check(params, episode, Q, rect.distance)
        worst = max(worst, res.max_rel_error)
        excluded += res.excluded
        # the fused gradient must also equal the graph's
        _, grad_w, grad_b = episode_loss_grad(params, support_layers, episode, Q, rect.distance)
        graph, sink, layers = episode_loss_graph(params, episode, Q, rect.distance)
        graph.backward(sink)
        for (w_node, b_node), gw, gb in zip(layers, grad_w, grad_b):
            for node, g in ((w_node, gw), (b_node, gb)):
                dev = np.abs(g - node.grad) / np.maximum(1.0, np.abs(node.grad))
                fused_dev = max(fused_dev, float(dev.max()))
    print(f"max relative gradient error: {worst:.3e} ({excluded} kink entries excluded)")
    print(f"fused training gradient vs graph: max relative deviation {fused_dev:.3e}")
    return 0 if worst < 1e-4 and fused_dev < 1e-12 else 1


def build_parser() -> argparse.ArgumentParser:
    epilog = _config_help()
    parser = argparse.ArgumentParser(
        prog="fspll",
        description="Few-shot partial-label learning toolkit",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"fspll {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, func, help_text, seed_keys=None):
        """seed_keys: the config keys --seed overrides; None: a command that
        reads no config and writes no file, so no --config, --out or epilog."""
        configured = seed_keys is not None
        p = sub.add_parser(name, help=help_text, epilog=epilog if configured else None,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        if configured:
            p.add_argument("--config", required=True, help="JSON config file")
            p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override " + " and ".join(seed_keys) if seed_keys
                       else "seed of the check (default 0)")
        p.set_defaults(func=func, seed_keys=seed_keys)
        return p

    add("gen-world", cmd_gen_world, "generate a synthetic world manifest", ["world.seed"])
    train_p = add("train", cmd_train, "meta-train an embedding checkpoint",
                  ["train.init_seed", "train.task_seed"])
    train_p.add_argument("--timing", action="store_true",
                         help="record wall time in log.csv (off: byte-reproducible runs)")
    add("test", cmd_test, "evaluate a checkpoint on fresh meta-test episodes",
        ["test.eval_seed"])
    add("bench", cmd_bench, "run the paired benchmark grid", ["bench.eval_seed"])
    add("sweep", cmd_sweep, "sensitivity sweep over lambda or k", ["bench.eval_seed"])
    add("grad-check", cmd_grad_check, "finite-difference check of the loss gradient")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exc.code in (0, None) else int(exc.code)
    if getattr(args, "config", None) is not None and not os.path.exists(args.config):
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        print(f"run `fspll {args.command} --help` for the config key list", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
