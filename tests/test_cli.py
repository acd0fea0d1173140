import argparse
import dataclasses
import glob
import inspect
import json
import math
import os
import re
import subprocess
import sys

import pytest

import fspll.bench
import fspll.cli
from fspll.bench import METHODS, BenchSpec, sweep
from fspll.cli import _load_config, main
from fspll.config import DEFAULTS, KEYS, config_keys
from fspll.embedding import NetworkSpec, init_network, save_checkpoint
from fspll.pll_core import RectifyConfig
from fspll.trainer import TrainConfig


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
SRC = os.path.join(ROOT, "src")


def shipped(name):
    """The settings of configs/<name>, read and checked as `fspll` reads them."""
    return _load_config(argparse.Namespace(config=os.path.join(CONFIGS, name), seed=None,
                                           seed_keys=[]))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def tiny_train_doc():
    return {
        "world": {"seed": 3, "classes": 10, "dim": 4, "sigma": 0.5},
        "train_classes": 6,
        "network": {"hidden_dims": [6], "output_dim": 4},
        "train": {"max_epoch": 2, "tasks_per_epoch": 2, "n_way": 3,
                  "k_support": 3, "k_query": 4},
        "rectify": {"iterations": 3, "lambda": 0.5},
        "corruption": {"p": 1.0, "r": 1},
    }


def tiny_bench_doc():
    doc = tiny_train_doc()
    doc["bench"] = {"n_way": [3], "k_shot": [3], "r": [1], "rounds": 2,
                    "methods": ["fspll", "pn"], "k_query": 4, "eval_seed": 9}
    return doc


def test_train_writes_run_directory(tmp_path):
    cfg = write_config(tmp_path, tiny_train_doc())
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["checkpoint.json", "config.json", "log.csv"]
    log = (out / "log.csv").read_text().splitlines()
    assert log[0] == "epoch,loss,lr,seconds"
    assert len(log) == 3
    assert log[1].endswith(",0.000000")  # timing suppressed by default
    for row in log[1:]:
        float(row.split(",")[1])  # a plain float, not np.float64(...)


def test_train_config_snapshot(tmp_path):
    cfg = write_config(tmp_path, tiny_train_doc())
    expected = {
        "world": {"seed": 3, "classes": 10, "dim": 4, "sigma": 0.5, "mean_scale": 1.0},
        "train_classes": 6,
        "network": {"hidden_dims": [6], "output_dim": 4},
        "train": {"max_epoch": 2, "tasks_per_epoch": 2, "n_way": 3, "k_support": 3,
                  "k_query": 4, "lr0": 0.001, "lr_half_period": 20, "init_seed": 0,
                  "task_seed": 0, "step_per_task": False, "fixed_tasks": False,
                  "supervised_loss": False},
        "rectify": {"iterations": 3, "lambda": 0.5, "k": None, "distance": "euclidean"},
        "corruption": {"p": 1.0, "r": 1},
    }
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert json.loads((tmp_path / "a" / "config.json").read_text()) == expected
    # --seed overrides both training seeds and the snapshot records them
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "11"]) == 0
    expected["train"].update(init_seed=11, task_seed=11)
    assert json.loads((tmp_path / "b" / "config.json").read_text()) == expected


def test_train_is_byte_reproducible(tmp_path):
    cfg = write_config(tmp_path, tiny_train_doc())
    main(["train", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["train", "--config", cfg, "--out", str(tmp_path / "b")])
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_train_timing_flag_records_wall_time(tmp_path):
    cfg = write_config(tmp_path, tiny_train_doc())
    out = tmp_path / "run"
    main(["train", "--config", cfg, "--out", str(out), "--timing"])
    rows = (out / "log.csv").read_text().splitlines()[1:]
    assert any(not row.endswith(",0.000000") for row in rows)


def test_test_command_evaluates_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_train_doc())
    run = tmp_path / "run"
    main(["train", "--config", cfg, "--out", str(run)])
    doc = tiny_train_doc()
    doc["test"] = {"checkpoint": str(run / "checkpoint.json"), "n_way": 3,
                   "k_shot": 3, "k_query": 4, "rounds": 3, "eval_seed": 2}
    cfg2 = write_config(tmp_path, doc, "test.json")
    out = tmp_path / "eval"
    assert main(["test", "--config", cfg2, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "accuracy over 3 rounds" in printed
    rows = (out / "test_rounds.csv").read_text().splitlines()
    assert rows[0] == "round,accuracy,episode_hash"
    assert len(rows) == 4


def test_test_rejects_a_checkpoint_of_another_input_width(tmp_path, capsys, monkeypatch):
    def no_rounds(*args):
        raise AssertionError("score_rounds must not run")

    monkeypatch.setattr(fspll.cli, "score_rounds", no_rounds)
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(init_network(NetworkSpec(5, (6,), 4), 0), str(ckpt))
    doc = tiny_train_doc()  # world.dim 4
    doc["test"] = {"checkpoint": str(ckpt), "n_way": 3, "k_shot": 3, "k_query": 4}
    cfg = write_config(tmp_path, doc)
    assert main(["test", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("error: test.checkpoint takes inputs of width 5, "
                                       "but world.dim is 4\n")
    assert not os.path.exists(tmp_path / "o")


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _checkpoint_edit(edit):
    """A checkpoint of world width 4 (4 -> 6 -> 4), as parsed JSON, with
    `edit` applied."""
    def make(tmp_path):
        path = tmp_path / "fresh.json"
        save_checkpoint(init_network(NetworkSpec(4, (6,), 4), 0), str(path))
        doc = json.loads(path.read_text())
        return edit(doc)
    return make


def _drop(key):
    return _checkpoint_edit(lambda doc: _without(doc, key))


def _put(key, value):
    return _checkpoint_edit(lambda doc: {**doc, key: value})


def _layer(i, layer):
    return _checkpoint_edit(lambda doc: {**doc, "layers": [
        layer(old) if j == i else old for j, old in enumerate(doc["layers"])]})


@pytest.mark.parametrize("checkpoint, message", [
    (_drop("layers"), "field layers is missing"),
    (_drop("seed"), "field seed is missing"),
    (_put("input_dim", "8"), 'field input_dim must be an integer, got "8"'),
    (_put("layers", 5), "field layers must be a list, got 5"),
    (_checkpoint_edit(lambda doc: doc["layers"]), "must hold a JSON object, not a list"),
    (_put("hidden_dims", [6, 0]), "field hidden_dims[1] must be in [1, inf), got 0"),
    (_put("seed", 1.5), "field seed must be an integer, got 1.5"),
    (_put("layers", []), "field layers lists 0 layers, but the spec has 2"),
    (_layer(1, lambda layer: _without(layer, "bias")), "field layers[1].bias is missing"),
    (_layer(0, lambda layer: {**layer, "bias": ["x"] * 6}),
     'field layers[0].bias[0] must be a number, got "x"'),
    (_layer(0, lambda layer: {**layer, "weights": layer["weights"][:5]}),
     "field layers[0] does not have the spec's shape: 6 weight rows of 4 and 6 biases"),
    (_layer(1, lambda layer: {**layer, "weights": [row[:5] for row in layer["weights"]]}),
     "field layers[1] does not have the spec's shape: 4 weight rows of 6 and 4 biases"),
], ids=["no-layers", "no-seed", "input-dim-string", "layers-number", "list", "hidden-dim-0",
        "seed-fraction", "no-layer", "no-bias", "bias-string", "weight-rows", "weight-columns"])
def test_malformed_checkpoint_fails_by_field(tmp_path, capsys, monkeypatch, checkpoint,
                                             message):
    def no_rounds(*args):
        raise AssertionError("score_rounds must not run")

    monkeypatch.setattr(fspll.cli, "score_rounds", no_rounds)
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(checkpoint(tmp_path)))
    doc = tiny_train_doc()  # world.dim 4
    doc["test"] = {"checkpoint": str(path), "n_way": 3, "k_shot": 3, "k_query": 4}
    cfg = write_config(tmp_path, doc)
    assert main(["test", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: checkpoint {path}: {message}\n"
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "o")


# a checkpoint that cannot be read fails as a malformed one does, by path
@pytest.mark.parametrize("is_dir, reason", [(False, "No such file or directory"),
                                            (True, "Is a directory")],
                         ids=["missing", "directory"])
def test_unreadable_checkpoint_fails_by_path(tmp_path, capsys, is_dir, reason):
    path = tmp_path / "checkpoint.json"
    if is_dir:
        path.mkdir()
    doc = tiny_train_doc()
    doc["test"] = {"checkpoint": str(path), "n_way": 3, "k_shot": 3, "k_query": 4}
    cfg = write_config(tmp_path, doc)
    assert main(["test", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: checkpoint {path}: {reason}\n"
    assert not os.path.exists(tmp_path / "o")


def test_exact_label_training_is_the_same_without_rectification(tmp_path):
    # with r = 0 every support sample has one candidate, so the rectification
    # loop maps each task's confidences to themselves: 10 iterations train the
    # bits of 0 (test_pinned_runs.py pins those of 10 as tiny_exact)
    runs = []
    for iterations in (10, 0):
        with open(os.path.join(CONFIGS, "train_tiny.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["corruption"]["r"] = 0
        doc["rectify"]["iterations"] = iterations
        out = tmp_path / str(iterations)
        assert main(["train", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        runs.append({name: (out / name).read_bytes() for name in ("checkpoint.json", "log.csv")})
    assert runs[0] == runs[1]


def test_bench_writes_reports_and_is_reproducible(tmp_path):
    cfg = write_config(tmp_path, tiny_bench_doc())
    main(["bench", "--config", cfg, "--out", str(tmp_path / "a")])
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert sorted(a) == ["meta.json", "rounds.csv", "summary.csv"]
    assert a == b


def test_sweep_command(tmp_path):
    doc = tiny_bench_doc()
    doc["bench"]["methods"] = ["fspll"]
    doc["sweep"] = {"axis": "lambda", "values": [0.0, 0.5]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rounds = (out / "rounds.csv").read_text()
    assert "lambda0" in rounds and "lambda0.5" in rounds


def test_grad_check_command(capsys):
    assert main(["grad-check", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    # one line: the finite-difference check's, and nothing after it
    assert re.fullmatch(
        r"max relative gradient error: \d\.\d{3}e-\d+ \(0 kink entries excluded\)\n", out)


def test_grad_check_rejects_a_negative_seed_before_any_work(capsys, monkeypatch):
    def no_world(*args, **kwargs):
        raise AssertionError("make_world must not run")

    monkeypatch.setattr(fspll.cli, "make_world", no_world)
    assert main(["grad-check", "--seed", "-3"]) == 1
    assert capsys.readouterr().err == "error: --seed must be in [0, inf), got -3\n"


def test_grad_check_takes_no_out_and_no_config_epilog(tmp_path, capsys):
    # grad-check reads no config and writes no file
    out = tmp_path / "out"
    assert main(["grad-check", "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()
    assert main(["grad-check", "--help"]) == 0
    assert "config keys" not in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_flag_is_usage_error():
    assert main(["grad-check", "--frobnicate"]) == 2


def test_missing_config_flag_is_usage_error():
    assert main(["train"]) == 2


def test_nonexistent_config_file_is_usage_error(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_domain_error_exits_one(tmp_path, capsys):
    doc = tiny_train_doc()
    doc["world"]["sigma"] = 0.0
    cfg = write_config(tmp_path, doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_out_is_domain_error(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_train_doc())
    assert main(["train", "--config", cfg]) == 1
    assert "--out" in capsys.readouterr().err


def test_help_lists_config_keys(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "config keys" in out
    assert "rectify.lambda" in out
    for argv in (["--help"], ["sweep", "--help"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        lines = {line.split()[0]: line for line in out.splitlines() if line.startswith("  ")}
        for key, entry in config_keys():
            assert lines[key].startswith(f"  {key} ({json.dumps(entry.default)})")
            if isinstance(entry.domain, str):
                assert f"  in {entry.domain}" in lines[key]
            elif isinstance(entry.domain, tuple):  # the choices, from the table
                assert "  in " + " | ".join(entry.domain) in lines[key]
        assert lines["bench.methods"].endswith("  in " + " | ".join(METHODS))


def _library_defaults(cls):
    """Every dataclass field default, by field name."""
    out = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            out[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            out[f.name] = f.default_factory()
    return out


def test_config_defaults_match_library_defaults():
    train = _library_defaults(TrainConfig)
    rectify = {("lambda" if k == "lam" else k): v
               for k, v in _library_defaults(RectifyConfig).items()}
    pairs = [("rectify", rectify), ("network", _library_defaults(NetworkSpec)),
             ("train", train), ("bench", _library_defaults(BenchSpec)),
             ("corruption", dataclasses.asdict(train["corruption"])),
             ("sweep", {"retrain": inspect.signature(sweep).parameters["retrain"].default})]
    for section, library in pairs:
        shared = set(DEFAULTS[section]) & set(library)
        assert shared, section
        for key in shared:
            # through JSON, so that tuple defaults compare equal to lists
            assert DEFAULTS[section][key].default == json.loads(json.dumps(library[key])), \
                f"{section}.{key}"
    assert train["rectify"] == RectifyConfig()
    # The one deliberate difference: the CLI holds out classes by default,
    # while the library's None trains on every world class.
    assert DEFAULTS["train_classes"].default == 30 and train["train_classes"] is None


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["rectify"].update(lamda=0.0), "unknown config key rectify.lamda"),
    (lambda d: d.update(trian={}), "unknown config key trian"),
    (lambda d: d.update(world=5), "config key world must be a JSON object"),
    (lambda d: d.update(world={"path": "w.json"}), "unknown config key world.path"),
], ids=["misspelt-key", "unknown-section", "section-not-object", "world-path"])
def test_bad_config_key_exits_one(tmp_path, capsys, edit, message):
    doc = tiny_train_doc()
    edit(doc)
    cfg = write_config(tmp_path, doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("section, key, value, message", [
    ("train", "max_epoch", "2", 'config key train.max_epoch must be an integer, got "2"'),
    ("train", "max_epoch", 2.0, "config key train.max_epoch must be an integer, got 2.0"),
    ("train", "max_epoch", True, "config key train.max_epoch must be an integer, got true"),
    ("train", "step_per_task", "false",
     'config key train.step_per_task must be a boolean, got "false"'),
    ("train", "step_per_task", 0, "config key train.step_per_task must be a boolean, got 0"),
    ("train", "lr0", "0.1", 'config key train.lr0 must be a number, got "0.1"'),
    ("network", "hidden_dims", [64.5],
     "config key network.hidden_dims[0] must be an integer, got 64.5"),
    ("network", "hidden_dims", 64, "config key network.hidden_dims must be a list, got 64"),
    ("rectify", "k", 2.5, "config key rectify.k must be an integer or null, got 2.5"),
    ("rectify", "distance", 1, "config key rectify.distance must be a string, got 1"),
    ("world", "sigma", "0.5", 'config key world.sigma must be a number, got "0.5"'),
    ("bench", "methods", ["fspll", 1], "config key bench.methods[1] must be a string, got 1"),
    ("sweep", "values", [0.5, "1"], 'config key sweep.values[1] must be a number, got "1"'),
])
def test_config_value_of_wrong_type_exits_one(tmp_path, capsys, section, key, value, message):
    doc = tiny_bench_doc()
    doc.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path, doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"error: {message}\n" == capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_config_accepts_integers_for_floats_and_null_for_optional_keys(tmp_path):
    doc = tiny_train_doc()
    doc["train"]["lr0"] = 1
    doc["rectify"].update(k=None, **{"lambda": 0})
    doc["corruption"]["p"] = 1
    cfg = write_config(tmp_path, doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def _one_shot_bench(doc):
    doc["bench"]["k_shot"] = [3, 1]


def _one_shot_sweep(doc):
    doc["bench"].update(k_shot=[3, 1], methods=["fspll"])
    doc["sweep"] = {"axis": "lambda", "values": [0.0, 0.5]}


def _one_shot_test(doc):
    doc["test"] = {"checkpoint": "never-read.json", "n_way": 3, "k_shot": 1}


@pytest.mark.parametrize("command, edit, named", [
    ("bench", _one_shot_bench, "cell N3-K1-r1-p1: k_shot=1"),
    ("sweep", _one_shot_sweep, "cell N3-K1-r1-p1-lambda0.5: k_shot=1"),
    ("test", _one_shot_test, "test.k_shot=1"),
])
def test_one_shot_smoothing_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                  command, edit, named):
    def no_training(*args):
        raise AssertionError("meta_train must not run")

    monkeypatch.setattr(fspll.bench, "meta_train", no_training)
    doc = tiny_bench_doc()
    edit(doc)
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert named in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def _set(*settings):
    """An edit applying each (section, key, value); section None is the top
    level."""
    def edit(doc):
        for section, key, value in settings:
            (doc if section is None else doc.setdefault(section, {}))[key] = value
    return edit


def _test_section(*settings):
    """A test section whose checkpoint must not be read, plus the settings."""
    return _set(("test", "checkpoint", "never-read.json"), ("test", "n_way", 3),
                ("test", "k_shot", 3), *settings)


def _sweep(**section):
    return lambda doc: doc.update(sweep={"axis": "lambda", "values": [0.5], **section})


@pytest.mark.parametrize("command, edit, message", [
    ("bench", _set(("bench", "n_way", [])), "bench.n_way must list at least one value"),
    ("bench", _set(("bench", "k_shot", [])), "bench.k_shot must list at least one value"),
    ("bench", _set(("bench", "r", [])), "bench.r must list at least one value"),
    ("bench", _set(("bench", "n_way", [3, 0])), "bench.n_way[1] must be in [1, inf), got 0"),
    ("bench", _set(("bench", "k_shot", [0]), ("rectify", "lambda", 0)),
     "bench.k_shot[0] must be in [1, inf), got 0"),
    ("bench", _set(("bench", "k_shot", [-1])), "bench.k_shot[0] must be in [1, inf), got -1"),
    ("bench", _set(("rectify", "k", 9)),
     "rectify.k=9 needs k + 1 support samples, but cell N3-K3-r1-p1: k_shot=3 gives "
     "3 x 3 = 9"),
    ("sweep", _sweep(values=[]), "sweep.values must list at least one value"),
    ("sweep", _sweep(axis="mu"), "sweep.axis must be one of ('lambda', 'k'), got 'mu'"),
    ("sweep", _sweep(values=[-1.0]),
     "sweep.values[0] must be in [0, inf), got -1.0"),
    ("sweep", _sweep(values=[0.5, float("nan")]),
     "sweep.values[1] must be in [0, inf), got nan"),
    ("sweep", _sweep(values=[0.5, float("inf")]),
     "sweep.values[1] must be in [0, inf), got inf"),
    ("sweep", _sweep(axis="k", values=[9]),
     "rectify.k=9 needs k + 1 support samples, but cell N3-K3-r1-p1-k9: k_shot=3 gives "
     "3 x 3 = 9"),
    ("sweep", _sweep(axis="k", values=[2, float("nan")]),
     "sweep.values[1] must be in [0, inf), got nan"),
    ("sweep", _sweep(axis="k", values=[2, float("inf")]),
     "sweep.values[1] must be in [0, inf), got inf"),
    ("bench", _set(("bench", "methods", ["pn", "fspll", "pn"])), "bench.methods lists 'pn' twice"),
    ("bench", _set(("bench", "methods", ["frob"])),
     f"bench.methods[0] must be one of {tuple(METHODS)}, got 'frob'"),
    ("sweep", _set(("bench", "methods", ["fspll", "protonet"]), ("sweep", "axis", "lambda"),
                   ("sweep", "values", [0.5])),
     f"bench.methods[1] must be one of {tuple(METHODS)}, got 'protonet'"),
    ("bench", _set(("bench", "n_way", [3, 3])), "bench.n_way lists 3 twice"),
    ("bench", _set(("bench", "k_shot", [3, 3])), "bench.k_shot lists 3 twice"),
    ("bench", _set(("bench", "r", [1, 1])), "bench.r lists 1 twice"),
    ("sweep", _sweep(values=[0.5, 0.5]), "sweep.values lists 0.5 twice"),
    ("sweep", _sweep(values=[0.5, 0.25, 0.5000001]),
     "sweep.values[2]=0.5000001 gives the cell tag lambda0.5 of sweep.values[0]"),
    ("sweep", _sweep(axis="k", values=[2], retrain=True),
     "sweep.retrain must be false when sweep.axis is 'k'"),
    ("train", _set((None, "train_classes", 0)),
     "train_classes=0 must be between train.n_way=3 and the world's 10 classes"),
    ("train", _set((None, "train_classes", 11)),
     "train_classes=11 must be between train.n_way=3 and the world's 10 classes"),
    ("train", _set(("rectify", "k", 50)),
     "rectify.k=50 needs k + 1 support samples, but train.k_support=3 gives 3 x 3 = 9"),
    ("train", _set(("rectify", "k", 100)),
     "rectify.k=100 needs k + 1 support samples, but train.k_support=3 gives 3 x 3 = 9"),
    ("bench", _set((None, "train_classes", 11)),
     "train_classes=11 must be between 0 and the world's 10 classes"),
    ("bench", _set((None, "train_classes", 2)),
     "train_classes=2 must be between train.n_way=3 and the world's 10 classes"),
    ("sweep", _set((None, "train_classes", 2), ("sweep", "axis", "lambda"),
                   ("sweep", "values", [0.5])),
     "train_classes=2 must be between train.n_way=3 and the world's 10 classes"),
    ("bench", _set((None, "train_classes", 8)),
     "held-out pool (2 classes) is smaller than bench.n_way=3: "
     "the world's 10 classes minus train_classes=8"),
    ("test", _test_section((None, "train_classes", 11)),
     "train_classes=11 must be between 0 and the world's 10 classes"),
    ("test", _test_section((None, "train_classes", 8)),
     "held-out pool (2 classes) is smaller than test.n_way=3: "
     "the world's 10 classes minus train_classes=8"),
    ("bench", _set(("rectify", "lambda", -0.5)),
     "rectify.lambda must be in [0, inf), got -0.5"),
    ("bench", _set(("rectify", "lambda", float("nan"))),
     "rectify.lambda must be in [0, inf), got nan"),
    ("bench", _set(("rectify", "lambda", float("inf"))),
     "rectify.lambda must be in [0, inf), got inf"),
    ("bench", _set(("rectify", "iterations", -1)),
     "rectify.iterations must be in [0, inf), got -1"),
    ("bench", _set(("rectify", "k", 0)), "rectify.k must be in [1, inf), got 0"),
    ("bench", _set(("bench", "p", 1.5)), "bench.p must be in [0, 1], got 1.5"),
    ("bench", _set(("bench", "r", [1, -1])), "bench.r[1] must be in [0, inf), got -1"),
    ("bench", _set(("train", "lr0", 0)), "train.lr0 must be in (0, inf), got 0"),
    ("bench", _set(("world", "sigma", 0)), "world.sigma must be in (0, inf), got 0"),
    ("bench", _set(("network", "hidden_dims", [6, 0])),
     "network.hidden_dims[1] must be in [1, inf), got 0"),
    ("sweep", _set(("bench", "p", -0.5), ("sweep", "axis", "lambda"), ("sweep", "values", [0.5])),
     "bench.p must be in [0, 1], got -0.5"),
    ("train", _set(("corruption", "p", 1.5)), "corruption.p must be in [0, 1], got 1.5"),
    ("train", _set(("train", "max_epoch", -1)), "train.max_epoch must be in [0, inf), got -1"),
    ("train", _set(("world", "classes", 1)), "world.classes must be in [2, inf), got 1"),
    ("train", _set(("world", "mean_scale", float("nan"))),
     "world.mean_scale must be in (0, 8.988465674311579e+307], got nan"),
    ("train", _set(("world", "mean_scale", 0)),
     "world.mean_scale must be in (0, 8.988465674311579e+307], got 0"),
    ("train", _set(("world", "mean_scale", 1e308)),
     "world.mean_scale must be in (0, 8.988465674311579e+307], got 1e+308"),
    ("train", _set(("train", "lr0", float("inf"))), "train.lr0 must be in (0, inf), got inf"),
    ("train", _set(("world", "sigma", float("inf"))), "world.sigma must be in (0, inf), got inf"),
    ("test", _test_section(("corruption", "p", -0.1)), "corruption.p must be in [0, 1], got -0.1"),
    ("test", _test_section(("corruption", "r", -1)), "corruption.r must be in [0, inf), got -1"),
    ("train", _set(("world", "seed", -1)), "world.seed must be in [0, inf), got -1"),
    ("bench", _set(("train", "init_seed", -1)), "train.init_seed must be in [0, inf), got -1"),
    ("bench", _set(("train", "task_seed", -1)), "train.task_seed must be in [0, inf), got -1"),
    ("test", _test_section(("test", "eval_seed", -1)),
     "test.eval_seed must be in [0, inf), got -1"),
    ("bench", _set(("bench", "eval_seed", -1)), "bench.eval_seed must be in [0, inf), got -1"),
    ("bench --seed -3", _set(), "bench.eval_seed must be in [0, inf), got -3"),
    ("sweep", _sweep(axis="k", values=[2, 0]), "sweep.values[1] must be in [1, inf), got 0"),
    ("sweep", _sweep(axis="k", values=[2.5]),
     "sweep.values[0] must be an integer for axis k, got 2.5"),
    ("bench", _set(("bench", "k_shot", [1])),
     "cell N3-K1-r1-p1: k_shot=1 leaves no neighbor for smoothing (k = shots - 1); "
     "set rectify.k, or rectify.lambda to 0"),
    ("test", _test_section(("test", "k_shot", 1)),
     "test.k_shot=1 leaves no neighbor for smoothing (k = shots - 1); "
     "set rectify.k, or rectify.lambda to 0"),
], ids=["bench-n_way-empty", "bench-k_shot-empty", "bench-r-empty", "bench-n_way-0",
        "bench-k_shot-0", "bench-k_shot-negative", "bench-k",
        "sweep-values-empty", "sweep-axis", "sweep-lambda-negative", "sweep-lambda-nan",
        "sweep-lambda-inf", "sweep-k", "sweep-k-nan", "sweep-k-inf",
        "bench-methods-twice", "bench-methods-unknown", "sweep-methods-unknown",
        "bench-n_way-twice", "bench-k_shot-twice", "bench-r-twice",
        "sweep-values-twice", "sweep-values-same-tag", "sweep-k-retrain",
        "train-classes-0", "train-classes-11", "train-k", "train-k100",
        "bench-classes-11", "bench-classes-2", "sweep-classes-2", "bench-held-out", "test-classes-11", "test-held-out",
        "bench-lambda", "bench-lambda-nan", "bench-lambda-inf", "bench-iterations", "bench-rectify-k-0", "bench-p", "bench-r-negative",
        "bench-lr0", "bench-sigma", "bench-hidden-dims", "sweep-p", "train-corruption-p",
        "train-max-epoch", "train-world-classes", "train-mean-scale",
        "train-mean-scale-0", "train-mean-scale-overflow", "train-lr0-inf",
        "train-sigma-inf", "test-corruption-p",
        "test-corruption-r", "train-world-seed", "bench-init-seed", "bench-task-seed",
        "test-eval-seed", "bench-eval-seed", "bench-seed-flag", "sweep-k-0", "sweep-k-fraction",
        "bench-k_shot-1", "test-k_shot-1"])
def test_config_errors_fail_before_any_output(tmp_path, capsys, monkeypatch, command, edit,
                                              message):
    def no_training(*args):
        raise AssertionError("meta_train must not run")

    # bench and sweep check before training; train's checks open meta_train,
    # which this leaves alone
    monkeypatch.setattr(fspll.bench, "meta_train", no_training)
    doc = tiny_bench_doc()
    edit(doc)
    cfg = write_config(tmp_path, doc)
    assert main([*command.split(), "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(tmp_path / "o")


def _kind(entry):
    """The type of the key's value, or of its items for a list key, and
    whether it is a list key."""
    example = entry.null_type if entry.default is None else entry.default
    listed = isinstance(example, list)
    return type(example[0] if listed else example), listed


NUMERIC_KEYS = [key for key, entry in config_keys() if _kind(entry)[0] in (int, float)]


def _out_of_range(domain, integer):
    """NaN, both infinities, and the value just past each finite end of the
    interval `domain`: the end itself where it is open."""
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    values = [math.nan, math.inf, -math.inf]
    for end, closed, step in ((lo, domain[0] == "[", -1), (hi, domain[-1] == "]", 1)):
        if math.isfinite(end) and not closed:
            values.append(end)
        elif math.isfinite(end):
            values.append(int(end) + step if integer else math.nextafter(end, step * math.inf))
    return values


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_every_numeric_key_rejects_each_value_outside_its_range(tmp_path, capsys, monkeypatch,
                                                                 key):
    # a numeric key added to the table without a range fails here
    entry = KEYS[key]
    assert isinstance(entry.domain, str), f"{key} declares no range"

    def no_training(*args):
        raise AssertionError("meta_train must not run")

    monkeypatch.setattr(fspll.bench, "meta_train", no_training)
    monkeypatch.setattr(fspll.cli, "meta_train", no_training)
    kind, listed = _kind(entry)
    integer = kind is int
    name = f"{key}[0]" if listed else key
    *path, last = key.split(".")
    for value in _out_of_range(entry.domain, integer):
        doc = tiny_bench_doc()
        section = doc
        for part in path:
            section = section.setdefault(part, {})
        section[last] = [value] if listed else value
        cfg = write_config(tmp_path, doc)
        if integer and not math.isfinite(value):  # JSON's NaN and Infinity are no integers
            message = (f"config key {name} must be an integer"
                       f"{' or null' if entry.default is None else ''}, got {json.dumps(value)}")
        else:
            message = f"{name} must be in {entry.domain}, got {value}"
        for command in ("train", "test", "bench", "sweep"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1, \
                (command, value)
            assert capsys.readouterr().err == f"error: {message}\n", (command, value)
            assert not os.path.exists(tmp_path / "o")


SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(CONFIGS, "*.json"))) + [
    os.path.join(ROOT, "perfbench", "large_episode.json")]


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
def test_shipped_configs_pass_the_table(path):
    # the table checks every section of a file, not only the command's own
    _load_config(argparse.Namespace(config=path, seed=None, seed_keys=[]))


def test_test_eval_scores_on_the_world_its_checkpoint_trains_on():
    # test_eval.json scores runs/bench_ckpt, which train_bench.json trains:
    # held-out classes are held out only on the same world and class split
    docs = []
    for name in ("test_eval.json", "train_bench.json"):
        with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
            docs.append(json.load(fh))
    assert docs[0]["test"]["checkpoint"] == "../runs/bench_ckpt/checkpoint.json"
    for key in ("world", "train_classes"):
        assert docs[0][key] == docs[1][key], key


def test_bench_checks_training_rectify_before_any_training(tmp_path, capsys, monkeypatch):
    # the desk-grid config trains a clean r = 0 checkpoint, which needs no k,
    # before the r = 1 one, whose k = 49 exceeds its 10 x 4 support samples
    def no_training(*args):
        raise AssertionError("meta_train must not run")

    monkeypatch.setattr(fspll.bench, "meta_train", no_training)
    with open(os.path.join(CONFIGS, "bench_desk.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["bench"].update(n_way=[5], k_shot=[10], r=[0, 1], methods=["fspll"])
    doc["rectify"]["k"] = 49
    doc["train"]["k_support"] = 4
    cfg = write_config(tmp_path, doc)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("error: rectify.k=49 needs k + 1 support samples, "
                                       "but train.k_support=4 gives 10 x 4 = 40\n")
    assert not os.path.exists(tmp_path / "o")


def test_bench_never_imports_numpy_ma(tmp_path):
    # importing numpy.ma costs about 15 ms; np.unique(axis=0) imports it
    argv = ["bench", "--config", write_config(tmp_path, tiny_bench_doc()),
            "--out", str(tmp_path / "o")]
    script = ("import sys\n"
              "from fspll.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("key", ["n_way", "k_shot", "rounds", "k_query"])
def test_test_rejects_a_count_below_one(tmp_path, capsys, key):
    doc = tiny_bench_doc()
    doc["test"] = {"checkpoint": "never-read.json", "n_way": 3, "k_shot": 3, key: 0}
    cfg = write_config(tmp_path, doc)
    assert main(["test", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: test.{key} must be in [1, inf), got 0\n"
    assert not os.path.exists(tmp_path / "o")


def test_test_rejects_r_above_n_way(tmp_path, capsys):
    doc = tiny_bench_doc()
    doc["test"] = {"checkpoint": "never-read.json", "n_way": 3, "k_shot": 3}
    doc["corruption"]["r"] = 3
    cfg = write_config(tmp_path, doc)
    assert main(["test", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("error: corruption.r=3 needs r + 1 classes per episode, "
                                       "but test.n_way is 3\n")
    assert not os.path.exists(tmp_path / "o")


def test_distance_takes_only_the_listed_spellings(tmp_path, capsys):
    doc = tiny_train_doc()
    doc["rectify"]["distance"] = "squared-euclidean"
    cfg = write_config(tmp_path, doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("error: rectify.distance must be one of "
                                       "('euclidean', 'squared'), "
                                       "got 'squared-euclidean'\n")
    assert not os.path.exists(tmp_path / "o")


# On exact labels (r = 0, or a p that hits no support sample) no run smooths,
# so none reads k: not a 1-shot cell's k = shots - 1 = 0, nor a set k above
# the support size.
@pytest.mark.parametrize("edit", [
    _set(("bench", "k_shot", [1]), ("bench", "r", [0])),
    _set(("bench", "k_shot", [1]), ("bench", "p", 0.0)),
    _set(("rectify", "k", 100), ("bench", "r", [0])),
], ids=["K1-r0", "K1-p0", "k100-r0"])
def test_bench_exact_cells_ignore_k(tmp_path, edit):
    doc = tiny_bench_doc()
    doc["bench"]["methods"] = list(METHODS)
    edit(doc)
    cfg = write_config(tmp_path, doc)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == len(METHODS)
    assert len({row.split(",", 2)[2] for row in rows}) == 1  # every method scores as pn


# p = 0.2 hits floor(0.2 * 3) = 0 of the cell's 3 x 1 support samples
@pytest.mark.parametrize("corruption", [{"r": 0}, {"p": 0.2}], ids=["r0", "p-hits-none"])
def test_test_on_exact_labels_ignores_k(tmp_path, capsys, corruption):
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(init_network(NetworkSpec(4, (6,), 4), 0), str(ckpt))
    doc = tiny_train_doc()
    doc["corruption"].update(corruption)
    doc["test"] = {"checkpoint": str(ckpt), "n_way": 3, "k_shot": 1, "k_query": 4,
                   "rounds": 3}
    assert main(["test", "--config", write_config(tmp_path, doc)]) == 0
    printed = capsys.readouterr().out
    doc["rectify"]["iterations"] = 0  # pn
    assert main(["test", "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().out == printed


# Training on exact labels reads no k either: not a 1-shot task's
# k = shots - 1 = 0 (p = 0.1 hits floor(0.1 * 3 x 1) = 0 samples), nor a set
# k above the support size. Each run writes the bytes of no rectification.
@pytest.mark.parametrize("edit", [
    _set(("train", "k_support", 1), ("corruption", "r", 0)),
    _set(("train", "k_support", 1), ("corruption", "p", 0.1)),
    _set(("rectify", "k", 100), ("corruption", "r", 0)),
], ids=["K1-r0", "K1-p0.1", "k100-r0"])
def test_exact_label_training_ignores_k(tmp_path, edit):
    files = []
    for iterations in (10, 0):
        with open(os.path.join(CONFIGS, "train_tiny.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        doc["rectify"]["iterations"] = iterations
        out = tmp_path / str(iterations)
        assert main(["train", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        files.append({name: (out / name).read_bytes() for name in ("checkpoint.json", "log.csv")})
    assert files[0] == files[1]


# p hits floor(p * n_s) support samples: none of a 3-way 1-shot cell's 3 at
# p = 0.2, so its labels stay exact and no run smooths, or reads k, there.
# A training task's 3 x 3 samples, of which p hits one, still train each
# method on its own rectify config.
def test_bench_cell_whose_p_hits_no_sample_ignores_k(tmp_path):
    doc = tiny_bench_doc()
    doc["bench"].update(k_shot=[1], p=0.2, methods=list(METHODS))
    cfg = write_config(tmp_path, doc)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    plan = json.loads((tmp_path / "o" / "meta.json").read_text())["plan"]
    for name in METHODS:
        assert plan["runs"][f"N3-K1-r1-p0.2 {name}"]["test"]["iterations"] == 0, name
    trained = plan["train"].values()
    assert [(t["corruption"]["r"], t["rectify"]["iterations"], t["rectify"]["lam"])
            for t in trained] == [(1, 3, 0.5), (1, 3, 0.0), (1, 0, 0.5), (0, 0, 0.5)]


def test_one_shot_sweep_without_smoothing_runs(tmp_path):
    doc = tiny_bench_doc()
    doc["bench"].update(k_shot=[1], methods=["fspll"])
    doc["sweep"] = {"axis": "lambda", "values": [0.0]}
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_one_shot_training_names_k_support(tmp_path, capsys):
    doc = tiny_train_doc()
    doc["train"]["k_support"] = 1
    cfg = write_config(tmp_path, doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "train.k_support=1" in capsys.readouterr().err


@pytest.mark.parametrize("make, reason", [
    (lambda path: path.write_text("{not json"),
     "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (lambda path: path.write_bytes(b"\xff{}"),
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (lambda path: path.mkdir(), "Is a directory"),
], ids=["invalid-json", "not-utf8", "directory"])
def test_unreadable_config_fails_by_path(tmp_path, capsys, make, reason):
    path = tmp_path / "bad.json"
    make(path)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: config {path}: {reason}\n"
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("command, edit, message", [
    ("train", lambda doc: doc["corruption"].update(r=2),
     "corruption.r=2 needs r + 1 classes per training task, but train.n_way is 2"),
    ("bench", lambda doc: doc["bench"].update(r=[2]),
     "bench.r=2 needs r + 1 classes per training task, but train.n_way is 2"),
], ids=["train", "bench"])
def test_training_r_above_n_way_fails_before_any_output(tmp_path, capsys, monkeypatch, command,
                                                        edit, message):
    def no_training(*args):
        raise AssertionError("meta_train must not run")

    # bench checks before training; train's checks open meta_train
    monkeypatch.setattr(fspll.bench, "meta_train", no_training)
    doc = tiny_bench_doc()
    doc["train"]["n_way"] = 2
    edit(doc)
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("command", ["bench", "sweep"])
def test_bench_ignores_the_corruption_section(tmp_path, command):
    # the bench corrupts by bench.p and bench.r; corruption.r = 50 would not
    # fit a 3-way training task, but no bench run trains under it
    doc = tiny_bench_doc()
    doc["sweep"] = {"axis": "lambda", "values": [0.0, 0.5]}
    stray = json.loads(json.dumps(doc))
    stray["corruption"] = {"p": 0.5, "r": 50}
    for name, config in (("plain", doc), ("stray", stray)):
        cfg = write_config(tmp_path, config, f"{name}.json")
        assert main([command, "--config", cfg, "--out", str(tmp_path / name)]) == 0
    for name in ("summary.csv", "rounds.csv"):
        assert (tmp_path / "stray" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("command", ["train", "test", "bench", "sweep"])
def test_out_naming_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch, command):
    def no_training(*args):
        raise AssertionError("meta_train must not run")

    monkeypatch.setattr(fspll.bench, "meta_train", no_training)
    monkeypatch.setattr(fspll.cli, "meta_train", no_training)
    doc = tiny_bench_doc()
    _test_section()(doc)  # test reads the checkpoint only after --out passes
    doc["sweep"] = {"axis": "lambda", "values": [0.5]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    out.write_text("kept\n")
    for path, where in ((out, "names"), (out / "sub" / "dir", f"lies under {out},")):
        assert main([command, "--config", cfg, "--out", str(path)]) == 1
        assert capsys.readouterr().err == f"error: --out {path} {where} a file, not a directory\n"
    assert out.read_text() == "kept\n"
