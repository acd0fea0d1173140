import dataclasses
import inspect
import json
import os

import pytest

import fspll.bench
from fspll.bench import BenchSpec, sweep
from fspll.cli import DEFAULTS, config_keys, main
from fspll.embedding import NetworkSpec
from fspll.pll_core import RectifyConfig
from fspll.trainer import TrainConfig


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


def test_gen_world_writes_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, {"world": {"seed": 5, "classes": 8, "dim": 3,
                                            "sigma": 0.4}})
    out = tmp_path / "w"
    assert main(["gen-world", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "world.json").read_text())
    assert doc["classes"] == 8 and doc["seed"] == 5


def test_gen_world_seed_override(tmp_path):
    cfg = write_config(tmp_path, {"world": {"seed": 5, "classes": 8, "dim": 3,
                                            "sigma": 0.4}})
    out = tmp_path / "w"
    main(["gen-world", "--config", cfg, "--out", str(out), "--seed", "77"])
    assert json.loads((out / "world.json").read_text())["seed"] == 77


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
    assert "max relative gradient error" in out
    assert "fused training gradient vs graph" in out


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


def test_unknown_method_in_config_exits_one(tmp_path, capsys):
    doc = tiny_bench_doc()
    doc["bench"]["methods"] = ["frob"]
    cfg = write_config(tmp_path, doc)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown method" in capsys.readouterr().err


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
        for key, default in config_keys():
            assert f"  {key} ({json.dumps(default)})" in out


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
            assert DEFAULTS[section][key] == json.loads(json.dumps(library[key])), \
                f"{section}.{key}"
    assert train["rectify"] == RectifyConfig()
    assert _library_defaults(BenchSpec)["base_rectify"] == RectifyConfig()
    # The one deliberate difference: the CLI holds out classes by default,
    # while the library's None trains on every world class.
    assert DEFAULTS["train_classes"] == 30 and train["train_classes"] is None


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["rectify"].update(lamda=0.0), "unknown config key rectify.lamda"),
    (lambda d: d.update(trian={}), "unknown config key trian"),
    (lambda d: d.update(world=5), "config key world must be a JSON object"),
], ids=["misspelt-key", "unknown-section", "section-not-object"])
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
    ("world", "path", 3, "config key world.path must be a string or null, got 3"),
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


def test_invalid_json_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "invalid JSON" in capsys.readouterr().err
