import csv
import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

import fspll.bench
from fspll.bench import METHODS, BenchSpec, Cell, run_benchmark, sweep, write_report
from fspll.embedding import NetworkSpec
from fspll.episodes import CorruptionSpec, draw_episodes, make_world
from fspll.pll_core import DISTANCE_KINDS, RectifyConfig
from fspll.trainer import TrainConfig, meta_test, meta_train


def tiny_spec(**overrides):
    world = make_world(1, classes=12, dim=4, sigma=0.5)
    train = TrainConfig(network=NetworkSpec(4, (), 4), max_epoch=2,
                        tasks_per_epoch=3, n_way=3, k_support=3, k_query=4,
                        train_classes=8, init_seed=2, task_seed=3)
    defaults = dict(world=world, train=train,
                    n_way=[3], k_shot=[3], r=[1], p=1.0, rounds=3,
                    methods=["fspll", "pn"], k_query=5, eval_seed=4)
    defaults.update(overrides)
    return BenchSpec(**defaults)


# -- method variants --------------------------------------------------------------

def method_rectify(name, base=RectifyConfig()):
    """The rectify config the METHODS entry `name` trains and tests with."""
    return replace(base, **METHODS[name][0])


def test_variant_fspll_nm_only_differs_in_lambda():
    base = RectifyConfig(iterations=10, lam=0.5, k=4)
    assert method_rectify("fspll-nm", base) == replace(base, lam=0.0)
    assert method_rectify("fspll", base) == base
    assert (METHODS["fspll-nm"][1], METHODS["fspll"][1]) == (False, False)


def test_variant_pn_disables_rectification():
    assert method_rectify("pn").iterations == 0


def test_variant_plus_only_differs_in_meta_train_corruption():
    for name in ("fspll", "pn"):
        assert method_rectify(name) == method_rectify(f"{name}-plus")
        assert (METHODS[name][1], METHODS[f"{name}-plus"][1]) == (False, True)


def test_variant_unknown_name_lists_valid():
    with pytest.raises(ValueError, match=re.escape(
            f"bench.methods[1] must be one of {tuple(METHODS)}, got 'protonet'")):
        tiny_spec(methods=["fspll", "protonet"])


# -- run_benchmark -----------------------------------------------------------------

def test_single_round_single_method():
    res = run_benchmark(tiny_spec(rounds=1, methods=["fspll"]))
    label = res.cells[0].label()
    assert len(res.accuracies[(label, "fspll")]) == 1
    assert 0.0 <= res.accuracies[(label, "fspll")][0] <= 1.0


def test_methods_share_episode_streams():
    res = run_benchmark(tiny_spec())
    label = res.cells[0].label()
    assert len(res.meta["episode_hashes"][label]) == 3
    # rerunning reproduces the identical stream
    res2 = run_benchmark(tiny_spec())
    assert res.meta["episode_hashes"] == res2.meta["episode_hashes"]
    assert res.accuracies == res2.accuracies


def test_fspll_equals_pn_on_clean_episodes():
    # singleton candidate sets: rectified confidences never leave one-hot, so
    # the full pipeline and the no-rectification baseline coincide per round
    res = run_benchmark(tiny_spec(r=[0], rounds=4, methods=["fspll", "pn"]))
    label = res.cells[0].label()
    assert res.accuracies[(label, "fspll")] == res.accuracies[(label, "pn")]


def test_fspll_with_zero_iterations_reduces_to_pn():
    train = replace(tiny_spec().train, rectify=RectifyConfig(iterations=0))
    spec = tiny_spec(r=[0], train=train, rounds=4)
    res = run_benchmark(spec)
    label = res.cells[0].label()
    assert res.accuracies[(label, "fspll")] == res.accuracies[(label, "pn")]


def test_grid_covers_all_cells():
    res = run_benchmark(tiny_spec(n_way=[3, 4], k_shot=[3], r=[0, 1], rounds=2))
    assert len(res.cells) == 4
    assert len(res.accuracies) == 4 * 2


class Trained(Exception):
    """Raised by the meta_train stub: the run plan passed every check."""


@pytest.fixture
def stub_training(monkeypatch):
    def trained(*args):
        raise Trained

    monkeypatch.setattr(fspll.bench, "meta_train", trained)


def test_spec_validation(stub_training):
    # the plan checks the held-out pool of each cell before any training
    with pytest.raises(ValueError, match="held-out"):
        run_benchmark(tiny_spec(n_way=[10]))
    # a train config without train_classes trains on every class
    train = replace(tiny_spec().train, train_classes=None)
    with pytest.raises(ValueError, match=re.escape(
            "held-out pool (0 classes) is smaller than bench.n_way=3: "
            "the world's 12 classes minus train_classes=12")):
        run_benchmark(tiny_spec(train=train))
    with pytest.raises(ValueError, match="methods"):
        tiny_spec(methods=[])
    with pytest.raises(ValueError, match=re.escape("bench.methods[0] must be one of")):
        tiny_spec(methods=["nope"])
    with pytest.raises(ValueError, match="rounds"):
        tiny_spec(rounds=0)
    with pytest.raises(ValueError, match=re.escape("bench.eval_seed must be in [0, inf), got -1")):
        tiny_spec(eval_seed=-1)


# n_way [3, 2] puts the N3 cell, which r = 2 fits, before the N2 cell it does not
@pytest.mark.parametrize("overrides, message", [
    (dict(k_query=0), "bench.k_query must be in [1, inf), got 0"),
    (dict(n_way=[3, 2], r=[2]),
     "bench.r=2 needs r + 1 classes per episode, but bench.n_way is 2"),
], ids=["k_query", "r"])
def test_spec_rejects_bad_settings_before_any_training(stub_training, overrides, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_benchmark(tiny_spec(**overrides))


@pytest.mark.parametrize("overrides", [
    dict(methods=["fspll-plus", "pn-plus"]),  # every checkpoint trains on clean labels
    dict(p=0.0),                              # no label is ever ambiguous
], ids=["plus", "p0"])
def test_spec_checks_only_the_r_values_it_trains(stub_training, overrides):
    train = replace(tiny_spec().train, n_way=2)
    with pytest.raises(ValueError, match="bench.r=2 needs r [+] 1 classes per training task"):
        run_benchmark(tiny_spec(train=train, r=[0, 2]))
    with pytest.raises(Trained):
        run_benchmark(tiny_spec(train=train, r=[0, 2], **overrides))


# -- sweep -------------------------------------------------------------------------

def test_sweep_lambda_with_retrain_reproduces_ablation():
    spec = tiny_spec(methods=["fspll"], rounds=3)
    swept = sweep(spec, "lambda", [0.0, 0.5], retrain=True)
    bench = run_benchmark(tiny_spec(methods=["fspll", "fspll-nm"], rounds=3))
    base_label = bench.cells[0].label()
    lam0 = [c for c in swept.cells if c.axis_value == 0.0][0]
    lam5 = [c for c in swept.cells if c.axis_value == 0.5][0]
    assert swept.accuracies[(lam0.label(), "fspll")] == \
        bench.accuracies[(base_label, "fspll-nm")]
    assert swept.accuracies[(lam5.label(), "fspll")] == \
        bench.accuracies[(base_label, "fspll")]


def test_sweep_values_share_episode_streams(monkeypatch):
    # the 3 rounds of the one base cell fit one stack: one draw serves both values
    draws = []

    def counting_draw_episodes(*args):
        draws.append(args)
        return draw_episodes(*args)

    monkeypatch.setattr(fspll.bench, "draw_episodes", counting_draw_episodes)
    spec = tiny_spec(methods=["fspll"])
    swept = sweep(spec, "lambda", [0.0, 1.0])
    h0 = swept.meta["episode_hashes"][swept.cells[0].label()]
    h1 = swept.meta["episode_hashes"][swept.cells[1].label()]
    assert h0 == h1
    assert len(draws) == 1


def test_sweep_k_axis_validates_range():
    spec = tiny_spec(methods=["fspll"])
    with pytest.raises(ValueError, match="k=9"):
        sweep(spec, "k", [9])  # n_s = 3*3 = 9
    swept = sweep(spec, "k", [1, 2])
    assert len(swept.cells) == 2


def test_sweep_k_is_not_checked_where_no_run_smooths():
    # pn does not smooth, so a k above its cells' 3 x 3 support samples is
    # never used; the bench ignores rectify.k there in the same way
    spec = tiny_spec(methods=["pn"])
    swept = sweep(spec, "k", [9, 20])
    bench = run_benchmark(spec)
    pn = bench.accuracies[(bench.cells[0].label(), "pn")]
    assert [swept.accuracies[(c.label(), "pn")] for c in swept.cells] == [pn, pn]


def test_sweep_rejects_bad_axis():
    with pytest.raises(ValueError, match="axis"):
        sweep(tiny_spec(), "temperature", [1.0])


# -- shared clean-label checkpoints -----------------------------------------------

@pytest.mark.parametrize("corruption", [CorruptionSpec(1.0, 0), CorruptionSpec(0.0, 2)],
                         ids=["r0", "p0"])
@pytest.mark.parametrize("step_per_task", [False, True])
@pytest.mark.parametrize("distance", DISTANCE_KINDS)
def test_clean_label_training_ignores_rectification(distance, step_per_task, corruption):
    # the invariant the checkpoint cache relies on: on exact labels the
    # fspll, fspll-nm and pn training configs, and the one the cache trains,
    # give the same weights to the last bit
    assert corruption.exact(3 * 3)  # n_way x k_support below
    world = make_world(5, classes=10, dim=4, sigma=0.6)
    base = RectifyConfig(distance=distance)
    trained = []
    for rect in [method_rectify(m, base) for m in ("fspll", "fspll-nm", "pn")] \
            + [RectifyConfig(iterations=0, distance=distance)]:
        config = TrainConfig(network=NetworkSpec(4, (6,), 4), max_epoch=2, tasks_per_epoch=3,
                             n_way=3, k_support=3, k_query=4, train_classes=6, rectify=rect,
                             corruption=corruption, lr0=0.05, init_seed=6, task_seed=7,
                             step_per_task=step_per_task)
        params, _ = meta_train(config, world)
        trained.append(params.weights + params.biases)
    for other in trained[1:]:
        for got, want in zip(other, trained[0]):
            np.testing.assert_array_equal(got, want)


def assert_same_scores(shared, per_variant):
    """Two run directories hold the same rounds, scores and episode hashes,
    and their plans give every run the same test config; return the first's
    plan. The plans differ in their training configs, which record the
    sharing."""
    for name in ("rounds.csv", "summary.csv"):
        assert (shared / name).read_bytes() == (per_variant / name).read_bytes()
    metas = [json.loads((run_dir / "meta.json").read_text()) for run_dir in (shared, per_variant)]
    assert metas[0]["episode_hashes"] == metas[1]["episode_hashes"]
    tests = [{run: r["test"] for run, r in meta["plan"]["runs"].items()} for meta in metas]
    assert tests[0] == tests[1]
    return metas[0]["plan"]


def train_config_per_variant(spec, rect, clean, r_cell):
    """Reference training config: one checkpoint per rectify variant, with no
    sharing on clean labels."""
    corruption = CorruptionSpec(spec.p, 0 if clean else r_cell)
    return replace(spec.train, rectify=rect, corruption=corruption)


# p = 1: r = 0 puts every method on one clean checkpoint; r = 1 adds fspll,
# fspll-nm and pn, while the plus variants reuse the clean one. p = 0: no
# label is ever ambiguous, so one checkpoint serves every cell and method.
@pytest.mark.parametrize("p, shared", [(1.0, 4), (0.0, 1)])
def test_clean_label_checkpoints_are_shared_without_changing_reports(tmp_path, monkeypatch,
                                                                     p, shared):
    calls = []

    def counting_meta_train(config, world):
        calls.append(config)
        return meta_train(config, world)

    monkeypatch.setattr(fspll.bench, "meta_train", counting_meta_train)
    spec = tiny_spec(r=[0, 1], p=p, methods=list(METHODS), rounds=3)
    write_report(run_benchmark(spec), tmp_path / "shared")
    assert len(calls) == shared
    monkeypatch.setattr(fspll.bench, "_train_config", train_config_per_variant)
    write_report(run_benchmark(spec), tmp_path / "per_variant")
    assert len(calls) == shared + 6
    plan = assert_same_scores(tmp_path / "shared", tmp_path / "per_variant")
    assert len(plan["train"]) == shared


def test_exact_label_cells_score_each_checkpoint_once(tmp_path, monkeypatch):
    # on the r = 0 cell fspll, fspll-nm and pn share one checkpoint, and each
    # test config reduces to the identity there: one meta_test call scores
    # all three. With one checkpoint per variant nothing is shared, and the
    # scores must not change.
    calls = []

    def counting_meta_test(params, episodes, cfg):
        calls.append(cfg)
        return meta_test(params, episodes, cfg)

    monkeypatch.setattr(fspll.bench, "meta_test", counting_meta_test)
    spec = tiny_spec(r=[0, 1], methods=["fspll", "fspll-nm", "pn"], rounds=3)
    result = run_benchmark(spec)
    write_report(result, tmp_path / "shared")
    assert len(calls) == 1 + 3  # one stack of 3 rounds per cell
    exact = result.cells[0].label()
    assert result.accuracies[(exact, "fspll")] == result.accuracies[(exact, "fspll-nm")] \
        == result.accuracies[(exact, "pn")]
    monkeypatch.setattr(fspll.bench, "_train_config", train_config_per_variant)
    write_report(run_benchmark(spec), tmp_path / "per_variant")
    assert len(calls) == 4 + 3 + 3
    plan = assert_same_scores(tmp_path / "shared", tmp_path / "per_variant")
    assert len(plan["train"]) == 4  # one checkpoint for the r = 0 cell, three for r = 1


# An exact cell runs no smoothing, so it reads no k: not a 1-shot cell's
# k = shots - 1 = 0, nor a set k above its support size. Nor does training
# on exact labels: it trains the weights of no rectification.
@pytest.mark.parametrize("k_shot, r, p, k", [(1, 0, 1.0, None), (1, 2, 0.0, None),
                                             (3, 0, 1.0, 100)],
                         ids=["K1-r0", "K1-p0", "k100-r0"])
def test_exact_cells_score_every_method_as_pn_whatever_k(k_shot, r, p, k):
    spec = tiny_spec(k_shot=[k_shot], r=[r], p=p, methods=list(METHODS))
    spec.train = replace(spec.train, rectify=RectifyConfig(k=k))
    result = run_benchmark(spec)
    label = result.cells[0].label()
    pn = result.accuracies[(label, "pn")]
    assert len(pn) == 3
    for name in METHODS:
        assert result.accuracies[(label, name)] == pn, name
    train = replace(spec.train, k_support=k_shot, corruption=CorruptionSpec(p, r))
    trained, identity = (meta_train(config, spec.world)[0] for config in
                         (train, replace(train, rectify=RectifyConfig(iterations=0))))
    for got, want in zip(trained.weights + trained.biases, identity.weights + identity.biases):
        np.testing.assert_array_equal(got, want)


# -- reports -----------------------------------------------------------------------

def test_write_report_files_and_recomputation(tmp_path):
    res = run_benchmark(tiny_spec(rounds=4))
    paths = write_report(res, tmp_path / "run")

    with open(paths["rounds.csv"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(res.cells) * len(res.methods) * 4

    with open(paths["summary.csv"]) as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == len(res.cells) * len(res.methods)

    for row in summary:
        accs = [float(r["accuracy"]) for r in rows
                if r["cell"] == row["cell"] and r["method"] == row["method"]]
        assert abs(float(row["mean"]) - np.mean(accs)) < 1e-6
        assert abs(float(row["std"]) - np.std(accs)) < 1e-6

    meta = json.loads((tmp_path / "run" / "meta.json").read_text())
    assert meta["std"] == "population"
    assert len(meta["config_hash"]) == 64


# -- the run plan in meta.json ----------------------------------------------------

@pytest.mark.parametrize("run", [run_benchmark, lambda spec: sweep(spec, "k", [1, 2])],
                         ids=["bench", "sweep"])
def test_config_hash_recomputes_from_the_plan_in_meta_json(tmp_path, run):
    paths = write_report(run(tiny_spec()), tmp_path / "run")
    with open(paths["meta.json"], encoding="utf-8") as fh:
        meta = json.load(fh)
    blob = json.dumps(meta["plan"], sort_keys=True, separators=(",", ":"))
    assert meta["config_hash"] == hashlib.sha256(blob.encode()).hexdigest()
    # the plan holds every seed, so meta.json lists them nowhere else
    assert "seeds" not in meta
    plan = meta["plan"]
    assert (plan["world"]["seed"], plan["eval_seed"]) == (1, 4)
    assert {(t["init_seed"], t["task_seed"]) for t in plan["train"].values()} == {(2, 3)}


def test_config_hash_tells_a_retrain_sweep_from_a_fixed_one():
    spec = tiny_spec(methods=["fspll"])
    fixed, retrained = (sweep(spec, "lambda", [0.0, 0.5], retrain=retrain)
                        for retrain in (False, True))
    assert [len(res.meta["plan"]["train"]) for res in (fixed, retrained)] == [1, 2]
    assert fixed.meta["config_hash"] != retrained.meta["config_hash"]


def test_train_corruption_leaves_meta_json_alone(tmp_path):
    # no bench reads the train config's own corruption: each run trains under
    # its cell's
    spec = tiny_spec()
    stray = tiny_spec(train=replace(spec.train, corruption=CorruptionSpec(0.5, 2)))
    write_report(run_benchmark(spec), tmp_path / "a")
    write_report(run_benchmark(stray), tmp_path / "b")
    for name in ("rounds.csv", "summary.csv", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_plan_records_which_runs_share_a_checkpoint():
    res = run_benchmark(tiny_spec(r=[0, 1], methods=list(METHODS)))
    plan = res.meta["plan"]
    exact, noisy = ({name: plan["runs"][f"{cell.label()} {name}"]["train"] for name in METHODS}
                    for cell in res.cells)
    clean = exact["fspll"]
    assert exact["fspll-nm"] == exact["pn"] == clean
    assert noisy["fspll-plus"] == noisy["pn-plus"] == clean
    assert plan["train"][clean]["corruption"] == {"p": 1.0, "r": 0}
    assert sorted(plan["train"]) == ["t0", "t1", "t2", "t3"]
    assert sorted({noisy[name] for name in ("fspll", "fspll-nm", "pn")}) == ["t1", "t2", "t3"]


def test_write_report_is_byte_deterministic(tmp_path):
    res = run_benchmark(tiny_spec(rounds=2))
    write_report(res, tmp_path / "a")
    write_report(res, tmp_path / "b")
    for name in ("rounds.csv", "summary.csv", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_aggregation_matches_recomputation():
    res = run_benchmark(tiny_spec(rounds=5, methods=["fspll"]))
    label = res.cells[0].label()
    accs = res.accuracies[(label, "fspll")]
    assert abs(res.mean(label, "fspll") - np.mean(accs)) < 1e-12
    assert abs(res.std(label, "fspll") - np.std(accs)) < 1e-12


def test_cell_labels():
    assert Cell(5, 5, 2, 1.0).label() == "N5-K5-r2-p1"
    assert Cell(5, 5, 2, 1.0, "lambda", 0.5).label() == "N5-K5-r2-p1-lambda0.5"
