"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5 to 8 judge the pinned runs `tiny`, `desk`, `noise` and `sweep` of
tests/test_pinned_runs.py, which run the shipped configs unedited, once per
session for their digests and their gates (the `pinned_run` fixture of
tests/conftest.py): c5 reads the log.csv of `tiny` (configs/train_tiny.json),
c6 the summary.csv rows of `desk` (configs/bench_desk.json) at its gated
cell, c7 the summary.csv of `noise` (configs/noise_impact.json), and c8 the
summary.csv rows of `sweep` (configs/sweep_lambda.json) at the gated lambda
values. Each gate parses its config as `fspll` reads it: the only values
these gates name are that cell and those values, and each must be in its
config. The log holds the exact repr of each loss and learning rate.
summary.csv rounds each mean to 6 decimals, which cannot reorder two means:
a round's accuracy is a multiple of 1/n_q over its n_q queries, so two means
over R rounds that differ at all differ by at least 1/(n_q R), 2.7e-4 for c6
(75 queries, 50 rounds), 1.3e-4 for c7 (150, 50) and 4.4e-5 for c8 (75, 300),
far above the 5e-7 of rounding; equal means round alike. The benchmark
configs are small frozen configurations chosen from robustness scans over
many seeds; the seeds were fixed before freezing, not selected afterward.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import csv
import json
import os
import time
from dataclasses import replace

import numpy as np

from fspll.bench import Cell
from fspll.cli import _parse_bench, _parse_train, main
from fspll.embedding import NetworkSpec, embed_layers, init_network
from fspll.episodes import CorruptionSpec, corrupt, make_world, sample_episode
from fspll.pll_core import (RectifyConfig, classify_proba, compute_prototypes,
                            knn_indices, pairwise_distance, predict, rectify,
                            smooth_confidence, update_confidence)
from fspll.trainer import episode_loss_graph, episode_loss_grad, grad_check, lr_at

from test_cli import shipped
from test_pinned_runs import RUNS
from test_pll_core import naive_rectify, random_instance


def report(number, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- criterion 1: gradient suite ---------------------------------------------------

def test_c1_gradient_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    fused_dev = 0.0
    episodes = 0
    checked = 0
    while episodes < 20:
        d = int(rng.integers(3, 9))        # d <= 8
        n_way = int(rng.integers(2, 5))    # N <= 4
        shots = int(rng.integers(2, 5))    # K <= 4
        r = int(rng.integers(0, n_way))
        world = make_world(int(rng.integers(2 ** 31)), classes=n_way + 2, dim=d,
                           sigma=0.6)
        episode = sample_episode(world, list(range(n_way)), shots,
                                 int(rng.integers(2, 5)), rng)
        episode = corrupt(episode, CorruptionSpec(1.0, r), rng)
        spec = NetworkSpec(d, (int(rng.integers(4, 9)),), int(rng.integers(3, 7)))
        params = init_network(spec, int(rng.integers(2 ** 31)))
        cfg = RectifyConfig(iterations=5, lam=0.5,
                            k=max(shots - 1, 1) if shots > 1 else None)
        support_layers = embed_layers(params, episode.support)
        _, Q = rectify(support_layers[-1], episode.candidates, cfg)
        res = grad_check(params, episode, Q, "euclidean", step=1e-5)
        worst = max(worst, res.max_rel_error)
        checked += res.checked
        # the fused gradient meta_train steps with must also equal the graph's
        _, grad_w, grad_b = episode_loss_grad(params, support_layers, episode, Q, "euclidean")
        graph, sink, layers = episode_loss_graph(params, episode, Q, "euclidean")
        graph.backward(sink)
        for (w_node, b_node), gw, gb in zip(layers, grad_w, grad_b):
            for node, g in ((w_node, gw), (b_node, gb)):
                dev = abs(g - node.grad) / np.maximum(1.0, abs(node.grad))
                fused_dev = max(fused_dev, dev.max())
        episodes += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and fused_dev < 1e-12 and elapsed < 30.0
    report(1, ok, f"{episodes} episodes, {checked} entries checked, "
                  f"max rel error {worst:.2e}, fused vs graph {fused_dev:.1e}, {elapsed:.1f}s")


# -- criterion 2: confidence invariants --------------------------------------------

def test_c2_confidence_invariants():
    rng = np.random.default_rng(102)
    rounds = 0
    worst_dev = 0.0
    clean_off_candidate = True
    while rounds < 1000:
        Z, Y = random_instance(rng)
        k = int(rng.integers(1, Z.shape[1]))
        neighbors = knn_indices(Z, k)
        lam = float(rng.uniform(0.0, 2.0))
        Q = Y / Y.sum(axis=0, keepdims=True)
        for _ in range(int(rng.integers(1, 6))):
            P = compute_prototypes(Z, Q)
            D = pairwise_distance(P.T, Z)
            Q = update_confidence(D, Y)
            worst_dev = max(worst_dev, abs(Q.sum(axis=0) - 1.0).max())
            clean_off_candidate &= (Q[Y == 0] == 0).all()
            Q = smooth_confidence(Q, Y, neighbors, lam)
            worst_dev = max(worst_dev, abs(Q.sum(axis=0) - 1.0).max())
            clean_off_candidate &= (Q[Y == 0] == 0).all()
            rounds += 1
    ok = worst_dev < 1e-9 and clean_off_candidate
    report(2, ok, f"{rounds} rectification rounds, max column-sum deviation "
                  f"{worst_dev:.2e}, off-candidate exactly zero: {clean_off_candidate}")


# -- criterion 3: oracle equivalence ------------------------------------------------

def test_c3_oracle_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        Z, Y = random_instance(rng)  # n_s <= 10, l <= 4
        k = int(rng.integers(1, min(4, Z.shape[1])))
        lam = float(rng.choice([0.0, 0.5, 1.0]))
        cfg = RectifyConfig(iterations=10, lam=lam, k=k)
        P, Q = rectify(Z, Y, cfg)
        P2, Q2 = naive_rectify(Z, Y, 10, lam, k, "euclidean")
        worst = max(worst, abs(Q - Q2).max(), abs(P - P2).max())
    ok = worst < 1e-10
    report(3, ok, f"100 random instances, max |impl - straight-line oracle| = {worst:.2e}")


# -- criterion 4: reduction identities ----------------------------------------------

def test_c4_reduction_identities():
    rng = np.random.default_rng(104)
    # (a) singleton candidate sets are a fixed point for any iteration count
    fixed_ok = True
    for _ in range(20):
        world = make_world(int(rng.integers(2 ** 31)), classes=5, dim=3, sigma=0.5)
        ep = sample_episode(world, [0, 1, 2], 3, 2, rng)
        for iters in (0, 1, 7, 10):
            _, Q = rectify(ep.support, ep.candidates,
                           RectifyConfig(iterations=iters, lam=0.5, k=2))
            fixed_ok &= np.array_equal(Q, ep.candidates.astype(float))

    # (b) iterations=0 prototypes equal PN's unweighted candidate means
    # (homogeneous candidate counts: p in {0, 1})
    pn_dev = 0.0
    for p_corrupt in (0.0, 1.0):
        for _ in range(10):
            world = make_world(int(rng.integers(2 ** 31)), classes=6, dim=4, sigma=0.5)
            ep = sample_episode(world, [0, 1, 2, 3], 3, 2, rng)
            ep = corrupt(ep, CorruptionSpec(p_corrupt, 2), rng)
            P, _ = rectify(ep.support, ep.candidates, RectifyConfig(iterations=0))
            pn = compute_prototypes(ep.support, ep.candidates.astype(float))
            pn_dev = max(pn_dev, abs(P - pn).max())

    # (c) predict == nearest-prototype argmin with identical tie-breaking
    align_ok = True
    for _ in range(50):
        P = rng.uniform(-2, 2, (int(rng.integers(2, 6)), 4))
        Zq = rng.uniform(-2, 2, (4, int(rng.integers(1, 8))))
        probs = classify_proba(Zq, P)
        D = pairwise_distance(P.T, Zq)
        align_ok &= np.array_equal(predict(probs), D.argmin(axis=0))
    # explicit tie: two prototypes at equal distance -> lowest index wins
    P = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
    probs = classify_proba(np.zeros((2, 1)), P)
    align_ok &= predict(probs)[0] == 0 == pairwise_distance(P.T, np.zeros((2, 1))).argmin(axis=0)[0]

    ok = fixed_ok and pn_dev < 1e-12 and align_ok
    report(4, ok, f"singleton fixed point: {fixed_ok}; PN-reduction max dev "
                  f"{pn_dev:.2e}; predict==argmin: {align_ok}")


# -- criteria 5 to 8: the gated pinned runs ----------------------------------------

# the pinned run each of c5-c8 judges, and the shipped config it runs unedited
GATED = {"tiny": "train_tiny.json", "desk": "bench_desk.json",
         "noise": "noise_impact.json", "sweep": "sweep_lambda.json"}


def gated(pinned_run, run_id):
    """The settings of a gated run's shipped config, read as `fspll` reads
    them, and the run's output directory and wall seconds."""
    out, seconds = pinned_run(run_id)
    return shipped(GATED[run_id]), out, seconds


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def summary_means(out):
    """summary.csv's mean accuracy by (cell label, method)."""
    return {(row["cell"], row["method"]): float(row["mean"])
            for row in read_csv(out / "summary.csv")}


def test_each_gate_judges_its_shipped_config_unedited():
    runs = {run.id: run for run in RUNS}
    for run_id, name in GATED.items():
        assert (runs[run_id].base, runs[run_id].edits) == (name, {}), run_id


# -- criterion 5: training sanity ----------------------------------------------------

def test_c5_training_sanity(pinned_run):
    cfg, out, elapsed = gated(pinned_run, "tiny")
    config = _parse_train(cfg, cfg["world"]["dim"])
    # the check below sees one halving: the run must end within its second period
    period = config.lr_half_period
    assert period < config.max_epoch <= 2 * period
    log = read_csv(out / "log.csv")
    losses = [float(row["loss"]) for row in log]
    lrs = [float(row["lr"]) for row in log]
    half = config.lr0 / 2
    lr_ok = (all(lr == config.lr0 for lr in lrs[:period])
             and all(lr == half for lr in lrs[period:])
             and lr_at(period, config.lr0, period) == half)
    ok = losses[-1] < losses[0] and lr_ok and elapsed < 60.0
    report(5, ok, f"epoch-1 loss {losses[0]:.4f} -> epoch-{len(losses)} loss {losses[-1]:.4f}, "
                  f"lr halves at epoch {period} exactly: {lr_ok}, {elapsed:.1f}s")


# -- criteria 6 and 7: benchmark orderings -------------------------------------------

# The desk grid's N2=5, K2=5, p=1, r=2 cell, in the capacity-limited regime
# where manifold smoothing measurably helps.
C6_CELL = Cell(n_way=5, k_shot=5, r=2, p=1.0)


def test_c6_qualitative_ordering(pinned_run):
    cfg, out, elapsed = gated(pinned_run, "desk")  # elapsed: the whole desk grid
    assert C6_CELL in _parse_bench(cfg).cells()
    mean = summary_means(out)
    cell = C6_CELL.label()
    f = mean[cell, "fspll"]
    nm = mean[cell, "fspll-nm"]
    pn = mean[cell, "pn"]
    ok = (f - nm > 0.02) and (nm - pn > 0.02) and elapsed < 600.0
    report(6, ok, f"fspll {f:.3f} > fspll-nm {nm:.3f} > pn {pn:.3f} "
                  f"(gaps {f - nm:+.3f}, {nm - pn:+.3f}), {elapsed:.0f}s single-threaded")


def test_c7_noise_impact_ordering(pinned_run):
    # A Fig-3-style cell (N2=10, K2=5, r=2). The embedding compresses 16 -> 4
    # dims, so the learned projection is load-bearing and meta-training label
    # noise can damage it; label-supervised per-task training provides the
    # steps for that damage to accumulate.
    cfg, out, _ = gated(pinned_run, "noise")
    [cell] = [c.label() for c in _parse_bench(cfg).cells()]
    mean = summary_means(out)
    f = mean[cell, "fspll"]
    fp = mean[cell, "fspll-plus"]
    pn = mean[cell, "pn"]
    pp = mean[cell, "pn-plus"]
    ok = (pp > pn) and (fp > f) and (fp >= pp)
    report(7, ok, f"pn-plus {pp:.3f} > pn {pn:.3f}; fspll-plus {fp:.3f} > fspll {f:.3f}; "
                  f"fspll-plus >= pn-plus: {fp >= pp}")


# -- criterion 8: sensitivity trend ---------------------------------------------------

C8_LAMBDAS = [0.0, 0.5, 5.0]


def test_c8_lambda_sensitivity(pinned_run):
    # The config scores 300 paired rounds: the structural trend is ~1
    # accuracy point per side, so the round count (unpinned by the criterion)
    # drives the noise down.
    cfg, out, _ = gated(pinned_run, "sweep")
    section = cfg["sweep"]
    assert section["axis"] == "lambda" and set(C8_LAMBDAS) <= set(section["values"])
    [cell] = _parse_bench(cfg).cells()
    mean = summary_means(out)
    accs = {lam: mean[replace(cell, axis="lambda", axis_value=lam).label(), "fspll"]
            for lam in C8_LAMBDAS}
    ok = accs[0.5] >= accs[0.0] and accs[0.5] >= accs[5.0]
    report(8, ok, f"accuracy(lambda): 0 -> {accs[0.0]:.3f}, 0.5 -> {accs[0.5]:.3f}, "
                  f"5.0 -> {accs[5.0]:.3f}")


# -- criterion 9: CLI determinism ------------------------------------------------------

def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_c9_cli_determinism(tmp_path, capsys):
    base = {
        "world": {"seed": 9, "classes": 12, "dim": 4, "sigma": 0.5},
        "train_classes": 8,
        "network": {"hidden_dims": [6], "output_dim": 4},
        "train": {"max_epoch": 2, "tasks_per_epoch": 3, "n_way": 3,
                  "k_support": 3, "k_query": 4},
        "rectify": {"iterations": 5, "lambda": 0.5},
        "corruption": {"p": 1.0, "r": 1},
        "bench": {"n_way": [3], "k_shot": [3], "r": [1], "rounds": 3,
                  "methods": ["fspll", "pn"], "k_query": 4, "eval_seed": 2},
        "sweep": {"axis": "lambda", "values": [0.0, 0.5]},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(base))
    train_run = tmp_path / "train_a"
    assert main(["train", "--config", str(cfg), "--out", str(train_run)]) == 0
    base["test"] = {"checkpoint": str(train_run / "checkpoint.json"), "n_way": 3,
                    "k_shot": 3, "k_query": 4, "rounds": 2, "eval_seed": 3}
    cfg.write_text(json.dumps(base))

    commands = {
        "train": ["train", "--config", str(cfg)],
        "test": ["test", "--config", str(cfg)],
        "bench": ["bench", "--config", str(cfg)],
        "sweep": ["sweep", "--config", str(cfg)],
    }
    all_ok = True
    details = []
    for name, argv in commands.items():
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        same = _tree_bytes(out_a) == _tree_bytes(out_b)
        all_ok &= same
        details.append(f"{name}:{'=' if same else '!='}")
    # grad-check emits no files; its stdout must be identical instead
    capsys.readouterr()
    assert main(["grad-check", "--seed", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["grad-check", "--seed", "4"]) == 0
    second = capsys.readouterr().out
    all_ok &= first == second
    details.append(f"grad-check:{'=' if first == second else '!='}")
    report(9, all_ok, "byte-identical reruns: " + " ".join(details))
