"""End-to-end benchmark of the fspll command line, with a traced per-layer run.

    python3 perfbench/run.py --workload desk-grid --seed 0 --seconds 60 --trace 0

Each workload is one fspll command, run from argv to written reports in a
fresh child process (`perfbench/child.py`); one child runs at a time, so the
load is a single closed-loop client. The run repeats the command while the
--seconds budget allows. Between full repeats it runs replays: the same
command with each checkpoint the first full repeat trained handed back by
`meta_train` instead of trained again, so the evaluation phase, a fifth of a
full repeat or less, is measured over about a third of the run. wall_s is a
median over the full repeats and setup_s one over all repeats, replays too,
so that both sample the whole run; the two rates pool work and time over the
repeats, so seconds-long slow spells of the host average out instead of
deciding a median of few samples.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced children and prints per-layer calls, self and inclusive times, the
time no traced span covers and the tracing overhead (traced minus untraced
wall time).

--seed 0 runs the repo configs as they are. Any other seed derives every
seed of the workload (world, init, task, eval) from it and hands the command
a rewritten copy of the config.

Every command's outputs are checked: exit code, the three report files, one
accuracy in [0, 1] per round per (cell, method), one episode hash per round
per cell, summary means that agree with the rounds, and byte-identical
reports across the repeats of a run. At seed 0 the paper's orderings must
hold. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
error_rate and ordering_margin are printed above it but stay out of the
metrics: the first is 0 on a working program and the second can be 0 or
negative on other seeds, so neither can carry a relative bound.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

# One thread, at most nproc: on a 2-core Xeon VM (OpenBLAS 0.3.31) the
# large-episode workload used 7.7 s CPU for 4.1 s wall with two OpenBLAS
# threads and 4.6 s CPU for 4.4 s wall with one.
BLAS_THREADS = 1
REPLAY_SHARE = 1 / 3  # share of the run's child time spent on replays
CHILD_LIMIT_S = 170   # no child may outlive the run's own 180 s limit


def gap(cell_a, method_a, cell_b, method_b):
    return (cell_a, method_a), (cell_b, method_b)


# command, config and the paper's ordering on the workload as
# (higher, lower) pairs; ordering_margin is the smallest of these gaps.
WORKLOADS = {
    # 12 cells x 3 methods over 9 trained checkpoints (batch-mean SGD);
    # r=0 cells skip the corruption loop; cell N5-K5-r2 is acceptance c6.
    "desk-grid": ("bench", "configs/bench_desk.json", [
        gap("N5-K5-r2-p1", "fspll", "N5-K5-r2-p1", "fspll-nm"),
        gap("N5-K5-r2-p1", "fspll-nm", "N5-K5-r2-p1", "pn")]),
    # 4 checkpoints trained one SGD step per task with a hidden layer and the
    # supervised loss: the autodiff-heavy, serial-task case; acceptance c7.
    "noise-impact": ("bench", "configs/noise_impact.json", [
        gap("N10-K5-r2-p1", "pn-plus", "N10-K5-r2-p1", "pn"),
        gap("N10-K5-r2-p1", "fspll-plus", "N10-K5-r2-p1", "fspll"),
        gap("N10-K5-r2-p1", "fspll-plus", "N10-K5-r2-p1", "pn-plus")]),
    # The two workloads below run by name but stay out of the gated set in
    # BENCHMARK.json, so that each gated run can last 60 s: desk-grid needs
    # that many repeats for steady medians on a host whose speed drifts.
    #
    # One checkpoint, then 6 lambdas x 300 rounds of small episodes: the
    # evaluation-heavy case, whose 1800 draws repeat 300 distinct episodes;
    # a superset of acceptance c8.
    "lambda-sweep": ("sweep", "configs/sweep_lambda.json", [
        gap("N5-K5-r2-p1-lambda0.5", "fspll", "N5-K5-r2-p1-lambda0", "fspll"),
        gap("N5-K5-r2-p1-lambda0.5", "fspll", "N5-K5-r2-p1-lambda5", "fspll")]),
    # 20-way 20-shot episodes (n_s = 400) in a 64-dim embedding: the same
    # pll_core calls on a 16x larger working set, where kNN's dense m x n x n
    # distance tensor sets time and peak memory.
    "large-episode": ("bench", "perfbench/large_episode.json", [
        gap("N20-K20-r2-p1", "fspll", "N20-K20-r2-p1", "pn")]),
}

END_TO_END = {  # name -> unit
    "wall_s": "s", "setup_s": "s", "train_tasks_per_s": "tasks/s",
    "test_episodes_per_s": "evals/s", "peak_rss_mb": "MB", "acc_mean": "fraction",
}


def derived_seed(seed, role):
    return int.from_bytes(hashlib.sha256(f"{seed}:{role}".encode()).digest()[:4], "big")


def workload_config(doc, seed):
    """The config with every seed derived from `seed` (seed 0: unchanged)."""
    if seed == 0:
        return doc
    doc = json.loads(json.dumps(doc))
    doc["world"]["seed"] = derived_seed(seed, "world")
    doc["train"]["init_seed"] = derived_seed(seed, "init")
    doc["train"]["task_seed"] = derived_seed(seed, "task")
    doc["bench"]["eval_seed"] = derived_seed(seed, "eval")
    return doc


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(mode, argv, result_path, checkpoints_path, start):
    """Run one child to completion; return (result, error)."""
    timeout = max(1.0, start + CHILD_LIMIT_S - time.perf_counter())
    try:
        proc = subprocess.run([sys.executable, CHILD, mode, json.dumps(argv), result_path,
                               checkpoints_path],
                              cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{mode} child timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"{mode} child exited with {proc.returncode}: {tail[0]}"
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, f"{mode} child wrote no result: {exc}"
    if result.get("exit") != 0:
        return None, f"fspll exited with {result.get('exit')}"
    if not result["env"]["fspll"].startswith(os.path.join(ROOT, "src")):
        return None, f"imported fspll from {result['env']['fspll']}, not this checkout"
    if mode != "trace" and "setup_s" not in result:
        return None, "no episode was drawn"
    return result, None


def check_outputs(out_dir, doc, command):
    """Validate one command's reports; return (facts, error)."""
    bench = doc["bench"]
    rounds = bench["rounds"]
    n_cells = len(bench["n_way"]) * len(bench["k_shot"]) * len(bench["r"])
    if command == "sweep":
        n_cells *= len(doc["sweep"]["values"])
    methods = set(bench["methods"])
    paths = {name: os.path.join(out_dir, name)
             for name in ("rounds.csv", "summary.csv", "meta.json")}
    try:
        with open(paths["rounds.csv"], newline="", encoding="utf-8") as fh:
            round_rows = list(csv.DictReader(fh))
        with open(paths["summary.csv"], newline="", encoding="utf-8") as fh:
            summary_rows = list(csv.DictReader(fh))
        with open(paths["meta.json"], encoding="utf-8") as fh:
            meta = json.load(fh)
        accs = {}
        for row in round_rows:
            accs.setdefault((row["cell"], row["method"]), []).append(
                (int(row["round"]), float(row["accuracy"])))
        means = {(row["cell"], row["method"]): float(row["mean"]) for row in summary_rows}
        hashes = meta["episode_hashes"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, f"reports missing or unparseable: {exc!r}"

    cells = {cell for cell, _ in accs}
    if len(cells) != n_cells or {m for _, m in accs} != methods \
            or len(accs) != n_cells * len(methods):
        return None, f"expected {n_cells} cells x {sorted(methods)}, got {sorted(accs)}"
    for key, pairs in accs.items():
        if sorted(r for r, _ in pairs) != list(range(rounds)):
            return None, f"{key}: {len(pairs)} accuracies, expected rounds 0..{rounds - 1}"
        if not all(0.0 <= a <= 1.0 for _, a in pairs):
            return None, f"{key}: accuracy outside [0, 1]"
        if key not in means or abs(statistics.fmean(a for _, a in pairs) - means[key]) > 2e-6:
            return None, f"{key}: summary mean disagrees with rounds.csv"
    if len(means) != len(accs):
        return None, "summary.csv and rounds.csv list different pairs"
    if set(hashes) != cells or any(
            not isinstance(h, list) or len(h) != rounds or not all(isinstance(x, str) for x in h)
            for h in hashes.values()):
        return None, "meta.json does not hold one episode hash per round per cell"

    facts = {"acc_mean": statistics.fmean(means.values()), "evals": len(round_rows),
             "means": means}
    for name in ("summary.csv", "rounds.csv"):
        with open(paths[name], "rb") as fh:
            facts[name] = hashlib.sha256(fh.read()).hexdigest()
    return facts, None


def ordering_margin(means, gaps):
    return min(means[hi] - means[lo] for hi, lo in gaps)


def describe(values):
    return (f"median {statistics.median(values):.6g} (n={len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g})")


class Run:
    """Bookkeeping for one benchmark run: attempts, failures, outputs seen."""

    def __init__(self, workload, seed, seconds, work):
        command, config_path, self.gaps = WORKLOADS[workload]
        with open(os.path.join(ROOT, config_path), encoding="utf-8") as fh:
            self.doc = workload_config(json.load(fh), seed)
        if seed != 0:
            config_path = os.path.join(work, "config.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(self.doc, fh)
        self.command, self.config_path, self.work = command, config_path, work
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = set()
        self.facts = None
        self.env = None

    def fits(self, seconds):
        return time.perf_counter() + seconds <= self.deadline

    def child(self, mode):
        """One child run with its output checks; returns the result or None."""
        self.attempted += 1
        tag = f"{mode}-{self.attempted}"
        t = time.perf_counter()
        out_dir = os.path.join(self.work, tag)
        argv = [self.command, "--config", self.config_path, "--out", out_dir]
        result, error = run_child(mode, argv, os.path.join(self.work, tag + ".json"),
                                  os.path.join(self.work, "checkpoints.pkl"), self.start)
        if result is not None:
            facts, error = check_outputs(out_dir, self.doc, self.command)
            if facts is not None:
                self.facts = facts
                self.digests.add((facts["summary.csv"], facts["rounds.csv"]))
                result["acc_mean"] = facts["acc_mean"]
                result["evals"] = facts["evals"]
        shutil.rmtree(out_dir, ignore_errors=True)
        if error is not None:
            self.failed += 1
            self.errors.append(error)
            print(f"{tag}: FAILED: {error}", flush=True)
            return None
        self.env = result["env"]
        result["child_s"] = time.perf_counter() - t
        print(f"{tag}: wall {result['wall_s']:.3f} s", flush=True)
        return result

    def repeat(self, modes):
        """Run the modes in turn, again and again while the budget allows;
        the first round always runs."""
        results = {mode: [] for mode in modes}
        rounds = []
        while not rounds or self.fits(statistics.median(rounds)):
            t = time.perf_counter()
            for mode in modes:
                result = self.child(mode)
                if result is not None:
                    results[mode].append(result)
            rounds.append(time.perf_counter() - t)
            if self.failed and not any(results.values()):
                break
        return results

    def fill(self):
        """Full repeats and replays until the budget is spent, replays taking
        REPLAY_SHARE of the child time. The first full repeat always runs; it
        trains the checkpoints the replays use. Stops at the first failure."""
        results = {"full": [], "replay": []}

        def expected_s(mode):  # a replay never takes longer than a full repeat
            return statistics.median(r["child_s"] for r in results[mode] or results["full"])

        while True:
            spent = {mode: sum(r["child_s"] for r in rs) for mode, rs in results.items()}
            if not results["full"]:
                mode = "full"
            else:
                prefer = "replay" if spent["replay"] < REPLAY_SHARE * sum(spent.values()) \
                    else "full"
                fitting = [m for m in (prefer, "full", "replay") if self.fits(expected_s(m))]
                if not fitting:
                    return results
                mode = fitting[0]
            result = self.child(mode)
            if result is None:
                return results
            results[mode].append(result)

    def correct(self, seed):
        ok = self.failed == 0 and len(self.digests) == 1
        if ok and seed == 0:
            ok = ordering_margin(self.facts["means"], self.gaps) > 0
        return ok


def eval_s(r):
    """The evaluation phase: everything after set-up that is not meta_train."""
    return r["wall_s"] - r["train_s"] - r["setup_s"]


def end_to_end(fulls, replays):
    per_run = {
        "wall_s": [r["wall_s"] for r in fulls],
        "setup_s": [r["setup_s"] for r in fulls + replays],
        "train_tasks_per_s": [r["tasks"] / r["train_s"] for r in fulls],
        "test_episodes_per_s": [r["evals"] / eval_s(r) for r in fulls + replays],
        "peak_rss_mb": [r["peak_rss_mb"] for r in fulls],
        "acc_mean": [r["acc_mean"] for r in fulls],
    }
    for name, values in per_run.items():
        print(f"{name} [{END_TO_END[name]}]: {describe(values)}")
    value = {name: statistics.median(values) for name, values in per_run.items()}
    value["train_tasks_per_s"] = sum(r["tasks"] for r in fulls) / sum(r["train_s"] for r in fulls)
    both = fulls + replays
    value["test_episodes_per_s"] = sum(r["evals"] for r in both) / sum(eval_s(r) for r in both)
    print(f"pooled over the run: train_tasks_per_s {value['train_tasks_per_s']:.6g} "
          f"({len(fulls)} full repeats), test_episodes_per_s "
          f"{value['test_episodes_per_s']:.6g} ({len(fulls)} full + {len(replays)} replays)")
    return {name: {"value": v, "unit": END_TO_END[name]} for name, v in value.items()}


def per_layer(fulls, traces):
    layers = {}
    for key in traces[0]["layers"]:
        values = [t["layers"][key] for t in traces]
        unit = "s" if key.endswith("_s") else "count"
        layers[key] = {"value": statistics.median(values), "unit": unit}
    overhead = statistics.median([t["wall_s"] for t in traces]) - statistics.median([r["wall_s"] for r in fulls])
    layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for key, metric in layers.items():
        print(f"{key} [{metric['unit']}]: {metric['value']:.6g}")
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join("src", "fspll", "cli.py"), WORKLOADS[args.workload][1]]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace}", flush=True)
        if args.trace:
            results = run.repeat(["full", "trace"])
            fulls, traces = results["full"], results["trace"]
        else:
            results = run.fill()
            fulls, replays = results["full"], results["replay"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    if run.env is not None:
        print("environment: " + ", ".join(f"{k} {v}" for k, v in run.env.items()))
    if run.facts is not None:
        margin = ordering_margin(run.facts["means"], run.gaps)
        print(f"ordering_margin [fraction]: {margin:.6f} (ungated)")
        print(f"sha256 summary.csv {run.facts['summary.csv']}")
        print(f"sha256 rounds.csv {run.facts['rounds.csv']}")
    print(f"error_rate [failed/attempted]: {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:.6g} (ungated)")
    if len(run.digests) > 1:
        print(f"FAILED: reports differ between repeats: {sorted(run.digests)}")

    if not fulls or (args.trace and not traces):
        print("error: no command completed: " + "; ".join(run.errors), file=sys.stderr)
        return 1
    metrics = per_layer(fulls, traces) if args.trace else end_to_end(fulls, replays)
    print(json.dumps({"correct": run.correct(args.seed), "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
