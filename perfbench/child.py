"""One measured invocation of the fspll command, run in a fresh process.

Usage: python3 child.py <mode> <argv-json> <result-path> <checkpoints-path>

mode is one of
  full    run the command to completion with no per-call wrappers; only two
          phase probes are installed: a one-shot probe on the first episode
          draw (it removes itself when it fires) and a probe on each
          `meta_train` call (one per trained checkpoint). If
          <checkpoints-path> does not exist yet, the trained checkpoints are
          pickled there in call order.
  replay  like full, but each `meta_train` call returns the checkpoint that
          a full run pickled to <checkpoints-path> for the same training
          config, so the run is set-up plus evaluation only. The file is read
          at the first `meta_train` call, after set-up has ended.
  trace   run the command with every traced layer function wrapped in every
          module that binds it, and record per-layer calls, self and
          inclusive time

The result is written as JSON to <result-path>. Times come from
time.perf_counter and start before `import fspll`.
"""

import functools
import json
import os
import pickle
import resource
import sys
import time

T0 = time.perf_counter()

# (module, function, layer key). Helper kernels (autodiff.sqdist, sqrt_eps,
# lse_cols) and the graph builders called only inside episode_loss_graph stay
# unwrapped, so their time counts in the layer function that calls them.
TRACED = [
    ("episodes", "sample_episode", "episodes.sample"),
    ("episodes", "corrupt", "episodes.corrupt"),
    ("episodes", "episode_hash", "episodes.hash"),
    ("embedding", "embed", "embedding.embed"),
    ("pll_core", "rectify", "pll_core.rectify"),
    ("pll_core", "validate_candidates", "pll_core.validate"),
    ("pll_core", "compute_prototypes", "pll_core.prototypes"),
    ("pll_core", "pairwise_distance", "pll_core.distance"),
    ("pll_core", "update_confidence", "pll_core.confidence"),
    ("pll_core", "smooth_confidence", "pll_core.smooth"),
    ("pll_core", "knn_indices", "pll_core.knn"),
    ("pll_core", "classify_proba", "pll_core.classify"),
    ("trainer", "episode_loss_graph", "autodiff.graph_build"),
    ("trainer", "meta_train", "trainer.meta_train"),
    ("trainer", "meta_test", "trainer.meta_test"),
    ("bench", "run_benchmark", "bench.run"),
    ("bench", "sweep", "bench.run"),
    ("bench", "write_report", "bench.report"),
]


class ReplayMismatch(Exception):
    """A replay run asked for a checkpoint the full run did not train."""


def rebind(original, replacement):
    """Point every fspll module attribute bound to `original` at `replacement`.

    `trainer`, `bench`, `cli` and the package itself bind layer functions
    with `from ... import`, so patching the defining module alone misses
    their calls."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] != "fspll":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install_probes(fspll, mode, marks, checkpoints, checkpoints_path):
    """Phase probes for full and replay runs: the first episode draw ends
    set-up; each meta_train call adds its duration and task count.
    `checkpoints` lists (training config, trained result) pairs: a full run
    appends to it, a replay run fills it from `checkpoints_path` at the first
    call and takes them from its front."""
    sample = fspll.episodes.sample_episode
    meta_train = fspll.trainer.meta_train

    def first_draw(*args, **kwargs):
        marks["first_episode"] = time.perf_counter()
        rebind(first_draw, sample)
        return sample(*args, **kwargs)

    def timed_meta_train(config, *args, **kwargs):
        t = time.perf_counter()
        try:
            if mode == "replay":
                if not marks["train_calls"]:
                    with open(checkpoints_path, "rb") as fh:
                        checkpoints.extend(pickle.load(fh))
                if not checkpoints or checkpoints[0][0] != repr(config):
                    raise ReplayMismatch(repr(config))
                return checkpoints.pop(0)[1]
            result = meta_train(config, *args, **kwargs)
            checkpoints.append((repr(config), result))
            return result
        finally:
            marks["train_s"] += time.perf_counter() - t
            marks["train_calls"] += 1
            marks["tasks"] += config.max_epoch * config.tasks_per_epoch

    rebind(sample, first_draw)
    rebind(meta_train, timed_meta_train)


class Tracer:
    """Span stack with per-key calls, self time and inclusive time."""

    def __init__(self):
        self.stats = {}  # key -> [calls, self_s, inclusive_s]
        self.counts = {"embed_cols": 0, "graph_nodes": 0, "tasks": 0}
        self._stack = []

    def wrap(self, key, fn, count=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur - frame[0]
                stats[2] += dur
            if count is not None:
                count(args, result)
            return result
        return wrapper

    def install(self, fspll):
        counts = self.counts

        def count_embed(args, result):
            counts["embed_cols"] += result.shape[1]

        def count_graph(args, result):
            counts["graph_nodes"] += len(result[0].nodes)

        def count_tasks(args, result):
            counts["tasks"] += args[0].max_epoch * args[0].tasks_per_epoch

        hooks = {"embedding.embed": count_embed, "autodiff.graph_build": count_graph,
                 "trainer.meta_train": count_tasks}
        for module, name, key in TRACED:
            original = getattr(getattr(fspll, module), name)
            rebind(original, self.wrap(key, original, hooks.get(key)))
        graph = fspll.autodiff.Graph
        graph.backward = self.wrap("autodiff.backward", graph.backward)

    def layers(self, wall_s):
        def stat(key, field):
            return self.stats.get(key, [0, 0.0, 0.0])[field]

        def self_s(key):
            return stat(key, 1)

        graphs = stat("autodiff.graph_build", 0)
        out = {
            "episodes.sample_s": self_s("episodes.sample"),
            "episodes.corrupt_s": self_s("episodes.corrupt"),
            "episodes.hash_s": self_s("episodes.hash"),
            "episodes.episodes": stat("episodes.sample", 0),
            "embedding.embed_s": self_s("embedding.embed"),
            "embedding.embed_cols": self.counts["embed_cols"],
            "pll_core.rectify_s": stat("pll_core.rectify", 2),
            "pll_core.rectify_self_s": self_s("pll_core.rectify"),
            "pll_core.rectify_calls": stat("pll_core.rectify", 0),
            "pll_core.validate_s": self_s("pll_core.validate"),
            "pll_core.prototypes_s": self_s("pll_core.prototypes"),
            "pll_core.distance_s": self_s("pll_core.distance"),
            "pll_core.confidence_s": self_s("pll_core.confidence"),
            "pll_core.smooth_s": self_s("pll_core.smooth"),
            "pll_core.knn_s": self_s("pll_core.knn"),
            "pll_core.classify_s": self_s("pll_core.classify"),
            "autodiff.graph_build_s": stat("autodiff.graph_build", 2),
            "autodiff.backward_s": self_s("autodiff.backward"),
            "autodiff.nodes_per_task": self.counts["graph_nodes"] / graphs if graphs else 0.0,
            "trainer.meta_train_s": stat("trainer.meta_train", 2),
            "trainer.meta_train_self_s": self_s("trainer.meta_train"),
            "trainer.tasks": self.counts["tasks"],
            "trainer.meta_test_s": stat("trainer.meta_test", 2),
            "trainer.meta_test_self_s": self_s("trainer.meta_test"),
            "trainer.meta_test_calls": stat("trainer.meta_test", 0),
            "bench.checkpoints_trained": stat("trainer.meta_train", 0),
            "bench.report_s": self_s("bench.report"),
            "bench.self_s": self_s("bench.run"),
        }
        attributed = sum(s[1] for s in self.stats.values())
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - attributed
        return out


def environment(fspll):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "fspll": os.path.dirname(fspll.__file__),
    }


def main():
    mode, argv, result_path, checkpoints_path = (
        sys.argv[1], json.loads(sys.argv[2]), sys.argv[3], sys.argv[4])
    import fspll
    import fspll.cli

    marks = {"train_s": 0.0, "train_calls": 0, "tasks": 0}
    checkpoints = []
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(fspll)
    else:
        install_probes(fspll, mode, marks, checkpoints, checkpoints_path)

    result = {"mode": mode, "exit": fspll.cli.main(argv)}
    wall = time.perf_counter() - T0
    if mode == "replay" and checkpoints:
        raise ReplayMismatch(f"{len(checkpoints)} pickled checkpoints were not asked for")
    if mode == "full" and result["exit"] == 0 and not os.path.exists(checkpoints_path):
        with open(checkpoints_path + ".tmp", "wb") as fh:
            pickle.dump(checkpoints, fh)
        os.replace(checkpoints_path + ".tmp", checkpoints_path)

    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(fspll)
    if "first_episode" in marks:
        result["setup_s"] = marks["first_episode"] - T0
    result["train_s"] = marks["train_s"]
    result["tasks"] = marks["tasks"]
    if tracer is not None:
        result["layers"] = tracer.layers(wall)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
