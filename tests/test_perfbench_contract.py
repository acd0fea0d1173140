"""perfbench/child.py looks layer functions up by name and wraps them in every
fspll module that binds them; its traced run cannot start when one is gone.
These tests load it read-only and check that the names still resolve and
that a traced command still reaches the training and evaluation layers."""

import importlib
import importlib.util
import os
import sys

import fspll
import fspll.autodiff
import fspll.cli

from test_cli import tiny_bench_doc, write_config

CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "child.py")


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    child = load_child()
    looked_up = [(module, name) for module, name, _ in child.TRACED]
    looked_up += [("episodes", "sample_episode"), ("trainer", "meta_train"), ("cli", "main")]
    for module, name in looked_up:
        assert callable(getattr(importlib.import_module(f"fspll.{module}"), name, None)), \
            f"fspll.{module}.{name}"
    assert callable(getattr(fspll.autodiff.Graph, "backward", None))


def test_traced_bench_reaches_every_stage(tmp_path):
    child = load_child()
    modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "fspll"]
    saved = {m: dict(vars(m)) for m in modules}
    backward = fspll.autodiff.Graph.backward
    tracer = child.Tracer()
    try:
        tracer.install(fspll)
        cfg = write_config(tmp_path, tiny_bench_doc())
        assert fspll.cli.main(["bench", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    finally:
        for module, attrs in saved.items():
            for attr, value in attrs.items():
                if vars(module).get(attr) is not value:
                    setattr(module, attr, value)
        fspll.autodiff.Graph.backward = backward
    layers = tracer.layers(wall_s=1.0)
    # 2 checkpoints x 2 epochs x 2 tasks; then 2 rounds x 2 methods
    assert layers["trainer.tasks"] == 8
    assert layers["bench.checkpoints_trained"] == 2
    # episodes.episodes counts sample_episode calls, and each call now draws
    # a stack: one per epoch (2 checkpoints x 2 epochs) and one for the
    # cell's 2 rounds, where it counted 8 training tasks and 2 rounds
    assert layers["episodes.episodes"] == 4 + 1
    # The call counts count stacks. Each epoch's 2 tasks are one stack
    # (2 checkpoints x 2 epochs = 4 calls), and each method scores the 2
    # rounds as one stack (2 calls): pll_core.stack_size allows 455 episodes
    # of width 6 (the hidden layer) and n = 3 x max(3, 4) = 12.
    assert layers["trainer.meta_test_calls"] == 2
    assert layers["pll_core.rectify_calls"] == 4 + 2
    assert layers["trainer.meta_test_s"] > 0
    assert layers["pll_core.rectify_s"] > 0
