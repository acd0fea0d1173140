"""Shared fixtures: each pinned run of `test_pinned_runs.RUNS` runs at most once
per session, for its digest test and for the acceptance gate that judges it."""

import contextlib
import io
import json
import time

import pytest

from fspll.cli import main
from test_pinned_runs import RUNS, edited


@pytest.fixture(scope="session")
def pinned_run(tmp_path_factory):
    """pinned_run(id) runs the RUNS entry `id` once, its `needs` first, with its
    config at <root>/configs/<id>.json and its output at <root>/runs/<id>, and
    returns (output directory, wall seconds of the command)."""
    root = tmp_path_factory.mktemp("pinned")
    (root / "configs").mkdir()
    runs = {run.id: run for run in RUNS}
    done = {}

    def run(run_id):
        if run_id not in done:
            entry = runs[run_id]
            if entry.needs:
                run(entry.needs)
            out = root / "runs" / run_id
            argv = entry.argv
            if entry.base is not None:
                config = root / "configs" / f"{run_id}.json"
                config.write_text(json.dumps(edited(entry)))
                argv = argv + ["--config", str(config), "--out", str(out)]
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert main(argv) == 0
            seconds = time.perf_counter() - start
            if entry.base is None:  # grad-check writes no file: keep its stdout
                out.mkdir(parents=True)
                (out / "stdout").write_bytes(stdout.getvalue().encode())
            done[run_id] = out, seconds
        return done[run_id]

    return run
