"""The benchmark's instrumentation still finds every name it wraps.

``bench/spans.py`` wraps demonlab's functions by name, ``brownian._draw_steps`` among them,
so renaming one breaks traced benchmark runs. This test loads that file by path, without
writing bytecode beside it, wraps everything, and always undoes the wrapping."""

import importlib.util
import math
import sys
from pathlib import Path

from demonlab import brownian

SPANS = Path(__file__).parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_instrument_wraps_its_targets_and_counts_one_step_draw_per_block():
    spans = load_spans()
    draw = brownian._draw_steps
    rec = spans.Recorder()
    undo = spans.instrument(rec)
    try:
        assert brownian._draw_steps is not draw
        spec = brownian.WalkSpec(100, 100_000, 0)
        brownian.simulate_walks(spec)
    finally:
        undo()
    assert brownian._draw_steps is draw
    blocks = math.ceil(spec.n_steps / math.ceil(brownian.BLOCK_DRAWS / spec.n_walkers))
    assert spans.layer_metrics(rec, set())["brownian.step_draws"] == blocks == 100
