"""Tests of the benchmark's own arithmetic, on synthetic spans and timings.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import pytest

from spans import Recorder, layer_metrics, self_times
from stats import op_p50, op_tail, pass_wall


def test_self_time_subtracts_direct_children():
    spans = [
        ("cli.run", 0.0, 10.0, -1, 0),
        ("markov.verify_h_theorem", 1.0, 7.0, 0, 0),
        ("markov.trajectory", 2.0, 5.0, 1, 0),
        ("reporting.write_json", 8.0, 9.5, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0 - 1.5, 6.0 - 3.0, 3.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ("outer", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),  # overlaps a on [3, 4]
        ("c", 9.0, 12.0, 0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_sum_self_time_and_count_calls_per_pass():
    rec = Recorder()
    rec.spans = [
        ["markov.verify_h_theorem", 0.0, 4.0, -1, 0],
        ["markov.eigh", 0.5, 1.0, 0, 0],
        ["markov.eigh", 1.0, 2.0, 0, 0],
        ["markov.verify_h_theorem", 5.0, 6.0, -1, 1],
        ["markov.eigh", 5.0, 5.5, 3, 1],
        ["markov.evolve", 7.0, 8.0, -1, 2],
        ["markov.expm", 7.0, 7.25, 5, 2],
        ["markov.eigh", 8.0, 9.0, -1, 2],
    ]
    rec.counts["markov.ode.nfev"] = 42
    metrics = layer_metrics(rec, h_theorem_ops={0, 1})
    assert metrics["markov.verify_h_theorem.self_s"] == pytest.approx(2.5 + 0.5)
    assert metrics["markov.evolve.self_s"] == pytest.approx(0.75)
    assert metrics["markov.expm.calls"] == 1.0
    assert metrics["markov.ode.nfev"] == 42.0
    assert metrics["markov.decompositions"] == 1.5  # the eigh of op 2 is not an h-theorem op
    assert layer_metrics(rec, h_theorem_ops=set())["markov.decompositions"] == 0.0


def test_recorder_nests_spans_and_merges_child_process_spans():
    rec = Recorder()
    rec.op = 3
    outer = rec.open("cli.run")
    inner = rec.open("markov.evolve")
    rec.close(inner)
    rec.close(outer)
    rec.extend([["cli.main", 0.0, 1.0, -1, 0], ["cli.run", 0.1, 0.9, 0, 0]], {"x": 2})
    assert [(s[0], s[3], s[4]) for s in rec.spans] == [
        ("cli.run", -1, 3), ("markov.evolve", 0, 3), ("cli.main", -1, 3), ("cli.run", 2, 3),
    ]
    assert rec.counts["x"] == 2


def test_op_tail_leaves_exactly_ten_ops_beyond():
    times = [float(i) for i in range(1, 101)]  # 1..100
    value, pct = op_tail(times)
    assert value == 90.0
    assert sum(t > value for t in times) == 10
    assert pct == 90.0


def test_op_tail_is_order_free_and_uses_small_samples():
    value, pct = op_tail([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 12.0, 13.0])
    assert value == 3.0  # 13 ops: the 3rd smallest has ten above it
    assert pct == pytest.approx(300.0 / 13.0)


def test_op_tail_needs_more_than_ten_ops():
    with pytest.raises(ValueError):
        op_tail([1.0] * 10)


def test_pass_metrics_use_each_ops_median():
    by_label = {"small": [1.0, 1.0, 9.0], "mid": [2.0, 4.0, 3.0], "large": [20.0, 10.0, 30.0]}
    medians = [sorted(ts)[1] for ts in by_label.values()]
    assert pass_wall(medians) == 1.0 + 3.0 + 20.0
    assert op_p50(medians) == 3.0
