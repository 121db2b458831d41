"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

#: The tail percentile must leave at least this many ops beyond it.
TAIL_OPS_BEYOND = 10


def op_tail(times: Sequence[float]) -> tuple[float, float]:
    """The highest percentile of op time with at least ten ops beyond it.

    Returns (value, percentile). Of n sorted times, the value with exactly
    ten above it is the (n - 10)-th, which sits at percentile 100 (n - 10) / n.
    """
    n = len(times)
    if n <= TAIL_OPS_BEYOND:
        raise ValueError(f"need more than {TAIL_OPS_BEYOND} op times, got {n}")
    rank = n - TAIL_OPS_BEYOND
    return sorted(times)[rank - 1], 100.0 * rank / n


# wall_s and op_p50_s start from each op's median time over the run. The
# machine's speed drifts over tens of seconds, so ops of neighbouring sizes
# trade places in a pooled list of times; an op's own median does not.


def pass_wall(op_medians: Iterable[float]) -> float:
    """Time of one pass over the op list, each op at its median time."""
    return sum(op_medians)


def op_p50(op_medians: Iterable[float]) -> float:
    """Median over the op list of each op's median time."""
    return statistics.median(op_medians)
