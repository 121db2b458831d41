"""In-memory spans around demonlab's public functions, and the layer metrics.

A span is (name, start, end, parent, op): the parent is the index of the
enclosing span (-1 at the top) and op is the index of the benchmark op that
caused it. Spans are recorded by wrapping names where demonlab looks them up
(``demonlab.cli.write_csv`` as well as ``demonlab.reporting.write_csv``), so
calls through an imported name are seen too. Nothing here imports demonlab
until ``instrument`` is called, so the tests run without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter
from typing import Any, Callable, Iterable, Sequence

#: demonlab modules whose public functions, and the functions they import,
#: are wrapped. ``units`` and ``errors`` define only data and exceptions.
MODULES = (
    "cli", "reporting", "markov", "qiur", "fgr", "fluctuations",
    "brownian", "speed_demon", "szilard",
)

#: Private names and methods that a per-layer metric needs, beside the
#: public module functions: (module, class or "", attribute).
EXTRA_TARGETS = (
    ("brownian", "", "_draw_steps"),
    ("fgr", "DecaySample", "survival"),
    ("fgr", "DecaySample", "curve"),
)

#: Packages whose functions count as "imported and called" by demonlab.
_TRACED_PACKAGES = ("demonlab", "numpy", "scipy")

class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def extend(self, spans: Iterable[Sequence[Any]], counts: dict[str, float]) -> None:
        """Add spans recorded elsewhere (a child process) under the current op."""
        base = len(self.spans)
        for name, start, end, parent, _op in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, self.op])
        self.counts.update(counts)

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _wrap(rec: Recorder, name: str, fn: Callable, after: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


def _count_nfev(rec: Recorder, _args: tuple, result: Any) -> None:
    rec.counts["markov.ode.nfev"] += int(result.nfev)


def _count_bytes(rec: Recorder, args: tuple, _result: Any) -> None:
    rec.counts["reporting.bytes_written"] += os.path.getsize(args[0])


def _count_fft_points(rec: Recorder, args: tuple, _result: Any) -> None:
    rec.counts["qiur.fft_points_computed"] += int(args[0].n)


_AFTER = {
    "markov.solve_ivp": _count_nfev,
    "reporting.write_json": _count_bytes,
    "reporting.write_csv": _count_bytes,
    "qiur.to_momentum": _count_fft_points,
    "qiur.to_position": _count_fft_points,
}


def _span_name(site: str, attr: str, value: Any) -> str:
    origin = getattr(value, "__module__", None) or ""
    if origin.startswith("demonlab."):
        return f"{origin.split('.', 1)[1]}.{value.__qualname__}"
    return f"{site}.{attr}"


def _traced(value: Any) -> bool:
    import numpy as np

    if not (inspect.isroutine(value) or isinstance(value, np.ufunc)):
        return False
    origin = getattr(value, "__module__", None) or "numpy"
    return origin.split(".")[0] in _TRACED_PACKAGES


def instrument(rec: Recorder) -> Callable[[], None]:
    """Wrap demonlab's functions so calls record spans; returns the undo."""
    import numpy as np

    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, _wrap(rec, name, original, _AFTER.get(name)))

    for site in MODULES:
        mod = importlib.import_module(f"demonlab.{site}")
        for attr, value in list(vars(mod).items()):
            if not attr.startswith("_") and _traced(value):
                patch(mod, attr, _span_name(site, attr, value))
    for site, cls, attr in EXTRA_TARGETS:
        owner = importlib.import_module(f"demonlab.{site}")
        if cls:
            owner = getattr(owner, cls)
        patch(owner, attr, f"{site}.{cls + '.' if cls else ''}{attr}")
    # The CLI takes the spectral gap through numpy.linalg, looked up at call time.
    patch(np.linalg, "eigvalsh", "numpy.linalg.eigvalsh")

    markov = importlib.import_module("demonlab.markov")
    post_init = markov.ProbDist.__post_init__

    def counted_post_init(self):
        rec.counts["markov.probdist.constructed"] += 1
        post_init(self)

    patches.append((markov.ProbDist, "__post_init__", post_init))
    markov.ProbDist.__post_init__ = counted_post_init

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo


#: Per-layer metric -> (span name, "self" for summed self time or "calls").
SPAN_METRICS = {
    "cli.build_parser.self_s": ("cli.build_parser", "self"),
    "cli.resolve_config.self_s": ("cli.resolve_config", "self"),
    "cli.run.self_s": ("cli.run", "self"),
    "reporting.json_dumps.self_s": ("reporting.json_dumps", "self"),
    "reporting.write_json.self_s": ("reporting.write_json", "self"),
    "reporting.write_csv.self_s": ("reporting.write_csv", "self"),
    "markov.random_symmetric_rates.self_s": ("markov.random_symmetric_rates", "self"),
    "markov.build_master_operator.self_s": ("markov.build_master_operator", "self"),
    "markov.equilibrium_distribution.self_s": ("markov.equilibrium_distribution", "self"),
    "markov.trajectory.self_s": ("markov.trajectory", "self"),
    "markov.verify_h_theorem.self_s": ("markov.verify_h_theorem", "self"),
    "markov.entropy_production_rate.self_s": ("markov.entropy_production_rate", "self"),
    "markov.entropy_production_rate.calls": ("markov.entropy_production_rate", "calls"),
    "markov.shannon_entropy.calls": ("markov.shannon_entropy", "calls"),
    "markov.eigh.self_s": ("markov.eigh", "self"),
    "markov.evolve.self_s": ("markov.evolve", "self"),
    "markov.expm.self_s": ("markov.expm", "self"),
    "markov.expm.calls": ("markov.expm", "calls"),
    "markov.ode.self_s": ("markov.solve_ivp", "self"),
    "markov.ode.calls": ("markov.solve_ivp", "calls"),
    "qiur.gaussian_packet.self_s": ("qiur.gaussian_packet", "self"),
    "qiur.to_momentum.self_s": ("qiur.to_momentum", "self"),
    "qiur.differential_entropy.self_s": ("qiur.differential_entropy", "self"),
    "fgr.simulate_decay.self_s": ("fgr.simulate_decay", "self"),
    "fgr.curve.self_s": ("fgr.DecaySample.curve", "self"),
    "fgr.survival.calls": ("fgr.DecaySample.survival", "calls"),
    "fluctuations.monte_carlo_fluctuation.self_s": ("fluctuations.monte_carlo_fluctuation", "self"),
    "brownian.simulate_walks.self_s": ("brownian.simulate_walks", "self"),
    "brownian.histogram_vs_gaussian.self_s": ("brownian.histogram_vs_gaussian", "self"),
    "brownian.step_draws": ("brownian._draw_steps", "calls"),
    "speed_demon.simulate_sorting.self_s": ("speed_demon.simulate_sorting", "self"),
    "szilard.run_cycle.self_s": ("szilard.run_cycle", "self"),
    "szilard.insert_partition.calls": ("szilard.insert_partition", "calls"),
}

#: Per-layer metrics read from the recorder's counters.
COUNT_METRICS = (
    "markov.probdist.constructed",
    "markov.ode.nfev",
    "qiur.fft_points_computed",
    "reporting.bytes_written",
)

_DECOMPOSITIONS = ("markov.eigh", "numpy.linalg.eigvalsh")


def layer_metrics(rec: Recorder, h_theorem_ops: set[int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``markov.decompositions`` is per h-theorem op (0 without one); every
    other value is the pass total.
    """
    selfs = self_times(rec.spans)
    self_by: Counter[str] = Counter()
    calls_by: Counter[str] = Counter()
    decompositions = 0
    for span, own in zip(rec.spans, selfs):
        name, op = span[0], span[4]
        self_by[name] += own
        calls_by[name] += 1
        if name in _DECOMPOSITIONS and op in h_theorem_ops:
            decompositions += 1
    out = {
        metric: float(self_by[span]) if kind == "self" else float(calls_by[span])
        for metric, (span, kind) in SPAN_METRICS.items()
    }
    out.update({name: float(rec.counts[name]) for name in COUNT_METRICS})
    out["markov.decompositions"] = (
        decompositions / len(h_theorem_ops) if h_theorem_ops else 0.0
    )
    return out
