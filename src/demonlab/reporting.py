"""Shared report emission (deterministic JSON and RFC-4180 CSV) and the verdict record Check.

A report with a table defines ``CSV_HEADER`` and ``to_rows()`` (plain Python
values); a scenario without one emits ``kv_rows``. Each module builds its own
Checks next to its physics; Check holds only the rules that two modules share.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from .errors import NumericError

KV_HEADER = ("key", "value")


@dataclass(frozen=True)
class Check:
    """A verdict and the numbers it compared; bool(check) raises: read passed, a Python bool."""

    passed: bool
    value: float
    expected: float
    tolerance: float

    def __bool__(self) -> bool:
        raise TypeError("a Check has no truth value: read its passed")

    @classmethod
    def within(cls, value: float, expected: float, tolerance: float) -> Check:
        """Passes when |value - expected| <= tolerance."""
        return cls(bool(abs(value - expected) <= tolerance), value, expected, tolerance)

    @classmethod
    def binomial(cls, frequency: float, p: float, n: int) -> Check:
        """A frequency over n trials within 3 sqrt(p (1 - p) / n) of p; scaled by 2**200 in the
        root, a tiny p (1 - p) / n does not underflow to 0, and a normal one keeps its bits."""
        tolerance = 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) * 2.0**200 / n) * 2.0**-100
        return cls.within(frequency, p, tolerance)


def _plain(obj: Any) -> Any:
    """numpy scalars and arrays as Python values (without importing numpy)."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def json_dumps(obj: Any) -> str:
    """Serialize with stable key ordering so identical runs emit identical bytes.

    A non-finite float has no JSON (RFC 8259) form and raises NumericError.
    """
    try:
        return json.dumps(obj, sort_keys=True, indent=2, default=_plain, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"report is not valid JSON: {exc}") from exc


def kv_rows(derived: dict[str, Any]) -> list[tuple[str, Any]]:
    """(key, value) rows of the sorted entries of derived that are not dicts."""
    return [(key, value) for key, value in sorted(derived.items()) if not isinstance(value, dict)]


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(json_dumps(obj), encoding="utf-8")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write a CSV table with a header row; quoting follows RFC 4180."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
