"""Shared report emission: deterministic JSON and RFC-4180 CSV.

A report with a table defines ``CSV_HEADER``, ``to_rows()`` (plain Python
values) and ``verdicts()``; a scenario without one emits ``kv_rows``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any, Iterable, Sequence

from .errors import NumericError

KV_HEADER = ("key", "value")


def binomial_3sigma(p: float, n: int) -> float:
    """Three standard errors of a frequency over n trials with probability p."""
    return 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


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
        for row in rows:
            writer.writerow(row)
