"""The line budget of src/: src/demonlab/*.py holds at most 2,344 lines, counted as wc -l
counts them (newline characters). Additions are paid for with deletions."""

from pathlib import Path

BUDGET = 2344
SRC = Path(__file__).resolve().parents[1] / "src" / "demonlab"


def test_src_stays_within_its_line_budget():
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py"))}
    total = sum(counts.values())
    print("\n".join(f"{n:6d} {name}" for name, n in counts.items()), f"\n{total:6d} total")
    assert len(counts) >= 11
    assert total <= BUDGET, f"src/demonlab holds {total} lines, above the budget of {BUDGET}"
