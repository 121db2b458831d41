"""errors.require_positive and require_count: the package's one float and one count guard."""

import ast
import math
from pathlib import Path

import pytest

from demonlab import errors
from demonlab.errors import NORMAL, InvalidInputError, require_count, require_positive


class TestRequirePositive:
    @pytest.mark.parametrize("value", [5e-324, 1e-310, 1.0, 1.7976931348623157e308])
    def test_returns_any_finite_positive_value(self, value):
        assert require_positive("x", value) == value

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_refuses_the_rest_and_names_the_value(self, value):
        with pytest.raises(InvalidInputError, match=r"^x must be finite and positive, got "):
            require_positive("x", value)

    def test_normal_refuses_a_subnormal(self):
        assert NORMAL == 2.2250738585072014e-308
        assert require_positive("x", NORMAL, least=NORMAL) == NORMAL
        with pytest.raises(InvalidInputError, match=r"must be finite and >= 2\.2250738585072014e-308"):
            require_positive("x", NORMAL / 2, least=NORMAL)

    def test_zero_least_accepts_an_underflow_but_not_overflow(self):
        assert require_positive("x", 0.0, least=0.0) == 0.0
        for value in (math.inf, math.nan, -5e-324):
            with pytest.raises(InvalidInputError, match=r"x must be finite and >= 0\.0"):
                require_positive("x", value, least=0.0)

    def test_count_least(self):
        assert require_positive("n", 1, least=1) == 1
        with pytest.raises(InvalidInputError, match=r"^n must be finite and >= 1, got 0$"):
            require_positive("n", 0, least=1)


class TestRequireCount:
    @pytest.mark.parametrize("value", [2, 3, 7])
    def test_returns_a_value_in_range(self, value):
        assert require_count("n", value, 2, 7) == value

    @pytest.mark.parametrize("value", [1, 8, -(2**63), 10**30])
    def test_refuses_the_rest_with_the_range(self, value):
        with pytest.raises(InvalidInputError) as caught:
            require_count("n", value, 2, 7)
        assert str(caught.value) == f"n must be in [2, 7], got {value}"


def _count_guards(path: Path) -> list[str]:
    """The range messages and _require_* functions a module writes by hand."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and "must be in [" in str(node.value):
            found.append(f"{path.name}:{node.lineno}: {node.value!r}")
        elif isinstance(node, ast.FunctionDef) and node.name.startswith("_require_"):
            found.append(f"{path.name}:{node.lineno}: def {node.name}")
    return found


def test_only_errors_writes_a_count_range():
    src = Path(errors.__file__).parent
    modules = sorted(path for path in src.glob("*.py") if path.name != "errors.py")
    assert len(modules) >= 10
    assert [guard for path in modules for guard in _count_guards(path)] == []
    assert _count_guards(src / "errors.py") != []
