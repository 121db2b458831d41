"""errors.require_positive: the package's one float-range guard."""

import math

import pytest

from demonlab.errors import NORMAL, InvalidInputError, require_positive


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
