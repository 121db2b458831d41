"""Unit-system plumbing and the shared error taxonomy."""

import math

import numpy as np
import pytest

from demonlab import markov
from demonlab.errors import DemonlabError, InvalidInputError, NumericError
from demonlab.units import BOLTZMANN_SI, PLANCK_SI, UnitSystem


class TestUnitSystem:
    def test_defaults(self):
        units = UnitSystem()
        assert units.k == 1.0 and units.h == 1.0
        assert units.hbar == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    def test_si_values(self):
        units = UnitSystem.si()
        assert units.k == BOLTZMANN_SI
        assert units.h == PLANCK_SI

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            UnitSystem(k=0.0)
        with pytest.raises(InvalidInputError):
            UnitSystem(h=-1.0)
        with pytest.raises(InvalidInputError):
            UnitSystem(k=math.inf)

    def test_immutable(self):
        units = UnitSystem()
        with pytest.raises(AttributeError):
            units.k = 2.0


class TestErrorTaxonomy:
    def test_all_errors_share_base(self):
        from demonlab import errors

        for name in (
            "InvalidInputError",
            "InvalidStateError",
            "NonUniqueEquilibriumError",
            "NumericError",
        ):
            assert issubclass(getattr(errors, name), DemonlabError)

    def test_non_finite_probability_is_numeric_error(self):
        with pytest.raises(NumericError):
            markov.ProbDist([np.nan, 1.0])

    def test_non_finite_time_is_numeric_error(self):
        rates = markov.RateMatrix([[0, 1], [1, 0]])
        with pytest.raises(NumericError):
            markov.evolve(markov.ProbDist([0.5, 0.5]), rates, math.inf)
