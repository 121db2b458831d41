"""Unit system carrying the Boltzmann and Planck constants.

All physics in this package is expressed through the two constants k and h.
The default is natural units k = h = 1, in which every headline result is a
pure number (entropy costs in multiples of k ln 2, bounds like ln(he/2), and
so on). SI values are provided for worked examples with real molecules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import require_positive

#: 2019 SI exact values.
BOLTZMANN_SI = 1.380649e-23   # J/K
PLANCK_SI = 6.62607015e-34    # J*s


@dataclass(frozen=True)
class UnitSystem:
    """Immutable pair (k, h); hbar is derived as h / 2*pi."""

    k: float = 1.0
    h: float = 1.0

    def __post_init__(self) -> None:
        require_positive("Boltzmann constant", self.k)
        require_positive("Planck constant", self.h)

    @property
    def hbar(self) -> float:
        return self.h / (2.0 * math.pi)

    @classmethod
    def si(cls) -> "UnitSystem":
        return cls(k=BOLTZMANN_SI, h=PLANCK_SI)


NATURAL_UNITS = UnitSystem()
SI_UNITS = UnitSystem.si()
