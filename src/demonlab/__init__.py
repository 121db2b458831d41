"""demonlab: desk-scale numerical experiments on the Second Law.

Master-equation relaxation and its entropy monotonicity, golden-rule decay,
entropic position/momentum uncertainty, the one-molecule engine's entropy
ledger, the speed-sorting demon's feasibility bound, volume-fluctuation
statistics, and random-walk diffusion -- each with seeded Monte-Carlo
harnesses and analytic cross-checks.
"""

__version__ = "0.1.0"

from .units import NATURAL_UNITS, SI_UNITS, UnitSystem  # noqa: F401
from .errors import (  # noqa: F401
    DemonlabError,
    InvalidInputError,
    InvalidStateError,
    NonUniqueEquilibriumError,
    NumericError,
)
