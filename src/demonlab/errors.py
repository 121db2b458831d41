"""Exception hierarchy shared by all demonlab modules."""

import math


class DemonlabError(Exception):
    """Base class for all demonlab errors."""


class InvalidInputError(DemonlabError, ValueError):
    """A parameter or data structure violates a documented precondition."""


class InvalidStateError(DemonlabError):
    """An operation was applied to a scenario state that cannot accept it."""


class DivergenceError(DemonlabError):
    """A formula was evaluated at a point where it is genuinely singular.

    Raised, e.g., by the entropy-production rate when a state with zero
    probability still has transitions attached: the logarithmic divergence
    is physical, so the caller must regularize (clamp probabilities to a
    small floor) rather than have it silently masked here.
    """


class NonUniqueEquilibriumError(DemonlabError):
    """The transition graph is disconnected, so no unique equilibrium exists."""


class NumericError(DemonlabError):
    """A computation produced non-finite or otherwise unusable values."""


def require_positive(name: str, value: float) -> None:
    """Raise InvalidInputError unless value is finite and > 0."""
    if not (value > 0 and math.isfinite(value)):
        raise InvalidInputError(f"{name} must be positive, got {value!r}")
