"""Exception hierarchy shared by all demonlab modules."""

import math


class DemonlabError(Exception):
    """Base class for all demonlab errors."""


class InvalidInputError(DemonlabError, ValueError):
    """A parameter or data structure violates a documented precondition."""


class InvalidStateError(DemonlabError):
    """An operation was applied to a scenario state that cannot accept it."""


class NonUniqueEquilibriumError(DemonlabError):
    """The transition graph is disconnected, so no unique equilibrium exists."""


class NumericError(DemonlabError):
    """A computation produced non-finite or otherwise unusable values."""


NORMAL = 2.0**-1022


def require_positive(name: str, value: float, *, least: float = math.ulp(0.0)) -> float:
    """Return value if least <= value < inf (never NaN); else raise InvalidInputError.

    The default least accepts any positive value, NORMAL (the smallest normal float64)
    no subnormal, and 0.0 an underflow to zero. Name a derived value by its inputs."""
    if not least <= value < math.inf:
        bound = "positive" if least == math.ulp(0.0) else f">= {least!r}"
        raise InvalidInputError(f"{name} must be finite and {bound}, got {value!r}")
    return value


def require_count(name: str, value: int, least: int, most: int) -> int:
    """Return value if least <= value <= most; else raise InvalidInputError."""
    if not least <= value <= most:
        raise InvalidInputError(f"{name} must be in [{least}, {most}], got {value!r}")
    return value
