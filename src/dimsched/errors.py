"""Exception hierarchy shared across the package."""

import operator


class DimschedError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(DimschedError):
    """Vector/matrix shapes do not agree."""


class NotPositiveDefinite(DimschedError):
    """Matrix could not be factorized even after jitter escalation."""


class NonFiniteObjective(DimschedError):
    """Objective callback returned NaN or infinity."""


class NonFiniteAcquisition(DimschedError):
    """The acquisition function took a non-finite value inside the EI search."""


class NonFiniteState(DimschedError):
    """ODE integration produced a non-finite state.

    Carries the fraction of the requested horizon that was completed
    before the blow-up, so callers can build a rankable penalty.
    """

    def __init__(self, fraction_completed: float):
        super().__init__(f"non-finite state at {fraction_completed:.3f} of horizon")
        self.fraction_completed = fraction_completed


class RunAborted(DimschedError):
    """A campaign run stopped early (outputs written up to the abort)."""


class ConfigError(DimschedError):
    """Campaign configuration file is invalid."""


class ParseError(DimschedError):
    """A harness-written file failed to parse."""


def _as_int(name: str, value, error: type[Exception] = ValueError) -> int:
    """value as an int if it is an integer, numpy's included; else error, naming name.

    A float is refused even when it is whole: a setting such as 2.5
    iterations or workers has no meaning to round to.  So is a bool, which
    Python counts as an int: True iterations is a mistake, not 1.
    """
    if isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
