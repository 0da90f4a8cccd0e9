"""Exception hierarchy shared across the package."""


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


class UnknownBenchmark(DimschedError):
    """Benchmark name not in the catalog."""


class ChannelMismatch(DimschedError):
    """Time-series channels or time grids do not align."""


class RunAborted(DimschedError):
    """A campaign run stopped early (outputs written up to the abort)."""


class ConfigError(DimschedError):
    """Campaign configuration file is invalid."""


class ParseError(DimschedError):
    """A harness-written file failed to parse."""
