"""Exception types shared across the toolkit.

Everything derives from ValueError so callers that only care about
"bad input" can catch the stdlib type.
"""


class SidestepError(ValueError):
    """Base class for all toolkit errors."""


class DegreeCapError(SidestepError):
    """A symbolic polynomial exceeded the degree cap."""


class EmptyTailError(SidestepError):
    """A tail window selected no indices."""


class DuplicateBaseError(SidestepError):
    """A base set contained two elements closer than the merge tolerance."""


class WindowTooShortError(SidestepError):
    """A sequence window is shorter than an operator needs."""


class BaseNotCoveredError(SidestepError):
    """A polyexponential base is missing from the annihilator's base set."""


class NonSymmetricError(SidestepError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class DimensionMismatchError(SidestepError):
    """Spectrum samples of different dimensions were mixed."""


class StreamMismatchError(SidestepError):
    """A block of draws disagrees with the per-draw reference sampler."""


class SpectralRangeError(SidestepError):
    """An eigenvalue lies outside the admissible range for a map."""


class ProbabilityError(SidestepError):
    """A configured event probability falls outside [0, 1]."""


class IllConditionedError(SidestepError):
    """The expansion fit system is too ill-conditioned to trust; the
    message ends with the diagnostics, as ``(k=7, n_grid=(100, 200), r=2)``."""

    def __init__(self, message: str, condition: float, diagnostics: dict | None = None):
        self.condition = condition
        self.diagnostics = diagnostics or {}
        context = ", ".join(f"{k}={v}" for k, v in self.diagnostics.items())
        super().__init__(f"{message} ({context})" if context else message)


class ParameterError(SidestepError):
    """Parameter formulas got out-of-range arguments; ``argument`` names one."""

    def __init__(self, message: str, argument: str = ""):
        super().__init__(message)
        self.argument = argument


class PreconditionError(SidestepError):
    """A certification routine was called with invalid parameters."""


class ConfigError(SidestepError):
    """An experiment config failed schema validation."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


class MissingInputError(SidestepError):
    """An analyze/certify step ran before the run outputs it needs exist."""
