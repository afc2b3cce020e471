"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so user-facing failures
should raise one of the classes below rather than bare ValueError.
"""


class CVBellError(Exception):
    """Base class for all package errors."""


class DomainError(CVBellError, ValueError):
    """A parameter lies outside its physical domain."""


class SingularMatrixError(CVBellError):
    """A matrix inversion was refused because of (near-)singularity."""

    def __init__(self, message: str, condition_estimate: float | None = None):
        if condition_estimate is not None:
            message = f"{message} (condition estimate {condition_estimate:.3e})"
        super().__init__(message)
        self.condition_estimate = condition_estimate


class InvalidRegimeError(CVBellError):
    """The requested parameters admit no usable click statistics.

    Raised e.g. for vacuum input (no squeezing) where the heralding
    probability vanishes and the conditional state is undefined.
    """


class TruncationError(CVBellError):
    """A photon-number-basis representation lost too much probability."""


class EnvelopeError(CVBellError):
    """The rejection-sampling envelope is not usable: a positive mixture
    term is not below the widest term in the Loewner order, acceptance is
    too low, or the whitened ratio r(z) of target to envelope exceeds the
    bound at a proposal (the peak search missed a peak)."""


class OptimizationError(CVBellError):
    """A scalar optimization could not be carried out unambiguously."""


class ConfigError(CVBellError):
    """A run configuration file or value is malformed."""
