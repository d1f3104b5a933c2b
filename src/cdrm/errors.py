"""Exception types shared across the package.

Each type derives from exactly one of two bases, which fix the `cdrm`
exit status: a `UsageError` (bad input, exit 2) or a `RuntimeFailure`
(the work itself failed, exit 1).
"""


class UsageError(ValueError):
    """The input is wrong: fixing the arguments or files fixes the run."""


class RuntimeFailure(RuntimeError):
    """Valid input, but the computation could not go on."""


class InvalidInputError(UsageError):
    """Malformed argument: dimension mismatch, empty batch, bad config value."""


class TrainingDivergenceError(RuntimeFailure):
    """Loss or gradients became non-finite during training."""


class SamplingFailureError(RuntimeFailure):
    """A Langevin chain produced a non-finite gradient."""


class DegenerateDatasetError(RuntimeFailure):
    """Dataset admits no usable density statistics (zero spread)."""


class EmptyValidSetError(RuntimeFailure):
    """Operation requires at least one valid candidate."""


class UnpreparedModelError(RuntimeFailure):
    """Model is missing state required for inference (e.g. density stats)."""


class OutOfBoundsError(UsageError):
    """A point lies outside the declared bounds."""


class DatasetFormatError(UsageError):
    """Dataset file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ModelFormatError(UsageError):
    """Model file is malformed or fails its embedded self-check."""


class UnsupportedVersionError(UsageError):
    """Serialized artifact uses a schema this build does not understand."""


class UndefinedMetricError(UsageError):
    """Metric is undefined for the given label distribution."""
