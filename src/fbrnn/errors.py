"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigurationError -> 1 (usage/config),
DataError -> 2 (bad input data), NumericError -> 3 (numeric failure).
"""


class FBRNNError(Exception):
    """Base class for all package errors."""


class ConfigurationError(FBRNNError):
    """Invalid configuration: bad hyperparameter, shape mismatch, unknown key."""


class DataError(FBRNNError):
    """Invalid input data: corpus lines, label files, embedding files, checkpoints."""


class NumericError(FBRNNError):
    """Numeric failure: NaN/Inf values, failed gradient check, non-deterministic loss.

    `position` is the index within its minibatch of the example that failed,
    when the failure belongs to one example.
    """

    def __init__(self, message: str = "", position: int | None = None) -> None:
        super().__init__(message)
        self.position = position
