"""Exception types shared across the package.

Every failure mode raised by the library derives from SentinelError so
callers (and the CLI exit-code mapping) can branch on category:
ConfigError for bad configuration, DataError for ingestion problems,
NumericError for degenerate numerical situations.
"""


class SentinelError(Exception):
    """Base class for all package errors."""


class ConfigError(SentinelError):
    """Invalid configuration value or unknown configuration key."""


class DataError(SentinelError):
    """Problem with input data files or dataset structure."""


class NumericError(SentinelError):
    """Numerically degenerate input or diverging computation."""


# --- data ingestion ---------------------------------------------------------

class ParseError(DataError):
    """Malformed row or unreadable recording file."""


class MissingChannel(DataError):
    """Recording contains neither of the expected channels."""


class NonMonotonicTime(DataError):
    """Timestamps within a channel are not strictly increasing."""


class UnknownLabel(DataError):
    """Class label could not be inferred for a recording."""


class EmptyDataset(DataError):
    """No parseable recordings found."""


# --- signal processing ------------------------------------------------------

class DegenerateSignal(NumericError):
    """Signal has zero variance (or zero range) where spread is required."""


class BadWindow(ConfigError):
    """Median filter window is even, too small, or longer than the signal."""


class EmptyChannel(DataError):
    """A channel holds no samples at all."""


class TooFewSeries(DataError):
    """A class would receive zero series in a requested split."""


# --- model / training -------------------------------------------------------

class DimensionMismatch(SentinelError):
    """Array shape is inconsistent with the model specification."""


class NoActivationCache(SentinelError):
    """Backpropagation was given an inference-only forward cache."""


class SeriesTooShort(DataError):
    """Series is shorter than one analysis window."""


class NoPositiveWindows(DataError):
    """Window labelling produced no positive examples to train on."""


class NonFiniteLoss(NumericError):
    """Training loss became NaN or infinite.

    Carries the last model state that still produced finite losses in
    ``last_good_model`` (may be None when divergence hit on epoch one).
    """

    def __init__(self, message, last_good_model=None):
        super().__init__(message)
        self.last_good_model = last_good_model


class VersionMismatch(SentinelError):
    """Checkpoint was written by an incompatible format version."""


class CorruptCheckpoint(SentinelError):
    """Checkpoint file is truncated or structurally invalid."""


# --- evaluation -------------------------------------------------------------

class NoPositives(SentinelError):
    """Recall undefined: no positive items were evaluated (tp + fn = 0)."""


class NoDetections(SentinelError):
    """Precision undefined: nothing was flagged (tp + fp = 0)."""


class UndefinedF(SentinelError):
    """F-measure undefined: recall + beta^2 * precision = 0."""


class EmptyEvaluation(SentinelError):
    """Accuracy undefined: nothing was evaluated."""


# --- hyperparameter optimisation --------------------------------------------

class DegenerateSurrogate(NumericError):
    """Gaussian-process kernel matrix not positive definite after jitter."""


class AllTrialsFailed(SentinelError):
    """Every optimisation trial failed; no best point exists."""


# --- synthesis and command line ----------------------------------------------

class ConfigInvalid(ConfigError):
    """A configuration key or value is invalid (named in the message)."""


class UnknownCommand(ConfigError):
    """Dispatch received a command name it does not know."""
