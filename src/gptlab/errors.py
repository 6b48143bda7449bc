"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat
and the categories stable.
"""


class GptLabError(Exception):
    """Base class for all package errors."""


class ConfigError(GptLabError):
    """Bad run configuration, config file, or incompatible settings."""


class DataError(GptLabError):
    """Bad input data: corpus files, vocab files, checkpoints."""


class NumericError(GptLabError):
    """Non-finite values or numeric divergence during training."""


# --- autodiff ---

class ShapeError(GptLabError):
    """Tensor shapes incompatible for the requested operation."""


class DoubleBackwardError(GptLabError):
    """backward() called twice on the same tape without a reset."""


class EmptyLossError(DataError):
    """Loss requested over zero unmasked positions: the data holds no token
    that counts toward the loss."""


class VocabError(DataError):
    """Token id outside the vocabulary / logit table."""


# --- corpus ---

class MalformedRecordError(DataError):
    """A corpus record does not parse or misses required fields."""


class SpanOutOfBoundsError(DataError):
    """An entity span exceeds its turn's text."""


class OverlappingSpanError(DataError):
    """Two entity spans in one turn overlap."""


class CheckpointError(DataError):
    """Checkpoint container malformed or inconsistent with its config."""
