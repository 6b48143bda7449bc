"""Exception taxonomy shared across the package.

One class per exit category of ``cli.main``: ``ConfigError`` exits 2,
``DataError`` 3, ``NumericError`` 4, and any other ``GptLabError`` (a
broken internal invariant, such as mismatched tensor shapes) exits 1. The
message says which fault of a category was found, so a new fault needs no
new class.
"""


class GptLabError(Exception):
    """Base class for all package errors; raised directly when the program
    breaks its own invariants (tensor shapes, a second backward)."""


class ConfigError(GptLabError):
    """Bad run configuration, config file, or incompatible settings."""


class DataError(GptLabError):
    """Bad input data: corpus records and spans, vocab files, token ids,
    checkpoints, or data that leaves no token to score."""


class NumericError(GptLabError):
    """Non-finite values or numeric divergence during training."""
