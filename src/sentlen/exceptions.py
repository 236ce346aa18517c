class SentlenError(Exception):
    """Base class for all package errors."""


class IngestionError(SentlenError):
    """A text file could not be read or decoded."""


class DegenerateInputError(SentlenError):
    """Input is structurally valid but statistically degenerate
    (constant series, zero variance, all pairs tied, ...)."""


class ConfigError(SentlenError):
    """An analysis setting is out of its valid range."""
