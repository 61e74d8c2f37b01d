"""Exception hierarchy shared across the package.

The split between data-shaped failures (bad corpus content, bad values)
and compute-shaped failures (an analysis asked of a graph that cannot
support it) mirrors the CLI exit codes.
"""


class LegisnetError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LegisnetError):
    """A document, reference or argument value violates an invariant."""


class CorpusError(LegisnetError):
    """A corpus stream is malformed or violates the ingest policy."""


class ConfigError(LegisnetError):
    """A configuration object or parameter set is unusable."""


class AnalysisError(LegisnetError):
    """An analysis operation is undefined for the given input."""
