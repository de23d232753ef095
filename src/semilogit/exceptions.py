"""Exception hierarchy for semilogit.

Every error raised by this package derives from :class:`SemilogitError`,
so callers can catch the whole family with one clause.  The value-like
errors additionally derive from ``ValueError``.  Every value of a run
configuration is read through the table in ``schema``, so a bad one is a
ConfigError naming its dotted path.
"""


class SemilogitError(Exception):
    """Base class for all semilogit errors."""


class InvalidPredictorError(SemilogitError, ValueError):
    """A linear predictor contains non-finite entries."""


class ShapeError(SemilogitError, ValueError):
    """Array dimensions do not match the declared model layout."""


class ConfigError(SemilogitError, ValueError):
    """A configuration value is out of its valid range."""


class DegenerateCovariateError(SemilogitError):
    """A covariate column has zero sample variance."""


class InsufficientDataError(SemilogitError):
    """The data cannot support the requested fit (e.g. an empty category)."""


class NonIdentifiedError(SemilogitError):
    """The information matrix is singular (collinearity, separation)."""


class NumericalFailureError(SemilogitError):
    """An internal numeric guard tripped (should not occur on sane input)."""


class NoLocalDataError(SemilogitError):
    """All kernel weights at a query point are numerically zero."""


class SeparationError(SemilogitError):
    """A local likelihood is one-sided; its maximiser runs off to infinity."""


class OracleFailureError(SemilogitError):
    """A brute-force oracle exhausted its budget without converging."""


class EmptyDatasetError(SemilogitError):
    """Ingestion produced zero usable rows."""

