"""Exception taxonomy shared across the package.

Invalid inputs (bad shapes, unloadable files) map to CLI exit code 2;
numerical failures (non-convergence, undefined metrics, degenerate
likelihoods) map to exit code 3.  ``dataclass_kwargs`` is the field check
shared by every ``from_dict``.
"""

from dataclasses import MISSING

__all__ = [
    "CesurvError",
    "InvalidInputError",
    "DatasetLoadError",
    "NumericalError",
    "NoEventsError",
    "NonConvergenceError",
    "UndefinedMetricError",
    "dataclass_kwargs",
]


class CesurvError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CesurvError):
    """Arguments or data violate a documented precondition."""


class DatasetLoadError(InvalidInputError):
    """A dataset file is missing columns or contains unusable values."""


class NumericalError(CesurvError):
    """A computation failed for numerical or degeneracy reasons."""


class NoEventsError(NumericalError):
    """All observations censored: the AFT likelihood has no maximum."""


class NonConvergenceError(NumericalError):
    """Optimizer could not make progress; carries diagnostics."""

    def __init__(self, message, iterations=None, gradient_norm=None):
        super().__init__(message)
        self.iterations = iterations
        self.gradient_norm = gradient_norm


class UndefinedMetricError(NumericalError):
    """Metric has an empty denominator (no events / no comparable pairs)."""


def dataclass_kwargs(cls, d, ignore=()) -> dict:
    """Keyword arguments of dataclass ``cls`` from mapping ``d``, less ``ignore``.

    Raises InvalidInputError for a non-mapping, an unknown key or a missing required field.
    """
    if not isinstance(d, dict):
        raise InvalidInputError(f"{cls.__name__} fields must be a JSON object, got {type(d).__name__}")
    fields = cls.__dataclass_fields__
    extra = set(d) - set(fields) - set(ignore)
    if extra:
        raise InvalidInputError(f"unknown {cls.__name__} fields: {sorted(extra)}")
    missing = [n for n, f in fields.items()
               if n not in d and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise InvalidInputError(f"missing {cls.__name__} fields: {missing}")
    return {n: d[n] for n in fields if n in d}
