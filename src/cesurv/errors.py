"""Exception taxonomy shared across the package.

Invalid inputs (bad shapes, unloadable files) map to CLI exit code 2;
numerical failures (non-convergence, undefined metrics, degenerate
likelihoods) map to exit code 3.  ``dataclass_kwargs`` is the field check
shared by every ``from_dict``, and ``_is_integer`` the integer check of
the settings objects.
"""

import types
import typing
from dataclasses import MISSING

import numpy as np

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


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _json_matches(value, hint) -> bool:
    """Whether a value read from JSON has the annotated type ``hint``.

    ``hint`` is a class, ``X | None``, ``list[X]`` or ``tuple[X, ...]``
    (either read from a JSON array), or ``tuple[X, Y]`` of fixed length.
    ``float`` takes JSON integers too; neither number type takes a bool.
    """
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_json_matches(value, a) for a in args)
    if typing.get_origin(hint) in (list, tuple):
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1:] == (Ellipsis,) or typing.get_origin(hint) is list:
            return all(_json_matches(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_json_matches, value, args))
    if hint in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def dataclass_kwargs(cls, d, ignore=()) -> dict:
    """Keyword arguments of dataclass ``cls`` from mapping ``d``, less ``ignore``.

    Raises InvalidInputError for a non-mapping, an unknown key, a missing
    required field or a value that does not have its field's annotated type.
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
    hints = typing.get_type_hints(cls)
    for name in fields:
        # An array field is read from a list of numbers.
        hint = list[float] if hints[name] is np.ndarray else hints[name]
        if name in d and not _json_matches(d[name], hint):
            expected = hint.__name__ if isinstance(hint, type) else str(hint)
            raise InvalidInputError(f"{cls.__name__} field {name!r} must be {expected}, got {d[name]!r}")
    return {n: d[n] for n in fields if n in d}
