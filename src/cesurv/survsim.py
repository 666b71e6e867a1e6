"""Right-censored Weibull survival data simulator.

Subjects are homogeneous and i.i.d.  Event times follow a log-linear
(accelerated failure time) Weibull model driven by normally distributed
covariates; censoring times follow a covariate-free Weibull; observation
stops at a fixed administrative follow-up cap.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidInputError, _is_integer, dataclass_kwargs

__all__ = ["SimConfig", "SurvivalDataset", "simulate"]


def _real(name, value) -> float:
    """``value`` as a float; InvalidInputError naming ``name`` unless it is a number other than nan."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value != value:
        raise InvalidInputError(f"{name} must be a number other than nan, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int or Fraction beyond the float range
        raise InvalidInputError(f"{name} must be a number in the float range, got one too large") from None


@dataclass(frozen=True)
class SimConfig:
    """Generator settings; ``covariate_params`` holds (mean, variance) pairs.

    The defaults are the reference set of the test-bench experiments.
    """

    n_subjects: int = 1000
    max_follow_up: float = 100.0
    event_shape: float = 2.0
    event_log_scale: float = 1.0
    censor_shape: float = 0.85
    censor_log_scale: float = 5.0
    coefficients: tuple[float, ...] = (1.4, 1.2, 0.0, 1.2, 0.2)
    covariate_params: tuple[tuple[float, float], ...] = (
        (0.4, 1.1), (1.0, 1.1), (0.7, 1.1), (0.2, 1.3), (0.2, 1.1))
    seed: int = 0

    def __post_init__(self):
        for name in ("max_follow_up", "event_shape", "event_log_scale", "censor_shape", "censor_log_scale"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        try:
            coefficients = tuple(self.coefficients)
        except TypeError:
            raise InvalidInputError(f"coefficients must be a sequence of numbers, got {self.coefficients!r}") from None
        try:
            params = [(m, v) for m, v in self.covariate_params]
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"covariate_params must be a sequence of (mean, variance) pairs, got {self.covariate_params!r}"
            ) from None
        object.__setattr__(self, "coefficients", tuple(_real("coefficients", b) for b in coefficients))
        object.__setattr__(self, "covariate_params", tuple(
            (_real("covariate_params", m), _real("covariate_params", v)) for m, v in params))
        # An infinite follow-up cap or censoring scale means none; any other
        # infinity makes times of 0 or inf.
        for name, values in (("event_log_scale", [self.event_log_scale]), ("coefficients", self.coefficients),
                             ("covariate_params", np.ravel(self.covariate_params))):
            if not np.isfinite(values).all():
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.censor_log_scale == -np.inf:
            raise InvalidInputError("censor_log_scale must be finite or +inf, got -inf")
        if not _is_integer(self.n_subjects):
            raise InvalidInputError(f"n_subjects must be an integer, got {self.n_subjects!r}")
        if self.n_subjects < 1:
            raise InvalidInputError(f"n_subjects must be >= 1, got {self.n_subjects}")
        if self.max_follow_up <= 0:
            raise InvalidInputError(f"max_follow_up must be > 0, got {self.max_follow_up}")
        if self.event_shape <= 0 or self.censor_shape <= 0:
            raise InvalidInputError("Weibull shape parameters must be > 0")
        if len(self.coefficients) != len(self.covariate_params):
            raise InvalidInputError(
                f"{len(self.coefficients)} coefficients vs "
                f"{len(self.covariate_params)} covariate distributions"
            )
        if any(v < 0 for _, v in self.covariate_params):
            raise InvalidInputError("covariate variances must be >= 0")
        if not _is_integer(self.seed) or self.seed < 0:
            raise InvalidInputError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "n_subjects", int(self.n_subjects))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n_covariates(self) -> int:
        return len(self.coefficients)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        return cls(**dataclass_kwargs(cls, d))


@dataclass
class SurvivalDataset:
    """Covariate matrix with observed times, event indicators and names."""

    covariates: np.ndarray
    time: np.ndarray
    status: np.ndarray
    names: list
    attrs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.covariates = np.asarray(self.covariates, dtype=float)
        self.time = np.asarray(self.time, dtype=float)
        self.status = np.asarray(self.status, dtype=int)
        if self.covariates.ndim != 2:
            raise InvalidInputError("covariates must be a 2-D matrix")
        n = self.covariates.shape[0]
        if not (len(self.time) == len(self.status) == n):
            raise InvalidInputError("time, status and covariates disagree on row count")
        if len(self.names) != self.covariates.shape[1]:
            raise InvalidInputError("one name per covariate column required")
        # Columns are selected by name, so a repeated name would select only its first column.
        if len(set(self.names)) != len(self.names):
            raise InvalidInputError(f"covariate names must be unique, got {list(self.names)}")
        if not np.isfinite(self.covariates).all():
            raise InvalidInputError("covariates contain non-finite values")
        if not np.isfinite(self.time).all() or (self.time <= 0).any():
            raise InvalidInputError("times must be finite and positive")
        if not np.isin(self.status, (0, 1)).all():
            raise InvalidInputError("status flags must be 0 or 1")

    @property
    def n_rows(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_events(self) -> int:
        return int(self.status.sum())

    def column(self, name: str) -> np.ndarray:
        return self.covariates[:, self.names.index(name)]


def simulate(cfg: SimConfig) -> SurvivalDataset:
    """Draw a right-censored dataset; identical output for identical cfg.

    Event time  T = exp(b0 + x.beta) * E**(1/a0),   E  ~ Exp(1)
    Censor time C = exp(bc) * E'**(1/ac),           E' ~ Exp(1)
    time = min(T, C, max_follow_up); status = 1 iff the event was observed.
    """
    rng = np.random.default_rng(cfg.seed)
    n, d = cfg.n_subjects, cfg.n_covariates
    means = np.array([m for m, _ in cfg.covariate_params])
    sds = np.sqrt([v for _, v in cfg.covariate_params])
    x = rng.standard_normal((n, d))
    x *= sds
    x += means
    linpred = cfg.event_log_scale + x @ np.asarray(cfg.coefficients)
    t_event = np.exp(linpred) * rng.standard_exponential(n) ** (1.0 / cfg.event_shape)
    t_censor = np.exp(cfg.censor_log_scale) * rng.standard_exponential(n) ** (1.0 / cfg.censor_shape)
    time = np.minimum(np.minimum(t_event, t_censor), cfg.max_follow_up)
    status = ((t_event <= t_censor) & (t_event <= cfg.max_follow_up)).astype(int)
    names = [f"x{j + 1}" for j in range(d)]
    return SurvivalDataset(x, time, status, names)
