"""Non-parametric copula entropy estimation.

Copula entropy (CE) is the differential entropy of a random vector's copula
density.  It equals the negative mutual information, is non-positive, zero
iff the variables are independent, and invariant under strictly increasing
transforms of each variable.  The estimator used here works in two steps:

1. map each column to its empirical copula via within-column ranks,
2. estimate the entropy of the pseudo-observations with a k-nearest-neighbor
   (Kozachenko-Leonenko / KSG) estimator.

All functions are pure and deterministic for a fixed ``EstimatorConfig``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidInputError

__all__ = [
    "EstimatorConfig",
    "as_sample_matrix",
    "empirical_copula",
    "knn_entropy",
    "copula_entropy",
    "digamma",
]

# Zero kth-neighbor distances would make the entropy sum diverge; exact
# duplicates surviving the tie jitter are floored here before the log.
_EPS_FLOOR = 1e-12

_NORMS = ("max", "euclidean")


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings for the rank + kNN copula entropy estimator.

    k:           neighbor count for the entropy step.
    norm:        "max" (Chebyshev, default) or "euclidean".
    tie_jitter:  relative magnitude of the deterministic perturbation used
                 to break ties before ranking (scaled by column std).
    jitter_seed: seed of the per-row perturbation stream.
    boundary_correction:
                 clip neighbor-ball volumes to the unit cube when estimating
                 the entropy of copula pseudo-observations.  Removes most of
                 the finite-sample boundary bias near independence.  Only
                 effective under the max norm.
    """

    k: int = 3
    norm: str = "max"
    tie_jitter: float = 1e-10
    jitter_seed: int = 0
    boundary_correction: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInputError(f"k must be >= 1, got {self.k}")
        if self.norm not in _NORMS:
            raise InvalidInputError(f"norm must be one of {_NORMS}, got {self.norm!r}")
        if self.tie_jitter < 0:
            raise InvalidInputError(f"tie_jitter must be >= 0, got {self.tie_jitter}")
        if self.jitter_seed < 0:
            raise InvalidInputError(f"jitter_seed must be >= 0, got {self.jitter_seed}")

    def to_dict(self) -> dict:
        return asdict(self)


def as_sample_matrix(values) -> np.ndarray:
    """Validate and return an N x d float matrix of observations.

    Requires every entry finite, at least 2 rows and 1 column.
    1-D input is treated as a single column.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise InvalidInputError(f"sample matrix must be 2-D, got shape {x.shape}")
    n, d = x.shape
    if n < 2:
        raise InvalidInputError(f"need at least 2 rows, got {n}")
    if d < 1:
        raise InvalidInputError("need at least 1 column")
    if not np.isfinite(x).all():
        bad = np.argwhere(~np.isfinite(x))[0]
        raise InvalidInputError(f"non-finite entry at row {bad[0]}, column {bad[1]}")
    return x


def digamma(x: float) -> float:
    """Digamma via upward recurrence to x >= 6 plus the asymptotic series."""
    if x <= 0:
        raise InvalidInputError(f"digamma requires x > 0, got {x}")
    result = 0.0
    while x < 6.0:
        result -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # Bernoulli-number tail of the asymptotic expansion, through x**-12.
    series = (
        -1.0 / 12.0
        + inv2 * (1.0 / 120.0 + inv2 * (-1.0 / 252.0 + inv2 * (1.0 / 240.0 + inv2 * (-1.0 / 132.0 + inv2 * (691.0 / 32760.0)))))
    )
    return result + math.log(x) - 0.5 * inv + inv2 * series


# Mixed into the jitter stream seed so that plain integer data seeds used
# elsewhere (simulators, tests) can never reproduce the same stream.
_JITTER_STREAM_TAG = 0x9E3779B97F4A7C15


def _column_stream(col: np.ndarray, cfg: EstimatorConfig) -> np.random.Generator:
    """The tie-break stream of one column, keyed on its tie pattern.

    The key hashes the column's dense ranks, which strictly increasing
    transforms leave unchanged and which do not depend on the column's
    position, so neither changes the stream.  ``hash()`` is salted per
    process and would break run-to-run reproducibility, hence blake2b.
    """
    dense = np.unique(col, return_inverse=True)[1]
    digest = hashlib.blake2b(dense.astype("<i8").tobytes(), digest_size=8).digest()
    key = int.from_bytes(digest, "little")
    return np.random.default_rng((_JITTER_STREAM_TAG, cfg.jitter_seed, key))


def _tie_break(x: np.ndarray, cfg: EstimatorConfig) -> np.ndarray:
    """Perturb x so ranking is unambiguous, deterministically in jitter_seed.

    The offset for row i of column j is tie_jitter * std_j * u_ij, with the
    u_ij of each column drawn from that column's own stream
    (``_column_stream``).  Tied blocks in different columns are therefore
    ordered independently of each other, as randomized tie-breaking of
    discrete margins requires (Genest & Neslehova, "A primer on copulas for
    count data", ASTIN Bulletin 37(2), 2007).  A stream shared across
    columns would order every tied block by the same u_i, put the copula
    points of tied rows on a diagonal, and read as dependence.
    """
    n = x.shape[0]
    u = np.column_stack([_column_stream(col, cfg).random(n) for col in x.T])
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    return x + cfg.tie_jitter * scale[None, :] * u


def empirical_copula(x, cfg: EstimatorConfig = EstimatorConfig()) -> np.ndarray:
    """Map each column to rank / N (ranks 1-based), the empirical copula.

    Tie-free columns come out as a permutation of {1/N, ..., 1}; ties are
    broken by the deterministic jitter in ``cfg``, drawn independently for
    each column, so tied values get a uniformly random order within their
    block and repeated calls agree exactly.  Output entries lie in (0, 1].
    """
    x = as_sample_matrix(x)
    n = x.shape[0]
    xp = _tie_break(x, cfg)
    order = np.argsort(xp, axis=0, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(1, n + 1)[:, None]
    np.put_along_axis(ranks, order, np.broadcast_to(rows, x.shape), axis=0)
    return ranks / float(n)


def _kth_nn_distance(u: np.ndarray, k: int, norm: str) -> np.ndarray:
    """Distance from each row to its k-th nearest other row, by kd-tree."""
    p = np.inf if norm == "max" else 2
    tree = cKDTree(u)
    dist, _ = tree.query(u, k=k + 1, p=p)
    return dist[:, k]


def _log_unit_diameter_ball_volume(d: int, norm: str) -> float:
    # Unit-diameter ball: radius 1/2.  Max-norm makes this the unit cube.
    if norm == "max":
        return 0.0
    return 0.5 * d * math.log(math.pi) - d * math.log(2.0) - math.lgamma(0.5 * d + 1.0)


def knn_entropy(u, cfg: EstimatorConfig = EstimatorConfig(), unit_support: bool = False) -> float:
    """Kozachenko-Leonenko entropy estimate in nats.

    H = -psi(k) + psi(N) + log c_d + (d/N) * sum_i log eps_i, where eps_i is
    twice the distance from row i to its k-th nearest neighbor and c_d the
    volume of the unit-diameter ball under the configured norm.

    With ``unit_support=True`` (and max norm, boundary correction enabled)
    the per-point ball volume c_d * eps_i**d is replaced by the volume of the
    ball's intersection with the unit cube [0, 1]^d, which removes the upward
    bias the plain estimator has for samples on a bounded support.
    """
    u = as_sample_matrix(u)
    n, d = u.shape
    if n <= cfg.k:
        raise InvalidInputError(f"need more than k={cfg.k} rows, got {n}")
    eps = 2.0 * _kth_nn_distance(u, cfg.k, cfg.norm)
    eps = np.maximum(eps, _EPS_FLOOR)
    base = -digamma(float(cfg.k)) + digamma(float(n))
    if unit_support and cfg.boundary_correction and cfg.norm == "max":
        r = eps[:, None] / 2.0
        widths = np.minimum(u + r, 1.0) - np.maximum(u - r, 0.0)
        return base + float(np.log(widths).sum(axis=1).mean())
    log_sum = float(np.log(eps).sum())
    return base + _log_unit_diameter_ball_volume(d, cfg.norm) + (d / n) * log_sum


def copula_entropy(x, cfg: EstimatorConfig = EstimatorConfig()) -> float:
    """Copula entropy estimate in nats (= negative mutual information).

    Composition of ``empirical_copula`` and ``knn_entropy`` on the unit-cube
    support.  The population quantity is non-positive; estimates may come out
    slightly positive from estimator noise.
    """
    x = as_sample_matrix(x)
    if x.shape[1] < 2:
        raise InvalidInputError("copula entropy needs at least 2 columns")
    if x.shape[0] <= cfg.k:
        raise InvalidInputError(f"need more than k={cfg.k} rows, got {x.shape[0]}")
    return knn_entropy(empirical_copula(x, cfg), cfg, unit_support=True)
