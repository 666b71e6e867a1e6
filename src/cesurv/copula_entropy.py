"""Non-parametric copula entropy estimation.

Copula entropy (CE) is the differential entropy of a random vector's copula
density.  It equals the negative mutual information, is non-positive, zero
iff the variables are independent, and invariant under strictly increasing
transforms of each variable.  The estimator used here works in two steps:

1. map each column to its empirical copula via within-column ranks,
2. estimate the entropy of the pseudo-observations with a k-nearest-neighbor
   (Kozachenko-Leonenko / KSG) estimator whose neighbor cubes are clipped
   to the unit cube.

All functions are pure and deterministic for a fixed ``EstimatorConfig``.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, asdict

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from .errors import InvalidInputError, _is_integer

__all__ = [
    "EstimatorConfig",
    "as_sample_matrix",
    "empirical_copula",
    "knn_entropy",
    "copula_entropy",
]

# Zero kth-neighbor distances would make the entropy sum diverge.  Two rows
# of an n-row copula differ by at least 1/n in every column, so only a
# sample with more than k rows within 1e-12 of each other, such as
# identical rows, has its radii floored here.
_EPS_FLOOR = 1e-12

# CPUs this process may run on; the kNN searches use up to this many
# threads at once.  ``taskset`` limits it.
try:
    _CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # platforms without CPU affinity
    _CPUS = os.cpu_count() or 1
# Whole kNN jobs run side by side, one thread each, from this many rows.
# Against one job at a time (2 CPUs, both rankings of five simulated
# covariates, medians of interleaved runs), they lose at 300 rows (4.9-5.4
# vs 4.4 ms), split at 600 (8.9-9.4 vs 8.7-11.1 ms) and win at 1000
# (10.7-11.1 vs 13.1-13.2 ms), 2500 (23-24 vs 33-34 ms) and 10^4 rows (79-85
# vs 143-164 ms).  On the bundled tables (137 and 167 rows) their rankings
# without status take 5.1-6.3 ms in the pool against 3.9-4.1 ms serially.
_JOB_MIN_ROWS = 1000
# A kNN search of this many rows or more runs alone, its leaf-order blocks
# spread over _CPUS pool threads; a smaller one runs its blocks in the
# calling thread, whatever the CPU count.  Against whole searches side by
# side (2 CPUs, both rankings of five simulated covariates, one process a
# run, medians of three), the split searches take as long at 2*10^4 rows
# (0.18 s) and about 10% longer above (0.54 vs 0.49 s at 5*10^4 rows, 1.06
# vs 0.94 s at 10^5), but the trees of jobs in flight add up: the ranking
# raises peak RSS by 3 against 10 MB at 5*10^4 rows and by 6 against 18 MB
# at 10^5.  Measured on 2 CPUs only; with more CPUs, more jobs run at once.
_JOB_MAX_ROWS = 50_000


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings for the rank + kNN copula entropy estimator.

    k:           neighbor count for the entropy step.
    jitter_seed: seed of the per-column draws that order tied values
                 before ranking.
    """

    k: int = 3
    jitter_seed: int = 0

    def __post_init__(self):
        if not _is_integer(self.k) or self.k < 1:
            raise InvalidInputError(f"k must be an integer >= 1, got {self.k!r}")
        if not _is_integer(self.jitter_seed) or self.jitter_seed < 0:
            raise InvalidInputError(f"jitter_seed must be an integer >= 0, got {self.jitter_seed!r}")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "jitter_seed", int(self.jitter_seed))

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


# Mixed into the tie-break stream seed so that plain integer data seeds used
# elsewhere (simulators, tests) can never reproduce the same stream.
_JITTER_STREAM_TAG = 0x9E3779B97F4A7C15


def _column_stream(dense: np.ndarray, cfg: EstimatorConfig) -> np.random.Generator:
    """The tie-break stream of one column, keyed on its tie pattern.

    ``dense`` holds the column's dense ranks (0 for its smallest value, one
    more for each larger distinct value) as little-endian int64, which
    strictly increasing transforms leave unchanged and which do not depend
    on the column's position, so neither changes the stream.  The key
    hashes them; ``hash()`` is salted per process and would break
    run-to-run reproducibility, hence blake2b.
    """
    key = int.from_bytes(hashlib.blake2b(dense, digest_size=8).digest(), "little")
    return np.random.default_rng((_JITTER_STREAM_TAG, cfg.jitter_seed, key))


def _copula_order(col: np.ndarray, cfg: EstimatorConfig) -> np.ndarray:
    """The permutation that sorts one column by (value, draw, row): ``np.lexsort((draws, col))``.

    The draws come from the column's own stream (``_column_stream``), so
    tied blocks in different columns are ordered independently of each
    other, as randomized tie-breaking of discrete margins requires (Genest &
    Neslehova, "A primer on copulas for count data", ASTIN Bulletin 37(2),
    2007).  A stream shared across columns would order every tied block by
    the same draws, put the copula points of tied rows on a diagonal, and
    read as dependence.  Distinct values are ordered by value alone, so a
    strictly increasing map of the column leaves the order unchanged.  A
    column without ties needs no draws: its argsort is the order.  The
    stream's dense-rank key comes from the same argsort.
    """
    order = np.argsort(col)
    ranked = col[order]
    steps = np.empty(col.size, dtype="<i8")
    steps[:1] = 0
    np.not_equal(ranked[1:], ranked[:-1], out=steps[1:])
    del ranked
    if steps[1:].all():
        return order
    dense = np.empty_like(steps)
    dense[order] = np.cumsum(steps, out=steps)
    del order, steps
    draws = _column_stream(dense, cfg).random(col.size)
    del dense
    return np.lexsort((draws, col))


def empirical_copula(x, cfg: EstimatorConfig = EstimatorConfig()) -> np.ndarray:
    """Map each column to rank / N (ranks 1-based), the empirical copula.

    Tie-free columns come out as a permutation of {1/N, ..., 1}.  Rows are
    ranked by (value, draw), with the draws taken from a stream of each
    column's own, keyed on ``cfg.jitter_seed`` and the column's tie pattern:
    tied values get a uniformly random order within their block, repeated
    calls agree exactly, and a strictly increasing map of a column leaves
    its ranks unchanged.  Output entries lie in (0, 1].  Columns are handled
    one at a time, so the scratch memory is a few columns whatever the
    width.
    """
    x = as_sample_matrix(x)
    n, d = x.shape
    out = np.empty((n, d))
    levels = np.arange(1.0, n + 1)
    levels /= n
    for j in range(d):
        out[_copula_order(x[:, j], cfg), j] = levels
    return out


# Rows per block of the kNN pass: its query results and temporaries are
# _WIDTH_BLOCK_ROWS x d, however many rows the sample has.
_WIDTH_BLOCK_ROWS = 4096


def knn_entropy(u, cfg: EstimatorConfig = EstimatorConfig()) -> float:
    """Kozachenko-Leonenko entropy estimate in nats of a sample on [0, 1]^d.

    H = -psi(k) + psi(N) + (1/N) * sum_i log V_i, where V_i is the volume of
    the max-norm cube around row i, of radius its k-th nearest-neighbor
    distance, clipped to [0, 1]^d: the clipping removes the upward bias an
    unclipped cube has on a bounded support such as a copula's.  Raises
    InvalidInputError for a sample outside [0, 1]^d.

    The sample is searched in blocks of ``_WIDTH_BLOCK_ROWS`` rows of the
    kd-tree's leaf order (``tree.indices``), so consecutive queries walk the
    same nodes.  Each block gathers its rows of ``u``, queries the tree for
    their k-th neighbors on one thread, and writes the row sums of their
    clipped log-widths to ``total``; nothing n-sized is made but the tree
    and ``total``.  Splitting at the sliding midpoint instead of the median,
    without shrinking nodes to their points' bounding boxes, halves the
    build time; copula points fill the unit cube evenly, so the queries are
    no slower on that tree.  Samples of ``_JOB_MAX_ROWS`` rows or more,
    given more than one CPU, run their blocks on ``_CPUS`` pool threads,
    which also spreads the width sums and balances the load block by block;
    smaller ones run them in the calling thread, so that
    ``_unit_cube_entropies`` can run several searches at once.  The search
    is exact, so neither the order of the blocks nor the thread count
    changes a radius.  Each block is a new C-order matrix summed with the
    whole-matrix expression, so each row's sum is bitwise the one of a
    C-order whole matrix, whatever the layout of ``u``: numpy adds a row of
    fewer than 8 columns left to right but a longer one pairwise, which a
    column loop would not reproduce.  The sums are written back in row
    order, so their mean is too.
    """
    u = as_sample_matrix(u)
    n = u.shape[0]
    if n <= cfg.k:
        raise InvalidInputError(f"need more than k={cfg.k} rows, got {n}")
    low, high = u.min(), u.max()
    if low < 0.0 or high > 1.0:
        raise InvalidInputError(f"sample must lie in the unit cube [0, 1]^d, got values in [{low}, {high}]")
    tree = cKDTree(u, balanced_tree=False, compact_nodes=False)
    total = np.empty(n)

    def block_sums(start):
        rows = tree.indices[start:start + _WIDTH_BLOCK_ROWS]
        # The gathered block is a copy, so working in place keeps two
        # block-sized arrays live.
        block = u[rows]
        r = tree.query(block, k=[cfg.k + 1], p=np.inf)[0]
        np.maximum(r, _EPS_FLOOR, out=r)
        widths = block + r
        np.minimum(widths, 1.0, out=widths)
        block -= r
        widths -= np.maximum(block, 0.0, out=block)
        np.log(widths, out=widths)
        total[rows] = widths.sum(axis=1)

    starts = range(0, n, _WIDTH_BLOCK_ROWS)
    if _CPUS > 1 and n >= _JOB_MAX_ROWS:
        with ThreadPoolExecutor(_CPUS) as pool:
            list(pool.map(block_sums, starts))  # raises the first block's error
    else:
        for start in starts:
            block_sums(start)
    base = float(-digamma(float(cfg.k)) + digamma(float(n)))
    return base + float(total.mean())


def _unit_cube_entropies(samples, n: int, cfg: EstimatorConfig = EstimatorConfig()) -> list:
    """``knn_entropy(u, cfg)`` of each n-row copula sample, in order.

    ``samples`` yields the matrices; a yielded matrix may be rewritten once
    the next one is asked for.  Every search of fewer than ``_JOB_MAX_ROWS``
    rows runs on one thread (``knn_entropy``).  From
    ``_JOB_MIN_ROWS`` rows, when there is more than one CPU, each matrix is
    copied in the calling thread and searched on one of ``_CPUS`` pool
    threads.  Smaller tables, where threads cost more than they save, and
    larger ones, whose searches each spread their blocks over ``_CPUS``
    threads, run one search at a time.  One copy more than the threads may
    wait in the pool's queue, so that no thread idles while the calling
    thread makes the next matrix; no more are made until a search ends.
    Either way at most ``_CPUS`` threads query at once, and every estimate
    is the one ``knn_entropy`` gives on its own.
    """
    if _CPUS == 1 or not _JOB_MIN_ROWS <= n < _JOB_MAX_ROWS:
        return [knn_entropy(u, cfg) for u in samples]
    out, pending = [], set()
    with ThreadPoolExecutor(_CPUS) as pool:
        for u in samples:
            if len(pending) > _CPUS:
                pending = wait(pending, return_when=FIRST_COMPLETED).not_done
            job = pool.submit(knn_entropy, u.copy(), cfg)
            pending.add(job)
            out.append(job)
    return [job.result() for job in out]


def copula_entropy(x, cfg: EstimatorConfig = EstimatorConfig()) -> float:
    """Copula entropy estimate in nats (= negative mutual information).

    Composition of ``empirical_copula`` and ``knn_entropy`` on the unit-cube
    support.  The population quantity is non-positive; estimates may come out
    slightly positive from estimator noise.
    """
    x = as_sample_matrix(x)
    if x.shape[1] < 2:
        raise InvalidInputError("copula entropy needs at least 2 columns")
    return knn_entropy(empirical_copula(x, cfg), cfg)
