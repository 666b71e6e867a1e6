"""Prediction performance measures for censored survival data.

Two measures: mean absolute error over observed events, and Harrell's
concordance index with the usual conventions (pairs comparable when the
earlier time is an event; prediction ties count half).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError, UndefinedMetricError

__all__ = ["EvalReport", "c_index", "mae"]


@dataclass(frozen=True)
class EvalReport:
    """Evaluation summary for one fitted model on one dataset."""

    model_label: str
    mae: float
    c_index: float
    n_comparable_pairs: int
    n_events_used: int

    def to_dict(self) -> dict:
        return asdict(self)


def _check_vectors(pred, time, status):
    pred = np.asarray(pred, dtype=float)
    time = np.asarray(time, dtype=float)
    status = np.asarray(status)
    if not (len(pred) == len(time) == len(status)):
        raise InvalidInputError("pred, time and status must have equal length")
    if len(pred) < 2:
        raise InvalidInputError("need at least 2 observations")
    if not np.isfinite(pred).all() or not np.isfinite(time).all():
        raise InvalidInputError("predictions and times must be finite")
    if not np.isin(status, (0, 1)).all():
        raise InvalidInputError("status flags must be 0 or 1")
    return pred, time, status.astype(bool)


def _count_later_greater(rank: np.ndarray, query: np.ndarray) -> int:
    """Pairs p < q with query[p] and rank[p] < rank[q], by bottom-up merge levels.

    At the level with block size s, every left block [2bs, 2bs+s) meets its
    right sibling [2bs+s, 2bs+2s), and each pair p < q is counted at exactly
    the one level where p and q first fall in sibling blocks.  The right
    halves are sorted on the key block * m + rank, so one searchsorted per
    level counts, for every query row of a left half, the right-half rows
    of the same block with a larger rank.  O(n log^2 n) time, O(n) memory.
    """
    n = len(rank)
    m = int(rank.max()) + 1
    pos = np.arange(n)
    total = 0
    s = 1
    while s < n:
        block = pos // (2 * s)
        right = (pos & s) != 0
        keys = np.sort(block[right] * m + rank[right])
        left = ~right & query
        b = block[left]
        # Right-half rows in blocks 0..b: every earlier block is full.
        end = b * s + np.clip(n - (2 * b + 1) * s, 0, s)
        total += int((end - np.searchsorted(keys, b * m + rank[left], "right")).sum())
        s *= 2
    return total


def c_index(pred, time, status) -> tuple:
    """Harrell's concordance index; returns (c, number of comparable pairs).

    An ordered pair (i, j) is comparable iff time_i < time_j and subject i
    had the event.  Concordant predictions (pred_i < pred_j) score 1, ties
    score 0.5.  The pairs are counted exactly, as integers, from the time
    and prediction rankings in O(n log^2 n) time and O(n) memory without
    listing them; weights are halves so the score is exact in floating point.
    """
    pred, time, status = _check_vectors(pred, time, status)
    n = len(pred)
    _, time_rank, time_count = np.unique(time, return_inverse=True, return_counts=True)
    n_comparable = int((n - np.cumsum(time_count))[time_rank[status]].sum())  # strictly later rows
    if n_comparable == 0:
        raise UndefinedMetricError("no comparable pairs: C-index undefined")
    pred_rank = np.unique(pred, return_inverse=True)[1]
    # Tied predictions with a strictly later time: one sorted (pred, time) key.
    key = pred_rank * (n + 1) + time_rank
    sorted_key = np.sort(key)
    tied = int((
        np.searchsorted(sorted_key, pred_rank[status] * (n + 1) + n, "right")
        - np.searchsorted(sorted_key, key[status], "right")
    ).sum())
    # In (time ascending, pred descending) order a later row within a time
    # tie never has a larger prediction, so "later row, larger prediction"
    # is exactly "strictly later time, strictly larger prediction".
    order = np.argsort(time_rank * (n + 1) + (n - pred_rank), kind="stable")
    concordant = _count_later_greater(pred_rank[order], status[order])
    score = float(concordant) + 0.5 * float(tied)
    return score / n_comparable, n_comparable


def mae(pred, time, status) -> tuple:
    """Mean absolute error over events only; returns (mae, events used).

    Censored rows carry only a lower bound on the event time, so the
    absolute deviation is not an error measure for them and they are
    excluded.
    """
    pred, time, status = _check_vectors(pred, time, status)
    if not status.any():
        raise UndefinedMetricError("no observed events: MAE undefined")
    err = np.abs(pred[status] - time[status])
    return float(err.mean()), int(status.sum())
