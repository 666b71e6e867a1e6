"""Rank covariates by copula entropy against the observed time-to-event.

Each covariate is scored by the estimated copula entropy of the pair
(time, covariate), optionally of the triple (time, status, covariate) so
that censoring information enters the dependence measure.  Lower (more
negative) values indicate stronger dependence, so rank 1 is the most
informative covariate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copula_entropy import EstimatorConfig, empirical_copula, knn_entropy
from .errors import InvalidInputError
from .survsim import SurvivalDataset

__all__ = ["RankingEntry", "VariableRanking", "rank_variables", "select_variables"]


@dataclass(frozen=True)
class RankingEntry:
    name: str
    ce: float
    rank: int
    constant: bool = False


@dataclass(frozen=True)
class VariableRanking:
    """Covariate scores sorted ascending by CE (rank 1 = most negative)."""

    entries: tuple
    with_status: bool
    estimator_cfg: EstimatorConfig

    def names(self) -> list:
        return [e.name for e in self.entries]

    def to_dict(self) -> dict:
        return {
            "with_status": self.with_status,
            "entries": [
                {"name": e.name, "ce": e.ce, "rank": e.rank, "constant": e.constant}
                for e in self.entries
            ],
        }


def rank_variables(
    ds: SurvivalDataset,
    with_status: bool = False,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> VariableRanking:
    """Score every covariate by CE with (time[, status]) and sort ascending.

    Ties in CE keep the covariates' input column order.  Constant columns are
    flagged; the tie-break jitter turns them into independent noise so they
    score near zero rather than erroring.
    """
    d = ds.covariates.shape[1]
    if d == 0:
        raise InvalidInputError("dataset has no covariates to rank")
    if ds.n_rows <= cfg.k:
        raise InvalidInputError(f"need more than k={cfg.k} rows, got {ds.n_rows}")
    base = [ds.time, ds.status] if with_status else [ds.time]
    # The empirical copula is computed column by column, so the copula of
    # (time[, status]) is shared by every covariate's score: each score
    # equals copula_entropy(column_stack(base + [covariate]), cfg).  It is
    # written once into the first columns of u, and each covariate's copula
    # overwrites the last.
    u = np.empty((ds.n_rows, len(base) + 1))
    for i, col in enumerate(base):
        u[:, i] = empirical_copula(col, cfg)[:, 0]
    ces = np.empty(d)
    constant = np.zeros(d, dtype=bool)
    for j in range(d):
        col = ds.covariates[:, j]
        constant[j] = bool(np.all(col == col[0]))
        u[:, -1] = empirical_copula(col, cfg)[:, 0]
        ces[j] = knn_entropy(u, cfg, unit_support=True)
    order = np.argsort(ces, kind="stable")
    entries = tuple(
        RankingEntry(name=ds.names[j], ce=float(ces[j]), rank=pos + 1, constant=bool(constant[j]))
        for pos, j in enumerate(order)
    )
    return VariableRanking(entries=entries, with_status=with_status, estimator_cfg=cfg)


def select_variables(ranking: VariableRanking, top_m: int = None, threshold: float = None) -> list:
    """Pick covariate names from a ranking, preserving ranking order.

    Exactly one policy applies: the ``top_m`` smallest-CE entries, or every
    entry with CE strictly below ``threshold`` (possibly none).
    """
    if (top_m is None) == (threshold is None):
        raise InvalidInputError("specify exactly one of top_m or threshold")
    if top_m is not None:
        if not 0 <= top_m <= len(ranking.entries):
            raise InvalidInputError(
                f"top_m must be between 0 and {len(ranking.entries)}, got {top_m}"
            )
        return [e.name for e in ranking.entries[:top_m]]
    if not np.isfinite(threshold):
        raise InvalidInputError(f"threshold must be finite, got {threshold}")
    return [e.name for e in ranking.entries if e.ce < threshold]
