"""Rank covariates by copula entropy against the observed time-to-event.

Each covariate is scored by the estimated copula entropy of the pair
(time, covariate), optionally of the triple (time, status, covariate) so
that censoring information enters the dependence measure.  Lower (more
negative) values indicate stronger dependence, so rank 1 is the most
informative covariate.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass

import numpy as np

from .copula_entropy import EstimatorConfig, _unit_cube_entropies, empirical_copula
from .errors import InvalidInputError, _is_integer
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

    def names(self) -> list:
        return [e.name for e in self.entries]

    def to_dict(self) -> dict:
        return {"with_status": self.with_status, "entries": [asdict(e) for e in self.entries]}


def rank_variables(
    ds: SurvivalDataset,
    with_status: bool = False,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> VariableRanking:
    """Score every covariate by CE with (time[, status]) and sort ascending.

    Ties in CE keep the covariates' input column order.  Constant columns are
    flagged; the tie-break draws turn them into independent noise so they
    score near zero rather than erroring.
    """
    return _rank(ds, (with_status,), cfg)[0]


def _rank(ds: SurvivalDataset, with_status: tuple, cfg: EstimatorConfig) -> list:
    """``rank_variables(ds, s, cfg)`` for each s in ``with_status``, in one pass.

    The empirical copula is computed column by column, so each score equals
    copula_entropy(column_stack(base + [covariate]), cfg) with base (time[,
    status]).  Each base's copula is written once into the first columns of
    one matrix per ranking, and each covariate's copula, computed once,
    overwrites the last column of every matrix before their kNN jobs run,
    in the order of ``with_status``.
    No copula is held past its copy into the matrices, so the scratch
    memory of a search is the same as with one ranking.
    """
    d = ds.covariates.shape[1]
    if d == 0:
        raise InvalidInputError("dataset has no covariates to rank")
    if ds.n_rows <= cfg.k:
        raise InvalidInputError(f"need more than k={cfg.k} rows, got {ds.n_rows}")
    us = [np.empty((ds.n_rows, 3 if s else 2)) for s in with_status]
    for i, col in enumerate([ds.time, ds.status] if any(with_status) else [ds.time]):
        copula = empirical_copula(col, cfg)[:, 0]
        for u in us:
            if i < u.shape[1] - 1:  # only with-status matrices have a status column
                u[:, i] = copula
        del copula

    def samples():
        for j in range(d):
            copula = empirical_copula(ds.covariates[:, j], cfg)[:, 0]
            for u in us:
                u[:, -1] = copula
            del copula
            yield from us

    ces = np.array(_unit_cube_entropies(samples(), ds.n_rows, cfg)).reshape(d, len(us))
    constant = [bool(np.all(col == col[0])) for col in ds.covariates.T]
    rankings = []
    for s, ce in zip(with_status, ces.T):
        order = np.argsort(ce, kind="stable")
        entries = tuple(
            RankingEntry(name=ds.names[j], ce=float(ce[j]), rank=pos + 1, constant=constant[j])
            for pos, j in enumerate(order)
        )
        rankings.append(VariableRanking(entries=entries, with_status=s))
    return rankings


def select_variables(ranking: VariableRanking, top_m: int = None, threshold: float = None) -> list:
    """Pick covariate names from a ranking, preserving ranking order.

    Exactly one policy applies: the ``top_m`` smallest-CE entries, or every
    entry with CE strictly below ``threshold`` (possibly none), an integer
    or float within the range of finite floats.
    """
    if (top_m is None) == (threshold is None):
        raise InvalidInputError("specify exactly one of top_m or threshold")
    if top_m is not None:
        if not _is_integer(top_m) or not 0 <= top_m <= len(ranking.entries):
            raise InvalidInputError(
                f"top_m must be an integer between 0 and {len(ranking.entries)}, got {top_m!r}"
            )
        return [e.name for e in ranking.entries[:top_m]]
    if _is_integer(threshold):
        real = abs(int(threshold)) <= sys.float_info.max
    else:
        real = isinstance(threshold, (float, np.floating)) and np.isfinite(threshold)
    if not real:
        raise InvalidInputError(f"threshold must be a finite number, got {threshold!r}")
    return [e.name for e in ranking.entries if e.ce < threshold]
