"""End-to-end experiment pipeline and report assembly.

One call runs: load or simulate -> rank covariates by CE -> select -> fit a
full-covariate AFT model and a CE-selected AFT model -> predict on the same
data -> MAE and C-index per model -> structured report.  Reports serialize
to JSON deterministically (identical inputs and seeds give byte-identical
bodies apart from the timestamp field).
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .aft import AFTModel, _design, fit, predict_median
from .copula_entropy import EstimatorConfig
from .dataio import DatasetSpec, load_dataset
from .errors import CesurvError, InvalidInputError
from .metrics import EvalReport, c_index, mae
from .survsim import SimConfig, SurvivalDataset, simulate
from .varselect import VariableRanking, _rank, select_variables

__all__ = [
    "ExperimentReport",
    "dataset_from_source",
    "evaluate",
    "run_experiment",
    "write_ranking_table",
    "write_performance_table",
]

FULL_MODEL_LABEL = "full"
SELECTED_MODEL_LABEL = "ce_selected"

# Estimation and evaluation conventions that a reader needs to reproduce the
# numbers; embedded verbatim in every report.
_CONVENTIONS = {
    "rank_normalization": "rank/N",
    "tie_break": "draws per column from a stream keyed on jitter_seed and the column's tie pattern; rows ranked by (value, draw)",
    "point_prediction": "conditional median",
    "mae_rule": "events only",
    "c_index_ties": "prediction ties weight 0.5; tied times not comparable",
    "ce_sign": "copula entropy (non-positive); smaller = stronger dependence",
}


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one pipeline run produced, ready for serialization."""

    estimator_cfg: EstimatorConfig
    ranking: VariableRanking
    selected: list
    selection_policy: dict
    models: list  # (label, AFTModel) pairs
    evaluations: list  # EvalReport per model
    dataset_summary: dict
    provenance: dict
    ranking_with_status: VariableRanking = None

    def to_dict(self, timestamp: str = None) -> dict:
        out = {
            "tool": {"name": "cesurv", "version": __version__},
            "created_at": timestamp or datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "provenance": self.provenance,
            "conventions": dict(_CONVENTIONS),
            "estimator_cfg": self.estimator_cfg.to_dict(),
            "dataset": self.dataset_summary,
            "ranking": self.ranking.to_dict(),
            "selection_policy": self.selection_policy,
            "selected": list(self.selected),
            "models": [
                {"label": label, **model.to_dict()} for label, model in self.models
            ],
            "evaluations": [ev.to_dict() for ev in self.evaluations],
        }
        if self.ranking_with_status is not None:
            out["ranking_with_status"] = self.ranking_with_status.to_dict()
        return out

    def to_json(self, timestamp: str = None) -> str:
        return json.dumps(self.to_dict(timestamp=timestamp), indent=2) + "\n"


@contextlib.contextmanager
def _stage(name):
    """Tag errors escaping a pipeline stage with the stage name."""
    try:
        yield
    except CesurvError as exc:
        if exc.args:
            exc.args = (f"[{name}] {exc.args[0]}",) + exc.args[1:]
        raise


def dataset_from_source(source) -> SurvivalDataset:
    """Simulate a SimConfig, load a DatasetSpec or pass a SurvivalDataset through."""
    return source if isinstance(source, SurvivalDataset) else _resolve(source)[0]


def _resolve(source) -> tuple:
    """The dataset of a source, and the input digest and source description of its report."""
    if isinstance(source, SimConfig):
        cfg = source.to_dict()
        return simulate(source), {
            "input_sha256": hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
            "sim_seed": source.seed, "source": {"kind": "simulation", "sim_config": cfg}}
    if isinstance(source, DatasetSpec):
        ds = load_dataset(source)
        return ds, {"input_sha256": ds.attrs["source_sha256"],
                    "source": {"kind": "file", "dataset_spec": source.to_dict()}}
    if isinstance(source, SurvivalDataset):
        arrays = (source.covariates, source.time, source.status)
        digest = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))
        return source, {"input_sha256": digest.hexdigest(), "source": {"kind": "in-memory"}}
    raise InvalidInputError(
        f"experiment source must be SimConfig, DatasetSpec or SurvivalDataset, "
        f"got {type(source).__name__}"
    )


def evaluate(model: AFTModel, ds: SurvivalDataset, label: str) -> EvalReport:
    """MAE and C-index of the model's conditional medians on ``ds``."""
    pred = predict_median(model, _design(ds, model.included))
    mae_val, n_events = mae(pred, ds.time, ds.status)
    c_val, n_pairs = c_index(pred, ds.time, ds.status)
    return EvalReport(
        model_label=label, mae=mae_val, c_index=c_val,
        n_comparable_pairs=n_pairs, n_events_used=n_events,
    )


def run_experiment(
    source,
    estimator_cfg: EstimatorConfig = EstimatorConfig(),
    with_status: bool = False,
    top_m: int = None,
    threshold: float = None,
    include_status_ranking: bool = False,
) -> ExperimentReport:
    """Run the full selection + regression + evaluation pipeline.

    ``source`` is a SimConfig (simulate), DatasetSpec (load a file) or an
    in-memory SurvivalDataset.  Selection uses ``top_m`` or ``threshold``.
    ``with_status`` ranks each covariate by the CE of (time, status,
    covariate) instead of (time, covariate), and selects from that ranking.
    ``include_status_ranking`` also reports the with-status ranking as
    ``ranking_with_status``; it is ignored when ``with_status`` is true,
    since the selection ranking is then already the with-status one.
    """
    with _stage("simulate" if isinstance(source, SimConfig) else "load"):
        ds, provenance = _resolve(source)

    with _stage("rank"):
        # With both rankings, the slower with-status search of each covariate
        # starts first, so the pass ends on a short search.
        both = include_status_ranking and not with_status
        rankings = _rank(ds, (True, False) if both else (with_status,), estimator_cfg)
        ranking, ranking2 = rankings[-1], rankings[0] if both else None
    with _stage("select"):
        selected = select_variables(ranking, top_m=top_m, threshold=threshold)
        policy = {"top_m": int(top_m)} if top_m is not None else {"threshold": float(threshold)}

    with _stage("fit"):
        models = [(FULL_MODEL_LABEL, fit(ds, list(ds.names))),
                  (SELECTED_MODEL_LABEL, fit(ds, selected))]

    with _stage("evaluate"):
        evaluations = [evaluate(model, ds, label) for label, model in models]

    summary = {
        "n_rows": ds.n_rows,
        "n_covariates": ds.covariates.shape[1],
        "n_events": ds.n_events,
        "names": list(ds.names),
    }
    for key in ("n_raw_rows", "n_dropped_rows", "categorical_maps", "source_path"):
        if key in ds.attrs:
            summary[key] = ds.attrs[key]

    return ExperimentReport(
        estimator_cfg=estimator_cfg,
        ranking=ranking,
        selected=selected,
        selection_policy=policy,
        models=models,
        evaluations=evaluations,
        dataset_summary=summary,
        provenance=provenance,
        ranking_with_status=ranking2,
    )


def _fmt(value) -> str:
    # repr matches json.dumps float formatting, so plot-data numbers appear
    # verbatim in the report.
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_table(path, header, rows) -> None:
    """One plot-data table; csv.writer quotes a name holding a comma or quote."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_ranking_table(ranking: VariableRanking, path, ranking_with_status: VariableRanking = None) -> None:
    """Bar-chart data: one (name, ce[, ce_with_status]) row per covariate, in rank order."""
    header = ["name", "ce"]
    rows = [[e.name, _fmt(e.ce)] for e in ranking.entries]
    if ranking_with_status:
        header.append("ce_with_status")
        by_name = {e.name: e for e in ranking_with_status.entries}
        for row in rows:
            row.append(_fmt(by_name[row[0]].ce))
    _write_table(path, header, rows)


def write_performance_table(report: ExperimentReport, path) -> None:
    """Bar-chart data: one (model_label, mae, c_index) row per model."""
    rows = [[ev.model_label, _fmt(ev.mae), _fmt(ev.c_index)] for ev in report.evaluations]
    _write_table(path, ["model_label", "mae", "c_index"], rows)
