"""End-to-end experiment pipeline and report assembly.

One call runs: load or simulate -> rank covariates by CE -> select -> fit a
full-covariate AFT model and a CE-selected AFT model -> predict on the same
data -> MAE and C-index per model -> structured report.  Reports serialize
to JSON deterministically (identical inputs and seeds give byte-identical
bodies apart from the timestamp field).
"""

from __future__ import annotations

import datetime
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .aft import AFTModel, fit, predict_median
from .copula_entropy import EstimatorConfig
from .dataio import DatasetSpec, load_dataset
from .errors import CesurvError, InvalidInputError
from .metrics import EvalReport, c_index, mae
from .survsim import SimConfig, SurvivalDataset, simulate
from .varselect import VariableRanking, rank_variables, select_variables

__all__ = [
    "ExperimentReport",
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
    "tie_break": "jitter drawn per column from a stream keyed on jitter_seed and the column's tie pattern; rows ranked by (value + jitter, draw)",
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


def _stage(name):
    """Tag errors escaping a pipeline stage with the stage name."""
    class _StageContext:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and isinstance(exc, CesurvError) and exc.args:
                exc.args = (f"[{name}] {exc.args[0]}",) + exc.args[1:]
            return False

    return _StageContext()


def _dataset_from_source(source, provenance):
    if isinstance(source, SimConfig):
        with _stage("simulate"):
            ds = simulate(source)
        cfg_json = json.dumps(source.to_dict(), sort_keys=True).encode()
        provenance["input_sha256"] = hashlib.sha256(cfg_json).hexdigest()
        provenance["sim_seed"] = source.seed
        provenance["source"] = {"kind": "simulation", "sim_config": source.to_dict()}
    elif isinstance(source, DatasetSpec):
        with _stage("load"):
            ds = load_dataset(source)
        provenance["input_sha256"] = ds.attrs["source_sha256"]
        provenance["source"] = {"kind": "file", "dataset_spec": source.to_dict()}
    elif isinstance(source, SurvivalDataset):
        ds = source
        provenance["input_sha256"] = hashlib.sha256(
            np.ascontiguousarray(ds.covariates).tobytes()
            + np.ascontiguousarray(ds.time).tobytes()
            + np.ascontiguousarray(ds.status).tobytes()
        ).hexdigest()
        provenance["source"] = {"kind": "in-memory"}
    else:
        raise InvalidInputError(
            f"experiment source must be SimConfig, DatasetSpec or SurvivalDataset, "
            f"got {type(source).__name__}"
        )
    return ds


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
    """
    provenance = {
        "tool_version": __version__,
        "jitter_seed": estimator_cfg.jitter_seed,
    }
    ds = _dataset_from_source(source, provenance)

    with _stage("rank"):
        ranking = rank_variables(ds, with_status=with_status, cfg=estimator_cfg)
        ranking2 = (
            rank_variables(ds, with_status=True, cfg=estimator_cfg)
            if include_status_ranking and not with_status
            else None
        )
    with _stage("select"):
        selected = select_variables(ranking, top_m=top_m, threshold=threshold)
        policy = {"top_m": top_m} if top_m is not None else {"threshold": threshold}

    models = []
    with _stage("fit"):
        models.append((FULL_MODEL_LABEL, fit(ds, list(ds.names))))
        models.append((SELECTED_MODEL_LABEL, fit(ds, selected)))

    evaluations = []
    with _stage("evaluate"):
        for label, model in models:
            cols = [ds.names.index(n) for n in model.included]
            pred = predict_median(model, ds.covariates[:, cols])
            mae_val, n_events = mae(pred, ds.time, ds.status)
            c_val, n_pairs = c_index(pred, ds.time, ds.status)
            evaluations.append(
                EvalReport(
                    model_label=label,
                    mae=mae_val,
                    c_index=c_val,
                    n_comparable_pairs=n_pairs,
                    n_events_used=n_events,
                )
            )

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


def write_ranking_table(report: ExperimentReport, path, delimiter: str = ",") -> None:
    """Bar-chart data: one (name, ce[, ce_with_status]) row per covariate."""
    second = report.ranking_with_status
    with open(path, "w", encoding="utf-8") as fh:
        header = ["name", "ce"] + (["ce_with_status"] if second else [])
        fh.write(delimiter.join(header) + "\n")
        by_name = {e.name: e for e in second.entries} if second else {}
        for e in report.ranking.entries:
            row = [e.name, _fmt(e.ce)]
            if second:
                row.append(_fmt(by_name[e.name].ce))
            fh.write(delimiter.join(row) + "\n")


def write_performance_table(report: ExperimentReport, path, delimiter: str = ",") -> None:
    """Bar-chart data: one (model_label, mae, c_index) row per model."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(delimiter.join(["model_label", "mae", "c_index"]) + "\n")
        for ev in report.evaluations:
            fh.write(
                delimiter.join([ev.model_label, _fmt(ev.mae), _fmt(ev.c_index)]) + "\n"
            )
