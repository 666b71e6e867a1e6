"""Command-line interface.

Subcommands: simulate, select, fit, evaluate, run-experiment and
reproduce-paper (simulation plus both bundled benchmark datasets).
Exit codes: 0 success, 2 invalid input or unusable path, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .aft import AFTModel, fit
from .copula_entropy import EstimatorConfig
from .dataio import DatasetSpec, bundled_dataset_spec, save_dataset
from .errors import CesurvError, InvalidInputError, NumericalError
from .experiment import (dataset_from_source, evaluate, run_experiment, write_performance_table,
                         write_ranking_table)
from .survsim import SimConfig, simulate
from .varselect import rank_variables, select_variables

EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3


def _add_estimator_flags(p):
    p.add_argument("--k", type=int, default=3, help="neighbor count (default 3)")
    p.add_argument("--seed", type=int, default=0,
                   help="simulation seed and tie-break seed (default 0)")


def _add_dataset_flags(p):
    p.add_argument("--data", help="dataset file (delimited text with header)")
    p.add_argument("--time-col", help="time column of a --data file (default time)")
    p.add_argument("--status-col", help="status column of a --data file (default status)")
    p.add_argument("--event-value", help="status value meaning an event in a --data file (default 1)")
    p.add_argument("--covariates", help="comma-separated covariates of a --data file (default: every "
                   "remaining numeric column); for fit, the model's covariates")
    p.add_argument("--bundled", choices=("cancer", "veteran"),
                   help="use a bundled benchmark dataset instead of --data")
    p.add_argument("--dataset-spec", help="JSON file with DatasetSpec fields")
    p.add_argument("--sim-config", help="JSON file with simulation settings")


def _estimator_cfg(args) -> EstimatorConfig:
    return EstimatorConfig(k=args.k, jitter_seed=args.seed)


def _read_object(path) -> dict:
    """The JSON object a settings or model file holds."""
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except ValueError as e:  # not UTF-8, not JSON, or an integer too long to read
        raise InvalidInputError(f"{path}: cannot be read as JSON ({e})") from e
    if not isinstance(d, dict):
        raise InvalidInputError(f"{path}: expected a JSON object, got {type(d).__name__}")
    return d


def _sim_config(args) -> SimConfig:
    """--sim-config (or the defaults), with --seed as default and --n as override."""
    d = _read_object(args.sim_config) if args.sim_config else {}
    d.setdefault("seed", args.seed)
    if getattr(args, "n", None) is not None:
        d["n_subjects"] = args.n
    return SimConfig.from_dict(d)


def _source_from_args(args):
    given = [s for s in ("data", "bundled", "dataset_spec", "sim_config")
             if getattr(args, s, None)]
    if len(given) != 1:
        raise InvalidInputError(
            "specify exactly one of --data, --bundled, --dataset-spec or --sim-config"
        )
    if args.data:
        cov = tuple(args.covariates.split(",")) if args.covariates else None
        spec = {"time_col": args.time_col, "status_col": args.status_col,
                "covariate_cols": cov, "status_event_value": args.event_value}
        return DatasetSpec(path=args.data, **{k: v for k, v in spec.items() if v is not None})
    flags = {"--time-col": args.time_col, "--status-col": args.status_col,
             "--event-value": args.event_value}
    if args.command != "fit":  # fit takes its model's covariates from --covariates
        flags["--covariates"] = args.covariates
    stray = [flag for flag, value in flags.items() if value is not None]
    if stray:
        source = "--" + given[0].replace("_", "-")
        raise InvalidInputError(f"{stray[0]} applies only to a --data file, not to {source}")
    if args.bundled:
        return bundled_dataset_spec(args.bundled)
    if args.dataset_spec:
        return DatasetSpec.from_dict(_read_object(args.dataset_spec))
    return _sim_config(args)


def _write_text(path, text):
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_simulate(args):
    cfg = _sim_config(args)
    if not args.out:
        raise InvalidInputError("simulate requires --out FILE for the dataset")
    ds = simulate(cfg)
    save_dataset(ds, args.out)
    print(f"wrote {ds.n_rows} rows ({ds.n_events} events) to {args.out}")
    return 0


def _cmd_select(args):
    cfg = _estimator_cfg(args)
    ds = dataset_from_source(_source_from_args(args))
    ranking = rank_variables(ds, with_status=args.with_status, cfg=cfg)
    result = {"estimator_cfg": cfg.to_dict(), "ranking": ranking.to_dict()}
    if args.top is not None:
        result["selected"] = select_variables(ranking, top_m=args.top)
    _write_text(args.out, json.dumps(result, indent=2) + "\n")
    if args.plot_data:
        write_ranking_table(ranking, args.plot_data)
    return 0


def _cmd_fit(args):
    ds = dataset_from_source(_source_from_args(args))
    included = args.covariates.split(",") if args.covariates else list(ds.names)
    model = fit(ds, included)
    _write_text(args.out, json.dumps({"model": model.to_dict()}, indent=2) + "\n")
    return 0


def _cmd_evaluate(args):
    ds = dataset_from_source(_source_from_args(args))
    payload = _read_object(args.model)
    if "model" not in payload:
        raise InvalidInputError(f"{args.model}: no \"model\" entry")
    report = evaluate(AFTModel.from_dict(payload["model"]), ds, args.label)
    _write_text(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def _cmd_run_experiment(args):
    cfg = _estimator_cfg(args)
    report = run_experiment(_source_from_args(args), estimator_cfg=cfg,
                            with_status=args.with_status, top_m=args.top)
    _write_text(args.out, report.to_json())
    if args.plot_data:
        write_ranking_table(report.ranking, f"{args.plot_data}.ranking.csv", report.ranking_with_status)
        write_performance_table(report, f"{args.plot_data}.performance.csv")
    return 0


def _cmd_reproduce_paper(args):
    cfg = _estimator_cfg(args)
    outdir = Path(args.out or "paper_outputs")
    outdir.mkdir(parents=True, exist_ok=True)
    runs = [
        ("simulation", SimConfig(seed=args.seed), dict(include_status_ranking=True)),
        ("cancer", bundled_dataset_spec("cancer"), {}),
        ("veteran", bundled_dataset_spec("veteran"), {}),
    ]
    for name, source, extra in runs:
        report = run_experiment(source, estimator_cfg=cfg, top_m=4, **extra)
        (outdir / f"{name}_report.json").write_text(report.to_json(), encoding="utf-8")
        write_ranking_table(report.ranking, outdir / f"{name}_ranking.csv", report.ranking_with_status)
        write_performance_table(report, outdir / f"{name}_performance.csv")
        print(f"{name}: selected {report.selected}")
        for ev in report.evaluations:
            print(f"  {ev.model_label:12s} mae {ev.mae:10.3f}  c-index {ev.c_index:.4f}")
    print(f"reports and plot data written to {outdir}/")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesurv",
        description="Copula-entropy variable selection and Weibull AFT "
                    "modelling for right-censored survival data",
    )
    parser.add_argument("--version", action="version", version=f"cesurv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a simulated dataset file")
    p.add_argument("--sim-config", help="JSON file with simulation settings")
    p.add_argument("--n", type=int, help="override subject count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output dataset file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("select", help="rank covariates by copula entropy")
    _add_dataset_flags(p)
    _add_estimator_flags(p)
    p.add_argument("--with-status", action="store_true",
                   help="include the censoring indicator in the CE estimate")
    p.add_argument("--top", type=int, help="also report the top-m selection")
    p.add_argument("--out", help="write the ranking report JSON here")
    p.add_argument("--plot-data", help="write a (name, ce) table here")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("fit", help="fit a Weibull AFT regression")
    _add_dataset_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the fitted model JSON here")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("evaluate", help="evaluate a fitted model on a dataset")
    _add_dataset_flags(p)
    p.add_argument("--model", required=True, help="model JSON from `cesurv fit`")
    p.add_argument("--label", default="model", help="model label for the report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the evaluation JSON here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run-experiment", help="selection + AFT fits + metrics")
    _add_dataset_flags(p)
    _add_estimator_flags(p)
    p.add_argument("--with-status", action="store_true")
    p.add_argument("--top", type=int, required=True, help="select the top-m covariates")
    p.add_argument("--out", help="write the experiment report JSON here")
    p.add_argument("--plot-data", help="prefix for plot-data tables")
    p.set_defaults(func=_cmd_run_experiment)

    p = sub.add_parser("reproduce-paper",
                       help="run the simulation and both bundled datasets")
    _add_estimator_flags(p)
    p.add_argument("--out", help="output directory (default paper_outputs)")
    p.set_defaults(func=_cmd_reproduce_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CesurvError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(e, NumericalError) else EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
