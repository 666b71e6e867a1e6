"""Per-layer tracing of cesurv, installed from outside the package.

``Tracer.install`` replaces the public functions of each cesurv module, in
every cesurv module that looks them up, with wrappers that record spans
(name, start, end, parent span, op id) or, for functions called once per
row, a call count and a total time.  Spans stay in memory until ``write``.
A name that no longer exists is recorded as a layer that was not called.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import warnings
from collections import defaultdict

# (layer, defining module, attribute path, recorded as)
LAYERS = (
    ("cli.reproduce_paper", "cesurv.cli", "_cmd_reproduce_paper", "span"),
    ("experiment.run_experiment", "cesurv.experiment", "run_experiment", "span"),
    ("experiment.report_write", "cesurv.experiment", "ExperimentReport.to_json", "span"),
    ("experiment.report_write", "cesurv.experiment", "write_ranking_table", "span"),
    ("experiment.report_write", "cesurv.experiment", "write_performance_table", "span"),
    ("survsim.simulate", "cesurv.survsim", "simulate", "span"),
    ("dataio.load", "cesurv.dataio", "load_dataset", "span"),
    ("dataio.save", "cesurv.dataio", "save_dataset", "span"),
    ("varselect.rank", "cesurv.varselect", "rank_variables", "span"),
    ("copula_entropy.empirical_copula", "cesurv.copula_entropy", "empirical_copula", "span"),
    ("copula_entropy.knn_entropy", "cesurv.copula_entropy", "knn_entropy", "span"),
    ("aft.fit", "cesurv.aft", "fit", "span"),
    ("aft.predict", "cesurv.aft", "predict_median", "count"),
    ("metrics.c_index", "cesurv.metrics", "c_index", "span"),
    ("metrics.mae", "cesurv.metrics", "mae", "span"),
)

# Layers whose self time (span minus the spans and counted calls inside it)
# is reported as <module>.self_s.
SELF_TIME_LAYERS = ("experiment.run_experiment", "varselect.rank")

# Work counters kept by `_tally` and `Tracer._fit_counting_warnings`.
COUNTERS = ("metrics.c_index_pairs", "aft.newton_iterations", "aft.fits_converged",
            "aft.runtime_warnings", "copula_entropy.knn_rows", "dataio.load_rows",
            "dataio.load_bytes", "dataio.save_bytes")


def _file_size(path):
    return os.path.getsize(os.fspath(path))


def _tally(counts, layer, args, result):
    """Work counters read from a traced call's arguments and result."""
    if layer == "metrics.c_index":
        counts["metrics.c_index_pairs"] += result[1]
    elif layer == "aft.fit":
        counts["aft.newton_iterations"] += result.iterations
        counts["aft.fits_converged"] += bool(result.converged)
    elif layer == "copula_entropy.knn_entropy":
        counts["copula_entropy.knn_rows"] += len(args[0])
    elif layer == "dataio.load":
        counts["dataio.load_rows"] += result.n_rows
        counts["dataio.load_bytes"] += _file_size(args[0].path)
    elif layer == "dataio.save":
        counts["dataio.save_bytes"] += _file_size(args[1])


class Tracer:
    """Spans and counters of the ops run while ``op`` is set."""

    def __init__(self):
        self.op = None
        self.spans = []  # [layer, start, end, parent index, op, counted child time]
        self.stack = []
        self.counts = defaultdict(float)
        self.missing = []  # (layer, dotted name) not found at install time
        self.layers = ()

    def install(self, layers=LAYERS):
        self.layers = layers
        originals = {}
        for layer, module_name, path, kind in layers:
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ModuleNotFoundError, AttributeError):
                self.missing.append((layer, f"{module_name}.{path}"))
                continue
            wrapper = (self._span if kind == "span" else self._count)(layer, original)
            originals[id(original)] = wrapper
            setattr(owner, attr, wrapper)
        # Rebind the names other modules imported with `from .x import f`.
        for name, module in list(sys.modules.items()):
            if name == "cesurv" or name.startswith("cesurv."):
                for attr, value in list(vars(module).items()):
                    if id(value) in originals:
                        setattr(module, attr, originals[id(value)])

    def _span(self, layer, fn):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            record = [layer, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.op, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                if layer == "aft.fit":
                    result = self._fit_counting_warnings(fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            _tally(self.counts, layer, args, result)
            return result
        return traced

    def _fit_counting_warnings(self, fn, args, kwargs):
        # RuntimeWarnings are counted, then shown as usual: never silenced,
        # never turned into errors.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                self.counts["aft.runtime_warnings"] += 1
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        return result

    def _count(self, layer, fn):
        def counted(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            self.counts[f"{layer}_s"] += elapsed
            self.counts[f"{layer}_calls"] += 1
            if self.stack:
                self.spans[self.stack[-1]][5] += elapsed
            return result
        return counted

    def layer_totals(self, n_ops):
        """Per-op totals: <layer>_s, <layer>_calls, counters and self times.

        A layer that was not called, or whose name was not found, reads 0.
        """
        out = dict.fromkeys(COUNTERS, 0.0)
        for layer, *_ in self.layers:
            out[f"{layer}_s"] = out[f"{layer}_calls"] = 0.0
        for layer in SELF_TIME_LAYERS:
            out[f"{layer.split('.')[0]}.self_s"] = 0.0
        child_time = [span[5] for span in self.spans]
        for layer, start, end, parent, _, _ in self.spans:
            out[f"{layer}_s"] += end - start
            out[f"{layer}_calls"] += 1
            if parent is not None:
                child_time[parent] += end - start
        for (layer, start, end, *_), inner in zip(self.spans, child_time):
            if layer in SELF_TIME_LAYERS:
                out[f"{layer.split('.')[0]}.self_s"] += end - start - inner
        for name, value in self.counts.items():
            out[name] = out.get(name, 0.0) + value
        return {name: value / n_ops for name, value in out.items()}

    def write(self, path, t0):
        """Spans as JSON lines, times in seconds from ``t0``; counters last."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, start, end, parent, op, counted) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": layer, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op, "counted_child_s": counted}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "not_called": [name for _, name in self.missing]}) + "\n")
