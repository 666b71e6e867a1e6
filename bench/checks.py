"""Correctness checks for the benchmark, written apart from the cesurv code.

Each check recomputes a result by a different route than the package, or
tests a property the method must have, and raises ``CheckError`` when the
program's output disagrees.  None of them compares against a stored copy of
an earlier output.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

MISSING = ("", "NA")

# Half-width of the band in which a zero-effect covariate's CE must fall:
# NULL_BAND_COEF / sqrt(n) nats.  Under independence the estimator's bias
# plus six standard deviations stays inside it at 10^4 and 10^5 rows
# (README, "Null band"; `python3 bench/null_band.py` measures it again).
NULL_BAND_COEF = 6.0

# Finite-difference gradient of the log-likelihood, per row, above which a
# fitted parameter vector is not a stationary point.
STATIONARY_TOL = 1e-6

_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
_CREATED_AT = re.compile(rb'^\s*"created_at": .*\n', re.MULTILINE)


class CheckError(Exception):
    """An output of the program failed a benchmark check."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


def predict(x, intercept, coefficients, scale):
    """Conditional Weibull medians exp(eta) * ln(2)**sigma, one per row."""
    ln2_sigma = math.log(2.0) ** scale
    return np.array([
        math.exp(math.fsum([intercept, *(v * b for v, b in zip(row, coefficients))])) * ln2_sigma
        for row in np.asarray(x, dtype=float).tolist()
    ])


def c_index(pred, time, status):
    """Harrell's C and its comparable-pair count, by an O(n log n) sweep.

    Rows are visited in decreasing time; a Fenwick tree over prediction
    ranks counts, for each event, the rows already visited (strictly later
    times) with a larger or an equal prediction.
    """
    pred = np.asarray(pred, dtype=float)
    rank = (np.unique(pred, return_inverse=True)[1] + 1).tolist()
    time = np.asarray(time, dtype=float).tolist()
    status = [bool(s) for s in np.asarray(status).tolist()]
    order = sorted(range(len(time)), key=time.__getitem__, reverse=True)
    tree = [0] * (max(rank) + 1)

    def at_most(r):
        total = 0
        while r > 0:
            total += tree[r]
            r -= r & -r
        return total

    seen = concordant = tied = pairs = 0
    start = 0
    while start < len(order):
        stop = start
        while stop < len(order) and time[order[stop]] == time[order[start]]:
            stop += 1
        block = order[start:stop]
        for i in block:
            if status[i]:
                le, lt = at_most(rank[i]), at_most(rank[i] - 1)
                concordant += seen - le
                tied += le - lt
                pairs += seen
        for i in block:
            r = rank[i]
            while r < len(tree):
                tree[r] += 1
                r += r & -r
        seen += len(block)
        start = stop
    require(pairs > 0, "no comparable pairs")
    return (concordant + 0.5 * tied) / pairs, pairs


def mae(pred, time, status):
    events = np.asarray(status).astype(bool)
    err = np.abs(np.asarray(pred, dtype=float)[events] - np.asarray(time, dtype=float)[events])
    return math.fsum(err.tolist()) / int(events.sum()), int(events.sum())


def check_evaluation(evaluation, pred, time, status):
    """The reported C-index, pair count and MAE match the recomputed ones."""
    label = evaluation["model_label"]
    c, pairs = c_index(pred, time, status)
    require(evaluation["n_comparable_pairs"] == pairs,
            f"{label}: {evaluation['n_comparable_pairs']} comparable pairs reported, {pairs} counted")
    require(abs(evaluation["c_index"] - c) <= 1e-12,
            f"{label}: C-index {evaluation['c_index']!r} reported, {c!r} recomputed")
    m, n_events = mae(pred, time, status)
    require(evaluation["n_events_used"] == n_events, f"{label}: event count differs")
    require(math.isclose(evaluation["mae"], m, rel_tol=1e-9),
            f"{label}: MAE {evaluation['mae']!r} reported, {m!r} recomputed")


def weibull_loglik(params, x, time, status):
    """Censored Weibull log-likelihood from the density and survival function.

    Shape k = 1/sigma and scale lambda = exp(b0 + x.beta): an event adds
    log f(t) = log k - log lambda + (k - 1) log(t / lambda) - (t / lambda)**k,
    a censored row adds log S(t) = -(t / lambda)**k.
    """
    b0, beta, log_sigma = params[0], np.asarray(params[1:-1]), params[-1]
    k = math.exp(-log_sigma)
    log_lam = b0 + x @ beta
    log_ratio = np.log(time) - log_lam
    cum_hazard = np.exp(k * log_ratio)
    log_f = math.log(k) - log_lam + (k - 1.0) * log_ratio - cum_hazard
    return math.fsum(np.where(status == 1, log_f, -cum_hazard).tolist())


def check_stationary(model, x, time, status):
    """The fitted parameters zero the central-difference gradient.

    Each coefficient is stepped, and its derivative scaled, by the largest
    magnitude of its covariate, so that every step moves the linear
    predictor by at most the same amount whatever the covariate's units.
    """
    params = np.array([model["intercept"], *model["coefficients"], model["log_scale"]])
    x = np.asarray(x, dtype=float)
    time = np.asarray(time, dtype=float)
    status = np.asarray(status)
    units = np.concatenate([[1.0], np.maximum(np.abs(x).max(axis=0), 1.0), [1.0]])
    worst = 0.0
    for j in range(len(params)):
        h = 1e-5 / units[j]
        up, down = params.copy(), params.copy()
        up[j] += h
        down[j] -= h
        g = (weibull_loglik(up, x, time, status) - weibull_loglik(down, x, time, status)) / (2 * h)
        worst = max(worst, abs(g) / units[j] / len(time))
    require(worst <= STATIONARY_TOL,
            f"model over {model['included']}: log-likelihood gradient {worst:.3g} per row "
            f"at the fitted parameters (limit {STATIONARY_TOL})")


def check_ranking(ranking, names):
    """A ranking is a permutation of the covariates sorted by CE, ranks 1..d."""
    entries = ranking["entries"]
    got = [e["name"] for e in entries]
    require(sorted(got) == sorted(names), f"ranking names {got} are not a permutation of {names}")
    ces = [e["ce"] for e in entries]
    require(all(math.isfinite(c) for c in ces), f"non-finite CE in {ces}")
    require(ces == sorted(ces), f"ranking {got} is not sorted by CE {ces}")
    require([e["rank"] for e in entries] == list(range(1, len(entries) + 1)), "ranks are not 1..d")


def check_signal(ranking, n_rows, null_value, strong=("x1", "x2", "x4"), null=("x3",)):
    """Strong covariates fill the top places; zero-effect ones lie in the null band."""
    order = [e["name"] for e in ranking["entries"]]
    require(set(order[:len(strong)]) == set(strong),
            f"top {len(strong)} are {order[:len(strong)]}, expected {sorted(strong)}")
    band = NULL_BAND_COEF / math.sqrt(n_rows)
    ce = {e["name"]: e["ce"] for e in ranking["entries"]}
    for name in null:
        require(abs(ce[name] - null_value) <= band,
                f"zero-effect {name}: CE {ce[name]:.4f} outside {null_value:.4f} +- {band:.4f}")


def check_plot_numbers(table_text, report_text):
    """Every number in a plot table appears verbatim in its report."""
    in_report = set(_NUMBER.findall(report_text))
    for line in table_text.splitlines()[1:]:
        for token in line.split(",")[1:]:
            require(token in in_report, f"plot-table value {token} does not appear in the report")


def report_body(raw: bytes) -> bytes:
    """A report with its created_at line removed."""
    return _CREATED_AT.sub(b"", raw)


def check_same_bodies(first: dict, other: dict):
    """Two ops wrote byte-identical outputs apart from created_at."""
    require(sorted(first) == sorted(other), f"output files differ: {sorted(first)} vs {sorted(other)}")
    for name in first:
        require(report_body(first[name]) == report_body(other[name]), f"{name} differs between ops")


def check_roundtrip(written, loaded):
    """A dataset read back holds exactly the arrays that were written."""
    require(list(loaded.names) == list(written.names), f"names {loaded.names} != {written.names}")
    for field in ("covariates", "time", "status"):
        a, b = getattr(written, field), getattr(loaded, field)
        require(a.shape == b.shape, f"{field}: shape {b.shape} read back, {a.shape} written")
        require(np.array_equal(a, b), f"{field}: values read back differ from those written")


def read_complete_cases(path, screen):
    """All rows of a delimited table, and those with no missing value in ``screen``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    kept = [r for r in rows if all(r[c].strip() not in MISSING for c in screen)]
    return rows, kept


def column(rows, name):
    """Numbers of one column; text values coded 1, 2, ... by first appearance."""
    tokens = [r[name].strip() for r in rows]
    try:
        return np.array([float(t) for t in tokens])
    except ValueError:
        codes = {}
        return np.array([float(codes.setdefault(t, len(codes) + 1)) for t in tokens])
