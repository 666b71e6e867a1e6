"""Weibull accelerated failure time regression under right censoring.

The model is log t = intercept + x.beta + sigma * W with W standard minimum
Gumbel, fitted by maximizing the censored log-likelihood with a damped
Newton iteration (analytic gradient and Hessian, step halving for monotone
ascent).  The scale is optimized as log sigma so the problem is
unconstrained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NoEventsError, NonConvergenceError
from .survsim import SurvivalDataset

__all__ = ["AFTModel", "fit", "loglik_and_gradient", "predict_median"]

_GRAD_TOL = 1e-8
_MAX_ITER = 200
_MAX_HALVINGS = 40
_LOG_SIGMA_FLOOR = -5.0
# Largest change of log sigma tried in one Newton step (sigma moves by at
# most a factor e**5).  Far from the optimum Newton can propose log-sigma
# steps of several hundred, whose trial sigma underflows to zero; accepted
# steps on the simulations and bundled tables move log sigma by under 2.
_MAX_LOG_SIGMA_STEP = 5.0


@dataclass(frozen=True)
class AFTModel:
    """Fitted Weibull AFT regression; scale sigma = exp(log_scale)."""

    intercept: float
    coefficients: np.ndarray
    log_scale: float
    included: list
    converged: bool
    iterations: int
    final_gradient_norm: float

    @property
    def scale(self) -> float:
        return math.exp(self.log_scale)

    def to_dict(self) -> dict:
        return {
            "intercept": self.intercept,
            "coefficients": list(map(float, self.coefficients)),
            "log_scale": self.log_scale,
            "scale": self.scale,
            "included": list(self.included),
            "converged": self.converged,
            "iterations": self.iterations,
            "final_gradient_norm": self.final_gradient_norm,
        }


def _design(ds: SurvivalDataset, included) -> np.ndarray:
    missing = [n for n in included if n not in ds.names]
    if missing:
        raise InvalidInputError(f"covariates not in dataset: {missing}")
    if len(set(included)) != len(included):
        raise InvalidInputError("duplicate covariate names in inclusion list")
    cols = [ds.names.index(n) for n in included]
    return ds.covariates[:, cols]


def _loglik_parts(params, log_t, x, status):
    """Log-likelihood, gradient and Hessian at params=(b0, beta..., log sigma).

    Trial points far from the optimum can overflow exp(w); the resulting
    -inf likelihood is rejected by the caller, so arithmetic noise in the
    derivative blocks is tolerated here rather than warned about.
    """
    b0, beta, log_sigma = params[0], params[1:-1], params[-1]
    sigma = math.exp(log_sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        w = (log_t - b0 - x @ beta) / sigma
        ew = np.exp(w)
        n_events = status.sum()
        loglik = float(np.sum(status * (-log_sigma - log_t + w)) - ew.sum())
        a = status - ew  # d(loglik)/dw per row
        g0 = -a.sum() / sigma
        gb = -(x.T @ a) / sigma
        gs = -float(a @ w) - float(n_events)
        grad = np.concatenate([[g0], gb, [gs]])
        # Hessian blocks in (b0, beta) x (b0, beta) and the log-sigma row/col.
        xe = np.concatenate([np.ones((len(w), 1)), x], axis=1)
        ex = ew[:, None] * xe
        h_loc = -(xe.T @ ex) / sigma**2
        h_loc_s = (xe.T @ a - xe.T @ (ew * w)) / sigma
        h_ss = -float(ew @ (w * w)) + float(a @ w)
    p = len(params)
    hess = np.empty((p, p))
    hess[: p - 1, : p - 1] = h_loc
    hess[: p - 1, p - 1] = h_loc_s
    hess[p - 1, : p - 1] = h_loc_s
    hess[p - 1, p - 1] = h_ss
    return loglik, grad, hess


def loglik_and_gradient(params, ds: SurvivalDataset, included) -> tuple:
    """Censored Weibull AFT log-likelihood and its analytic gradient.

    ``params`` is (intercept, beta per included covariate, log sigma).
    """
    params = np.asarray(params, dtype=float)
    if not np.isfinite(params).all():
        raise InvalidInputError("parameters must be finite")
    x = _design(ds, included)
    if params.shape != (x.shape[1] + 2,):
        raise InvalidInputError(
            f"expected {x.shape[1] + 2} parameters for {len(included)} covariates, "
            f"got {params.shape[0]}"
        )
    loglik, grad, _ = _loglik_parts(params, np.log(ds.time), x, ds.status.astype(float))
    return loglik, grad


def fit(ds: SurvivalDataset, included) -> AFTModel:
    """Maximize the censored Weibull AFT likelihood over the listed covariates.

    Initialization: intercept = mean log event time, beta = 0, log sigma =
    log(sd of log event times) floored at -5.  Stops when the gradient
    max-norm drops below 1e-8 or after 200 Newton steps; ``converged``
    records which.
    """
    if ds.n_events == 0:
        raise NoEventsError("no observed events: scale is unbounded, cannot fit")
    x = _design(ds, included)
    log_t = np.log(ds.time)
    status = ds.status.astype(float)
    d = x.shape[1]

    log_t_events = log_t[ds.status == 1]
    sd = float(log_t_events.std())
    params = np.concatenate(
        [[float(log_t_events.mean())], np.zeros(d),
         [max(math.log(sd) if sd > 0 else _LOG_SIGMA_FLOOR, _LOG_SIGMA_FLOOR)]]
    )

    loglik, grad, hess = _loglik_parts(params, log_t, x, status)
    if not np.isfinite(loglik):
        raise NonConvergenceError("non-finite likelihood at the initial point")
    iterations = 0
    converged = False
    identity = np.eye(len(params))
    while iterations < _MAX_ITER:
        gnorm = float(np.abs(grad).max())
        if gnorm < _GRAD_TOL:
            converged = True
            break
        # Newton direction on the concavified Hessian: add ridge until -H is
        # positive definite so the step is an ascent direction.
        ridge = 0.0
        for _ in range(60):
            try:
                step = np.linalg.solve(-(hess - ridge * identity), grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.isfinite(step).all() and float(step @ grad) > 0:
                break
            ridge = max(2.0 * ridge, 1e-8)
        else:
            raise NonConvergenceError(
                "could not build an ascent direction",
                iterations=iterations, gradient_norm=gnorm,
            )
        # Step halving keeps the likelihood non-decreasing.  It starts from
        # the longest step on the halving grid whose log-sigma move is in
        # bound, so an in-bound trial is the same point as without a bound.
        t = 1.0
        while abs(t * step[-1]) > _MAX_LOG_SIGMA_STEP:
            t *= 0.5
        accepted = False
        for _ in range(_MAX_HALVINGS):
            cand = params + t * step
            cand_ll, cand_grad, cand_hess = _loglik_parts(cand, log_t, x, status)
            if np.isfinite(cand_ll) and cand_ll >= loglik:
                params, loglik, grad, hess = cand, cand_ll, cand_grad, cand_hess
                accepted = True
                break
            t *= 0.5
        iterations += 1
        if not accepted:
            if not np.isfinite(cand_ll):
                raise NonConvergenceError(
                    "likelihood non-finite after step-halving exhaustion",
                    iterations=iterations, gradient_norm=gnorm,
                )
            # No improving step at this scale: treat as a stationary stop.
            break

    return AFTModel(
        intercept=float(params[0]),
        coefficients=params[1:-1].copy(),
        log_scale=float(params[-1]),
        included=list(included),
        converged=converged,
        iterations=iterations,
        final_gradient_norm=float(np.abs(grad).max()),
    )


def predict_median(model: AFTModel, x):
    """Median of the fitted conditional Weibull: exp(eta) * ln(2)**sigma.

    ``x`` is one row of covariate values (returns a float) or an (n, d)
    matrix with one row per subject (returns an array of n medians).
    """
    x = np.asarray(x, dtype=float)
    d = len(model.included)
    if x.ndim not in (1, 2) or x.shape[-1] != d:
        raise InvalidInputError(
            f"expected {d} covariate values per row, got shape {x.shape}"
        )
    medians = np.exp(model.intercept + x @ model.coefficients) * math.log(2.0) ** model.scale
    return float(medians) if x.ndim == 1 else medians
