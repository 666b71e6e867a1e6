"""Weibull accelerated failure time regression under right censoring.

The model is log t = intercept + x.beta + sigma * W with W standard minimum
Gumbel, fitted by maximizing the censored log-likelihood with a damped
Newton iteration (analytic gradient and Hessian, the eigenvalue-modified
step where Newton's does not ascend, step halving for monotone ascent).
The scale is optimized as log sigma so the problem is unconstrained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NoEventsError, NonConvergenceError, dataclass_kwargs
from .survsim import SurvivalDataset

__all__ = ["AFTModel", "fit", "loglik_and_gradient", "predict_median"]

_DECREMENT_TOL = 1e-10  # Newton decrement step . grad / 2 at which the fit stops
_MAX_ITER = 200
_MAX_HALVINGS = 40
_LOG_SIGMA_FLOOR = -5.0
# Largest change of log sigma tried in one Newton step (sigma moves by at
# most a factor e**5).  Far from the optimum Newton can propose log-sigma
# steps of several hundred, whose trial sigma underflows to zero; accepted
# steps on the simulations and bundled tables move log sigma by under 2.
_MAX_LOG_SIGMA_STEP = 5.0
# A likelihood with no maximum, for instance all event times equal, keeps
# rising as sigma goes to zero.  A fit whose log sigma falls below this
# stops with NonConvergenceError while 1/sigma**2 is still finite.
_LOG_SIGMA_MIN = -300.0


@dataclass(frozen=True)
class AFTModel:
    """Fitted Weibull AFT regression; scale sigma = exp(log_scale)."""

    intercept: float
    coefficients: np.ndarray
    log_scale: float
    included: list[str]
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

    @classmethod
    def from_dict(cls, d: dict) -> "AFTModel":
        """Inverse of ``to_dict``, ignoring the derived ``scale``; rejects an unscorable model."""
        kwargs = dataclass_kwargs(cls, d, ignore=("scale",))
        for name in ("intercept", "coefficients", "log_scale"):
            try:
                finite = np.isfinite(np.asarray(kwargs[name], dtype=float)).all()
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise InvalidInputError(f"AFTModel field {name!r} must be finite, got {kwargs[name]!r}")
        coefficients = np.asarray(kwargs.pop("coefficients"), dtype=float)
        if coefficients.shape != (len(kwargs["included"]),):
            raise InvalidInputError(
                f"{coefficients.size} coefficients for {len(kwargs['included'])} covariates")
        try:
            scale = math.exp(kwargs["log_scale"])
        except OverflowError:
            raise InvalidInputError(
                f"AFTModel field 'log_scale' {kwargs['log_scale']!r} overflows exp") from None
        if math.log(2.0) ** scale == 0.0:
            raise InvalidInputError(
                f"AFTModel field 'log_scale' {kwargs['log_scale']!r} makes every median 0 (ln(2)**scale)")
        return cls(coefficients=coefficients, **kwargs)


def _design(ds: SurvivalDataset, included) -> np.ndarray:
    missing = [n for n in included if n not in ds.names]
    if missing:
        raise InvalidInputError(f"covariates not in dataset: {missing}")
    if len(set(included)) != len(included):
        raise InvalidInputError("duplicate covariate names in inclusion list")
    cols = [ds.names.index(n) for n in included]
    return ds.covariates[:, cols]


def _loglik(params, log_t, x, status):
    """Log-likelihood at params=(b0, beta..., log sigma).

    Also returns sigma, the standardized residuals w and exp(w), from which
    ``_derivatives`` builds the gradient and Hessian at the same point.
    Trial points far from the optimum can overflow exp(w); the resulting
    -inf likelihood is rejected by the caller, so arithmetic noise is
    tolerated here rather than warned about.
    """
    b0, beta, log_sigma = params[0], params[1:-1], params[-1]
    sigma = math.exp(log_sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        w = (log_t - b0 - x @ beta) / sigma
        ew = np.exp(w)
        loglik = float(np.sum(status * (-log_sigma - log_t + w)) - ew.sum())
    return loglik, (sigma, w, ew)


def _derivatives(terms, x, status) -> tuple:
    """Gradient and Hessian from ``_loglik``'s terms."""
    sigma, w, ew = terms
    with np.errstate(over="ignore", invalid="ignore"):
        n_events = status.sum()
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
    p = len(grad)
    hess = np.empty((p, p))
    hess[: p - 1, : p - 1] = h_loc
    hess[: p - 1, p - 1] = h_loc_s
    hess[p - 1, : p - 1] = h_loc_s
    hess[p - 1, p - 1] = h_ss
    return grad, hess


def _singular_design_note(x, included) -> str:
    """Names the covariates in the null directions of a rank-deficient design, else "".

    The design is the intercept and each covariate scaled to unit sd, so
    the test does not depend on units; a constant covariate becomes a
    column of ones, collinear with the intercept.
    """
    sd = x.std(axis=0)
    z = np.column_stack([np.ones(len(x)), np.where(sd > 0, x / np.where(sd > 0, sd, 1.0), 1.0)])
    _, s, vt = np.linalg.svd(z, full_matrices=False)
    null = vt[s <= s[0] * max(z.shape) * np.finfo(float).eps]
    names = [name for name, v in zip(["the intercept", *included], np.abs(null).max(axis=0, initial=0.0))
             if v > 1e-8]
    return f"; the design is singular, with collinear columns {', '.join(names)}" if names else ""


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
    status = ds.status.astype(float)
    loglik, terms = _loglik(params, np.log(ds.time), x, status)
    grad, _ = _derivatives(terms, x, status)
    return loglik, grad


def fit(ds: SurvivalDataset, included) -> AFTModel:
    """Maximize the censored Weibull AFT likelihood over the listed covariates.

    Initialization: intercept = mean log event time, beta = 0, log sigma =
    log(sd of log event times) floored at -5.  Stops with ``converged`` true
    after an accepted step whose Newton decrement, step . grad / 2, is at
    most 1e-10 whatever the covariates' units, or else after 200 steps with
    ``converged`` false; ``final_gradient_norm`` is reported, not tested.
    Raises NonConvergenceError when the Hessian is not finite (no ascent
    direction), when step halving finds no step that keeps the likelihood
    from falling (naming the collinear covariates if the design is
    singular), and when log sigma falls below -300, where the likelihood
    has no maximum.
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

    loglik, terms = _loglik(params, log_t, x, status)
    if not np.isfinite(loglik):
        raise NonConvergenceError("non-finite likelihood at the initial point")
    grad, hess = _derivatives(terms, x, status)
    iterations = 0
    converged = False

    def stop(reason):
        return NonConvergenceError(reason, iterations=iterations, gradient_norm=float(np.abs(grad).max()))

    while not converged and iterations < _MAX_ITER:
        if not np.isfinite(hess).all():
            raise stop("could not build an ascent direction")
        # The Newton step if it ascends, else the eigenvalue-modified one
        # (Nocedal & Wright, Numerical Optimization, 2nd ed., 3.4): each
        # curvature becomes max(|lambda|, 1e-8), so it ascends for any nonzero gradient.
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.isfinite(step).all() or float(step @ grad) <= 0:
            lam, vec = np.linalg.eigh(-hess)
            step = vec @ ((vec.T @ grad) / np.maximum(np.abs(lam), 1e-8))
        decrement = float(step @ grad)
        # Step halving keeps the likelihood non-decreasing.  It starts from
        # the longest step on the halving grid whose log-sigma move is in
        # bound, so an in-bound trial is the same point as without a bound.
        # Trials compute only the likelihood; derivatives wait for acceptance.
        t = 1.0
        while abs(t * step[-1]) > _MAX_LOG_SIGMA_STEP:
            t *= 0.5
        for _ in range(_MAX_HALVINGS):
            cand = params + t * step
            cand_ll, cand_terms = _loglik(cand, log_t, x, status)
            if np.isfinite(cand_ll) and cand_ll >= loglik:
                break
            t *= 0.5
        else:
            raise stop("step halving found no step that keeps the likelihood from falling"
                       + _singular_design_note(x, included))
        params, loglik = cand, cand_ll
        grad, hess = _derivatives(cand_terms, x, status)
        iterations += 1
        if params[-1] < _LOG_SIGMA_MIN:
            raise stop("scale collapsed towards zero: the likelihood has no maximum")
        converged = decrement / 2 <= _DECREMENT_TOL

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
    matrix with one row per subject (returns an array of n medians).  eta is
    summed in one fixed order, the intercept and then one column product at
    a time, so a row's median is bitwise the same alone or in any matrix.
    """
    x = np.asarray(x, dtype=float)
    d = len(model.included)
    if x.ndim not in (1, 2) or x.shape[-1] != d:
        raise InvalidInputError(
            f"expected {d} covariate values per row, got shape {x.shape}"
        )
    eta = np.full(x.shape[:-1], model.intercept)
    for column, coefficient in zip(np.moveaxis(x, -1, 0), model.coefficients):
        eta += column * coefficient
    medians = np.exp(eta) * math.log(2.0) ** model.scale
    return float(medians) if x.ndim == 1 else medians
