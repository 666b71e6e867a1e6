import math
import re
import warnings

import numpy as np
import pytest

import cesurv.aft as aft_mod
from cesurv.aft import AFTModel, fit, loglik_and_gradient, predict_median
from cesurv.dataio import bundled_dataset_spec, load_dataset
from cesurv.errors import InvalidInputError, NoEventsError, NonConvergenceError
from cesurv.survsim import SimConfig, SurvivalDataset, simulate


def weibull_sample(n, intercept, sigma, seed):
    rng = np.random.default_rng(seed)
    t = math.exp(intercept) * rng.standard_exponential(n) ** sigma
    return SurvivalDataset(np.empty((n, 0)), t, np.ones(n, dtype=int), [])


def record_accepted_points(monkeypatch):
    """Lists of every (log-likelihood, terms) ``fit`` evaluates and of the
    log-likelihoods of the points it builds derivatives at: the start and
    each accepted point, in order."""
    evaluated, accepted = [], []
    loglik, derivatives = aft_mod._loglik, aft_mod._derivatives

    def recording_loglik(*args):
        out = loglik(*args)
        evaluated.append(out)
        return out

    def recording_derivatives(terms, *args, **kwargs):
        accepted.append(next(ll for ll, t in evaluated if t is terms))
        return derivatives(terms, *args, **kwargs)

    monkeypatch.setattr(aft_mod, "_loglik", recording_loglik)
    monkeypatch.setattr(aft_mod, "_derivatives", recording_derivatives)
    return evaluated, accepted


def finite_difference_gradient(params, ds, included, h=1e-5):
    fd = np.empty(len(params))
    for i in range(len(params)):
        up, down = params.copy(), params.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (
            loglik_and_gradient(up, ds, included)[0]
            - loglik_and_gradient(down, ds, included)[0]
        ) / (2 * h)
    return fd


class TestFit:
    def test_intercept_only_recovery(self):
        m = fit(weibull_sample(5000, intercept=1.0, sigma=0.5, seed=11), [])
        assert abs(m.intercept - 1.0) < 0.05
        assert abs(m.scale - 0.5) < 0.05
        assert m.converged and m.final_gradient_norm < 1e-8

    def test_intercept_only_recovery_on_every_seed(self):
        # What the fit guarantees for any sample: the gradient bound above
        # fails for 23 of these seeds, where the last line search cannot
        # resolve a gain below the log-likelihood's rounding, but the Newton
        # decrement the fit stops on is small at the returned point too.
        for seed in range(60):
            ds = weibull_sample(5000, intercept=1.0, sigma=0.5, seed=seed)
            m = fit(ds, [])
            assert m.converged, seed
            assert abs(m.intercept - 1.0) < 0.05 and abs(m.scale - 0.5) < 0.05, seed
            params = np.array([m.intercept, m.log_scale])
            status = ds.status.astype(float)
            _, terms = aft_mod._loglik(params, np.log(ds.time), ds.covariates, status)
            grad, hess = aft_mod._derivatives(terms, ds.covariates, status)
            assert grad @ np.linalg.solve(-hess, grad) / 2 <= 1e-10, seed

    def test_simulation_recovery_ordering(self):
        for seed in range(3):
            ds = simulate(SimConfig(seed=seed))
            m = fit(ds, ds.names)
            coef = dict(zip(m.included, m.coefficients))
            assert coef["x1"] == max(coef.values())
            assert abs(coef["x3"]) < 0.1
            assert coef["x2"] > 0.9 and coef["x4"] > 0.9 and 0.0 < coef["x5"] < 0.5
            assert abs(m.scale - 0.5) < 0.05

    def test_all_censored_raises(self):
        ds = SurvivalDataset(np.zeros((5, 1)), np.ones(5), np.zeros(5, dtype=int), ["a"])
        with pytest.raises(NoEventsError):
            fit(ds, ["a"])

    @pytest.mark.parametrize("time", [1.0, 42.0])
    def test_likelihood_without_maximum_raises(self, time):
        # Equal event times: the likelihood rises without bound as sigma
        # goes to zero.  The fit must say so, without a floating-point
        # warning and without returning a zero scale.
        ds = SurvivalDataset(np.empty((20, 0)), np.full(20, time), np.ones(20, dtype=int), [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match="no maximum"):
                fit(ds, [])

    def test_unknown_covariate_rejected(self):
        ds = weibull_sample(50, 0.0, 1.0, seed=0)
        with pytest.raises(InvalidInputError):
            fit(ds, ["ghost"])

    def test_repeated_covariate_rejected(self):
        with pytest.raises(InvalidInputError, match="duplicate covariate names"):
            fit(simulate(SimConfig(seed=0, n_subjects=50)), ["x1", "x1"])

    def test_no_floating_point_warning_on_large_simulation(self):
        # Newton's first step proposes log sigma of about -936 here; the
        # trial sigma must not underflow to zero.
        ds = simulate(SimConfig(seed=1, n_subjects=10000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = fit(ds, ds.names)
        assert m.converged and abs(m.scale - 0.5) < 0.05

    def test_location_equivariance(self):
        ds = simulate(SimConfig(seed=8, n_subjects=500))
        m1 = fit(ds, ds.names)
        shifted = SurvivalDataset(ds.covariates, ds.time * math.e, ds.status, ds.names)
        m2 = fit(shifted, ds.names)
        assert abs(m2.intercept - m1.intercept - 1.0) < 1e-6
        np.testing.assert_allclose(m2.coefficients, m1.coefficients, atol=1e-6)
        assert abs(m2.log_scale - m1.log_scale) < 1e-6

    @pytest.mark.parametrize("source, included", [
        ("veteran", ["karno", "age", "celltype", "diagtime"]),
        *[(SimConfig(seed=s), None) for s in (18, 115, 120, 164)],
        (SimConfig(seed=28, n_subjects=10000), None),
    ], ids=["veteran", "sim-18", "sim-115", "sim-120", "sim-164", "sim10k-28"])
    def test_converges_where_rounding_hides_the_gain(self, source, included):
        # Near these optima, steps leave the log-likelihood unchanged while
        # the gradient in raw covariate units stays above 1e-8, so a stop on
        # the gradient ran each of these fits to the 200-step cap.
        ds = load_dataset(bundled_dataset_spec(source)) if source == "veteran" else simulate(source)
        m = fit(ds, included or ds.names)
        assert m.converged and m.iterations <= 20

    def test_covariate_units_do_not_matter(self):
        ds = simulate(SimConfig(seed=0, n_subjects=300))
        scaled = SurvivalDataset(ds.covariates * 1e6, ds.time, ds.status, ds.names)
        m, m_scaled = fit(ds, ds.names), fit(scaled, ds.names)
        assert m.converged and m_scaled.converged
        np.testing.assert_allclose(m_scaled.coefficients * 1e6, m.coefficients, rtol=1e-9, atol=1e-9)
        assert abs(m_scaled.intercept - m.intercept) < 1e-9
        assert abs(m_scaled.log_scale - m.log_scale) < 1e-9

    def test_line_search_without_acceptable_step_raises(self, monkeypatch):
        # Every trial point scores below the start, so step halving runs
        # out; the fit must say so instead of returning.
        loglik = aft_mod._loglik
        start = []

        def falling_loglik(*args):
            ll, terms = loglik(*args)
            if not start:
                start.append(ll)
                return ll, terms
            return start[0] - 1.0, terms

        monkeypatch.setattr(aft_mod, "_loglik", falling_loglik)
        ds = simulate(SimConfig(seed=9, n_subjects=300))
        with pytest.raises(NonConvergenceError, match="step halving found no step") as info:
            fit(ds, ds.names)
        assert info.value.iterations == 0

    def test_one_solve_and_one_eigh_per_step(self, monkeypatch):
        # A step takes one Newton solve and, where that step does not
        # ascend, one eigendecomposition for the eigenvalue-modified step.
        calls = {"solve": 0, "eigh": 0}
        for name in calls:
            def counting(*args, _name=name, _f=getattr(np.linalg, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(np.linalg, name, counting)
        ds = simulate(SimConfig(seed=0))
        model = fit(ds, ds.names)
        assert model.converged
        assert calls["solve"] <= model.iterations and calls["eigh"] <= model.iterations

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_hessian_raises(self, monkeypatch, value):
        # No direction can be trusted from a Hessian with an overflowed or
        # undefined entry, so the fit stops before its first step and says so.
        derivatives = aft_mod._derivatives

        def non_finite_hessian(*args):
            grad, hess = derivatives(*args)
            hess = hess.copy()
            hess[0, 1] = hess[1, 0] = value
            return grad, hess

        monkeypatch.setattr(aft_mod, "_derivatives", non_finite_hessian)
        ds = simulate(SimConfig(seed=9, n_subjects=300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match="could not build an ascent direction") as info:
                fit(ds, ds.names)
        assert info.value.iterations == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_singular_design_named_when_halving_runs_out(self, seed):
        # x1 twice: the likelihood is flat along (x1, -x1_copy), and step
        # halving runs out near the ridge.  The error names both columns.
        ds = simulate(SimConfig(seed=seed, n_subjects=1000))
        doubled = SurvivalDataset(np.column_stack([ds.covariates, ds.column("x1")]),
                                  ds.time, ds.status, [*ds.names, "x1_copy"])
        with pytest.raises(NonConvergenceError, match="step halving found no step") as info:
            fit(doubled, doubled.names)
        assert str(info.value).endswith("the design is singular, with collinear columns x1, x1_copy")

    def test_non_finite_likelihood_at_start_raises(self):
        # Equal event times give log sigma -5 at the start, where the row
        # censored at t = 1000 overflows exp(w).
        ds = SurvivalDataset(np.empty((5, 0)), [1.0, 1.0, 1.0, 1000.0, 2.0], [1, 1, 1, 0, 0], [])
        with pytest.raises(NonConvergenceError, match="^non-finite likelihood at the initial point$"):
            fit(ds, [])

    def test_monotone_ascent(self, monkeypatch):
        # Every accepted step keeps the likelihood non-decreasing.  This
        # veteran fit stops on the Newton decrement after 6 steps, the last
        # of which leaves the log-likelihood unchanged, so a step-halving
        # test that let a small decrease through would show here.
        ds = load_dataset(bundled_dataset_spec("veteran"))
        _, accepted = record_accepted_points(monkeypatch)
        fit(ds, ["karno", "age", "celltype", "diagtime"])
        assert len(accepted) > 1
        assert all(b >= a for a, b in zip(accepted, accepted[1:]))

    def test_derivatives_built_for_accepted_points_only(self, monkeypatch):
        # Step-halving trials evaluate the likelihood alone; the gradient and
        # Hessian are built at the start and at each accepted point.
        ds = simulate(SimConfig(seed=9, n_subjects=300))
        evaluated, built = record_accepted_points(monkeypatch)
        model = fit(ds, ds.names)
        assert model.converged
        assert len(built) == model.iterations + 1
        assert len(evaluated) > len(built)
        assert all(b >= a for a, b in zip(built, built[1:]))


class TestLoglikAndGradient:
    def test_gradient_matches_finite_differences(self):
        ds = simulate(SimConfig(seed=3, n_subjects=10))
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = rng.normal(0.0, 1.0, size=7)
            params[-1] = rng.normal(0.0, 0.5)
            _, grad = loglik_and_gradient(params, ds, ds.names)
            fd = finite_difference_gradient(params, ds, ds.names)
            rel = np.abs(grad - fd) / np.maximum(np.abs(grad), 1e-8)
            assert rel.max() < 1e-5

    def test_all_censored_is_pure_hazard_sum(self):
        rng = np.random.default_rng(6)
        n = 20
        x = rng.standard_normal((n, 2))
        t = rng.random(n) + 0.5
        ds = SurvivalDataset(x, t, np.zeros(n, dtype=int), ["a", "b"])
        params = np.array([0.3, -0.2, 0.1, 0.0])  # log sigma = 0 -> sigma = 1
        ll, _ = loglik_and_gradient(params, ds, ["a", "b"])
        w = np.log(t) - 0.3 - x @ np.array([-0.2, 0.1])
        assert abs(ll - (-np.exp(w).sum())) < 1e-10

    def test_row_duplication_doubles_everything(self):
        ds = simulate(SimConfig(seed=4, n_subjects=15))
        doubled = SurvivalDataset(
            np.vstack([ds.covariates, ds.covariates]),
            np.concatenate([ds.time, ds.time]),
            np.concatenate([ds.status, ds.status]),
            ds.names,
        )
        params = np.array([0.5, 0.1, -0.3, 0.2, 0.0, 0.05, -0.2])
        ll1, g1 = loglik_and_gradient(params, ds, ds.names)
        ll2, g2 = loglik_and_gradient(params, doubled, ds.names)
        assert abs(ll2 - 2 * ll1) < 1e-9
        np.testing.assert_allclose(g2, 2 * g1, rtol=1e-12, atol=1e-12)

    def test_rejects_nonfinite_params(self):
        ds = weibull_sample(20, 0.0, 1.0, seed=1)
        with pytest.raises(InvalidInputError):
            loglik_and_gradient(np.array([np.nan, 0.0]), ds, [])

    def test_rejects_wrong_length(self):
        ds = weibull_sample(20, 0.0, 1.0, seed=2)
        with pytest.raises(InvalidInputError):
            loglik_and_gradient(np.array([0.0, 0.0, 0.0]), ds, [])


class TestPredictMedian:
    def test_closed_form_values(self):
        m = AFTModel(1.0, np.array([]), math.log(0.5), [], True, 0, 0.0)
        assert abs(predict_median(m, np.array([])) - math.e * math.log(2) ** 0.5) < 1e-12
        m = AFTModel(0.0, np.array([1.0]), 0.0, ["a"], True, 0, 0.0)
        assert abs(predict_median(m, np.array([0.0])) - math.log(2)) < 1e-12

    def test_tiny_scale_limit(self):
        m = AFTModel(0.7, np.array([2.0]), -40.0, ["a"], True, 0, 0.0)
        want = math.exp(0.7 + 2.0 * 1.5)
        assert abs(predict_median(m, np.array([1.5])) - want) < 1e-9 * want

    def test_monotone_in_linear_predictor(self):
        m = AFTModel(0.0, np.array([1.0]), math.log(0.8), ["a"], True, 0, 0.0)
        preds = [predict_median(m, np.array([v])) for v in (-1.0, 0.0, 1.0, 2.0)]
        assert all(b > a for a, b in zip(preds, preds[1:]))

    def test_dimension_mismatch(self):
        m = AFTModel(0.0, np.array([1.0]), 0.0, ["a"], True, 0, 0.0)
        with pytest.raises(InvalidInputError):
            predict_median(m, np.array([1.0, 2.0]))

    def test_matrix_matches_rows(self):
        rng = np.random.default_rng(12)
        m = AFTModel(0.4, np.array([0.8, -0.3, 0.05]), math.log(0.6),
                     ["a", "b", "c"], True, 0, 0.0)
        x = rng.normal(size=(200, 3)) * [1.0, 5.0, 100.0]
        batch = predict_median(m, x)
        rows = np.array([predict_median(m, row) for row in x])
        assert batch.shape == (200,)
        np.testing.assert_array_equal(batch, rows)
        assert isinstance(predict_median(m, x[0]), float)

    @pytest.mark.parametrize("d", [4, 9, 13])
    @pytest.mark.parametrize("n", [50, 153])
    def test_identical_rows_get_identical_medians(self, n, d):
        # A matrix product rounded a row apart from the same row alone, and
        # at 9 columns the last rows of a matrix apart from the others, so a
        # tie of equal rows could count as a concordant or discordant pair.
        rng = np.random.default_rng(7 + d)
        m = AFTModel(0.4, rng.normal(size=d) * 0.1, math.log(0.6),
                     [f"x{j}" for j in range(d)], True, 0, 0.0)
        row = rng.normal(size=d) * 10.0
        batch = predict_median(m, np.tile(row, (n, 1)))
        np.testing.assert_array_equal(batch, np.full(n, predict_median(m, row)))

    def test_matrix_width_mismatch(self):
        m = AFTModel(0.0, np.array([1.0, 2.0]), 0.0, ["a", "b"], True, 0, 0.0)
        for bad in (np.zeros((4, 3)), np.zeros((4, 1)), np.zeros((2, 2, 2))):
            with pytest.raises(InvalidInputError):
                predict_median(m, bad)


class TestFromDict:
    def fitted(self):
        ds = load_dataset(bundled_dataset_spec("veteran"))
        return fit(ds, ["karno", "age", "celltype", "diagtime"])

    def assert_bitwise_equal(self, a, b):
        assert a.coefficients.dtype == b.coefficients.dtype == np.float64
        assert a.coefficients.tobytes() == b.coefficients.tobytes()
        for name in ("intercept", "log_scale", "included", "converged", "iterations",
                     "final_gradient_norm"):
            assert getattr(a, name) == getattr(b, name)
            assert type(getattr(a, name)) is type(getattr(b, name))
        assert math.copysign(1.0, a.intercept) == math.copysign(1.0, b.intercept)

    def test_round_trips_bitwise(self):
        m = self.fitted()
        self.assert_bitwise_equal(AFTModel.from_dict(m.to_dict()), m)

    def test_round_trips_through_json(self):
        import json

        m = self.fitted()
        self.assert_bitwise_equal(AFTModel.from_dict(json.loads(json.dumps(m.to_dict()))), m)

    def test_scale_is_derived_not_read(self):
        m = self.fitted()
        d = m.to_dict()
        d["scale"] = 123.0
        assert AFTModel.from_dict(d).scale == m.scale
        del d["scale"]
        assert AFTModel.from_dict(d).scale == m.scale

    @pytest.mark.parametrize("key", ["intercept", "coefficients", "log_scale", "included",
                                     "converged", "iterations", "final_gradient_norm"])
    def test_rejects_missing_field(self, key):
        d = self.fitted().to_dict()
        del d[key]
        with pytest.raises(InvalidInputError, match=f"missing AFTModel fields: \\['{key}'\\]"):
            AFTModel.from_dict(d)

    def test_rejects_unknown_field(self):
        d = {**self.fitted().to_dict(), "stop_reason": "gradient"}
        with pytest.raises(InvalidInputError, match=r"unknown AFTModel fields: \['stop_reason'\]"):
            AFTModel.from_dict(d)

    def test_rejects_coefficient_count_mismatch(self):
        d = self.fitted().to_dict()
        d["coefficients"] = d["coefficients"][:-1]
        with pytest.raises(InvalidInputError, match="3 coefficients for 4 covariates"):
            AFTModel.from_dict(d)

    @pytest.mark.parametrize("key, value, shown", [
        ("log_scale", 1000, "'log_scale' 1000 overflows exp"),
        ("log_scale", 700, "'log_scale' 700 makes every median 0"),
        ("log_scale", 7.7, "'log_scale' 7.7 makes every median 0"),
        ("log_scale", math.nan, "'log_scale' must be finite, got nan"),
        ("log_scale", math.inf, "'log_scale' must be finite, got inf"),
        ("intercept", -math.inf, "'intercept' must be finite, got -inf"),
        ("intercept", 10**400, f"'intercept' must be finite, got {10**400}"),
        ("coefficients", [0.1, math.nan, 0.0, 0.2], "'coefficients' must be finite, got [0.1, nan, 0.0, 0.2]"),
    ], ids=["log_scale_1000", "log_scale_700", "log_scale_7.7", "log_scale_nan", "log_scale_inf",
         "intercept_inf", "intercept_beyond_float", "coefficient_nan"])
    def test_rejects_model_it_cannot_score(self, key, value, shown):
        d = {**self.fitted().to_dict(), key: value}
        with pytest.raises(InvalidInputError, match=re.escape(f"AFTModel field {shown}")):
            AFTModel.from_dict(d)

    def test_rejects_non_mapping(self):
        with pytest.raises(InvalidInputError, match="must be a JSON object, got list"):
            AFTModel.from_dict([1, 2])
