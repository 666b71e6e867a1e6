import json

import numpy as np
import pytest

from cesurv.copula_entropy import EstimatorConfig, copula_entropy
from cesurv.errors import InvalidInputError
from cesurv.survsim import SimConfig, SurvivalDataset, simulate


class TestSimConfig:
    def test_defaults_match_reference_table(self):
        cfg = SimConfig()
        assert cfg.n_subjects == 1000
        assert cfg.max_follow_up == 100.0
        assert cfg.event_shape == 2.0
        assert cfg.event_log_scale == 1.0
        assert cfg.censor_shape == 0.85
        assert cfg.censor_log_scale == 5.0
        assert cfg.coefficients == (1.4, 1.2, 0.0, 1.2, 0.2)
        assert cfg.covariate_params == ((0.4, 1.1), (1.0, 1.1), (0.7, 1.1), (0.2, 1.3), (0.2, 1.1))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidInputError):
            SimConfig(coefficients=(1.0,), covariate_params=((0, 1), (0, 1)))

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidInputError):
            SimConfig(event_shape=0.0)

    @pytest.mark.parametrize("kwargs", [dict(n_subjects=5.5), dict(n_subjects=True),
                                        dict(seed=-1), dict(seed=1.5)],
                             ids=["fractional_size", "bool_size", "negative_seed", "fractional_seed"])
    def test_rejects_fractional_size_and_bad_seed(self, kwargs):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, shown", [
        (dict(max_follow_up=0.0), "max_follow_up must be > 0"),
        (dict(coefficients=(1.0,), covariate_params=((0.0, -0.5),)), "covariate variances must be >= 0"),
        (dict(max_follow_up=10**400), "max_follow_up must be a number in the float range"),
        (dict(coefficients=(1.0, 1.0, -10**400, 1.0, 1.0)), "coefficients must be a number in the float range"),
        (dict(coefficients=1.0), "coefficients must be a sequence of numbers, got 1.0"),
        (dict(covariate_params=((0.0, 1.0, 2.0),) * 5), "covariate_params must be a sequence of"),
        (dict(covariate_params=(1.0,) * 5), "covariate_params must be a sequence of"),
        (dict(event_log_scale=float("inf")), "event_log_scale must be finite, got inf"),
        (dict(event_log_scale=-float("inf")), "event_log_scale must be finite, got -inf"),
        (dict(coefficients=(1.0, np.inf, 0.0, 1.0, 1.0)), "coefficients must be finite"),
        (dict(covariate_params=((-np.inf, 1.0),) * 5), "covariate_params must be finite"),
        (dict(covariate_params=((0.0, np.inf),) * 5), "covariate_params must be finite"),
        (dict(censor_log_scale=-float("inf")), "censor_log_scale must be finite or [+]inf, got -inf"),
    ], ids=["zero_follow_up", "negative_variance", "huge_follow_up", "huge_coefficient", "scalar_coefficients",
            "triples", "scalar_pairs", "inf_event_scale", "minus_inf_event_scale", "inf_coefficient", "inf_mean",
            "inf_variance", "minus_inf_censor_scale"])
    def test_rejects_out_of_range_setting(self, kwargs, shown):
        with pytest.raises(InvalidInputError, match=shown):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("name, value", [
        *[(name, value)
          for name in ("max_follow_up", "event_shape", "event_log_scale", "censor_shape", "censor_log_scale")
          for value in (float("nan"), "5", True)],
        ("coefficients", ("a",) * 5),
        ("coefficients", (np.nan,) * 5),
        ("covariate_params", ((0.0, np.float32("nan")),) * 5),
        ("covariate_params", (("0", 1.0),) * 5),
    ])
    def test_rejects_a_setting_that_is_not_a_number(self, name, value):
        # nan passes every range check, since each comparison with it is false.
        with pytest.raises(InvalidInputError, match=f"^{name} must be a number other than nan, got "):
            SimConfig(**{name: value})

    def test_infinite_follow_up_is_valid(self):
        ds = simulate(SimConfig(n_subjects=50, max_follow_up=float("inf")))
        assert np.isfinite(ds.time).all()
        # No cap and no censoring: every time is an event time.
        ds = simulate(SimConfig(n_subjects=50, max_follow_up=float("inf"), censor_log_scale=float("inf")))
        assert np.isfinite(ds.time).all() and ds.status.all()

    @pytest.mark.parametrize("name", ["max_follow_up", "event_shape", "event_log_scale",
                                      "censor_shape", "censor_log_scale"])
    def test_numpy_float_settings_serialize_as_plain_floats(self, name):
        value = np.float32(getattr(SimConfig(), name) + 0.1)
        numpy = SimConfig(n_subjects=50, **{name: value})
        plain = SimConfig(n_subjects=50, **{name: float(value)})
        assert json.dumps(numpy.to_dict()) == json.dumps(plain.to_dict())

    def test_dict_round_trip(self):
        cfg = SimConfig(seed=9)
        assert SimConfig.from_dict(cfg.to_dict()) == cfg


class TestSimulate:
    def test_reference_config_shape_and_censoring(self):
        ds = simulate(SimConfig(seed=0))
        assert ds.n_rows == 1000 and ds.covariates.shape == (1000, 5)
        censored = 1.0 - ds.status.mean()
        assert 0.0 < censored < 1.0
        # administrative censoring leaves a point mass at the follow-up cap
        assert (ds.time == 100.0).sum() > 10

    def test_reproducible(self):
        a, b = simulate(SimConfig(seed=5)), simulate(SimConfig(seed=5))
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.time, b.time)
        np.testing.assert_array_equal(a.status, b.status)

    def test_seed_changes_draws(self):
        a, b = simulate(SimConfig(seed=5)), simulate(SimConfig(seed=6))
        assert not np.array_equal(a.time, b.time)

    def test_administrative_censoring_flags(self):
        ds = simulate(SimConfig(seed=1))
        at_cap = ds.time == 100.0
        assert at_cap.any()
        assert (ds.status[at_cap] == 0).all()
        assert (ds.time > 0).all() and (ds.time <= 100.0).all()

    def test_null_coefficients_give_independent_time(self):
        cfg0 = SimConfig(seed=3, coefficients=(0.0,) * 5)
        ds = simulate(cfg0)
        est = EstimatorConfig()
        ces = [
            copula_entropy(np.column_stack([ds.time, ds.covariates[:, j]]), est)
            for j in range(5)
        ]
        assert max(abs(c) for c in ces) < 0.1

    def test_huge_censor_scale_removes_censoring(self):
        for seed in range(5):
            cfg = SimConfig(seed=seed, censor_log_scale=20.0, max_follow_up=1e9)
            ds = simulate(cfg)
            assert 1.0 - ds.status.mean() < 0.01


class TestSurvivalDataset:
    def test_rejects_nonpositive_time(self):
        with pytest.raises(InvalidInputError):
            SurvivalDataset(np.zeros((2, 1)), [0.0, 1.0], [1, 1], ["a"])

    def test_rejects_bad_status(self):
        with pytest.raises(InvalidInputError):
            SurvivalDataset(np.zeros((2, 1)), [1.0, 2.0], [1, 2], ["a"])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            SurvivalDataset(np.zeros((3, 1)), [1.0, 2.0], [1, 0], ["a"])

    def test_rejects_repeated_name(self):
        # fit and select pick columns by name, so the second "a" could never be chosen.
        with pytest.raises(InvalidInputError, match="unique"):
            SurvivalDataset(np.zeros((2, 2)), [1.0, 2.0], [1, 0], ["a", "a"])

    @pytest.mark.parametrize("covariates, names, shown", [
        (np.zeros(2), ["a"], "covariates must be a 2-D matrix"),
        (np.zeros((2, 2)), ["a"], "one name per covariate column required"),
        ([[0.0], [np.inf]], ["a"], "covariates contain non-finite values"),
    ], ids=["one_dimensional", "name_count", "non_finite"])
    def test_rejects_malformed_covariates(self, covariates, names, shown):
        with pytest.raises(InvalidInputError, match=shown):
            SurvivalDataset(covariates, [1.0, 2.0], [1, 0], names)

    def test_column_lookup(self):
        ds = SurvivalDataset(np.array([[1.0, 2.0], [3.0, 4.0]]), [1, 2], [1, 0], ["a", "b"])
        np.testing.assert_array_equal(ds.column("b"), [2.0, 4.0])
