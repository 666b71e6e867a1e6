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

    def test_column_lookup(self):
        ds = SurvivalDataset(np.array([[1.0, 2.0], [3.0, 4.0]]), [1, 2], [1, 0], ["a", "b"])
        np.testing.assert_array_equal(ds.column("b"), [2.0, 4.0])
