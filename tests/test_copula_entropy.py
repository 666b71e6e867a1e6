import math

import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma

from cesurv.copula_entropy import (
    EstimatorConfig,
    _kth_nn_distance,
    as_sample_matrix,
    copula_entropy,
    digamma,
    empirical_copula,
    knn_entropy,
)
from cesurv.errors import InvalidInputError
from cesurv.survsim import SimConfig, simulate

CFG = EstimatorConfig()


def kth_nn_distance_brute(u, k, norm):
    """Distance from each row to its k-th nearest other row, all pairs.

    The reference the kd-tree search is compared against.
    """
    n = u.shape[0]
    out = np.empty(n)
    chunk = max(1, int(2e7) // max(n, 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = u[start:stop, None, :] - u[None, :, :]
        if norm == "max":
            dist = np.abs(diff).max(axis=2)
        else:
            dist = np.sqrt((diff * diff).sum(axis=2))
        dist[np.arange(stop - start), np.arange(start, stop)] = np.inf
        out[start:stop] = np.partition(dist, k - 1, axis=1)[:, k - 1]
    return out
NULL_SEEDS = tuple(range(100, 110))


def gaussian_pair(rho, n, seed):
    rng = np.random.default_rng(seed)
    z1, z2 = rng.standard_normal(n), rng.standard_normal(n)
    return np.column_stack([z1, rho * z1 + math.sqrt(1.0 - rho * rho) * z2])


class TestDigamma:
    def test_euler_mascheroni(self):
        assert abs(digamma(1.0) - (-0.5772156649)) < 1e-9

    def test_matches_scipy_on_grid(self):
        for x in (0.25, 0.5, 1.0, 2.0, 3.0, 5.5, 6.0, 10.0, 167.0, 2000.0):
            assert abs(digamma(x) - scipy_digamma(x)) < 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            digamma(0.0)


class TestSampleMatrix:
    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            as_sample_matrix(np.array([[1.0, np.nan], [2.0, 3.0]]))

    def test_rejects_single_row(self):
        with pytest.raises(InvalidInputError):
            as_sample_matrix(np.array([[1.0, 2.0]]))

    def test_promotes_1d_to_column(self):
        assert as_sample_matrix([1.0, 2.0, 3.0]).shape == (3, 1)


class TestEmpiricalCopula:
    def test_rank_over_n(self):
        out = empirical_copula(np.array([[3.2], [1.1], [2.5]]), CFG)
        np.testing.assert_allclose(out.ravel(), [1.0, 1 / 3, 2 / 3])

    def test_invariant_to_monotone_map(self):
        rng = np.random.default_rng(1)
        x = rng.random(50) + 0.5
        a = empirical_copula(x[:, None], CFG)
        b = empirical_copula(np.log(x)[:, None], CFG)
        np.testing.assert_array_equal(a, b)

    def test_tie_break_fixture(self):
        # The strictly smallest value gets rank 1, the tied pair splits {2, 3}
        # and a repeat call is identical.
        x = np.array([[5.0], [5.0], [1.0]])
        out = empirical_copula(x, CFG).ravel()
        assert out[2] == 1 / 3
        assert sorted(out[:2]) == [2 / 3, 1.0]
        np.testing.assert_array_equal(out, empirical_copula(x, CFG).ravel())
        # Frozen order of the column's own tie-break stream at jitter_seed=0.
        # The earlier frozen value [2/3, 1, 1/3] came from a stream shared by
        # all columns, which ordered tied blocks identically across columns.
        np.testing.assert_allclose(out, [1.0, 2 / 3, 1 / 3])

    def test_tie_free_column_is_grid_permutation(self):
        rng = np.random.default_rng(2)
        out = empirical_copula(rng.standard_normal((40, 2)), CFG)
        for j in range(2):
            np.testing.assert_allclose(np.sort(out[:, j]), np.arange(1, 41) / 40.0)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(3)
        out = empirical_copula(rng.integers(0, 3, size=(30, 2)).astype(float), CFG)
        assert (out > 0).all() and (out <= 1).all()

    def test_rejects_one_row(self):
        with pytest.raises(InvalidInputError):
            empirical_copula(np.array([[1.0, 2.0]]), CFG)


class TestKnnEntropy:
    def test_uniform_1d(self):
        rng = np.random.default_rng(10)
        h = knn_entropy(rng.random((1000, 1)), CFG)
        assert abs(h) < 0.1

    def test_gaussian_1d(self):
        rng = np.random.default_rng(11)
        h = knn_entropy(rng.standard_normal((2000, 1)), CFG)
        assert abs(h - 0.5 * math.log(2 * math.pi * math.e)) < 0.1

    def test_unit_square(self):
        rng = np.random.default_rng(12)
        h = knn_entropy(rng.random((1000, 2)), CFG)
        assert abs(h) < 0.1

    def test_scaling_shifts_by_log_volume(self):
        # H(aX) = H(X) + log a, exactly mirrored by the distance term.
        rng = np.random.default_rng(13)
        x = rng.random((500, 1))
        h1 = knn_entropy(x, CFG)
        h2 = knn_entropy(3.0 * x, CFG)
        assert abs(h2 - h1 - math.log(3.0)) < 1e-9

    def test_euclidean_matches_max_for_1d(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((300, 1))
        h_max = knn_entropy(x, EstimatorConfig(norm="max"))
        h_euc = knn_entropy(x, EstimatorConfig(norm="euclidean"))
        assert abs(h_max - h_euc) < 1e-12

    def test_rejects_n_not_above_k(self):
        with pytest.raises(InvalidInputError):
            knn_entropy(np.zeros((3, 1)), EstimatorConfig(k=3))


class TestNeighborSearch:
    @pytest.mark.parametrize("norm", ["max", "euclidean"])
    def test_tree_bitwise_equals_brute(self, norm):
        # The accelerated path must be indistinguishable from the reference.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            u = empirical_copula(rng.random((200, 3)), CFG)
            brute = kth_nn_distance_brute(u, 3, norm)
            tree = _kth_nn_distance(u, 3, norm)
            np.testing.assert_array_equal(brute, tree)

    def test_duplicate_points_hit_distance_floor(self):
        u = np.array([[0.5, 0.5]] * 6)
        h = knn_entropy(u, EstimatorConfig(k=3))
        assert np.isfinite(h) and h < -20


class TestCopulaEntropy:
    def test_gaussian_oracle(self):
        for rho in (0.5, 0.75, 0.9):
            target = 0.5 * math.log(1.0 - rho * rho)
            est = copula_entropy(gaussian_pair(rho, 2000, seed=0), CFG)
            assert abs(est - target) < 0.1

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(20)
        assert abs(copula_entropy(rng.random((1000, 2)), CFG)) < 0.1

    def test_identical_columns_beat_rho99(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal(2000)
        ident = copula_entropy(np.column_stack([z, z]), CFG)
        near = copula_entropy(gaussian_pair(0.99, 2000, seed=21), CFG)
        assert ident < near < 0

    def test_column_swap_bitwise_symmetry(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(400)
        y = 0.5 * x + rng.standard_normal(400)
        y[::9] = y[0]  # ties exercise the jitter path
        # A binary column against a heavily tied one: every row sits in a
        # tied block of both columns.
        b = rng.integers(0, 2, 400).astype(float)
        c = np.minimum(rng.integers(0, 6, 400) + b, 4.0)
        for p, q in ((x, y), (b, c)):
            assert copula_entropy(np.column_stack([p, q]), CFG) == copula_entropy(
                np.column_stack([q, p]), CFG
            )

    def test_monotone_transform_bitwise_invariance(self):
        rng = np.random.default_rng(23)
        x = np.abs(rng.standard_normal((500, 2))) + 0.5
        base = copula_entropy(x, CFG)
        logged = x.copy()
        logged[:, 0] = np.log(logged[:, 0])
        cubed = x.copy()
        cubed[:, 1] = cubed[:, 1] ** 3
        assert base == copula_entropy(logged, CFG) == copula_entropy(cubed, CFG)

    def test_mean_near_zero_under_independence(self):
        vals = [
            copula_entropy(np.random.default_rng(100 + s).random((1000, 2)), CFG)
            for s in range(10)
        ]
        assert abs(float(np.mean(vals))) < 0.05

    # Independence nulls on tied data: criterion 2's gate (|mean| <= 0.05
    # over 10 seeds at N=1000) applied to discrete columns, a binary status
    # and times tied at the follow-up cap.  Covariates come from a seed
    # stream apart from the simulator's, so independence holds by
    # construction.  Tie-breaking that is shared across columns puts tied
    # rows on a diagonal and fails these by nats.

    @pytest.mark.parametrize("levels", [2, 4, 10])
    def test_discrete_pair_null(self, levels):
        vals = [
            copula_entropy(
                np.random.default_rng(s).integers(0, levels, (1000, 2)).astype(float), CFG
            )
            for s in NULL_SEEDS
        ]
        assert abs(float(np.mean(vals))) <= 0.05

    def test_discrete_status_null(self):
        vals = []
        for s in NULL_SEEDS:
            status = simulate(SimConfig(seed=s)).status.astype(float)
            x = np.random.default_rng((s, 1)).integers(0, 4, 1000).astype(float)
            vals.append(copula_entropy(np.column_stack([x, status]), CFG))
        assert abs(float(np.mean(vals))) <= 0.05

    def test_capped_time_status_covariate_null(self):
        # CE(time, status, x) - CE(time, status) = -I((time, status); x),
        # zero for a covariate drawn independently of the survival data.
        vals = []
        for s in NULL_SEEDS:
            ds = simulate(SimConfig(seed=s))
            assert (ds.time == ds.attrs["sim_config"]["max_follow_up"]).sum() > 50
            ts = np.column_stack([ds.time, ds.status])
            x = np.random.default_rng((s, 1)).integers(0, 2, ds.n_rows).astype(float)
            vals.append(
                copula_entropy(np.column_stack([ts, x]), CFG) - copula_entropy(ts, CFG)
            )
        assert abs(float(np.mean(vals))) <= 0.05

    def test_deterministic(self):
        x = gaussian_pair(0.6, 500, seed=24)
        assert copula_entropy(x, CFG) == copula_entropy(x, CFG)

    def test_rejects_single_column(self):
        rng = np.random.default_rng(25)
        with pytest.raises(InvalidInputError):
            copula_entropy(rng.random((100, 1)), CFG)

    def test_plain_formula_without_correction(self):
        # boundary_correction=False reproduces the textbook estimator: same
        # value as knn_entropy without support information.
        cfg = EstimatorConfig(boundary_correction=False)
        x = gaussian_pair(0.5, 300, seed=26)
        u = empirical_copula(x, cfg)
        assert copula_entropy(x, cfg) == knn_entropy(u, cfg)


class TestEstimatorConfig:
    def test_rejects_bad_k(self):
        with pytest.raises(InvalidInputError):
            EstimatorConfig(k=0)

    def test_rejects_bad_norm(self):
        with pytest.raises(InvalidInputError):
            EstimatorConfig(norm="manhattan")

    def test_rejects_negative_jitter(self):
        with pytest.raises(InvalidInputError):
            EstimatorConfig(tie_jitter=-1e-3)

    def test_rejects_negative_jitter_seed(self):
        with pytest.raises(InvalidInputError):
            EstimatorConfig(jitter_seed=-1)
