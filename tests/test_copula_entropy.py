import hashlib
import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.special import digamma

from cesurv.copula_entropy import (
    _JITTER_STREAM_TAG,
    EstimatorConfig,
    _column_stream,
    _kth_nn_distance,
    _unit_cube_entropies,
    as_sample_matrix,
    copula_entropy,
    empirical_copula,
    knn_entropy,
)
from cesurv.errors import InvalidInputError
from cesurv.survsim import SimConfig, simulate

# The package re-exports the function copula_entropy under the module's name.
ce_mod = importlib.import_module("cesurv.copula_entropy")
CFG = EstimatorConfig()
# Thread counts the kd-tree search is checked under; 3 and 4 exceed the CPUs
# of a 2-CPU machine, which the search must handle alike.
THREAD_COUNTS = (1, 2, 3, 4)
# The neighbor searches are checked under the estimator's one norm, the max
# norm (p=inf), whose name the test ids carry.
MAX_NORM = pytest.mark.parametrize("p", [np.inf], ids=["max"])


def kth_nn_distance_brute(u, k):
    """Max-norm distance from each row to its k-th nearest other row, all pairs.

    The reference the kd-tree search is compared against.
    """
    n = u.shape[0]
    out = np.empty(n)
    chunk = max(1, int(2e7) // max(n, 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        dist = np.abs(u[start:stop, None, :] - u[None, :, :]).max(axis=2)
        dist[np.arange(stop - start), np.arange(start, stop)] = np.inf
        out[start:stop] = np.partition(dist, k - 1, axis=1)[:, k - 1]
    return out
NULL_SEEDS = tuple(range(100, 110))


def gaussian_pair(rho, n, seed):
    rng = np.random.default_rng(seed)
    z1, z2 = rng.standard_normal(n), rng.standard_normal(n)
    return np.column_stack([z1, rho * z1 + math.sqrt(1.0 - rho * rho) * z2])


class TestSampleMatrix:
    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            as_sample_matrix(np.array([[1.0, np.nan], [2.0, 3.0]]))

    def test_rejects_single_row(self):
        with pytest.raises(InvalidInputError):
            as_sample_matrix(np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("values, shown", [
        (np.zeros((2, 2, 2)), r"sample matrix must be 2-D, got shape \(2, 2, 2\)"),
        (np.zeros((3, 0)), "need at least 1 column"),
    ], ids=["three_dimensional", "no_columns"])
    def test_rejects_shape(self, values, shown):
        with pytest.raises(InvalidInputError, match=shown):
            as_sample_matrix(values)

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

    def test_ranks_by_value_where_std_overflows(self):
        # The std of values near 1e200 overflows; the ranks must still follow
        # the values, up to the largest float, with no floating-point warning.
        top = 1.7976931348623157e308
        cases = [
            ([3e200, 1e200, 2e200, -1e200, 0, 5e200], [5, 3, 4, 1, 2, 6]),
            ([top, 1.79769313486e308, -top, 0, 1e308], [5, 4, 1, 2, 3]),
        ]
        for values, ranks in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = empirical_copula(values, CFG)
            assert (out.ravel() * len(values)).tolist() == ranks

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(6, 80),
        gap=st.floats(1e-12, 5e-11),
        tied=st.integers(0, 3),
    )
    @example(seed=1, n=50, gap=3e-11, tied=0)
    def test_invariant_to_increasing_maps_of_close_values(self, seed, n, gap, tied):
        # Two distinct values 1e-12 to 5e-11 apart, far below 1e-10 x std,
        # and optionally a tied block: exp, x**3 and 10*x keep every value
        # distinct here, so each must leave the copula bitwise unchanged.
        x = np.random.default_rng(seed).standard_normal(n)
        x[1] = x[0] + gap
        x[n - tied:] = x[n - tied - 1]
        mapped = [np.exp(x), x**3, 10 * x]
        assume(all(np.unique(y).size == np.unique(x).size for y in mapped))
        want = empirical_copula(x, CFG).tobytes()
        for y in mapped:
            assert empirical_copula(y, CFG).tobytes() == want


class TestKnnEntropy:
    def test_uniform_1d(self):
        rng = np.random.default_rng(10)
        h = knn_entropy(rng.random((1000, 1)), CFG)
        assert abs(h) < 0.1

    def test_unit_square(self):
        rng = np.random.default_rng(12)
        h = knn_entropy(rng.random((1000, 2)), CFG)
        assert abs(h) < 0.1

    def test_rejects_n_not_above_k(self):
        with pytest.raises(InvalidInputError):
            knn_entropy(np.zeros((3, 1)), EstimatorConfig(k=3))
        with pytest.raises(InvalidInputError, match="need more than k=3 rows, got 3"):
            copula_entropy(np.arange(6.0).reshape(3, 2), EstimatorConfig(k=3))

    @pytest.mark.parametrize("sample", [
        np.random.default_rng(11).standard_normal((2000, 1)),
        np.random.default_rng(14).random((500, 2)) * 1.5,
        np.vstack([[-1e-12, 0.5], np.random.default_rng(14).random((499, 2))]),
        np.vstack([[0.5, 1.0 + 2**-52], np.random.default_rng(14).random((499, 2))]),
    ], ids=["gaussian", "scaled_by_1.5", "just_below_0", "just_above_1"])
    def test_rejects_sample_outside_unit_cube(self, sample):
        # The clipped cube volumes are defined on [0, 1]^d only; outside it
        # a width can be negative and its log nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=r"unit cube \[0, 1\]\^d"):
                knn_entropy(sample, CFG)


class TestNeighborSearch:
    @MAX_NORM
    def test_tree_bitwise_equals_brute(self, p):
        # The accelerated path must be indistinguishable from the reference.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            u = empirical_copula(rng.random((200, 3)), CFG)
            brute = kth_nn_distance_brute(u, 3)
            np.testing.assert_array_equal(brute, self.plain_tree_distance(u, 3, p))
            np.testing.assert_array_equal(brute, _kth_nn_distance(u, 3))

    @staticmethod
    def plain_tree_distance(u, k, p):
        return cKDTree(u).query(u, k + 1, p=p)[0][:, k]

    @staticmethod
    def assert_equal_on_every_thread_count(u, p, monkeypatch):
        # From 100 rows, every table here is split over `cpus` threads.
        plain = TestNeighborSearch.plain_tree_distance(u, 3, p)
        for cpus in THREAD_COUNTS:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(ce_mod, "_CPUS", cpus)
                m.setattr(ce_mod, "_JOB_MAX_ROWS", 100)
                np.testing.assert_array_equal(_kth_nn_distance(u, 3), plain)

    @MAX_NORM
    def test_leaf_order_equals_plain_tree_on_large_simulation(self, p, monkeypatch):
        # The copulas a ranking builds at 2*10^4 rows, including discrete
        # covariates coded like the cancer table's sex (1/2) and ph.ecog (0-3).
        n = 20_000
        ds = simulate(SimConfig(seed=3, n_subjects=n))
        rng = np.random.default_rng([3, 1])
        sex = 1.0 + (rng.random(n) < 0.4)
        ecog = rng.choice(4, size=n, p=[0.28, 0.50, 0.20, 0.02]).astype(float)
        ts = np.column_stack([ds.time, ds.status.astype(float)])
        for cov in (ds.covariates[:, 0], sex, ecog):
            for x in (np.column_stack([ts[:, 0], cov]), np.column_stack([ts, cov])):
                u = empirical_copula(x, CFG)
                self.assert_equal_on_every_thread_count(u, p, monkeypatch)

    @MAX_NORM
    def test_leaf_order_equals_plain_tree_on_tied_grid(self, p, monkeypatch):
        # Many exact duplicates and equidistant neighbors.
        rng = np.random.default_rng(31)
        for d, levels in ((2, 6), (3, 4)):
            u = rng.integers(1, levels + 1, (5000, d)) / levels
            self.assert_equal_on_every_thread_count(u, p, monkeypatch)

    @pytest.mark.parametrize("n", [137, 1000, 10_000, 20_000])
    def test_job_pool_equals_one_search_at_a_time(self, n, monkeypatch):
        # The copulas a ranking scores, including covariates coded like the
        # cancer table's sex (1/2) and ph.ecog (0-3), and a tied grid.
        ds = simulate(SimConfig(seed=n, n_subjects=n))
        rng = np.random.default_rng([n, 1])
        sex = 1.0 + (rng.random(n) < 0.4)
        ecog = rng.choice(4, size=n, p=[0.28, 0.50, 0.20, 0.02]).astype(float)
        grid = rng.integers(1, 7, (n, 2)) / 6.0
        samples = [empirical_copula(np.column_stack([ds.time, cov]), CFG)
                   for cov in (ds.covariates[:, 0], sex, ecog)]
        samples += [empirical_copula(np.column_stack([ds.time, ds.status, cov]), CFG) for cov in (sex, ecog)]
        samples += [grid, np.column_stack([grid, sex / 2])]
        monkeypatch.setattr(ce_mod, "_CPUS", 1)
        want = [knn_entropy(u, CFG) for u in samples]
        for cpus in THREAD_COUNTS:
            monkeypatch.setattr(ce_mod, "_CPUS", cpus)
            assert _unit_cube_entropies(iter(samples), n, CFG) == want

    def test_threads_follow_the_row_count_rule(self, monkeypatch):
        # The bundled tables, the paper's 1000-row simulation and every table
        # below _JOB_MAX_ROWS query on one thread; from there, on all CPUs.
        seen = []

        class RecordingTree(cKDTree):
            def query(self, *args, **kwargs):
                seen.append(kwargs.get("workers", 1))
                return super().query(*args, **kwargs)

        monkeypatch.setattr(ce_mod, "_CPUS", 4)
        monkeypatch.setattr(ce_mod, "cKDTree", RecordingTree)
        for n in (137, 167, 1000, 10_000, 49_999, 50_000):
            _kth_nn_distance(np.random.default_rng(n).random((n, 3)), 3)
        assert seen == [1, 1, 1, 1, 1, 4]

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
        y[::9] = y[0]  # ties exercise the tie-break draws
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
            assert (ds.time == SimConfig(seed=s).max_follow_up).sum() > 50
            ts = np.column_stack([ds.time, ds.status])
            x = np.random.default_rng((s, 1)).integers(0, 2, ds.n_rows).astype(float)
            vals.append(
                copula_entropy(np.column_stack([ts, x]), CFG) - copula_entropy(ts, CFG)
            )
        assert abs(float(np.mean(vals))) <= 0.05

    @pytest.mark.parametrize("offset", [1e7, 1e12])
    def test_offset_where_jitter_rounds_away(self, offset):
        # The offset keeps the tie pattern of each column, so ties must still
        # be ordered by each column's own draws, not by the row order all
        # columns share, and the estimate must not move.
        x = np.random.default_rng(5).integers(0, 2, (1000, 2)).astype(float)
        assert copula_entropy(x + offset, CFG) == copula_entropy(x, CFG)
        assert abs(copula_entropy(x + offset, CFG)) < 0.1

    def test_deterministic(self):
        x = gaussian_pair(0.6, 500, seed=24)
        assert copula_entropy(x, CFG) == copula_entropy(x, CFG)

    def test_rejects_single_column(self):
        rng = np.random.default_rng(25)
        with pytest.raises(InvalidInputError):
            copula_entropy(rng.random((100, 1)), CFG)


class TestEstimatorConfig:
    def test_rejects_bad_k(self):
        for k in (0, 2.5, True):
            with pytest.raises(InvalidInputError):
                EstimatorConfig(k=k)

    def test_fields(self):
        assert EstimatorConfig().to_dict() == {"k": 3, "jitter_seed": 0}

    def test_rejects_negative_jitter_seed(self):
        for seed in (-1, 1.5):
            with pytest.raises(InvalidInputError):
                EstimatorConfig(jitter_seed=seed)


# Values that tie, sit at the float limits or carry a sign on zero.
LEVELS = (-0.0, 0.0, 1.0, -1.5, 2.0, 5e-324, 1e-300, 7.25)


@st.composite
def sample_matrices(draw, max_rows=60, max_cols=4):
    """Sample matrices whose columns are free floats, tied levels or constant."""
    n = draw(st.integers(2, max_rows))
    columns = []
    for _ in range(draw(st.integers(1, max_cols))):
        kind = draw(st.sampled_from(("floats", "tied", "constant")))
        if kind == "floats":
            column = draw(st.lists(st.floats(-1e100, 1e100), min_size=n, max_size=n))
        elif kind == "tied":
            column = draw(st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n))
        else:
            column = [draw(st.sampled_from(LEVELS))] * n
        columns.append(column)
    x = np.array(columns, dtype=float).T
    return np.asfortranarray(x) if draw(st.booleans()) else x


def stream_key_by_unique(col):
    """The tie-break stream key as first defined: blake2b of np.unique's inverse."""
    dense = np.unique(col, return_inverse=True)[1]
    return int.from_bytes(hashlib.blake2b(dense.astype("<i8").tobytes(), digest_size=8).digest(), "little")


def empirical_copula_whole_matrix(x, cfg):
    """The whole-matrix formula the column loop replaced, as the reference:
    every column's draws at once, each column ordered by np.lexsort((draws, values))."""
    x = as_sample_matrix(x)
    n = x.shape[0]
    u = np.column_stack([
        np.random.default_rng((_JITTER_STREAM_TAG, cfg.jitter_seed, stream_key_by_unique(col))).random(n)
        for col in x.T
    ])
    ranks = np.empty(x.shape, dtype=np.intp)
    for j in range(x.shape[1]):
        ranks[np.lexsort((u[:, j], x[:, j])), j] = np.arange(1, n + 1)
    return ranks / float(n)


def knn_entropy_whole_matrix(u, cfg):
    """The boundary-corrected estimate with the n x d widths matrix, as the reference."""
    n = u.shape[0]
    r = np.maximum(_kth_nn_distance(u, cfg.k), ce_mod._EPS_FLOOR)[:, None]
    widths = np.minimum(u + r, 1.0) - np.maximum(u - r, 0.0)
    return -digamma(float(cfg.k)) + digamma(float(n)) + float(np.log(widths).sum(axis=1).mean())


class TestColumnAtATime:
    """The bounded-memory kernels give bitwise the numbers of the whole-matrix formulas."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(x=sample_matrices(), seed=st.integers(0, 2**32))
    def test_empirical_copula_equals_whole_matrix_formula(self, x, seed):
        cfg = EstimatorConfig(jitter_seed=seed)
        out = empirical_copula(x, cfg)
        assert out.tobytes() == empirical_copula_whole_matrix(x, cfg).tobytes()
        assert out.flags.c_contiguous

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(x=sample_matrices(max_cols=1), seed=st.integers(0, 2**32))
    def test_column_stream_key_equals_unique_inverse_hash(self, x, seed):
        # The dense ranks the column's order passes to its stream are
        # np.unique's inverse; a column without ties takes no stream.
        col = x[:, 0]
        cfg = EstimatorConfig(jitter_seed=seed)
        passed = []

        def spy(dense, cfg):
            passed.append(dense.copy())
            return _column_stream(dense, cfg)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(ce_mod, "_column_stream", spy)
            ce_mod._copula_order(col, cfg)
        dense = np.unique(col, return_inverse=True)[1]
        if dense.max() == col.size - 1:
            assert passed == []
            return
        [key] = passed
        assert key.dtype == np.dtype("<i8") and key.tobytes() == dense.astype("<i8").tobytes()
        expected = np.random.default_rng((_JITTER_STREAM_TAG, seed, stream_key_by_unique(col)))
        assert _column_stream(key, cfg).bit_generator.state == expected.bit_generator.state

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        u=st.integers(1, 12).flatmap(lambda d: st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d), min_size=1, max_size=40)),
        radii=st.lists(st.floats(5e-13, 1.0), min_size=40, max_size=40),
        block_rows=st.sampled_from((1, 3, 7, 4096)),
        fortran=st.booleans(),
    )
    def test_block_widths_sum_equals_whole_matrix(self, u, radii, block_rows, fortran):
        def whole_matrix(u):
            return np.log(np.minimum(u + r[:, None], 1) - np.maximum(u - r[:, None], 0)).sum(axis=1).mean()

        u = np.array(u)
        r = np.array(radii[: len(u)])
        expected = whole_matrix(u)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(ce_mod, "_WIDTH_BLOCK_ROWS", block_rows)
            if fortran:
                # Numpy adds the rows of a Fortran-order matrix left to right,
                # which the pairwise sum of a C-order row matches below 8 columns.
                u = np.asfortranarray(u)
                if u.shape[1] < 8:
                    assert whole_matrix(u) == expected
            assert ce_mod._log_clipped_widths(u, r).mean() == expected

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("n", [5, 150, 5000])
    def test_knn_entropy_equals_whole_matrix_formula(self, n, d):
        u = empirical_copula(np.random.default_rng(n + d).integers(0, 4, (n, d)).astype(float), CFG)
        assert knn_entropy(u, CFG) == knn_entropy_whole_matrix(u, CFG)


class TestScratchMemory:
    """Single-call traced peaks at 10^5 rows: the output plus a few columns."""

    N = 100_000

    def test_copula_of_time_and_status(self, traced_peak):
        ds = simulate(SimConfig(seed=4, n_subjects=self.N))
        ts = np.column_stack([ds.time, ds.status.astype(float)])
        out, peak = traced_peak(lambda: empirical_copula(ts, CFG))
        assert out.shape == (self.N, 2)
        assert peak < 6 * 2**20  # the output alone is 1.5 MiB; the matrix formula took 8.7 MiB

    def test_knn_entropy_in_3d(self, traced_peak):
        ds = simulate(SimConfig(seed=4, n_subjects=self.N))
        u = empirical_copula(np.column_stack([ds.time, ds.status, ds.covariates[:, 0]]), CFG)
        _, peak = traced_peak(lambda: knn_entropy(u, CFG))
        assert peak < 6 * 2**20  # the n x 3 widths matrices took 8.4 MiB
