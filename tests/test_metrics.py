import tracemalloc

import numpy as np
import pytest

from cesurv.errors import InvalidInputError, UndefinedMetricError
from cesurv.metrics import c_index, mae


def c_index_bruteforce(pred, time, status):
    """Independent pairwise enumeration used as the oracle."""
    score, pairs = 0.0, 0
    n = len(pred)
    for i in range(n):
        for j in range(n):
            if time[i] < time[j] and status[i] == 1:
                pairs += 1
                if pred[i] < pred[j]:
                    score += 1.0
                elif pred[i] == pred[j]:
                    score += 0.5
    if pairs == 0:
        raise ZeroDivisionError
    return score / pairs, pairs


class TestCIndex:
    def test_perfectly_concordant(self):
        c, pairs = c_index([1, 2, 3], [1, 2, 3], [1, 1, 1])
        assert c == 1.0 and pairs == 3

    def test_perfectly_discordant(self):
        c, _ = c_index([3, 2, 1], [1, 2, 3], [1, 1, 1])
        assert c == 0.0

    def test_hand_enumerated_censored_case(self):
        c, pairs = c_index([1.5, 1.0, 2.5], [1, 2, 3], [1, 0, 1])
        assert c == 0.5 and pairs == 2

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(2, 60))
            time = rng.integers(1, 12, size=n).astype(float)  # plenty of time ties
            status = rng.integers(0, 2, size=n)
            pred = np.round(rng.random(n) * 4.0, 1)  # prediction ties too
            if not ((time[:, None] < time[None, :]) & (status[:, None] == 1)).any():
                continue
            got = c_index(pred, time, status)
            want = c_index_bruteforce(pred, time, status)
            assert got == want

    @pytest.mark.parametrize("case", ["discrete_pred", "capped_time", "single_event", "large"])
    def test_matches_bruteforce_on_heavy_ties(self, case):
        rng = np.random.default_rng({"discrete_pred": 1, "capped_time": 2,
                                     "single_event": 3, "large": 4}[case])
        n = 2000 if case == "large" else 300
        time = np.round(rng.exponential(2.0, size=n), 1) + 0.1
        status = rng.integers(0, 2, size=n)
        pred = np.round(rng.normal(size=n), 2)
        if case == "discrete_pred":
            pred = rng.integers(0, 3, size=n).astype(float)
        elif case == "capped_time":
            capped = time >= 1.5  # administrative follow-up cap
            time[capped], status[capped] = 1.5, 0
        elif case == "single_event":
            status[:] = 0
            status[int(np.argmin(time))] = 1
        elif case == "large":
            pred = rng.integers(0, 40, size=n).astype(float)
        assert c_index(pred, time, status) == c_index_bruteforce(pred, time, status)

    def test_memory_linear_at_1e5_rows(self):
        # Dense pairwise matrices would need about 30 GB at this size.
        rng = np.random.default_rng(10)
        n = 100_000
        time = rng.exponential(1.0, size=n)
        status = rng.integers(0, 2, size=n)
        pred = np.round(time + rng.normal(size=n), 2)
        tracemalloc.start()
        try:
            c, pairs = c_index(pred, time, status)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert 0.5 < c < 1.0 and pairs > n

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(7)
        time = rng.random(80) + 0.1
        status = rng.integers(0, 2, size=80)
        pred = rng.random(80)
        c1, _ = c_index(pred, time, status)
        c2, _ = c_index(np.exp(3.0 * pred), time, status)
        assert c1 == c2

    def test_reversal_complements_to_one(self):
        rng = np.random.default_rng(8)
        time = np.arange(1.0, 41.0)
        status = rng.integers(0, 2, size=40)
        status[0] = 1
        pred = rng.permutation(40).astype(float)  # tie-free predictions
        c1, _ = c_index(pred, time, status)
        c2, _ = c_index(-pred, time, status)
        assert abs(c1 + c2 - 1.0) < 1e-12

    def test_no_comparable_pairs_raises(self):
        with pytest.raises(UndefinedMetricError):
            c_index([1, 2], [5.0, 5.0], [1, 1])  # tied times are not comparable

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            c_index([1, 2], [1, 2, 3], [1, 1, 1])


@pytest.mark.parametrize("metric", [c_index, mae])
@pytest.mark.parametrize("pred, time, status, shown", [
    ([1.0], [1.0], [1], "need at least 2 observations"),
    ([1.0, np.nan], [1.0, 2.0], [1, 0], "predictions and times must be finite"),
    ([1.0, 2.0], [1.0, np.inf], [1, 0], "predictions and times must be finite"),
    ([1.0, 2.0], [1.0, 2.0], [1, 2], "status flags must be 0 or 1"),
], ids=["one_row", "nan_prediction", "inf_time", "status_2"])
def test_rejects_invalid_vectors(metric, pred, time, status, shown):
    with pytest.raises(InvalidInputError, match=shown):
        metric(pred, time, status)


class TestMae:
    def test_zero_when_exact(self):
        val, n = mae([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1, 0, 1])
        assert val == 0.0 and n == 2

    def test_censored_rows_excluded(self):
        val, n = mae([2.0, 100.0], [1.0, 2.0], [1, 0])
        assert val == 1.0 and n == 1

    def test_arithmetic(self):
        val, n = mae([2.0, 2.0, 1.0], [1.0, 2.0, 4.0], [1, 1, 1])
        assert abs(val - 4.0 / 3.0) < 1e-12 and n == 3

    def test_translation_bound(self):
        rng = np.random.default_rng(9)
        time = rng.random(50) + 0.5
        status = np.ones(50, dtype=int)
        pred = rng.random(50) + 0.5
        base, _ = mae(pred, time, status)
        for c in (0.25, 1.0, 3.0):
            shifted, _ = mae(pred + c, time, status)
            assert shifted <= base + c + 1e-12
        big, _ = mae(pred + 100.0, time, status)  # all residuals positive
        assert abs(big - (mae(pred + 99.0, time, status)[0] + 1.0)) < 1e-9

    def test_no_events_raises(self):
        with pytest.raises(UndefinedMetricError):
            mae([1.0, 2.0], [1.0, 2.0], [0, 0])
