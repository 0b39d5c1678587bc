import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from roset import calibrate
from roset.errors import InfeasibleCalibrationError, InvalidArgumentError

# Rank values below were computed with a scipy binomial-CDF oracle before the
# implementation existed and are frozen here.
FROZEN_I_UPPER = {
    (59, 0.05, 0.05): 59,
    (100, 0.05, 0.05): 99,
    (1000, 0.05, 0.05): 962,
    (10000, 0.05, 0.05): 9537,
    (1_000_000, 0.05, 0.05): 950359,
    (100_000, 0.001, 1e-5): 99941,
    (300_000, 0.2, 0.9): 239720,
    (1, 0.5, 0.5): 1,
}
FROZEN_I_LOWER = {
    (59, 0.05, 0.05): 53,
    (100, 0.05, 0.05): 91,
    (1_000_000, 0.05, 0.05): 949641,
    (100_000, 0.001, 1e-5): 99855,
    # a delta this large puts i_lower above i_star
    (300_000, 0.2, 0.9): 240281,
    (1, 0.5, 0.5): 1,
}
FROZEN_CONFIDENCE = {
    (59, 0.05, 0.05): 0.9515054747505769,
    (100, 0.05, 0.05): 0.9629187906726450,
}


def test_min_phase2_size_values():
    assert calibrate.min_phase2_size(0.05, 0.05) == 59
    assert calibrate.min_phase2_size(0.05, 0.2) == 32
    assert calibrate.min_phase2_size(0.5, 0.5) == 1
    assert calibrate.min_phase2_size(0.05, 1e-5) == 225
    assert calibrate.min_phase2_size(0.001, 0.05) == 2995


def test_min_phase2_size_is_minimal_grid():
    for eps in (0.3, 0.1, 0.05, 0.01):
        for delta in (0.2, 0.05, 0.01):
            n = calibrate.min_phase2_size(eps, delta)
            assert (1 - eps) ** n <= delta
            if n > 1:
                assert (1 - eps) ** (n - 1) > delta


def test_index_upper_frozen_values():
    for (n2, eps, delta), want in FROZEN_I_UPPER.items():
        assert calibrate.calib_index_upper(n2, eps, delta) == want
        assert calibrate.calib_index_upper(np.int64(n2), eps, delta) == want
    # a count must be an integer: 59.7 and True are errors, not n2 = 59 and 1
    for n2 in (59.7, True):
        with pytest.raises(InvalidArgumentError, match="n2"):
            calibrate.calib_index_upper(n2, 0.05, 0.05)


def test_index_upper_matches_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(40):
        eps = float(rng.uniform(0.02, 0.4))
        delta = float(rng.uniform(0.01, 0.6))
        n2 = calibrate.min_phase2_size(eps, delta) + int(rng.integers(0, 200))
        got = calibrate.calib_index_upper(n2, eps, delta)
        cdf = stats.binom.cdf(np.arange(n2), n2, 1 - eps)
        want = int(np.argmax(cdf >= 1 - delta - 1e-12)) + 1
        assert got == want, (n2, eps, delta)


def test_index_upper_large_delta_is_below_mean_rank():
    # delta > 0.5 puts the answer below ceil(n2 (1-eps))
    got = calibrate.calib_index_upper(100, 0.05, 0.9)
    cdf = stats.binom.cdf(np.arange(100), 100, 0.95)
    want = int(np.argmax(cdf >= 0.1 - 1e-12)) + 1
    assert got == want < math.ceil(100 * 0.95)


def test_index_upper_requires_min_size():
    with pytest.raises(InfeasibleCalibrationError) as err:
        calibrate.calib_index_upper(58, 0.05, 0.05)
    assert err.value.required_min == 59


def test_index_lower_frozen_values():
    for (n2, eps, delta), want in FROZEN_I_LOWER.items():
        assert calibrate.calib_index_lower(n2, eps, delta) == want
        assert calibrate.calib_index_lower(np.int64(n2), eps, delta) == want
    for n2 in (59.7, True):
        with pytest.raises(InvalidArgumentError, match="n2"):
            calibrate.calib_index_lower(n2, 0.05, 0.05)


def test_index_lower_matches_oracle_randomized():
    rng = np.random.default_rng(7)
    count = 0
    for _ in range(40):
        eps = float(rng.uniform(0.02, 0.4))
        delta = float(rng.uniform(0.01, 0.6))
        n2 = int(rng.integers(2, 400))
        if 1 - eps**n2 < 1 - delta:
            continue
        count += 1
        got = calibrate.calib_index_lower(n2, eps, delta)
        tails = stats.binom.sf(np.arange(n2 + 1) - 1, n2, 1 - eps)  # P(Bin >= r)
        valid = [r for r in range(1, n2 + 1) if tails[r] >= 1 - delta - 1e-12]
        assert got == max(valid), (n2, eps, delta)
    assert count > 20


def test_index_lower_validity_precondition():
    # 1 - 0.5^2 = 0.75 < 0.95
    with pytest.raises(InfeasibleCalibrationError):
        calibrate.calib_index_lower(2, 0.5, 0.05)
    # while (2, 0.05, 0.05) is fine: 1 - 0.05^2 = 0.9975 >= 0.95
    assert calibrate.calib_index_lower(2, 0.05, 0.05) >= 1


def test_index_ranks_hold_two_arrays_at_scale():
    # the pmf table and its cumulative sums share one array of n2 floats;
    # building the table needs one more
    n2 = 10**6
    for index in (calibrate.calib_index_upper, calibrate.calib_index_lower):
        tracemalloc.start()
        try:
            index(n2, 0.05, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n2 + 2**20, (index.__name__, peak)


def test_lower_index_never_exceeds_upper():
    for n2 in (59, 100, 250):
        lo = calibrate.calib_index_lower(n2, 0.05, 0.05)
        hi = calibrate.calib_index_upper(n2, 0.05, 0.05)
        assert 1 <= lo <= hi <= n2


def test_calibrate_size_max_order_statistic():
    rng = np.random.default_rng(0)
    values = np.arange(1.0, 60.0)
    rng.shuffle(values)
    res = calibrate.calibrate_size(values, 0.05, 0.05)
    assert res.i_star == 59 and res.s == 59.0 and res.n2 == 59
    assert not res.tie_warning


def test_calibrate_size_single_value():
    res = calibrate.calibrate_size([3.2], 0.5, 0.5)
    assert res.i_star == 1 and res.s == 3.2


def test_calibrate_size_tie_warning():
    values = np.concatenate([np.arange(1.0, 59.0), [58.0]])
    res = calibrate.calibrate_size(values, 0.05, 0.05)
    assert res.tie_warning
    assert res.s == 58.0


def test_calibrate_size_permutation_invariant():
    rng = np.random.default_rng(5)
    values = rng.normal(size=80) ** 2
    base = calibrate.calibrate_size(values, 0.1, 0.1)
    for _ in range(5):
        rng.shuffle(values)
        again = calibrate.calibrate_size(values, 0.1, 0.1)
        assert again.s == base.s and again.i_star == base.i_star


def test_calibrate_size_too_few():
    with pytest.raises(InfeasibleCalibrationError):
        calibrate.calibrate_size(np.ones(10), 0.05, 0.05)
    with pytest.raises(InvalidArgumentError):
        calibrate.calibrate_size([np.inf], 0.5, 0.5)


def test_theoretical_confidence_frozen():
    for (n2, eps, delta), want in FROZEN_CONFIDENCE.items():
        got = calibrate.upper_rank_confidence(n2, eps, delta)[1]
        assert abs(got - want) < 1e-10
    assert abs(calibrate.upper_rank_confidence(1, 0.5, 0.5)[1] - 0.5) < 1e-15


def test_theoretical_confidence_dominates_target():
    for n2 in range(59, 140):
        assert calibrate.upper_rank_confidence(n2, 0.05, 0.05)[1] >= 0.95 - 1e-12


def test_appendix_curve_local_maxima():
    dt = {
        n2: 1.0 - calibrate.upper_rank_confidence(n2, 0.05, 0.05)[1]
        for n2 in range(59, 202)
    }
    maxima = [n for n in range(60, 200) if dt[n] > dt[n - 1] and dt[n] > dt[n + 1]]
    if dt[59] > dt[60]:
        maxima.insert(0, 59)
    assert maxima == [59, 93, 124, 153, 181]


def test_beta_binomial_identity():
    for n2 in (59, 100, 500):
        i_star = calibrate.calib_index_upper(n2, 0.05, 0.05)
        lhs = stats.beta.sf(0.95, i_star, n2 - i_star + 1)
        rhs = calibrate.binom_cdf(i_star - 1, n2, 0.95)
        assert abs(lhs - rhs) < 1e-10


def test_binom_cdf_against_scipy_wide():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 5000))
        p = float(rng.uniform(0.01, 0.99))
        k = int(rng.integers(0, n + 1))
        assert abs(calibrate.binom_cdf(k, n, p) - stats.binom.cdf(k, n, p)) < 1e-11


def test_binom_cdf_reads_counts_and_probability():
    # a fractional k was P(Bin <= ceil(k)), 0.6496 at k = 2.5
    assert calibrate.binom_cdf(2, 10, 0.3) == pytest.approx(stats.binom.cdf(2, 10, 0.3),
                                                            abs=1e-12)
    assert calibrate.binom_cdf(np.int64(2), np.int64(10), np.float64(0.3)) == \
        calibrate.binom_cdf(2, 10, 0.3)
    for args, what in (((2.5, 10, 0.3), "k"), ((True, 10, 0.3), "k"),
                       ((2, 10.5, 0.3), "n"), ((2, -1, 0.3), "n"),
                       ((2, 10, 1.5), "p"), ((2, 10, 0.0), "p"), ((2, 10, "0.3"), "p")):
        with pytest.raises(InvalidArgumentError, match=what):
            calibrate.binom_cdf(*args)


def test_binom_cdf_huge_n_no_overflow():
    # log-space terms keep 1e6-scale problems finite; the streaming sum
    # accumulates rounding over ~1e6 terms so only ask for 1e-7
    val = calibrate.binom_cdf(950_000, 1_000_000, 0.95)
    assert abs(val - stats.binom.cdf(950_000, 1_000_000, 0.95)) < 1e-7


def test_coverage_uniform_order_statistic():
    # the i*-th uniform order statistic upper-bounds the 0.95 quantile with
    # the promised confidence
    n2, eps, delta = 80, 0.05, 0.05
    i_star = calibrate.calib_index_upper(n2, eps, delta)
    rng = np.random.default_rng(2024)
    draws = rng.random((10_000, n2))
    kth = np.partition(draws, i_star - 1, axis=1)[:, i_star - 1]
    freq = float(np.mean(kth >= 1 - eps))
    se = math.sqrt(0.95 * 0.05 / 10_000)
    assert freq >= (1 - delta) - 3 * se
