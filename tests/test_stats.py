import math
import random
import sys
import warnings

import numpy as np
import pytest

# scipy is the reference here; without it (numpy alone) the module skips
pytest.importorskip("scipy.stats")
from scipy.special import stdtr
from scipy.stats import pearsonr

from oracles import mann_whitney_reference

from notegraph.errors import (
    EmptySample,
    LengthMismatch,
    OutOfRange,
    TooShort,
    ZeroVariance,
)
from notegraph.stats import (
    EXACT_LIMIT,
    holm_correction,
    mann_kendall,
    mann_whitney_u,
    pearson,
    student_t_p,
)

MODES = ("auto", "exact", "approx")


class TestMannWhitney:
    def test_separated_samples_exact(self):
        res = mann_whitney_u([1, 2, 3], [4, 5, 6], mode="exact")
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(0.1)
        assert res.method == "exact"

    def test_identical_multisets(self):
        res = mann_whitney_u([1, 2, 3], [1, 2, 3], mode="exact")
        assert res.statistic == 4.5
        assert res.p_value == pytest.approx(1.0)

    def test_large_shift_detected_by_approximation(self):
        rng = random.Random(1)
        x = [rng.gauss(0, 1) for _ in range(60)]
        y = [rng.gauss(3, 1) for _ in range(60)]
        res = mann_whitney_u(x, y, mode="approx")
        assert res.p_value < 0.001
        assert res.statistic < 60 * 60 / 2  # x below y

    def test_auto_switches_on_pooled_size(self):
        assert mann_whitney_u([1, 2, 3], [4, 5, 6], mode="auto").method == "exact"
        big = list(range(10))
        assert mann_whitney_u(big, big, mode="auto").method == "normal-approximation"

    def test_symmetry_u_and_p(self):
        rng = random.Random(2)
        for _ in range(50):
            x = [rng.randint(0, 10) for _ in range(5)]
            y = [rng.randint(0, 10) for _ in range(6)]
            a = mann_whitney_u(x, y, mode="exact")
            b = mann_whitney_u(y, x, mode="exact")
            assert a.statistic == pytest.approx(len(x) * len(y) - b.statistic)
            assert a.p_value == pytest.approx(b.p_value)

    def test_exact_vs_approx_agreement(self):
        rng = random.Random(3)
        for _ in range(100):
            x = [rng.gauss(0, 1) for _ in range(6)]
            y = [rng.gauss(rng.uniform(-1, 1), 1) for _ in range(6)]
            exact = mann_whitney_u(x, y, mode="exact").p_value
            approx = mann_whitney_u(x, y, mode="approx").p_value
            assert abs(exact - approx) < 0.02

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            mann_whitney_u([], [1])

    def test_all_tied_approx(self):
        res = mann_whitney_u([5] * 20, [5] * 20, mode="approx")
        assert res.p_value == 1.0 and res.all_tied

    def test_nan_raises(self):
        for x, y in (([1.0, math.nan], [2.0]), ([1.0], [math.nan, 2.0])):
            for mode in MODES:
                with pytest.raises(OutOfRange):
                    mann_whitney_u(x, y, mode=mode)


def assert_matches_reference(x, y, mode):
    """Bit-equal to the pairwise reference: the same float bits for U
    and p, and the same method and all-tied flag."""
    got = mann_whitney_u(x, y, mode=mode)
    want = mann_whitney_reference(x, y, mode=mode)
    assert (repr(got.statistic), repr(got.p_value), got.method, got.all_tied) == (
        repr(want.statistic), repr(want.p_value), want.method, want.all_tied
    ), (x, y, mode)


class TestMannWhitneyMatchesPairwiseReference:
    def test_random_tie_heavy_samples(self):
        rng = random.Random(8)
        pools = ([0, 1, 2], [0.0, 0.5, 1.0, 1.0, 3.0], list(range(12)))
        for _ in range(400):
            mode = rng.choice(MODES)
            n = rng.randint(1, 8 if mode == "exact" else 40)
            m = rng.randint(1, 13 - n if mode == "exact" else 40)
            pool = rng.choice(pools)
            x = [rng.choice(pool) for _ in range(n)]
            y = [rng.choice(pool) for _ in range(m)]
            assert_matches_reference(x, y, mode)

    def test_signed_zero_and_int_against_float(self):
        cases = (
            ([0.0, 1, 2.0], [-0.0, 1.0, 2]),
            ([-0.0, -0.0, 3], [0.0, 3.0, 0]),
            ([1, 1, 2, 5], [1.0, 2.0, 2.0, 5.0, 7]),
        )
        for x, y in cases:
            for mode in MODES:
                assert_matches_reference(x, y, mode)

    def test_infinities(self):
        inf = math.inf
        cases = (
            ([-inf, 0.0, inf], [inf, inf, 1.0]),
            ([inf, inf], [inf, -inf, -inf]),
            ([-inf, 2.0, 3.0, inf], [0.5, -inf]),
        )
        for x, y in cases:
            for mode in MODES:
                assert_matches_reference(x, y, mode)

    def test_all_tied(self):
        for n, m in ((1, 1), (3, 4), (6, 6), (20, 30)):
            for mode in MODES if n + m <= 13 else ("auto", "approx"):
                assert_matches_reference([2.5] * n, [2.5] * m, mode)

    def test_pooled_sizes_around_exact_limit(self):
        rng = random.Random(9)
        for size in (EXACT_LIMIT - 1, EXACT_LIMIT, EXACT_LIMIT + 1):
            for n in (1, size // 2, size - 1):
                for _ in range(3):
                    x = [rng.randint(0, 4) for _ in range(n)]
                    y = [float(rng.randint(0, 4)) for _ in range(size - n)]
                    for mode in MODES:
                        assert_matches_reference(x, y, mode)

    def test_one_sample_of_size_one(self):
        rng = random.Random(10)
        for m in (1, 2, 7, 11, 12, 30):
            y = [rng.randint(0, 5) for _ in range(m)]
            for v in (-1, 0, 2, 2.5, 6):
                for mode in MODES:
                    assert_matches_reference([v], y, mode)
                    assert_matches_reference(y, [v], mode)


class TestHolm:
    def test_stepdown_by_hand(self):
        assert holm_correction([0.01, 0.04, 0.03]) == pytest.approx([0.03, 0.06, 0.06])

    def test_single_p_unchanged(self):
        assert holm_correction([0.2]) == [0.2]

    def test_all_ones(self):
        assert holm_correction([1.0, 1.0, 1.0]) == [1.0, 1.0, 1.0]

    def test_bounded_by_bonferroni_and_monotone(self):
        rng = random.Random(4)
        for _ in range(50):
            ps = sorted(rng.random() for _ in range(8))
            adj = holm_correction(ps)
            assert adj == sorted(adj)
            for p, a in zip(ps, adj):
                assert p <= a <= min(1.0, len(ps) * p) + 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            holm_correction([0.5, 1.5])


class TestMannKendall:
    def test_strictly_increasing(self):
        res = mann_kendall([1, 2, 3, 4, 5])
        assert res.statistic == pytest.approx(1.0)
        assert res.p_value < 0.05

    def test_strictly_decreasing(self):
        assert mann_kendall([5, 4, 3, 2, 1]).statistic == pytest.approx(-1.0)

    def test_ties_match_brute_force(self):
        series = [1.0, 2.0, 2.0, 3.0, 0.5]
        n = len(series)
        s = sum(
            (series[j] > series[i]) - (series[j] < series[i])
            for i in range(n) for j in range(i + 1, n)
        )
        ties = [2]  # one pair of equal values
        n0 = n * (n - 1) / 2
        tau_expected = s / math.sqrt(n0 * (n0 - sum(t * (t - 1) / 2 for t in ties)))
        var = (n * (n - 1) * (2 * n + 5) - sum(t * (t - 1) * (2 * t + 5) for t in ties)) / 18
        z = (s - 1) / math.sqrt(var) if s > 0 else (s + 1) / math.sqrt(var)
        p_expected = 2 * (0.5 * math.erfc(abs(z) / math.sqrt(2)))
        res = mann_kendall(series)
        assert res.statistic == pytest.approx(tau_expected)
        assert res.p_value == pytest.approx(p_expected)

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(5)
        for _ in range(50):
            series = [rng.uniform(0, 10) for _ in range(8)]
            a = mann_kendall(series)
            b = mann_kendall([math.exp(v) for v in series])
            assert a.statistic == pytest.approx(b.statistic)
            assert a.p_value == pytest.approx(b.p_value)

    def test_all_tied_flagged(self):
        res = mann_kendall([3.0, 3.0, 3.0, 3.0])
        assert res.all_tied and math.isnan(res.statistic)

    def test_too_short(self):
        with pytest.raises(TooShort):
            mann_kendall([1, 2])

    def test_nan_raises(self):
        with pytest.raises(OutOfRange):
            mann_kendall([1, math.nan, 3, 4])
        with pytest.raises(OutOfRange):
            mann_kendall([float("nan"), 2.0, float("nan")])


class TestPearson:
    def test_perfect_positive(self):
        x = [1.0, 2.0, 3.0, 4.0]
        res = pearson(x, [2 * v + 1 for v in x])
        assert res.statistic == pytest.approx(1.0)
        assert res.p_value == 0.0

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0]
        assert pearson(x, [-v for v in x]).statistic == pytest.approx(-1.0)

    def test_matches_formula_and_scipy(self):
        rng = random.Random(6)
        x = [rng.gauss(0, 1) for _ in range(10)]
        y = [rng.gauss(0, 1) for _ in range(10)]
        res = pearson(x, y)
        ref_r, ref_p = pearsonr(x, y)
        assert res.statistic == pytest.approx(ref_r, abs=1e-12)
        assert res.p_value == pytest.approx(ref_p, abs=1e-10)

    def test_affine_invariance(self):
        rng = random.Random(7)
        x = [rng.gauss(0, 1) for _ in range(20)]
        y = [rng.gauss(0, 1) for _ in range(20)]
        a = pearson(x, y)
        b = pearson([3 * v + 2 for v in x], [0.5 * v - 7 for v in y])
        assert a.statistic == pytest.approx(b.statistic)
        assert a.p_value == pytest.approx(b.p_value)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2, 3], [1, 2])
        with pytest.raises(ZeroVariance):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(TooShort):
            pearson([1, 2], [3, 4])

    @pytest.mark.parametrize("constant, other", [
        # the mean of repeated 0.1 or 0.7 is not exactly 0.1 or 0.7, so
        # deviations from it are tiny but not zero
        ([0.1] * 3, [1, 2, 4]),
        ([0.7] * 10, list(range(10))),
    ])
    def test_constant_float_sample_raises(self, constant, other):
        with pytest.raises(ZeroVariance):
            pearson(constant, other)
        with pytest.raises(ZeroVariance):
            pearson(other, constant)

    def test_tiny_and_huge_scales(self):
        # squared deviations of 1e-170 underflow to 0, of 1e170 overflow
        rng = random.Random(8)
        x = [rng.gauss(0, 1) for _ in range(12)]
        y = [rng.gauss(0, 1) for _ in range(12)]
        want = pearson(x, y)
        for scale in (1e-170, 1e170):
            got = pearson([scale * v for v in x], y)
            assert got.statistic == pytest.approx(want.statistic, rel=1e-12)
            assert got.p_value == pytest.approx(want.p_value, rel=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, bad):
        # min(1.0, nan) is 1.0: a NaN used to read as r = 1, p = 0
        with pytest.raises(OutOfRange):
            pearson([1.0, 2.0, bad, 4.0], [1.0, 3.0, 2.0, 5.0])
        with pytest.raises(OutOfRange):
            pearson([1.0, 3.0, 2.0, 5.0], [bad, 2.0, 3.0, 4.0])


# degrees of freedom: every small df, and the sizes a corpus gives
T_TAIL_DFS = [*range(1, 40), 50, 100, 300, 1000, 2498, 5000, 19998, 100000]


def log_uniform_t(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return [10 ** rng.uniform(lo, hi) for _ in range(n)]


class TestStudentTail:
    @pytest.mark.parametrize("df", T_TAIL_DFS)
    def test_matches_scipy_stdtr(self, df):
        ts = log_uniform_t(random.Random(df), 200, -4, 2.5)
        want = 2 * stdtr(df, -np.array(ts))
        for t, ref in zip(ts, want.tolist()):
            got = student_t_p(t, df)
            if ref < sys.float_info.min:
                # subnormal or zero: both sides have lost their precision
                assert abs(got - ref) <= sys.float_info.min, (t, got, ref)
            elif ref < 0.5:
                assert abs(got - ref) <= 1e-9 * ref, (t, got, ref)
            else:
                assert abs(got - ref) <= 1e-10, (t, got, ref)

    def test_closed_forms(self):
        # df = 1 is Cauchy; df = 2 is 1 - t / sqrt(t^2 + 2), written here
        # without its cancellation at large t
        for t in log_uniform_t(random.Random(3), 500, -4, 4):
            cauchy = 2 / math.pi * math.atan(1 / t)
            root = math.sqrt(t * t + 2)
            df2 = 2 / (root * (root + t))
            for df, want in ((1, cauchy), (2, df2)):
                for sign in (1, -1):
                    got = student_t_p(sign * t, df)
                    assert abs(got - want) <= 1e-13 * want, (df, t, got, want)

    def test_edges(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for df in T_TAIL_DFS:
                assert student_t_p(0.0, df) == 1.0
                assert student_t_p(1e300, df) == 0.0
                assert student_t_p(-1e300, df) == 0.0

    @pytest.mark.parametrize("df", [1, 2, 5, 30, 2498, 100000])
    def test_falls_as_t_grows(self, df):
        ps = [student_t_p(10 ** (k / 50), df) for k in range(-250, 151)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert ps[0] > 0.99 and 0.0 <= ps[-1] < 1e-3


# Calibration under the null: seeded uniform draws, alpha = 0.05, and a
# 99.9% binomial band (z = 3.29) around alpha for the rejection rate
ALPHA = 0.05


def band(draws):
    half = 3.29 * math.sqrt(ALPHA * (1 - ALPHA) / draws)
    return ALPHA - half, ALPHA + half


def rejection_rate(p_value, draws, seed):
    rng = np.random.default_rng(seed)
    return sum(p_value(rng) < ALPHA for _ in range(draws)) / draws


class TestCalibration:
    def test_approximate_mann_whitney_rejects_at_alpha(self):
        def p(rng):
            return mann_whitney_u(rng.random(15), rng.random(15), mode="approx").p_value
        low, high = band(4000)
        assert low <= rejection_rate(p, 4000, seed=31) <= high

    def test_exact_mann_whitney_is_conservative(self):
        # U takes few values at 5/5, so the exact test rejects below alpha
        def p(rng):
            return mann_whitney_u(rng.random(5), rng.random(5), mode="exact").p_value
        _, high = band(2000)
        assert rejection_rate(p, 2000, seed=32) <= high

    @pytest.mark.parametrize("n", [12, 20])
    def test_mann_kendall_rejects_at_alpha(self, n):
        def p(rng):
            return mann_kendall(rng.random(n).tolist()).p_value
        low, high = band(4000)
        assert low <= rejection_rate(p, 4000, seed=33 + n) <= high
