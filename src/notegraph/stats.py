"""Nonparametric statistics: Mann-Whitney U (exact and approximate),
Holm step-down correction, Mann-Kendall trend test, Pearson correlation.

All p-values are two-sided. The exact Mann-Whitney null enumerates every
group labeling of the pooled sample, so it handles ties correctly; the
normal approximations carry tie and continuity corrections. Pearson's
Student-t tail is computed here, from the regularized incomplete beta
function, with the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import (
    EmptySample,
    LengthMismatch,
    OutOfRange,
    TooShort,
    ZeroVariance,
)

EXACT_LIMIT = 12  # auto mode enumerates when |x| + |y| <= this


@dataclass
class TestResult:
    statistic: float
    p_value: float
    method: str = "exact"  # "exact" or "normal-approximation"
    all_tied: bool = False


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2))


def mann_whitney_u(
    x: Sequence[float], y: Sequence[float], mode: str = "auto"
) -> TestResult:
    """Two-sample two-sided Mann-Whitney U test.

    ``mode``: "exact" enumerates all C(n+m, n) labelings of the pooled
    sample; "approx" uses the tie- and continuity-corrected normal
    approximation; "auto" picks exact for small pooled sizes.

    U for x is the sum of x's mid-ranks in the pooled sample minus
    n(n+1)/2: x's wins over y, ties counted half. Mid-ranks are
    half-integers, so U and every labeling's score are exact in float.
    A NaN has no rank, so it raises ``OutOfRange``.
    """
    if len(x) == 0 or len(y) == 0:
        raise EmptySample("both samples must be non-empty")
    if mode not in ("exact", "approx", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    n, m = len(x), len(y)
    pooled = np.concatenate((np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
    if np.isnan(pooled).any():
        raise OutOfRange("NaN in a Mann-Whitney sample")
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse]
    offset = n * (n + 1) / 2
    u_obs = float(ranks[:n].sum()) - offset
    if mode == "auto":
        mode = "exact" if n + m <= EXACT_LIMIT else "approx"

    if mode == "exact":
        center = n * m / 2
        dev = abs(u_obs - center)
        hits = sum(
            abs(sum(labeling) - offset - center) >= dev - 1e-12
            for labeling in combinations(ranks.tolist(), n)
        )
        return TestResult(statistic=u_obs, p_value=hits / math.comb(n + m, n), method="exact")

    mu = n * m / 2
    big_n = n + m
    # Python ints: no overflow, and int / int below rounds once; an
    # untied value adds 1**3 - 1 = 0
    tie_term = sum(t**3 - t for t in counts[counts > 1].tolist())
    var = (n * m / 12) * (big_n + 1 - tie_term / (big_n * (big_n - 1)))
    if var <= 0:
        return TestResult(statistic=u_obs, p_value=1.0, method="normal-approximation",
                          all_tied=True)
    diff = u_obs - mu
    correction = 0.5 * (1 if diff > 0 else -1 if diff < 0 else 0)
    z = (diff - correction) / math.sqrt(var)
    p = min(1.0, 2 * _normal_sf(abs(z)))
    return TestResult(statistic=u_obs, p_value=p, method="normal-approximation")


def holm_correction(pvals: Sequence[float]) -> list[float]:
    """Step-down Holm adjustment, input order preserved."""
    for p in pvals:
        if not 0 <= p <= 1:
            raise OutOfRange(f"p-value {p} outside [0, 1]")
    m = len(pvals)
    order = sorted(range(m), key=lambda i: pvals[i])
    adjusted = [0.0] * m
    running_max = 0.0
    for rank, idx in enumerate(order):
        candidate = (m - rank) * pvals[idx]
        running_max = max(running_max, candidate)
        adjusted[idx] = min(1.0, running_max)
    return adjusted


def mann_kendall(series: Sequence[float]) -> TestResult:
    """Monotone-trend test; statistic is the tie-adjusted Kendall tau.

    The p-value uses the normal approximation with tie-corrected
    variance and continuity correction. A NaN is neither above nor
    below any point, so it raises ``OutOfRange``.
    """
    n = len(series)
    if n < 3:
        raise TooShort(f"need >= 3 observations, got {n}")
    values = np.asarray(series, dtype=float)
    if np.isnan(values).any():
        raise OutOfRange("NaN in a Mann-Kendall series")
    i, j = np.triu_indices(n, 1)
    diff = values[j] - values[i]
    s = int(np.count_nonzero(diff > 0)) - int(np.count_nonzero(diff < 0))
    _, counts = np.unique(values, return_counts=True)
    ties = counts[counts > 1].tolist()
    n0 = n * (n - 1) / 2
    tie_pairs = sum(t * (t - 1) / 2 for t in ties)
    denom = math.sqrt(n0 * (n0 - tie_pairs))
    if denom == 0:
        return TestResult(statistic=math.nan, p_value=1.0,
                          method="normal-approximation", all_tied=True)
    tau = s / denom
    var = (n * (n - 1) * (2 * n + 5) - sum(t * (t - 1) * (2 * t + 5) for t in ties)) / 18
    if s > 0:
        z = (s - 1) / math.sqrt(var)
    elif s < 0:
        z = (s + 1) / math.sqrt(var)
    else:
        z = 0.0
    p = min(1.0, 2 * _normal_sf(abs(z)))
    return TestResult(statistic=tau, p_value=p, method="normal-approximation")


def pearson(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Sample Pearson correlation; p from the t-distribution, n-2 df.

    A NaN or infinity raises ``OutOfRange``. A constant sample raises
    ``ZeroVariance``; constancy is tested on the values themselves,
    since the mean of repeated floats is inexact and leaves deviations
    that are not zero.
    """
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} and {len(y)} differ")
    n = len(x)
    if n < 3:
        raise TooShort(f"need >= 3 paired observations, got {n}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise OutOfRange("non-finite value in a Pearson sample")
    if x.min() == x.max() or y.min() == y.max():
        raise ZeroVariance("correlation undefined for a constant sample")
    dx = x - x.mean()
    dy = y - y.mean()
    # r is scale-free; scaling to a largest deviation of 1 keeps the
    # squares below from under- or overflowing
    dx /= np.abs(dx).max()
    dy /= np.abs(dy).max()
    r = float((dx * dy).sum()) / math.sqrt((dx * dx).sum() * (dy * dy).sum())
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t_stat = r * math.sqrt((n - 2) / (1 - r * r))
        p = student_t_p(t_stat, n - 2)
    return TestResult(statistic=r, p_value=min(1.0, p), method="exact")


# the continued fraction stops when a step changes it by less than this
_CF_EPS = 1e-16
# a cap far above need: for the Student-t tail, b = 1/2 or a = 1/2, and
# no df up to 1e8 took more than 78 steps at any t
_CF_MAX_STEPS = 1000
# below this a Lentz denominator counts as zero
_CF_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) without its prefactor, by the
    modified Lentz method; it converges fast for x < (a + 1) / (a + b + 2)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_STEPS + 1):
        # the even then the odd coefficient of step m
        for coef in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + coef / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= d * c
        if abs(d * c - 1.0) < _CF_EPS:
            break
    return h


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), with y = 1 - x given apart
    so that neither carries a cancellation. Past x = (a + 1) / (a + b + 2)
    it takes the symmetry I_x(a, b) = 1 - I_y(b, a)."""
    swap = x >= (a + 1) / (a + b + 2)
    if swap:
        a, b, x, y = b, a, y, x
    if x == 0.0:
        tail = 0.0
    else:
        log_front = (a * math.log(x) + b * math.log(y)
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
        tail = math.exp(log_front) / a * _beta_cf(a, b, x)
    return 1.0 - tail if swap else tail


def student_t_p(t: float, df: float) -> float:
    """Two-sided p-value P(|T| >= |t|) of Student's t with ``df`` degrees
    of freedom: I_x(df/2, 1/2) at x = df / (df + t**2). A t whose square
    overflows gives x = 0, so p = 0."""
    t2 = t * t
    return _betainc(df / 2, 0.5, df / (df + t2), t2 / (df + t2))
