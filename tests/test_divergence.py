"""Divergence evaluation, threshold solvers, ratio bounds."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlrd.divergence import (
    DivergenceDomainError,
    DivergenceKind,
    P_CLAMP_LEVEL,
    Q_CLAMP_LEVEL,
    Regime,
    ThresholdPair,
    divergence,
    divergence_ratio,
    solve_thresholds,
    threshold_residual,
)

K = DivergenceKind


# ---------------------------------------------------------------------------
# evaluation: frozen closed-form values
# ---------------------------------------------------------------------------

def test_rate_zero_on_diagonal():
    assert divergence(K.RATE, 1.0, 1.0) == 0.0


def test_rate_closed_form():
    # p ln(p/q) - (p - q) at (2, 1)
    assert divergence(K.RATE, 2.0, 1.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-15)


def test_bernoulli_closed_form():
    # 0.25 ln(1/3) + 0.75 ln(3) = 0.5 ln 3
    assert divergence(K.BERNOULLI, 0.25, 0.75) == pytest.approx(0.5 * math.log(3.0), rel=1e-14)


def test_rate_limit_at_p_zero():
    for q in (0.1, 0.5, 1.7):
        assert divergence(K.RATE, 0.0, q) == pytest.approx(q, rel=1e-15)


def test_bernoulli_limits_at_p_boundaries():
    q = 0.3
    assert divergence(K.BERNOULLI, 0.0, q) == pytest.approx(-math.log1p(-q), rel=1e-14)
    assert divergence(K.BERNOULLI, 1.0, q) == pytest.approx(-math.log(q), rel=1e-14)


@pytest.mark.parametrize("kind,p,q", [
    (K.RATE, 1.0, 0.0),
    (K.RATE, -0.5, 1.0),
    (K.RATE_DUAL, 0.0, 1.0),
    (K.BERNOULLI, 0.5, 0.0),
    (K.BERNOULLI, 0.5, 1.0),
    (K.BERNOULLI, 1.5, 0.5),
    (K.RATE_REFLECTED, 0.5, 1.0),
])
def test_domain_violations_raise(kind, p, q):
    with pytest.raises(DivergenceDomainError):
        divergence(kind, p, q)


# ---------------------------------------------------------------------------
# properties on random samples
# ---------------------------------------------------------------------------

def test_nonnegative_with_unique_zero():
    rng = np.random.default_rng(7)
    p = rng.uniform(0.05, 3.0, 1000)
    q = rng.uniform(0.05, 3.0, 1000)
    vals = divergence(K.RATE, p, q)
    assert np.all(vals >= 0.0)
    assert np.all(vals[np.abs(p - q) > 1e-12] > 0.0)

    pb = rng.uniform(0.01, 0.99, 1000)
    qb = rng.uniform(0.01, 0.99, 1000)
    vb = divergence(K.BERNOULLI, pb, qb)
    assert np.all(vb >= 0.0)
    assert np.all(vb[np.abs(pb - qb) > 1e-12] > 0.0)


def test_duality_is_exact():
    rng = np.random.default_rng(8)
    p = rng.uniform(0.05, 4.0, 500)
    q = rng.uniform(0.05, 4.0, 500)
    assert np.array_equal(divergence(K.RATE_DUAL, p, q), divergence(K.RATE, q, p))


def test_reflection_identity():
    rng = np.random.default_rng(9)
    p = rng.uniform(0.01, 0.99, 500)
    q = rng.uniform(0.01, 0.99, 500)
    assert np.array_equal(divergence(K.RATE_REFLECTED, p, q),
                          divergence(K.RATE, 1.0 - p, 1.0 - q))


def test_bernoulli_decomposes_into_rate_plus_reflected():
    # interior grid of (0,1)^2
    g = (np.arange(100) + 0.5) / 100.0
    P, Q = np.meshgrid(g, g, indexing="ij")
    kl = divergence(K.BERNOULLI, P, Q)
    split = divergence(K.RATE, P, Q) + divergence(K.RATE_REFLECTED, P, Q)
    assert np.max(np.abs(kl - split) / (1.0 + np.abs(kl))) <= 1e-12


@settings(max_examples=500, deadline=None, derandomize=True)
@given(odd=st.booleans(), u=st.floats(0.0, 1.0),
       v=st.floats(np.finfo(np.float64).tiny, 1.0))
def test_rate_separation_identity(odd, u, v):
    # the constructive builder's split on the unit configurations:
    # odd p in [1, 2], q in (0, 1]; even p in [0, 1], q in [1, 2]
    p, q = (1.0 + u, v) if odd else (u, 2.0 - v)
    one_sided_p = divergence(K.RATE, p, 1.0)     # rate(p || 1)
    one_sided_q = divergence(K.RATE, 1.0, q)     # rate(1 || q)
    cross = (p - 1.0) * -math.log(q)
    assert one_sided_p >= 0.0 and one_sided_q >= 0.0 and cross >= 0.0
    total = one_sided_p + one_sided_q + cross
    # every term of either side is at most total + 2 in magnitude
    assert abs(divergence(K.RATE, p, q) - total) <= 8 * np.finfo(np.float64).eps * (total + 2.0)


def test_convexity_along_segments():
    # convexity of rate divergence: midpoint value below the chord
    rng = np.random.default_rng(10)
    for _ in range(200):
        a = rng.uniform(0.1, 3.0, 2)
        b = rng.uniform(0.1, 3.0, 2)
        mid = 0.5 * (a + b)
        chord = 0.5 * (divergence(K.RATE, *a) + divergence(K.RATE, *b))
        assert divergence(K.RATE, *mid) <= chord + 1e-12


# ---------------------------------------------------------------------------
# threshold solvers
# ---------------------------------------------------------------------------

def test_q_threshold_lower_forward_value():
    # forward-evaluated defining equation at q = 0.1
    m = -math.log(0.1) - 0.9
    assert solve_thresholds(m, Regime.LOWER).q_m == pytest.approx(0.1, rel=1e-10)


def test_q_threshold_lower_large_m_asymptote():
    # q_m ~ exp(-(m+1)); compare in the log parameterization
    pair = solve_thresholds(1e8, Regime.LOWER)
    assert pair.neg_log_q_m == pytest.approx(1e8 + 1.0, rel=0.01)


def test_q_threshold_lower_small_m_asymptote():
    m = 1e-10
    q = solve_thresholds(m, Regime.LOWER).q_m
    assert q == pytest.approx(1.0 - math.sqrt(2.0 * m), abs=1e-7)


def test_p_threshold_lower_clamp():
    assert solve_thresholds(0.5, Regime.LOWER).p_m == 2.0
    assert solve_thresholds(P_CLAMP_LEVEL, Regime.LOWER).p_m == 2.0
    assert solve_thresholds(P_CLAMP_LEVEL - 1e-9, Regime.LOWER).p_m < 2.0


def test_p_threshold_lower_small_m_asymptote():
    m = 1e-10
    assert solve_thresholds(m, Regime.LOWER).p_m == pytest.approx(1.0 + math.sqrt(2.0 * m),
                                                                  abs=1e-7)


def test_thresholds_upper_forward_values():
    # p ln p - (p - 1) at p = 0.5
    m = 0.5 * math.log(0.5) + 0.5
    pair = solve_thresholds(m, Regime.UPPER)
    assert pair.p_m == pytest.approx(0.5, rel=1e-10)

    pair = solve_thresholds(Q_CLAMP_LEVEL, Regime.UPPER)
    assert pair.q_m == 2.0

    pair = solve_thresholds(5.0, Regime.UPPER)
    assert pair.p_m == 0.0 and pair.q_m == 2.0


def test_threshold_ranges():
    for m in np.logspace(-8, 8, 33):
        lo = solve_thresholds(float(m), Regime.LOWER)
        assert 1.0 < lo.p_m <= 2.0
        assert lo.neg_log_q_m > 0.0 and lo.q_m < 1.0
        up = solve_thresholds(float(m), Regime.UPPER)
        assert 0.0 <= up.p_m < 1.0
        assert 1.0 < up.q_m <= 2.0


def test_root_consistency_over_level_grid():
    # forward-evaluating each defining equation must reproduce m to the solver's 1e-12
    tol = 1e-12
    for m in np.logspace(-8, 8, 33):
        for regime in (Regime.LOWER, Regime.UPPER):
            pair = solve_thresholds(float(m), regime)
            p_res, q_res = threshold_residual(pair)
            scale = max(1.0, float(m))
            assert abs(p_res) <= tol * scale
            assert abs(q_res) <= tol * scale


def test_invalid_levels_rejected():
    # checked before any equation is solved, in both regimes alike (an
    # infinite level would bisect [0, inf] in one regime and clamp in the other)
    for regime in Regime:
        for m in (math.inf, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                solve_thresholds(m, regime)


# ---------------------------------------------------------------------------
# ratio of two-sided divergence to the level
# ---------------------------------------------------------------------------

def test_ratio_limits_lower():
    assert divergence_ratio(1e-8, Regime.LOWER) == pytest.approx(4.0, rel=0.02)
    # large-m expansion: 2 + (2 ln 2 - 2 + 2(t - m)) / m with t ~ m + 1
    assert divergence_ratio(1e4, Regime.LOWER) == pytest.approx(2.0 + 2.0 * math.log(2.0) / 1e4,
                                                                abs=1e-4)


def test_ratio_limits_upper():
    assert divergence_ratio(1e-8, Regime.UPPER) == pytest.approx(4.0, rel=0.02)
    assert divergence_ratio(1e4, Regime.UPPER) <= 1e-3


@pytest.mark.parametrize("m", [1e308, sys.float_info.max], ids=["1e308", "max-double"])
def test_thresholds_and_ratio_at_the_top_of_the_double_range(m):
    # the bisection midpoint and the lower ratio must not overflow there
    for regime, limit in ((Regime.LOWER, 2.0), (Regime.UPPER, 0.0)):
        pair = solve_thresholds(m, regime)
        assert all(math.isfinite(v) for v in (pair.p_m, pair.q_m, pair.neg_log_q_m)), regime
        assert abs(divergence_ratio(m, regime) - limit) <= 1e-9, regime


def test_ratio_uniformly_bounded():
    for m in np.logspace(-8, 8, 33):
        assert divergence_ratio(float(m), Regime.LOWER) <= 6.0
        assert divergence_ratio(float(m), Regime.UPPER) <= 6.0
