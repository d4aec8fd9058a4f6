"""Family entry evaluation: exact, Stirling form, kernel identification."""

import math

import numpy as np
import pytest
import scipy.stats

from hlrd.divergence import DivergenceKind
from hlrd.families import (
    BinomialFamily,
    ChiSquaredFamily,
    PoissonFamily,
    StirlingUndefinedError,
    dense_matrix,
    entry_exact,
    entry_stirling,
    kernel_map,
)


def test_binomial_exact_closed_form():
    # n = 2, q = 0.5: f(0) = 0.25
    spec = BinomialFamily(n=2, cols=1)  # single column at q = 0.5
    assert spec.col_values()[0] == 0.5
    assert entry_exact(spec, 0, 0) == pytest.approx(0.25, rel=1e-14)
    assert entry_exact(spec, 1, 0) == pytest.approx(0.5, rel=1e-14)


def test_poisson_exact_closed_form():
    spec = PoissonFamily(k_max=4, lambda_max=4.0, lambda_grid=4)
    assert spec.col_values()[0] == 1.0
    assert entry_exact(spec, 0, 0) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_chisq_exact_closed_form():
    spec = ChiSquaredFamily(x_max=4.0, x_grid=4, k_max=4)
    # x = 2, k = 2: e^{-1}/2 with Gamma(1) = 1
    assert entry_exact(spec, 1, 1) == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-14)


def test_exact_against_scipy():
    rng = np.random.default_rng(5)
    b = BinomialFamily(n=200, cols=64)
    i = rng.integers(0, 201, 50)
    j = rng.integers(0, 64, 50)
    ours = entry_exact(b, i, j)
    ref = scipy.stats.binom.pmf(i, 200, b.col_values()[j])
    np.testing.assert_allclose(ours, ref, rtol=1e-12)

    p = PoissonFamily(k_max=100, lambda_max=50.0, lambda_grid=25)
    i = rng.integers(0, 101, 50)
    j = rng.integers(0, 25, 50)
    np.testing.assert_allclose(entry_exact(p, i, j),
                               scipy.stats.poisson.pmf(i, p.col_values()[j]), rtol=1e-12)

    c = ChiSquaredFamily(x_max=30.0, x_grid=60, k_max=20)
    i = rng.integers(0, 60, 50)
    j = rng.integers(0, 20, 50)
    np.testing.assert_allclose(entry_exact(c, i, j),
                               scipy.stats.chi2.pdf(c.row_values()[i], c.col_values()[j]),
                               rtol=1e-12)


def test_dense_matrix_matches_entry_exact():
    # the CLI's SVD oracle sees exactly the matrix the compressor sees
    for spec in (BinomialFamily(n=40),
                 PoissonFamily(k_max=30, lambda_max=30.0, lambda_grid=30),
                 ChiSquaredFamily(x_max=24.0, x_grid=24, k_max=24),
                 ChiSquaredFamily(x_max=256.0, x_grid=256, k_max=256)):
        full = dense_matrix(spec)
        rows, cols = spec.shape
        ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        assert np.array_equal(full, entry_exact(spec, ii, jj))


def test_binomial_column_normalization():
    spec = BinomialFamily(n=300, cols=37)
    sums = dense_matrix(spec).sum(axis=0)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_poisson_column_normalization():
    lam_max = 60.0
    k_max = int(lam_max + 20 * math.sqrt(lam_max))
    spec = PoissonFamily(k_max=k_max, lambda_max=lam_max, lambda_grid=12)
    sums = dense_matrix(spec).sum(axis=0)
    np.testing.assert_allclose(sums, 1.0, atol=1e-8)


def test_log_space_stability_large_n():
    spec = BinomialFamily(n=2 ** 14, cols=32)
    full = dense_matrix(spec)
    assert np.all(np.isfinite(full))
    assert np.all(full >= 0.0)


def test_index_out_of_range():
    spec = BinomialFamily(n=8)
    with pytest.raises(IndexError):
        entry_exact(spec, 9, 0)
    with pytest.raises(IndexError):
        entry_stirling(spec, 0, 99)


# ---------------------------------------------------------------------------
# Stirling form
# ---------------------------------------------------------------------------

def test_stirling_poisson_spot_value():
    spec = PoissonFamily(k_max=128, lambda_max=128.0, lambda_grid=128)
    st = entry_stirling(spec, 100, 99)  # lambda = 100
    assert st == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 100.0), rel=1e-12)
    ex = entry_exact(spec, 100, 99)
    assert abs(st - ex) / ex <= 1e-3


def test_stirling_binomial_center():
    n = 1024
    spec = BinomialFamily(n=n, cols=2)  # columns at q = 0.25, 0.75
    st = entry_stirling(spec, n // 4, 0)
    ex = entry_exact(spec, n // 4, 0)
    # at the mode the divergence vanishes and only the prefactor error remains
    assert abs(st - ex) / ex <= 1.0 / n


@pytest.mark.parametrize("spec,row,col", [
    (BinomialFamily(n=16, cols=8), 0, 3),
    (BinomialFamily(n=16, cols=8), 16, 3),
    (PoissonFamily(k_max=16, lambda_max=16.0, lambda_grid=8), 0, 3),
    (ChiSquaredFamily(x_max=16.0, x_grid=8, k_max=8), 3, 0),   # k = 1
    (ChiSquaredFamily(x_max=16.0, x_grid=8, k_max=8), 3, 1),   # k = 2
])
def test_stirling_singular_entries_raise(spec, row, col):
    with pytest.raises(StirlingUndefinedError):
        entry_stirling(spec, row, col)


def test_stirling_accuracy_at_large_size_parameter():
    # ≤ 1% relative error once the size parameter reaches 100
    n = 2048
    b = BinomialFamily(n=n, cols=16)
    km = kernel_map(b)
    for col in range(16):
        for k in (n // 3, n // 2, 2 * n // 3):
            ex = entry_exact(b, k, col)
            # deep tails underflow float64; the relative claim needs ex > 0
            if n * (k / n) * (1 - k / n) >= 100 and ex > 1e-250:
                st = entry_stirling(b, k, col)
                assert abs(st - ex) / ex <= 0.01

    p = PoissonFamily(k_max=400, lambda_max=400.0, lambda_grid=20)
    for k in (100, 200, 399):
        for col in (4, 9, 19):
            ex = entry_exact(p, k, col)
            st = entry_stirling(p, k, col)
            assert abs(st - ex) / ex <= 0.01

    c = ChiSquaredFamily(x_max=400.0, x_grid=40, k_max=300)
    for row in (10, 20, 39):
        for col in (99, 199, 299):  # k = 100, 200, 300
            ex = entry_exact(c, row, col)
            st = entry_stirling(c, row, col)
            assert abs(st - ex) / ex <= 0.01


# ---------------------------------------------------------------------------
# kernel identification
# ---------------------------------------------------------------------------

def test_kernel_map_binomial():
    spec = BinomialFamily(n=64)
    km = kernel_map(spec)
    assert km.kind is DivergenceKind.BERNOULLI
    assert km.n_eff == 64.0
    np.testing.assert_allclose(km.p_of_row, np.arange(65) / 64.0)
    assert km.singular_rows == (0, 64)
    assert km.prefactor_axis == "row"


def test_kernel_map_poisson():
    spec = PoissonFamily(k_max=32, lambda_max=32.0, lambda_grid=32)
    km = kernel_map(spec)
    assert km.kind is DivergenceKind.RATE
    assert km.n_eff == 1.0
    np.testing.assert_allclose(km.p_of_row, np.arange(33.0))
    np.testing.assert_allclose(km.q_of_col, np.arange(1.0, 33.0))
    assert km.singular_rows == (0,)


def test_kernel_map_chisq():
    spec = ChiSquaredFamily(x_max=32.0, x_grid=32, k_max=16)
    km = kernel_map(spec)
    assert km.kind is DivergenceKind.RATE_DUAL
    np.testing.assert_allclose(km.p_of_row, 0.5 * spec.row_values())
    np.testing.assert_allclose(km.q_of_col, 0.5 * spec.col_values() - 1.0)
    assert km.singular_cols == (0, 1)   # k = 1, 2
    assert km.prefactor_axis == "col"


def test_exact_prefactor_factorizes_the_matrix():
    # entry = exp(log_prefactor) * exp(-n_eff * divergence) on regular rows/cols
    from hlrd.divergence import divergence

    for spec in (BinomialFamily(n=48),
                 PoissonFamily(k_max=40, lambda_max=40.0, lambda_grid=40),
                 ChiSquaredFamily(x_max=40.0, x_grid=40, k_max=40)):
        km = kernel_map(spec)
        rows, cols = spec.shape
        r_ok = np.setdiff1d(np.arange(rows), km.singular_rows)
        c_ok = np.setdiff1d(np.arange(cols), km.singular_cols)
        rng = np.random.default_rng(1)
        for _ in range(30):
            i = int(rng.choice(r_ok))
            j = int(rng.choice(c_ok))
            div = divergence(km.kind, km.p_of_row[i], km.q_of_col[j])
            pref = (km.exact_log_prefactor[i] if km.prefactor_axis == "row"
                    else km.exact_log_prefactor[j])
            model = math.exp(pref - km.n_eff * div)
            assert model == pytest.approx(entry_exact(spec, i, j), rel=1e-10)
