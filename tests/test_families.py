"""Family entry evaluation: exact, Stirling form, kernel identification."""

import dataclasses
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
    block_oracle,
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


FAMILY_SPECS = [BinomialFamily(n=96, cols=80),
                PoissonFamily(k_max=90, lambda_max=60.0, lambda_grid=70),
                ChiSquaredFamily(x_max=50.0, x_grid=75, k_max=64)]


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=["binomial", "poisson", "chisq"])
def test_block_oracle_matches_entry_exact(spec):
    # block-local indices give entry_exact's entries bit for bit, whatever the index shapes
    rng = np.random.default_rng(3)
    n_rows, n_cols = spec.shape
    boxes = [(0, n_rows, 0, n_cols), (0, 1, n_cols - 1, n_cols)]
    for _ in range(6):
        r0, r1 = np.sort(rng.choice(n_rows + 1, 2, replace=False))
        c0, c1 = np.sort(rng.choice(n_cols + 1, 2, replace=False))
        boxes.append((int(r0), int(r1), int(c0), int(c1)))
    for r0, r1, c0, c1 in boxes:
        oracle = block_oracle(spec, r0, r1, c0, c1)
        i = rng.integers(0, r1 - r0, 40)
        j = rng.integers(0, c1 - c0, 40)
        assert np.array_equal(oracle(i, j), entry_exact(spec, i + r0, j + c0))
        assert np.array_equal(oracle(np.intp(i[0]), j), entry_exact(spec, i[0] + r0, j + c0))
        assert np.array_equal(oracle(i, np.intp(j[0])), entry_exact(spec, i + r0, j[0] + c0))
        assert oracle(np.intp(i[1]), np.intp(j[1])) == entry_exact(spec, i[1] + r0, j[1] + c0)
        ii = np.arange(r1 - r0)[:, None]
        jj = np.arange(c1 - c0)[None, :]
        assert np.array_equal(oracle(ii, jj), dense_matrix(spec)[r0:r1, c0:c1])


@pytest.mark.parametrize("box", [
    (-1, 4, 0, 4), (0, 4, -1, 4),                  # starts before the matrix
    (0, 98, 0, 4), (0, 4, 0, 81),                  # ends past the 97 x 80 matrix
    (5, 5, 0, 4), (0, 4, 7, 7), (6, 5, 0, 4),      # empty or reversed
])
def test_block_oracle_rejects_box_outside_or_empty(box):
    with pytest.raises(IndexError):
        block_oracle(FAMILY_SPECS[0], *box)


@pytest.mark.parametrize("make", [
    lambda: BinomialFamily(n=0),
    lambda: BinomialFamily(n=64, cols=-3),
    lambda: PoissonFamily(k_max=64, lambda_max=math.inf, lambda_grid=64),
    lambda: PoissonFamily(k_max=64, lambda_max=math.nan, lambda_grid=64),
    lambda: PoissonFamily(k_max=64, lambda_max=-1.0, lambda_grid=64),
    lambda: PoissonFamily(k_max=64, lambda_max=0.0, lambda_grid=64),
    lambda: ChiSquaredFamily(x_max=math.inf, x_grid=64, k_max=64),
    lambda: ChiSquaredFamily(x_max=-math.inf, x_grid=64, k_max=64),
    lambda: ChiSquaredFamily(x_max=0.0, x_grid=64, k_max=64),
], ids=["binomial-n0", "binomial-cols-neg", "poisson-inf", "poisson-nan", "poisson-neg",
        "poisson-zero", "chisq-inf", "chisq-neg-inf", "chisq-zero"])
def test_degenerate_family_parameters_rejected(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=["binomial", "poisson", "chisq"])
def test_kernel_map_built_once_per_instance(spec):
    km = kernel_map(spec)
    assert kernel_map(spec) is km
    # shared between callers, so nobody can write into it
    for a in (km.p_of_row, km.q_of_col, km.exact_log_prefactor):
        with pytest.raises(ValueError):
            a[0] = 0.0
    # a fresh instance builds the same map and the same Stirling entries
    fresh = type(spec)(**dataclasses.asdict(spec))
    assert kernel_map(fresh) is not km
    assert np.array_equal(kernel_map(fresh).exact_log_prefactor, km.exact_log_prefactor,
                          equal_nan=True)
    n_rows, n_cols = spec.shape
    for i in range(1, n_rows, 7):
        for j in range(2, n_cols, 5):
            if i in km.singular_rows or j in km.singular_cols:
                continue
            assert entry_stirling(spec, i, j) == entry_stirling(fresh, i, j)


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
