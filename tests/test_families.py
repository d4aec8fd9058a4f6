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
    lambda: BinomialFamily(n=16.0),
    lambda: BinomialFamily(n=True),
    lambda: BinomialFamily(n=16, cols=16.0),
    lambda: BinomialFamily(n=16, cols=False),
    lambda: PoissonFamily(k_max=64.0, lambda_max=64.0, lambda_grid=64),
    lambda: PoissonFamily(k_max=64, lambda_max=64.0, lambda_grid=64.0),
    lambda: PoissonFamily(k_max=64, lambda_max=True, lambda_grid=64),
    lambda: PoissonFamily(k_max=64, lambda_max="64", lambda_grid=64),
    lambda: ChiSquaredFamily(x_max=64.0, x_grid=64.0, k_max=64),
    lambda: ChiSquaredFamily(x_max=64.0, x_grid=64, k_max=True),
    lambda: ChiSquaredFamily(x_max=True, x_grid=64, k_max=64),
], ids=["binomial-n0", "binomial-cols-neg", "poisson-inf", "poisson-nan", "poisson-neg",
        "poisson-zero", "chisq-inf", "chisq-neg-inf", "chisq-zero", "binomial-n-float",
        "binomial-n-bool", "binomial-cols-float", "binomial-cols-bool", "poisson-kmax-float",
        "poisson-grid-float", "poisson-lambda-bool", "poisson-lambda-str", "chisq-grid-float",
        "chisq-kmax-bool", "chisq-x-bool"])
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


@pytest.mark.parametrize("spec", [
    PoissonFamily(k_max=48, lambda_max=48.0, lambda_grid=48),
    PoissonFamily(k_max=7, lambda_max=1.0 / 3.0, lambda_grid=1000),
    PoissonFamily(k_max=1000, lambda_max=7.77, lambda_grid=4097),
    ChiSquaredFamily(x_max=48.0, x_grid=48, k_max=48),
    ChiSquaredFamily(x_max=0.3, x_grid=127, k_max=3),
    ChiSquaredFamily(x_max=4321.5, x_grid=1023, k_max=255),
])
def test_coordinate_bounds_are_the_grids(spec):
    # the largest coordinates bit for bit, the step within rounding of the grids' least
    km = kernel_map(spec)
    p_max, q_max, step = spec.coordinate_bounds()
    assert (p_max, q_max) == (km.p_of_row[-1], km.q_of_col[-1])
    assert (p_max, q_max) == (np.max(km.p_of_row), np.max(km.q_of_col))
    least = min(np.min(np.diff(km.p_of_row)), np.min(np.diff(km.q_of_col)))
    assert step == pytest.approx(least, rel=1e-9)


@pytest.mark.parametrize("n", [5, 64, 1448, 2**14])
def test_exact_prefactor_is_the_distribution_on_the_ridge(n):
    # exp(exact prefactor) is the entry where the divergence is zero:
    # binomial q = k/n, Poisson lambda = k, chi-squared x = k - 2
    cases = [
        (BinomialFamily(n=n, cols=3), lambda k: scipy.stats.binom.pmf(k, n, k / n)),
        (PoissonFamily(k_max=n, lambda_max=2.0, lambda_grid=3),
         lambda k: scipy.stats.poisson.pmf(k, k)),
        (ChiSquaredFamily(x_max=2.0, x_grid=3, k_max=n),
         lambda k: scipy.stats.chi2.pdf(k - 2.0, k)),
    ]
    for spec, pdf in cases:
        km = kernel_map(spec)
        if km.prefactor_axis == "row":
            k, singular = spec.row_values(), km.singular_rows
        else:
            k, singular = spec.col_values(), km.singular_cols
        regular = np.setdiff1d(np.arange(k.size), singular)
        np.testing.assert_allclose(np.exp(km.exact_log_prefactor[regular]), pdf(k[regular]),
                                   rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("spec, rows, cols", [
    *[(BinomialFamily(n=n, cols=c), (0, n), ()) for n in (1, 5, 64, 1448) for c in (0, 3, 2 * n + 1)],
    *[(PoissonFamily(k_max=k, lambda_max=float(k), lambda_grid=g), (0,), ())
      for k in (1, 4, 1024) for g in (1, k, 3 * k)],
    (ChiSquaredFamily(x_max=1.0, x_grid=5, k_max=1), (), (0,)),
    (ChiSquaredFamily(x_max=2.0, x_grid=1, k_max=2), (), (0, 1)),
    (ChiSquaredFamily(x_max=3.0, x_grid=7, k_max=3), (), (0, 1)),
    (ChiSquaredFamily(x_max=1024.0, x_grid=333, k_max=1024), (), (0, 1)),
])
def test_singular_indices_are_the_non_finite_prefactors(spec, rows, cols):
    # binomial k in {0, n}, Poisson k = 0, chi-squared k <= 2, whatever the other grid
    km = kernel_map(spec)
    assert (km.singular_rows, km.singular_cols) == (rows, cols)
    singular = list(rows or cols)
    assert np.all(np.isnan(km.exact_log_prefactor[singular]))
    assert np.isfinite(np.delete(km.exact_log_prefactor, singular)).all()
    # the rule's source: the Stirling prefactor is not finite there, and only there
    assert not np.isfinite(km.stirling_prefactor[singular]).any()
    assert np.isfinite(np.delete(km.stirling_prefactor, singular)).all()


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
            # divergence() and the entry kernels are the same bd0 form, evaluated apart
            assert model == pytest.approx(entry_exact(spec, i, j), rel=1e-13)


# ---------------------------------------------------------------------------
# accuracy against 40-digit references
# ---------------------------------------------------------------------------

def _mp_entry(mp, spec, i, j):
    """The family's entry at 40 digits, from its textbook density at the grid's doubles."""
    x = mp.mpf(float(spec.row_values()[i]))
    y = mp.mpf(float(spec.col_values()[j]))
    if isinstance(spec, BinomialFamily):
        k = int(spec.row_values()[i])
        return mp.binomial(spec.n, k) * y ** k * (1 - y) ** (spec.n - k)
    if isinstance(spec, PoissonFamily):
        return mp.exp(x * mp.log(y) - y - mp.loggamma(x + 1))
    half = y / 2
    return mp.exp((half - 1) * mp.log(x) - x / 2 - half * mp.log(2) - mp.loggamma(half))


def _near_ridge(spec, rng, count, max_exponent):
    """``count`` regular (row, col) pairs, rows drawn uniformly, with n_eff D <= max_exponent."""
    from hlrd.divergence import divergence

    km = kernel_map(spec)
    n_rows, n_cols = spec.shape
    cols = np.setdiff1d(np.arange(n_cols), km.singular_cols)
    pairs = []
    while len(pairs) < count:
        i = int(rng.integers(n_rows))
        if i in km.singular_rows:
            continue
        near = cols[km.n_eff * divergence(km.kind, km.p_of_row[i], km.q_of_col[cols])
                    <= max_exponent]
        if near.size:
            pairs.append((i, int(rng.choice(near))))
    return np.array(pairs)


def _unit_families(n):
    return [BinomialFamily(n=n), PoissonFamily(k_max=n, lambda_max=float(n), lambda_grid=n),
            ChiSquaredFamily(x_max=float(n), x_grid=n, k_max=n)]


@pytest.mark.parametrize("log2_n", [10, 12, 14, 16])
def test_entries_match_mpmath_near_the_ridge(log2_n):
    # Relative error <= 5e-14 within one standard deviation of the ridge
    # (n_eff D <= 1/2), where the entries are largest, at every n up to 2^16.
    # Out to n_eff D <= 9.2 (the kernel down to 1e-4) the bd0 terms of size
    # |x - m| make the relative error grow as u |x - m| (about 1.6e-13 at
    # 2^16), so there the bound is on the error against the prefactor.  A
    # log-space model of the entries misses both by 30x at 2^10 and by
    # over 1000x at 2^16.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(log2_n)
    for spec in _unit_families(2 ** log2_n):
        km = kernel_map(spec)
        for max_exponent in (0.5, 9.2):
            pairs = _near_ridge(spec, rng, 40, max_exponent)
            i, j = pairs.T
            exact = entry_exact(spec, i, j)
            assert np.array_equal(exact, [entry_exact(spec, a, b) for a, b in pairs])
            # each pair in its own small block, as a builder would ask for it
            n_rows, n_cols = spec.shape
            r0, c0 = np.maximum(i - 3, 0), np.maximum(j - 5, 0)
            oracle = [block_oracle(spec, a, min(a + 9, n_rows), b, min(b + 11, n_cols))(
                      np.intp(ii - a), np.array([jj - b]))[0]
                      for a, b, ii, jj in zip(r0, c0, i, j)]
            assert np.array_equal(oracle, exact)
            ref = np.array([float(_mp_entry(mp, spec, a, b)) for a, b in pairs])
            err = np.abs(exact - ref)
            if max_exponent == 0.5:
                assert np.max(err / ref) <= 5e-14, type(spec).__name__
            else:
                pref = np.exp(km.exact_log_prefactor[i if km.prefactor_axis == "row" else j])
                assert np.max(err / pref) <= 5e-14, type(spec).__name__


def _mp_stirlerr(mp, x):
    x = mp.mpf(x)
    return mp.loggamma(x + 1) - (x + mp.mpf(0.5)) * mp.log(x) + x - mp.log(2 * mp.pi) / 2


@pytest.mark.parametrize("spec", [BinomialFamily(n=300, cols=41),
                                  PoissonFamily(k_max=200, lambda_max=150.0, lambda_grid=60),
                                  ChiSquaredFamily(x_max=150.0, x_grid=60, k_max=200)],
                         ids=["binomial", "poisson", "chisq"])
def test_exact_entry_is_the_stirling_entry_times_exp_minus_stirlerr(spec):
    # exact prefactor = Stirling prefactor * exp(-c), with c from Stirling's
    # series remainder stirlerr: stirlerr(k) + stirlerr(n - k) - stirlerr(n)
    # (binomial), stirlerr(k) (Poisson), stirlerr(k/2 - 1) (chi-squared)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    km = kernel_map(spec)
    n_rows, n_cols = spec.shape
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 60:
        i, j = int(rng.integers(n_rows)), int(rng.integers(n_cols))
        if i in km.singular_rows or j in km.singular_cols:
            continue
        if isinstance(spec, BinomialFamily):
            c = _mp_stirlerr(mp, i) + _mp_stirlerr(mp, spec.n - i) - _mp_stirlerr(mp, spec.n)
        elif isinstance(spec, PoissonFamily):
            c = _mp_stirlerr(mp, i)
        else:
            c = _mp_stirlerr(mp, spec.col_values()[j] / 2 - 1)
        exact = entry_exact(spec, i, j)
        if exact < 1e-280:
            continue   # underflowed past the double range
        expected = entry_stirling(spec, i, j) * float(mp.exp(-c))
        assert exact == pytest.approx(expected, rel=1e-14)
        checked += 1
