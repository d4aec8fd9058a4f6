"""Separated-approximation builders against dense oracles."""

import itertools
import math

import numpy as np
import pytest

from hlrd.divergence import DivergenceKind, Regime, _bernoulli, divergence, solve_thresholds
from hlrd.families import (
    BinomialFamily,
    ChiSquaredFamily,
    PoissonFamily,
    block_oracle,
    dense_matrix,
    entry_exact,
    kernel_map,
)
from hlrd.hmatrix import Builder, compress, index_layout
from hlrd.partition import Block, QuarterPlane, UnitSquare, block_intervals, build_scheme
from hlrd.separated import (
    BuilderError,
    RankConvention,
    SeparatedApprox,
    aca_blocks,
    aca_build,
    build_constructive,
    build_product,
    numerical_rank,
    rank_from_singular_values,
)
from hlrd import hmatrix, separated

K = DivergenceKind


def rate_kernel(n, pg, qg):
    """Dense oracle for exp(-n * rate(p, q)), with the q = 0 limit."""
    P, Q = np.meshgrid(pg, qg, indexing="ij")
    out = np.zeros_like(P)
    pos = Q > 0.0
    out[pos] = np.exp(-n * divergence(K.RATE, P[pos], Q[pos]))
    out[(Q == 0.0) & (P == 0.0)] = 1.0
    return out


def bernoulli_kernel(n, pg, qg):
    P, Q = np.meshgrid(pg, qg, indexing="ij")
    out = np.zeros_like(P)
    inner = (Q > 0.0) & (Q < 1.0)
    out[inner] = np.exp(-n * divergence(K.BERNOULLI, P[inner], Q[inner]))
    out[(Q == 0.0) & (P == 0.0)] = 1.0
    out[(Q == 1.0) & (P == 1.0)] = 1.0
    return out


# ---------------------------------------------------------------------------
# numerical rank
# ---------------------------------------------------------------------------

def test_numerical_rank_trivial_cases():
    assert numerical_rank(np.zeros((5, 7)), 1e-9) == 0
    u = np.linspace(1, 2, 6)
    v = np.linspace(-1, 1, 4)
    m = np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    assert numerical_rank(m, 0.5) == 1
    assert numerical_rank(m, 1e-12) == 1


def test_numerical_rank_svd_self_consistency():
    pg = np.linspace(1.0, 2.0, 128)
    qg = np.linspace(0.0, 1.0, 128)
    m = rate_kernel(1.0, pg, qg)
    eps = 1e-9
    r = numerical_rank(m, eps)
    u, s, vt = np.linalg.svd(m)
    rec = (u[:, :r] * s[:r]) @ vt[:r]
    assert np.linalg.norm(m - rec, 2) <= eps * s[0]
    rec1 = (u[:, :r - 1] * s[:r - 1]) @ vt[:r - 1]
    assert np.linalg.norm(m - rec1, 2) > eps * s[0]


def test_numerical_rank_monotone_in_eps():
    pg = np.linspace(1.0, 2.0, 64)
    qg = np.linspace(0.0, 1.0, 64)
    m = rate_kernel(4.0, pg, qg)
    ranks = [numerical_rank(m, 10.0 ** (-t)) for t in range(3, 13)]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def test_numerical_rank_conventions_differ():
    m = 1e-3 * np.eye(4)
    assert numerical_rank(m, 1e-2, RankConvention.RELATIVE_TO_SIGMA1) == 4
    assert numerical_rank(m, 1e-2, RankConvention.ABSOLUTE) == 0


def test_numerical_rank_rejects_nonfinite():
    m = np.zeros((3, 3))
    m[1, 1] = np.inf
    with pytest.raises(ValueError):
        numerical_rank(m, 1e-6)


def _svd_count(a, eps, convention, share=1.0):
    return rank_from_singular_values(separated._support_singular_values(a, share), eps,
                                     convention)


def _with_spectrum(s, seed=0):
    """A 200 x 200 matrix with singular values ``s`` (zero past them), random singular vectors."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((200, s.size)))[0]
    v = np.linalg.qr(rng.standard_normal((200, s.size)))[0]
    return (u * s) @ v.T


@pytest.mark.parametrize("convention", list(RankConvention))
def test_support_rank_leaves_a_value_inside_the_pad_to_the_svd(convention):
    # sigma_7 sits 1e-9 of itself above the threshold 1e-6, far inside the sketch's
    # pad: the sketch may not settle that count, the support SVD does; moved away
    # from the value, the same threshold is settled by the sketch alone
    s = 10.0 ** -np.arange(13.0)
    s[6] = 1e-6 * (1.0 + 1e-9)
    a = _with_spectrum(s)
    eps = 1e-6 * (separated.singular_values(a)[0]
                  if convention is RankConvention.ABSOLUTE else 1.0)
    counts, sketched = separated._support_rank(a, eps, convention)
    assert (counts, sketched) == (_svd_count(a, eps, convention), False)
    for moved in (eps / 3.0, eps * 3.0):
        counts, sketched = separated._support_rank(a, moved, convention)
        assert (counts, sketched) == (_svd_count(a, moved, convention), True)


@pytest.mark.parametrize("convention", list(RankConvention))
def test_support_rank_of_full_rank_and_zero_matrices_is_the_svd_count(convention):
    # a random full-rank matrix leaves a residual no sketch width can shrink, and a
    # zero matrix has no spectrum: both are counted by the support SVD
    eps = np.array([1e-3, 1e-6, 1e-9, 1e-12])
    full = np.random.default_rng(3).standard_normal((200, 200))
    for a in (full, np.zeros((200, 200))):
        counts, sketched = separated._support_rank(a, eps, convention)
        assert not sketched
        assert counts.tolist() == _svd_count(a, eps, convention).tolist()
    assert separated._support_rank(full, 1e-9, convention)[0] == 200


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_support_rank_rejects_nonfinite(bad):
    a = _with_spectrum(10.0 ** -np.arange(8.0))
    a[17, 33] = bad
    for convention in RankConvention:
        with pytest.raises(ValueError, match="non-finite"):
            separated._support_rank(a, [1e-3, 1e-9], convention)
        with pytest.raises(ValueError, match="non-finite"):
            numerical_rank(a, 1e-6, convention)


def test_sketch_matrix_is_the_seeded_draw_whatever_came_before():
    # Omega is default_rng(0)'s (n, width) draw, sliced from a cached larger draw
    for n, width in ((1000, 16), (300, 16), (129, 32), (64, 16)):
        want = np.random.default_rng(0).standard_normal((n, width))
        assert np.array_equal(separated._sketch_matrix(n, width), want), (n, width)


def test_numerical_rank_of_a_smooth_kernel_is_sketched_and_exact():
    pg = np.linspace(1.0, 2.0, 160)
    qg = np.linspace(0.0, 1.0, 150)
    m = rate_kernel(2.0, pg, qg)
    m /= np.linalg.norm(m)   # sigma_1 near 1, so abs thresholds clear the pad as rel ones do
    for t in range(3, 13):
        for convention in RankConvention:
            counts, sketched = separated._support_rank(m, 10.0 ** -t, convention)
            assert sketched, (t, convention)
            assert counts == numerical_rank(m, 10.0 ** -t, convention)
            assert counts == _svd_count(m, 10.0 ** -t, convention)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_rank_rejects_eps_not_positive(eps):
    # checked before anything else, the empty spectrum included
    for s in (np.array([1.0, 0.5]), np.zeros(0)):
        for convention in RankConvention:
            with pytest.raises(ValueError):
                rank_from_singular_values(s, eps, convention)
    with pytest.raises(ValueError):
        numerical_rank(np.eye(3), eps)


FAMILY_SPECS = {
    "binomial": lambda n: BinomialFamily(n=n),
    "poisson": lambda n: PoissonFamily(k_max=n, lambda_max=float(n), lambda_grid=n),
    "chisq": lambda n: ChiSquaredFamily(x_max=float(n), x_grid=n, k_max=n),
}


@pytest.mark.parametrize("leaf", [8, 32])
@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_support_singular_values_match_full_svd_on_family_blocks(family, n, leaf):
    spec = FAMILY_SPECS[family](n)
    _, _, blocks, _, _ = index_layout(spec, leaf_size=leaf)
    full = dense_matrix(spec)
    for region, (r0, r1, c0, c1) in blocks:
        a = full[r0:r1, c0:c1]
        s = separated.singular_values(a)
        s_full = np.linalg.svd(a, compute_uv=False)
        # Weyl: the support's spectrum is within u ||A||_F of the full one
        # (tolerance 4 u ||A||_F for the two SVDs' own rounding)
        tol = 4.0 * 2.0 ** -53 * np.linalg.norm(a)
        assert s.size <= s_full.size
        assert np.all(np.diff(s) <= 0.0)
        assert np.max(np.abs(s - s_full[:s.size]), initial=0.0) <= tol, region
        assert np.all(s_full[s.size:] <= tol), region
        for t in range(3, 15):
            for convention in RankConvention:
                assert (rank_from_singular_values(s, 10.0 ** -t, convention)
                        == rank_from_singular_values(s_full, 10.0 ** -t, convention)), \
                    (region, t, convention)


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (40, 40), (25, 60)])
def test_support_keeps_every_row_and_column_of_a_dense_matrix(shape):
    a = np.random.default_rng(5).standard_normal(shape)
    s = separated.singular_values(a)
    s_full = np.linalg.svd(a, compute_uv=False)
    assert s.shape == s_full.shape
    assert np.allclose(s, s_full, rtol=0.0, atol=4.0 * 2.0 ** -53 * np.linalg.norm(a))


def test_support_drops_rows_and_columns_below_rounding_level():
    a = np.zeros((6, 5))
    a[1:3, 2:4] = [[1.0, 2.0], [3.0, 4.0]]
    a[0, 0] = 1e-20      # far below u ||A||_F: dropped with its row and column
    a[5, 4] = 1e-300
    s = separated.singular_values(a)
    assert s.shape == (2,)
    assert np.array_equal(s, np.linalg.svd(a[1:3, 2:4], compute_uv=False))
    # the norms are taken after scaling, so tiny and huge matrices keep the same support
    for scale in (1e-300, 1e300):
        assert separated.singular_values(a * scale).shape == (2,)


def test_support_of_zero_matrix_is_empty():
    s = separated.singular_values(np.zeros((5, 7)))
    assert s.shape == (0,)
    assert rank_from_singular_values(s, 1e-9) == 0
    assert separated.singular_values(np.zeros((0, 4))).shape == (0,)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_support_rejects_nonfinite(bad):
    m = np.eye(3)
    m[2, 0] = bad
    with pytest.raises(ValueError):
        separated.singular_values(m)


def test_rank_grows_at_most_linearly_in_log_accuracy():
    pg = np.linspace(1.0, 2.0, 96)
    qg = np.linspace(0.0, 1.0, 96)
    m = rate_kernel(1.0, pg, qg)
    ts = np.arange(3, 13, dtype=float)
    ranks = np.array([numerical_rank(m, 10.0 ** (-t)) for t in ts], dtype=float)
    A = np.vstack([ts, np.ones_like(ts)]).T
    _, res, *_ = np.linalg.lstsq(A, ranks, rcond=None)
    ss = np.sum((ranks - ranks.mean()) ** 2)
    r2 = 1.0 - (res[0] if res.size else 0.0) / ss
    assert r2 >= 0.9


# ---------------------------------------------------------------------------
# constructive builder
# ---------------------------------------------------------------------------

def _one_block_factors(kind, n, eps, intervals, p, q):
    """The level builder's raw factors for one block with the given intervals and grids."""
    at_p, at_q = np.zeros(np.size(p), dtype=np.intp), np.zeros(np.size(q), dtype=np.intp)
    return separated._constructive_factors(kind, n, eps, tuple(np.array([x]) for x in intervals),
                                           p, at_p, q, at_q)[0]


def _unit_rate_factors(regime, n_scaled, eps, p_hat, q_hat):
    """Raw factors of exp(-n' rate(p, q)) on the unit configuration: a block with corner 1."""
    intervals = (1.0, 2.0, 0.0, 1.0) if regime is Regime.LOWER else (0.0, 1.0, 1.0, 2.0)
    return _one_block_factors(K.RATE, n_scaled, eps, intervals, p_hat, q_hat)


def _unit_bernoulli_factors(p_interval, q_interval, n, eps, p, q):
    """Raw factors of exp(-n KL(p || q)) on a unit-square block."""
    return _one_block_factors(K.BERNOULLI, n, eps, (*p_interval, *q_interval), p, q)


@pytest.mark.parametrize("n_eff", [1.0, 32.0, 1024.0])
@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_constructive_unit_configuration(n_eff, eps):
    blk = Block(0, 1)  # [1,2] x [0,1], corner at (1,1)
    ap = build_constructive(blk, K.RATE, n_eff, eps, grid_size=64)
    exact = rate_kernel(n_eff, ap.p_grid, ap.q_grid)
    assert np.max(np.abs(ap.reconstruct() - exact)) <= 10.0 * eps
    assert ap.rank <= numerical_rank(exact, eps) + 3


@pytest.mark.parametrize("n_eff", [1.0, 32.0, 1024.0])
def test_constructive_upper_configuration(n_eff):
    eps = 1e-6
    blk = Block(0, 0)  # [0,1] x [1,2]
    ap = build_constructive(blk, K.RATE, n_eff, eps, grid_size=64)
    exact = rate_kernel(n_eff, ap.p_grid, ap.q_grid)
    assert np.max(np.abs(ap.reconstruct() - exact)) <= 10.0 * eps


def test_constructive_rank_zero_when_kernel_below_eps():
    # midpoint grids keep the diagonal corner off the sample set, so a very
    # large n pushes every sampled value below eps
    blk = Block(0, 1)
    pg = np.linspace(1.0, 2.0, 33)[1:]  # exclude p = 1
    qg = np.linspace(0.0, 1.0, 33)[:-1]  # exclude q = 1
    n = 1e7
    ap = build_constructive(blk, K.RATE, n, 1e-4, p_grid=pg, q_grid=qg)
    assert ap.rank == 0
    exact = rate_kernel(n, pg, qg)
    assert np.max(np.abs(ap.reconstruct() - exact)) <= 1e-4


def test_constructive_term_count_polylog():
    # recompressed rank stays far below the cubic multi-index budget
    for eps in (1e-4, 1e-6, 1e-9):
        blk = Block(0, 1)
        ap = build_constructive(blk, K.RATE, 1.0, eps, grid_size=64)
        d = int(16 * (math.log1p(math.log(1 / eps)) + math.log(1 / eps)))
        assert ap.rank <= (d + 1) * (d + 2) * (d + 3) / 6


def test_constructive_dual_matches_swapped_rate():
    blk = Block(2, 3)
    n, eps = 16.0, 1e-8
    ap = build_constructive(blk, K.RATE_DUAL, n, eps, grid_size=48)
    P, Q = np.meshgrid(ap.p_grid, ap.q_grid, indexing="ij")
    mask = P > 0
    exact = np.zeros_like(P)
    exact[mask] = np.exp(-n * divergence(K.RATE_DUAL, P[mask], Q[mask]))
    assert np.max(np.abs(ap.reconstruct() - exact)) <= 10.0 * eps


def test_constructive_reflected_on_unit_square():
    n, eps = 256.0, 1e-6
    for blk in (Block(1, 0), Block(1, 1), Block(3, 2)):
        ap = build_constructive(blk, K.RATE_REFLECTED, n, eps, grid_size=48)
        P, Q = np.meshgrid(ap.p_grid, ap.q_grid, indexing="ij")
        exact = np.zeros_like(P)
        inner = Q < 1.0
        exact[inner] = np.exp(-n * divergence(K.RATE, 1.0 - P[inner], 1.0 - Q[inner]))
        exact[(Q == 1.0) & (P == 1.0)] = 1.0
        assert np.max(np.abs(ap.reconstruct() - exact)) <= 10.0 * eps


def test_constructive_reflected_needs_unit_square():
    for kind in (K.RATE_REFLECTED, K.BERNOULLI):
        with pytest.raises(BuilderError):
            build_constructive(Block(-1, 1), kind, 4.0, 1e-6, grid_size=16)


@pytest.mark.parametrize("blk", [Block(1, 0), Block(1, 1), Block(3, 4), Block(3, 5),
                                 Block(8, 100), Block(8, 101)])
def test_constructive_builds_bernoulli_kernel(blk):
    # one cross factor at the diagonal corner: within 10 eps of the kernel,
    # at most one term past the SVD's absolute-threshold rank
    pg = np.linspace(*blk.p_interval, 64)
    qg = np.linspace(*blk.q_interval, 64)
    for n, eps in itertools.product([8.0, 2.0 ** 10, 2.0 ** 14, 2.0 ** 20],
                                    [1e-4, 1e-6, 1e-9, 1e-12]):
        ap = build_constructive(blk, K.BERNOULLI, n, eps, p_grid=pg, q_grid=qg)
        exact = bernoulli_kernel(n, pg, qg)
        assert np.max(np.abs(ap.reconstruct() - exact)) <= 10.0 * eps, (n, eps)
        assert ap.rank <= numerical_rank(exact, eps, RankConvention.ABSOLUTE) + 1, (n, eps)


def test_constructive_matches_family_scaling():
    # same machinery on a real staircase block away from the unit corner
    blk = Block(-3, 1)  # [8,16] x [0,8], corner 8
    eps = 1e-6
    ap = build_constructive(blk, K.RATE, 1.0, eps, grid_size=64)
    exact = rate_kernel(1.0, ap.p_grid, ap.q_grid)
    assert np.max(np.abs(ap.reconstruct() - exact)) <= 10.0 * eps


def _solved_box_degree(regime, n_scaled, eps):
    """Interpolation degree on the whole threshold box [0, s_max] x [0, t_max], as solved."""
    pair = solve_thresholds(math.log(1.0 / eps) / n_scaled, regime)
    sigma = 1.0 if regime is Regime.LOWER else -1.0
    s_max, t_max = n_scaled * (sigma * (pair.p_m - 1.0)), sigma * pair.neg_log_q_m
    return separated._cross_degree(s_max * t_max, eps)


def test_constructive_degree_grows_like_log_accuracy():
    # raw factor width (interpolation nodes) of the builder itself, before
    # recompression: non-decreasing, at most 3 ln(1/eps) and at most the
    # solved box's degree + 1; that degree, the paper's bound, is linear in
    # ln(1/eps) (the builder's widths follow the grid's points inside the
    # box, which move one grid point at a time)
    eps_list = [10.0 ** -t for t in range(3, 13)]
    logs = np.array([math.log(1.0 / e) for e in eps_list])
    grids = {Regime.LOWER: (np.linspace(1.0, 2.0, 17), np.linspace(0.0, 1.0, 17)),
             Regime.UPPER: (np.linspace(0.0, 1.0, 17), np.linspace(1.0, 2.0, 17))}
    for regime in Regime:
        pg, qg = grids[regime]
        for n_scaled in (1.0, 32.0, 1024.0, 2.0 ** 14):
            widths = np.array([_unit_rate_factors(regime, n_scaled, e, pg, qg)[0].shape[1]
                               for e in eps_list], dtype=float)
            solved = np.array([_solved_box_degree(regime, n_scaled, e) for e in eps_list],
                              dtype=float)
            assert np.all(np.diff(widths) >= 0), (regime, n_scaled, widths)
            assert np.all(widths <= 3.0 * logs), (regime, n_scaled, widths)
            assert np.all(widths <= solved + 1), (regime, n_scaled, widths, solved)
            A = np.vstack([logs, np.ones_like(logs)]).T
            _, res, *_ = np.linalg.lstsq(A, solved, rcond=None)
            r2 = 1.0 - res[0] / np.sum((solved - solved.mean()) ** 2)
            assert r2 >= 0.95, (regime, n_scaled, solved, r2)


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("n_scaled", [0.5, 32.0, 2.0 ** 14])
@pytest.mark.parametrize("eps", [1e-3, 1e-9])
def test_threshold_rule_is_the_solvers_box(regime, n_scaled, eps):
    # The rule compares the left-hand sides of solve_thresholds' equations
    # with ln(1/eps), so on the unit configuration it keeps the points the
    # solved thresholds keep, but for points within the solver's tolerance
    # of a threshold; the constructive factors vanish exactly outside it.
    lower = regime is Regime.LOWER
    p_hat = np.linspace(1.0, 2.0, 2001) if lower else np.linspace(0.0, 1.0, 2001)
    q_hat = np.linspace(0.0, 1.0, 2001) if lower else np.linspace(1.0, 2.0, 2001)
    block = np.array([1.0, 2.0, 0.0, 1.0] if lower else [0.0, 1.0, 1.0, 2.0])[:, None]
    at = np.zeros(p_hat.size, dtype=np.intp)
    p_in, q_in = separated.threshold_masks(K.RATE, n_scaled, eps, tuple(block),
                                           p_hat, at, q_hat, at)
    pair = solve_thresholds(math.log(1.0 / eps) / n_scaled, regime)
    sigma = 1.0 if lower else -1.0
    near_p = np.abs(p_hat - pair.p_m) <= 1e-9
    assert np.array_equal(p_in[~near_p], (sigma * (p_hat - pair.p_m) <= 0.0)[~near_p])
    near_q = np.abs(q_hat - pair.q_m) <= 1e-9
    with np.errstate(divide="ignore"):
        solver_q = -sigma * np.log(q_hat) <= sigma * pair.neg_log_q_m
    assert np.array_equal(q_in[~near_q], solver_q[~near_q])
    alpha, beta = _unit_rate_factors(regime, n_scaled, eps, p_hat, q_hat)
    assert np.array_equal(alpha.any(axis=1), p_in) and np.array_equal(beta.any(axis=1), q_in)


def _unit_grids(regime, span, size, p_start=0.0):
    """Grids over the unit configuration, ``span`` wide from the corner; p begins ``p_start`` in."""
    if regime is Regime.LOWER:
        return np.linspace(1.0 + p_start, 1.0 + span, size), np.linspace(1.0 - span, 1.0, size)
    return np.linspace(1.0 - span, 1.0 - p_start, size), np.linspace(1.0, 1.0 + span, size)


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("n_scaled", [0.5, 32.0, 1024.0, 2.0 ** 14])
@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
def test_unit_rate_factors_accurate_on_narrow_grids(regime, n_scaled, eps):
    # the nodes sit on the grid's own interval: a block away from the origin
    # spans a sliver of its configuration, and the factors stay within the
    # interpolation bound there, and exactly zero outside the threshold box;
    # p-grids from the corner and from half-way out (s bounded away from 0)
    log_inv_eps = math.log(1.0 / eps)
    for span, p_start in itertools.product((0.999, 1.0 / 4, 1.0 / 16, 1.0 / 256), (0.0, 0.5)):
        p_hat, q_hat = _unit_grids(regime, span, 129, p_start * span)
        alpha, beta = _unit_rate_factors(regime, n_scaled, eps, p_hat, q_hat)
        inside = np.outer(separated._rate_to_one(n_scaled, p_hat) <= log_inv_eps,
                          separated._rate_from_one(n_scaled, q_hat) <= log_inv_eps)
        approx = alpha @ beta.T
        assert not approx[~inside].any(), (span, p_start)
        err = np.abs(approx - rate_kernel(n_scaled, p_hat, q_hat))[inside]
        assert np.max(err, initial=0.0) <= eps / 2, (span, p_start, np.max(err) / eps)


def _check_box_invariance(build, p, q, p_in, q_in):
    """Factors on the whole grids: zero outside the box, bit for bit those of the points inside."""
    alpha, beta = build(p, q)
    alpha_in, beta_in = build(p[p_in], q[q_in])
    assert np.array_equal(alpha[p_in], alpha_in) and np.array_equal(beta[q_in], beta_in)
    assert not alpha[~p_in].any() and not beta[~q_in].any()
    return alpha.shape[1]


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("n_scaled", [0.5, 32.0, 1024.0, 2.0 ** 14])
@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
def test_grid_past_the_box_gets_the_solvers_interval(regime, n_scaled, eps):
    # a grid over the whole unit configuration reaches past the threshold box
    # (at q = 0 in the lower regime); its expansion is the one its points
    # inside the box give alone, so the interval it interpolates over is the
    # solver's [0, s_max] x [0, t_max] traced on the grid, and its raw width
    # is at most that box's degree + 1
    log_inv_eps = math.log(1.0 / eps)
    p_hat, q_hat = _unit_grids(regime, 1.0, 513)
    p_in = separated._rate_to_one(n_scaled, p_hat) <= log_inv_eps
    q_in = separated._rate_from_one(n_scaled, q_hat) <= log_inv_eps
    width = _check_box_invariance(
        lambda p, q: _unit_rate_factors(regime, n_scaled, eps, p, q),
        p_hat, q_hat, p_in, q_in)
    assert width <= _solved_box_degree(regime, n_scaled, eps) + 1


@pytest.mark.parametrize("blk", [Block(1, 0), Block(1, 1), Block(3, 4), Block(3, 5),
                                 Block(8, 100), Block(8, 101)])
def test_bernoulli_expansion_depends_only_on_points_in_the_box(blk):
    pg = np.linspace(*blk.p_interval, 257)
    qg = np.linspace(*blk.q_interval, 257)
    intervals = tuple(np.array([x]) for x in (*blk.p_interval, *blk.q_interval))
    at = np.zeros(pg.size, dtype=np.intp)
    for n, eps in itertools.product([8.0, 2.0 ** 10, 2.0 ** 14, 2.0 ** 20],
                                    [1e-3, 1e-6, 1e-9, 1e-12]):
        p_in, q_in = separated.threshold_masks(K.BERNOULLI, n, eps, intervals, pg, at, qg, at)
        _check_box_invariance(
            lambda p, q: _unit_bernoulli_factors(blk.p_interval, blk.q_interval,
                                                           n, eps, p, q),
            pg, qg, p_in, q_in)


def test_p_side_exponent_matches_mpmath_near_the_corner():
    # n' rate(p || 1) in the bd0 form: p ln p - p + 1 cancels as p -> 1, and at
    # n' = 2^20 its kernel exp(-n' rate(p || 1)) read 5.8e-11 off on this grid
    mp = pytest.importorskip("mpmath")
    n_scaled, p_hat = 2.0 ** 20, np.linspace(1.0, 1.0 + 1.0 / 256, 129)
    with mp.workdps(30):
        ref = np.array([float(mp.exp(-n_scaled * (x * mp.log(x) - x + 1)))
                        for x in map(mp.mpf, p_hat.tolist())])
    err = np.abs(np.exp(-separated._rate_to_one(n_scaled, p_hat)) - ref)
    assert np.max(err) <= 2e-13


@pytest.mark.parametrize("kind", list(K))
def test_threshold_masks_with_a_level_per_block_match_one_call_per_block(kind):
    # eps as an array, one level per block, gives bit for bit the masks of one scalar
    # call per block: blocks above (even index) and below (odd) the diagonal, on grids
    # of their own sizes over the whole block
    levels, indices = np.array([1, 1, 3, 3, 6, 6]), np.array([0, 1, 4, 5, 20, 21])
    eps, n = np.array([1e-3, 1e-6, 1e-9, 1e-12, 1e-4, 1e-8]), 4096.0
    intervals = block_intervals(levels, indices)
    p_grids = [np.linspace(lo, hi, 17 + b) for b, (lo, hi) in enumerate(zip(*intervals[:2]))]
    q_grids = [np.linspace(lo, hi, 23 + 2 * b) for b, (lo, hi) in enumerate(zip(*intervals[2:]))]
    p_block = np.repeat(np.arange(levels.size), [g.size for g in p_grids])
    q_block = np.repeat(np.arange(levels.size), [g.size for g in q_grids])
    p_in, q_in = separated.threshold_masks(kind, n, eps, intervals, np.concatenate(p_grids),
                                           p_block, np.concatenate(q_grids), q_block)
    alone = [separated.threshold_masks(kind, n, eps[b], tuple(x[b:b + 1] for x in intervals),
                                       p_grids[b], np.zeros(p_grids[b].size, dtype=np.intp),
                                       q_grids[b], np.zeros(q_grids[b].size, dtype=np.intp))
             for b in range(levels.size)]
    assert np.array_equal(p_in, np.concatenate([p for p, _ in alone]))
    assert np.array_equal(q_in, np.concatenate([q for _, q in alone]))
    # the levels cut through the blocks: both masks hold points inside and outside
    assert p_in.any() and not p_in.all() and q_in.any() and not q_in.all()


@pytest.mark.parametrize("regime", list(Regime))
def test_unit_rate_factors_on_empty_and_one_point_grids(regime):
    n_scaled, eps = 32.0, 1e-6
    p_hat, q_hat = _unit_grids(regime, 0.25, 5)
    empty = np.zeros(0)
    for pg, qg in ((empty, q_hat), (p_hat, empty), (empty, empty)):
        alpha, beta = _unit_rate_factors(regime, n_scaled, eps, pg, qg)
        assert alpha.shape == (pg.size, 0) and beta.shape == (qg.size, 0)
    # one point on a side: an s-interval of width 0, or a single t
    for pg, qg in ((p_hat[2:3], q_hat), (p_hat, q_hat[2:3]), (p_hat[2:3], q_hat[2:3])):
        alpha, beta = _unit_rate_factors(regime, n_scaled, eps, pg, qg)
        assert np.max(np.abs(alpha @ beta.T - rate_kernel(n_scaled, pg, qg))) <= eps / 2


def test_constructive_on_empty_grids_is_rank_zero():
    blk = Block(0, 1)
    pg, qg, empty = np.linspace(1.0, 2.0, 4), np.linspace(0.0, 1.0, 5), np.zeros(0)
    for kind in (K.RATE, K.RATE_DUAL):
        for p_grid, q_grid in ((empty, qg), (pg, empty), (empty, empty)):
            ap = build_constructive(blk, kind, 32.0, 1e-6, p_grid=p_grid, q_grid=q_grid)
            assert ap.alpha.shape == (p_grid.size, 0) and ap.beta.shape == (q_grid.size, 0)


@pytest.mark.parametrize("n", [2 ** 8, 2 ** 11])
@pytest.mark.parametrize("family", ["binomial", "poisson", "chisq"])
def test_compress_solves_no_thresholds(monkeypatch, family, n):
    # the constructive builder interpolates over the grid points inside the
    # threshold box, so neither a whole-block grid nor compress solves one
    calls = []
    solve = separated.solve_thresholds

    def spy(m, regime):
        calls.append((m, regime))
        return solve(m, regime)

    monkeypatch.setattr(separated, "solve_thresholds", spy)
    build_constructive(Block(0, 1), K.RATE, 32.0, 1e-6, grid_size=17)
    for eps in (1e-3, 1e-6, 1e-9, 1e-12):
        compress(FAMILY_SPECS[family](n), eps, builder=Builder.CONSTRUCTIVE)
    assert calls == []


def test_unit_configuration_is_the_transformed_block_geometry():
    # for each kernel kind: the rate kernel's block lies below the diagonal
    # exactly when the kernel's divergence is rate(larger || smaller) on
    # it, and it touches the diagonal at the image of the block's corner
    for scheme in (build_scheme(UnitSquare(5)), build_scheme(QuarterPlane(8.0, 2))):
        for level in scheme.levels:
            for index in range(scheme.cells(level)):
                blk = Block(level, index)
                (plo, phi), (qlo, qhi) = blk.p_interval, blk.q_interval
                below = qhi <= plo
                corner = next(p for p, q in ((plo, qlo), (plo, qhi), (phi, qlo), (phi, qhi))
                              if p == q)
                expected = {K.RATE: (below, corner), K.RATE_DUAL: (not below, corner)}
                if scheme.extent == 1.0:
                    # rate(1-p || 1-q): 1-p exceeds 1-q where q > p
                    expected[K.RATE_REFLECTED] = (not below, 1.0 - corner)
                grid = np.linspace(0.0, 1.0, 3)
                for kind, (lower, point) in expected.items():
                    p_int, q_int, _, _ = separated._rate_coordinates(
                        kind, blk.p_interval, blk.q_interval, grid, grid)
                    below_got, got = separated._unit_configuration(p_int, q_int)
                    assert bool(below_got) is lower, (blk, kind)
                    assert got == point, (blk, kind)


# The per-block constructive path that the level builder replaced, pinned here as
# the reference its raw factors must match bit for bit: each block split at its
# corner on its own, masked by its own threshold_masks call, interpolated alone.

def _reference_lagrange_matrix(x, nodes, weights):
    diff = x[:, None] - nodes[None, :]
    exact = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        w_over = weights[None, :] / diff
        out = w_over / np.sum(w_over, axis=1)[:, None]
    if exact.any():
        hit_rows = np.any(exact, axis=1)
        out[hit_rows, :] = exact[hit_rows, :].astype(np.float64)
    return out


def _reference_cross_factors(s, t, u, v, mask_p, mask_q, eps):
    if not (np.any(mask_p) and np.any(mask_q)):
        return np.zeros((s.size, 0)), np.zeros((t.size, 0))
    s_in, t_in = s[mask_p], t[mask_q]
    s_lo, s_hi = max(0.0, float(np.min(s_in))), float(np.max(s_in))
    degree = separated._cross_degree((s_hi - s_lo) * float(np.max(t_in)), eps)
    unit_nodes, weights = separated._cheb_nodes_weights(degree)
    nodes = s_lo + 0.5 * (s_hi - s_lo) * unit_nodes
    alpha = np.zeros((s.size, nodes.size))
    alpha[mask_p, :] = (_reference_lagrange_matrix(s_in, nodes, weights)
                        * np.exp(-u[mask_p])[:, None])
    beta = np.zeros((t.size, nodes.size))
    beta[mask_q, :] = np.exp(-np.outer(t_in, nodes) - v[mask_q, None])
    return alpha, beta


def _reference_raw_factors(blk, kind, n, eps, p_grid, q_grid):
    """The parent's ``build_constructive`` up to its ``_recompress``."""
    (plo, phi), (qlo, qhi) = blk.p_interval, blk.q_interval
    log_inv_eps = math.log(1.0 / eps)
    if kind is K.BERNOULLI:
        sigma = 1.0 if plo > qlo else -1.0
        corner = max(plo, qlo)
        intervals = tuple(np.array([x]) for x in (plo, phi, qlo, qhi))
        mask_p, mask_q = separated.threshold_masks(K.BERNOULLI, n, eps, intervals,
                                                   p_grid, np.zeros(p_grid.size, dtype=np.intp),
                                                   q_grid, np.zeros(q_grid.size, dtype=np.intp))
        s = n * (sigma * (p_grid - corner))
        u = n * _bernoulli(p_grid, corner)
        d = corner - q_grid
        with np.errstate(divide="ignore", invalid="ignore"):
            v = n * _bernoulli(corner, q_grid)
            t = sigma * (np.log1p(d / q_grid) + np.log1p(d / (1.0 - corner)))
        return _reference_cross_factors(s, t, u, v, mask_p, mask_q, eps)
    p_vals, q_vals = p_grid, q_grid
    if kind is K.RATE_DUAL:
        (plo, phi), (qlo, qhi), p_vals, q_vals = (qlo, qhi), (plo, phi), q_grid, p_grid
    elif kind is K.RATE_REFLECTED:
        (plo, phi), (qlo, qhi), p_vals, q_vals = (1.0 - phi, 1.0 - plo), (1.0 - qhi, 1.0 - qlo), \
            1.0 - p_grid, 1.0 - q_grid
    sigma = 1.0 if plo > qlo else -1.0
    corner = max(plo, qlo)
    n_scaled, p_hat, q_hat = n * corner, p_vals / corner, q_vals / corner
    s = n_scaled * (sigma * (p_hat - 1.0))
    with np.errstate(divide="ignore"):
        t = -sigma * np.log(q_hat)
    u = separated._rate_to_one(n_scaled, p_hat)
    v = separated._rate_from_one(n_scaled, q_hat)
    alpha, beta = _reference_cross_factors(s, t, u, v, u <= log_inv_eps, v <= log_inv_eps, eps)
    return (beta, alpha) if kind is K.RATE_DUAL else (alpha, beta)


def _level_call(kmap, eps, regions, boxes):
    """The level builder's raw factors for the blocks ``regions`` on the index boxes ``boxes``."""
    regions, boxes = np.array(regions, dtype=np.intp), np.array(boxes, dtype=np.intp)
    rows, row_block, _ = hmatrix._spans(boxes[:, 0], boxes[:, 1])
    cols, col_block, _ = hmatrix._spans(boxes[:, 2], boxes[:, 3])
    return separated._constructive_factors(
        kmap.kind, kmap.n_eff, eps, block_intervals(regions[:, 0], regions[:, 1]),
        kmap.p_of_row[rows], row_block, kmap.q_of_col[cols], col_block)


def _assert_same_bits(got, ref, where):
    for a, b in zip(got, ref):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), where


@pytest.mark.parametrize("n", [2 ** 8, 2 ** 11, 2 ** 12])
@pytest.mark.parametrize("family", ["binomial", "poisson", "chisq"])
def test_level_builder_matches_the_per_block_path(family, n):
    # one call over all of a matrix's blocks: on the threshold boxes, plus a
    # one-row and a one-column cut of every fourth box (degrees from 0 up mixed
    # in one call); and on the whole blocks, whose grids reach past the box (zero
    # rows there, the interval from the points inside) or hold no point inside
    spec = FAMILY_SPECS[family](n)
    kmap = kernel_map(spec)
    _, _, block_ranges, _, _ = index_layout(spec)
    for eps in (1e-6, 1e-9, 1e-12):
        boxes = hmatrix._threshold_boxes(kmap, block_ranges, eps)
        built = [(region, box) for (region, _), box in zip(block_ranges, boxes) if box is not None]
        cuts = [(region, (r0, r0 + 1, c0, c1)) for region, (r0, r1, c0, c1) in built[::4]]
        cuts += [(region, (r0, r1, c1 - 1, c1)) for region, (r0, r1, c0, c1) in built[1::4]]
        for case, blocks in (("box", built + cuts), ("block", block_ranges)):
            regions, grids = zip(*blocks)
            got = _level_call(kmap, eps, regions, grids)
            widths, zero_rows = set(), 0
            for (level, index), (r0, r1, c0, c1), pair in zip(regions, grids, got):
                ref = _reference_raw_factors(Block(level, index), kmap.kind, kmap.n_eff, eps,
                                             kmap.p_of_row[r0:r1], kmap.q_of_col[c0:c1])
                _assert_same_bits(pair, ref, (eps, case, level, index))
                widths.add(pair[0].shape[1])
                zero_rows += sum(int(np.sum(~f.any(axis=1))) for f in pair if f.shape[1])
            assert len(widths) > 2, (eps, case, widths)
            # on box grids every point is inside; whole blocks reach past their boxes
            assert (zero_rows > 0) is (case == "block"), (eps, case)


def test_level_builder_checks_its_block_ids():
    intervals = tuple(np.array([x, x]) for x in (1.0, 2.0, 0.0, 1.0))
    grid, ok = np.linspace(1.0, 2.0, 4), np.array([0, 0, 1, 1])
    for bad in (np.array([0, 1, 0, 1]), np.array([0, 0, 1, 2]), np.array([-1, 0, 1, 1])):
        with pytest.raises(ValueError, match="block ids"):
            separated._constructive_factors(K.RATE, 8.0, 1e-6, intervals,
                                            grid, bad, 1.0 - grid / 2, ok)


@pytest.mark.parametrize("family", ["binomial", "poisson", "chisq"])
def test_compress_folds_the_prefactor_in_before_each_recompression(monkeypatch, family):
    # each block recompresses its raw factors with the exact prefactor multiplied into
    # the factor on kmap.prefactor_axis, at eps itself
    spec, eps = FAMILY_SPECS[family](2 ** 8), 1e-9
    kmap = kernel_map(spec)
    seen = []
    recompress = separated._recompress

    def spy(alpha, beta, threshold):
        seen.append((alpha.copy(), beta.copy(), threshold))
        return recompress(alpha, beta, threshold)

    monkeypatch.setattr(separated, "_recompress", spy)
    compress(spec, eps, builder=Builder.CONSTRUCTIVE)
    _, _, block_ranges, _, _ = index_layout(spec)
    built = [(region, box) for (region, _), box
             in zip(block_ranges, hmatrix._threshold_boxes(kmap, block_ranges, eps))
             if box is not None]
    assert len(seen) == len(built) > 10
    prefactor = np.exp(kmap.exact_log_prefactor)
    raw = _level_call(kmap, eps, *zip(*built))
    for (alpha, beta, threshold), (_, (r0, r1, c0, c1)), (a, b) in zip(seen, built, raw):
        if kmap.prefactor_axis == "row":
            a = a * prefactor[r0:r1, None]
        else:
            b = b * prefactor[c0:c1, None]
        assert threshold == eps
        _assert_same_bits((alpha, beta), (a, b), (r0, c0))


def test_level_builder_without_a_prefactor_is_the_unit_kernel():
    # no prefactor and a prefactor of ones give the same bits; a prefactor c scales
    # the entries before the truncation; a prefactor must match its grid
    blk = Block(-1, 1)
    args = (K.RATE, 64.0, 1e-9, tuple(np.array([x]) for x in (*blk.p_interval, *blk.q_interval)),
            np.linspace(*blk.p_interval, 40), np.zeros(40, dtype=np.intp),
            np.linspace(*blk.q_interval, 30), np.zeros(30, dtype=np.intp))
    (unit,) = separated.constructive_blocks(*args)
    (ones,) = separated.constructive_blocks(*args, p_prefactor=np.ones(40))
    _assert_same_bits((ones.alpha, ones.beta), (unit.alpha, unit.beta), "ones")
    (scaled,) = separated.constructive_blocks(*args, q_prefactor=np.full(30, 1e-3))
    assert scaled.rank < unit.rank
    assert np.max(np.abs(scaled.reconstruct() - 1e-3 * unit.reconstruct())) <= 2e-9
    for bad in ({"p_prefactor": np.ones(30)}, {"q_prefactor": np.ones(40)}):
        with pytest.raises(ValueError, match="prefactor"):
            separated.constructive_blocks(*args, **bad)


# ---------------------------------------------------------------------------
# product builder
# ---------------------------------------------------------------------------

def test_product_of_rank_one_factors():
    pg = np.linspace(0.0, 0.5, 16)
    qg = np.linspace(0.5, 1.0, 16)
    one = np.ones((16, 1))
    a = SeparatedApprox(pg, qg, 2.0 * one, one.copy())
    b = SeparatedApprox(pg, qg, 3.0 * one, one.copy())
    prod = build_product(a, b, 1e-9)
    assert prod.rank <= 1
    np.testing.assert_allclose(prod.reconstruct(), 6.0)


def test_product_grid_mismatch():
    pg = np.linspace(0.0, 0.5, 8)
    qg = np.linspace(0.5, 1.0, 8)
    one = np.ones((8, 1))
    a = SeparatedApprox(pg, qg, one, one)
    b = SeparatedApprox(pg + 1.0, qg, one, one)
    with pytest.raises(ValueError):
        build_product(a, b, 1e-9)


@pytest.mark.parametrize("blk", [Block(1, 0), Block(1, 1), Block(3, 4)])
def test_product_builds_bernoulli_kernel(blk):
    n, eps = 1024.0, 1e-6
    pg = np.linspace(*blk.p_interval, 64)
    qg = np.linspace(*blk.q_interval, 64)
    a = build_constructive(blk, K.RATE, n, eps, p_grid=pg, q_grid=qg)
    b = build_constructive(blk, K.RATE_REFLECTED, n, eps, p_grid=pg, q_grid=qg)
    prod = build_product(a, b, eps)
    raw_rank = a.rank * b.rank
    assert raw_rank <= max(a.rank, b.rank) ** 2
    assert prod.rank <= raw_rank
    exact = bernoulli_kernel(n, pg, qg)
    assert np.max(np.abs(prod.reconstruct() - exact)) <= 10.0 * eps


# ---------------------------------------------------------------------------
# recompression
# ---------------------------------------------------------------------------

def _recompress_explicit_q(alpha, beta, threshold):
    """Reference recompression: the reduced QR's explicit Q factors times the SVD."""
    if alpha.shape[1] == 0:
        return alpha, beta
    qa, ra = np.linalg.qr(alpha)
    qb, rb = np.linalg.qr(beta)
    u, s, vt = np.linalg.svd(ra @ rb.T)
    r = int(np.sum(s > threshold))
    return qa @ (u[:, :r] * s[:r]), qb @ vt[:r].T


# |alpha beta^T - reference| <= RECOMPRESS_ULPS * eps_mach * ||alpha||_2 * ||beta||_2,
# entry by entry.  Over the 756 recompressions of the six n = 2^11 constructive
# builds of the benchmark (three families, eps 1e-6 and 1e-9) the largest is 10.2;
# 21 of their 1512 factors are no taller than wide and skip the QR.
RECOMPRESS_ULPS = 16.0


def _check_recompress(alpha, beta, threshold):
    """``_recompress`` against the reference: same rank, products within the bound."""
    a, b = separated._recompress(alpha, beta, threshold)
    ref_a, ref_b = _recompress_explicit_q(alpha, beta, threshold)
    assert a.shape == ref_a.shape and b.shape == ref_b.shape
    unit = np.finfo(np.float64).eps * np.linalg.norm(alpha, 2) * np.linalg.norm(beta, 2)
    assert np.max(np.abs(a @ b.T - ref_a @ ref_b.T), initial=0.0) <= RECOMPRESS_ULPS * unit
    # alpha carries the singular values, as the reference's does
    assert np.max(np.abs(np.linalg.norm(a, axis=0) - np.linalg.norm(ref_a, axis=0)),
                  initial=0.0) <= RECOMPRESS_ULPS * unit
    return a, b


def _builder_inputs(monkeypatch, spec, eps):
    """Every (alpha, beta, threshold) a constructive compress of ``spec`` recompresses."""
    seen = []
    recompress = separated._recompress

    def spy(alpha, beta, threshold):
        seen.append((alpha.copy(), beta.copy(), threshold))
        return recompress(alpha, beta, threshold)

    monkeypatch.setattr(separated, "_recompress", spy)
    compress(spec, eps, builder=Builder.CONSTRUCTIVE, leaf_size=8)
    monkeypatch.setattr(separated, "_recompress", recompress)
    return seen


@pytest.mark.parametrize("eps", [1e-6, 1e-12])
@pytest.mark.parametrize("spec", [
    BinomialFamily(n=256),
    PoissonFamily(k_max=256, lambda_max=256.0, lambda_grid=256),
    ChiSquaredFamily(x_max=256.0, x_grid=256, k_max=256),
], ids=["binomial", "poisson", "chisq"])
def test_recompress_matches_explicit_q_on_builder_inputs(monkeypatch, spec, eps):
    inputs = _builder_inputs(monkeypatch, spec, eps)
    assert len(inputs) > 20
    for alpha, beta, threshold in inputs:
        _check_recompress(alpha, beta, threshold)


@pytest.mark.parametrize("eps", [1e-6, 1e-12])
@pytest.mark.parametrize("spec", [
    BinomialFamily(n=256),
    PoissonFamily(k_max=256, lambda_max=256.0, lambda_grid=256),
    ChiSquaredFamily(x_max=256.0, x_grid=256, k_max=256),
], ids=["binomial", "poisson", "chisq"])
def test_r_factor_is_qr_mode_r_bit_for_bit(monkeypatch, spec, eps):
    # R zeroed in place in numpy's factored copy: the same bits and layout as
    # qr(mode="r")'s triu copy, on every factor the builder recompresses with a QR
    tall = [f for alpha, beta, _ in _builder_inputs(monkeypatch, spec, eps)
            for f in (alpha, beta) if f.shape[0] > f.shape[1]]
    assert len(tall) > 10
    for f in tall:
        r, ref = separated._r_factor(f), np.linalg.qr(f, mode="r")
        assert r.shape == ref.shape and r.tobytes() == ref.tobytes()
        assert r.flags.c_contiguous and ref.flags.c_contiguous


def test_recompress_matches_explicit_q_on_random_low_rank():
    rng = np.random.default_rng(11)
    for m, c, w in [(40, 30, 12), (5, 60, 9), (64, 64, 64), (1, 1, 3), (200, 7, 7)]:
        # column scales spanning 1 .. 1e-14: a spread of kept and dropped values
        scales = np.logspace(0, -14, w)
        alpha = rng.standard_normal((m, w)) * scales
        beta = rng.standard_normal((c, w))
        for threshold in (1e-3, 1e-9, 0.0):
            _check_recompress(alpha, beta, threshold)


def test_recompress_width_zero():
    alpha, beta = np.zeros((7, 0)), np.zeros((5, 0))
    a, b = _check_recompress(alpha, beta, 1e-6)
    assert a.shape == (7, 0) and b.shape == (5, 0)


def test_recompress_threshold_above_sigma1_keeps_nothing():
    rng = np.random.default_rng(3)
    alpha, beta = rng.standard_normal((9, 4)), rng.standard_normal((6, 4))
    sigma1 = np.linalg.norm(alpha @ beta.T, 2)
    a, b = _check_recompress(alpha, beta, 2.0 * sigma1)
    assert a.shape == (9, 0) and b.shape == (6, 0)


def test_recompress_fewer_rows_than_columns():
    rng = np.random.default_rng(5)
    # R is m x w when m < w; on either side, and on both
    for m, c, w in [(3, 20, 8), (20, 3, 8), (2, 4, 10)]:
        alpha, beta = rng.standard_normal((m, w)), rng.standard_normal((c, w))
        a, b = _check_recompress(alpha, beta, 1e-12)
        assert a.shape[1] == b.shape[1] == min(m, c)
        np.testing.assert_allclose(a @ b.T, alpha @ beta.T, atol=1e-12 * np.abs(alpha @ beta.T).max())


def test_recompress_keeps_zero_rows_exactly_zero():
    rng = np.random.default_rng(9)
    alpha, beta = rng.standard_normal((30, 10)), rng.standard_normal((25, 10))
    # leading rows too: the Householder QR's Q need not vanish on those
    zero_a, zero_b = [0, 1, 7, 29], [0, 12, 13, 24]
    alpha[zero_a] = 0.0
    beta[zero_b] = 0.0
    a, b = _check_recompress(alpha, beta, 1e-10)
    assert a.shape[1] > 0
    assert not a[zero_a].any() and not b[zero_b].any()
    # a wide factor skips its QR (it is its own R): its zero rows stay zero too
    wide, tall = rng.standard_normal((8, 20)), rng.standard_normal((30, 20))
    zero_w = [0, 3, 7]
    wide[zero_w] = 0.0
    for alpha, beta in ((wide, tall), (tall, wide)):
        a, b = _check_recompress(alpha, beta, 1e-10)
        assert a.shape[1] > 0
        assert not (a if alpha is wide else b)[zero_w].any()


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("spec", [
    BinomialFamily(n=256),
    PoissonFamily(k_max=256, lambda_max=256.0, lambda_grid=256),
    ChiSquaredFamily(x_max=256.0, x_grid=256, k_max=256),
], ids=["binomial", "poisson", "chisq"])
def test_constructive_tables_match_explicit_q_recompression(monkeypatch, spec, eps):
    h = compress(spec, eps, builder=Builder.CONSTRUCTIVE, leaf_size=8)
    monkeypatch.setattr(separated, "_recompress", _recompress_explicit_q)
    ref = compress(spec, eps, builder=Builder.CONSTRUCTIVE, leaf_size=8)
    # the same blocks, ranks and boxes, and the same dense pieces
    assert h.lowrank.tobytes() == ref.lowrank.tobytes()
    assert h.dense.tobytes() == ref.dense.tobytes()
    exact = dense_matrix(spec)
    assert np.max(np.abs(h.to_dense() - exact)) <= 10.0 * eps
    assert np.max(np.abs(ref.to_dense() - exact)) <= 10.0 * eps


# ---------------------------------------------------------------------------
# adaptive cross approximation
# ---------------------------------------------------------------------------

def test_aca_exact_rank_one():
    rng = np.random.default_rng(0)
    m = np.outer(rng.standard_normal(30), rng.standard_normal(20))
    ap = aca_build(lambda i, j: m[i, j], 30, 20, 1e-9)
    assert ap.rank == 1
    assert np.max(np.abs(ap.reconstruct() - m)) <= 1e-12


def test_aca_zero_matrix():
    ap = aca_build(lambda i, j: np.zeros(np.broadcast(i, j).shape), 6, 9, 1e-8)
    assert ap.rank == 0
    assert np.max(np.abs(ap.reconstruct())) == 0.0


def test_aca_oracle_stays_inside_block():
    # a one-column block: the oracle is only ever asked for indices inside it
    col = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    calls = []

    def oracle(i, j):
        i, j = np.broadcast_arrays(i, j)
        calls.append((i.copy(), j.copy()))
        if np.any(j >= 1):
            raise IndexError("column outside the block")
        return col[i]

    ap = aca_build(oracle, 5, 1, 1e-12)
    assert np.array_equal(ap.reconstruct()[:, 0], col)
    assert calls
    for i, j in calls:
        assert np.all((0 <= i) & (i < 5)) and np.all(j == 0)


def test_aca_asks_pivot_rows_and_columns_as_index_grids():
    # smooth kernels that converge at rank > 1, so no dense fallback, in one group
    m = 1.0 / (1.0 + np.arange(40.0)[:, None] + np.arange(30.0)[None, :])
    boxes = [(0, 40, 0, 30), (5, 25, 10, 30), (0, 12, 3, 30)]
    calls = []

    def oracle(i, j):
        calls.append((np.shape(i), np.shape(j)))
        return m[i, j]

    res = aca_blocks(oracle, boxes, 1e-8)
    assert min(ap.rank for ap in res) >= 3
    # the check after the loop: s unused rows of every block as (g, s, 1) x (g, 1, cols),
    # then s unused columns as (g, 1, rows) x (g, s, 1); the 12-row block has all its
    # unused rows checked, 4 of them, so s is 4 for the group
    calls, check = calls[:-2], calls[-2:]
    assert check == [((3, 4, 1), (3, 1, 30)), ((3, 1, 40), (3, 4, 1))]
    # requests alternate: the pivot rows as a (g, 1) x (g, cols) grid, then their pivot
    # columns as (g, rows) x (g, 1), g the blocks still running, rows and cols the largest extents
    rows, cols = zip(*calls[0::2])
    assert all(r[1] == 1 and c == (r[0], 30) for r, c in zip(rows, cols))
    rows, cols = zip(*calls[1::2])
    assert all(c[1] == 1 and r == (c[0], 40) for r, c in zip(rows, cols))
    assert [r[0] for r, _ in calls] == sorted((r[0] for r, _ in calls), reverse=True)
    assert calls[0] == ((3, 1), (3, 30)) and calls[-1][1] == (1, 1)


# nearly full-rank smooth blocks with zero rows, where partial pivoting misses parts of the
# block or pivots on rounding: seeds 0-2 take these shapes, later seeds draw 40-51 a side
_ZERO_ROW_SHAPES = [(51, 40), (49, 51), (50, 48)]


def _zero_row_block(seed):
    rng = np.random.default_rng(seed)
    rows, cols = (_ZERO_ROW_SHAPES[seed] if seed < len(_ZERO_ROW_SHAPES)
                  else (int(x) for x in rng.integers(40, 52, 2)))
    x, y = np.sort(rng.uniform(0.0, 1.0, rows)), np.sort(rng.uniform(0.0, 1.0, cols))
    m = np.exp(-((x[:, None] - y[None, :]) / 0.03) ** 2)
    m[rng.choice(rows, int(rng.integers(2, 6)), replace=False)] = 0.0
    return m


def _lockstep_group(mats):
    """The boxes of ``mats`` laid corner to corner, and an oracle over them (NaN off the boxes)
    that records each request's index shapes."""
    boxes = np.cumsum([(0, 0)] + [m.shape for m in mats], axis=0)
    boxes = np.concatenate([boxes[:-1, :1], boxes[1:, :1], boxes[:-1, 1:], boxes[1:, 1:]], axis=1)
    big = np.full(boxes[-1, [1, 3]], np.nan)
    for (r0, r1, c0, c1), m in zip(boxes, mats):
        big[r0:r1, c0:c1] = m
    calls = []

    def oracle(i, j):
        calls.append((np.shape(i), np.shape(j)))
        return big[i, j]

    return boxes, oracle, calls


def test_aca_blocks_match_each_block_alone():
    # one lockstep group of mixed blocks: each comes out as ACA gives it alone
    rng = np.random.default_rng(7)
    leading_zeros = _hilbert(50, 40)
    leading_zeros[:7] = 0.0                                     # the degenerate-row walk
    mats = [_hilbert(30, 20),
            _hilbert(1, 17), _hilbert(13, 1), _hilbert(1, 1),  # one-row and one-column boxes
            leading_zeros,
            _hilbert(300, 200),                                 # rank 22: the panels widen
            np.linalg.qr(rng.standard_normal((24, 24)))[0],     # full rank: every row used
            np.linalg.qr(rng.standard_normal((30, 20)))[0],     # 20 crosses: the dense fallback
            np.zeros((9, 6))]
    boxes, oracle, calls = _lockstep_group(mats)
    eps = 1e-14
    group = aca_blocks(oracle, boxes, eps)
    assert [ap.rank for ap in group][-4:] == [22, 24, 20, 0]
    # the tall block alone asks for its whole open grid
    assert calls.count(((30, 1), (1, 20))) == 1
    # a block the check after the loop sends to the dense fallback: the check's two
    # requests for the whole group, then that block's open grid
    missed = _zero_row_block(9)
    checked = [_hilbert(30, 20), missed, _hilbert(60, 45), np.zeros((9, 6))]
    boxes, oracle, calls = _lockstep_group(checked)
    checked_group = aca_blocks(oracle, boxes, 1e-9)
    rows, cols = missed.shape
    assert calls[-1] == ((rows, 1), (1, cols)) and calls.count(calls[-1]) == 1
    assert len(calls[-3][0]) == len(calls[-2][0]) == 3
    assert checked_group[1].rank == rank_from_singular_values(
        np.linalg.svd(missed, compute_uv=False), 1e-9)
    for mats, group, eps in [(mats, group, eps), (checked, checked_group, 1e-9)]:
        for m, ap in zip(mats, group):
            alone = aca_build(lambda i, j: m[i, j], *m.shape, eps)
            assert ap.rank == alone.rank
            assert np.array_equal(ap.alpha, alone.alpha) and np.array_equal(ap.beta, alone.beta)
            assert ap.alpha.flags.c_contiguous and ap.beta.flags.c_contiguous
            assert ap.alpha.shape == (m.shape[0], ap.rank) and ap.beta.shape == (m.shape[1], ap.rank)
            assert np.max(np.abs(ap.reconstruct() - m)) <= 10.0 * eps * max(np.max(np.abs(m)), 1.0)


def test_aca_blocks_with_zero_rows_end_within_their_level_or_fall_back():
    # partial pivoting alone, without the check and the rounding guard, ends 24 of these
    # blocks (162 of the first 1 000 seeds) with entry errors of 1.06 to 1e24 times
    # eps ||A||_F, and gives no sign of it
    # (the stop level is eps ||A_k||_F; a fallback truncated at eps sigma_1 meets it too)
    eps = 1e-9
    fallbacks = 0
    for seed in range(100):
        m = _zero_row_block(seed)
        calls = []

        def oracle(i, j):
            calls.append((np.shape(i), np.shape(j)))
            return m[i, j]

        ap = aca_build(oracle, *m.shape, eps)
        fallbacks += calls.count(((m.shape[0], 1), (1, m.shape[1])))
        err = np.max(np.abs(ap.reconstruct() - m))
        assert err <= eps * np.linalg.norm(m), (seed, m.shape, ap.rank, err)
    assert fallbacks > 0


def test_aca_dense_factors_keep_the_values_above_the_floor():
    rng = np.random.default_rng(4)
    left = np.linalg.qr(rng.standard_normal((30, 20)))[0]
    right = np.linalg.qr(rng.standard_normal((25, 20)))[0]
    s = 2.0 ** -np.arange(20.0)
    full = (left * s) @ right.T
    for eps, floor in [(1e-3, 0.0), (1e-9, 0.0), (1e-9, 2.0 ** -12.5), (0.1, 2.0 ** -12.5)]:
        alpha, beta = separated._dense_factors(full, eps, floor)
        assert alpha.shape[1] == beta.shape[1] == np.count_nonzero(s > max(eps, floor))
        if floor == 0.0:
            assert alpha.shape[1] == rank_from_singular_values(np.linalg.svd(full, compute_uv=False), eps)
        assert np.max(np.abs(alpha @ beta.T - full)) <= max(eps, floor)


def test_aca_walks_leading_zero_rows_in_few_requests():
    # 255 zero rows over a Hilbert block: ACA walks past them to row 255, the first
    # row of its last window, and then finds the crosses of the block without them,
    # zero on the walked rows
    m = np.zeros((295, 30))
    m[255:] = _hilbert(40, 30)
    calls = []

    def oracle(i, j):
        calls.append(np.broadcast_shapes(np.shape(i), np.shape(j)))
        return m[i, j]

    ap = aca_build(oracle, *m.shape, 1e-10)
    walk, calls[:] = calls[:9], calls[9:]
    trimmed = m[255:]
    ref = aca_build(lambda i, j: trimmed[i, j], *trimmed.shape, 1e-10)
    assert ap.rank == ref.rank > 1
    assert np.all(ap.alpha[:255] == 0.0) and np.array_equal(ap.alpha[255:], ref.alpha)
    assert np.array_equal(ap.beta, ref.beta)
    # row 0, then windows of 2, 4, ..., 256 rows from row 1 on: 9 requests, not 255
    assert walk == [(1, 30)] + [(1, 2 ** h, 30) for h in range(1, 9)]
    # then the crosses, and the check's three unused rows and columns
    calls, check = calls[:-2], calls[-2:]
    assert calls[0::2] == [(1, 30)] * len(calls[0::2])
    assert calls[1::2] == [(1, 295)] * len(calls[1::2])
    assert check == [(1, 3, 30), (1, 3, 295)]
    # three full-rank rows under the zeros: the walked rows count as used, so the
    # block ends when its three crosses have used every row; the check reads columns only
    m = np.zeros((303, 30))
    m[300:] = np.random.default_rng(5).standard_normal((3, 30))
    calls = []
    ap = aca_build(oracle, *m.shape, 1e-10)
    assert ap.rank == 3 and np.max(np.abs(ap.reconstruct() - m)) <= 1e-12
    assert len(calls) == 1 + 8 + 2 * 3 + 2


def _entry_exact_oracle(spec, r0, c0):
    def oracle(i, j):
        return entry_exact(spec, np.asarray(i) + r0, np.asarray(j) + c0)
    return oracle


@pytest.mark.parametrize("spec,leaf", [
    (BinomialFamily(n=256), 32),
    (PoissonFamily(k_max=256, lambda_max=256.0, lambda_grid=256), 32),
    (ChiSquaredFamily(x_max=256.0, x_grid=256, k_max=256), 32),
    (BinomialFamily(n=5), 2),   # one-column blocks at the right edge
], ids=["binomial", "poisson", "chisq", "binomial-n5-leaf2"])
def test_aca_block_oracle_matches_entry_exact_oracle(spec, leaf):
    # the block-local oracle gives ACA exactly the factors the global one does
    _, _, branges, _, _ = index_layout(spec, leaf_size=leaf)
    for eps in (1e-6, 1e-9):
        for _, (r0, r1, c0, c1) in branges:
            a = aca_build(block_oracle(spec, r0, r1, c0, c1), r1 - r0, c1 - c0, eps)
            b = aca_build(_entry_exact_oracle(spec, r0, c0), r1 - r0, c1 - c0, eps)
            assert np.array_equal(a.alpha, b.alpha) and np.array_equal(a.beta, b.beta)


def test_aca_compress_one_column_edge_blocks():
    # leaf 2 on binomial n = 5 leaves one-column ACA blocks at the right edge
    spec = BinomialFamily(n=5)
    eps = 1e-6
    h = compress(spec, eps, builder=Builder.ACA, leaf_size=2)
    assert np.any(h.lowrank["col_hi"] - h.lowrank["col_lo"] == 1)
    assert np.max(np.abs(h.to_dense() - dense_matrix(spec))) <= 10.0 * eps


def test_aca_reconstruction_error_bound():
    spec = BinomialFamily(n=256)
    _, _, branges, _, _ = index_layout(spec)
    full = dense_matrix(spec)
    for blk, (r0, r1, c0, c1) in branges[:8]:
        sub = full[r0:r1, c0:c1]
        for eps in (1e-6, 1e-9):
            ap = aca_build(lambda i, j: sub[i, j], sub.shape[0], sub.shape[1], eps)
            assert np.max(np.abs(ap.reconstruct() - sub)) <= 10.0 * eps * np.max(np.abs(sub))


def test_aca_rank_against_svd_oracle():
    # 20 random blocks across the three families
    rng = np.random.default_rng(11)
    specs = [BinomialFamily(n=256),
             PoissonFamily(k_max=256, lambda_max=256.0, lambda_grid=256),
             ChiSquaredFamily(x_max=256.0, x_grid=256, k_max=256)]
    checked = 0
    for spec in specs:
        _, _, branges, _, _ = index_layout(spec)
        full = dense_matrix(spec)
        idx = rng.choice(len(branges), size=7, replace=False)
        for sel in idx:
            blk, (r0, r1, c0, c1) = branges[sel]
            sub = full[r0:r1, c0:c1]
            for eps in (1e-6, 1e-9):
                nr = numerical_rank(sub, eps)
                ar = aca_build(lambda i, j: sub[i, j], sub.shape[0], sub.shape[1], eps).rank
                assert nr <= ar <= nr + 2, (spec, blk, eps, nr, ar)
            checked += 1
    assert checked >= 20


def test_aca_dense_fallback_on_hard_matrix():
    # orthogonal-ish matrix with flat spectrum: partial pivoting cannot
    # converge early, the dense SVD fallback must kick in
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((24, 24)))
    ap = aca_build(lambda i, j: q[i, j], 24, 24, 1e-10)
    assert ap.rank == 24
    assert np.max(np.abs(ap.reconstruct() - q)) <= 1e-8


def _hilbert(rows, cols):
    return 1.0 / (1.0 + np.arange(rows, dtype=np.float64)[:, None] + np.arange(cols)[None, :])


def _decaying_spectrum(rows, cols, rank):
    rng = np.random.default_rng(3)
    left, _ = np.linalg.qr(rng.standard_normal((rows, rank)))
    right, _ = np.linalg.qr(rng.standard_normal((cols, rank)))
    return (left * 2.0 ** -np.arange(rank)) @ right.T


@pytest.mark.parametrize("m,eps", [
    (_hilbert(300, 200), 1e-14),              # rank 22: the panels widen once, 16 -> 32
    (_decaying_spectrum(60, 50, 40), 1e-12),  # rank 40: 16 -> 32 -> 50 = min(rows, cols)
], ids=["hilbert", "decaying-spectrum"])
def test_aca_panels_widen_past_their_first_width(m, eps):
    calls = []

    def oracle(i, j):
        calls.append((np.shape(i), np.shape(j)))
        return m[i, j]

    ap = aca_build(oracle, *m.shape, eps)
    nr = numerical_rank(m, eps)
    assert 16 < nr <= ap.rank <= nr + 2
    assert np.max(np.abs(ap.reconstruct() - m)) <= 10.0 * eps * np.max(np.abs(m))
    # converged: requests still alternate row, column; then the check asks for s unused rows
    # and columns (all of them where there are at most 12), and no dense fallback follows
    rows, cols = m.shape
    calls, check = calls[:-2], calls[-2:]
    s = check[0][0][1]
    assert check == [((1, s, 1), (1, 1, cols)), ((1, 1, rows), (1, s, 1))]
    assert calls[0::2] == [((1, 1), (1, cols))] * len(calls[0::2])
    assert calls[1::2] == [((1, rows), (1, 1))] * len(calls[1::2])


@pytest.mark.parametrize("m,eps,rank", [
    (_hilbert(40, 30), 1e-8, 11),
    (np.linalg.qr(np.random.default_rng(2).standard_normal((24, 24)))[0], 1e-10, 24),
], ids=["converged", "dense-fallback"])
def test_aca_factors_are_c_contiguous(m, eps, rank):
    ap = aca_build(lambda i, j: m[i, j], *m.shape, eps)
    assert ap.rank == rank
    assert ap.alpha.flags.c_contiguous and ap.beta.flags.c_contiguous


def test_aca_rejects_bad_arguments():
    with pytest.raises(ValueError):
        aca_build(lambda i, j: 0.0, 0, 4, 1e-6)
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            aca_build(lambda i, j: 0.0, 4, 4, eps)
