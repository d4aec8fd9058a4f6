"""Separated-approximation builders against dense oracles."""

import itertools
import math

import numpy as np
import pytest

from hlrd.divergence import DivergenceKind, Regime, divergence, solve_thresholds
from hlrd.families import (
    BinomialFamily,
    ChiSquaredFamily,
    PoissonFamily,
    block_oracle,
    dense_matrix,
    entry_exact,
)
from hlrd.hmatrix import Builder, compress, index_layout
from hlrd.partition import Block, QuarterPlane, UnitSquare, build_scheme
from hlrd.separated import (
    BuilderError,
    RankConvention,
    SeparatedApprox,
    aca_build,
    build_constructive,
    build_product,
    numerical_rank,
    rank_from_singular_values,
)
from hlrd import separated

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
            widths = np.array([separated._unit_rate_factors(regime, n_scaled, e, pg, qg)[0].shape[1]
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
    alpha, beta = separated._unit_rate_factors(regime, n_scaled, eps, p_hat, q_hat)
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
        alpha, beta = separated._unit_rate_factors(regime, n_scaled, eps, p_hat, q_hat)
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
        lambda p, q: separated._unit_rate_factors(regime, n_scaled, eps, p, q),
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
            lambda p, q: separated._unit_bernoulli_factors(blk.p_interval, blk.q_interval,
                                                           n, eps, p, q),
            pg, qg, p_in, q_in)


@pytest.mark.parametrize("regime", list(Regime))
def test_unit_rate_factors_on_empty_and_one_point_grids(regime):
    n_scaled, eps = 32.0, 1e-6
    p_hat, q_hat = _unit_grids(regime, 0.25, 5)
    empty = np.zeros(0)
    for pg, qg in ((empty, q_hat), (p_hat, empty), (empty, empty)):
        alpha, beta = separated._unit_rate_factors(regime, n_scaled, eps, pg, qg)
        assert alpha.shape == (pg.size, 0) and beta.shape == (qg.size, 0)
    # one point on a side: an s-interval of width 0, or a single t
    for pg, qg in ((p_hat[2:3], q_hat), (p_hat, q_hat[2:3]), (p_hat[2:3], q_hat[2:3])):
        alpha, beta = separated._unit_rate_factors(regime, n_scaled, eps, pg, qg)
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
                    regime, got = separated._unit_configuration(p_int, q_int)
                    assert regime is (Regime.LOWER if lower else Regime.UPPER), (blk, kind)
                    assert got == point, (blk, kind)


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


def test_aca_asks_pivot_row_and_column_with_0d_index():
    # a smooth kernel that converges at rank > 1, so no dense fallback
    m = 1.0 / (1.0 + np.arange(40.0)[:, None] + np.arange(30.0)[None, :])
    calls = []

    def oracle(i, j):
        calls.append((np.ndim(i), np.ndim(j)))
        return m[i, j]

    ap = aca_build(oracle, 40, 30, 1e-8)
    assert ap.rank >= 3
    # requests alternate: the pivot row (0-d row, 1-D columns), then its pivot column
    assert calls[0::2] == [(0, 1)] * len(calls[0::2])
    assert calls[1::2] == [(1, 0)] * len(calls[1::2])


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
        calls.append((np.ndim(i), np.ndim(j)))
        return m[i, j]

    ap = aca_build(oracle, *m.shape, eps)
    nr = numerical_rank(m, eps)
    assert 16 < nr <= ap.rank <= nr + 2
    assert np.max(np.abs(ap.reconstruct() - m)) <= 10.0 * eps * np.max(np.abs(m))
    # converged: no dense fallback, and requests still alternate row, column
    assert calls[0::2] == [(0, 1)] * len(calls[0::2])
    assert calls[1::2] == [(1, 0)] * len(calls[1::2])


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
