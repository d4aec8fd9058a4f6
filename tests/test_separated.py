"""Separated-approximation builders against dense oracles."""

import math

import numpy as np
import pytest

from hlrd.divergence import DivergenceKind, divergence
from hlrd.families import (
    BinomialFamily,
    ChiSquaredFamily,
    PoissonFamily,
    block_oracle,
    dense_matrix,
    entry_exact,
)
from hlrd.hmatrix import Builder, compress, index_layout
from hlrd.partition import Block, Parity
from hlrd.separated import (
    BuilderError,
    RankConvention,
    SeparatedApprox,
    aca_build,
    build_constructive,
    build_product,
    numerical_rank,
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
    with pytest.raises(BuilderError):
        build_constructive(Block(-1, 1), K.RATE_REFLECTED, 4.0, 1e-6, grid_size=16)


def test_constructive_rejects_bernoulli_directly():
    with pytest.raises(ValueError):
        build_constructive(Block(1, 0), K.BERNOULLI, 8.0, 1e-6)


def test_constructive_matches_family_scaling():
    # same machinery on a real staircase block away from the unit corner
    blk = Block(-3, 1)  # [8,16] x [0,8], corner 8
    eps = 1e-6
    ap = build_constructive(blk, K.RATE, 1.0, eps, grid_size=64)
    exact = rate_kernel(1.0, ap.p_grid, ap.q_grid)
    assert np.max(np.abs(ap.reconstruct() - exact)) <= 10.0 * eps


def test_constructive_degree_grows_like_log_accuracy():
    # raw factor width (interpolation nodes) of the builder itself, before
    # recompression: non-decreasing, at most 3 ln(1/eps), and linear in ln(1/eps)
    eps_list = [10.0 ** -t for t in range(3, 13)]
    logs = np.array([math.log(1.0 / e) for e in eps_list])
    grids = {Parity.ODD: (np.linspace(1.0, 2.0, 17), np.linspace(0.0, 1.0, 17)),
             Parity.EVEN: (np.linspace(0.0, 1.0, 17), np.linspace(1.0, 2.0, 17))}
    for parity, (pg, qg) in grids.items():
        for n_scaled in (1.0, 32.0, 1024.0, 2.0 ** 14):
            widths = np.array([separated._unit_rate_factors(parity, n_scaled, e, pg, qg)[0].shape[1]
                               for e in eps_list], dtype=float)
            assert np.all(np.diff(widths) >= 0), (parity, n_scaled, widths)
            assert np.all(widths <= 3.0 * logs), (parity, n_scaled, widths)
            A = np.vstack([logs, np.ones_like(logs)]).T
            _, res, *_ = np.linalg.lstsq(A, widths, rcond=None)
            r2 = 1.0 - res[0] / np.sum((widths - widths.mean()) ** 2)
            assert r2 >= 0.95, (parity, n_scaled, widths, r2)


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
    assert any(p.col_hi - p.col_lo == 1 for p in h.lowrank)
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


def test_aca_rejects_bad_arguments():
    with pytest.raises(ValueError):
        aca_build(lambda i, j: 0.0, 0, 4, 1e-6)
    with pytest.raises(ValueError):
        aca_build(lambda i, j: 0.0, 4, 4, 0.0)
