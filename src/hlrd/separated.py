"""Separated (low-rank) approximation of divergence kernels on blocks.

A separated approximation of a bivariate kernel on a block is an
expansion ``sum_i alpha_i(p) beta_i(q)``; its length is the block's rank.
Three builders are provided:

* ``build_constructive`` realizes the analytic pipeline for the rate
  kernels ``exp(-n * divergence)``: rescale the block to the unit
  configuration next to the diagonal corner, locate the threshold points
  at level ``m = ln(1/eps)/n'``, truncate the kernel to zero outside the
  threshold box, and separate what remains.  The separation rests on the
  exact identity

      rate(p||q) = rate(p||1) + rate(1||q) + (p - 1) * (-ln q),

  whose three pieces are all non-negative on the configuration.  The two
  one-sided pieces split off as pure p- and q-factors ``exp(-n'*...)``;
  the remaining cross factor ``exp(-s t)`` with ``s = n'(p-1)``,
  ``t = -ln q`` is separated by Lagrange interpolation at Chebyshev
  nodes in s, evaluated barycentrically.  The node count obeys the
  standard factorial bound, so the degree grows like ``ln(1/eps)`` and
  every intermediate quantity stays O(1): no catastrophic cancellation,
  uniformly in n'.

* ``build_product`` multiplies two expansions columnwise; the Bernoulli
  kernel is the product of the rate kernel and its reflection, so its
  expansion is the (recompressed) product of theirs.

* ``aca_build`` is adaptive cross approximation with partial pivoting,
  the practical route that needs only an entry oracle.

``numerical_rank`` is the SVD oracle the builders are measured against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .divergence import DivergenceKind, Regime, solve_thresholds
from .partition import Block, Parity

__all__ = [
    "BuilderError",
    "RankConvention",
    "SeparatedApprox",
    "aca_build",
    "build_constructive",
    "build_product",
    "numerical_rank",
    "rank_from_singular_values",
]


class BuilderError(RuntimeError):
    """A separated-approximation builder could not meet its contract."""


class RankConvention(enum.Enum):
    """Threshold convention for counting singular values."""

    RELATIVE_TO_SIGMA1 = "rel"
    ABSOLUTE = "abs"


@dataclass
class SeparatedApprox:
    """Rank-r factorization sum_i alpha[:, i] * beta[:, i] over sample grids."""

    p_grid: np.ndarray
    q_grid: np.ndarray
    alpha: np.ndarray  # (len(p_grid), rank)
    beta: np.ndarray   # (len(q_grid), rank)

    @property
    def rank(self) -> int:
        return self.alpha.shape[1]

    def reconstruct(self) -> np.ndarray:
        return self.alpha @ self.beta.T


# ---------------------------------------------------------------------------
# SVD oracle
# ---------------------------------------------------------------------------

def rank_from_singular_values(s: np.ndarray, eps: float,
                              convention: RankConvention = RankConvention.RELATIVE_TO_SIGMA1) -> int:
    if s.size == 0:
        return 0
    threshold = eps * s[0] if convention is RankConvention.RELATIVE_TO_SIGMA1 else eps
    return int(np.sum(s > threshold))


def numerical_rank(matrix: np.ndarray, eps: float,
                   convention: RankConvention = RankConvention.RELATIVE_TO_SIGMA1) -> int:
    """Number of singular values above the eps threshold (full SVD)."""
    a = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    s = np.linalg.svd(a, compute_uv=False)
    return rank_from_singular_values(s, eps, convention)


# ---------------------------------------------------------------------------
# recompression
# ---------------------------------------------------------------------------

def _recompress(alpha: np.ndarray, beta: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonalize the factor pair and truncate singular values <= threshold.

    The discarded spectral tail is at most the threshold, so the entrywise
    reconstruction error added here is at most the threshold as well.
    """
    if alpha.shape[1] == 0:
        return alpha, beta
    qa, ra = np.linalg.qr(alpha)
    qb, rb = np.linalg.qr(beta)
    u, s, vt = np.linalg.svd(ra @ rb.T)
    r = int(np.sum(s > threshold))
    return qa @ (u[:, :r] * s[:r]), qb @ vt[:r].T


# ---------------------------------------------------------------------------
# constructive builder
# ---------------------------------------------------------------------------

def _cross_degree(w: float, eps: float) -> int:
    """Smallest d with 2 (w/4)^(d+1) / (d+1)! <= eps/2 (interp error bound)."""
    if w <= 0.0:
        return 0
    target = math.log(eps / 4.0)
    log_w4 = math.log(w / 4.0)
    cap = max(32, int(math.ceil(16.0 * (math.log1p(w) + math.log(1.0 / eps)))))
    for d in range(cap + 1):
        if (d + 1) * log_w4 - math.lgamma(d + 2) <= target:
            return d
    raise BuilderError(f"cross-factor degree cap {cap} exceeded for w={w:g}, eps={eps:g}")


def _cheb_nodes_weights(d: int, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """First-kind Chebyshev nodes on [0, hi] with barycentric weights."""
    k = np.arange(d + 1)
    theta = (2.0 * k + 1.0) * math.pi / (2.0 * (d + 1.0))
    nodes = 0.5 * hi * (np.cos(theta) + 1.0)
    weights = (-1.0) ** k * np.sin(theta)
    return nodes, weights


def _lagrange_matrix(x: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Barycentric evaluation of all Lagrange basis polynomials at x."""
    diff = x[:, None] - nodes[None, :]
    exact = diff == 0.0
    hit_rows = np.any(exact, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_over = weights[None, :] / diff
        out = w_over / np.sum(w_over, axis=1)[:, None]
    if np.any(hit_rows):
        # a sample falling exactly on a node gets the cardinal basis row
        out[hit_rows, :] = exact[hit_rows, :].astype(np.float64)
    return out


def _rate_one_sided_p(p: np.ndarray) -> np.ndarray:
    # rate(p || 1) = p ln p - p + 1 with the limit 1 at p = 0
    p_safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, p * np.log(p_safe) - p + 1.0, 1.0)


def _unit_rate_factors(parity: Parity, n_scaled: float, eps: float,
                       p_hat: np.ndarray, q_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Separated factors of exp(-n' * rate(p, q)) on the unit configuration.

    Odd parity: p in [1, 2], q in [0, 1].  Even parity: p in [0, 1],
    q in [1, 2].  Returns (alpha, beta) sampled on the given grids; values
    outside the threshold box are zeroed (the kernel is below eps there).
    """
    m = math.log(1.0 / eps) / n_scaled
    if parity is Parity.ODD:
        pair = solve_thresholds(m, Regime.LOWER)
        s = n_scaled * (p_hat - 1.0)
        s_max = n_scaled * (pair.p_m - 1.0)
        mask_p = p_hat <= pair.p_m
        with np.errstate(divide="ignore"):
            t = -np.log(q_hat)
        t_max = pair.neg_log_q_m
    else:
        pair = solve_thresholds(m, Regime.UPPER)
        s = n_scaled * (1.0 - p_hat)
        s_max = n_scaled * (1.0 - pair.p_m)
        mask_p = p_hat >= pair.p_m
        t = np.log(q_hat)
        t_max = math.log(pair.q_m)
    mask_q = np.isfinite(t) & (t <= t_max)

    u = n_scaled * _rate_one_sided_p(p_hat)                     # n' rate(p || 1)
    with np.errstate(invalid="ignore"):
        v = n_scaled * (q_hat - 1.0 + (t if parity is Parity.ODD else -t))  # n' rate(1 || q)

    degree = _cross_degree(s_max * t_max, eps)
    nodes, weights = _cheb_nodes_weights(degree, s_max)
    alpha = np.zeros((p_hat.size, nodes.size))
    if np.any(mask_p):
        alpha[mask_p, :] = (_lagrange_matrix(s[mask_p], nodes, weights)
                            * np.exp(-u[mask_p])[:, None])

    beta = np.zeros((q_hat.size, nodes.size))
    if np.any(mask_q):
        beta[mask_q, :] = np.exp(-np.outer(t[mask_q], nodes) - v[mask_q, None])
    return alpha, beta


def _block_rate_factors(parity: Parity, corner: float, n: float, eps: float,
                        p_vals: np.ndarray, q_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if corner <= 0.0:
        raise BuilderError(f"block corner {corner!r} is not positive")
    return _unit_rate_factors(parity, n * corner, eps, p_vals / corner, q_vals / corner)


def _flip(parity: Parity) -> Parity:
    return Parity.ODD if parity is Parity.EVEN else Parity.EVEN


def build_constructive(block: Block, kind: DivergenceKind, n: float, eps: float,
                       grid_size: int = 128,
                       p_grid: Optional[np.ndarray] = None,
                       q_grid: Optional[np.ndarray] = None) -> SeparatedApprox:
    """Constructive separated approximation of exp(-n * divergence) on a block.

    Supports the rate kernel, its dual (roles of the axes swapped) and its
    reflection (both coordinates complemented; unit-square blocks only).
    The Bernoulli kernel is a pointwise product of rate and reflected-rate
    kernels: build those two and combine with ``build_product``.

    The factors are sampled on uniform grids over the block unless
    explicit grids (e.g. a family's native discretization) are passed.
    Reconstruction error on the grid is below 10*eps: interpolation,
    zero-truncation and recompression each contribute at most ~eps.
    """
    if kind is DivergenceKind.BERNOULLI:
        raise ValueError("Bernoulli kernels are built as products; see build_product")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    if not (n > 0.0):
        raise ValueError("n must be positive")
    if p_grid is None or q_grid is None:
        if grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        (plo, phi), (qlo, qhi) = block.p_interval, block.q_interval
        p_grid = np.linspace(plo, phi, grid_size) if p_grid is None else p_grid
        q_grid = np.linspace(qlo, qhi, grid_size) if q_grid is None else q_grid
    p_grid = np.asarray(p_grid, dtype=np.float64)
    q_grid = np.asarray(q_grid, dtype=np.float64)

    if kind is DivergenceKind.RATE:
        alpha, beta = _block_rate_factors(block.parity, block.corner, n, eps, p_grid, q_grid)
    elif kind is DivergenceKind.RATE_DUAL:
        # exp(-n rate(q, p)): run the rate machinery with the axes swapped
        beta, alpha = _block_rate_factors(_flip(block.parity), block.corner, n, eps,
                                          q_grid, p_grid)
    elif kind is DivergenceKind.RATE_REFLECTED:
        # exp(-n rate(1-p, 1-q)): reflect through (1, 1); the reflected
        # block is the opposite-parity staircase block with corner 1 - c
        (plo, phi), (qlo, qhi) = block.p_interval, block.q_interval
        if not (0.0 <= plo and phi <= 1.0 and 0.0 <= qlo and qhi <= 1.0):
            raise BuilderError("reflected kernels need a unit-square block")
        alpha, beta = _block_rate_factors(_flip(block.parity), 1.0 - block.corner, n, eps,
                                          1.0 - p_grid, 1.0 - q_grid)
    else:  # pragma: no cover
        raise ValueError(f"unknown divergence kind {kind!r}")

    alpha, beta = _recompress(alpha, beta, eps)
    return SeparatedApprox(p_grid=p_grid, q_grid=q_grid, alpha=alpha, beta=beta)


def build_product(a: SeparatedApprox, b: SeparatedApprox, eps: float) -> SeparatedApprox:
    """Pointwise product of two expansions over shared grids, recompressed.

    The raw product has rank(a)*rank(b) terms (columnwise products of the
    factors); recompression at eps brings it back down.
    """
    if not (np.array_equal(a.p_grid, b.p_grid) and np.array_equal(a.q_grid, b.q_grid)):
        raise ValueError("grid mismatch: product factors must share p_grid and q_grid")
    ra, rb = a.rank, b.rank
    alpha = (a.alpha[:, :, None] * b.alpha[:, None, :]).reshape(a.alpha.shape[0], ra * rb)
    beta = (a.beta[:, :, None] * b.beta[:, None, :]).reshape(a.beta.shape[0], ra * rb)
    alpha, beta = _recompress(alpha, beta, eps)
    return SeparatedApprox(p_grid=a.p_grid, q_grid=a.q_grid, alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# adaptive cross approximation
# ---------------------------------------------------------------------------

def aca_build(entry_oracle: Callable, rows: int, cols: int, eps: float) -> SeparatedApprox:
    """Adaptive cross approximation with partial pivoting.

    ``entry_oracle(i, j)`` is called with integer indices that broadcast
    against each other and lie inside the block (``0 <= i < rows``,
    ``0 <= j < cols``): 0-d or 1-D arrays, or the open grid
    ``(i[:, None], j[None, :])``.  It must return the entries at the
    broadcast index pairs, in the broadcast shape.  ACA asks it for one
    row at a time as ``(0-d row, 1-D columns)``, one column at a time as
    ``(1-D rows, 0-d column)``, and for the whole block as the open grid
    when it falls back to the dense SVD.  ``families.block_oracle`` is
    such an oracle for a family's block.

    Crosses are added until the last cross norm falls below eps times the
    running Frobenius-norm estimate of the approximation.  If no
    convergence happens within min(rows, cols) steps, the block is
    assembled densely and truncated by SVD instead.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    limit = min(rows, cols)
    all_rows = np.arange(rows, dtype=np.intp)
    all_cols = np.arange(cols, dtype=np.intp)

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    used_rows = np.zeros(rows, dtype=bool)
    used_cols = np.zeros(cols, dtype=bool)
    norm2 = 0.0
    converged = False
    pivot_row = 0

    step = 0
    while step < limit:
        r = np.asarray(entry_oracle(np.intp(pivot_row), all_cols), dtype=np.float64).copy()
        for u, v in zip(us, vs):
            r -= u[pivot_row] * v
        r_abs = np.where(used_cols, -1.0, np.abs(r))
        pivot_col = int(np.argmax(r_abs))
        used_rows[pivot_row] = True
        if r_abs[pivot_col] <= 1e-300:
            # degenerate row: residual vanishes there; try another row
            remaining = np.nonzero(~used_rows)[0]
            if remaining.size == 0:
                converged = True
                break
            pivot_row = int(remaining[0])
            continue
        v = r / r[pivot_col]
        c = np.asarray(entry_oracle(all_rows, np.intp(pivot_col)), dtype=np.float64).copy()
        for u_prev, v_prev in zip(us, vs):
            c -= v_prev[pivot_col] * u_prev
        u = c

        cross2 = float(u @ u) * float(v @ v)
        norm2_new = norm2 + cross2
        for u_prev, v_prev in zip(us, vs):
            norm2_new += 2.0 * float(u @ u_prev) * float(v @ v_prev)
        norm2_new = max(norm2_new, cross2)
        if us and cross2 <= eps * eps * norm2_new:
            # remaining residual is below tolerance; do not keep this cross
            converged = True
            break
        used_cols[pivot_col] = True
        norm2 = norm2_new
        us.append(u)
        vs.append(v)
        step += 1

        u_abs = np.where(used_rows, -1.0, np.abs(u))
        pivot_row = int(np.argmax(u_abs))
        if u_abs[pivot_row] < 0.0:
            converged = True
            break

    if converged or not us:
        alpha = np.array(us).T.reshape(rows, len(us))
        beta = np.array(vs).T.reshape(cols, len(vs))
    else:
        # non-convergence: dense SVD truncation fallback
        dense = np.asarray(entry_oracle(all_rows[:, None], all_cols[None, :]), dtype=np.float64)
        uu, s, vt = np.linalg.svd(dense, full_matrices=False)
        r = rank_from_singular_values(s, eps)
        alpha = uu[:, :r] * s[:r]
        beta = vt[:r].T

    # row-major factors, as the HLRD1 container stores and loads them, so a
    # loaded matrix multiplies bit for bit like the one that was saved
    return SeparatedApprox(p_grid=all_rows.astype(np.float64),
                           q_grid=all_cols.astype(np.float64),
                           alpha=np.ascontiguousarray(alpha),
                           beta=np.ascontiguousarray(beta))
