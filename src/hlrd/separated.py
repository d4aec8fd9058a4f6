"""Separated (low-rank) approximation of divergence kernels on blocks.

A separated approximation of a bivariate kernel on a block is an
expansion ``sum_i alpha_i(p) beta_i(q)``; its length is the block's rank.
Three builders are provided:

* ``build_constructive`` realizes the analytic pipeline for the rate
  kernels ``exp(-n * divergence)``: map the block to the rate kernel's
  coordinates (the dual swaps the p and q intervals, grids and factors;
  the reflection maps x -> 1 - x on both intervals and grids), where it
  touches the diagonal at ``max(p_lo, q_lo)`` and lies below it
  (``Regime.LOWER``) when ``p_lo > q_lo``, above it otherwise; rescale
  it by that corner to the unit configuration, truncate the kernel to
  zero outside the threshold box at level ``m = ln(1/eps)/n'``, and
  separate what remains.  The separation rests on the exact identity

      rate(p||q) = rate(p||1) + rate(1||q) + (p - 1) * (-ln q),

  whose three pieces are all non-negative on the configuration.  The two
  one-sided pieces split off as pure p- and q-factors ``exp(-n'*...)``;
  the remaining cross factor ``exp(-s t)`` with ``s = n'(p-1)``,
  ``t = -ln q`` is separated by Lagrange interpolation at Chebyshev
  nodes in s, evaluated barycentrically.  The nodes span the block's own
  grid clipped to the threshold box, not the whole box: a staircase
  block away from the origin covers only a sliver of its configuration,
  and the threshold points are solved only when the grid reaches past
  the box.  The node count obeys the standard factorial bound, so the
  degree grows like ``ln(1/eps)`` and every intermediate quantity stays
  O(1): no catastrophic cancellation, uniformly in n'.

  The Bernoulli kernel is built by the same pipeline in its own
  coordinates: at the block's diagonal corner c the Bernoulli KL splits
  as

      KL(p||q) = KL(p||c) + KL(c||q) + (p - c)(logit c - logit q),

  three non-negative terms, with the cross factor ``exp(-s t)``,
  ``s = n(p - c)`` and ``t = logit c - logit q`` (signs flipped above
  the diagonal), interpolated in s over the grid's points inside the
  threshold box, so no threshold is solved.  One expansion and one
  recompression per block, as for the rate kernels.

* ``build_product`` multiplies two expansions columnwise and
  recompresses the product.  The Bernoulli kernel is the product of the
  rate kernel and its reflection, and the product of their expansions
  is the paper's construction of its blocks; ``build_constructive``
  does not take that route.

* ``aca_build`` is adaptive cross approximation with partial pivoting,
  the practical route that needs only an entry oracle.

``threshold_masks`` is the support rule both builders share.  In the
unit configuration, with ``n' = n * corner``, a p-point lies in the
threshold box when ``n' rate(p || 1) <= ln(1/eps)`` and a q-point when
``n' rate(1 || q) <= ln(1/eps)``: by the identity above the kernel is
below eps at every pair outside, so a builder may store zeros there.
``hmatrix.compress`` runs either builder on the box alone: a low-rank
piece's box is its block's threshold box (its block's box at rank 0).
``build_constructive`` also masks its factors with the rule, so that on
whole-block grids it is zero outside the box.  A family entry is the
kernel times an exact prefactor, so the absolute error the box adds is
eps times the largest prefactor on the ridge: at most eps/2 for the
binomial, eps/e for the Poisson and 0.242 eps for the chi-squared.

``singular_values`` is the SVD oracle the builders are measured against,
and ``numerical_rank`` counts its values above a threshold.  It takes the
SVD of the matrix's numerical support: with u = 2^-53, the rows and then
the columns of least norm whose total squared norm stays within
(u ||A||_F)^2 are dropped first.  By Weyl's inequality no singular value
moves by more than u ||A||_F, which is below the rounding already in the
entries; ranks at thresholds near or below that level count the support
only.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .divergence import DivergenceKind, Regime, _bernoulli, solve_thresholds
from .partition import Block

__all__ = [
    "BuilderError",
    "RankConvention",
    "SeparatedApprox",
    "aca_build",
    "build_constructive",
    "build_product",
    "numerical_rank",
    "rank_from_singular_values",
    "singular_values",
    "threshold_masks",
]


class BuilderError(RuntimeError):
    """A separated-approximation builder could not meet its contract."""


class RankConvention(enum.Enum):
    """Threshold convention for counting singular values."""

    RELATIVE_TO_SIGMA1 = "rel"
    ABSOLUTE = "abs"


@dataclass
class SeparatedApprox:
    """Rank-r factorization sum_i alpha[:, i] * beta[:, i]; ACA keeps no grids."""

    p_grid: Optional[np.ndarray]
    q_grid: Optional[np.ndarray]
    alpha: np.ndarray  # (rows, rank)
    beta: np.ndarray   # (cols, rank)

    @property
    def rank(self) -> int:
        return self.alpha.shape[1]

    def reconstruct(self) -> np.ndarray:
        return self.alpha @ self.beta.T


# ---------------------------------------------------------------------------
# SVD oracle
# ---------------------------------------------------------------------------

def rank_from_singular_values(s: np.ndarray, eps,
                              convention: RankConvention = RankConvention.RELATIVE_TO_SIGMA1):
    """Count of the descending singular values ``s`` above the eps threshold (0 < eps < inf).

    An array of eps gets one count each, from one comparison."""
    eps_arr = np.asarray(eps, dtype=np.float64)
    if not np.all((eps_arr > 0.0) & (eps_arr < math.inf)):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    relative = convention is RankConvention.RELATIVE_TO_SIGMA1 and s.size
    counts = np.count_nonzero(s > (eps_arr * s[0] if relative else eps_arr)[..., None], axis=-1)
    return int(counts) if counts.ndim == 0 else counts


_UNIT_ROUNDOFF = 2.0 ** -53


def _keep_above(sq_norms: np.ndarray, budget: float) -> tuple[np.ndarray, float]:
    """Indices left after dropping the smallest squared norms while their sum stays <= budget.

    Returns the kept indices in ascending order and the budget not spent.
    """
    order = np.argsort(sq_norms, kind="stable")
    spent = np.cumsum(sq_norms[order])
    dropped = int(np.searchsorted(spent, budget, side="right"))
    return np.sort(order[dropped:]), budget - (float(spent[dropped - 1]) if dropped else 0.0)


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Descending singular values of the matrix's numerical support.

    With u = 2^-53 and the budget (u ||A||_F)^2, rows are dropped in
    ascending order of squared norm while the dropped sum stays within the
    budget, then columns of what is left against the budget that remains;
    the rest is handed to the SVD (empty: ``np.zeros(0)``).  The dropped
    part has Frobenius norm at most u ||A||_F, so by Weyl's inequality
    every singular value moves by at most that much, and every singular
    value dropped is at most that: below the rounding error already in
    A's entries.  A block of a family matrix decays like
    exp(-n * divergence) away from the ridge, so most of its rows and
    columns fall below that level.  Norms are taken of A scaled by its
    largest magnitude, so that squaring neither overflows nor underflows.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    scale = float(np.max(np.abs(a), initial=0.0))
    if scale == 0.0:
        return np.zeros(0)
    scaled = a / scale
    row_sq = np.einsum("ij,ij->i", scaled, scaled)
    rows, budget = _keep_above(row_sq, _UNIT_ROUNDOFF ** 2 * float(row_sq.sum()))
    scaled = scaled[rows]
    cols, _ = _keep_above(np.einsum("ij,ij->j", scaled, scaled), budget)
    return np.linalg.svd(a[np.ix_(rows, cols)], compute_uv=False)


def numerical_rank(matrix: np.ndarray, eps: float,
                   convention: RankConvention = RankConvention.RELATIVE_TO_SIGMA1) -> int:
    """Number of singular values above the eps threshold, on the numerical support.

    The spectrum is ``singular_values``': each value is within
    u ||A||_F (u = 2^-53) of the full SVD's, so only thresholds near or
    below that level can count differently from a full SVD.
    """
    return rank_from_singular_values(singular_values(matrix), eps, convention)


# ---------------------------------------------------------------------------
# recompression
# ---------------------------------------------------------------------------

def _recompress(alpha: np.ndarray, beta: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Truncate the factor pair's singular values <= threshold, without forming Q.

    With the Householder QRs ``alpha = Qa Ra``, ``beta = Qb Rb`` and the
    SVD ``Ra Rb^T = U S V^T``, the kept terms are ``Qa U_r S_r`` and
    ``Qb V_r``.  Since ``U_r S_r = Ra Rb^T V_r`` and
    ``V_r = Rb Ra^T U_r / S_r``, they equal ``alpha Rb^T V_r`` and
    ``beta Ra^T U_r / S_r``.  So only R and the SVD are computed:
    ``qr(mode="r")`` is the reduced QR's factorization and returns the same
    R bits, and the SVD is the same call; the m x w Q, whose explicit
    formation costs about as much as the factorization, never is.  A
    factor with no more rows than columns is its own R (Q = I), so its QR
    is skipped and the formulas hold as they stand.  alpha carries the
    singular values, and an exactly zero factor row stays exactly zero.

    The discarded spectral tail is at most the threshold, so the entrywise
    reconstruction error added here is at most the threshold as well.
    """
    if alpha.shape[1] == 0:
        return alpha, beta
    ra, rb = (f if f.shape[0] <= f.shape[1] else np.linalg.qr(f, mode="r") for f in (alpha, beta))
    u, s, vt = np.linalg.svd(ra @ rb.T)
    r = int(np.sum(s > threshold))
    return alpha @ (rb.T @ vt[:r].T), beta @ ((ra.T @ u[:, :r]) / s[:r])


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


@functools.lru_cache(maxsize=None)
def _cheb_nodes_weights(d: int) -> tuple[np.ndarray, np.ndarray]:
    """First-kind Chebyshev nodes on [0, 2] with barycentric weights, read-only, per degree."""
    k = np.arange(d + 1)
    theta = (2.0 * k + 1.0) * math.pi / (2.0 * (d + 1.0))
    nodes, weights = np.cos(theta) + 1.0, (-1.0) ** k * np.sin(theta)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _lagrange_matrix(x: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Barycentric evaluation of all Lagrange basis polynomials at x."""
    diff = x[:, None] - nodes[None, :]
    exact = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        w_over = weights[None, :] / diff
        out = w_over / np.sum(w_over, axis=1)[:, None]
    if exact.any():
        hit_rows = np.any(exact, axis=1)
        # a sample falling exactly on a node gets the cardinal basis row
        out[hit_rows, :] = exact[hit_rows, :].astype(np.float64)
    return out


def _rate_one_sided_p(p: np.ndarray) -> np.ndarray:
    # rate(p || 1) = p ln p - p + 1 with the limit 1 at p = 0
    p_safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, p * np.log(p_safe) - p + 1.0, 1.0)


def _rate_to_one(n_scaled: np.ndarray, p_hat: np.ndarray) -> np.ndarray:
    """n' rate(p || 1) on the unit configuration: the p-side exponent of the threshold box."""
    return n_scaled * _rate_one_sided_p(p_hat)


def _rate_from_one(n_scaled: np.ndarray, q_hat: np.ndarray) -> np.ndarray:
    """n' rate(1 || q) = n' (q - 1 - ln q): the q-side exponent, +inf at q = 0."""
    with np.errstate(divide="ignore"):
        return n_scaled * (q_hat - 1.0 - np.log(q_hat))


def _unit_rate_factors(regime: Regime, n_scaled: float, eps: float,
                       p_hat: np.ndarray, q_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Separated factors of exp(-n' * rate(p, q)) on the unit configuration.

    Lower regime: p in [1, 2], q in [0, 1].  Upper regime: p in [0, 1],
    q in [1, 2].  Returns (alpha, beta) sampled on the given grids; values
    outside the threshold box (``threshold_masks``' rule: a one-sided
    exponent above ln(1/eps)) are zeroed, since the kernel is below eps
    there.  The regime only sets the sign sigma = +1 (lower) or -1 (upper)
    that keeps s = n' sigma (p - 1) and t = -sigma ln q non-negative.

    The Chebyshev nodes in s sit on the grid's own interval, clipped to
    the threshold box: s over [max(0, min s), min(max s, s_max)] and t over
    [0, min(max t, t_max)], with the degree from the width of the first
    times the top of the second.  ``solve_thresholds`` gives s_max and
    t_max and is called only when a side's farthest grid point lies
    outside the box; a grid inside the box, as ``hmatrix.compress``
    passes, solves nothing, and a grid over the whole unit configuration
    gets the solver's interval.  An empty grid gets width-0 factors.
    """
    if p_hat.size == 0 or q_hat.size == 0:
        return np.zeros((p_hat.size, 0)), np.zeros((q_hat.size, 0))
    log_inv_eps = math.log(1.0 / eps)
    sigma = 1.0 if regime is Regime.LOWER else -1.0
    s = n_scaled * (sigma * (p_hat - 1.0))
    with np.errstate(divide="ignore"):
        t = -sigma * np.log(q_hat)

    u = _rate_to_one(n_scaled, p_hat)
    v = _rate_from_one(n_scaled, q_hat)
    mask_p = u <= log_inv_eps
    mask_q = v <= log_inv_eps

    # the grid's own interval; the solved box clips a side only where its
    # farthest point (largest one-sided exponent) lies outside the box
    s_far, t_far = int(np.argmax(s)), int(np.argmax(t))
    s_lo, s_hi, t_hi = max(0.0, float(np.min(s))), float(s[s_far]), float(t[t_far])
    if not (mask_p[s_far] and mask_q[t_far]):
        pair = solve_thresholds(log_inv_eps / n_scaled, regime)
        if not mask_p[s_far]:
            s_hi = min(s_hi, n_scaled * (sigma * (pair.p_m - 1.0)))
        if not mask_q[t_far]:
            t_hi = min(t_hi, sigma * pair.neg_log_q_m)

    return _cross_factors(s, t, u, v, mask_p, mask_q, (s_lo, s_hi, t_hi), eps)


def _cross_factors(s: np.ndarray, t: np.ndarray, u: np.ndarray, v: np.ndarray,
                   mask_p: np.ndarray, mask_q: np.ndarray, box: tuple[float, float, float],
                   eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Factors of exp(-u) exp(-s t) exp(-v), zero outside the masks.

    The cross factor ``exp(-s t)`` is interpolated in s at Chebyshev nodes
    over ``box = (s_lo, s_hi, t_hi)``, s in [s_lo, s_hi] and t in
    [0, t_hi], with the degree ``_cross_degree`` gives their product.
    alpha holds the p-side, the Lagrange basis at s times ``exp(-u)``;
    beta the q-side, ``exp(-t * node - v)`` per node.
    """
    s_lo, s_hi, t_hi = box
    degree = _cross_degree((s_hi - s_lo) * t_hi, eps)
    unit_nodes, weights = _cheb_nodes_weights(degree)
    nodes = s_lo + 0.5 * (s_hi - s_lo) * unit_nodes
    alpha = np.zeros((s.size, nodes.size))
    if np.any(mask_p):
        alpha[mask_p, :] = (_lagrange_matrix(s[mask_p], nodes, weights)
                            * np.exp(-u[mask_p])[:, None])

    beta = np.zeros((t.size, nodes.size))
    if np.any(mask_q):
        beta[mask_q, :] = np.exp(-np.outer(t[mask_q], nodes) - v[mask_q, None])
    return alpha, beta


def _unit_bernoulli_factors(p_interval: tuple[float, float], q_interval: tuple[float, float],
                            n: float, eps: float,
                            p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Separated factors of exp(-n * KL(p || q)) on a unit-square block.

    At the block's diagonal corner c (``_unit_configuration``) the
    Bernoulli KL splits like the rate divergence at 1, with logit in place
    of log:

        KL(p||q) = KL(p||c) + KL(c||q) + (p - c)(logit c - logit q),

    and all three terms are non-negative where p and q lie on either side
    of c.  With sigma = +1 (lower regime, p >= c >= q) or -1 (upper), the
    cross term is s t with ``s = sigma n (p - c)`` and
    ``t = sigma (log1p((c - q)/q) + log1p((c - q)/(1 - c)))``, both
    non-negative, and the one-sided terms ``n KL(p||c)`` and ``n KL(c||q)``
    are evaluated in the bd0 form.  The factors are zero outside the
    block's threshold box (``threshold_masks``, the box ``hmatrix.compress``
    stores), and the nodes span the s and t of the grid points inside it:
    no threshold is solved.  A grid with no point inside on a side gets
    width-0 factors.
    """
    regime, corner = _unit_configuration(p_interval, q_interval)
    intervals = tuple(np.array([x]) for x in (*p_interval, *q_interval))
    mask_p, mask_q = threshold_masks(DivergenceKind.BERNOULLI, n, eps, intervals,
                                     p, np.zeros(p.size, dtype=np.intp),
                                     q, np.zeros(q.size, dtype=np.intp))
    if not (np.any(mask_p) and np.any(mask_q)):
        return np.zeros((p.size, 0)), np.zeros((q.size, 0))
    sigma = 1.0 if regime is Regime.LOWER else -1.0
    s = n * (sigma * (p - corner))
    u = n * _bernoulli(p, corner)
    d = corner - q
    with np.errstate(divide="ignore", invalid="ignore"):
        # both are infinite or undefined only at q = 0 and q = 1, outside the box
        v = n * _bernoulli(corner, q)
        t = sigma * (np.log1p(d / q) + np.log1p(d / (1.0 - corner)))
    s_in, t_in = s[mask_p], t[mask_q]
    box = (max(0.0, float(np.min(s_in))), float(np.max(s_in)), float(np.max(t_in)))
    return _cross_factors(s, t, u, v, mask_p, mask_q, box, eps)


def _rate_coordinates(kind: DivergenceKind, p_interval: tuple[float, float],
                      q_interval: tuple[float, float], p_grid: np.ndarray, q_grid: np.ndarray):
    """A block's (p_interval, q_interval, p_grid, q_grid) in the rate kernel's coordinates.

    The dual kernel exp(-n rate(q, p)) is the rate kernel with the axes
    swapped; the reflected kernel exp(-n rate(1-p, 1-q)) is the rate
    kernel under x -> 1 - x, which maps [lo, hi] to [1 - hi, 1 - lo].
    """
    if kind is DivergenceKind.RATE:
        return p_interval, q_interval, p_grid, q_grid
    if kind is DivergenceKind.RATE_DUAL:
        return q_interval, p_interval, q_grid, p_grid
    if kind is DivergenceKind.RATE_REFLECTED:
        _check_unit_square(p_interval, q_interval, "reflected")
        (plo, phi), (qlo, qhi) = p_interval, q_interval
        return (1.0 - phi, 1.0 - plo), (1.0 - qhi, 1.0 - qlo), 1.0 - p_grid, 1.0 - q_grid
    raise ValueError(f"unknown divergence kind {kind!r}")  # pragma: no cover


def _check_unit_square(p_interval: tuple, q_interval: tuple, what: str) -> None:
    """BuilderError unless both intervals (or arrays of them) lie in [0, 1]."""
    (plo, phi), (qlo, qhi) = p_interval, q_interval
    if not np.all((0.0 <= plo) & (phi <= 1.0) & (0.0 <= qlo) & (qhi <= 1.0)):
        raise BuilderError(f"{what} kernels need a unit-square block")


def _unit_configuration(p_interval: tuple[float, float],
                        q_interval: tuple[float, float]) -> tuple[Regime, float]:
    """(regime, corner) of a block in rate coordinates: below the diagonal when p starts past q."""
    p_lo, q_lo = p_interval[0], q_interval[0]
    return (Regime.LOWER if p_lo > q_lo else Regime.UPPER), max(p_lo, q_lo)


def threshold_masks(kind: DivergenceKind, n: float, eps: float, intervals: tuple,
                    p_grid: np.ndarray, p_block: np.ndarray,
                    q_grid: np.ndarray, q_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which grid points lie inside their block's threshold box, for many blocks at once.

    ``intervals`` is ``(p_lo, p_hi, q_lo, q_hi)``, one array entry per
    block (``partition.block_intervals``); grid point i of the p axis lies
    in block ``p_block[i]``, and likewise for q.  In the block's unit
    configuration (``_rate_coordinates``, then division by the corner of
    ``_unit_configuration``) a rate-p point is inside when
    ``n' rate(p || 1) <= ln(1/eps)`` and a rate-q point when
    ``n' rate(1 || q) <= ln(1/eps)``, with ``n' = n * corner``: these are
    the left-hand sides of ``solve_thresholds``' equations, and the same
    exponents ``_unit_rate_factors`` masks its factors with, bit for bit.
    Since ``n' rate(p || q)`` is at least each of them, the kernel
    ``exp(-n * divergence)`` is below eps at every pair outside the box.
    The Bernoulli kernel is the product of the rate kernel and its
    reflection; its box is the intersection of theirs, and
    ``_unit_bernoulli_factors`` masks its factors with this function.
    Returns boolean masks over ``p_grid`` and ``q_grid``;
    ``hmatrix.compress`` stores a low-rank piece on its block's threshold
    box (its block's box at rank 0), from the first through the last point
    inside on each axis.
    """
    if kind is DivergenceKind.BERNOULLI:
        parts = [threshold_masks(part, n, eps, intervals, p_grid, p_block, q_grid, q_block)
                 for part in (DivergenceKind.RATE, DivergenceKind.RATE_REFLECTED)]
        return parts[0][0] & parts[1][0], parts[0][1] & parts[1][1]
    p_lo, p_hi, q_lo, q_hi = intervals
    (p_lo, _), (q_lo, _), p_vals, q_vals = _rate_coordinates(kind, (p_lo, p_hi), (q_lo, q_hi),
                                                             p_grid, q_grid)
    corner = np.maximum(p_lo, q_lo)   # _unit_configuration's corner, per block
    if kind is DivergenceKind.RATE_DUAL:
        p_block, q_block = q_block, p_block
    log_inv_eps = math.log(1.0 / eps)
    p_in = _rate_to_one(n * corner[p_block], p_vals / corner[p_block]) <= log_inv_eps
    q_in = _rate_from_one(n * corner[q_block], q_vals / corner[q_block]) <= log_inv_eps
    return (q_in, p_in) if kind is DivergenceKind.RATE_DUAL else (p_in, q_in)


def build_constructive(block: Block, kind: DivergenceKind, n: float, eps: float,
                       grid_size: int = 128,
                       p_grid: Optional[np.ndarray] = None,
                       q_grid: Optional[np.ndarray] = None) -> SeparatedApprox:
    """Constructive separated approximation of exp(-n * divergence) on a block.

    Supports the rate kernel, its dual (roles of the axes swapped), its
    reflection (both coordinates complemented) and the Bernoulli KL; the
    last two on unit-square blocks only.  Every kind is one interpolated
    cross factor between a p- and a q-factor and one recompression: the
    rate kinds in the rate kernel's unit configuration
    (``_unit_rate_factors``), the Bernoulli KL split at the block's
    diagonal corner (``_unit_bernoulli_factors``).

    The factors are sampled on uniform grids over the block unless
    explicit grids (e.g. a family's native discretization) are passed.
    Reconstruction error on the grid is below 10*eps: interpolation,
    zero-truncation and recompression each contribute at most ~eps.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    if not (n > 0.0):
        raise ValueError("n must be positive")
    p_interval, q_interval = block.p_interval, block.q_interval
    if p_grid is None or q_grid is None:
        if grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        p_grid = np.linspace(*p_interval, grid_size) if p_grid is None else p_grid
        q_grid = np.linspace(*q_interval, grid_size) if q_grid is None else q_grid
    p_grid = np.asarray(p_grid, dtype=np.float64)
    q_grid = np.asarray(q_grid, dtype=np.float64)

    if kind is DivergenceKind.BERNOULLI:
        _check_unit_square(p_interval, q_interval, "Bernoulli")
        alpha, beta = _unit_bernoulli_factors(p_interval, q_interval, n, eps, p_grid, q_grid)
    else:
        # rescaled by its corner, the block in rate coordinates is the unit configuration
        p_interval, q_interval, p_vals, q_vals = _rate_coordinates(kind, p_interval, q_interval,
                                                                   p_grid, q_grid)
        regime, corner = _unit_configuration(p_interval, q_interval)
        alpha, beta = _unit_rate_factors(regime, n * corner, eps,
                                         p_vals / corner, q_vals / corner)
        if kind is DivergenceKind.RATE_DUAL:
            alpha, beta = beta, alpha
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

_ACA_PANEL_WIDTH = 16


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

    The k crosses found so far are the first k rows of two factor panels,
    U (width x rows) and V (width x cols); the width starts at 16 and
    doubles when full, up to min(rows, cols).  The residual of the pivot
    row is its oracle row minus ``U[:k, pivot_row] @ V[:k]``, the residual
    of the pivot column its oracle column minus ``V[:k, pivot_col] @ U[:k]``,
    and the squared Frobenius norm of the approximation grows by
    ``|u|^2 |v|^2 + 2 (U[:k] @ u) @ (V[:k] @ v)``.  So each cross costs
    O((rows + cols) k) in a few BLAS products, with no Python loop over
    earlier crosses.

    Crosses are added until the last cross norm falls below eps times the
    running Frobenius-norm estimate of the approximation.  If no
    convergence happens within min(rows, cols) steps, the block is
    assembled densely and truncated by SVD instead.  Both paths return
    C-contiguous factors.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if not (0.0 < eps < math.inf):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    limit = min(rows, cols)
    all_rows = np.arange(rows, dtype=np.intp)
    all_cols = np.arange(cols, dtype=np.intp)

    # cross i is row i of both panels: the crosses in use are one contiguous block
    u_panel = np.empty((min(_ACA_PANEL_WIDTH, limit), rows))
    v_panel = np.empty((u_panel.shape[0], cols))
    k = 0
    used_rows = np.zeros(rows, dtype=bool)
    used_cols = np.zeros(cols, dtype=bool)
    norm2 = 0.0
    converged = False
    pivot_row = 0

    while k < limit:
        r = (np.asarray(entry_oracle(np.intp(pivot_row), all_cols), dtype=np.float64)
             - u_panel[:k, pivot_row] @ v_panel[:k])
        r_abs = np.abs(r)
        r_abs[used_cols] = -1.0
        pivot_col = int(r_abs.argmax())
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
        u = (np.asarray(entry_oracle(all_rows, np.intp(pivot_col)), dtype=np.float64)
             - v_panel[:k, pivot_col] @ u_panel[:k])

        cross2 = float(u @ u) * float(v @ v)
        norm2_new = max(norm2 + cross2
                        + 2.0 * float((u_panel[:k] @ u) @ (v_panel[:k] @ v)), cross2)
        if k and cross2 <= eps * eps * norm2_new:
            # remaining residual is below tolerance; do not keep this cross
            converged = True
            break
        used_cols[pivot_col] = True
        norm2 = norm2_new
        if k == u_panel.shape[0]:
            extra = min(k, limit - k)
            u_panel = np.vstack([u_panel, np.empty((extra, rows))])
            v_panel = np.vstack([v_panel, np.empty((extra, cols))])
        u_panel[k] = u
        v_panel[k] = v
        k += 1

        u_abs = np.abs(u)
        u_abs[used_rows] = -1.0
        pivot_row = int(u_abs.argmax())
        if u_abs[pivot_row] < 0.0:
            converged = True
            break

    if converged:
        alpha = np.ascontiguousarray(u_panel[:k].T)
        beta = np.ascontiguousarray(v_panel[:k].T)
    else:
        # non-convergence: dense SVD truncation fallback
        dense = np.asarray(entry_oracle(all_rows[:, None], all_cols[None, :]), dtype=np.float64)
        uu, s, vt = np.linalg.svd(dense, full_matrices=False)
        r = rank_from_singular_values(s, eps)
        alpha = np.ascontiguousarray(uu[:, :r] * s[:r])
        beta = np.ascontiguousarray(vt[:r].T)

    return SeparatedApprox(p_grid=None, q_grid=None, alpha=alpha, beta=beta)
