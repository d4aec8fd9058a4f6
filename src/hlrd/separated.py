"""Separated (low-rank) approximation of divergence kernels on blocks.

A separated approximation of a bivariate kernel on a block is an
expansion ``sum_i alpha_i(p) beta_i(q)``; its length is the block's rank.
Three builders are provided:

* ``constructive_blocks`` realizes the analytic pipeline for the rate
  kernels ``exp(-n * divergence)`` on many blocks at once, and
  ``build_constructive`` is the same call on one block.  Each block is
  mapped to the rate kernel's coordinates (the dual swaps the p and q
  intervals, grids and factors; the reflection maps x -> 1 - x on both
  intervals and grids), where it touches the diagonal at
  ``max(p_lo, q_lo)`` and lies below it (``Regime.LOWER``) when
  ``p_lo > q_lo``, above it otherwise; it is rescaled by that corner to
  the unit configuration, the kernel is truncated to zero outside the
  threshold box at level ``m = ln(1/eps)/n'``, and what remains is
  separated.  The separation rests on the exact identity

      rate(p||q) = rate(p||1) + rate(1||q) + (p - 1) * (-ln q),

  whose three pieces are all non-negative on the configuration.  The two
  one-sided pieces split off as pure p- and q-factors ``exp(-n'*...)``;
  the remaining cross factor ``exp(-s t)`` with ``s = n'(p-1)``,
  ``t = -ln q`` is separated by Lagrange interpolation at Chebyshev
  nodes in s, evaluated barycentrically.  The nodes span the block's own
  grid points inside the threshold box, not the whole box: a staircase
  block away from the origin covers only a sliver of its configuration,
  and no threshold is solved.  The node count obeys the standard
  factorial bound, so the degree grows like ``ln(1/eps)`` and every
  intermediate quantity stays O(1): no catastrophic cancellation,
  uniformly in n'.

  The Bernoulli kernel is built by the same pipeline in its own
  coordinates: at the block's diagonal corner c the Bernoulli KL splits
  as

      KL(p||q) = KL(p||c) + KL(c||q) + (p - c)(logit c - logit q),

  three non-negative terms, with the cross factor ``exp(-s t)``,
  ``s = n(p - c)`` and ``t = logit c - logit q`` (signs flipped above
  the diagonal).  Every kind then takes the same steps: split at the
  corner (``_split_at_corner``), mask the grids with the threshold box,
  interpolate the cross factor over the points inside
  (``_cross_factors``), recompress.  The first three run over all the
  blocks in a few numpy passes, the interpolation one pass per degree;
  only ``_recompress`` runs block by block.  A block's factors are bit
  for bit those it gets alone.

* ``build_product`` multiplies two expansions columnwise and
  recompresses the product.  The Bernoulli kernel is the product of the
  rate kernel and its reflection, and the product of their expansions
  is the paper's construction of its blocks; the constructive builder
  does not take that route.

* ``aca_blocks`` is adaptive cross approximation with partial pivoting,
  the practical route that needs only an entry oracle, run on a group of
  blocks in lockstep; ``aca_build`` is the same loop on one block.  Its
  stop level can take an absolute floor, and a residual check on a few
  seeded unused rows and columns of each block sends the blocks it
  missed to a dense SVD.

``threshold_masks`` is the support rule both builders share.  A grid
point lies in the threshold box when its one-sided exponent of the split
at its block's corner, u on the p side and v on the q side, is at most
``ln(1/eps)``: ``n' rate(p || 1)`` and ``n' rate(1 || q)`` in the unit
configuration (``n' = n * corner``), ``n KL(p || c)`` and ``n KL(c || q)``
for the Bernoulli.  The kernel is ``exp(-u) exp(-s t) exp(-v)`` with all
three exponents non-negative, so it is below eps at every pair outside,
and a builder may store zeros there.
``hmatrix.compress`` runs either builder on the box alone, a level at a
time: a low-rank piece's box is its block's threshold box (its block's
box at rank 0).  The constructive builder also masks its factors with
the rule and spans its expansion over the points inside, so that on
whole-block grids it is zero outside the box and equal, bit for bit, to
the expansion built from the points inside alone.  A family entry is
the kernel times an exact prefactor, so the absolute error the box adds
is eps times the largest prefactor on the ridge: at most eps/2 for the
binomial, eps/e for the Poisson and 0.242 eps for the chi-squared.

``singular_values`` is the SVD oracle the builders are measured against,
and ``numerical_rank`` counts its values above a threshold.  It takes the
SVD of the matrix's numerical support: with u = 2^-53, the rows and then
the columns of least norm whose total squared norm stays within
(u ||A||_F)^2 are dropped first.  By Weyl's inequality no singular value
moves by more than u ||A||_F, which is below the rounding already in the
entries; ranks at thresholds near or below that level count the support
only.  A count needs only the values near its thresholds, so
``_support_rank``, which ``numerical_rank`` and the rank experiments
(``hmatrix.block_ranks``) count through, first tries a seeded range
sketch on a matrix with both sides above 48: from the sketch's singular
values and its exact residual it brackets every value the SVD would
return, within a pad of 8 sqrt(max(m, n)) u ||A||_F for the SVD's and
the sketch's own rounding (``_sketched_counts``), and it returns the
counts when no value's bracket reaches a threshold.  Any count it cannot
settle that way, and every count of a smaller matrix, comes from the SVD
of the support, so the counts are the SVD's whichever path gives them.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# solve_thresholds is unused here; perfbench/tracing.py wraps it by this module's name
from .divergence import DivergenceKind, _bernoulli, _rate, solve_thresholds  # noqa: F401
from .partition import Block

__all__ = [
    "BuilderError",
    "RankConvention",
    "SeparatedApprox",
    "aca_blocks",
    "aca_build",
    "build_constructive",
    "build_product",
    "constructive_blocks",
    "numerical_rank",
    "rank_from_singular_values",
    "singular_values",
    "threshold_masks",
]


class BuilderError(RuntimeError):
    """A separated-approximation builder could not meet its contract.

    ``block`` is the failing block's position in a many-block call
    (``constructive_blocks``), or None.
    """

    def __init__(self, message: str, block: Optional[int] = None):
        super().__init__(message)
        self.block = block


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

def _checked_eps(eps) -> np.ndarray:
    """``eps`` as a float array, each level positive and finite, else ValueError."""
    eps_arr = np.asarray(eps, dtype=np.float64)
    if not np.all((eps_arr > 0.0) & (eps_arr < math.inf)):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    return eps_arr


def rank_from_singular_values(s: np.ndarray, eps,
                              convention: RankConvention = RankConvention.RELATIVE_TO_SIGMA1):
    """Count of the descending singular values ``s`` above the eps threshold (0 < eps < inf).

    An array of eps gets one count each, from one comparison."""
    eps_arr = _checked_eps(eps)
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

    The rank experiments (``hmatrix.block_spectra``) need not form a
    block whole: they form it on a box whose left-out part has Frobenius
    norm at most (u/2) ||A_box||_F and trim the box against
    (3/4) (u ||A_box||_F)^2, so the part dropped in all is again at most
    u ||A||_F.
    """
    return _support_singular_values(matrix, 1.0)


def _support_singular_values(matrix: np.ndarray, share: float) -> np.ndarray:
    """``singular_values`` with the trim's budget ``share`` (u ||A||_F)^2."""
    a = np.asarray(matrix, dtype=np.float64)
    # a NaN or an infinity reaches the largest or the smallest entry
    hi, lo = float(a.max(initial=0.0)), float(a.min(initial=0.0))
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("matrix has non-finite entries")
    scale = max(hi, -lo)
    if scale == 0.0:
        return np.zeros(0)
    scaled = a / scale
    row_sq = np.einsum("ij,ij->i", scaled, scaled)
    rows, budget = _keep_above(row_sq, share * _UNIT_ROUNDOFF ** 2 * float(row_sq.sum()))
    scaled = scaled[rows]
    cols, _ = _keep_above(np.einsum("ij,ij->j", scaled, scaled), budget)
    return np.linalg.svd(a[np.ix_(rows, cols)], compute_uv=False)


# a matrix with no more rows or columns than this goes straight to the SVD
_SKETCH_MIN_SIDE = 48
# columns of the first range sketch; doubled while the doubled width is at most a quarter
# of the short side
_SKETCH_WIDTH = 16
# the pad is this times sqrt(max(m, n)) u ||A||_F (derived in _sketched_counts)
_SKETCH_PAD = 8.0
# entries of the sketch's residual formed at a time
_RESIDUAL_PANEL = 2 ** 18


def _support_rank(matrix: np.ndarray, eps,
                  convention: RankConvention = RankConvention.RELATIVE_TO_SIGMA1,
                  share: float = 1.0) -> tuple:
    """``(counts, sketched)``: the support spectrum's counts above eps, from a sketch where it can.

    ``counts`` is exactly
    ``rank_from_singular_values(_support_singular_values(matrix, share), eps, convention)``.
    A matrix whose both sides exceed ``_SKETCH_MIN_SIDE`` first goes to
    ``_sketched_counts``, which settles the counts from a seeded range
    sketch and an exact residual or declines; ``sketched`` tells whether
    it settled them.  Otherwise the support's SVD counts them.
    """
    eps_arr = _checked_eps(eps)
    a = np.asarray(matrix, dtype=np.float64)
    if min(a.shape) > _SKETCH_MIN_SIDE and eps_arr.size:
        counts = _sketched_counts(a, eps_arr, convention is RankConvention.RELATIVE_TO_SIGMA1)
        if counts is not None:
            return (int(counts) if counts.ndim == 0 else counts), True
    return rank_from_singular_values(_support_singular_values(a, share), eps, convention), False


@functools.lru_cache(maxsize=None)
def _gaussian(rows: int, width: int) -> np.ndarray:
    """Read-only ``default_rng(0).standard_normal((rows, width))``, one array per shape.

    ``_sketch_matrix`` asks only for power-of-two row counts and widths
    16 * 2^j, so the cache holds a few arrays, the largest at most twice
    the largest sketch.
    """
    g = np.random.default_rng(0).standard_normal((rows, width))
    g.flags.writeable = False
    return g


def _sketch_matrix(n: int, width: int) -> np.ndarray:
    """``default_rng(0).standard_normal((n, width))``, sliced from a draw of 2^j >= n rows.

    The draw fills its rows in order, so its first n rows are the (n, width) draw.
    """
    return _gaussian(1 << (n - 1).bit_length(), width)[:n]


def _residual_norm(a: np.ndarray, q: np.ndarray, bt: np.ndarray) -> float:
    """``||a - q bt^T||_F``, the residual formed a panel of rows at a time."""
    rows = max(1, _RESIDUAL_PANEL // a.shape[1])
    total = 0.0
    for i in range(0, a.shape[0], rows):
        r = q[i:i + rows] @ bt.T
        np.subtract(a[i:i + rows], r, out=r)
        total += float(np.vdot(r, r))
    return math.sqrt(total)


def _sketched_counts(a: np.ndarray, eps_arr: np.ndarray, relative: bool):
    """The support SVD's counts above each eps, certified from a range sketch, or None.

    A is scaled by a power of two (exactly) to a largest magnitude in
    [1/2, 1).  Q is the orthonormal basis of A Omega, Omega the Gaussian
    n x l ``default_rng(0).standard_normal((n, l))`` (l = 16 at first, each
    doubled width a fresh draw; ``_sketch_matrix``), B = Q^T A, and the
    residual R = A - Q B is formed explicitly.  With s the singular values
    of B and rho = ||R||_F + pad, every value s^_i the support SVD returns
    lies in [s_i - pad, s_i + rho] for i <= l, and every one past l is at
    most rho: the projection Q Q^T A has no value above A's, A's values
    exceed Q B's by at most ||R||_2 (Weyl), and Q B has rank l.  A
    threshold is eps (abs) or eps s^_1 with s^_1 in [s_1 - pad, s_1 + rho]
    (rel).  A count is certain when rho is below the lowest threshold and
    no s_i lies in a threshold's band; it is then the number of s_i with
    s_i - pad above the threshold's top.  When rho alone is too large, l
    doubles while the doubled l is at most min(m, n)/4.  An s_i inside a
    band returns None at once, as do 2 pad at or above the lowest
    threshold before any sketch (for rel with sigma_1 at least
    ||A^T a_j|| / ||a_j||, a_j A's largest column, and
    ||A||_F / sqrt(min(m, n))) and a zero or non-finite A.

    The pad.  With N = max(m, n), l <= N/4 and u = 2^-53, an inner product
    of length L carries a rounding error of about sqrt(L) u times its
    operands' norms (the usual statistical estimate; the worst case is
    L u).  Between the s^_i and A's exact values lie the trim,
    ||D||_F <= u ||A||_F, and ``gesdd``'s backward error, about
    sqrt(N) u ||A||_2.  Between s_i and the values of Q^T A lie the
    rounding of B (inner products of length m: sqrt(N) u ||A||_F),
    ``gesdd`` on B (sqrt(N) u ||A||_2) and Householder Q's departure from
    orthonormality, ||Q^T Q - I||_2 about sqrt(N) u, which scales every
    value by at most that.  The computed R differs from A - Q B by about
    (1 + sqrt(l)) u ||A||_F.  So s^_i >= s_i - (1 + 4 sqrt(N)) u ||A||_F
    and s^_i <= s_i + ||R||_F + (2 + 4.5 sqrt(N)) u ||A||_F, both inside
    pad = 8 sqrt(N) u ||A||_F with room for the estimates' constants.
    The sketch's seed is fixed, so the counts never depend on a caller's
    seed, and an undecided count falls back to the SVD path, so they
    never depend on the sketch either.
    """
    m, n = a.shape
    short = min(m, n)
    pad_per_norm = _SKETCH_PAD * math.sqrt(max(m, n)) * _UNIT_ROUNDOFF
    if relative and 2.0 * pad_per_norm >= float(eps_arr.min()):
        return None   # 2 pad >= eps sigma_1 for every A of this shape: sigma_1 <= ||A||_F
    scale = max(float(a.max()), -float(a.min()))
    if not 0.0 < scale < math.inf:
        return None
    factor = math.ldexp(1.0, -math.frexp(scale)[1])
    a = a * factor
    if not relative:
        eps_arr = eps_arr * factor
    col_sq = np.einsum("ij,ij->j", a, a)
    norm = math.sqrt(float(col_sq.sum()))
    pad = pad_per_norm * norm
    unit = 1.0   # the thresholds' scale: 1 (abs) or a floor under sigma_1 (rel)
    if relative:
        # sigma_1 >= ||A^T x|| / ||x|| for any x: one power step from the largest column
        top = a[:, int(col_sq.argmax())]
        unit = max(float(np.linalg.norm(a.T @ top)) / float(np.linalg.norm(top)),
                   norm / math.sqrt(short))
    if 2.0 * pad >= float(eps_arr.min()) * unit:
        return None
    width = _SKETCH_WIDTH
    while True:
        q = np.linalg.qr(a @ _sketch_matrix(n, width))[0]
        bt = a.T @ q   # B^T: tall, which gesdd takes faster
        rho = _residual_norm(a, q, bt) + pad
        s = np.linalg.svd(bt, compute_uv=False)
        lo, hi = ((eps_arr * (s[0] - pad), eps_arr * (s[0] + rho)) if relative
                  else (eps_arr, eps_arr))
        if rho < float(lo.min()):
            break
        if 8 * width > short:
            return None
        width *= 2
    sure = s - pad > hi[..., None]
    if np.any((s + rho > lo[..., None]) & ~sure):
        return None
    return np.count_nonzero(sure, axis=-1)


def numerical_rank(matrix: np.ndarray, eps: float,
                   convention: RankConvention = RankConvention.RELATIVE_TO_SIGMA1) -> int:
    """Number of singular values above the eps threshold, on the numerical support.

    The count is that of ``singular_values``' spectrum: each value is
    within u ||A||_F (u = 2^-53) of the full SVD's, so only thresholds
    near or below that level can count differently from a full SVD.  A
    matrix with both sides above 48 is first counted from a seeded range
    sketch with an exact residual (``_sketched_counts``), which returns
    the SVD's count or leaves it to the SVD.
    """
    return _support_rank(matrix, eps, convention)[0]


# ---------------------------------------------------------------------------
# recompression
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _strictly_lower(w: int) -> np.ndarray:
    """Read-only boolean mask of a w x w matrix's strictly lower triangle, per width."""
    mask = np.tri(w, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _r_factor(f: np.ndarray) -> np.ndarray:
    """R of the reduced QR of a factor with more rows than columns, bit for bit ``qr(mode="r")``.

    ``qr(mode="raw")`` returns, transposed, the copy numpy factors in
    place; its leading rows hold R above the diagonal and the Householder
    vectors below it, which are zeroed in place: the same R as
    ``mode="r"``, without ``np.triu``'s mask and copy.
    """
    w = f.shape[1]
    r = np.linalg.qr(f, mode="raw")[0].T[:w]
    r[_strictly_lower(w)] = 0.0
    return r


def _recompress(alpha: np.ndarray, beta: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Truncate the factor pair's singular values <= threshold, without forming Q.

    With the Householder QRs ``alpha = Qa Ra``, ``beta = Qb Rb`` and the
    SVD ``Ra Rb^T = U S V^T``, the kept terms are ``Qa U_r S_r`` and
    ``Qb V_r``.  Since ``U_r S_r = Ra Rb^T V_r`` and
    ``V_r = Rb Ra^T U_r / S_r``, they equal ``alpha Rb^T V_r`` and
    ``beta Ra^T U_r / S_r``.  So only R and the SVD are computed:
    ``_r_factor`` is the reduced QR's factorization and returns the same
    R bits, and the SVD is the same call; the m x w Q, whose explicit
    formation costs about as much as the factorization, never is.  A
    factor with no more rows than columns is its own R (Q = I), so its QR
    is skipped and the formulas hold as they stand.  alpha carries the
    singular values, and an exactly zero factor row stays exactly zero.

    The discarded spectral tail is at most the threshold, so the entrywise
    reconstruction error added here is at most the threshold as well, in
    whatever the factors carry: ``constructive_blocks`` multiplies a
    family's exact prefactor in first, so that the threshold bounds the
    error of the matrix entries rather than of the unit kernel.
    """
    if alpha.shape[1] == 0:
        return alpha, beta
    ra, rb = (f if f.shape[0] <= f.shape[1] else _r_factor(f) for f in (alpha, beta))
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
    """Barycentric evaluation of all Lagrange basis polynomials at x.

    ``nodes`` is one node set for every sample, or one row of nodes per sample.
    """
    diff = x[:, None] - nodes
    exact = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        w_over = weights[None, :] / diff
        out = w_over / np.sum(w_over, axis=1)[:, None]
    if exact.any():
        hit_rows = np.any(exact, axis=1)
        # a sample falling exactly on a node gets the cardinal basis row
        out[hit_rows, :] = exact[hit_rows, :].astype(np.float64)
    return out


def _rate_to_one(n_scaled: np.ndarray, p_hat: np.ndarray) -> np.ndarray:
    """n' rate(p || 1) on the unit configuration, in the bd0 form: the p-side exponent."""
    return n_scaled * _rate(p_hat, 1.0)


def _rate_from_one(n_scaled: np.ndarray, q_hat: np.ndarray) -> np.ndarray:
    """n' rate(1 || q) = n' (q - 1 - ln q): the q-side exponent, +inf at q = 0."""
    with np.errstate(divide="ignore"):
        return n_scaled * (q_hat - 1.0 - np.log(q_hat))


def _per_block(reduce: np.ufunc, values: np.ndarray, edges: np.ndarray, empty: float) -> np.ndarray:
    """``reduce`` over each block's values ``values[edges[b]:edges[b + 1]]``; ``empty`` where
    a block has none."""
    out = np.full(edges.size - 1, empty)
    held = np.flatnonzero(edges[1:] > edges[:-1])
    if held.size:
        # the segment of a block that holds values ends where the next such block starts
        out[held] = reduce.reduceat(values, edges[held])
    return out


def _cross_factors(s: np.ndarray, t: np.ndarray, u: np.ndarray, v: np.ndarray,
                   p_in: np.ndarray, p_block: np.ndarray, q_in: np.ndarray, q_block: np.ndarray,
                   count: int, eps: float) -> list:
    """Factors of exp(-u) exp(-s t) exp(-v) for each of ``count`` blocks, zero outside the masks.

    p-point i lies in block ``p_block[i]``, q-point j in ``q_block[j]``,
    each block's points consecutive.  A block's cross factor ``exp(-s t)``
    is interpolated in s at Chebyshev nodes over its points inside the
    threshold box: s in [max(0, min s), max s] over ``p_in`` and t in
    [0, max t] over ``q_in``, with the degree ``_cross_degree`` gives the
    s-width times the t-top.  So a block's expansion depends only on its
    grid points inside the box, and no threshold is solved.  alpha holds
    the p-side, the Lagrange basis at s times ``exp(-u)``; beta the
    q-side, ``exp(-t * node - v)`` per node.  A block with no point inside
    on a side gets width-0 factors.

    The blocks are formed a degree at a time: one pass gives the Lagrange
    rows and one the q-factors of every block of that degree, each row
    against its own block's nodes, and a block's factors are views of its
    group's.  A row sums the same number of terms as it would alone, so
    every factor is bit for bit the one its block gives on its own.
    Returns one (alpha, beta) pair per block.
    """
    blocks = np.arange(count + 1)
    p_edges, q_edges = np.searchsorted(p_block, blocks), np.searchsorted(q_block, blocks)
    s_lo = np.maximum(0.0, _per_block(np.minimum, np.where(p_in, s, np.inf), p_edges, np.inf))
    s_hi = _per_block(np.maximum, np.where(p_in, s, -np.inf), p_edges, -np.inf)
    t_top = _per_block(np.maximum, np.where(q_in, t, -np.inf), q_edges, -np.inf)
    live = np.flatnonzero((s_hi > -np.inf) & (t_top > -np.inf))
    degree = np.full(count, -1)
    for b, w in zip(live.tolist(), ((s_hi - s_lo) * t_top)[live].tolist()):
        try:
            degree[b] = _cross_degree(w, eps)
        except BuilderError as exc:
            raise BuilderError(str(exc), block=b) from exc
    p_sizes, q_sizes = np.diff(p_edges), np.diff(q_edges)
    out = [None] * count
    for b in np.flatnonzero(degree < 0).tolist():
        out[b] = (np.zeros((p_sizes[b], 0)), np.zeros((q_sizes[b], 0)))
    p_degree, q_degree = degree[p_block], degree[q_block]
    for d in np.unique(degree[live]).tolist():
        group = np.flatnonzero(degree == d)
        unit_nodes, weights = _cheb_nodes_weights(d)
        nodes = s_lo[group, None] + (0.5 * (s_hi - s_lo))[group, None] * unit_nodes
        # the points of the group's blocks; those inside take their block's nodes
        p_rows, q_rows = np.flatnonzero(p_degree == d), np.flatnonzero(q_degree == d)
        p_at, q_at = p_in[p_rows], q_in[q_rows]
        p_sel, q_sel = p_rows[p_at], q_rows[q_at]
        alpha = np.zeros((p_rows.size, d + 1))
        alpha[p_at] = (_lagrange_matrix(s[p_sel], nodes[np.searchsorted(group, p_block[p_sel])],
                                        weights) * np.exp(-u[p_sel])[:, None])
        beta = np.zeros((q_rows.size, d + 1))
        beta[q_at] = np.exp(-(t[q_sel, None] * nodes[np.searchsorted(group, q_block[q_sel])])
                            - v[q_sel, None])
        p_ends, q_ends = np.cumsum(p_sizes[group]).tolist(), np.cumsum(q_sizes[group]).tolist()
        for b, p0, p1, q0, q1 in zip(group.tolist(), [0, *p_ends], p_ends, [0, *q_ends], q_ends):
            out[b] = (alpha[p0:p1], beta[q0:q1])
    return out


def _split_at_corner(kind: DivergenceKind, n: float, intervals: tuple, p_grid: np.ndarray,
                     p_block: np.ndarray, q_grid: np.ndarray, q_block: np.ndarray) -> tuple:
    """(s, t, u, v) of each grid point: the kernel split at its block's corner.

    exp(-n * divergence) = exp(-u) exp(-s t) exp(-v), with u and s on the
    p side, t and v on the q side, all non-negative on the block.  With
    sigma = +1 below the diagonal and -1 above it:

    * the rate kinds in the rate kernel's coordinates (``_rate_coordinates``:
      the dual swaps the axes, so the p side is then the q axis), rescaled
      by the corner of ``_unit_configuration`` to the unit configuration,
      ``n' = n * corner``: ``s = n' sigma (p - 1)``, ``t = -sigma ln q``,
      ``u = n' rate(p || 1)`` and ``v = n' rate(1 || q)``, by the identity
      rate(p||q) = rate(p||1) + rate(1||q) + (p - 1)(-ln q);
    * the Bernoulli KL at the block's diagonal corner c, where it splits
      like the rate divergence at 1, with logit in place of log,

          KL(p||q) = KL(p||c) + KL(c||q) + (p - c)(logit c - logit q):

      ``s = sigma n (p - c)``,
      ``t = sigma (log1p((c - q)/q) + log1p((c - q)/(1 - c)))`` and the
      one-sided terms ``u = n KL(p||c)``, ``v = n KL(c||q)`` in the bd0 form.
    """
    p_lo, p_hi, q_lo, q_hi = intervals
    if kind is DivergenceKind.BERNOULLI:
        _check_unit_square((p_lo, p_hi), (q_lo, q_hi), "Bernoulli")
        lower, corner = _unit_configuration((p_lo, p_hi), (q_lo, q_hi))
        sigma = np.where(lower, 1.0, -1.0)
        p_corner, q_corner = corner[p_block], corner[q_block]
        s = n * (sigma[p_block] * (p_grid - p_corner))
        u = n * _bernoulli(p_grid, p_corner)
        d = q_corner - q_grid
        with np.errstate(divide="ignore", invalid="ignore"):
            # both are infinite or undefined only at q = 0 and q = 1, outside the box
            v = n * _bernoulli(q_corner, q_grid)
            t = sigma[q_block] * (np.log1p(d / q_grid) + np.log1p(d / (1.0 - q_corner)))
        return s, t, u, v
    p_int, q_int, p_vals, q_vals = _rate_coordinates(kind, (p_lo, p_hi), (q_lo, q_hi),
                                                     p_grid, q_grid)
    if kind is DivergenceKind.RATE_DUAL:
        p_block, q_block = q_block, p_block
    lower, corner = _unit_configuration(p_int, q_int)
    sigma = np.where(lower, 1.0, -1.0)
    p_scaled, q_scaled = n * corner[p_block], n * corner[q_block]
    p_hat, q_hat = p_vals / corner[p_block], q_vals / corner[q_block]
    s = p_scaled * (sigma[p_block] * (p_hat - 1.0))
    with np.errstate(divide="ignore"):
        t = -sigma[q_block] * np.log(q_hat)
    return s, t, _rate_to_one(p_scaled, p_hat), _rate_from_one(q_scaled, q_hat)


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
    """BuilderError, naming the first offending block, unless both intervals (or arrays of
    them) lie in [0, 1]."""
    (plo, phi), (qlo, qhi) = p_interval, q_interval
    bad = np.flatnonzero(np.logical_not((0.0 <= plo) & (phi <= 1.0) & (0.0 <= qlo) & (qhi <= 1.0)))
    if bad.size:
        raise BuilderError(f"{what} kernels need a unit-square block", block=int(bad[0]))


def _unit_configuration(p_interval: tuple, q_interval: tuple) -> tuple:
    """(lower, corner) of blocks in rate coordinates, elementwise over arrays of intervals.

    A block lies below the diagonal (``Regime.LOWER``) when p starts past
    q, and touches it at its corner ``max(p_lo, q_lo)``.
    """
    p_lo, q_lo = p_interval[0], q_interval[0]
    return p_lo > q_lo, np.maximum(p_lo, q_lo)


def threshold_masks(kind: DivergenceKind, n: float, eps, intervals: tuple,
                    p_grid: np.ndarray, p_block: np.ndarray,
                    q_grid: np.ndarray, q_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which grid points lie inside their block's threshold box, for many blocks at once.

    ``intervals`` is ``(p_lo, p_hi, q_lo, q_hi)``, one array entry per
    block (``partition.block_intervals``); grid point i of the p axis lies
    in block ``p_block[i]``, and likewise for q.  ``eps > 0`` is one level
    for all blocks, or an array of one per block: the rank experiments
    (``hmatrix.block_spectra``) set each block's level from its own
    entries.  A point is inside when its one-sided exponent of the split
    at its block's corner (``_split_at_corner``), u on the p side and v on
    the q side, is at most ``ln(1/eps)``: for the rate kinds
    ``n' rate(p || 1)`` and ``n' rate(1 || q)`` in the block's unit
    configuration, for the Bernoulli ``n KL(p || c)`` and ``n KL(c || q)``.
    The kernel is ``exp(-u) exp(-s t) exp(-v)`` with s t, u, v >= 0, so it
    is below eps at every pair outside the box.  The constructive builder
    interpolates over the points the masks keep (``_cross_factors``).
    Returns boolean masks over ``p_grid`` and ``q_grid``;
    ``hmatrix.compress`` stores a low-rank piece on its block's threshold
    box (its block's box at rank 0), from the first through the last point
    inside on each axis.
    """
    _, _, u, v = _split_at_corner(kind, n, intervals, p_grid, p_block, q_grid, q_block)
    u_in, v_in = _below_level(kind, eps, u, v, p_block, q_block)
    return (v_in, u_in) if kind is DivergenceKind.RATE_DUAL else (u_in, v_in)


def _below_level(kind: DivergenceKind, eps, u: np.ndarray, v: np.ndarray,
                 p_block: np.ndarray, q_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The masks ``u <= ln(1/eps)`` and ``v <= ln(1/eps)``, on the axes of u and v."""
    if np.ndim(eps) == 0:
        level = math.log(1.0 / eps)
        return u <= level, v <= level
    if kind is DivergenceKind.RATE_DUAL:
        # u lies on the q axis
        p_block, q_block = q_block, p_block
    log_inv_eps = np.log(1.0 / np.asarray(eps, dtype=np.float64))
    return u <= log_inv_eps[p_block], v <= log_inv_eps[q_block]


def _constructive_factors(kind: DivergenceKind, n: float, eps: float, intervals: tuple,
                          p_grid: np.ndarray, p_block: np.ndarray,
                          q_grid: np.ndarray, q_block: np.ndarray) -> list:
    """``constructive_blocks``' raw factors: an (alpha, beta) pair per block, not recompressed."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    if not (n > 0.0):
        raise ValueError("n must be positive")
    intervals = tuple(np.asarray(x, dtype=np.float64).reshape(-1) for x in intervals)
    count = intervals[0].size
    p_grid, q_grid = (np.asarray(g, dtype=np.float64) for g in (p_grid, q_grid))
    p_block, q_block = (np.asarray(b, dtype=np.intp) for b in (p_block, q_block))
    for block in (p_block, q_block):
        if block.size and (block[0] < 0 or block[-1] >= count or np.any(block[1:] < block[:-1])):
            raise ValueError("block ids must ascend and lie in [0, blocks)")
    s, t, u, v = _split_at_corner(kind, n, intervals, p_grid, p_block, q_grid, q_block)
    u_in, v_in = _below_level(kind, eps, u, v, p_block, q_block)
    if kind is DivergenceKind.RATE_DUAL:
        # the rate kernel's p side is the q axis
        pairs = _cross_factors(s, t, u, v, u_in, q_block, v_in, p_block, count, eps)
        return [(beta, alpha) for alpha, beta in pairs]
    return _cross_factors(s, t, u, v, u_in, p_block, v_in, q_block, count, eps)


def constructive_blocks(kind: DivergenceKind, n: float, eps: float, intervals: tuple,
                        p_grid: np.ndarray, p_block: np.ndarray,
                        q_grid: np.ndarray, q_block: np.ndarray,
                        p_prefactor: Optional[np.ndarray] = None,
                        q_prefactor: Optional[np.ndarray] = None) -> list[SeparatedApprox]:
    """Constructive separated approximations of exp(-n * divergence) on many blocks at once.

    The blocks and grids are given as ``threshold_masks`` takes them:
    ``intervals`` is ``(p_lo, p_hi, q_lo, q_hi)``, one entry per block,
    and grid point i of the p axis lies in block ``p_block[i]``, likewise
    for q; the block ids ascend, so each block's points are consecutive.
    ``p_prefactor`` (``q_prefactor``), one value per p-point (q-point),
    scales the kernel's rows (columns): the expansion is then of the
    entries ``prefactor * exp(-n * divergence)``, not of the kernel.

    Supports the rate kernel, its dual (roles of the axes swapped), its
    reflection (both coordinates complemented) and the Bernoulli KL; the
    last two on unit-square blocks only.  Every kind is one interpolated
    cross factor between a p- and a q-factor: the kernel is split at each
    block's corner (``_split_at_corner``), all blocks in one pass; the
    cross factor is interpolated over each block's grid points inside its
    threshold box, where the split's u and v are at most ln(1/eps) as in
    ``threshold_masks``, all blocks of one degree in one pass
    (``_cross_factors``); and each block's factors, the prefactor
    multiplied into the factor on its axis, are recompressed by
    ``_recompress`` at eps, one call per block.  A block's expansion is
    bit for bit the one it gets alone.  Reconstruction error on the grid
    is below 10*eps: interpolation and zero-truncation each contribute at
    most ~eps times the largest prefactor (1 without one), and
    recompression at most eps, in the scaled entries.  A ``BuilderError``
    carries the failing block's position as ``block``.

    Returns one ``SeparatedApprox`` per block, in order, on its own grid points.
    """
    p_grid, q_grid = (np.asarray(g, dtype=np.float64) for g in (p_grid, q_grid))
    for grid, prefactor in ((p_grid, p_prefactor), (q_grid, q_prefactor)):
        if prefactor is not None and np.shape(prefactor) != grid.shape:
            raise ValueError("a prefactor needs one value per point of its grid")
    factors = _constructive_factors(kind, n, eps, intervals, p_grid, p_block, q_grid, q_block)
    blocks = np.arange(len(factors) + 1)
    p_edges = np.searchsorted(p_block, blocks).tolist()
    q_edges = np.searchsorted(q_block, blocks).tolist()
    out = []
    for b, (alpha, beta) in enumerate(factors):
        if p_prefactor is not None:
            alpha = alpha * p_prefactor[p_edges[b]:p_edges[b + 1], None]
        if q_prefactor is not None:
            beta = beta * q_prefactor[q_edges[b]:q_edges[b + 1], None]
        alpha, beta = _recompress(alpha, beta, eps)
        out.append(SeparatedApprox(p_grid[p_edges[b]:p_edges[b + 1]],
                                   q_grid[q_edges[b]:q_edges[b + 1]], alpha, beta))
    return out


def build_constructive(block: Block, kind: DivergenceKind, n: float, eps: float,
                       grid_size: int = 128,
                       p_grid: Optional[np.ndarray] = None,
                       q_grid: Optional[np.ndarray] = None) -> SeparatedApprox:
    """Constructive separated approximation of exp(-n * divergence) on one block.

    ``constructive_blocks`` on the one block, as ``aca_build`` is
    ``aca_blocks`` on one box.  The factors are sampled on uniform grids
    over the block unless explicit grids (e.g. a family's native
    discretization) are passed.
    """
    if p_grid is None or q_grid is None:
        if grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        p_grid = np.linspace(*block.p_interval, grid_size) if p_grid is None else p_grid
        q_grid = np.linspace(*block.q_interval, grid_size) if q_grid is None else q_grid
    p_grid = np.asarray(p_grid, dtype=np.float64)
    q_grid = np.asarray(q_grid, dtype=np.float64)
    intervals = tuple(np.array([x]) for x in (*block.p_interval, *block.q_interval))
    return constructive_blocks(kind, n, eps, intervals,
                               p_grid, np.zeros(p_grid.size, dtype=np.intp),
                               q_grid, np.zeros(q_grid.size, dtype=np.intp))[0]


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
# entries of one window of a degenerate-row walk (8 MiB): a whole 2^14 block
# opens with thousands of rows that underflow to zero
_ACA_WALK_ENTRIES = 2 ** 20
# unused rows, and as many unused columns, drawn to check a block that ACA ended
_ACA_CHECKS = 3
# a block with at most this many unused rows (columns) has them all checked: the residual
# is zero on its pivots and walked lines, so that check sees every entry of the residual
_ACA_CHECK_ALL = 12


def _sum_crosses(coef: np.ndarray, panel: np.ndarray) -> np.ndarray:
    """``sum_c coef[:, c, None] * panel[:, c]`` for each block, the crosses added in order.

    numpy sums along an axis that is not the fastest in memory one element
    at a time, in index order, so the zero crosses past a block's own count
    change no bit: a block's residuals are the same in every group.
    """
    return (coef[:, :, None] * panel).sum(axis=1)


def _uniforms(rows: np.ndarray, cols: np.ndarray, count: int) -> np.ndarray:
    """``count`` uniforms in [0, 1) per block, from the SplitMix64 stream its extents seed.

    Draw d of a block is SplitMix64's output (Steele, Lea & Flood, 2014) at
    state ``(rows << 32 | cols) + (d + 1) * golden``, its top 53 bits.
    """
    z = ((rows.astype(np.uint64) << np.uint64(32)) | cols.astype(np.uint64))[:, None]
    z = z + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0 ** -53


def _dense_factors(full: np.ndarray, eps: float, floor: float) -> tuple:
    """The SVD of a formed block, truncated to its singular values above max(eps sigma_1, floor)."""
    uu, s, vt = np.linalg.svd(full, full_matrices=False)
    rank = int(np.count_nonzero(s > max(eps * s[0], floor)))
    return uu[:, :rank] * s[:rank], vt[:rank].T


def _drawn(unused: np.ndarray, uniform: np.ndarray) -> tuple:
    """The lines ``_missed`` checks, one row of ``unused`` lines and of uniforms per block.

    A block with at most ``_ACA_CHECK_ALL`` unused lines gets them all;
    otherwise draw t is uniform over the t-th of ``_ACA_CHECKS`` equal
    shares of them, in order.  Returns the positions and a mask of those
    drawn (a block can draw fewer than the widest).
    """
    count = np.count_nonzero(unused, axis=1)[:, None]
    every = count <= _ACA_CHECK_ALL
    t = np.arange(max(_ACA_CHECKS, int(count[every].max(initial=0))))
    share = np.zeros((len(count), t.size), dtype=np.intp)
    share[:, :_ACA_CHECKS] = ((t[:_ACA_CHECKS] + uniform) * (count / _ACA_CHECKS)).astype(np.intp)
    drawn = np.where(every, t < count, t < _ACA_CHECKS)
    # (t + uniform) / s may round up to 1
    share = np.minimum(np.where(every, t, share), count - 1)
    # the share-th unused line of each row, read from the unused lines of all rows in order;
    # a line not drawn is position 0
    flat = np.append(np.flatnonzero(unused), 0)
    at = flat[np.where(drawn, np.cumsum(count[:, 0])[:, None] - count + share, -1)]
    return np.where(drawn, at - np.arange(len(count))[:, None] * unused.shape[1], 0), drawn


def _missed(entry_oracle: Callable, row_at: np.ndarray, col_at: np.ndarray, rows: np.ndarray,
            cols: np.ndarray, ended: list, eps: float, floor: float) -> np.ndarray:
    """The blocks ACA ended whose crosses miss their stop level on a checked line.

    ``row_at``/``col_at`` are every block's oracle indices and ``rows``/
    ``cols`` its extents, as ``aca_blocks`` pads them.  ``ended`` holds
    one chunk per step in which blocks ended: their numbers, squared norm
    estimates ||A_k||_F^2, used rows and columns (pivots, walked and
    padding) and cross panels; a block's stop level is
    max(eps ||A_k||_F, floor).
    On its pivots and walked lines a block's residual is rounding, so its
    unused lines hold the rest: each block checks some of its unused rows
    and of its unused columns (``_drawn``), its uniforms from the stream
    its extents seed (``_uniforms``).  All blocks' rows come in one oracle
    request as ``(m, s, 1) x (m, 1, cols)`` and their columns in another
    as ``(m, 1, rows) x (m, s, 1)``; the residuals there are one batched
    product each.  So a block's verdict, like its stop rule on the norm
    estimate, can depend on its group only through rounding at its
    level.  Returns the numbers of the blocks with a residual entry above
    their stop level.
    """
    block, norm2, used_rows, used_cols = (np.concatenate(x) for x in list(zip(*ended))[:4])
    u = np.zeros((block.size, max(c[4].shape[1] for c in ended), row_at.shape[1]))
    v = np.zeros((block.size, u.shape[1], col_at.shape[1]))
    at = 0
    for _, _, _, _, u_crosses, v_crosses in ended:
        u[at:at + len(u_crosses), :u_crosses.shape[1]] = u_crosses
        v[at:at + len(v_crosses), :v_crosses.shape[1]] = v_crosses
        at += len(u_crosses)
    rows, cols, row_at, col_at = rows[block], cols[block], row_at[block], col_at[block]
    # rows and columns drawn in one call: the unused rows over the unused columns
    unused = np.zeros((2 * block.size, max(row_at.shape[1], col_at.shape[1])), dtype=bool)
    np.logical_not(used_rows, out=unused[:block.size, :row_at.shape[1]])
    np.logical_not(used_cols, out=unused[block.size:, :col_at.shape[1]])
    uniform = _uniforms(rows, cols, 2 * _ACA_CHECKS).reshape(-1, 2, _ACA_CHECKS)
    line, drawn = _drawn(unused, uniform.swapaxes(0, 1).reshape(-1, _ACA_CHECKS))
    (i, j), (i_drawn, j_drawn) = np.split(line, 2), np.split(drawn, 2)
    got_rows = np.asarray(entry_oracle(np.take_along_axis(row_at, i, axis=1)[:, :, None],
                                       col_at[:, None, :]), dtype=np.float64)
    got_cols = np.asarray(entry_oracle(row_at[:, None, :],
                                       np.take_along_axis(col_at, j, axis=1)[:, :, None]),
                          dtype=np.float64)
    sub = np.arange(block.size)[:, None]
    worst = np.zeros(block.size)
    for got, idx, drawn, panel, other, extent in ((got_rows, i, i_drawn, u, v, cols),
                                                  (got_cols, j, j_drawn, v, u, rows)):
        res = np.abs(got - np.matmul(panel[sub, :, idx], other))
        inside = np.arange(res.shape[2]) < extent[:, None, None]
        line_max = res.max(axis=2, initial=0.0, where=inside)
        worst = np.maximum(worst, line_max.max(axis=1, initial=0.0, where=drawn))
    return block[worst > np.maximum(eps * np.sqrt(norm2), floor)]


def aca_blocks(entry_oracle: Callable, boxes, eps: float,
               first_rows=None, floor: float = 0.0) -> list[SeparatedApprox]:
    """Adaptive cross approximation with partial pivoting, on a group of blocks in lockstep.

    ``boxes`` is a ``(g, 4)`` array of ``(row_lo, row_hi, col_lo, col_hi)``,
    one box per block.  ``entry_oracle(i, j)`` takes integer indices that
    broadcast against each other and lie inside one box, and returns the
    entries at the broadcast index pairs, in the broadcast shape.  Each
    step asks it once for the pivot rows of the blocks still running, as
    the ``(g, 1) x (g, cols)`` index grid, and once for their pivot
    columns, as ``(g, rows) x (g, 1)``, where rows and cols are the
    group's largest box extents: a block's indices past its own extent
    repeat its last row or column and the entries read there are dropped,
    so no index leaves its box.  The check after the loop asks twice more
    (``_missed``), and the dense fallback asks for its block's open grid.
    ``families.block_oracle`` over a box that holds all the boxes is such
    an oracle.

    Every block follows the rule of partial-pivoting ACA (Bebendorf, 2000)
    on its own, and its factors do not depend on the group it runs in (up
    to its decisions on rounded sums, the stop rule's norm estimate and
    the check's residuals, which another group can round otherwise only
    where they fall within rounding of their level).
    Its k crosses so far are the first k rows of two zero-padded factor
    panels, U (width x rows) and V (width x cols); the width starts at 16
    and doubles when a block fills it, up to the group's largest
    min(rows, cols).  The residual of the pivot row is its oracle row
    minus ``U[:k, pivot_row] @ V[:k]``, the residual of the pivot column
    its oracle column minus ``V[:k, pivot_col] @ U[:k]``, and the squared
    Frobenius norm of the approximation grows by
    ``|u|^2 |v|^2 + 2 (U[:k] @ u) @ (V[:k] @ v)``; one batched product
    gives each of them for the whole group.  The pivot column is the
    largest residual entry in the unused columns, and the next pivot row
    the largest entry of the new cross's column in the unused rows.  A
    pivot row whose residual is at most 1e-300 in every unused column adds
    no cross, and its block moves on to its first unused row.  A block
    with no cross yet walks such rows in windows of 2, 4, 8, ... rows (of
    at most 2^20 entries in all), all such blocks in one
    ``(g, h, 1) x (g, 1, cols)`` request per window: the same walk in a
    few requests, since without a cross a row's residual is its oracle row.

    A block's first pivot row is its box's first row, or its entry of
    ``first_rows`` (box-local, below the block's row count): the rows
    before it count as walked.  A caller that knows those rows hold no
    entry above 1e-300 gets the factors it would get without them, sooner.

    A block ends, without keeping it, at the first cross past its first
    whose norm is at most its stop level, max(eps ||A_k||_F, floor) with
    ||A_k||_F the running Frobenius-norm estimate, or when no unused row
    is left.  ``floor`` = 0 is the relative rule; an absolute floor (such
    as ``compress``'s 2 eps) ends a block whose entries are far below 1
    at the entries' own contract.  Either end can come too early: the
    crosses can miss a part of the block they never visited (Börm &
    Grasedyck, 2005).  So once the loop is over, every block that ended
    with a cross is checked on some of its unused rows and columns, all
    of them where it has at most 12 (``_missed``).  A block with a
    residual entry above its stop level there goes to the dense fallback,
    as do a block that reaches min(rows, cols) crosses without ending and
    a block whose pivot row is larger on a used column than on every
    unused one (its next cross would divide rounding by the pivot).  The
    fallback forms the block densely and keeps its SVD's singular values
    above max(eps sigma_1, floor).  Ended blocks leave the group.
    Returns one ``SeparatedApprox`` per box, in order, with C-contiguous
    factors.
    """
    if not (0.0 < eps < math.inf):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if not (0.0 <= floor < math.inf):
        raise ValueError(f"floor must be non-negative and finite, got {floor!r}")
    boxes = np.asarray(boxes, dtype=np.intp).reshape(-1, 4)
    rows, cols = boxes[:, 1] - boxes[:, 0], boxes[:, 3] - boxes[:, 2]
    if np.any(rows < 1) or np.any(cols < 1):
        raise ValueError("every box needs rows and cols >= 1")
    out: list = [None] * len(boxes)
    if not out:
        return out
    n_rows, n_cols = int(rows.max()), int(cols.max())
    row_at = boxes[:, :1] + np.minimum(np.arange(n_rows), rows[:, None] - 1)
    col_at = boxes[:, 2:3] + np.minimum(np.arange(n_cols), cols[:, None] - 1)
    row_pad = np.arange(n_rows) >= rows[:, None]
    col_pad = np.arange(n_cols) >= cols[:, None]
    used_rows, used_cols = row_pad.copy(), col_pad.copy()   # padding is never a pivot
    limit = np.minimum(rows, cols)
    width = min(_ACA_PANEL_WIDTH, int(limit.max()))
    # cross c of a block is row c of its panels, zero past its count
    u_panel = np.zeros((len(boxes), width, n_rows))
    v_panel = np.zeros((len(boxes), width, n_cols))
    block = np.arange(len(boxes))
    k = np.zeros(len(boxes), dtype=np.intp)
    norm2 = np.zeros(len(boxes))
    pivot_row = np.zeros(len(boxes), dtype=np.intp)
    if first_rows is not None:
        pivot_row[:] = first_rows
        used_rows |= np.arange(n_rows) < pivot_row[:, None]
    to_dense = np.zeros(len(boxes), dtype=bool)
    tol2, floor2 = eps * eps, floor * floor
    # every block's oracle indices, kept as blocks leave the group, and what the check
    # needs of the blocks ACA ends with a cross, a step at a time (see _missed)
    grid_rows, grid_cols, box_rows, box_cols = row_at, col_at, rows, cols
    ended = []

    def dense_fallback(b: int) -> SeparatedApprox:
        # the block formed densely and truncated by SVD at max(eps sigma_1, floor)
        full = np.asarray(entry_oracle(grid_rows[b, :box_rows[b], None],
                                       grid_cols[b, None, :box_cols[b]]), dtype=np.float64)
        alpha, beta = _dense_factors(full, eps, floor)
        return SeparatedApprox(p_grid=None, q_grid=None, alpha=np.ascontiguousarray(alpha),
                               beta=np.ascontiguousarray(beta))

    while block.size:
        at = np.arange(block.size)
        top = int(k.max())
        r = np.asarray(entry_oracle(row_at[at, pivot_row][:, None], col_at), dtype=np.float64)
        if top:
            r = r - _sum_crosses(u_panel[at, :top, pivot_row], v_panel[:, :top])
        r = np.where(col_pad, 0.0, r)
        r_abs = np.abs(r)
        on_used = r_abs.max(axis=1, initial=0.0, where=used_cols)
        r_abs = np.where(used_cols, -1.0, r_abs)
        pivot_col = r_abs.argmax(axis=1)
        used_rows[at, pivot_row] = True
        pivot = r_abs[at, pivot_col]
        live = pivot > 1e-300
        # a live row whose residual is larger on a used column, where the crosses should match
        # the block, than on every unused one: its cross would divide rounding by the pivot,
        # and the block goes to the dense fallback
        done = live & (on_used > pivot)
        on = at
        if not live.all() or done.any():
            to_dense[block[done]] = True
            # degenerate rows: the residual vanishes there; try the first unused row
            idle, on = np.flatnonzero(~live & ~done), np.flatnonzero(live & ~done)
            unused = ~used_rows[idle]
            nxt = np.where(unused.any(axis=1), unused.argmax(axis=1), n_rows)
            fresh, height = np.flatnonzero(k[idle] == 0), 1
            while fresh.size:
                # with no cross yet, a row's residual is its oracle row and the rows from the
                # first unused one on are all unused: walk them in windows of doubling
                # height, one request for all such blocks per window
                height = max(1, min(2 * height, _ACA_WALK_ENTRIES // (fresh.size * n_cols)))
                b = idle[fresh]
                ahead = nxt[fresh, None] + np.arange(height)
                window = row_at[b[:, None], np.minimum(ahead, rows[b, None] - 1)]
                vals = np.abs(entry_oracle(window[:, :, None], col_at[b, None, :]))
                hit = (ahead < rows[b, None]) & np.any((vals > 1e-300) & ~col_pad[b, None], axis=2)
                found = hit.any(axis=1)
                nxt[fresh] = np.where(found, ahead[np.arange(b.size), hit.argmax(axis=1)],
                                      ahead[:, -1] + 1)
                fresh = fresh[~found & (nxt[fresh] < rows[b])]
            # the rows walked are used; every row before the first unused one already was
            used_rows[idle] |= np.arange(n_rows) < nxt[:, None]
            pivot_row[idle] = nxt
            done[idle] = nxt >= rows[idle]

        if on.size:
            us, vs = (u_panel, v_panel) if on is at else (u_panel[on], v_panel[on])
            sub = np.arange(on.size)
            j = pivot_col[on]
            v = r[on]
            v /= v[sub, j][:, None]
            u = np.asarray(entry_oracle(row_at[on], col_at[on, j][:, None]), dtype=np.float64)
            if top:
                u = u - _sum_crosses(vs[sub, :top, j], us[:, :top])
            u = np.where(row_pad if on is at else row_pad[on], 0.0, u)
            cross2 = np.einsum("ij,ij->i", u, u) * np.einsum("ij,ij->i", v, v)
            norm2_new = norm2[on] + cross2
            if top:
                norm2_new += 2.0 * np.einsum("ak,ak->a", np.einsum("akr,ar->ak", us[:, :top], u),
                                             np.einsum("akc,ac->ak", vs[:, :top], v))
            norm2_new = np.maximum(norm2_new, cross2)
            # the residual left is below the stop level: the block ends without this cross
            k_on = k[on]
            stop = (k_on > 0) & (cross2 <= np.maximum(tol2 * norm2_new, floor2))
            if stop.any():
                done[on[stop]] = True
                go = ~stop
                on, j, u, v, norm2_new, k_on = on[go], j[go], u[go], v[go], norm2_new[go], k_on[go]
            if on.size and int(k_on.max()) == width:
                extra = min(width, int(limit.max()) - width)
                u_panel = np.concatenate([u_panel, np.zeros((block.size, extra, n_rows))], axis=1)
                v_panel = np.concatenate([v_panel, np.zeros((block.size, extra, n_cols))], axis=1)
                width += extra
            norm2[on] = norm2_new
            used_cols[on, j] = True
            u_panel[on, k_on] = u
            v_panel[on, k_on] = v
            k_on += 1
            k[on] = k_on
            u_abs = np.where(used_rows[on], -1.0, np.abs(u))
            pivot_row[on] = next_row = u_abs.argmax(axis=1)
            # no unused row left: converged; min(rows, cols) crosses and no end: dense
            exhausted = u_abs[np.arange(on.size), next_row] < 0.0
            dense = on[~exhausted & (k_on == limit[on])]
            to_dense[block[dense]] = True
            done[on[exhausted]] = done[dense] = True

        if done.any():
            kept = np.flatnonzero(done & ~to_dense[block] & (k > 0))
            if kept.size:
                crosses = int(k[kept].max())
                ended.append((block[kept], norm2[kept], used_rows[kept], used_cols[kept],
                              u_panel[kept, :crosses], v_panel[kept, :crosses]))
            for a in np.flatnonzero(done).tolist():
                if to_dense[block[a]]:
                    out[block[a]] = dense_fallback(block[a])
                else:
                    out[block[a]] = SeparatedApprox(
                        p_grid=None, q_grid=None,
                        alpha=np.ascontiguousarray(u_panel[a, :k[a], :rows[a]].T),
                        beta=np.ascontiguousarray(v_panel[a, :k[a], :cols[a]].T))
            left = ~done
            block, k, norm2, pivot_row, rows, cols, limit = (
                x[left] for x in (block, k, norm2, pivot_row, rows, cols, limit))
            row_at, col_at, row_pad, col_pad, used_rows, used_cols, u_panel, v_panel = (
                x[left] for x in (row_at, col_at, row_pad, col_pad, used_rows, used_cols,
                                  u_panel, v_panel))

    if ended:
        for b in _missed(entry_oracle, grid_rows, grid_cols, box_rows, box_cols, ended,
                         eps, floor).tolist():
            out[b] = dense_fallback(b)
    return out


def aca_build(entry_oracle: Callable, rows: int, cols: int, eps: float) -> SeparatedApprox:
    """``aca_blocks`` on the one block rows [0, rows) x cols [0, cols).

    The oracle is asked for the pivot row as ``(1, 1) x (1, cols)``
    indices, for the pivot column as ``(1, rows) x (1, 1)``, and for the
    dense fallback as the open grid ``(rows, 1) x (1, cols)``.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    return aca_blocks(entry_oracle, [(0, rows, 0, cols)], eps)[0]
