"""Hierarchical low-rank assembly of a family matrix over a staircase scheme.

``compress`` maps the matrix indices of a family into the kernel's (p, q)
coordinate space, builds the staircase partition there, and stores

* every off-diagonal block as a separated approximation (built by ACA
  against the exact-entry oracle ``families.entry_exact``, or by the
  constructive divergence pipeline with the exact row/column prefactor of
  ``families.kernel_map`` folded into the factors),
* the finest-level diagonal strip exactly,
* the singular rows/columns (binomial outcomes k = 0 and k = n, the
  Poisson k = 0 row, chi-squared columns with k <= 2) exactly as dense
  strips.

Every matrix index pair is owned by exactly one block: geometric regions
are converted to index ranges half-open on the right, closed at the
domain's upper edge.  The result supports fast matvec (each low-rank
block costs rank * (rows + cols) operations), storage accounting and
randomized verification against the exact entries.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .divergence import DivergenceKind
from .families import FamilySpec, entry_exact, kernel_map, KernelMap
from .partition import Block, PartitionScheme, QuarterPlane, UnitSquare, build_scheme
from .separated import SeparatedApprox, aca_build, build_constructive, build_product, BuilderError

__all__ = [
    "Builder",
    "DensePiece",
    "HMatrix",
    "LowRankPiece",
    "StorageReport",
    "VerifyReport",
    "compress",
    "index_layout",
    "matvec",
    "reconstruct_entries",
    "scheme_for",
    "storage_report",
    "verify",
]

DEFAULT_LEAF = 32


class Builder(enum.Enum):
    CONSTRUCTIVE = "constructive"
    ACA = "aca"


@dataclass
class LowRankPiece:
    level: int
    index: int
    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int
    alpha: np.ndarray  # (row_hi - row_lo, rank)
    beta: np.ndarray   # (col_hi - col_lo, rank)

    @property
    def rank(self) -> int:
        return self.alpha.shape[1]

    @property
    def stored(self) -> int:
        return self.rank * ((self.row_hi - self.row_lo) + (self.col_hi - self.col_lo))


@dataclass
class DensePiece:
    tag: str  # "diagonal", "rows" or "cols"
    level: Optional[int]
    index: Optional[int]
    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int
    values: np.ndarray

    @property
    def stored(self) -> int:
        return (self.row_hi - self.row_lo) * (self.col_hi - self.col_lo)


@dataclass
class StorageReport:
    stored_entries: int
    dense_equivalent: int
    ratio: float
    per_level_ranks: dict


@dataclass
class VerifyReport:
    samples: int
    max_abs_error: float
    rms_error: float


@dataclass
class HMatrix:
    spec: FamilySpec
    scheme: PartitionScheme
    eps: float
    builder: Builder
    lowrank: list = field(default_factory=list)
    dense: list = field(default_factory=list)

    @property
    def shape(self) -> tuple[int, int]:
        return self.spec.shape

    @property
    def stored_entries(self) -> int:
        return (sum(p.stored for p in self.lowrank)
                + sum(p.stored for p in self.dense))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return matvec(self, x)

    def to_dense(self) -> np.ndarray:
        """Reconstruct the full matrix (testing / small sizes only)."""
        rows, cols = self.shape
        out = np.zeros((rows, cols))
        for p in self.lowrank:
            out[p.row_lo:p.row_hi, p.col_lo:p.col_hi] += p.alpha @ p.beta.T
        for p in self.dense:
            out[p.row_lo:p.row_hi, p.col_lo:p.col_hi] = p.values
        return out


# ---------------------------------------------------------------------------
# index layout: map scheme geometry to matrix index ranges
# ---------------------------------------------------------------------------

def _interval_to_range(coords: np.ndarray, lo: float, hi: float, extent: float) -> tuple[int, int]:
    """Indices with coordinate in [lo, hi), closed at the domain's top edge."""
    i0 = int(np.searchsorted(coords, lo, side="left"))
    side = "right" if hi >= extent else "left"
    i1 = int(np.searchsorted(coords, hi, side=side))
    return i0, i1


def _interior_clip(rng: tuple[int, int], interior: tuple[int, int]) -> tuple[int, int]:
    lo = max(rng[0], interior[0])
    hi = min(rng[1], interior[1])
    return (lo, hi) if hi > lo else (lo, lo)


def _interior_rows(kmap: KernelMap, n_rows: int) -> tuple[int, int]:
    lo = 0
    hi = n_rows
    while lo in kmap.singular_rows:
        lo += 1
    while (hi - 1) in kmap.singular_rows:
        hi -= 1
    return lo, hi


def _interior_cols(kmap: KernelMap, n_cols: int) -> tuple[int, int]:
    lo = 0
    hi = n_cols
    while lo in kmap.singular_cols:
        lo += 1
    while (hi - 1) in kmap.singular_cols:
        hi -= 1
    return lo, hi


def scheme_for(spec: FamilySpec, leaf_size: int = DEFAULT_LEAF) -> PartitionScheme:
    """Staircase partition matched to a family's coordinate extents.

    The finest level is chosen so a diagonal cell holds on the order of
    ``leaf_size`` indices per side; the quarter-plane extent is the
    smallest power of two covering both coordinate ranges.
    """
    kmap = kernel_map(spec)
    if kmap.kind is DivergenceKind.BERNOULLI:
        rows = spec.shape[0]
        l_max = max(1, int(round(math.log2(max(2.0, rows / leaf_size)))))
        return build_scheme(UnitSquare(l_max=l_max))
    p_max = float(np.max(kmap.p_of_row))
    q_max = float(np.max(kmap.q_of_col))
    a = max(0, int(math.ceil(math.log2(max(p_max, q_max)))))
    extent = 2.0 ** a
    spacing = min(float(np.min(np.diff(kmap.p_of_row))), float(np.min(np.diff(kmap.q_of_col))))
    l_max = int(round(-math.log2(max(leaf_size * spacing, spacing))))
    l_max = max(l_max, -a + 1)
    return build_scheme(QuarterPlane(extent=extent, l_max=l_max))


def index_layout(spec: FamilySpec, scheme: Optional[PartitionScheme] = None,
                 leaf_size: int = DEFAULT_LEAF):
    """Index ranges for every region of the scheme over a family's grids.

    Returns (scheme, kmap, block_ranges, cell_ranges, strips) where
    block_ranges / cell_ranges pair each nonempty region with its
    (row_lo, row_hi, col_lo, col_hi) and strips is the list of dense
    singular-strip boxes.
    """
    kmap = kernel_map(spec)
    if scheme is None:
        scheme = scheme_for(spec, leaf_size)
    n_rows, n_cols = spec.shape
    extent = scheme.extent
    int_rows = _interior_rows(kmap, n_rows)
    int_cols = _interior_cols(kmap, n_cols)

    block_ranges = []
    for blk in scheme.blocks:
        (plo, phi), (qlo, qhi) = blk.p_interval, blk.q_interval
        r = _interior_clip(_interval_to_range(kmap.p_of_row, plo, phi, extent), int_rows)
        c = _interior_clip(_interval_to_range(kmap.q_of_col, qlo, qhi, extent), int_cols)
        if r[1] > r[0] and c[1] > c[0]:
            block_ranges.append((blk, (r[0], r[1], c[0], c[1])))

    cell_ranges = []
    for cell in scheme.dense_cells:
        lo, hi = cell.interval
        r = _interior_clip(_interval_to_range(kmap.p_of_row, lo, hi, extent), int_rows)
        c = _interior_clip(_interval_to_range(kmap.q_of_col, lo, hi, extent), int_cols)
        if r[1] > r[0] and c[1] > c[0]:
            cell_ranges.append((cell, (r[0], r[1], c[0], c[1])))

    strips = []
    if int_rows[0] > 0:
        strips.append(("rows", (0, int_rows[0], 0, n_cols)))
    if int_rows[1] < n_rows:
        strips.append(("rows", (int_rows[1], n_rows, 0, n_cols)))
    if int_cols[0] > 0:
        strips.append(("cols", (int_rows[0], int_rows[1], 0, int_cols[0])))
    if int_cols[1] < n_cols:
        strips.append(("cols", (int_rows[0], int_rows[1], int_cols[1], n_cols)))
    return scheme, kmap, block_ranges, cell_ranges, strips


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def _constructive_block(spec: FamilySpec, kmap: KernelMap, blk: Block,
                        rng: tuple[int, int, int, int], eps: float) -> SeparatedApprox:
    r0, r1, c0, c1 = rng
    p_vals = kmap.p_of_row[r0:r1]
    q_vals = kmap.q_of_col[c0:c1]
    if kmap.kind is DivergenceKind.BERNOULLI:
        part_a = build_constructive(blk, DivergenceKind.RATE, kmap.n_eff, eps,
                                    p_grid=p_vals, q_grid=q_vals)
        part_b = build_constructive(blk, DivergenceKind.RATE_REFLECTED, kmap.n_eff, eps,
                                    p_grid=p_vals, q_grid=q_vals)
        approx = build_product(part_a, part_b, eps)
    else:
        approx = build_constructive(blk, kmap.kind, kmap.n_eff, eps,
                                    p_grid=p_vals, q_grid=q_vals)
    # fold the exact prefactor into the matching factor
    if kmap.prefactor_axis == "row":
        scale = np.exp(kmap.exact_log_prefactor[r0:r1])
        approx.alpha = approx.alpha * scale[:, None]
    else:
        scale = np.exp(kmap.exact_log_prefactor[c0:c1])
        approx.beta = approx.beta * scale[:, None]
    return approx


def _compress_block(spec: FamilySpec, kmap: KernelMap, builder: Builder,
                    blk: Block, rng: tuple[int, int, int, int], eps: float) -> LowRankPiece:
    r0, r1, c0, c1 = rng
    try:
        if builder is Builder.ACA:
            def oracle(i, j, _r0=r0, _c0=c0):
                return entry_exact(spec, np.asarray(i) + _r0, np.asarray(j) + _c0)

            approx = aca_build(oracle, r1 - r0, c1 - c0, eps)
        else:
            approx = _constructive_block(spec, kmap, blk, rng, eps)
    except BuilderError as exc:
        raise BuilderError(
            f"builder failed on block level={blk.level} index={blk.index} "
            f"rows [{r0},{r1}) cols [{c0},{c1}): {exc}") from exc
    return LowRankPiece(level=blk.level, index=blk.index, row_lo=r0, row_hi=r1,
                        col_lo=c0, col_hi=c1, alpha=approx.alpha, beta=approx.beta)


def compress(spec: FamilySpec, eps: float, builder: Builder = Builder.ACA,
             leaf_size: int = DEFAULT_LEAF, scheme: Optional[PartitionScheme] = None) -> HMatrix:
    """Compress a family matrix into hierarchical low-rank form.

    Off-diagonal blocks are approximated to accuracy eps against the
    exact entries; the diagonal strip and singular rows/columns are
    stored exactly.  With eps >= 1 everything is stored dense (the exact
    matrix, zero reconstruction error).
    """
    n_rows, n_cols = spec.shape
    if min(n_rows, n_cols) < 4:
        raise ValueError("family matrix must be at least 4x4")
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    scheme, kmap, block_ranges, cell_ranges, strips = index_layout(spec, scheme, leaf_size)
    h = HMatrix(spec=spec, scheme=scheme, eps=eps, builder=builder)

    rows_all = np.arange(n_rows, dtype=np.intp)
    cols_all = np.arange(n_cols, dtype=np.intp)

    def dense_box(r0, r1, c0, c1):
        return entry_exact(spec, rows_all[r0:r1, None], cols_all[None, c0:c1])

    if eps >= 1.0:
        for blk, (r0, r1, c0, c1) in block_ranges:
            h.dense.append(DensePiece("diagonal", blk.level, blk.index, r0, r1, c0, c1,
                                      dense_box(r0, r1, c0, c1)))
    else:
        h.lowrank.extend(_compress_block(spec, kmap, builder, blk, rng, eps)
                         for blk, rng in block_ranges)

    for cell, (r0, r1, c0, c1) in cell_ranges:
        h.dense.append(DensePiece("diagonal", cell.level, cell.index, r0, r1, c0, c1,
                                  dense_box(r0, r1, c0, c1)))
    for tag, (r0, r1, c0, c1) in strips:
        h.dense.append(DensePiece(tag, None, None, r0, r1, c0, c1,
                                  dense_box(r0, r1, c0, c1)))

    h.lowrank.sort(key=lambda p: (p.level, p.index))
    h.dense.sort(key=lambda p: (p.tag, p.row_lo, p.col_lo))
    return h


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def matvec(h: HMatrix, x: np.ndarray) -> np.ndarray:
    """y = H x using the compressed representation."""
    rows, cols = h.shape
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cols,):
        raise ValueError(f"dimension mismatch: expected vector of length {cols}, got {x.shape}")
    y = np.zeros(rows)
    for p in h.lowrank:
        if p.rank:
            y[p.row_lo:p.row_hi] += p.alpha @ (p.beta.T @ x[p.col_lo:p.col_hi])
    for p in h.dense:
        y[p.row_lo:p.row_hi] += p.values @ x[p.col_lo:p.col_hi]
    return y


def storage_report(h: HMatrix) -> StorageReport:
    rows, cols = h.shape
    dense_equiv = rows * cols
    per_level: dict = {}
    for p in h.lowrank:
        per_level[p.level] = max(per_level.get(p.level, 0), p.rank)
    stored = h.stored_entries
    return StorageReport(stored_entries=stored, dense_equivalent=dense_equiv,
                         ratio=stored / dense_equiv, per_level_ranks=dict(sorted(per_level.items())))


def reconstruct_entries(h: HMatrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Reconstructed entries at index pairs (vectorized over the pairs)."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    out = np.zeros(rows.shape, dtype=np.float64)
    for p in h.lowrank:
        mask = ((rows >= p.row_lo) & (rows < p.row_hi)
                & (cols >= p.col_lo) & (cols < p.col_hi))
        if np.any(mask) and p.rank:
            i = rows[mask] - p.row_lo
            j = cols[mask] - p.col_lo
            out[mask] = np.einsum("ij,ij->i", p.alpha[i, :], p.beta[j, :])
    for p in h.dense:
        mask = ((rows >= p.row_lo) & (rows < p.row_hi)
                & (cols >= p.col_lo) & (cols < p.col_hi))
        if np.any(mask):
            out[mask] = p.values[rows[mask] - p.row_lo, cols[mask] - p.col_lo]
    return out


def verify(h: HMatrix, samples: int, seed: int = 0) -> VerifyReport:
    """Compare reconstruction against exact entries at random index pairs."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rows, cols = h.shape
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, rows, size=samples)
    jj = rng.integers(0, cols, size=samples)
    approx = reconstruct_entries(h, ii, jj)
    exact = entry_exact(h.spec, ii, jj)
    err = np.abs(approx - exact)
    return VerifyReport(samples=samples, max_abs_error=float(np.max(err)),
                        rms_error=float(np.sqrt(np.mean(err ** 2))))
