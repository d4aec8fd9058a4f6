"""Hierarchical low-rank assembly of a family matrix over a staircase scheme.

``compress`` maps the matrix indices of a family into the kernel's (p, q)
coordinate space, builds the staircase partition there, and stores

* every off-diagonal block as a separated approximation (built by ACA
  against the block's exact-entry oracle ``families.block_oracle``, or by the
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

The pieces' arrays live in one ``StackedLayout``: low-rank factors are
stacked per (level, rank) and dense values per shape, zero-padded to the
widest piece of the stack, so ``matvec`` runs two batched products per
stack instead of a loop over pieces and ``reconstruct_entries`` finds a
sample's piece by a row lookup per stack.  ``LowRankPiece.alpha``/``beta``
and ``DensePiece.values`` are views into those stacks.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .divergence import DivergenceKind
from .families import FamilySpec, block_oracle, entry_exact, kernel_map, KernelMap
from .partition import Block, PartitionScheme, QuarterPlane, UnitSquare, build_scheme
from .separated import SeparatedApprox, aca_build, build_constructive, build_product, BuilderError

__all__ = [
    "Builder",
    "DensePiece",
    "HMatrix",
    "LowRankPiece",
    "StackedLayout",
    "StorageReport",
    "VerifyReport",
    "compress",
    "index_layout",
    "matvec",
    "reconstruct_entries",
    "scheme_for",
    "stack_pieces",
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


class _Stack(NamedTuple):
    """Pieces of one stack; their row ranges are pairwise disjoint."""

    left: np.ndarray             # (g, m, rank) alpha factors, or (g, m, c) dense values
    right: Optional[np.ndarray]  # (g, c, rank) beta factors; None for dense values
    row_lo: np.ndarray           # (g,) first row and column of each piece
    col_lo: np.ndarray
    col_hi: np.ndarray
    rows: slice                  # this stack's part of StackedLayout.row_index / col_index
    cols: slice


@dataclass(frozen=True)
class StackedLayout:
    """Every piece of an HMatrix in zero-padded stacks.

    Stacked row t of a stack maps to matrix row ``row_index[t]`` and
    stacked column t to matrix column ``col_index[t]``; padding maps to
    one index past the matrix (the row or column count).
    """

    stacks: tuple
    row_index: np.ndarray
    col_index: np.ndarray


def stack_pieces(shape: tuple, lowrank_heads, dense_boxes):
    """Allocate the stacks for pieces described by their table entries.

    ``lowrank_heads`` is an (NL, 6) integer array of (level, rank, row_lo,
    row_hi, col_lo, col_hi) per low-rank piece and ``dense_boxes`` an
    (ND, 4) array of (row_lo, row_hi, col_lo, col_hi) per dense piece.
    Low-rank pieces are stacked by (level, rank), dense pieces by shape; a
    piece whose rows overlap those of the previous piece of its stack
    starts a new stack.  Returns (layout, lowrank_views, dense_views): per
    piece, in input order, its (alpha, beta) views or its values view, for
    the caller to fill.  Padding is zero; the views are not.  Stacks hold
    little-endian doubles, the byte order of the HLRD1 container.
    """
    n_rows, n_cols = shape
    lowrank_heads = np.asarray(lowrank_heads, dtype=np.intp).reshape(-1, 6)
    dense_boxes = np.asarray(dense_boxes, dtype=np.intp).reshape(-1, 4)
    n_lr = len(lowrank_heads)
    dense = np.repeat([False, True], [n_lr, len(dense_boxes)])
    keys = np.concatenate([lowrank_heads[:, :2],
                           dense_boxes[:, [1, 3]] - dense_boxes[:, [0, 2]]])
    boxes = np.concatenate([lowrank_heads[:, 2:], dense_boxes])
    order = np.lexsort((boxes[:, 0], keys[:, 1], keys[:, 0], dense))
    dense, keys, boxes = dense[order], keys[order], boxes[order]
    # rows ascend within a run, so a run whose neighbours do not overlap is
    # pairwise disjoint
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = ((dense[1:] != dense[:-1]) | np.any(keys[1:] != keys[:-1], axis=1)
                  | (boxes[1:, 0] < boxes[:-1, 1]))
    starts = np.flatnonzero(starts)
    counts = np.diff(np.append(starts, len(order)))
    row_lo, col_lo, col_hi = boxes[:, 0].copy(), boxes[:, 2].copy(), boxes[:, 3].copy()
    heights = boxes[:, 1] - row_lo
    widths = col_hi - col_lo
    if len(starts):
        m, c = np.maximum.reduceat(heights, starts), np.maximum.reduceat(widths, starts)
        short_rows = np.add.reduceat(heights, starts) < m * counts
        short_cols = np.add.reduceat(widths, starts) < c * counts
    else:
        m = c = short_rows = short_cols = starts
    row_index = np.empty(int(np.dot(counts, m)), dtype=np.intp)
    col_index = np.empty(int(np.dot(counts, c)), dtype=np.intp)

    views = [None] * len(order)
    stacks = []
    row_at = col_at = 0
    for a, g, m_s, c_s, pad_rows, pad_cols, is_dense, rank in zip(
            starts.tolist(), counts.tolist(), m.tolist(), c.tolist(), short_rows.tolist(),
            short_cols.tolist(), dense[starts].tolist(), keys[starts, 1].tolist()):
        b = a + g
        rows, cols = slice(row_at, row_at + g * m_s), slice(col_at, col_at + g * c_s)
        row_at, col_at = rows.stop, cols.stop
        row_slots = row_index[rows].reshape(g, m_s)
        col_slots = col_index[cols].reshape(g, c_s)
        np.add(row_lo[a:b, None], np.arange(m_s), out=row_slots)
        np.add(col_lo[a:b, None], np.arange(c_s), out=col_slots)
        if is_dense:   # one shape per stack: no padding
            left, right = np.empty((g, m_s, c_s), dtype="<f8"), None
            views[a:b] = left
        else:
            left = np.empty((g, m_s, rank), dtype="<f8")
            right = np.empty((g, c_s, rank), dtype="<f8")
            alphas, betas = left, right
            if pad_rows:
                pad = np.arange(m_s) >= heights[a:b, None]
                left[pad] = 0.0
                row_slots[pad] = n_rows
                alphas = [left[k, :h] for k, h in enumerate(heights[a:b].tolist())]
            if pad_cols:
                pad = np.arange(c_s) >= widths[a:b, None]
                right[pad] = 0.0
                col_slots[pad] = n_cols
                betas = [right[k, :w] for k, w in enumerate(widths[a:b].tolist())]
            views[a:b] = zip(alphas, betas)
        stacks.append(_Stack(left, right, row_lo[a:b], col_lo[a:b], col_hi[a:b], rows, cols))
    in_order = [None] * len(order)
    for n, view in zip(order.tolist(), views):
        in_order[n] = view
    layout = StackedLayout(stacks=tuple(stacks), row_index=row_index, col_index=col_index)
    return layout, in_order[:n_lr], in_order[n_lr:]


def _joined(layouts: list) -> StackedLayout:
    """One layout holding the stacks of ``layouts``, in order."""
    stacks = []
    row_at = col_at = 0
    for layout in layouts:
        for s in layout.stacks:
            stacks.append(s._replace(rows=slice(s.rows.start + row_at, s.rows.stop + row_at),
                                     cols=slice(s.cols.start + col_at, s.cols.stop + col_at)))
        row_at += layout.row_index.size
        col_at += layout.col_index.size
    return StackedLayout(stacks=tuple(stacks),
                         row_index=np.concatenate([lay.row_index for lay in layouts]),
                         col_index=np.concatenate([lay.col_index for lay in layouts]))


@dataclass
class HMatrix:
    """A compressed matrix: its pieces and the stacks their arrays live in.

    Built by ``compress`` and ``container.load_hmatrix``.  Writing into a
    piece's array writes into ``layout``; rebinding it does not.
    """

    spec: FamilySpec
    scheme: PartitionScheme
    eps: float
    builder: Builder
    lowrank: list
    dense: list
    layout: StackedLayout

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


def _interior(singular: tuple[int, ...], n: int) -> tuple[int, int]:
    """Index range [lo, hi) of 0..n-1 left after peeling singular indices off both ends."""
    lo = 0
    hi = n
    while lo in singular:
        lo += 1
    while (hi - 1) in singular:
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
    int_rows = _interior(kmap.singular_rows, n_rows)
    int_cols = _interior(kmap.singular_cols, n_cols)

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
            approx = aca_build(block_oracle(spec, *rng), r1 - r0, c1 - c0, eps)
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
    lowrank, dense = [], []

    # Each level's blocks go into their stacks as soon as the level is
    # built, so the factors are never held twice over more than one level.
    layouts = []
    if eps >= 1.0:
        dense.extend(DensePiece("diagonal", blk.level, blk.index, *box, None)
                     for blk, box in block_ranges)
    else:
        block_ranges = sorted(block_ranges, key=lambda br: (br[0].level, br[0].index))
        for _, level_ranges in itertools.groupby(block_ranges, key=lambda br: br[0].level):
            level_pieces = [_compress_block(spec, kmap, builder, blk, rng, eps)
                            for blk, rng in level_ranges]
            layout, views, _ = stack_pieces(
                spec.shape,
                [(p.level, p.rank, p.row_lo, p.row_hi, p.col_lo, p.col_hi)
                 for p in level_pieces], [])
            for p, (alpha, beta) in zip(level_pieces, views):
                alpha[...] = p.alpha
                beta[...] = p.beta
                p.alpha, p.beta = alpha, beta
            layouts.append(layout)
            lowrank.extend(level_pieces)
    dense.extend(DensePiece("diagonal", cell.level, cell.index, *box, None)
                 for cell, box in cell_ranges)
    dense.extend(DensePiece(tag, None, None, *box, None) for tag, box in strips)
    dense.sort(key=lambda p: (p.tag, p.row_lo, p.col_lo))
    layout, _, views = stack_pieces(spec.shape, [],
                                    [(p.row_lo, p.row_hi, p.col_lo, p.col_hi) for p in dense])
    for p, values in zip(dense, views):
        # computed straight into the stack, on the block's open index grid
        oracle = block_oracle(spec, p.row_lo, p.row_hi, p.col_lo, p.col_hi)
        values[...] = oracle(np.arange(p.row_hi - p.row_lo)[:, None],
                             np.arange(p.col_hi - p.col_lo)[None, :])
        p.values = values
    layouts.append(layout)
    layout = _joined(layouts)
    return HMatrix(spec=spec, scheme=scheme, eps=eps, builder=builder,
                   lowrank=lowrank, dense=dense, layout=layout)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def matvec(h: HMatrix, x: np.ndarray) -> np.ndarray:
    """y = H x using the compressed representation.

    One gather of x for all stacks, two batched products per low-rank
    stack (one per dense stack), and one accumulating scatter into y.
    """
    rows, cols = h.shape
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cols,):
        raise ValueError(f"dimension mismatch: expected vector of length {cols}, got {x.shape}")
    layout = h.layout
    x_ext = np.empty(cols + 1)
    x_ext[:cols] = x
    x_ext[cols] = 0.0   # what padded columns read
    xs = x_ext[layout.col_index]
    u = np.empty(layout.row_index.size)
    for s in layout.stacks:
        g, m = s.left.shape[:2]
        xg = xs[s.cols].reshape(g, -1, 1)
        out = u[s.rows].reshape(g, m, 1)
        if s.right is None:
            np.matmul(s.left, xg, out=out)
        else:
            np.matmul(s.left, np.matmul(s.right.transpose(0, 2, 1), xg), out=out)
    # padded rows land in the extra last bin
    return np.bincount(layout.row_index, weights=u, minlength=rows + 1)[:rows]


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
    """Reconstructed entries at index pairs (vectorized over the pairs).

    Per stack, a row-to-piece table gives each sample's candidate piece;
    the sample is that piece's when its column falls inside the piece.
    Pairs outside the matrix read 0.
    """
    rows, cols = np.broadcast_arrays(np.asarray(rows, dtype=np.intp),
                                     np.asarray(cols, dtype=np.intp))
    n_rows = h.shape[0]
    ii = rows.ravel()
    jj = cols.ravel()
    # rows outside the matrix look up the padding slot, which no piece owns
    ii_safe = np.where((ii >= 0) & (ii < n_rows), ii, n_rows)
    out = np.zeros(ii.shape, dtype=np.float64)
    piece_of_row = np.empty(n_rows + 1, dtype=np.intp)
    layout = h.layout
    for s in layout.stacks:
        if s.left.size == 0:
            continue
        g, m = s.left.shape[:2]
        piece_of_row.fill(-1)
        piece_of_row[layout.row_index[s.rows]] = np.repeat(np.arange(g), m)
        piece_of_row[n_rows] = -1
        k = piece_of_row[ii_safe]
        hit = np.flatnonzero((k >= 0) & (jj >= s.col_lo[k]) & (jj < s.col_hi[k]))
        k = k[hit]
        i = ii[hit] - s.row_lo[k]
        j = jj[hit] - s.col_lo[k]
        if s.right is None:
            out[hit] = s.left[k, i, j]
        else:
            out[hit] = np.einsum("ij,ij->i", s.left[k, i], s.right[k, j])
    return out.reshape(rows.shape)


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
