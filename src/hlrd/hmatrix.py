"""Hierarchical low-rank assembly of a family matrix over a staircase scheme.

``compress`` maps the matrix indices of a family into the kernel's (p, q)
coordinate space, builds the staircase partition there, and stores

* every off-diagonal block as a separated approximation that is zero
  outside the block's threshold box, built a level at a time: by ACA
  against the exact-entry oracle ``families.block_oracle``, all the
  blocks of a level in one lockstep ``separated.aca_blocks`` call, or by
  the constructive divergence pipeline, all the blocks of a level in one
  ``separated.constructive_blocks`` call, with the exact row/column
  prefactor of ``families.kernel_map`` folded into each block's factors
  before they are truncated at eps, so that eps bounds the entries,
* the finest-level diagonal strip exactly,
* the singular rows/columns (binomial outcomes k = 0 and k = n, the
  Poisson k = 0 row, chi-squared columns with k <= 2) exactly as dense
  strips.

The scheme's blocks, diagonal cells and strips tile the matrix: geometric
regions are converted to index ranges half-open on the right, closed at
the domain's upper edge, all in one pass over the finest grid's edges
(``index_layout``).  A dense piece stores its whole region.

Both builders share one support rule, ``separated.threshold_masks``: a
block's threshold box holds the rows and columns whose one-sided
exponent, of the kernel split at the block's corner, is at most
ln(1/eps), and outside it the kernel ``exp(-n_eff * divergence)`` is
below eps.
``_threshold_boxes`` finds the boxes of all blocks in one pass, and
either builder runs on the box alone; a block whose box is empty
stores rank 0 and builds nothing.  The rank experiments take each
block's singular values on a box too (``block_spectra``), at a level set
by the block's own entries so that the SVD cannot see what is left out,
and count them there (``block_ranks``): from a seeded range sketch with
an exact residual where that settles every count at the requested eps
(``separated._support_rank``), else from the support's SVD, with the
same counts either way.  The entries left out are the kernel
times the exact prefactor, so the absolute error the box adds is below
eps times the largest prefactor on the ridge: eps/2 for the binomial
(the k = 1 row, ``(1 - 1/n)^(n-1)``, at most 1/2 and near 1/e for large
n), eps/e for the Poisson (k = 1) and 0.242 eps for the chi-squared
(k = 3).  A low-rank piece's box is its block's threshold box (its
block's box at rank 0), so each index pair is owned by at most one
piece, and a pair no piece owns reads 0.  The result supports fast
matvec (each low-rank piece costs rank * (rows + cols) operations),
storage accounting and verification against the exact entries, sampled
region by region.

A compressed matrix is two record tables and the stacks their arrays
live in.  ``HMatrix.lowrank`` and ``HMatrix.dense`` hold one record per
piece (level, index, rank and box; tag, level, index and box) in the
byte layout and order of the HLRD1 container's tables.  The arrays live
in one ``StackedLayout``: low-rank factors are stacked per (level, rank)
and dense values per shape, zero-padded to the widest piece of the
stack, and each stack names the table position of each of its slots.
``compress`` and ``container.load_hmatrix`` assemble it alike: one
``stack_pieces`` call over both tables, then the slots that
``payload_arrays`` hands out filled in payload order.  ``matvec`` runs
two batched products per stack instead of a loop over pieces,
``reconstruct_entries`` finds a sample's piece by a row and a column
lookup per stack, and the container writes and reads the tables whole
and the payloads slot by slot.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .divergence import DivergenceKind
from .families import FamilySpec, KernelMap, block_oracle, entry_exact, kernel_map
from .partition import PartitionScheme, QuarterPlane, UnitSquare, block_intervals, build_scheme
# aca_build, build_constructive and build_product are unused here; perfbench/tracing.py
# wraps them by this module's names
from .separated import (BuilderError, RankConvention, aca_blocks, aca_build,  # noqa: F401
                        build_constructive, build_product, constructive_blocks, threshold_masks)
from .separated import _UNIT_ROUNDOFF, _support_rank, _support_singular_values

__all__ = [
    "Builder",
    "DENSE_RECORD",
    "DENSE_TAGS",
    "HMatrix",
    "LOWRANK_RECORD",
    "StackedLayout",
    "StorageReport",
    "VerifyReport",
    "aca_by_level",
    "block_ranks",
    "block_spectra",
    "compress",
    "constructive_by_level",
    "first_live_rows",
    "index_layout",
    "matvec",
    "payload_arrays",
    "reconstruct_entries",
    "scheme_for",
    "stack_pieces",
    "storage_report",
    "table_boxes",
    "table_entries",
    "verify",
]

DEFAULT_LEAF = 32


class Builder(enum.Enum):
    CONSTRUCTIVE = "constructive"
    ACA = "aca"


# One record per piece, in the byte layout of the HLRD1 container's tables.
LOWRANK_RECORD = np.dtype([("level", "<i4"), ("index", "<u4"), ("rank", "<u4"),
                           ("row_lo", "<u4"), ("row_hi", "<u4"),
                           ("col_lo", "<u4"), ("col_hi", "<u4")])
DENSE_RECORD = np.dtype([("tag", "u1"), ("level", "<i4"), ("index", "<u4"),
                         ("row_lo", "<u4"), ("row_hi", "<u4"),
                         ("col_lo", "<u4"), ("col_hi", "<u4")])
# a dense record's tag is its position here; level and index are 0 unless
# the piece is a diagonal one
DENSE_TAGS = ("diagonal", "rows", "cols")


def table_boxes(table: np.ndarray) -> np.ndarray:
    """(N, 4) array of each record's (row_lo, row_hi, col_lo, col_hi)."""
    return np.stack([table[f] for f in ("row_lo", "row_hi", "col_lo", "col_hi")],
                    axis=-1).astype(np.intp)


def table_entries(lowrank: np.ndarray, dense: np.ndarray) -> int:
    """Floats the pieces of two tables store: rank * (rows + cols) per low-rank piece and
    rows * cols per dense piece, summed in Python integers, which a corrupt table's rank
    times its extent cannot overflow."""
    lr, dn = table_boxes(lowrank), table_boxes(dense)
    extents = (lr[:, 1] - lr[:, 0] + lr[:, 3] - lr[:, 2]).tolist()
    heights, widths = (dn[:, 1] - dn[:, 0]).tolist(), (dn[:, 3] - dn[:, 2]).tolist()
    return (sum(map(operator.mul, lowrank["rank"].tolist(), extents))
            + sum(map(operator.mul, heights, widths)))


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
    """Slots of one stack; the row ranges of its pieces are pairwise disjoint, and so are
    the column ranges."""

    left: np.ndarray             # (g, m, rank) alpha factors, or (g, m, c) dense values
    right: Optional[np.ndarray]  # (g, c, rank) beta factors; None for dense values
    piece: np.ndarray            # (g,) each slot's position in HMatrix.lowrank, or .dense
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


def stack_pieces(shape: tuple, lowrank: np.ndarray, dense: np.ndarray) -> StackedLayout:
    """Allocate the stacks for the pieces of a low-rank and a dense table.

    Low-rank pieces are stacked by (level, rank), dense pieces by shape,
    so that the pieces of a stack have disjoint rows and disjoint columns:
    a piece whose rows overlap those of the previous piece of its stack
    starts a new stack, and a run whose columns overlap is split into one
    stack per piece.  ``payload_arrays`` hands out the slots for the
    caller to fill.  Padding is zero; the slots are not.  Stacks hold
    little-endian doubles, the byte order of the HLRD1 container.
    """
    n_rows, n_cols = shape
    n_lr = len(lowrank)
    dense_boxes = table_boxes(dense)
    is_dense = np.repeat([False, True], [n_lr, len(dense)])
    lowrank_keys = np.stack([lowrank["level"], lowrank["rank"]], axis=-1).astype(np.intp)
    keys = np.concatenate([lowrank_keys, dense_boxes[:, [1, 3]] - dense_boxes[:, [0, 2]]])
    boxes = np.concatenate([table_boxes(lowrank), dense_boxes])
    order = np.lexsort((boxes[:, 0], keys[:, 1], keys[:, 0], is_dense))
    piece = np.concatenate([np.arange(n_lr), np.arange(len(dense))])[order]
    is_dense, keys, boxes = is_dense[order], keys[order], boxes[order]
    # rows ascend within a run, so a run whose neighbours do not overlap is
    # pairwise disjoint
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = ((is_dense[1:] != is_dense[:-1]) | np.any(keys[1:] != keys[:-1], axis=1)
                  | (boxes[1:, 0] < boxes[:-1, 1]))
    # columns need not ascend with rows: sorted by first column, a run whose
    # neighbours overlap (the binomial's two singular rows) is split into
    # one stack per piece
    run = np.cumsum(starts) - 1
    by_col = np.lexsort((boxes[:, 2], run))
    clash = (run[by_col[1:]] == run[by_col[:-1]]) & (boxes[by_col[1:], 2] < boxes[by_col[:-1], 3])
    starts |= np.isin(run, run[by_col[1:]][clash])
    starts = np.flatnonzero(starts)
    counts = np.diff(np.append(starts, len(order)))
    row_lo, col_lo = boxes[:, 0], boxes[:, 2]
    heights = boxes[:, 1] - row_lo
    widths = boxes[:, 3] - col_lo
    if len(starts):
        m, c = np.maximum.reduceat(heights, starts), np.maximum.reduceat(widths, starts)
        short_rows = np.add.reduceat(heights, starts) < m * counts
        short_cols = np.add.reduceat(widths, starts) < c * counts
    else:
        m = c = short_rows = short_cols = starts
    row_index = np.empty(int(np.dot(counts, m)), dtype=np.intp)
    col_index = np.empty(int(np.dot(counts, c)), dtype=np.intp)

    stacks = []
    row_at = col_at = 0
    for a, g, m_s, c_s, pad_rows, pad_cols, dense_stack, rank in zip(
            starts.tolist(), counts.tolist(), m.tolist(), c.tolist(), short_rows.tolist(),
            short_cols.tolist(), is_dense[starts].tolist(), keys[starts, 1].tolist()):
        b = a + g
        rows, cols = slice(row_at, row_at + g * m_s), slice(col_at, col_at + g * c_s)
        row_at, col_at = rows.stop, cols.stop
        row_slots = row_index[rows].reshape(g, m_s)
        col_slots = col_index[cols].reshape(g, c_s)
        np.add(row_lo[a:b, None], np.arange(m_s), out=row_slots)
        np.add(col_lo[a:b, None], np.arange(c_s), out=col_slots)
        if dense_stack:   # one shape per stack: no padding
            left, right = np.empty((g, m_s, c_s), dtype="<f8"), None
        else:
            # a padded stack is allocated zeroed, which costs less than zeroing its padding
            left = (np.zeros if pad_rows else np.empty)((g, m_s, rank), dtype="<f8")
            right = (np.zeros if pad_cols else np.empty)((g, c_s, rank), dtype="<f8")
            if pad_rows:
                row_slots[np.arange(m_s) >= heights[a:b, None]] = n_rows
            if pad_cols:
                col_slots[np.arange(c_s) >= widths[a:b, None]] = n_cols
        stacks.append(_Stack(left, right, piece[a:b], rows, cols))
    return StackedLayout(stacks=tuple(stacks), row_index=row_index, col_index=col_index)


def payload_arrays(layout: StackedLayout, lowrank: np.ndarray, dense: np.ndarray) -> list:
    """The pieces' arrays in their stack slots, in the container's payload order.

    Alpha and beta of each low-rank piece in table order, then the values
    of each dense piece.  Each is a C-contiguous view: the leading rows of
    its slot.
    """
    n_lr = len(lowrank)
    boxes = table_boxes(lowrank)
    heights, widths = (boxes[:, 1] - boxes[:, 0]).tolist(), (boxes[:, 3] - boxes[:, 2]).tolist()
    out = [None] * (2 * n_lr + len(dense))
    for s in layout.stacks:
        for k, n in enumerate(s.piece.tolist()):
            if s.right is None:
                out[2 * n_lr + n] = s.left[k]
            else:
                out[2 * n] = s.left[k, :heights[n]]
                out[2 * n + 1] = s.right[k, :widths[n]]
    return out


@dataclass
class HMatrix:
    """A compressed matrix: its two piece tables and the stacks that hold their arrays.

    ``lowrank`` and ``dense`` are arrays of ``LOWRANK_RECORD`` and
    ``DENSE_RECORD``, one record per piece in container order; the slots
    of ``layout`` name their pieces by table position.  Built by
    ``compress`` and ``container.load_hmatrix``.
    """

    spec: FamilySpec
    scheme: PartitionScheme
    eps: float
    builder: Builder
    lowrank: np.ndarray
    dense: np.ndarray
    layout: StackedLayout

    @property
    def shape(self) -> tuple[int, int]:
        return self.spec.shape

    @property
    def stored_entries(self) -> int:
        return table_entries(self.lowrank, self.dense)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return matvec(self, x)

    def to_dense(self) -> np.ndarray:
        """Reconstruct the full matrix (testing / small sizes only)."""
        rows, cols = self.shape
        return reconstruct_entries(self, np.arange(rows)[:, None], np.arange(cols)[None, :])


# ---------------------------------------------------------------------------
# index layout: map scheme geometry to matrix index ranges
# ---------------------------------------------------------------------------

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
    smallest power of two covering both coordinate ranges.  Both come from
    the family's parameters (``coordinate_bounds``), so no grid is formed.
    ``leaf_size`` below 1 raises ValueError.
    """
    if not leaf_size >= 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size!r}")
    if spec.kind is DivergenceKind.BERNOULLI:
        rows = spec.shape[0]
        l_max = max(1, int(round(math.log2(max(2.0, rows / leaf_size)))))
        return build_scheme(UnitSquare(l_max=l_max))
    p_max, q_max, spacing = spec.coordinate_bounds()
    a = max(0, int(math.ceil(math.log2(max(p_max, q_max)))))
    extent = 2.0 ** a
    l_max = int(round(-math.log2(max(leaf_size * spacing, spacing))))
    l_max = max(l_max, -a + 1)
    return build_scheme(QuarterPlane(extent=extent, l_max=l_max))


def _region_arrays(spec: FamilySpec, scheme: Optional[PartitionScheme] = None,
                   leaf_size: int = DEFAULT_LEAF):
    """``index_layout``'s regions as arrays.

    Blocks and cells are each a ``(level, index, box)`` triple over the
    nonempty regions, the boxes an array of shape (regions, 4); the
    scheme, the kernel map and the strips are ``index_layout``'s.
    """
    kmap = kernel_map(spec)
    if scheme is None:
        scheme = scheme_for(spec, leaf_size)
    n_rows, n_cols = spec.shape
    int_rows = _interior(kmap.singular_rows, n_rows)
    int_cols = _interior(kmap.singular_cols, n_cols)
    finest = 2.0 ** scheme.l_max
    edges = np.arange(scheme.cells(scheme.l_max) + 1) / finest

    def edge_bounds(coords, interior):
        at = np.searchsorted(coords, edges, side="left")
        at[-1] = np.searchsorted(coords, scheme.extent, side="right")
        return np.clip(at, *interior)

    row_at = edge_bounds(kmap.p_of_row, int_rows)
    col_at = edge_bounds(kmap.q_of_col, int_cols)

    def ranges(level, index, r0, r1, c0, c1) -> tuple:
        """Nonempty regions with edges at finest-grid positions r0, r1 (p) and c0, c1 (q)."""
        box = np.stack([row_at[r0], row_at[r1], col_at[c0], col_at[c1]], axis=-1)
        keep = (box[:, 1] > box[:, 0]) & (box[:, 3] > box[:, 2])
        return level[keep], index[keep], box[keep]

    counts = [scheme.cells(level) for level in scheme.levels]
    level = np.repeat(scheme.levels, counts)
    index = np.arange(level.size) - np.repeat(np.cumsum(counts) - counts, counts)
    # dyadic edges times 2**l_max are exact integers
    at = (np.stack(block_intervals(level, index)) * finest).astype(np.intp)
    blocks = ranges(level, index, *at)
    cell = np.arange(scheme.cells(scheme.l_max))
    cells = ranges(np.full_like(cell, scheme.l_max), cell, cell, cell + 1, cell, cell + 1)

    strips = []
    if int_rows[0] > 0:
        strips.append(("rows", (0, int_rows[0], 0, n_cols)))
    if int_rows[1] < n_rows:
        strips.append(("rows", (int_rows[1], n_rows, 0, n_cols)))
    if int_cols[0] > 0:
        strips.append(("cols", (int_rows[0], int_rows[1], 0, int_cols[0])))
    if int_cols[1] < n_cols:
        strips.append(("cols", (int_rows[0], int_rows[1], int_cols[1], n_cols)))
    return scheme, kmap, blocks, cells, strips


def index_layout(spec: FamilySpec, scheme: Optional[PartitionScheme] = None,
                 leaf_size: int = DEFAULT_LEAF):
    """Index ranges for every region of the scheme over a family's grids.

    Returns (scheme, kmap, block_ranges, cell_ranges, strips).
    block_ranges and cell_ranges pair each nonempty block or dense cell,
    named by its ``(level, index)``, with its ``(row_lo, row_hi, col_lo,
    col_hi)``: the interior rows whose ``p_of_row`` lies in the region's
    p-interval and the interior columns whose ``q_of_col`` lies in its
    q-interval, half-open on the right and closed at the extent.  Blocks
    come by level, coarsest first, then by index; cells by index.  strips
    pairs ``"rows"`` or ``"cols"`` with the box of each dense singular
    strip.

    Every region's edges are edges of the finest grid, so one
    ``searchsorted`` per axis over those edges gives every box: a block at
    level l reads them at multiples of ``2**(l_max - l)``.
    """
    scheme, kmap, blocks, cells, strips = _region_arrays(spec, scheme, leaf_size)

    def pairs(level, index, box) -> list:
        return list(zip(zip(level.tolist(), index.tolist()), map(tuple, box.tolist())))

    return scheme, kmap, pairs(*blocks), pairs(*cells), strips


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def constructive_by_level(kmap: KernelMap, regions: list, boxes: list, eps: float) -> list:
    """Constructive factors of the blocks on their boxes, a ``constructive_blocks`` call per level.

    ``regions`` and ``boxes`` name each block's ``(level, index)`` and its
    box in matrix indices (None: nothing to build, and None comes back),
    the blocks by level as ``index_layout`` gives them.  The boxes' kernel
    coordinates are formed for all levels at once, and the exact prefactor
    is exponentiated once.  Then each level is built on its own, the
    prefactor of its box points multiplied into each block's raw factor on
    ``kmap.prefactor_axis`` before the block's one recompression at eps:
    the truncation is of the matrix entries, not of the unit kernel, so
    the kept ranks follow the entries' contract.  A ``BuilderError`` names
    the failing block's level, index, rows and columns.
    """
    at = [k for k, box in enumerate(boxes) if box is not None]
    out = [None] * len(boxes)
    if not at:
        return out
    region = np.array([regions[k] for k in at], dtype=np.intp)
    box = np.array([boxes[k] for k in at], dtype=np.intp)
    rows, row_block, row_starts = _spans(box[:, 0], box[:, 1])
    cols, col_block, col_starts = _spans(box[:, 2], box[:, 3])
    intervals = block_intervals(region[:, 0], region[:, 1])
    p_grid, q_grid = kmap.p_of_row[rows], kmap.q_of_col[cols]
    on_rows = kmap.prefactor_axis == "row"
    prefactor = np.exp(kmap.exact_log_prefactor)[rows if on_rows else cols]
    level_starts = [0, *(np.flatnonzero(np.diff(region[:, 0])) + 1).tolist(), len(at)]
    row_starts, col_starts = np.append(row_starts, rows.size), np.append(col_starts, cols.size)
    for a, b in zip(level_starts[:-1], level_starts[1:]):
        r, c = slice(row_starts[a], row_starts[b]), slice(col_starts[a], col_starts[b])
        try:
            level = constructive_blocks(kmap.kind, kmap.n_eff, eps,
                                        tuple(x[a:b] for x in intervals),
                                        p_grid[r], row_block[r] - a, q_grid[c], col_block[c] - a,
                                        p_prefactor=prefactor[r] if on_rows else None,
                                        q_prefactor=None if on_rows else prefactor[c])
        except BuilderError as exc:
            if exc.block is None:
                raise
            (level_no, index), (r0, r1, c0, c1) = region[a + exc.block], box[a + exc.block]
            raise BuilderError(
                f"builder failed on block level={level_no} index={index} "
                f"rows [{r0},{r1}) cols [{c0},{c1}): {exc}") from exc
        for k, approx in zip(at[a:b], level):
            out[k] = approx
    return out


def aca_by_level(spec: FamilySpec, kmap: KernelMap, levels: list, boxes: list,
                 eps: float, first_rows: Optional[list] = None) -> list:
    """ACA factors of the blocks on their boxes, one lockstep ``aca_blocks`` call per level.

    ``levels`` and ``boxes`` name each block's level and its box in matrix
    indices (None: nothing to build, and None comes back); ``first_rows``,
    when given, each block's first pivot row in matrix indices, as
    ``aca_blocks`` takes it.  Every box lies in the interior, the matrix
    without its singular rows and columns, and the oracle is
    ``families.block_oracle`` over the interior: the family's entry
    formula, bit for bit ``entry_exact``.
    """
    by_level: dict = {}
    for k, (level, box) in enumerate(zip(levels, boxes)):
        if box is not None:
            by_level.setdefault(level, []).append(k)
    out = [None] * len(boxes)
    if not by_level:
        # nothing to build; the interior may be empty
        return out
    r0, r1 = _interior(kmap.singular_rows, spec.shape[0])
    c0, c1 = _interior(kmap.singular_cols, spec.shape[1])
    oracle = block_oracle(spec, r0, r1, c0, c1)
    for at in by_level.values():
        local = np.array([boxes[k] for k in at], dtype=np.intp) - [r0, r0, c0, c0]
        first = None if first_rows is None else [first_rows[k] - boxes[k][0] for k in at]
        for k, approx in zip(at, aca_blocks(oracle, local, eps, first)):
            out[k] = approx
    return out


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Every index of the ranges [lo, hi), concatenated; its range's number; the range starts."""
    sizes = hi - lo
    starts = np.cumsum(sizes) - sizes
    return (np.arange(int(sizes.sum())) + np.repeat(lo - starts, sizes),
            np.repeat(np.arange(sizes.size), sizes), starts)


def _threshold_boxes(kmap: KernelMap, block_ranges: list, eps) -> list:
    """Each block's threshold box in index space, for all the blocks at once.

    ``block_ranges`` pairs each block's ``(level, index)`` with its box, as
    ``index_layout`` gives them; ``eps`` is one level for all of them or an
    array of one per block.  Returns per block the box of the rows and
    columns that ``separated.threshold_masks`` puts inside its threshold
    box, or None when no row or no column is inside.  The rows of a block
    lie on one side of its corner, where the rule's exponent (one side of
    the split at the corner, such as ``n KL(p || c)`` for the binomial) is
    monotone, so the rows inside are one range; the box runs from the
    first through the last of them, and likewise for the columns.
    """
    if not block_ranges:
        return []
    regions = np.array([region for region, _ in block_ranges], dtype=np.intp)
    boxes = np.array([box for _, box in block_ranges], dtype=np.intp)
    rows, row_block, row_starts = _spans(boxes[:, 0], boxes[:, 1])
    cols, col_block, col_starts = _spans(boxes[:, 2], boxes[:, 3])
    row_in, col_in = threshold_masks(kmap.kind, kmap.n_eff, eps,
                                     block_intervals(regions[:, 0], regions[:, 1]),
                                     kmap.p_of_row[rows], row_block, kmap.q_of_col[cols], col_block)
    inside = []
    for idx, mask, starts in ((rows, row_in, row_starts), (cols, col_in, col_starts)):
        inside.append(np.minimum.reduceat(np.where(mask, idx, np.iinfo(np.intp).max), starts))
        inside.append(np.maximum.reduceat(np.where(mask, idx, -1), starts) + 1)
    return [None if r0 >= r1 or c0 >= c1 else (r0, r1, c0, c1)
            for r0, r1, c0, c1 in zip(*(a.tolist() for a in inside))]


def _spectrum_boxes(spec: FamilySpec, kmap: KernelMap, block_ranges: list) -> list:
    """Per block, the box its spectrum is taken on, or None to form it whole.

    A block of R x C entries has m, the largest of its four corner
    entries, and P, the largest exact prefactor on its prefactor axis.  At
    the level eps' = (u/2) m / (P sqrt(R C)), u = 2^-53, the kernel is
    below eps' outside the block's threshold box, so every entry left out
    is below eps' P and all of them together have Frobenius norm below
    (u/2) m.  When m's corner lies inside the box that is at most
    (u/2) ||A_box||_F; otherwise, or when eps' is 0, the block gets None.
    The boxes of all blocks come from one ``threshold_masks`` pass.
    """
    if not block_ranges:
        return []
    boxes = np.array([box for _, box in block_ranges], dtype=np.intp)
    r0, r1, c0, c1 = boxes.T
    rows = np.stack([r0, r0, r1 - 1, r1 - 1], axis=1)
    cols = np.stack([c0, c1 - 1, c0, c1 - 1], axis=1)
    corners = entry_exact(spec, rows, cols)
    at, top = np.arange(len(boxes)), corners.argmax(axis=1)
    m, m_row, m_col = corners[at, top], rows[at, top], cols[at, top]
    lo, hi = (r0, r1) if kmap.prefactor_axis == "row" else (c0, c1)
    axis, _, starts = _spans(lo, hi)
    p_max = np.maximum.reduceat(np.exp(kmap.exact_log_prefactor[axis]), starts)
    level = 0.5 * _UNIT_ROUNDOFF * m / (p_max * np.sqrt((r1 - r0) * (c1 - c0)))
    held = level > 0.0
    out = _threshold_boxes(kmap, block_ranges, np.where(held, level, 1.0))
    for k, box in enumerate(out):
        if box is not None and not (held[k] and box[0] <= m_row[k] < box[1]
                                    and box[2] <= m_col[k] < box[3]):
            out[k] = None
    return out


def _box_blocks(spec: FamilySpec, kmap: KernelMap, block_ranges: list):
    """Yield each off-diagonal block on its spectrum box and the share its support trim takes.

    The block is formed by ``families.block_oracle`` on the box
    ``_spectrum_boxes`` gives it, trimmed against 3/4 of the budget
    (``block_spectra`` says why), or whole and trimmed against all of it.
    """
    boxes = _spectrum_boxes(spec, kmap, block_ranges)
    for (_, block), box in zip(block_ranges, boxes):
        r0, r1, c0, c1 = block if box is None else box
        yield (block_oracle(spec, r0, r1, c0, c1)(np.arange(r1 - r0)[:, None],
                                                   np.arange(c1 - c0)[None, :]),
               1.0 if box is None else 0.75)


def block_spectra(spec: FamilySpec, kmap: KernelMap, block_ranges: list):
    """Yield the singular values of each off-diagonal block, in ``index_layout`` order.

    Each block is formed by ``families.block_oracle``, one at a time, on
    the box ``_spectrum_boxes`` gives it, whose left-out part has
    Frobenius norm at most (u/2) ||A_box||_F.  The box's support is
    trimmed against (3/4) (u ||A_box||_F)^2, so the part dropped in all
    has Frobenius norm at most u ||A_box||_F <= u ||A||_F and, by Weyl's
    inequality, each value is within u ||A||_F of the whole block's SVD,
    as ``separated.singular_values``' are.  A block without a box is
    formed whole and trimmed as ``singular_values`` trims it.  The largest
    box, not the largest block, sets the peak memory.
    """
    for a, share in _box_blocks(spec, kmap, block_ranges):
        yield _support_singular_values(a, share)


def block_ranks(spec: FamilySpec, kmap: KernelMap, block_ranges: list, eps,
                convention: RankConvention = RankConvention.RELATIVE_TO_SIGMA1):
    """Yield ``(counts, sketched)`` for each off-diagonal block, in ``index_layout`` order.

    ``counts`` is the number of the block's ``block_spectra`` values above
    eps (one count per level when eps is an array), exactly; the block is
    formed on the same box.  ``separated._support_rank`` settles the
    counts of a block whose box has both sides above 48 from a seeded
    range sketch with an exact residual, and ``sketched`` is True; a block
    whose count the sketch cannot certify, and every smaller block, is
    counted from its support's SVD.
    """
    for a, share in _box_blocks(spec, kmap, block_ranges):
        yield _support_rank(a, eps, convention, share)


def first_live_rows(kmap: KernelMap, block_ranges: list) -> list:
    """Each block's first row inside its threshold box at 1e-300 (without a box, its first row).

    Outside that box the kernel is below 1e-300 and every exact prefactor
    is below 1, so the rows before hold no entry above 1e-300: the rows
    ACA's degenerate-row walk would pass over, so ``aca_by_level``'s
    ``first_rows`` may start it here.
    """
    return [block[0] if box is None else box[0] for (_, block), box
            in zip(block_ranges, _threshold_boxes(kmap, block_ranges, 1e-300))]


def compress(spec: FamilySpec, eps: float, builder: Builder = Builder.ACA,
             leaf_size: int = DEFAULT_LEAF) -> HMatrix:
    """Compress a family matrix into hierarchical low-rank form.

    Off-diagonal blocks are approximated to accuracy eps against the
    exact entries; the diagonal strip and singular rows/columns are
    stored exactly.  With eps >= 1 everything is stored dense (the exact
    matrix, zero reconstruction error).

    Every block is built on its threshold box, a level at a time, by ACA
    (``aca_by_level``) or by the constructive builder
    (``constructive_by_level``); a block whose box is empty gets rank 0 on
    its whole box and builds nothing.  Both approximate the entries, not
    the unit kernel: ACA runs on the exact entries, and the constructive
    builder truncates each block at eps with the exact prefactor already
    in its factors, so its kept rank follows the entries' contract.  The matrix is assembled as
    ``container.load_hmatrix`` assembles it: one ``stack_pieces`` over
    both tables, then each piece's factors copied into its slots and
    dropped, and the dense values computed straight into theirs.
    """
    n_rows, n_cols = spec.shape
    if min(n_rows, n_cols) < 4:
        raise ValueError("family matrix must be at least 4x4")
    if not (0.0 < eps < math.inf):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    scheme, kmap, block_ranges, cell_ranges, strips = index_layout(spec, leaf_size=leaf_size)

    pieces, factors, diagonal = [], [], cell_ranges
    if eps >= 1.0:
        diagonal = block_ranges + cell_ranges
    elif block_ranges:
        boxes = _threshold_boxes(kmap, block_ranges, eps)
        if builder is Builder.ACA:
            factors = aca_by_level(spec, kmap, [region[0] for region, _ in block_ranges], boxes, eps)
        else:
            regions = [region for region, _ in block_ranges]
            factors = constructive_by_level(kmap, regions, boxes, eps)
        for (region, block_box), box, approx in zip(block_ranges, boxes, factors):
            # an empty box: rank 0 on the whole block, nothing built
            pieces.append((*region, 0, *block_box) if approx is None
                          else (*region, approx.alpha.shape[1], *box))
    lowrank = np.array(pieces, dtype=LOWRANK_RECORD)
    records = ([("diagonal", *region, *box) for region, box in diagonal]
               + [(tag, 0, 0, *box) for tag, box in strips])
    # container order: by tag name, then by first row and column
    records.sort(key=lambda r: (r[0], r[3], r[5]))
    dense = np.array([(DENSE_TAGS.index(tag), *rest) for tag, *rest in records],
                     dtype=DENSE_RECORD)

    layout = stack_pieces(spec.shape, lowrank, dense)
    slots = payload_arrays(layout, lowrank, dense)
    for k in range(len(factors)):
        approx, factors[k] = factors[k], None   # each piece is dropped once copied
        if approx is not None:
            slots[2 * k][...] = approx.alpha
            slots[2 * k + 1][...] = approx.beta
    for (r0, r1, c0, c1), values in zip(table_boxes(dense).tolist(), slots[2 * len(lowrank):]):
        # computed straight into the stack, on the block's open index grid
        oracle = block_oracle(spec, r0, r1, c0, c1)
        values[...] = oracle(np.arange(r1 - r0)[:, None], np.arange(c1 - c0)[None, :])
    return HMatrix(spec=spec, scheme=scheme, eps=eps, builder=builder,
                   lowrank=lowrank, dense=dense, layout=layout)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def matvec(h: HMatrix, x: np.ndarray) -> np.ndarray:
    """y = H x using the compressed representation.

    One gather of x for all stacks, two batched products per low-rank
    stack (one per dense stack; a plain loop, not BLAS, for dense stacks
    one row or one column wide), and one accumulating scatter into y.
    """
    rows, cols = h.shape
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cols,):
        raise ValueError(f"dimension mismatch: expected vector of length {cols}, got {x.shape}")
    layout = h.layout
    x_ext = np.empty(cols + 1)
    x_ext[:cols] = x
    x_ext[cols] = 0.0   # what padded columns read
    xs = x_ext.take(layout.col_index)
    u = np.empty(layout.row_index.size)
    for s in layout.stacks:
        g, m = s.left.shape[:2]
        xg = xs[s.cols].reshape(g, -1, 1)
        out = u[s.rows].reshape(g, m, 1)
        if s.right is None and 1 in s.left.shape[1:]:
            # one-row or one-column strips: under threaded OpenBLAS a batched
            # matmul of such thin products can stall for milliseconds (5-20 ms
            # for the two 1 x 16385 binomial rows at n = 2^14); einsum does not
            np.einsum("gmc,gc->gm", s.left, xg[..., 0], out=out[..., 0])
        elif s.right is None:
            np.matmul(s.left, xg, out=out)
        else:
            np.matmul(s.left, np.matmul(s.right.transpose(0, 2, 1), xg), out=out)
    # padded rows land in the extra last bin
    return np.bincount(layout.row_index, weights=u, minlength=rows + 1)[:rows]


def storage_report(h: HMatrix) -> StorageReport:
    rows, cols = h.shape
    dense_equiv = rows * cols
    per_level: dict = {}
    for level, rank in zip(h.lowrank["level"].tolist(), h.lowrank["rank"].tolist()):
        per_level[level] = max(per_level.get(level, 0), rank)
    stored = h.stored_entries
    return StorageReport(stored_entries=stored, dense_equivalent=dense_equiv,
                         ratio=stored / dense_equiv, per_level_ranks=dict(sorted(per_level.items())))


def reconstruct_entries(h: HMatrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Reconstructed entries at index pairs (vectorized over the pairs).

    The pieces of a stack have disjoint rows and disjoint columns, so per
    stack one table gives each row its slot, and with it its piece, and
    another each column; the sample is the piece's when both name the same
    one.  Pairs outside the matrix read 0.
    """
    rows, cols = np.broadcast_arrays(np.asarray(rows, dtype=np.intp),
                                     np.asarray(cols, dtype=np.intp))
    n_rows, n_cols = h.shape
    ii = rows.ravel()
    jj = cols.ravel()
    # pairs outside the matrix look up the padding slots, which no piece owns
    ii = np.where((ii >= 0) & (ii < n_rows), ii, n_rows)
    jj = np.where((jj >= 0) & (jj < n_cols), jj, n_cols)
    out = np.zeros(ii.shape, dtype=np.float64)
    # each row's and column's slot in a stack, flat over its pieces; rows
    # and columns without one read -1 and -c - 1, whose pieces -1 and -2
    # never match
    row_slot = np.empty(n_rows + 1, dtype=np.intp)
    col_slot = np.empty(n_cols + 1, dtype=np.intp)
    layout = h.layout
    for s in layout.stacks:
        if s.left.size == 0:
            continue
        g, m = s.left.shape[:2]
        c = (s.cols.stop - s.cols.start) // g
        row_slot.fill(-1)
        row_slot[layout.row_index[s.rows]] = np.arange(g * m)
        row_slot[n_rows] = -1
        col_slot.fill(-c - 1)
        col_slot[layout.col_index[s.cols]] = np.arange(g * c)
        col_slot[n_cols] = -c - 1
        # take, not fancy indexing: the same gather, a third faster
        hit = np.flatnonzero((row_slot // m).take(ii) == (col_slot // c).take(jj))
        i = row_slot.take(ii[hit])
        j = col_slot.take(jj[hit])
        if s.right is None:
            out[hit] = s.left.reshape(-1).take(i * c + j % c)
        else:
            rank = s.left.shape[2]
            out[hit] = np.einsum("ij,ij->i", s.left.reshape(-1, rank).take(i, axis=0),
                                 s.right.reshape(-1, rank).take(j, axis=0))
    return out.reshape(rows.shape)


def verify(h: HMatrix, samples: int, seed: int = 0) -> VerifyReport:
    """Compare reconstruction against exact entries, region by region.

    The regions are those that tile the matrix (``index_layout``): every
    block, whatever part of it the block's piece stores, every diagonal
    cell and every singular strip.  The samples are split evenly over
    them, at least one per region, and drawn uniformly inside each, so the
    maximum reflects the worst region rather than the near-zero entries
    that most of the matrix holds.  ``VerifyReport.samples`` is the number
    drawn: ``samples``, or the region count when that is larger.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _, _, blocks, cells, strips = _region_arrays(h.spec, h.scheme)
    boxes = np.concatenate([blocks[2], cells[2],
                            np.array([box for _, box in strips], dtype=np.intp).reshape(-1, 4)])
    per_region = np.full(len(boxes), samples // len(boxes))
    per_region[:samples % len(boxes)] += 1
    per_region = np.maximum(per_region, 1)
    lo = np.repeat(boxes[:, 0::2], per_region, axis=0)
    size = np.repeat(boxes[:, 1::2] - boxes[:, 0::2], per_region, axis=0)
    # random() is at most 1 - 2**-53, so the scaled offset floors below the extent
    rng = np.random.default_rng(seed)
    ii, jj = (lo + (rng.random(lo.shape) * size).astype(np.intp)).T
    approx = reconstruct_entries(h, ii, jj)
    exact = entry_exact(h.spec, ii, jj)
    err = np.abs(approx - exact)
    return VerifyReport(samples=ii.size, max_abs_error=float(np.max(err)),
                        rms_error=float(np.sqrt(np.mean(err ** 2))))
