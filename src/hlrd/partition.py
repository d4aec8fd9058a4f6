"""Dyadic staircase partition of the off-diagonal region.

The (p, q) domain is the square ``[0, A]^2`` with A a power of two, tiled
by square blocks that touch the diagonal at exactly one corner and double
in size away from it.  The staircase is index arithmetic: at level ``l``
the block with index ``k`` spans p-cell ``k`` and q-cell ``k ^ 1``, in
cells of width ``2**-l`` -- one step above the diagonal when k is even,
one below when k is odd -- and touches the diagonal at
``(k | 1) * 2**-l`` (``block_intervals``).  Levels run from
``1 - log2(A)``, the coarsest that fits inside the extent, to the finest
level ``l_max``, with ``A * 2**l`` blocks per level; a scheme is just
those levels, and no region is built as an object.  The side of the
diagonal is not stored either: a kernel reads it from the intervals,
after its own coordinate transform (``separated`` swaps the p and q
intervals for the dual rate kernel and maps x -> 1 - x on both for the
reflected one), as the side of the block's lower-left corner.  The
untruncated quarter-plane decomposition extends to arbitrarily coarse
levels; a finite matrix only ever meets the blocks inside its extent, so
truncation loses nothing.  The Bernoulli-KL kernel lives on the unit
square, A = 1 (``UnitSquare``); the rate kernels on the smallest power of
two that covers their coordinates.

What the blocks do not cover is the strip of finest-level squares along
the diagonal, cell ``k`` spanning ``[k, k+1]^2`` in units of
``2**-l_max``; those are kept as an explicit dense remainder.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Block",
    "PartitionScheme",
    "QuarterPlane",
    "TilingReport",
    "UnitSquare",
    "block_intervals",
    "build_scheme",
    "claim_counts",
    "verify_tiling",
]


def block_intervals(level, index):
    """(p_lo, p_hi, q_lo, q_hi) of the blocks (level, index), elementwise over arrays.

    Block k of level l spans p-cell k and q-cell ``k ^ 1`` in cells of
    width ``2**-l``.
    """
    level, index = np.asarray(level), np.asarray(index)
    w = np.ldexp(1.0, -level)
    q = index ^ 1
    return index * w, (index + 1) * w, q * w, (q + 1) * w


@dataclass(frozen=True)
class Block:
    """One off-diagonal square, identified by (level, index)."""

    level: int
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("block index must be non-negative")

    @property
    def p_interval(self) -> tuple[float, float]:
        p_lo, p_hi, _, _ = block_intervals(self.level, self.index)
        return (float(p_lo), float(p_hi))

    @property
    def q_interval(self) -> tuple[float, float]:
        _, _, q_lo, q_hi = block_intervals(self.level, self.index)
        return (float(q_lo), float(q_hi))


@dataclass(frozen=True)
class QuarterPlane:
    """Quarter-plane truncated to [0, extent]^2; extent a power of two.

    l_max may be zero or negative as long as it is >= -log2(extent) + 1,
    i.e. at least the coarsest level that fits inside the extent.
    """

    extent: float
    l_max: int


def UnitSquare(l_max: int) -> QuarterPlane:
    """The unit square: the quarter-plane of extent 1, levels 1..l_max."""
    return QuarterPlane(extent=1.0, l_max=l_max)


@dataclass(frozen=True)
class TilingReport:
    samples: int
    covered: float
    overlaps: int


def _extent_exponent(extent: float) -> int:
    """log2 of a power-of-two extent; ValueError for anything else."""
    # JSON true and false are Python ints
    if (isinstance(extent, bool) or not isinstance(extent, (int, float))
            or not 0.0 < extent <= sys.float_info.max):
        raise ValueError(f"extent {extent!r} is not a positive power of two")
    mantissa, exponent = math.frexp(extent)
    if mantissa != 0.5:
        raise ValueError(f"extent {extent!r} is not a power of two; the dyadic structure requires it")
    return exponent - 1


class PartitionScheme:
    """The staircase over [0, extent]^2: block levels, coarsest first, down to l_max.

    Level l holds ``cells(l)`` blocks, indices 0 up; the dense cells are
    the ``cells(l_max)`` diagonal squares of the finest level.
    """

    def __init__(self, domain: QuarterPlane):
        a = _extent_exponent(domain.extent)
        l_max = domain.l_max
        if isinstance(l_max, bool) or not isinstance(l_max, int):
            raise ValueError(f"l_max {l_max!r} is not an integer")
        if l_max < 1 - a:
            raise ValueError(f"l_max={l_max} is coarser than the extent allows (needs >= {1 - a})")
        if a + l_max > 62:
            # cell indices, up to extent * 2**l_max, must fit int64
            raise ValueError(f"l_max={l_max} is finer than the extent allows (needs <= {62 - a})")
        self.extent = float(domain.extent)
        self.l_max = l_max
        self.levels = tuple(range(1 - a, l_max + 1))

    def cells(self, level: int) -> int:
        """Number of cells of width ``2**-level`` across the extent."""
        return int(round(self.extent * 2.0 ** level))

    def __repr__(self) -> str:
        return f"PartitionScheme(extent={self.extent}, l_max={self.l_max}, levels={self.levels})"


def build_scheme(domain: QuarterPlane) -> PartitionScheme:
    """Build the staircase partition of a domain; ValueError on a malformed one."""
    return PartitionScheme(domain)


def claim_counts(scheme: PartitionScheme, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """How many regions of the scheme claim each point (p, q), closed intervals.

    Per level of width w, a point's p lies in p-cell k = floor(p / w), and
    also in cell k - 1 when it sits on their shared edge; each of the two
    candidate blocks (``block_intervals``) claims the point when its
    q-interval holds q, and so does each candidate dense cell, whose
    q-interval is its p-interval.  A level listed twice in
    ``scheme.levels`` claims twice.
    """
    ps = np.asarray(ps, dtype=np.float64)
    qs = np.asarray(qs, dtype=np.float64)
    counts = np.zeros(ps.shape, dtype=np.int64)
    for level, diagonal in [(lvl, False) for lvl in scheme.levels] + [(scheme.l_max, True)]:
        k = np.floor(ps / 2.0 ** (-level)).astype(np.int64)
        for idx in (k - 1, k):
            p_lo, p_hi, q_lo, q_hi = block_intervals(level, idx)
            if diagonal:
                q_lo, q_hi = p_lo, p_hi
            counts += ((idx >= 0) & (idx < scheme.cells(level))
                       & (ps >= p_lo) & (ps <= p_hi) & (qs >= q_lo) & (qs <= q_hi))
    return counts


def verify_tiling(scheme: PartitionScheme, samples: int, seed: int = 0) -> TilingReport:
    """Monte-Carlo check that blocks plus dense cells tile the domain.

    Draws uniform interior points and counts, for each, how many regions
    claim it (``claim_counts``).  A correct scheme reports covered == 1.0
    and overlaps == 0 (random points avoid the measure-zero shared
    boundaries).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    A = scheme.extent
    ps = rng.uniform(0.0, A, size=samples)
    qs = rng.uniform(0.0, A, size=samples)
    counts = claim_counts(scheme, ps, qs)
    covered = float(np.mean(counts >= 1))
    overlaps = int(np.sum(counts >= 2))
    return TilingReport(samples=samples, covered=covered, overlaps=overlaps)
