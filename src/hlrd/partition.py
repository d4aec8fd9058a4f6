"""Dyadic staircase partition of the off-diagonal region.

The (p, q) domain is the square ``[0, A]^2`` with A a power of two, tiled
by square blocks that touch the diagonal at exactly one corner and double
in size away from it.  At level ``l`` the block with index ``k`` spans
``[k, k+1] x [k+1, k+2]`` in units of ``2**-l`` when k is even (above the
diagonal) and ``[k, k+1] x [k-1, k]`` when k is odd (below).  Levels run
from ``1 - log2(A)``, the coarsest that fits inside the extent, to the
finest level ``l_max``, with ``A * 2**l`` blocks per level.  The
untruncated quarter-plane decomposition extends to arbitrarily coarse
levels; a finite matrix only ever meets the blocks inside its extent, so
truncation loses nothing.  The Bernoulli-KL kernel lives on the unit
square, A = 1 (``UnitSquare``); the rate kernels on the smallest power of
two that covers their coordinates.

What the blocks do not cover is the strip of finest-level squares along
the diagonal; those are kept as an explicit dense remainder.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Block",
    "DenseCell",
    "OutOfDomainError",
    "Parity",
    "PartitionScheme",
    "QuarterPlane",
    "TilingReport",
    "UnitSquare",
    "build_scheme",
    "claim_counts",
    "locate",
    "verify_tiling",
]


class OutOfDomainError(ValueError):
    """Point outside the partition's domain."""


class Parity(enum.Enum):
    EVEN = "even"   # above the diagonal (q > p)
    ODD = "odd"     # below the diagonal (q < p)


@dataclass(frozen=True)
class Block:
    """One off-diagonal square, identified by (level, index)."""

    level: int
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("block index must be non-negative")

    @property
    def parity(self) -> Parity:
        return Parity.EVEN if self.index % 2 == 0 else Parity.ODD

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def p_interval(self) -> tuple[float, float]:
        w = self.side
        return (self.index * w, (self.index + 1) * w)

    @property
    def q_interval(self) -> tuple[float, float]:
        w = self.side
        if self.index % 2 == 0:
            return ((self.index + 1) * w, (self.index + 2) * w)
        return ((self.index - 1) * w, self.index * w)

    @property
    def corner(self) -> float:
        """Coordinate of the single corner that touches the diagonal."""
        w = self.side
        return self.index * w if self.index % 2 == 1 else (self.index + 1) * w

    def contains(self, p: float, q: float) -> bool:
        (plo, phi), (qlo, qhi) = self.p_interval, self.q_interval
        return plo <= p <= phi and qlo <= q <= qhi


@dataclass(frozen=True)
class DenseCell:
    """Finest-level diagonal square [k, k+1]^2 / 2^l, kept dense."""

    level: int
    index: int

    @property
    def interval(self) -> tuple[float, float]:
        w = 2.0 ** (-self.level)
        return (self.index * w, (self.index + 1) * w)

    def contains(self, p: float, q: float) -> bool:
        lo, hi = self.interval
        return lo <= p <= hi and lo <= q <= hi


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
    """Immutable collection of staircase blocks plus the dense remainder."""

    def __init__(self, domain: QuarterPlane):
        a = _extent_exponent(domain.extent)
        l_max = domain.l_max
        if isinstance(l_max, bool) or not isinstance(l_max, int):
            raise ValueError(f"l_max {l_max!r} is not an integer")
        if l_max < 1 - a:
            raise ValueError(f"l_max={l_max} is coarser than the extent allows (needs >= {1 - a})")
        self.extent = float(domain.extent)
        self.l_max = l_max
        self._levels = range(1 - a, l_max + 1)

    # built on first use: loading a container builds the scheme but reads neither
    @functools.cached_property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(Block(lvl, k) for lvl in self._levels
                     for k in range(int(round(self.extent * 2.0 ** lvl))))

    @functools.cached_property
    def dense_cells(self) -> tuple[DenseCell, ...]:
        n_cells = int(round(self.extent * 2.0 ** self.l_max))
        return tuple(DenseCell(self.l_max, k) for k in range(n_cells))

    def __repr__(self) -> str:
        return (f"PartitionScheme(extent={self.extent}, l_max={self.l_max}, "
                f"blocks={len(self.blocks)}, dense_cells={len(self.dense_cells)})")


def build_scheme(domain: QuarterPlane) -> PartitionScheme:
    """Build the staircase partition of a domain; ValueError on a malformed one."""
    return PartitionScheme(domain)


def locate(scheme: PartitionScheme, p: float, q: float) -> Union[Block, DenseCell]:
    """Find the region containing (p, q).

    Points on shared boundaries resolve to the block with the smaller
    (level, index) pair; dense cells are only reached when no block
    contains the point.  Raises OutOfDomainError outside the domain.
    """
    A = scheme.extent
    if not (0.0 <= p <= A and 0.0 <= q <= A):
        raise OutOfDomainError(f"point ({p!r}, {q!r}) outside [0, {A}]^2")

    for lvl in scheme._levels:
        w = 2.0 ** (-lvl)
        count = int(round(A * 2.0 ** lvl))
        k = min(int(p / w), count - 1)
        # a point exactly on a grid line also lies in the block to its left
        candidates = [k - 1, k] if (k > 0 and p == k * w) else [k]
        for cand in candidates:
            blk = Block(lvl, cand)
            if blk.contains(p, q):
                return blk
    w = 2.0 ** (-scheme.l_max)
    count = int(round(A * 2.0 ** scheme.l_max))
    kp = min(int(p / w), count - 1)
    for cand in ([kp - 1, kp] if (kp > 0 and p == kp * w) else [kp]):
        cell = DenseCell(scheme.l_max, cand)
        if cell.contains(p, q):
            return cell
    raise OutOfDomainError(f"point ({p!r}, {q!r}) not covered; this indicates a scheme bug")


def claim_counts(scheme: PartitionScheme, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """How many regions of the scheme claim each point (p, q), closed intervals.

    Per level of width w, a point's p lies in grid cell k = floor(p / w),
    and also in cell k - 1 when it sits on their shared edge; each of the
    two candidates claims the point when its q-interval holds q, once per
    copy of that (level, index) in the scheme's block or cell list.
    """
    ps = np.asarray(ps, dtype=np.float64)
    qs = np.asarray(qs, dtype=np.float64)
    counts = np.zeros(ps.shape, dtype=np.int64)
    for regions, is_block in ((scheme.blocks, True), (scheme.dense_cells, False)):
        copies: dict = {}
        for r in regions:
            level_copies = copies.setdefault(r.level, {})
            level_copies[r.index] = level_copies.get(r.index, 0) + 1
        for level, by_index in copies.items():
            w = 2.0 ** (-level)
            table = np.zeros(max(by_index) + 1, dtype=np.int64)
            table[list(by_index)] = list(by_index.values())
            k = np.floor(ps / w).astype(np.int64)
            for idx in (k - 1, k):
                # a block's q-interval sits one step above (even index) or below (odd)
                q0 = (np.where(idx % 2 == 0, idx + 1, idx - 1) if is_block else idx)
                inside = ((idx >= 0) & (idx < len(table))
                          & (ps >= idx * w) & (ps <= (idx + 1) * w)
                          & (qs >= q0 * w) & (qs <= (q0 + 1) * w))
                counts += np.where(inside, table[np.clip(idx, 0, len(table) - 1)], 0)
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
