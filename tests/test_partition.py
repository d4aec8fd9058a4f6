"""Staircase partition geometry and tiling checks."""

import math

import numpy as np
import pytest

from hlrd.partition import (
    Block,
    QuarterPlane,
    UnitSquare,
    block_intervals,
    build_scheme,
    claim_counts,
    verify_tiling,
)


def _blocks(scheme):
    """Every block of the scheme, by level, then index."""
    return [Block(level, k) for level in scheme.levels for k in range(scheme.cells(level))]


def test_block_intervals_by_parity():
    # an even index steps above the diagonal, an odd one below
    assert block_intervals(3, 4) == (4 / 8, 5 / 8, 5 / 8, 6 / 8)
    assert block_intervals(3, 5) == (5 / 8, 6 / 8, 4 / 8, 5 / 8)
    assert Block(3, 4).p_interval == (4 / 8, 5 / 8) and Block(3, 4).q_interval == (5 / 8, 6 / 8)
    assert Block(3, 5).p_interval == (5 / 8, 6 / 8) and Block(3, 5).q_interval == (4 / 8, 5 / 8)


def test_block_touches_diagonal_at_one_corner():
    for level, index in ((2, 1), (2, 2), (-3, 1), (0, 0)):
        plo, phi, qlo, qhi = block_intervals(level, index)
        corners = [(plo, qlo), (plo, qhi), (phi, qlo), (phi, qhi)]
        on_diag = [c for c in corners if c[0] == c[1]]
        assert len(on_diag) == 1
        assert on_diag[0][0] == (index | 1) * 2.0 ** -level


def test_block_intervals_vectorize_the_scalar_block():
    level = np.array([-3, -3, 0, 0, 2, 2, 5])
    index = np.array([0, 1, 0, 1, 2, 3, 31])
    p_lo, p_hi, q_lo, q_hi = block_intervals(level, index)
    for i, blk in enumerate(Block(lv, k) for lv, k in zip(level.tolist(), index.tolist())):
        assert blk.p_interval == (p_lo[i], p_hi[i])
        assert blk.q_interval == (q_lo[i], q_hi[i])


def test_unit_square_block_count():
    s = build_scheme(UnitSquare(l_max=2))
    assert s.levels == (1, 2)
    assert [(b.level, b.index) for b in _blocks(s)] == [
        (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3)]
    assert s.cells(s.l_max) == 4

    for l_max in range(1, 9):
        s = build_scheme(UnitSquare(l_max))
        assert len(_blocks(s)) == 2 ** (l_max + 1) - 2
        assert s.cells(s.l_max) == 2 ** l_max


def test_unit_square_smallest_case():
    s = build_scheme(UnitSquare(1))
    assert s.levels == (1,) and s.cells(1) == 2
    assert Block(1, 0).p_interval == (0.0, 0.5) and Block(1, 0).q_interval == (0.5, 1.0)
    assert Block(1, 1).p_interval == (0.5, 1.0) and Block(1, 1).q_interval == (0.0, 0.5)


def test_quarter_plane_coarse_block():
    s = build_scheme(QuarterPlane(extent=16.0, l_max=0))
    assert s.levels == (-3, -2, -1, 0) and s.cells(-3) == 2
    blk = Block(-3, 1)
    assert blk.p_interval == (8.0, 16.0)
    assert blk.q_interval == (0.0, 8.0)


def test_quarter_plane_blocks_inside_extent():
    s = build_scheme(QuarterPlane(extent=8.0, l_max=3))
    for blk in _blocks(s):
        (plo, phi), (qlo, qhi) = blk.p_interval, blk.q_interval
        assert 0.0 <= plo < phi <= 8.0
        assert 0.0 <= qlo < qhi <= 8.0


def test_extent_must_be_power_of_two():
    with pytest.raises(ValueError):
        build_scheme(QuarterPlane(extent=12.0, l_max=2))
    with pytest.raises(ValueError):
        build_scheme(QuarterPlane(extent=-4.0, l_max=2))


def test_unit_square_needs_positive_levels():
    with pytest.raises(ValueError):
        build_scheme(UnitSquare(l_max=0))


def test_unit_square_is_the_extent_one_quarter_plane():
    for l_max in range(1, 9):
        unit, quarter = build_scheme(UnitSquare(l_max)), build_scheme(QuarterPlane(1.0, l_max))
        assert ((unit.extent, unit.l_max, unit.levels)
                == (quarter.extent, quarter.l_max, quarter.levels))


@pytest.mark.parametrize("extent,l_max", [(True, 2), ("8", 2), (math.nan, 2), (8.0, True),
                                          (8.0, 2.0), (1.0, 63), (16.0, 59)],
                         ids=["extent-bool", "extent-str", "extent-nan", "lmax-bool",
                              "lmax-float", "lmax-past-int64", "lmax-past-int64-extent16"])
def test_scheme_rejects_malformed_domain(extent, l_max):
    with pytest.raises(ValueError):
        build_scheme(QuarterPlane(extent=extent, l_max=l_max))


def test_parity_matches_side_of_diagonal():
    for scheme in (build_scheme(UnitSquare(5)), build_scheme(QuarterPlane(8.0, 2))):
        for blk in _blocks(scheme):
            plo, phi, qlo, qhi = block_intervals(blk.level, blk.index)
            if blk.index % 2:
                assert qhi <= plo  # entirely below the diagonal
            else:
                assert qlo >= phi  # entirely above


@pytest.mark.parametrize("l_max", range(1, 9))
def test_tiling_unit_square(l_max):
    rep = verify_tiling(build_scheme(UnitSquare(l_max)), samples=20000, seed=l_max)
    assert rep.covered == 1.0
    assert rep.overlaps == 0


def test_tiling_at_the_finest_level_int64_indexes():
    rep = verify_tiling(build_scheme(QuarterPlane(extent=16.0, l_max=58)), samples=2000)
    assert rep.covered == 1.0 and rep.overlaps == 0


@pytest.mark.parametrize("l_max", range(-1, 5))
def test_tiling_quarter_plane(l_max):
    rep = verify_tiling(build_scheme(QuarterPlane(extent=8.0, l_max=l_max)),
                        samples=20000, seed=10 + l_max)
    assert rep.covered == 1.0
    assert rep.overlaps == 0


def test_tiling_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        verify_tiling(build_scheme(UnitSquare(2)), samples=0)


def _brute_claim_counts(scheme, ps, qs):
    """Reference: test every block and cell of the scheme against every point."""
    counts = np.zeros(len(ps), dtype=np.int64)
    for level in scheme.levels:
        w = 2.0 ** -level
        for k in range(round(scheme.extent / w)):
            q = k + 1 if k % 2 == 0 else k - 1
            counts += (ps >= k * w) & (ps <= (k + 1) * w) & (qs >= q * w) & (qs <= (q + 1) * w)
    w = 2.0 ** -scheme.l_max
    for k in range(round(scheme.extent / w)):
        lo, hi = k * w, (k + 1) * w
        counts += (ps >= lo) & (ps <= hi) & (qs >= lo) & (qs <= hi)
    return counts


@pytest.mark.parametrize("domain", [UnitSquare(l_max=5), QuarterPlane(extent=16.0, l_max=4),
                                    QuarterPlane(extent=8.0, l_max=-2)])
@pytest.mark.parametrize("edit", ["none", "duplicate", "remove"])
def test_claim_counts_match_brute_force(domain, edit):
    scheme = build_scheme(domain)
    # the coarsest level has the largest blocks: the sampled report sees its edit
    if edit == "duplicate":
        scheme.levels = scheme.levels[:1] + scheme.levels
    elif edit == "remove":
        scheme.levels = scheme.levels[1:]
    rng = np.random.default_rng(3)
    extent = scheme.extent
    # uniform points plus points on the finest grid lines, where closed
    # intervals make neighbouring regions claim the same point
    grid = np.arange(extent * 2.0 ** scheme.l_max + 1) * 2.0 ** (-scheme.l_max)
    ps = np.concatenate([rng.uniform(0, extent, 4000), rng.choice(grid, 2000),
                         rng.uniform(0, extent, 1000), rng.choice(grid, 1000)])
    qs = np.concatenate([rng.uniform(0, extent, 4000), rng.choice(grid, 2000),
                         rng.choice(grid, 1000), rng.uniform(0, extent, 1000)])
    counts = claim_counts(scheme, ps, qs)
    assert np.array_equal(counts, _brute_claim_counts(scheme, ps, qs))
    report = verify_tiling(scheme, samples=20000, seed=5)
    if edit == "none":
        assert report.covered == 1.0 and report.overlaps == 0
    elif edit == "duplicate":
        assert report.overlaps > 0
    else:
        assert report.covered < 1.0
