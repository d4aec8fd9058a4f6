"""Staircase partition geometry, locate queries, tiling checks."""

import math

import numpy as np
import pytest

from hlrd.partition import (
    Block,
    DenseCell,
    OutOfDomainError,
    Parity,
    QuarterPlane,
    UnitSquare,
    build_scheme,
    claim_counts,
    locate,
    verify_tiling,
)


def test_block_intervals_by_parity():
    even = Block(3, 4)
    assert even.parity is Parity.EVEN
    assert even.p_interval == (4 / 8, 5 / 8)
    assert even.q_interval == (5 / 8, 6 / 8)
    odd = Block(3, 5)
    assert odd.parity is Parity.ODD
    assert odd.p_interval == (5 / 8, 6 / 8)
    assert odd.q_interval == (4 / 8, 5 / 8)


def test_block_touches_diagonal_at_one_corner():
    for blk in (Block(2, 1), Block(2, 2), Block(-3, 1), Block(0, 0)):
        (plo, phi), (qlo, qhi) = blk.p_interval, blk.q_interval
        corners = [(plo, qlo), (plo, qhi), (phi, qlo), (phi, qhi)]
        on_diag = [c for c in corners if c[0] == c[1]]
        assert len(on_diag) == 1
        assert on_diag[0][0] == blk.corner


def test_unit_square_block_count():
    s = build_scheme(UnitSquare(l_max=2))
    assert [(b.level, b.index) for b in s.blocks] == [
        (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3)]
    assert len(s.dense_cells) == 4

    for l_max in range(1, 9):
        s = build_scheme(UnitSquare(l_max))
        assert len(s.blocks) == 2 ** (l_max + 1) - 2
        assert len(s.dense_cells) == 2 ** l_max


def test_unit_square_smallest_case():
    s = build_scheme(UnitSquare(1))
    assert len(s.blocks) == 2
    assert s.blocks[0].p_interval == (0.0, 0.5) and s.blocks[0].q_interval == (0.5, 1.0)
    assert s.blocks[1].p_interval == (0.5, 1.0) and s.blocks[1].q_interval == (0.0, 0.5)


def test_quarter_plane_coarse_block():
    s = build_scheme(QuarterPlane(extent=16.0, l_max=0))
    blk = next(b for b in s.blocks if b.level == -3 and b.index == 1)
    assert blk.p_interval == (8.0, 16.0)
    assert blk.q_interval == (0.0, 8.0)


def test_quarter_plane_blocks_inside_extent():
    s = build_scheme(QuarterPlane(extent=8.0, l_max=3))
    for blk in s.blocks:
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
        assert unit.blocks == quarter.blocks
        assert unit.dense_cells == quarter.dense_cells


@pytest.mark.parametrize("extent,l_max", [(True, 2), ("8", 2), (math.nan, 2), (8.0, True),
                                          (8.0, 2.0)],
                         ids=["extent-bool", "extent-str", "extent-nan", "lmax-bool",
                              "lmax-float"])
def test_scheme_rejects_malformed_domain(extent, l_max):
    with pytest.raises(ValueError):
        build_scheme(QuarterPlane(extent=extent, l_max=l_max))


def test_locate_examples():
    s16 = build_scheme(QuarterPlane(extent=16.0, l_max=0))
    found = locate(s16, 10.0, 0.2)
    assert isinstance(found, Block) and (found.level, found.index) == (-3, 1)

    s3 = build_scheme(UnitSquare(3))
    found = locate(s3, 0.3, 0.8)
    assert isinstance(found, Block) and (found.level, found.index) == (1, 0)

    found = locate(s3, 0.1, 0.1)
    assert isinstance(found, DenseCell)
    lo, hi = found.interval
    assert lo <= 0.1 <= hi


def test_locate_boundary_prefers_smaller_block():
    s = build_scheme(UnitSquare(3))
    # (0.5, 0.5) is a corner shared by blocks (1,0) and (1,1) and two cells
    found = locate(s, 0.5, 0.5)
    assert (found.level, found.index) == (1, 0)


def test_locate_corner_quadrant_points():
    # smallest unit-square scheme: one region per quadrant-center point
    s = build_scheme(UnitSquare(1))
    for p, q in ((0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)):
        found = locate(s, p, q)
        assert found.contains(p, q)


def test_locate_out_of_domain():
    s = build_scheme(UnitSquare(2))
    with pytest.raises(OutOfDomainError):
        locate(s, 1.5, 0.5)
    with pytest.raises(OutOfDomainError):
        locate(s, -0.1, 0.5)


def test_locate_agrees_with_membership():
    rng = np.random.default_rng(3)
    for scheme in (build_scheme(UnitSquare(4)), build_scheme(QuarterPlane(4.0, 2))):
        for blk in scheme.blocks:
            (plo, phi), (qlo, qhi) = blk.p_interval, blk.q_interval
            ps = rng.uniform(plo, phi, 10)
            qs = rng.uniform(qlo, qhi, 10)
            for p, q in zip(ps, qs):
                assert locate(scheme, p, q) == blk


def test_parity_matches_side_of_diagonal():
    for scheme in (build_scheme(UnitSquare(5)), build_scheme(QuarterPlane(8.0, 2))):
        for blk in scheme.blocks:
            (plo, phi), (qlo, qhi) = blk.p_interval, blk.q_interval
            if blk.parity is Parity.ODD:
                assert qhi <= plo  # entirely below the diagonal
            else:
                assert qlo >= phi  # entirely above


@pytest.mark.parametrize("l_max", range(1, 9))
def test_tiling_unit_square(l_max):
    rep = verify_tiling(build_scheme(UnitSquare(l_max)), samples=20000, seed=l_max)
    assert rep.covered == 1.0
    assert rep.overlaps == 0


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
    for blk in scheme.blocks:
        (plo, phi), (qlo, qhi) = blk.p_interval, blk.q_interval
        counts += (ps >= plo) & (ps <= phi) & (qs >= qlo) & (qs <= qhi)
    for cell in scheme.dense_cells:
        lo, hi = cell.interval
        counts += (ps >= lo) & (ps <= hi) & (qs >= lo) & (qs <= hi)
    return counts


@pytest.mark.parametrize("domain", [UnitSquare(l_max=5), QuarterPlane(extent=16.0, l_max=4),
                                    QuarterPlane(extent=8.0, l_max=-2)])
@pytest.mark.parametrize("edit", ["none", "duplicate", "remove"])
def test_claim_counts_match_brute_force(domain, edit):
    scheme = build_scheme(domain)
    # the first block is a coarsest one, large enough for the sampled report to see
    if edit == "duplicate":
        scheme.blocks = scheme.blocks + scheme.blocks[:1]
    elif edit == "remove":
        scheme.blocks = scheme.blocks[1:]
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
