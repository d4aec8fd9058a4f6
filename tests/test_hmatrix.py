"""Hierarchical assembly: ownership, accuracy, matvec, storage, container."""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlrd import container, families, hmatrix, separated
from hlrd.container import load_hmatrix, save_hmatrix
from hlrd.divergence import DivergenceKind, divergence
from hlrd.families import BinomialFamily, ChiSquaredFamily, PoissonFamily, dense_matrix
from hlrd.hmatrix import (
    DENSE_RECORD,
    DENSE_TAGS,
    LOWRANK_RECORD,
    Builder,
    compress,
    index_layout,
    matvec,
    payload_arrays,
    reconstruct_entries,
    scheme_for,
    stack_pieces,
    storage_report,
    table_boxes,
    verify,
)
from hlrd.partition import Block, QuarterPlane, build_scheme
from hlrd.separated import RankConvention, numerical_rank

import panel_check
from panel_check import family as _family

SMALL_FAMILIES = [
    BinomialFamily(n=48),
    PoissonFamily(k_max=48, lambda_max=48.0, lambda_grid=48),
    ChiSquaredFamily(x_max=48.0, x_grid=48, k_max=48),
]


def _pieces(h):
    """(record, left, right) per piece, sliced out of its stack slot; right is None if dense."""
    for s in h.layout.stacks:
        table = h.dense if s.right is None else h.lowrank
        for k, n in enumerate(s.piece):
            rec = table[n]
            m, c = int(rec["row_hi"] - rec["row_lo"]), int(rec["col_hi"] - rec["col_lo"])
            if s.right is None:
                yield rec, s.left[k], None
            else:
                yield rec, s.left[k, :m], s.right[k, :c]


def _box(rec):
    return (int(rec["row_lo"]), int(rec["row_hi"]), int(rec["col_lo"]), int(rec["col_hi"]))


def _loop_matvec(h, x):
    """Reference: one product per piece."""
    y = np.zeros(h.shape[0])
    for rec, left, right in _pieces(h):
        r0, r1, c0, c1 = _box(rec)
        if right is None:
            y[r0:r1] += left @ x[c0:c1]
        else:
            y[r0:r1] += left @ (right.T @ x[c0:c1])
    return y


def _loop_entries(h, rows, cols):
    """Reference: every piece tests every index pair."""
    out = np.zeros(rows.shape)
    for rec, left, right in _pieces(h):
        r0, r1, c0, c1 = _box(rec)
        mask = (rows >= r0) & (rows < r1) & (cols >= c0) & (cols < c1)
        i, j = rows[mask] - r0, cols[mask] - c0
        if right is None:
            out[mask] = left[i, j]
        elif left.shape[1]:
            out[mask] = np.einsum("ij,ij->i", left[i], right[j])
    return out


def _coverage_counts(spec, leaf=8):
    rows, cols = spec.shape
    counts = np.zeros((rows, cols), dtype=int)
    _, _, branges, cranges, strips = index_layout(spec, leaf_size=leaf)
    for _, (r0, r1, c0, c1) in branges:
        counts[r0:r1, c0:c1] += 1
    for _, (r0, r1, c0, c1) in cranges:
        counts[r0:r1, c0:c1] += 1
    for _, (r0, r1, c0, c1) in strips:
        counts[r0:r1, c0:c1] += 1
    return counts


@pytest.mark.parametrize("spec", [
    BinomialFamily(n=64),
    BinomialFamily(n=255, cols=193),
    PoissonFamily(k_max=100, lambda_max=77.0, lambda_grid=119),
    ChiSquaredFamily(x_max=200.0, x_grid=128, k_max=256),
])
def test_every_index_owned_exactly_once(spec):
    counts = _coverage_counts(spec)
    assert np.all(counts == 1), f"ownership breaks at {np.argwhere(counts != 1)[:5]}"


def _on_interval(coords, lo, hi, extent):
    """Mask of coords in [lo, hi), closed at the extent."""
    return (coords >= lo) & ((coords < hi) | ((hi >= extent) & (coords <= hi)))


@pytest.mark.parametrize("spec,leaf", [(_family(name, 100), leaf)
                                       for name in ("binomial", "poisson", "chisq")
                                       for leaf in (1, 4, 32)]
                         + [(spec, 4) for spec in (
                             BinomialFamily(n=255, cols=193), BinomialFamily(n=5),
                             PoissonFamily(k_max=101, lambda_max=90.0, lambda_grid=90),
                             PoissonFamily(k_max=100, lambda_max=77.0, lambda_grid=119),
                             ChiSquaredFamily(x_max=333.0, x_grid=64, k_max=333),
                             ChiSquaredFamily(x_max=200.0, x_grid=128, k_max=256))])
def test_layout_boxes_follow_the_region_definition(spec, leaf):
    # rows: the interior rows whose p lies in the region's p-interval;
    # columns likewise in q.  Regions left out of the layout hold no pair.
    scheme, kmap, block_ranges, cell_ranges, _ = index_layout(spec, leaf_size=leaf)
    n_rows, n_cols = spec.shape
    interior_rows = ~np.isin(np.arange(n_rows), kmap.singular_rows)
    interior_cols = ~np.isin(np.arange(n_cols), kmap.singular_cols)
    extent = scheme.extent
    regions = {}
    for level in scheme.levels:
        w = 2.0 ** -level
        for k in range(round(extent / w)):
            q = k + 1 if k % 2 == 0 else k - 1
            regions["block", level, k] = (k * w, (k + 1) * w, q * w, (q + 1) * w)
    w = 2.0 ** -scheme.l_max
    for k in range(round(extent / w)):
        regions["cell", scheme.l_max, k] = (k * w, (k + 1) * w, k * w, (k + 1) * w)
    boxes = {("block", *region): box for region, box in block_ranges}
    boxes.update({("cell", *region): box for region, box in cell_ranges})
    assert len(boxes) == len(block_ranges) + len(cell_ranges)
    assert set(boxes) <= set(regions)
    for name, (p_lo, p_hi, q_lo, q_hi) in regions.items():
        rows = interior_rows & _on_interval(kmap.p_of_row, p_lo, p_hi, extent)
        cols = interior_cols & _on_interval(kmap.q_of_col, q_lo, q_hi, extent)
        if name not in boxes:
            assert not (rows.any() and cols.any()), name
            continue
        r0, r1, c0, c1 = boxes[name]
        assert all(type(b) is int for b in (r0, r1, c0, c1))
        assert np.array_equal(rows, (np.arange(n_rows) >= r0) & (np.arange(n_rows) < r1)), name
        assert np.array_equal(cols, (np.arange(n_cols) >= c0) & (np.arange(n_cols) < c1)), name


@pytest.mark.parametrize("leaf", [8, 32])
@pytest.mark.parametrize("spec", [_family(name, n) for name in ("binomial", "poisson", "chisq")
                                  for n in (5, 48, 1024)] + [BinomialFamily(n=255, cols=193)])
def test_block_ranges_disjoint_within_level(spec, leaf):
    # the stacked layout relies on it: one stack per (level, rank) has disjoint rows
    _, _, block_ranges, _, _ = index_layout(spec, leaf_size=leaf)
    by_level = {}
    for (level, _), box in block_ranges:
        by_level.setdefault(level, []).append(box)
    for boxes in by_level.values():
        for lo, hi in ((0, 1), (2, 3)):
            spans = sorted((b[lo], b[hi]) for b in boxes)
            assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:])), spans


MATVEC_CASES = [(spec, 8) for spec in SMALL_FAMILIES] + [(BinomialFamily(n=5), 2)]


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1.0])
@pytest.mark.parametrize("builder", [Builder.ACA, Builder.CONSTRUCTIVE])
@pytest.mark.parametrize("spec,leaf", MATVEC_CASES)
def test_matvec_matches_dense_and_loop(spec, leaf, builder, eps):
    h = compress(spec, eps, builder=builder, leaf_size=leaf)
    x = np.random.default_rng(6).uniform(0.5, 1.5, spec.shape[1])
    y = matvec(h, x)
    scale = np.max(np.abs(y))
    assert np.max(np.abs(y - h.to_dense() @ x)) <= 1e-14 * scale
    assert np.max(np.abs(y - _loop_matvec(h, x))) <= 1e-14 * scale


@pytest.mark.parametrize("eps", [1e-6, 1.0])
@pytest.mark.parametrize("spec,leaf", MATVEC_CASES)
def test_stacks_hold_the_pieces(spec, leaf, eps):
    h = compress(spec, eps, leaf_size=leaf)
    assert h.lowrank.dtype == LOWRANK_RECORD and h.dense.dtype == DENSE_RECORD
    stacks = h.layout.stacks
    # every table position sits in exactly one slot
    for table, dense in ((h.lowrank, False), (h.dense, True)):
        held = np.concatenate([s.piece for s in stacks if (s.right is None) == dense] or [[]])
        assert np.array_equal(np.sort(held), np.arange(len(table)))
    for rec, left, right in _pieces(h):
        r0, r1, c0, c1 = _box(rec)
        assert left.shape[0] == r1 - r0
        if right is None:
            assert left.shape[1] == c1 - c0
        else:
            assert right.shape == (c1 - c0, rec["rank"]) and left.shape[1] == rec["rank"]
    for s in stacks:
        # rows disjoint within a stack, and columns too
        for index, at, size in ((h.layout.row_index, s.rows, h.shape[0]),
                                (h.layout.col_index, s.cols, h.shape[1])):
            real = index[at][index[at] < size]
            assert len(np.unique(real)) == len(real)


def test_pieces_sharing_columns_go_to_separate_stacks():
    # three pieces of one (level, rank) with disjoint rows; the first and the
    # last share their columns, and are no neighbours in row order
    spec = BinomialFamily(n=63)
    boxes = [(0, 10, 30, 40), (10, 20, 50, 60), (20, 30, 30, 40)]
    table = np.array([(3, i, 2, *box) for i, box in enumerate(boxes)], dtype=LOWRANK_RECORD)
    layout = stack_pieces(spec.shape, table, np.zeros(0, dtype=DENSE_RECORD))
    rng = np.random.default_rng(4)
    for alpha, beta in zip(*[iter(payload_arrays(layout, table, np.zeros(0, dtype=DENSE_RECORD)))] * 2):
        alpha[...] = rng.uniform(size=alpha.shape)
        beta[...] = rng.uniform(size=beta.shape)
    for s in layout.stacks:
        cols = layout.col_index[s.cols]
        real = cols[cols < spec.shape[1]]
        assert len(np.unique(real)) == len(real)
    h = hmatrix.HMatrix(spec=spec, scheme=hmatrix.scheme_for(spec), eps=1e-6, builder=Builder.ACA,
                        lowrank=table, dense=np.zeros(0, dtype=DENSE_RECORD), layout=layout)
    ii, jj = np.meshgrid(np.arange(spec.shape[0]), np.arange(spec.shape[1]), indexing="ij")
    assert np.array_equal(reconstruct_entries(h, ii, jj), _loop_entries(h, ii, jj))
    assert np.count_nonzero(h.to_dense()) == 3 * 10 * 10


@pytest.mark.parametrize("builder", [Builder.ACA, Builder.CONSTRUCTIVE])
@pytest.mark.parametrize("spec,leaf", MATVEC_CASES)
def test_reconstruct_entries_matches_loop(spec, leaf, builder):
    h = compress(spec, 1e-9, builder=builder, leaf_size=leaf)
    rng = np.random.default_rng(8)
    # pairs outside the matrix included: they read 0
    ii = rng.integers(-1, spec.shape[0] + 1, 3000)
    jj = rng.integers(-1, spec.shape[1] + 1, 3000)
    assert np.array_equal(reconstruct_entries(h, ii, jj), _loop_entries(h, ii, jj))


@pytest.mark.parametrize("spec", SMALL_FAMILIES)
@pytest.mark.parametrize("builder", [Builder.ACA, Builder.CONSTRUCTIVE])
def test_dense_equivalence_small(spec, builder):
    eps = 1e-6
    h = compress(spec, eps, builder=builder, leaf_size=8)
    err = np.max(np.abs(h.to_dense() - dense_matrix(spec)))
    assert err <= 10.0 * eps


def test_stored_entries_matches_formula():
    h = compress(BinomialFamily(n=128), 1e-6, leaf_size=16)
    expected = 0
    for rank, r0, r1, c0, c1 in h.lowrank[["rank", "row_lo", "row_hi", "col_lo", "col_hi"]].tolist():
        expected += rank * ((r1 - r0) + (c1 - c0))
    for r0, r1, c0, c1 in h.dense[["row_lo", "row_hi", "col_lo", "col_hi"]].tolist():
        expected += (r1 - r0) * (c1 - c0)
    assert h.stored_entries == expected


def test_dense_only_mode_is_exact():
    from hlrd.families import entry_exact

    spec = PoissonFamily(k_max=24, lambda_max=24.0, lambda_grid=24)
    h = compress(spec, eps=1.0, leaf_size=8)
    assert len(h.lowrank) == 0
    ii, jj = np.meshgrid(np.arange(25), np.arange(24), indexing="ij")
    assert np.array_equal(h.to_dense(), entry_exact(spec, ii, jj))
    rep = verify(h, samples=500, seed=1)
    assert rep.max_abs_error == 0.0


def test_coarse_eps_small_ranks():
    h = compress(BinomialFamily(n=128), eps=0.5, leaf_size=16)
    assert h.lowrank["rank"].max(initial=0) <= 2
    rep = storage_report(h)
    assert rep.ratio < 0.6


def test_matvec_linearity_and_unit_vectors():
    spec = BinomialFamily(n=96)
    eps = 1e-8
    h = compress(spec, eps, leaf_size=12)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(spec.shape[1])
    y = rng.standard_normal(spec.shape[1])
    a, b = 1.7, -0.3
    lhs = matvec(h, a * x + b * y)
    rhs = a * matvec(h, x) + b * matvec(h, y)
    denom = np.linalg.norm(lhs)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, denom)

    assert np.array_equal(matvec(h, np.zeros(spec.shape[1])), np.zeros(spec.shape[0]))

    full = dense_matrix(spec)
    j = 17
    e = np.zeros(spec.shape[1])
    e[j] = 1.0
    assert np.max(np.abs(matvec(h, e) - full[:, j])) <= 10.0 * eps


def test_matvec_relative_error_poisson():
    spec = PoissonFamily(k_max=1024, lambda_max=1024.0, lambda_grid=1024)
    eps = 1e-9
    h = compress(spec, eps)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(spec.shape[1])
    y = matvec(h, x)
    y_dense = dense_matrix(spec) @ x
    assert np.linalg.norm(y - y_dense) / np.linalg.norm(y_dense) <= 5e-8


def test_matvec_dimension_mismatch():
    h = compress(BinomialFamily(n=32), 1e-6, leaf_size=8)
    with pytest.raises(ValueError):
        matvec(h, np.zeros(7))


def test_storage_monotone_in_eps():
    spec = BinomialFamily(n=256)
    stored = [compress(spec, eps).stored_entries
              for eps in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)]
    assert all(a >= b for a, b in zip(stored, stored[1:]))


def test_storage_report_fields():
    spec = BinomialFamily(n=256)
    h = compress(spec, 1e-6)
    rep = storage_report(h)
    assert rep.dense_equivalent == 257 * 256
    assert rep.stored_entries == h.stored_entries
    assert rep.ratio == pytest.approx(rep.stored_entries / rep.dense_equivalent)
    assert set(rep.per_level_ranks) == {1, 2, 3}
    assert rep.ratio < 0.5


def test_verify_matches_manual_sampling():
    spec = ChiSquaredFamily(x_max=64.0, x_grid=64, k_max=64)
    h = compress(spec, 1e-7, leaf_size=8)
    rep = verify(h, samples=4000, seed=9)
    assert rep.samples == 4000
    assert rep.max_abs_error <= 10.0 * 1e-7
    assert rep.rms_error <= rep.max_abs_error
    # every region of the tiling gets a sample, however few are asked for
    _, _, blocks, cells, strips = index_layout(spec, h.scheme)
    assert verify(h, samples=1).samples == len(blocks) + len(cells) + len(strips)


def test_verify_finds_one_wrong_block():
    # One block of a 2^12 matrix reads twice its entries.  Of the blocks with
    # an entry above 100 eps, the one with the fewest entries above 10 eps:
    # uniform samples over the whole matrix rarely land there, samples per
    # block always do.
    eps = 1e-6
    h = compress(BinomialFamily(n=2**12), eps, builder=Builder.CONSTRUCTIVE)
    worst = []
    for s in h.layout.stacks:
        for k, n in enumerate(s.piece.tolist() if s.right is not None else []):
            product = np.abs(s.left[k] @ s.right[k].T)
            if product.max() > 100 * eps:
                worst.append((int(np.sum(product > 10 * eps)), n, s, k))
    _, _, s, k = min(worst, key=lambda w: w[:2])
    assert verify(h, samples=10000).max_abs_error <= 10 * eps
    s.left[k] *= 2.0
    for seed in range(5):
        assert verify(h, samples=10000, seed=seed).max_abs_error > 10 * eps


def test_reconstruct_entries_against_dense():
    spec = PoissonFamily(k_max=60, lambda_max=60.0, lambda_grid=60)
    h = compress(spec, 1e-8, leaf_size=8)
    full = h.to_dense()
    rng = np.random.default_rng(12)
    ii = rng.integers(0, spec.shape[0], 300)
    jj = rng.integers(0, spec.shape[1], 300)
    np.testing.assert_allclose(reconstruct_entries(h, ii, jj), full[ii, jj],
                               rtol=0, atol=1e-14)


def test_compress_rejects_tiny_matrices():
    with pytest.raises(ValueError):
        compress(BinomialFamily(n=2, cols=3), 1e-6)


def test_binomial_1024_rank_bound():
    # production-size compression keeps every block rank small
    h = compress(BinomialFamily(n=1024), 1e-9)
    assert h.lowrank["rank"].max() <= 12
    rep = storage_report(h)
    assert rep.ratio <= 0.25
    chk = verify(h, samples=100000, seed=21)
    assert chk.max_abs_error <= 1e-7


def test_tiny_matrix_has_no_compression():
    # degenerate smallest case: factor storage cannot beat dense
    h = compress(PoissonFamily(k_max=3, lambda_max=4.0, lambda_grid=4), 1e-12, leaf_size=2)
    ratio = storage_report(h).ratio
    assert 0.9 <= ratio <= 1.5


# ---------------------------------------------------------------------------
# container round-trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", SMALL_FAMILIES)
def test_container_round_trip(spec, tmp_path):
    x = np.linspace(0.5, 1.5, spec.shape[1])
    for builder in Builder:
        for eps in (1e-6, 1.0):
            h = compress(spec, eps, builder=builder, leaf_size=8)
            path = tmp_path / f"{builder.value}.hlrd"
            save_hmatrix(h, path)
            g = load_hmatrix(path)
            assert g.shape == h.shape
            assert g.stored_entries == h.stored_entries
            assert np.array_equal(g.to_dense(), h.to_dense())
            # the loaded matrix multiplies bit for bit like the saved one
            assert np.array_equal(matvec(g, x), matvec(h, x))
            # compress and the loader assemble one layout from the same tables
            assert len(g.layout.stacks) == len(h.layout.stacks)
            for s, t in zip(g.layout.stacks, h.layout.stacks):
                assert s.left.shape == t.left.shape
                assert getattr(s.right, "shape", None) == getattr(t.right, "shape", None)
                assert np.array_equal(s.piece, t.piece)
                assert (s.rows, s.cols) == (t.rows, t.cols)
            assert np.array_equal(g.layout.row_index, h.layout.row_index)
            assert np.array_equal(g.layout.col_index, h.layout.col_index)
            r1 = verify(h, samples=2000, seed=7)
            r2 = verify(g, samples=2000, seed=7)
            assert r1 == r2
            again = tmp_path / "again.hlrd"
            save_hmatrix(g, again)
            assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("spec", SMALL_FAMILIES)
def test_container_length(spec, tmp_path):
    h = compress(spec, 1e-6, leaf_size=8)
    path = tmp_path / "h.hlrd"
    save_hmatrix(h, path)
    buf = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", buf, 5)
    payload = sum(left.size + (0 if right is None else right.size)
                  for _, left, right in _pieces(h))
    assert len(buf) == (9 + meta_len + 16 + 28 * len(h.lowrank) + 25 * len(h.dense)
                        + 8 * payload)


def _small_container(tmp_path):
    path = tmp_path / "small.hlrd"
    save_hmatrix(compress(BinomialFamily(n=16), 1e-6, leaf_size=4), path)
    return path, path.read_bytes()


def test_container_every_prefix_raises_value_error(tmp_path):
    _, buf = _small_container(tmp_path)
    cut = tmp_path / "cut.hlrd"
    for n in range(len(buf)):
        cut.write_bytes(buf[:n])
        with pytest.raises(ValueError):
            load_hmatrix(cut)


def _table_offsets(buf):
    """(offset of the low-rank table, NL, offset of the dense table, ND)."""
    (meta_len,) = struct.unpack_from("<I", buf, 5)
    off = 9 + meta_len
    _, _, n_lr, n_dn = struct.unpack_from("<IIII", buf, off)
    return off + 16, n_lr, off + 16 + 28 * n_lr, n_dn


def _with_meta(buf, edit):
    """``buf`` with ``edit`` applied to its JSON metadata, whose length may change."""
    (meta_len,) = struct.unpack_from("<I", buf, 5)
    meta = json.loads(buf[9:9 + meta_len])
    edit(meta)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    return buf[:5] + struct.pack("<I", len(meta_bytes)) + meta_bytes + buf[9 + meta_len:]


def _edit_u32(buf, offset, value):
    out = bytearray(buf)
    struct.pack_into("<I", out, offset, value)
    return bytes(out)


@pytest.mark.parametrize("case", ["lr-rows-reversed", "lr-cols-outside", "dn-rows-outside",
                                  "dn-cols-reversed", "rank-plus-one", "rank-huge",
                                  "unknown-tag", "trailing-byte", "too-many-pieces",
                                  "metadata-not-json", "metadata-missing-key",
                                  "eps-string", "eps-null", "eps-nan", "eps-zero",
                                  "eps-negative", "eps-bool", "lmax-bool", "lmax-float",
                                  "extent-true", "extent-int", "unknown-key", "cols-zero",
                                  "metadata-nested", "lmax-huge"])
def test_container_rejects_bad_tables(tmp_path, case):
    path, buf = _small_container(tmp_path)
    lr_at, n_lr, dn_at, n_dn = _table_offsets(buf)
    (meta_len,) = struct.unpack_from("<I", buf, 5)
    # low-rank entry fields: level, index, rank, row_lo, row_hi, col_lo, col_hi (4 bytes each);
    # dense entry fields: tag (1 byte), then level, index, row_lo, row_hi, col_lo, col_hi
    edits = {
        "lr-rows-reversed": lambda: _edit_u32(buf, lr_at + 16, 0),
        "lr-cols-outside": lambda: _edit_u32(buf, lr_at + 24, 17),
        "dn-rows-outside": lambda: _edit_u32(buf, dn_at + 13, 18),
        "dn-cols-reversed": lambda: _edit_u32(buf, dn_at + 17, 5),
        "rank-plus-one": lambda: _edit_u32(buf, lr_at + 8, struct.unpack_from("<I", buf, lr_at + 8)[0] + 1),
        "rank-huge": lambda: _edit_u32(buf, lr_at + 8, 2**32 - 1),
        "unknown-tag": lambda: buf[:dn_at] + bytes([7]) + buf[dn_at + 1:],
        "trailing-byte": lambda: buf + b"\0",
        "too-many-pieces": lambda: _edit_u32(buf, lr_at - 8, 10**6),
        "metadata-not-json": lambda: buf[:9] + b"{" * meta_len + buf[9 + meta_len:],
        "metadata-missing-key": lambda: buf[:9] + json.dumps(
            {k: v for k, v in json.loads(buf[9:9 + meta_len]).items() if k != "l_max"}
        ).encode().ljust(meta_len) + buf[9 + meta_len:],
        "eps-string": lambda: _with_meta(buf, lambda m: m.update(eps="1e-6")),
        "eps-null": lambda: _with_meta(buf, lambda m: m.update(eps=None)),
        "eps-nan": lambda: _with_meta(buf, lambda m: m.update(eps=float("nan"))),
        "eps-zero": lambda: _with_meta(buf, lambda m: m.update(eps=0)),
        "eps-negative": lambda: _with_meta(buf, lambda m: m.update(eps=-1)),
        "eps-bool": lambda: _with_meta(buf, lambda m: m.update(eps=True)),
        "lmax-bool": lambda: _with_meta(buf, lambda m: m.update(l_max=True)),
        "lmax-float": lambda: _with_meta(buf, lambda m: m.update(l_max=2.0)),
        # each of these loads a matrix that re-saves to other bytes
        "extent-true": lambda: _with_meta(buf, lambda m: m.update(extent=True)),
        "extent-int": lambda: _with_meta(buf, lambda m: m.update(extent=1)),
        "unknown-key": lambda: _with_meta(buf, lambda m: m.update(comment="")),
        "cols-zero": lambda: _with_meta(buf, lambda m: m["family_spec"].update(cols=0)),
        "metadata-nested": lambda: (buf[:5] + struct.pack("<I", 100_000) + b"[" * 100_000
                                    + buf[9 + meta_len:]),
        "lmax-huge": lambda: _with_meta(buf, lambda m: m.update(l_max=2**40)),
    }
    bad = tmp_path / "bad.hlrd"
    bad.write_bytes(edits[case]())
    assert bad.read_bytes() != buf
    with pytest.raises(ValueError):
        load_hmatrix(bad)


@pytest.mark.parametrize("spec", SMALL_FAMILIES + [BinomialFamily(n=16)])
def test_container_l_max_at_most_one_index_per_cell(spec, tmp_path):
    # leaf size 1 writes the finest level; one level finer does not load
    finest = scheme_for(spec, leaf_size=1).l_max
    h = compress(spec, 1e-6, leaf_size=1)
    assert h.scheme.l_max == finest
    path = tmp_path / "finest.hlrd"
    save_hmatrix(h, path)
    buf = path.read_bytes()
    assert load_hmatrix(path).scheme.l_max == finest
    path.write_bytes(_with_meta(buf, lambda m: m.update(l_max=finest + 1)))
    with pytest.raises(ValueError, match="l_max"):
        load_hmatrix(path)


def test_container_checks_sizes_before_forming_grids(tmp_path):
    # the coordinate grids of a 2^22-row Poisson family take 64 MiB
    n = 2**22
    path = tmp_path / "poisson.hlrd"
    save_hmatrix(compress(PoissonFamily(k_max=15, lambda_max=16.0, lambda_grid=16), 1e-6,
                          leaf_size=4), path)
    buf = _with_meta(path.read_bytes(), lambda m: m["family_spec"].update(
        k_max=n - 1, lambda_max=float(n), lambda_grid=n))
    lr_at, _, _, _ = _table_offsets(buf)
    # the header names one low-rank piece, whose record is missing
    path.write_bytes(buf[:lr_at - 16] + struct.pack("<IIII", n, n, 1, 0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated in the piece tables"):
            load_hmatrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _huge_poisson_container(path, dense: np.ndarray) -> None:
    """A 2^24-row Poisson container holding ``dense``'s records, each a 1 x 1 piece."""
    n = 2**24
    spec = PoissonFamily(k_max=n - 1, lambda_max=float(n), lambda_grid=n)
    meta = container._meta_bytes(spec, 1e-6, Builder.CONSTRUCTIVE,
                                 build_scheme(QuarterPlane(extent=float(n), l_max=0)))
    path.write_bytes(b"HLRD1" + struct.pack("<I", len(meta)) + meta
                     + struct.pack("<IIII", n, n, 0, dense.size) + dense.tobytes()
                     + np.ones(dense.size).tobytes())


def _load_peak(path) -> tuple[object, int]:
    """(the loaded matrix, or the ValueError raised, and the tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        try:
            got = load_hmatrix(path)
        except ValueError as exc:
            got = exc
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_container_without_pieces_forms_no_grids(tmp_path):
    # a 2^24-row Poisson header naming no piece: every size check passes,
    # and the family's coordinate grids would take hundreds of MiB
    path = tmp_path / "empty.hlrd"
    _huge_poisson_container(path, np.zeros(0, dtype=DENSE_RECORD))
    got, peak = _load_peak(path)
    assert isinstance(got, ValueError) and "no dense piece" in str(got)
    assert peak < 2**20


def test_container_l_max_bound_forms_no_grids(tmp_path):
    # one 1 x 1 row strip passes every check up to the l_max bound, which
    # reads the family's parameters, not its 2^24-point grids (384 MiB)
    strip = np.zeros(1, dtype=DENSE_RECORD)
    strip["tag"], strip["row_hi"], strip["col_hi"] = DENSE_TAGS.index("rows"), 1, 1
    path = tmp_path / "strip.hlrd"
    _huge_poisson_container(path, strip)
    got, peak = _load_peak(path)
    assert peak < 2**20
    assert not isinstance(got, ValueError) and got.stored_entries == 1


@pytest.mark.parametrize("leaf", [0, -4])
def test_leaf_size_below_one_rejected(leaf):
    spec = BinomialFamily(n=64)
    with pytest.raises(ValueError, match="leaf_size"):
        scheme_for(spec, leaf)
    with pytest.raises(ValueError, match="leaf_size"):
        index_layout(spec, leaf_size=leaf)
    with pytest.raises(ValueError, match="leaf_size"):
        compress(spec, 1e-6, builder=Builder.CONSTRUCTIVE, leaf_size=leaf)


def test_load_builds_no_scheme_regions(tmp_path, monkeypatch):
    path, _ = _small_container(tmp_path)
    h = compress(BinomialFamily(n=16), 1e-6, leaf_size=4)

    def fail(*args, **kwargs):
        raise AssertionError("load_hmatrix laid out the scheme")

    for module, name in ((hmatrix, "index_layout"), (hmatrix, "kernel_map"),
                         (families, "kernel_map")):
        monkeypatch.setattr(module, name, fail)
    g = load_hmatrix(path)
    assert ((g.scheme.extent, g.scheme.l_max, g.scheme.levels)
            == (h.scheme.extent, h.scheme.l_max, h.scheme.levels))


@pytest.mark.parametrize("builder", [Builder.ACA, Builder.CONSTRUCTIVE])
@pytest.mark.parametrize("spec", SMALL_FAMILIES)
def test_container_keeps_file_order(spec, builder, tmp_path):
    h = compress(spec, 1e-6, builder=builder, leaf_size=8)
    path = tmp_path / "h.hlrd"
    save_hmatrix(h, path)
    buf = path.read_bytes()
    lr_at, n_lr, dn_at, n_dn = _table_offsets(buf)
    table = np.frombuffer(buf, dtype=LOWRANK_RECORD, count=n_lr, offset=lr_at)
    sizes = 8 * table["rank"].astype(int) * (table["row_hi"].astype(int) - table["row_lo"]
                                             + table["col_hi"] - table["col_lo"])
    ends = dn_at + 25 * n_dn + np.cumsum(sizes)
    payloads = [buf[end - size:end] for size, end in zip(sizes, ends)]
    order = np.random.default_rng(2).permutation(n_lr)
    permuted = (buf[:lr_at] + table[order].tobytes() + buf[dn_at:ends[0] - sizes[0]]
                + b"".join(payloads[k] for k in order) + buf[ends[-1]:])
    assert permuted != buf and len(permuted) == len(buf)
    path.write_bytes(permuted)
    g = load_hmatrix(path)
    assert np.array_equal(g.lowrank, table[order])
    again = tmp_path / "again.hlrd"
    save_hmatrix(g, again)
    assert again.read_bytes() == permuted
    x = np.linspace(0.5, 1.5, spec.shape[1])
    assert np.array_equal(matvec(g, x), matvec(h, x))


def test_container_bytes_deterministic(tmp_path):
    spec = BinomialFamily(n=64)
    p1 = tmp_path / "a.hlrd"
    p2 = tmp_path / "b.hlrd"
    save_hmatrix(compress(spec, 1e-6, leaf_size=8), p1)
    save_hmatrix(compress(spec, 1e-6, leaf_size=8), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_container_magic_check(tmp_path):
    p = tmp_path / "bad.hlrd"
    p.write_bytes(b"NOTHLRD1 garbage")
    with pytest.raises(ValueError):
        load_hmatrix(p)


def _rewrite_family_meta(src, dst, edit):
    """Copy a container, applying ``edit`` to its family metadata."""
    dst.write_bytes(_with_meta(src.read_bytes(), lambda meta: edit(meta["family_spec"])))


@pytest.mark.parametrize("edit", [
    lambda fam: fam.update(family="gamma"),
    lambda fam: fam.pop("family"),
    lambda fam: fam.pop("cols"),
    lambda fam: fam.update(lambda_max=64.0),
    lambda fam: fam.update(n=64.0),
    lambda fam: fam.update(cols=64.0),
    lambda fam: fam.update(cols=False),
], ids=["unknown-name", "missing-name", "missing-field", "extra-field", "n-float", "cols-float",
        "cols-false"])
def test_container_rejects_bad_family_meta(tmp_path, edit):
    spec = BinomialFamily(n=64)
    path = tmp_path / "m.hlrd"
    save_hmatrix(compress(spec, 1e-6, leaf_size=8), path)
    _rewrite_family_meta(path, tmp_path / "same.hlrd", lambda fam: None)
    assert load_hmatrix(tmp_path / "same.hlrd").spec == spec
    bad = tmp_path / "bad.hlrd"
    _rewrite_family_meta(path, bad, edit)
    with pytest.raises(ValueError):
        load_hmatrix(bad)


def test_non_finite_eps_is_rejected_on_compress_save_and_load(tmp_path):
    spec = BinomialFamily(n=64)
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be positive"):
            compress(spec, eps, leaf_size=8)
    h = compress(spec, 1e-6, leaf_size=8)
    path = tmp_path / "m.hlrd"
    save_hmatrix(h, path)
    # a container whose metadata says "eps": Infinity
    bad = tmp_path / "inf.hlrd"
    bad.write_bytes(_with_meta(path.read_bytes(), lambda meta: meta.update(eps=math.inf)))
    with pytest.raises(ValueError, match="eps"):
        load_hmatrix(bad)
    # nor does the writer emit one
    h.eps = math.inf
    with pytest.raises(ValueError):
        save_hmatrix(h, tmp_path / "out.hlrd")
    assert not (tmp_path / "out.hlrd").exists()


# values a metadata edit sets a key to: wrong types, JSON look-alikes of
# the written values, out-of-range numbers
_META_POOL = (None, True, False, 0, 1, -1, 2, 16, 16.0, 1.0, 0.5, 2.0 ** -20, 2 ** 40,
              math.nan, math.inf, "", "16", "aca", [], {}, {"n": 16})
_META_EDITS = [("delete", None), ("add", None)] + [("set", v) for v in _META_POOL]


@pytest.fixture(scope="module")
def meta_fuzz(tmp_path_factory):
    """Per family: a directory, the bytes of a small container and its product with ``x``."""
    where = tmp_path_factory.mktemp("meta-fuzz")
    out = {}
    for name in ("binomial", "poisson", "chisq"):
        h = compress(_family(name, 16), 1e-6, leaf_size=4)
        save_hmatrix(h, where / "h.hlrd")
        out[name] = (where, (where / "h.hlrd").read_bytes(), matvec(h, np.arange(1.0, 17.0)))
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(["binomial", "poisson", "chisq"]), data=st.data())
def test_metadata_edit_raises_value_error_or_round_trips(meta_fuzz, name, data):
    where, buf, y = meta_fuzz[name]
    (meta_len,) = struct.unpack_from("<I", buf, 5)
    meta = json.loads(buf[9:9 + meta_len])
    keys = [(k,) for k in meta] + [("family_spec", k) for k in meta["family_spec"]]
    *parents, key = data.draw(st.sampled_from(keys))
    op, value = data.draw(st.sampled_from(_META_EDITS))

    def edit(m):
        for k in parents:
            m = m[k]
        if op == "delete":
            del m[key]
        elif op == "add":
            m[key + "_extra"] = m[key]
        else:
            m[key] = value

    path = where / "edited.hlrd"
    path.write_bytes(_with_meta(buf, edit))
    try:
        g = load_hmatrix(path)
    except ValueError:
        return
    save_hmatrix(g, where / "again.hlrd")
    assert (where / "again.hlrd").read_bytes() == path.read_bytes()
    assert np.array_equal(matvec(g, np.arange(1.0, 17.0)), y)


# ---------------------------------------------------------------------------
# properties over small matrices
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None, derandomize=True)
@given(name=st.sampled_from(["binomial", "poisson", "chisq"]), n=st.integers(5, 80),
       leaf=st.sampled_from([2, 3, 5, 8, 16, 32]), eps=st.sampled_from([1e-3, 1e-6, 1e-9, 1.0]),
       builder=st.sampled_from(list(Builder)))
def test_tables_tile_count_and_round_trip(tmp_path_factory, name, n, leaf, eps, builder):
    spec = _family(name, n)
    # the scheme's blocks, cells and strips tile the matrix; the pieces, each
    # on its block's threshold box, own each pair at most once
    tiles = _coverage_counts(spec, leaf)
    assert np.all(tiles == 1), f"tiling breaks at {np.argwhere(tiles != 1)[:5]}"
    h = compress(spec, eps, builder=builder, leaf_size=leaf)
    counts = np.zeros(spec.shape, dtype=int)
    for table in (h.lowrank, h.dense):
        for r0, r1, c0, c1 in table[["row_lo", "row_hi", "col_lo", "col_hi"]].tolist():
            counts[r0:r1, c0:c1] += 1
    assert np.all(counts <= 1), f"ownership breaks at {np.argwhere(counts > 1)[:5]}"
    assert h.stored_entries == sum(left.size + (0 if right is None else right.size)
                                   for _, left, right in _pieces(h))
    path = tmp_path_factory.mktemp("roundtrip") / "h.hlrd"
    save_hmatrix(h, path)
    again = path.with_name("again.hlrd")
    save_hmatrix(load_hmatrix(path), again)
    assert again.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# low-rank pieces on their threshold boxes
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["binomial", "poisson", "chisq"]), n=st.integers(5, 64),
       leaf=st.sampled_from([2, 8]), eps=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
       builder=st.sampled_from(list(Builder)))
def test_pieces_sit_on_their_threshold_boxes(name, n, leaf, eps, builder):
    spec = _family(name, n)
    h = compress(spec, eps, builder=builder, leaf_size=leaf)
    counts = np.zeros(spec.shape, dtype=int)
    for rec, _, _ in _pieces(h):
        r0, r1, c0, c1 = _box(rec)
        counts[r0:r1, c0:c1] += 1
    assert np.all(counts <= 1), f"pairs owned twice at {np.argwhere(counts > 1)[:5]}"

    _, _, block_ranges, cell_ranges, strips = index_layout(spec, leaf_size=leaf)
    cells = ([(0, *cell, *box) for cell, box in cell_ranges]
             + [(DENSE_TAGS.index(tag), 0, 0, *box) for tag, box in strips])
    assert sorted(h.dense.tolist()) == sorted(cells)
    block_box = dict(block_ranges)
    assert len(h.lowrank) == len(block_box)
    for rec, left, right in _pieces(h):
        if right is None:
            continue
        region = (int(rec["level"]), int(rec["index"]))
        # the block's threshold box, or its whole box at rank 0 when that is empty
        _assert_threshold_box(spec, eps, region, block_box[region], _box(rec), int(rec["rank"]))
        if left.any() and right.any():
            # tight: no factor row inside the box underflows to zero at either end
            assert left[[0, -1]].any(axis=1).all() and right[[0, -1]].any(axis=1).all()


@pytest.mark.parametrize("eps", [1e-6, 1e-9])
def test_binomial_constructive_blocks_from_one_cross_factor(eps, monkeypatch):
    def no_product(*args, **kwargs):
        raise AssertionError("build_product called")

    monkeypatch.setattr(hmatrix, "build_product", no_product)
    monkeypatch.setattr(separated, "build_product", no_product)
    spec = BinomialFamily(n=2**10)
    kmap = families.kernel_map(spec)
    h = compress(spec, eps, builder=Builder.CONSTRUCTIVE)
    exact, approx = dense_matrix(spec), h.to_dense()
    _, _, block_ranges, _, _ = index_layout(spec)
    for region, (r0, r1, c0, c1) in block_ranges:
        # every entry of the block, the part outside its piece's box included
        err = np.max(np.abs(approx[r0:r1, c0:c1] - exact[r0:r1, c0:c1]))
        assert err <= 10.0 * eps, (region, err / eps)
    for rec, _, right in _pieces(h):
        if right is None or rec["rank"] == 0:
            continue
        r0, r1, c0, c1 = _box(rec)
        p, q = np.meshgrid(kmap.p_of_row[r0:r1], kmap.q_of_col[c0:c1], indexing="ij")
        kernel = np.exp(-kmap.n_eff * divergence(DivergenceKind.BERNOULLI, p, q))
        svd_rank = numerical_rank(kernel, eps, RankConvention.ABSOLUTE)
        assert rec["rank"] <= svd_rank + 1, (int(rec["level"]), int(rec["index"]), svd_rank)


@pytest.mark.parametrize("name", ["binomial", "poisson", "chisq"])
def test_constructive_compress_masks_once_and_recompresses_each_box(name, monkeypatch):
    # one threshold_masks call finds the boxes; each level's builder masks its grids
    # with the exponents of its own split; then one _recompress per block with a nonempty box
    spec, eps = _family(name, 2**10), 1e-9
    _, kmap, block_ranges, _, _ = index_layout(spec)
    built = sum(box is not None for box in hmatrix._threshold_boxes(kmap, block_ranges, eps))
    masks, recompressed = [], []
    real_masks, real_recompress = separated.threshold_masks, separated._recompress

    def masking(*args):
        masks.append(args[0])
        return real_masks(*args)

    def recompressing(alpha, beta, threshold):
        recompressed.append(alpha.shape)
        return real_recompress(alpha, beta, threshold)

    monkeypatch.setattr(separated, "threshold_masks", masking)
    monkeypatch.setattr(hmatrix, "threshold_masks", masking)
    monkeypatch.setattr(separated, "_recompress", recompressing)
    h = compress(spec, eps, builder=Builder.CONSTRUCTIVE)
    assert len(masks) == 1
    assert len(recompressed) == built == int(np.count_nonzero(h.lowrank["rank"])) > 50


def test_builder_error_names_the_block(monkeypatch):
    # the fifth block built is the third of level 2: the error is raised inside a
    # level call and names the block by level, index and box
    spec, eps = BinomialFamily(n=2**10), 1e-9
    _, kmap, block_ranges, _, _ = index_layout(spec)
    built = [(region, box) for (region, _), box
             in zip(block_ranges, hmatrix._threshold_boxes(kmap, block_ranges, eps))
             if box is not None]
    calls = []
    real_degree = separated._cross_degree

    def failing(w, e):
        calls.append(w)
        if len(calls) == 5:
            raise separated.BuilderError("cross-factor degree cap exceeded")
        return real_degree(w, e)

    monkeypatch.setattr(separated, "_cross_degree", failing)
    with pytest.raises(separated.BuilderError) as info:
        compress(spec, eps, builder=Builder.CONSTRUCTIVE)
    (level, index), (r0, r1, c0, c1) = built[4]
    assert level == 2
    assert str(info.value) == (f"builder failed on block level={level} index={index} "
                               f"rows [{r0},{r1}) cols [{c0},{c1}): "
                               "cross-factor degree cap exceeded")


# ---------------------------------------------------------------------------
# the threshold box
# ---------------------------------------------------------------------------

def _box_exponents(spec, region, block):
    """Reference: each row's and column's one-sided exponent of the kernel split at the corner.

    In a rate kernel's unit configuration (corner c, n' = n_eff c) the
    rate-p axis has ``n' rate(p/c || 1)`` and the rate-q axis
    ``n' rate(1 || q/c)``, here from ``divergence``; the chi-squared kernel
    is the dual, whose rate-p axis is the columns.  The binomial kernel
    splits at its block's diagonal corner c: rows ``n KL(p || c)``, columns
    ``n KL(c || q)``.
    """
    kmap = families.kernel_map(spec)
    r0, r1, c0, c1 = block
    (p_lo, _), (q_lo, _) = Block(*region).p_interval, Block(*region).q_interval
    p, q, corner = kmap.p_of_row[r0:r1], kmap.q_of_col[c0:c1], max(p_lo, q_lo)
    if kmap.kind is DivergenceKind.BERNOULLI:
        return (kmap.n_eff * divergence(DivergenceKind.BERNOULLI, p, corner),
                kmap.n_eff * divergence(DivergenceKind.BERNOULLI, corner, q))
    n_scaled = kmap.n_eff * corner
    to_one = n_scaled * divergence(DivergenceKind.RATE, np.append(p, q) / corner, 1.0)
    from_one = n_scaled * divergence(DivergenceKind.RATE, 1.0, np.append(p, q) / corner)
    if kmap.kind is DivergenceKind.RATE_DUAL:
        return from_one[:p.size], to_one[p.size:]
    return to_one[:p.size], from_one[p.size:]


def _assert_threshold_box(spec, eps, region, block, box, rank):
    """``box`` is the block's threshold box: every row and column of it lies inside, and every
    row and column of the block that lies clearly inside is in it; or, at rank 0, the block's
    box when no row or no column lies inside."""
    rows, cols = _box_exponents(spec, region, block)
    level = math.log(1.0 / eps)
    b0, _, d0, _ = block
    r0, r1, c0, c1 = box
    if rank == 0 and box == block and (rows.min() > level or cols.min() > level):
        return
    assert np.all(rows[r0 - b0:r1 - b0] <= level * (1 + 1e-9)), (region, box)
    assert np.all(cols[c0 - d0:c1 - d0] <= level * (1 + 1e-9)), (region, box)
    inside_rows = np.flatnonzero(rows < level * (1 - 1e-9)) + b0
    inside_cols = np.flatnonzero(cols < level * (1 - 1e-9)) + d0
    assert np.all((r0 <= inside_rows) & (inside_rows < r1)), (region, box)
    assert np.all((c0 <= inside_cols) & (inside_cols < c1)), (region, box)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(["binomial", "poisson", "chisq"]), n=st.integers(8, 96),
       leaf=st.sampled_from([2, 4, 8]), eps=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]))
def test_pieces_lie_in_the_threshold_box_and_meet_the_bound(name, n, leaf, eps):
    # Both builders store each block only inside its threshold box, both
    # regimes and every kernel kind (binomial: rate times reflected rate,
    # Poisson: rate, chi-squared: dual) included; what the box leaves out is
    # below eps times the exact prefactor, and every block stays within 10 eps.
    spec = _family(name, n)
    kmap = families.kernel_map(spec)
    exact = dense_matrix(spec)
    level = math.log(1.0 / eps)
    _, _, block_ranges, _, _ = index_layout(spec, leaf_size=leaf)
    for region, (b0, b1, d0, d1) in block_ranges:
        rows, cols = _box_exponents(spec, region, (b0, b1, d0, d1))
        outside = (rows[:, None] > level) | (cols[None, :] > level)
        if kmap.prefactor_axis == "row":
            bound = eps * np.exp(kmap.exact_log_prefactor[b0:b1])[:, None]
        else:
            bound = eps * np.exp(kmap.exact_log_prefactor[d0:d1])[None, :]
        block = exact[b0:b1, d0:d1]
        assert np.all(block[outside] <= (1 + 1e-9) * np.broadcast_to(bound, block.shape)[outside])

    block_box = dict(block_ranges)
    for builder in Builder:
        h = compress(spec, eps, builder=builder, leaf_size=leaf)
        err = np.abs(h.to_dense() - exact)
        for rec, left, right in _pieces(h):
            if right is None:
                continue
            region = (int(rec["level"]), int(rec["index"]))
            b0, b1, d0, d1 = block = block_box[region]
            assert err[b0:b1, d0:d1].max() <= 10.0 * eps, (builder, region)
            if left.any() and right.any():
                rows, cols = _box_exponents(spec, region, block)
                r0, r1, c0, c1 = _box(rec)
                assert np.all(rows[r0 - b0:r1 - b0] <= level * (1 + 1e-9)), (builder, region)
                assert np.all(cols[c0 - d0:c1 - d0] <= level * (1 + 1e-9)), (builder, region)


def test_empty_threshold_box_gives_rank_zero_without_oracle_calls(monkeypatch):
    # five columns against 257 rows: some blocks have no column near their corner
    spec, eps, leaf = BinomialFamily(n=256, cols=5), 1e-6, 8
    _, _, block_ranges, _, _ = index_layout(spec, leaf_size=leaf)
    level = math.log(1.0 / eps)
    empty = {region: box for region, box in block_ranges
             if max(a.min() for a in _box_exponents(spec, region, box)) > level}
    assert empty
    asked = []   # every (row, col) pair an oracle is asked for, in matrix indices
    real_oracle = hmatrix.block_oracle

    def recording(spec, r0, r1, c0, c1):
        oracle = real_oracle(spec, r0, r1, c0, c1)

        def asking(i, j):
            ii, jj = np.broadcast_arrays(i, j)
            asked.append(np.stack([ii.ravel() + r0, jj.ravel() + c0], axis=1))
            return oracle(i, j)
        return asking

    monkeypatch.setattr(hmatrix, "block_oracle", recording)
    h = compress(spec, eps, builder=Builder.ACA, leaf_size=leaf)
    for rec in h.lowrank:
        region = (int(rec["level"]), int(rec["index"]))
        if region in empty:
            assert int(rec["rank"]) == 0 and _box(rec) == empty[region]
    i, j = np.concatenate(asked).T
    for b0, b1, d0, d1 in empty.values():
        assert not np.any((b0 <= i) & (i < b1) & (d0 <= j) & (j < d1))
    assert np.max(np.abs(h.to_dense() - dense_matrix(spec))) <= 10.0 * eps


def test_aca_requests_on_the_threshold_box(monkeypatch):
    # ACA on the whole blocks asked for 2.62 M entries here; the count includes
    # the entries read past each block's extent in the lockstep index grids
    requested = [0]
    real_aca = hmatrix.aca_blocks

    def counting(oracle, boxes, eps, first_rows=None):
        def counted(i, j):
            requested[0] += int(np.prod(np.broadcast_shapes(np.shape(i), np.shape(j))))
            return oracle(i, j)
        return real_aca(counted, boxes, eps, first_rows)

    monkeypatch.setattr(hmatrix, "aca_blocks", counting)
    compress(BinomialFamily(n=2**12), 1e-6, builder=Builder.ACA)
    assert 0 < requested[0] < 2.62e6 / 2


@pytest.mark.parametrize("name,eps,stored", [
    ("binomial", 1e-6, 167_351), ("binomial", 1e-9, 218_670),
    ("poisson", 1e-6, 177_380), ("poisson", 1e-9, 231_541),
    ("chisq", 1e-6, 189_288), ("chisq", 1e-9, 239_600),
])
def test_aca_stored_entries_at_2048(name, eps, stored):
    # ACA's pivot sequence sets every rank: a pivot that moves changes these counts
    h = compress(_family(name, 2**11), eps, builder=Builder.ACA)
    assert storage_report(h).stored_entries == stored


@pytest.mark.parametrize("name", ["poisson", "chisq"])
def test_aca_ranks_stay_small_at_eps_1e_12(name):
    # the paper's ranks, linear in ln(1/eps), also where eps nears the
    # entries' rounding: with entries whose relative error grows like
    # u k ln(lambda), ACA fitted that noise here, up to rank 47 (Poisson)
    h = compress(_family(name, 2**12), 1e-12, builder=Builder.ACA)
    assert 0 < int(h.lowrank["rank"].max()) <= 16


@pytest.mark.parametrize("name,eps,stored,unit_kernel", [
    ("binomial", 1e-6, 149_596, 180_589), ("binomial", 1e-9, 198_652, 230_796),
    ("poisson", 1e-6, 157_068, 183_542), ("poisson", 1e-9, 207_646, 234_472),
    ("chisq", 1e-6, 164_815, 193_871), ("chisq", 1e-9, 217_096, 248_695),
])
def test_constructive_stored_entries_at_2048(name, eps, stored, unit_kernel):
    # each block is truncated at eps with the exact prefactor folded in: fewer entries
    # than truncating the unit kernel at eps and multiplying the prefactor in after stored
    h = compress(_family(name, 2**11), eps, builder=Builder.CONSTRUCTIVE)
    assert storage_report(h).stored_entries == stored < unit_kernel


@pytest.mark.parametrize("eps", [1e-6, 1e-9])
@pytest.mark.parametrize("name", ["binomial", "poisson", "chisq"])
@pytest.mark.parametrize("builder", list(Builder))
def test_matvec_rows_against_the_dense_product_at_2048(builder, name, eps):
    # every row of the product, not a sample: relative error <= 50 eps
    spec = _family(name, 2**11)
    x = np.random.default_rng(3).uniform(0.5, 1.5, spec.shape[1])
    ref = dense_matrix(spec) @ x
    rel = np.abs(matvec(compress(spec, eps, builder=builder), x) - ref) / ref
    assert np.all(ref > 0.0) and np.max(rel) <= 50.0 * eps


@pytest.mark.parametrize("name", ["binomial", "poisson", "chisq"])
def test_constructive_pieces_at_eps_0_9_are_rank_zero(name, tmp_path):
    # truncated in entry space (entries at most 1/2), no block keeps a singular value
    # above eps: each piece is rank 0 on its box, which the unit kernel (up to 1) did
    # not give, and the matrix is its dense pieces, bit for bit through save and load
    spec, eps = _family(name, 2**8), 0.9
    h = compress(spec, eps, builder=Builder.CONSTRUCTIVE)
    assert len(h.lowrank) > 0 and not h.lowrank["rank"].any()
    panel_check.assert_within(panel_check.block_errors(h), eps)
    save_hmatrix(h, tmp_path / "h.hlrd")
    g = load_hmatrix(tmp_path / "h.hlrd")
    x = np.linspace(0.5, 1.5, spec.shape[1])
    assert g.lowrank.tobytes() == h.lowrank.tobytes()
    assert matvec(g, x).tobytes() == matvec(h, x).tobytes()


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("n", [2**8, 2**11])
@pytest.mark.parametrize("name", ["binomial", "poisson", "chisq"])
@pytest.mark.parametrize("builder", list(Builder))
def test_every_block_entry_meets_the_contract(builder, name, n, eps):
    # every entry of every block, the piece rebuilt from its own factors inside its box
    # and 0 outside, <= 10 eps; dense pieces hold the exact entries bit for bit
    h = compress(_family(name, n), eps, builder=builder)
    errors = panel_check.block_errors(h)
    assert len(errors) == len(h.lowrank)
    panel_check.assert_within(errors, eps)
    assert panel_check.dense_mismatches(h) == []


def test_exhaustive_check_names_a_perturbed_block():
    # one factor of one block scaled by 1 + 1e-3: the check fails on that block by name
    eps = 1e-9
    h = compress(_family("poisson", 2**11), eps, builder=Builder.CONSTRUCTIVE)
    panel_check.assert_within(panel_check.block_errors(h), eps)
    slots = payload_arrays(h.layout, h.lowrank, h.dense)
    k = len(h.lowrank) // 2
    while not h.lowrank["rank"][k]:
        k += 1
    slots[2 * k + 1][...] *= 1.0 + 1e-3
    level, index = int(h.lowrank["level"][k]), int(h.lowrank["index"][k])
    with pytest.raises(AssertionError, match=rf"block level={level} index={index} error"):
        panel_check.assert_within(panel_check.block_errors(h), eps)


@pytest.fixture(scope="module")
def byte_fuzz(tmp_path_factory):
    """A directory, the bytes of a small container with pieces on threshold boxes smaller than
    their blocks, and its u32 field offsets."""
    spec = BinomialFamily(n=16)
    h = compress(spec, 1e-6, builder=Builder.CONSTRUCTIVE, leaf_size=4)
    _, _, block_ranges, _, _ = index_layout(spec, leaf_size=4)
    assert {tuple(b) for b in table_boxes(h.lowrank).tolist()} - {b for _, b in block_ranges}
    where = tmp_path_factory.mktemp("byte-fuzz")
    save_hmatrix(h, where / "h.hlrd")
    buf = (where / "h.hlrd").read_bytes()
    lr_at, n_lr, dn_at, n_dn = _table_offsets(buf)
    # the metadata length, the header counts, and every field of both tables
    fields = ([5] + list(range(lr_at - 16, lr_at, 4))
              + [lr_at + 28 * i + 4 * k for i in range(n_lr) for k in range(7)]
              + [dn_at + 25 * i + 1 + 4 * k for i in range(n_dn) for k in range(6)])
    return where, buf, fields


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_byte_edit_or_truncation_raises_value_error_or_round_trips(byte_fuzz, data):
    where, buf, fields = byte_fuzz
    edited = bytearray(buf)
    for at, value in data.draw(st.lists(st.tuples(st.integers(0, len(buf) - 1),
                                                  st.integers(0, 255)), max_size=3)):
        edited[at] = value
    values = st.one_of(st.integers(0, 40), st.sampled_from([2**31 - 1, 2**31, 2**32 - 1]))
    for at, value in data.draw(st.lists(st.tuples(st.sampled_from(fields), values), max_size=3)):
        struct.pack_into("<I", edited, at, value)
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(buf) - 1)))
    edited = bytes(edited[:cut]) + data.draw(st.binary(max_size=16))
    path = where / "edited.hlrd"
    path.write_bytes(edited)
    try:
        g = load_hmatrix(path)
    except ValueError:
        return
    save_hmatrix(g, where / "again.hlrd")
    assert (where / "again.hlrd").read_bytes() == edited
