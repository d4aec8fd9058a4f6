"""Hierarchical assembly: ownership, accuracy, matvec, storage, container."""

import numpy as np
import pytest

from hlrd.container import load_hmatrix, save_hmatrix
from hlrd.families import BinomialFamily, ChiSquaredFamily, PoissonFamily, dense_matrix
from hlrd.hmatrix import (
    Builder,
    compress,
    index_layout,
    matvec,
    reconstruct_entries,
    storage_report,
    verify,
)

SMALL_FAMILIES = [
    BinomialFamily(n=48),
    PoissonFamily(k_max=48, lambda_max=48.0, lambda_grid=48),
    ChiSquaredFamily(x_max=48.0, x_grid=48, k_max=48),
]


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
    for p in h.lowrank:
        expected += p.rank * ((p.row_hi - p.row_lo) + (p.col_hi - p.col_lo))
    for p in h.dense:
        expected += (p.row_hi - p.row_lo) * (p.col_hi - p.col_lo)
    assert h.stored_entries == expected


def test_dense_only_mode_is_exact():
    from hlrd.families import entry_exact

    spec = PoissonFamily(k_max=24, lambda_max=24.0, lambda_grid=24)
    h = compress(spec, eps=1.0, leaf_size=8)
    assert not h.lowrank
    ii, jj = np.meshgrid(np.arange(25), np.arange(24), indexing="ij")
    assert np.array_equal(h.to_dense(), entry_exact(spec, ii, jj))
    rep = verify(h, samples=500, seed=1)
    assert rep.max_abs_error == 0.0


def test_coarse_eps_small_ranks():
    h = compress(BinomialFamily(n=128), eps=0.5, leaf_size=16)
    assert max((p.rank for p in h.lowrank), default=0) <= 2
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
    assert rep.max_abs_error <= 10.0 * 1e-7
    assert rep.rms_error <= rep.max_abs_error


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
    assert max(p.rank for p in h.lowrank) <= 12
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
        h = compress(spec, 1e-6, builder=builder, leaf_size=8)
        path = tmp_path / f"{builder.value}.hlrd"
        save_hmatrix(h, path)
        g = load_hmatrix(path)
        assert g.shape == h.shape
        assert g.stored_entries == h.stored_entries
        assert np.array_equal(g.to_dense(), h.to_dense())
        # the loaded matrix multiplies bit for bit like the saved one
        assert np.array_equal(matvec(g, x), matvec(h, x))
        r1 = verify(h, samples=2000, seed=7)
        r2 = verify(g, samples=2000, seed=7)
        assert r1 == r2


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
