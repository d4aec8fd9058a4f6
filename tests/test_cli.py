"""CLI commands: schemas, provenance, determinism, exit codes."""

import dataclasses
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hlrd import cli, hmatrix, separated
from hlrd.cli import main
from hlrd.families import (BinomialFamily, ChiSquaredFamily, PoissonFamily, block_oracle,
                           dense_matrix, entry_exact)
from hlrd.hmatrix import index_layout


def run(args):
    return main(args)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_rank_map_schema_and_bound(tmp_path):
    out = tmp_path / "rm.csv"
    rc = run(["rank-map", "--family", "binomial", "--n", "128",
              "--eps", "1e-6", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["level", "index", "row_lo", "row_hi", "col_lo", "col_hi",
                      "svd_rank", "aca_rank"]
    assert all(len(r) == 8 for r in rows)
    assert max(int(r[6]) for r in rows) <= 10
    prov = json.loads((tmp_path / "rm.csv.json").read_text())
    assert prov["command"] == "rank-map"
    assert prov["parameters"]["eps"] == 1e-6
    assert "artifact_version" in prov and "seed" in prov


def test_rank_map_coarse_eps_small_ranks(tmp_path):
    out = tmp_path / "rm.csv"
    assert run(["rank-map", "--family", "poisson", "--kmax", "96", "--lambda-max", "96",
                "--eps", "0.9", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert max(int(r[6]) for r in rows) <= 2


def test_eps_sweep_schema_and_monotone(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["eps-sweep", "--family", "binomial", "--n", "128", "--out", str(out)]
    for t in range(3, 10):
        args += ["--eps", f"1e-{t}"]
    assert run(args) == 0
    header, rows = read_csv(out)
    assert header == ["eps", "max_rank"]
    eps = [float(r[0]) for r in rows]
    ranks = [int(r[1]) for r in rows]
    assert eps == sorted(eps)
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))  # non-increasing in eps


def test_eps_sweep_single_point_matches_rank_map(tmp_path):
    sweep = tmp_path / "s.csv"
    rmap = tmp_path / "r.csv"
    base = ["--family", "chisq", "--xmax", "96", "--kmax", "96", "--eps", "1e-8"]
    assert run(["eps-sweep", *base, "--out", str(sweep)]) == 0
    assert run(["rank-map", *base, "--out", str(rmap)]) == 0
    _, srows = read_csv(sweep)
    _, rrows = read_csv(rmap)
    assert int(srows[0][1]) == max(int(r[6]) for r in rrows)


GOLDEN = Path(__file__).resolve().parent / "data"
FAMILY_FLAGS_128 = {
    "binomial": ["--family", "binomial", "--n", "128"],
    "poisson": ["--family", "poisson", "--kmax", "128", "--lambda-max", "128", "--grid", "128"],
    "chisq": ["--family", "chisq", "--xmax", "128", "--grid", "128", "--kmax", "128"],
}


@pytest.mark.parametrize("family", list(FAMILY_FLAGS_128))
@pytest.mark.parametrize("command,eps", [
    ("rank-map", ["--eps", "1e-9"]),
    ("eps-sweep", [a for t in range(3, 13) for a in ("--eps", f"1e-{t}")]),
])
def test_rank_commands_match_golden_csv(tmp_path, command, eps, family):
    # the paper's per-block ranks and their growth in ln(1/eps), pinned byte
    # for byte at n = 128 and at the benchmark's n = 1024: an oracle, layout,
    # box or writer change cannot move them silently
    for n in (128, 1024):
        name = f"{command}-{family}-{n}.csv"
        out = tmp_path / name
        flags = [f.replace("128", str(n)) for f in FAMILY_FLAGS_128[family]]
        assert run([command, *flags, *eps, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("command,family", [
    ("eps-sweep", "binomial"), ("eps-sweep", "poisson"), ("eps-sweep", "chisq"),
    ("rank-map", "chisq"),
])
def test_rank_commands_match_golden_csv_at_4096(tmp_path, command, family):
    # at n = 2^12 about half the blocks are counted from the certified range sketch
    # (at 128 and 1024 most blocks are small enough for the SVD alone); the files
    # were written by the support SVD before the sketch existed
    eps = (["--eps", "1e-9"] if command == "rank-map"
           else [a for t in range(3, 13) for a in ("--eps", f"1e-{t}")])
    name = f"{command}-{family}-4096.csv"
    out = tmp_path / name
    flags = [f.replace("128", "4096") for f in FAMILY_FLAGS_128[family]]
    assert run([command, *flags, *eps, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes(), name
    counts = json.loads((tmp_path / f"{name}.json").read_text())["parameters"]["result"]
    assert counts["sketch_certified_blocks"] > 0 and counts["svd_blocks"] > 0
    assert counts["sketch_certified_blocks"] + counts["svd_blocks"] == 254


U = 2.0 ** -53
FAMILY_SPECS = {
    "binomial": lambda n: BinomialFamily(n=n),
    "poisson": lambda n: PoissonFamily(k_max=n, lambda_max=float(n), lambda_grid=n),
    "chisq": lambda n: ChiSquaredFamily(x_max=float(n), x_grid=n, k_max=n),
}


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_spectrum_box_leaves_out_half_the_budget(family, n):
    # every block gets a box; what the box leaves out of the whole block has
    # Frobenius norm at most (u/2) ||A_box||_F, and the box's spectrum is the
    # whole block's to within u ||A||_F, plus the SVDs' own rounding (up to
    # 5.4 u ||A||_F between singular_values and the full SVD on chi-squared
    # 2^10), with the same rank at every eps the commands take
    spec = FAMILY_SPECS[family](n)
    _, kmap, block_ranges, _, _ = index_layout(spec)
    boxes = hmatrix._spectrum_boxes(spec, kmap, block_ranges)
    full = dense_matrix(spec)
    spectra = hmatrix.block_spectra(spec, kmap, block_ranges)
    for ((region, (r0, r1, c0, c1)), box, s) in zip(block_ranges, boxes, spectra):
        assert box is not None, region
        a = full[r0:r1, c0:c1]
        rows, cols = slice(box[0] - r0, box[1] - r0), slice(box[2] - c0, box[3] - c0)
        left_out = a.copy()
        left_out[rows, cols] = 0.0
        assert np.linalg.norm(left_out) <= 0.5 * U * np.linalg.norm(a[rows, cols]), region
        s_support = separated.singular_values(a)
        s_full = np.linalg.svd(a, compute_uv=False)
        tol = 8.0 * U * np.linalg.norm(a)
        assert np.all(np.diff(s) <= 0.0)
        assert np.max(np.abs(s - s_full[:s.size]), initial=0.0) <= tol, region
        assert np.all(s_full[s.size:] <= tol), region
        k = min(s.size, s_support.size)
        assert np.max(np.abs(s[:k] - s_support[:k]), initial=0.0) <= tol, region
        for t in range(3, 15):
            for convention in separated.RankConvention:
                assert (separated.rank_from_singular_values(s, 10.0 ** -t, convention)
                        == separated.rank_from_singular_values(s_support, 10.0 ** -t,
                                                               convention)), (region, t)


def _shrunk(threshold_boxes):
    # one index in from every side: no block corner lies inside
    def boxes(kmap, block_ranges, eps):
        return [None if box is None else (box[0] + 1, box[1] - 1, box[2] + 1, box[3] - 1)
                for box in threshold_boxes(kmap, block_ranges, eps)]
    return boxes


@pytest.mark.parametrize("force", ["corner-outside", "zero-corners"])
@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_block_without_a_box_gets_the_whole_block_spectrum(monkeypatch, family, force):
    # a block whose largest corner entry lies outside its box, or whose corners
    # are all 0, is formed whole and gets singular_values' spectrum bit for bit
    spec = FAMILY_SPECS[family](256)
    _, kmap, block_ranges, _, _ = index_layout(spec)
    whole = [separated.singular_values(block_oracle(spec, r0, r1, c0, c1)(
        np.arange(r1 - r0)[:, None], np.arange(c1 - c0)[None, :]))
        for _, (r0, r1, c0, c1) in block_ranges]
    if force == "corner-outside":
        monkeypatch.setattr(hmatrix, "_threshold_boxes", _shrunk(hmatrix._threshold_boxes))
    else:
        monkeypatch.setattr(hmatrix, "entry_exact", lambda spec, i, j: np.zeros(np.shape(i)))
    assert hmatrix._spectrum_boxes(spec, kmap, block_ranges) == [None] * len(block_ranges)
    got = list(hmatrix.block_spectra(spec, kmap, block_ranges))
    assert [s.tobytes() for s in got] == [s.tobytes() for s in whole]


def _box_peak(blocks) -> int:
    """tracemalloc's peak over running the block generator to its end, in bytes."""
    tracemalloc.start()
    try:
        for _ in blocks:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_box_spectra_of_binomial_4096_stay_small():
    # every block of binomial n = 2^12 on its box: the spectra's allocations peak
    # at a few MiB, where forming the blocks whole peaked at 68 MiB
    spec = BinomialFamily(n=4096)
    _, kmap, block_ranges, _, _ = index_layout(spec)
    block_oracle(spec, *block_ranges[0][1])   # the family's operands, built once, are not counted
    peak = _box_peak(hmatrix.block_spectra(spec, kmap, block_ranges))
    assert peak <= 16 * 2 ** 20, peak / 2 ** 20


def test_box_ranks_of_binomial_4096_stay_small():
    # the certified counts on the same boxes keep the same bound: they add a scaled
    # copy of the box and form the sketch's residual one panel of rows at a time
    spec = BinomialFamily(n=4096)
    _, kmap, block_ranges, _, _ = index_layout(spec)
    block_oracle(spec, *block_ranges[0][1])
    eps = 10.0 ** -np.arange(3.0, 13.0)
    peak = _box_peak(hmatrix.block_ranks(spec, kmap, block_ranges, eps))
    assert peak <= 16 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_block_ranks_are_the_support_svd_counts(family, n):
    # every block's count equals the count of its block_spectra values, in both
    # conventions: at eps down to 1e-12 the sketch settles the large blocks, and
    # at 1e-14, below what it can certify at rel, the support SVD takes them all
    spec = FAMILY_SPECS[family](n)
    _, kmap, block_ranges, _, _ = index_layout(spec)
    spectra = list(hmatrix.block_spectra(spec, kmap, block_ranges))
    for convention in separated.RankConvention:
        for smallest in (12, 14):
            eps = 10.0 ** -np.arange(3.0, smallest + 1.0)
            got = list(hmatrix.block_ranks(spec, kmap, block_ranges, eps, convention))
            want = [separated.rank_from_singular_values(s, eps, convention) for s in spectra]
            assert [c.tolist() for c, _ in got] == [w.tolist() for w in want]
            sketched = sum(certified for _, certified in got)
            if smallest == 12:
                assert sketched > 0
            elif convention is separated.RankConvention.RELATIVE_TO_SIGMA1:
                assert sketched == 0


@pytest.mark.parametrize("command,eps", [
    ("rank-map", ["--eps", "1e-9"]),
    ("eps-sweep", [a for t in range(3, 13) for a in ("--eps", f"1e-{t}")]),
])
def test_rank_commands_do_not_depend_on_the_seed(tmp_path, command, eps):
    # the range sketch draws from its own fixed seed: --seed changes only the sidecar
    flags = ["--family", "chisq", "--xmax", "1024", "--grid", "1024", "--kmax", "1024"]
    sidecars = []
    for seed in ("0", "7"):
        out = tmp_path / f"{command}-{seed}.csv"
        assert run([command, *flags, *eps, "--seed", seed, "--out", str(out)]) == 0
        sidecars.append(json.loads((tmp_path / f"{out.name}.json").read_text()))
    assert ((tmp_path / f"{command}-0.csv").read_bytes()
            == (tmp_path / f"{command}-7.csv").read_bytes())
    assert [s["seed"] for s in sidecars] == [0, 7]
    result = sidecars[0]["parameters"]["result"]
    assert result == sidecars[1]["parameters"]["result"]
    assert result["sketch_certified_blocks"] > 0
    assert result["sketch_certified_blocks"] + result["svd_blocks"] == 62


@pytest.mark.parametrize("family", list(FAMILY_SPECS))
def test_rank_map_aca_starts_past_underflowed_rows(family):
    # the rows before each block's first live row hold no entry above 1e-300, and
    # ACA started there gives the factors it gives from the block's first row, sooner
    spec = FAMILY_SPECS[family](2048)
    _, kmap, block_ranges, _, _ = index_layout(spec)
    first = hmatrix.first_live_rows(kmap, block_ranges)
    for (region, (r0, r1, c0, c1)), row in zip(block_ranges, first):
        assert r0 <= row < r1, region
        if row > r0:
            assert np.max(entry_exact(spec, np.arange(r0, row)[:, None],
                                      np.arange(c0, c1)[None, :])) <= 1e-300, region
    assert sum(row - box[0] for (_, box), row in zip(block_ranges, first)) > 0
    levels, boxes = [level for (level, _), _ in block_ranges], [box for _, box in block_ranges]
    plain = hmatrix.aca_by_level(spec, kmap, levels, boxes, 1e-9)
    started = hmatrix.aca_by_level(spec, kmap, levels, boxes, 1e-9, first_rows=first)
    for a, b in zip(plain, started):
        assert a.alpha.tobytes() == b.alpha.tobytes() and a.beta.tobytes() == b.beta.tobytes()


@pytest.mark.parametrize("family", ["poisson", "chisq"])
def test_eps_sweep_linear_in_log_accuracy_down_to_1e_14(tmp_path, family):
    # the paper's claim, rank linear in ln(1/eps), holds down to 1e-14 at
    # n = 2^10; entries with a relative error near 1e-12 read 37 at 1e-14
    n = "1024"
    flags = {"poisson": ["--family", "poisson", "--kmax", n, "--lambda-max", n, "--grid", n],
             "chisq": ["--family", "chisq", "--xmax", n, "--grid", n, "--kmax", n]}[family]
    out = tmp_path / "sweep.csv"
    args = ["eps-sweep", *flags, "--out", str(out)]
    for t in range(9, 15):
        args += ["--eps", f"1e-{t}"]
    assert run(args) == 0
    _, rows = read_csv(out)
    ranks = [int(r[1]) for r in reversed(rows)]   # eps 1e-9 down to 1e-14
    steps = [b - a for a, b in zip(ranks, ranks[1:])]
    assert all(0 <= s <= 2 for s in steps), ranks
    assert ranks[-1] <= 16, ranks


@pytest.mark.parametrize("command", ["rank-map", "eps-sweep"])
def test_rank_commands_on_a_matrix_without_blocks(tmp_path, command):
    # binomial n = 1 is a 2 x 1 matrix of singular rows: no block, no ACA oracle to form
    out = tmp_path / "none.csv"
    assert run([command, "--family", "binomial", "--n", "1", "--eps", "1e-6",
                "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows == ([] if command == "rank-map" else [["9.9999999999999995e-07", "0"]])


def test_ratio_scan_schema_and_values(tmp_path):
    out = tmp_path / "ratio.csv"
    assert run(["ratio-scan", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["regime", "M", "p_M", "q_M", "ratio"]
    lower = [r for r in rows if r[0] == "lower"]
    upper = [r for r in rows if r[0] == "upper"]
    assert len(lower) == 33 and len(upper) == 33
    lo_first, lo_last = float(lower[0][4]), float(lower[-1][4])
    assert abs(lo_first - 4.0) < 0.1 and abs(lo_last - 2.0) < 0.01
    up_first, up_last = float(upper[0][4]), float(upper[-1][4])
    assert abs(up_first - 4.0) < 0.1 and up_last <= 1e-7


def test_ratio_scan_reaches_the_largest_double(tmp_path):
    out = tmp_path / "ratio.csv"
    assert run(["ratio-scan", "--m-min", "1e300", "--m-max", repr(sys.float_info.max),
                "--m-points", "5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 10
    assert float(rows[4][1]) == float(rows[9][1]) == sys.float_info.max
    for regime, m, p_m, q_m, ratio in rows:
        assert all(math.isfinite(float(v)) for v in (m, p_m, q_m, ratio)), (regime, m)
        assert abs(float(ratio) - (2.0 if regime == "lower" else 0.0)) <= 1e-9, (regime, m)


def test_csv_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["rank-map", "--family", "binomial", "--n", "96", "--eps", "1e-7", "--seed", "5"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compress_round_trip(tmp_path):
    out = tmp_path / "m.hlrd"
    rc = run(["compress", "--family", "binomial", "--n", "96", "--eps", "1e-6",
              "--builder", "constructive", "--out", str(out), "--samples", "2000"])
    assert rc == 0
    prov = json.loads((tmp_path / "m.hlrd.json").read_text())
    stored = prov["parameters"]["result"]["stored_entries"]
    assert prov["parameters"]["result"]["verify_max_abs_error"] <= 1e-5

    from hlrd.container import load_hmatrix
    from hlrd.hmatrix import verify

    h = load_hmatrix(out)
    assert h.stored_entries == stored
    rep = verify(h, samples=2000, seed=0)
    assert rep.max_abs_error <= 1e-5


@pytest.mark.parametrize("flags,spec", [
    (["--family", "binomial", "--n", "64"], BinomialFamily(n=64)),
    (["--family", "poisson", "--kmax", "64", "--lambda-max", "48", "--grid", "32"],
     PoissonFamily(k_max=64, lambda_max=48.0, lambda_grid=32)),
    (["--family", "chisq", "--xmax", "64", "--grid", "48", "--kmax", "32"],
     ChiSquaredFamily(x_max=64.0, x_grid=48, k_max=32)),
])
def test_provenance_family_is_spec_fields(tmp_path, flags, spec):
    # the sidecar records the family's parameters and nothing the family computed
    fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    for command, extra in (("compress", ["--samples", "500"]), ("rank-map", [])):
        out = tmp_path / f"{command}.out"
        assert run([command, *flags, "--eps", "1e-6", *extra, "--out", str(out)]) == 0
        prov = json.loads((tmp_path / f"{command}.out.json").read_text())
        assert prov["parameters"]["family"] == fields


def test_matvec_bench_schema(tmp_path):
    out = tmp_path / "bench.csv"
    rc = run(["matvec-bench", "--family", "binomial", "--eps", "1e-6",
              "--n-list", "64", "--n-list", "128", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["n", "build_s", "matvec_s", "dense_matvec_s", "rel_err",
                      "stored_entries", "ratio"]
    assert [int(r[0]) for r in rows] == [64, 128]
    assert all(float(r[4]) <= 50.0 * 1e-6 for r in rows)


def test_matvec_bench_records_each_size_family(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["matvec-bench", "--family", "poisson", "--eps", "1e-6",
                "--n-list", "32", "--n-list", "48", "--out", str(out)]) == 0
    prov = json.loads((tmp_path / "bench.csv.json").read_text())
    assert [r["family"] for r in prov["parameters"]["results"]] == [
        dataclasses.asdict(PoissonFamily(k_max=n, lambda_max=float(n), lambda_grid=n))
        for n in (32, 48)]


@pytest.mark.parametrize("family,flag", [
    ("poisson", ["--kmax", "64"]),
    ("poisson", ["--lambda-max", "64"]),
    ("chisq", ["--xmax", "64"]),
    ("binomial", ["--grid", "64"]),
])
def test_matvec_bench_n_list_with_fixed_family_is_usage_error(tmp_path, family, flag):
    # each --n-list size sets the whole family, so a fixed range or grid would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["matvec-bench", "--family", family, "--eps", "1e-6", "--n-list", "32",
              "--n-list", "48", *flag, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_verify_tiling_command(tmp_path, capsys):
    rc = run(["verify-tiling", "--domain", "quarter", "--extent", "8", "--lmax", "4",
              "--samples", "20000"])
    assert rc == 0
    assert "covered=1.0 overlaps=0" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["compress", "rank-map"])
@pytest.mark.parametrize("leaf", ["0", "-4"])
def test_leaf_below_one_is_usage_error(tmp_path, command, leaf):
    with pytest.raises(SystemExit) as exc:
        main([command, "--family", "binomial", "--n", "64", "--eps", "1e-6", "--leaf", leaf,
              "--out", str(tmp_path / "x.out")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("argv", [
    ["compress", "--family", "binomial", "--n", "64", "--eps", "1e-6", "--samples", "0"],
    ["compress", "--family", "binomial", "--n", "64", "--eps", "1e-6", "--samples", "-3"],
    ["verify-tiling", "--samples", "0"],
    ["ratio-scan", "--m-points", "0"],
    ["ratio-scan", "--m-points", "1.5"],
    ["ratio-scan", "--m-min", "-1"],
    ["ratio-scan", "--m-min", "0"],
    ["ratio-scan", "--m-min", "nan"],
    ["ratio-scan", "--m-max", "inf"],
    ["ratio-scan", "--m-max", "-inf"],
], ids=["compress-samples-0", "compress-samples-neg", "tiling-samples-0", "ratio-points-0",
        "ratio-points-float", "ratio-min-neg", "ratio-min-0", "ratio-min-nan", "ratio-max-inf",
        "ratio-max-neg-inf"])
def test_count_or_level_out_of_range_is_usage_error(tmp_path, argv):
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["eps-sweep", "--eps", "nan"],
    ["eps-sweep", "--eps", "-1"],
    ["eps-sweep", "--eps", "0"],
    ["eps-sweep", "--eps", "nan", "--eps", "-1", "--eps", "0"],
    ["eps-sweep", "--eps", "1e-6", "--eps", "0"],
    ["rank-map", "--eps", "0"],
    ["rank-map", "--eps", "nan"],
    ["eps-sweep", "--eps", "inf"],
    ["eps-sweep", "--eps", "1e-6", "--eps", "inf"],
    ["rank-map", "--eps", "inf"],
    ["compress", "--eps", "inf"],
    ["matvec-bench", "--eps", "inf"],
], ids=["sweep-nan", "sweep-negative", "sweep-zero", "sweep-all-three", "sweep-one-of-two",
        "rank-map-zero", "rank-map-nan", "sweep-inf", "sweep-one-inf", "rank-map-inf",
        "compress-inf", "matvec-bench-inf"])
def test_eps_not_positive_is_numerical_failure(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert run([*argv, "--family", "binomial", "--n", "64", "--out", str(out)]) == 3
    assert "eps must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_ENVIRONMENT_KEYS = {"python", "numpy", "scipy", "blas", "cpu_count", "affinity_cpu_count",
                     "threads"}
_FAMILY = ["--family", "binomial", "--n", "64"]


@pytest.mark.parametrize("argv,deterministic", [
    (["rank-map", *_FAMILY, "--eps", "1e-6"], True),
    (["eps-sweep", *_FAMILY, "--eps", "1e-6", "--eps", "1e-9"], True),
    (["ratio-scan", "--m-points", "3"], True),
    (["verify-tiling", "--lmax", "3", "--samples", "1000"], True),
    (["compress", *_FAMILY, "--eps", "1e-6", "--samples", "500"], False),
    (["matvec-bench", *_FAMILY, "--eps", "1e-6"], False),
], ids=["rank-map", "eps-sweep", "ratio-scan", "verify-tiling", "compress", "matvec-bench"])
def test_sidecar_records_the_environment(tmp_path, monkeypatch, argv, deterministic):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    sidecars = []
    for name in ("a.out", "b.out"):
        assert run([*argv, "--out", str(tmp_path / name)]) == 0
        sidecars.append(json.loads((tmp_path / f"{name}.json").read_text()))
    env = sidecars[0]["environment"]
    assert set(env) == _ENVIRONMENT_KEYS
    assert set(env["blas"]) == {"name", "version"}
    assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert env["threads"]["OMP_NUM_THREADS"] == "1" and env["threads"]["MKL_NUM_THREADS"] is None
    assert env["cpu_count"] >= 1 and env["numpy"] and env["scipy"] and env["python"]
    # timings differ from run to run; the environment and every other command do not
    if deterministic:
        assert sidecars[0] == sidecars[1]
    else:
        assert sidecars[0]["environment"] == sidecars[1]["environment"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["rank-map", "--family", "nosuch", "--eps", "1e-6", "--out", "x.csv"])
    assert exc.value.code == 2


def test_main_reuses_one_parser_like_fresh_ones(tmp_path, monkeypatch, capsys):
    # one parser serves every call of a process; a usage error between calls (a
    # repeated --eps) leaves nothing behind, so each call ends as with a fresh parser
    def calls(where):
        where.mkdir()
        rank_map = ["rank-map", "--family", "binomial", "--n", "64", "--eps", "1e-6",
                    "--out", str(where / "rm.csv")]
        argvs = [rank_map,
                 ["eps-sweep", "--family", "poisson", "--kmax", "48", "--lambda-max", "48",
                  "--eps", "1e-3", "--eps", "1e-9", "--out", str(where / "sweep.csv")],
                 rank_map[:-2] + ["--eps", "1e-9", "--out", str(where / "twice.csv")],
                 ["ratio-scan", "--m-points", "5", "--out", str(where / "ratio.csv")],
                 rank_map[:5] + ["--eps", "1e-9", "--out", str(where / "rm9.csv")],
                 rank_map]
        ends = []
        for argv in argvs:
            try:
                ends.append(main(argv))
            except SystemExit as exc:
                ends.append(("exit", exc.code))
            ends.append(capsys.readouterr().err.replace(str(where), ""))
        return ends, {f.name: f.read_bytes() for f in sorted(where.glob("*.csv"))}

    assert cli.build_parser() is cli.build_parser()
    shared = calls(tmp_path / "shared")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = calls(tmp_path / "fresh")
    assert shared == fresh
    assert shared[0][::2] == [0, 0, ("exit", 2), 0, 0, 0]
    assert "--eps may be given only once" in shared[0][5]
    assert sorted(shared[1]) == ["ratio.csv", "rm.csv", "rm9.csv", "sweep.csv"]


@pytest.mark.parametrize("argv", [
    # each command takes only the flags it reads
    ["rank-map", "--family", "binomial", "--n", "64", "--eps", "1e-6",
     "--builder", "aca", "--out", "x.csv"],
    ["compress", "--family", "binomial", "--n", "64", "--eps", "1e-6",
     "--rank-convention", "abs", "--out", "x.hlrd"],
    # one accuracy per compress, not the first of several
    ["compress", "--family", "binomial", "--n", "64", "--eps", "1e-6", "--eps", "1e-9",
     "--out", "x.hlrd"],
], ids=["rank-map-builder", "compress-rank-convention", "compress-two-eps"])
def test_unread_or_repeated_flag_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_numerical_failure_exit_code(tmp_path):
    # a library ValueError goes to the numerical failure channel
    out = tmp_path / "x.csv"
    rc = run(["compress", "--family", "binomial", "--n", "3", "--eps", "1e-6",
              "--out", str(out)])
    assert rc == 3  # matrix too small -> ValueError -> numerical failure exit


@pytest.mark.parametrize("message", ["Unable to allocate 8.31 GiB for an array", ""])
def test_out_of_memory_is_numerical_failure(tmp_path, capsys, monkeypatch, message):
    # an extreme eps can ask a builder for more memory than the machine has
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "compress", exhausted)
    out = tmp_path / "h.hlrd"
    assert run(["compress", "--family", "binomial", "--n", "64", "--eps", "1e-200",
                "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "hlrd: error: out of memory" in captured.err and message in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--family", "binomial", "--n", "64", "--grid", "-3"],
    ["--family", "poisson", "--kmax", "64", "--lambda-max", "inf", "--grid", "64"],
    ["--family", "poisson", "--kmax", "64", "--lambda-max", "inf"],
    ["--family", "poisson", "--kmax", "64", "--lambda-max", "nan", "--grid", "64"],
    ["--family", "chisq", "--xmax", "inf", "--grid", "64", "--kmax", "64"],
    ["--family", "chisq", "--xmax", "inf"],
], ids=["binomial-grid-neg", "poisson-inf", "poisson-inf-default-grid", "poisson-nan",
        "chisq-inf", "chisq-inf-defaults"])
def test_degenerate_family_is_numerical_failure(tmp_path, capsys, flags):
    # rejected with a message on the error channel, before any artifact is written
    out = tmp_path / "x.csv"
    assert run(["rank-map", *flags, "--eps", "1e-6", "--out", str(out)]) == 3
    assert "hlrd: error:" in capsys.readouterr().err
    assert not out.exists()
