"""CLI commands: schemas, provenance, determinism, exit codes."""

import dataclasses
import json

import pytest

from hlrd.cli import main
from hlrd.families import BinomialFamily, ChiSquaredFamily, PoissonFamily


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["rank-map", "--family", "nosuch", "--eps", "1e-6", "--out", "x.csv"])
    assert exc.value.code == 2


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
