"""Tests of the benchmark's own checks and output.

    PYTHONPATH=src python -m pytest -q perfbench/selftest.py

Each check must fail on a deliberately wrong result and pass on correct
output under more than one seed.  The file is not named ``test_*.py`` so
the package's own test run does not collect it.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hlrd import BinomialFamily, Builder, ChiSquaredFamily, PoissonFamily, cli, compress, entry_exact
from hlrd.container import load_hmatrix, save_hmatrix

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = workloads.Workload(
    build_set=workloads.builds(256, (1e-6,), Builder.ACA)
    + workloads.builds(256, (1e-9,), Builder.CONSTRUCTIVE),
    builder=Builder.ACA, apply_n=256, apply_eps=1e-6, matvec_per_step=4, rank_n=256,
    tiling_samples=2000, min_rounds=2, setup_repeats=2)


def _lowrank_payloads(buf: bytes):
    """(alpha offset, rows, rank, beta offset, cols) of every low-rank piece.

    Follows the HLRD1 layout documented in the package README.
    """
    (meta_len,) = struct.unpack_from("<I", buf, 5)
    off = 9 + meta_len
    _, _, n_lr, n_dn = struct.unpack_from("<IIII", buf, off)
    off += 16
    table = [struct.unpack_from("<iIIIIII", buf, off + 28 * i) for i in range(n_lr)]
    off += 28 * n_lr + 29 * n_dn
    out = []
    for _, _, rank, r0, r1, c0, c1 in table:
        rows, cols = r1 - r0, c1 - c0
        out.append((off, rows, rank, off + 8 * rows * rank, cols))
        off += 8 * rank * (rows + cols)
    return out


def test_reference_agrees_with_entry_exact_at_2_14():
    n = 2**14
    rng = np.random.default_rng(0)
    for spec in (BinomialFamily(n=n),
                 PoissonFamily(k_max=n, lambda_max=float(n), lambda_grid=n),
                 ChiSquaredFamily(x_max=float(n), x_grid=n, k_max=n)):
        rows = rng.integers(0, spec.shape[0], 200000)
        cols = rng.integers(0, spec.shape[1], 200000)
        gap = np.max(np.abs(reference.entries(spec, rows, cols) - entry_exact(spec, rows, cols)))
        assert gap <= 2e-12, (type(spec).__name__, gap)


@pytest.mark.parametrize("seed", [1, 2])
def test_block_check_catches_one_scaled_factor(tmp_path, seed):
    eps = 1e-9
    h = compress(BinomialFamily(n=1024), eps, builder=Builder.ACA)
    assert checks.check_blocks(h, eps, np.random.default_rng(seed)) == []

    path = tmp_path / "h.hlrd"
    save_hmatrix(h, path)
    buf = bytearray(path.read_bytes())
    # scale the factor of the block where most entries exceed the error a
    # 1e-3 relative change must show through (10 eps / 1e-3)
    best = None
    for a_off, rows, rank, b_off, cols in _lowrank_payloads(bytes(buf)):
        if rank == 0:
            continue
        alpha = np.frombuffer(bytes(buf), "<f8", rows * rank, a_off).reshape(rows, rank)
        beta = np.frombuffer(bytes(buf), "<f8", cols * rank, b_off).reshape(cols, rank)
        share = float(np.mean(np.abs(alpha @ beta.T) > checks.BLOCK_TOL * eps / 1e-3))
        if best is None or share > best[0]:
            best = (share, a_off, alpha)
    share, a_off, alpha = best
    assert share > 0.5
    buf[a_off:a_off + alpha.nbytes] = (alpha * (1.0 + 1e-3)).astype("<f8").tobytes()
    path.write_bytes(bytes(buf))
    assert checks.check_blocks(load_hmatrix(path), eps, np.random.default_rng(seed))


def test_round_trip_check_catches_one_changed_byte(tmp_path):
    h = compress(BinomialFamily(n=512), 1e-6, builder=Builder.CONSTRUCTIVE)
    path = tmp_path / "h.hlrd"
    save_hmatrix(h, path)
    original = path.read_bytes()
    again = tmp_path / "again.hlrd"
    save_hmatrix(load_hmatrix(path), again)
    assert checks.check_same_bytes(original, again.read_bytes(), "round trip") == []

    a_off, rows, rank, _, _ = _lowrank_payloads(original)[0]
    corrupt = bytearray(original)
    corrupt[a_off + 7] ^= 0x01   # one bit of the first alpha entry's exponent
    path.write_bytes(bytes(corrupt))
    save_hmatrix(load_hmatrix(path), again)
    assert checks.check_same_bytes(original, again.read_bytes(), "round trip")


def test_rank_check_catches_a_raised_rank(tmp_path, capsys):
    spec = workloads.family("binomial", 256)
    out = tmp_path / "rank.csv"
    assert cli.main(["rank-map", *workloads.family_flags("binomial", 256),
                     "--eps", "1e-9", "--out", str(out)]) == 0
    assert checks.check_rank_map(out, spec, 1e-9) == []

    lines = out.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    fields[6] = str(checks.MAX_RANK + 1)    # svd_rank column
    lines[1] = ",".join(fields)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = checks.check_rank_map(out, spec, 1e-9)
    assert any("max svd_rank" in p for p in problems)
    assert any("vs reference" in p for p in problems)


def test_eps_sweep_check_catches_a_falling_rank(tmp_path):
    out = tmp_path / "sweep.csv"
    ranks = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
    body = "eps,max_rank\n" + "".join(f"{10.0 ** -(k + 3):.16e},{r}\n" for k, r in enumerate(ranks))
    out.write_text(body, encoding="utf-8")
    assert checks.check_eps_sweep(out) == []
    out.write_text(body.replace(",9\n", ",4\n"), encoding="utf-8")
    assert checks.check_eps_sweep(out)


@pytest.mark.parametrize("trace", [False, True])
def test_round_passes_its_checks_on_two_seeds(tmp_path, trace):
    names = {False: [m["name"] for m in BENCHMARK["end_to_end"]],
             True: [m["name"] for m in BENCHMARK["per_layer"]]}[trace]
    shares = []
    for seed in (1, 2):
        tracer = tracing.Tracer() if trace else tracing.NullTracer()
        with tracing.installed(tracer) if trace else contextlib.nullcontext():
            result = workloads.run_workload(TINY, seed, 0.0, tmp_path / str(seed), tracer)
        assert result["correct"], result["problems"]
        assert sorted(result["metrics"]) == sorted(names)
        shares.append((result["failed"], result["attempted"]))
    assert shares[0] == shares[1]


def test_layer_spans_nest_and_sum(tmp_path):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        workloads.run_workload(TINY, 3, 0.0, tmp_path, tracer)
    spans = {s[0]: s for s in tracer.spans}
    for span_id, parent, _, name, start, end in spans.values():
        assert end >= start
        if parent is not None:
            assert spans[parent][4] <= start and end <= spans[parent][5], name
    # wrappers are gone once the traced block ends
    import hlrd.hmatrix
    assert hlrd.hmatrix.entry_exact is entry_exact


def test_benchmark_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for rel in BENCHMARK["paths"]:
        shutil.copytree(HERE.parent / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "build-aca",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
