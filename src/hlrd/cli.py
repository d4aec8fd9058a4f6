"""Command-line front end: rank experiments, compression, benchmarks.

Every command writes a CSV artifact (RFC-4180 style, header row, floats
in scientific notation with 17 significant digits) plus a JSON provenance
sidecar at ``<out>.json`` recording the command, its parameters, the seed,
the package version and the environment that ran it (Python, numpy and
scipy versions, the BLAS numpy was built against, the core counts and
the BLAS thread variables).  Identical configuration and seed reproduce
byte-identical CSV bodies.

Exit codes: 0 success, 2 usage error, 3 numerical failure (out of memory
included).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .container import save_hmatrix
from .divergence import Regime, SolverError, divergence_ratio, solve_thresholds
from .families import (
    FAMILIES,
    BinomialFamily,
    ChiSquaredFamily,
    PoissonFamily,
    dense_matrix,
)
from .hmatrix import (Builder, aca_by_level, block_ranks, compress, first_live_rows,
                      index_layout, matvec, storage_report, verify)
from .partition import QuarterPlane, UnitSquare, build_scheme, verify_tiling
# aca_build is unused here; perfbench/tracing.py wraps it by this module's name
from .separated import BuilderError, RankConvention, aca_build  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _environment() -> dict:
    """Versions, BLAS, core counts and BLAS thread variables of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 keeps no build-config dict
        blas = {}
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "affinity_cpu_count": None if affinity is None else len(affinity),
        "threads": {name: os.environ.get(name) for name in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _write_provenance(out: Path, command: str, params: dict, seed: int) -> None:
    doc = {
        "command": command,
        "parameters": params,
        "seed": seed,
        "artifact_version": __version__,
        "environment": _environment(),
    }
    # strict JSON: a non-finite number raises here, before the sidecar is written
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    Path(str(out) + ".json").write_text(text + "\n", encoding="utf-8")


def _unit_grid(extent: float) -> int:
    """Default grid size over (0, extent]: one point per unit of the range."""
    if not math.isfinite(extent):
        raise ValueError(f"range must be finite, got {extent}")
    return int(extent)


def _family_from_args(args) -> object:
    if args.family == "binomial":
        return BinomialFamily(n=args.n, cols=args.grid or 0)
    if args.family == "poisson":
        k_max = args.kmax or args.n
        lam_max = args.lambda_max or float(k_max)
        grid = args.grid or _unit_grid(lam_max)
        return PoissonFamily(k_max=k_max, lambda_max=lam_max, lambda_grid=grid)
    if args.family == "chisq":
        x_max = args.xmax or float(args.kmax or args.n)
        grid = args.grid or _unit_grid(x_max)
        k_max = args.kmax or _unit_grid(x_max)
        return ChiSquaredFamily(x_max=x_max, x_grid=grid, k_max=k_max)
    raise ValueError(f"unknown family {args.family!r}")


def _family_params(spec) -> dict:
    return dataclasses.asdict(spec)


def _count_report(sketched: int, blocks: int) -> dict:
    """How many blocks the range sketch certified and how many took the support SVD."""
    return {"sketch_certified_blocks": sketched, "svd_blocks": blocks - sketched}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_rank_map(args) -> int:
    spec = _family_from_args(args)
    eps = args.eps
    convention = RankConvention(args.rank_convention)
    _, kmap, block_ranges, _, _ = index_layout(spec, leaf_size=args.leaf)
    # ACA on each whole block, the blocks of a level in lockstep
    aca = aca_by_level(spec, kmap, [level for (level, _), _ in block_ranges],
                       [box for _, box in block_ranges], eps,
                       first_rows=first_live_rows(kmap, block_ranges))
    rows = []
    sketched = 0
    for ((level, index), box), (rank, certified), approx in zip(
            block_ranges, block_ranks(spec, kmap, block_ranges, eps, convention), aca):
        sketched += certified
        rows.append([level, index, *box, rank, approx.rank])
    rows.sort(key=lambda r: (r[0], r[1]))
    out = Path(args.out)
    _write_csv(out, ["level", "index", "row_lo", "row_hi", "col_lo", "col_hi",
                     "svd_rank", "aca_rank"], rows)
    _write_provenance(out, "rank-map",
                      {"family": _family_params(spec), "eps": eps,
                       "rank_convention": args.rank_convention, "leaf": args.leaf,
                       "result": _count_report(sketched, len(rows))},
                      args.seed)
    print(f"rank-map: {len(rows)} blocks, max svd_rank "
          f"{max((r[6] for r in rows), default=0)}, wrote {out}")
    return EXIT_OK


def _cmd_eps_sweep(args) -> int:
    spec = _family_from_args(args)
    convention = RankConvention(args.rank_convention)
    eps_list = np.array(sorted(args.eps))
    max_rank = np.zeros(eps_list.size, dtype=int)
    _, kmap, block_ranges, _, _ = index_layout(spec, leaf_size=args.leaf)
    sketched = 0
    for ranks, certified in block_ranks(spec, kmap, block_ranges, eps_list, convention):
        sketched += certified
        np.maximum(max_rank, ranks, out=max_rank)
    rows = [[float(eps), int(rank)] for eps, rank in zip(eps_list, max_rank)]
    out = Path(args.out)
    _write_csv(out, ["eps", "max_rank"], rows)
    _write_provenance(out, "eps-sweep",
                      {"family": _family_params(spec), "eps_list": sorted(args.eps),
                       "rank_convention": args.rank_convention, "leaf": args.leaf,
                       "result": _count_report(sketched, len(block_ranges))},
                      args.seed)
    print(f"eps-sweep: {len(rows)} accuracies, wrote {out}")
    return EXIT_OK


def _cmd_ratio_scan(args) -> int:
    with np.errstate(over="ignore"):
        ms = np.logspace(np.log10(args.m_min), np.log10(args.m_max), args.m_points)
    # 10**log10(M) can round past the largest double
    ms = np.minimum(ms, sys.float_info.max)
    rows = []
    failures = 0
    for regime in (Regime.LOWER, Regime.UPPER):
        for m in ms:
            try:
                pair = solve_thresholds(float(m), regime)
                ratio = divergence_ratio(float(m), regime)
                rows.append([regime.value, float(m), pair.p_m, pair.q_m, ratio])
            except SolverError:
                failures += 1
                rows.append([regime.value, float(m), float("nan"), float("nan"), float("nan")])
    out = Path(args.out)
    _write_csv(out, ["regime", "M", "p_M", "q_M", "ratio"], rows)
    _write_provenance(out, "ratio-scan",
                      {"m_min": args.m_min, "m_max": args.m_max, "m_points": args.m_points},
                      args.seed)
    print(f"ratio-scan: {len(rows)} rows ({failures} solver failures), wrote {out}")
    return EXIT_OK


def _cmd_compress(args) -> int:
    spec = _family_from_args(args)
    builder = Builder(args.builder)
    t0 = time.perf_counter()
    h = compress(spec, args.eps, builder=builder, leaf_size=args.leaf)
    build_s = time.perf_counter() - t0
    out = Path(args.out)
    save_hmatrix(h, out)
    rep = storage_report(h)
    chk = verify(h, samples=args.samples, seed=args.seed)
    doc = {
        "build_seconds": build_s,
        "stored_entries": rep.stored_entries,
        "dense_equivalent": rep.dense_equivalent,
        "ratio": rep.ratio,
        "per_level_ranks": {str(k): v for k, v in rep.per_level_ranks.items()},
        "verify_max_abs_error": chk.max_abs_error,
        "verify_rms_error": chk.rms_error,
    }
    _write_provenance(out, "compress",
                      {"family": _family_params(spec), "eps": args.eps,
                       "builder": args.builder, "leaf": args.leaf, "result": doc},
                      args.seed)
    print(f"compress: stored {rep.stored_entries} of {rep.dense_equivalent} "
          f"(ratio {rep.ratio:.4f}), max|err| {chk.max_abs_error:.3e}, wrote {out}")
    return EXIT_OK


def _cmd_matvec_bench(args) -> int:
    sizes = args.n_list or [args.n]
    rng = np.random.default_rng(args.seed)
    rows = []
    results = []
    for n in sizes:
        ns = argparse.Namespace(**vars(args))
        ns.n = n
        spec = _family_from_args(ns)
        t0 = time.perf_counter()
        h = compress(spec, args.eps, builder=Builder(args.builder), leaf_size=args.leaf)
        build_s = time.perf_counter() - t0
        x = rng.standard_normal(spec.shape[1])
        t0 = time.perf_counter()
        reps = 5
        for _ in range(reps):
            y = matvec(h, x)
        mv_s = (time.perf_counter() - t0) / reps
        full = dense_matrix(spec)
        t0 = time.perf_counter()
        y_dense = full @ x
        dense_s = time.perf_counter() - t0
        rel = float(np.linalg.norm(y - y_dense) / np.linalg.norm(y_dense))
        rep = storage_report(h)
        rows.append([n, build_s, mv_s, dense_s, rel, rep.stored_entries, rep.ratio])
        results.append({"n": n, "family": _family_params(spec), "matvec_seconds": mv_s,
                        "dense_seconds": dense_s, "rel_error": rel,
                        "stored_entries": rep.stored_entries})
    out = Path(args.out)
    _write_csv(out, ["n", "build_s", "matvec_s", "dense_matvec_s", "rel_err",
                     "stored_entries", "ratio"], rows)
    _write_provenance(out, "matvec-bench",
                      {"family": args.family, "sizes": sizes, "eps": args.eps,
                       "builder": args.builder, "results": results},
                      args.seed)
    print(f"matvec-bench: sizes {sizes}, wrote {out}")
    return EXIT_OK


def _cmd_verify_tiling(args) -> int:
    if args.domain == "unit":
        scheme = build_scheme(UnitSquare(l_max=args.lmax))
    else:
        scheme = build_scheme(QuarterPlane(extent=args.extent, l_max=args.lmax))
    report = verify_tiling(scheme, samples=args.samples, seed=args.seed)
    print(f"verify-tiling: domain={args.domain} l_max={args.lmax} samples={report.samples} "
          f"covered={report.covered} overlaps={report.overlaps}")
    if args.out:
        out = Path(args.out)
        _write_csv(out, ["domain", "l_max", "samples", "covered", "overlaps"],
                   [[args.domain, args.lmax, report.samples, report.covered, report.overlaps]])
        _write_provenance(out, "verify-tiling",
                          {"domain": args.domain, "extent": args.extent, "lmax": args.lmax,
                           "samples": args.samples},
                          args.seed)
    return EXIT_OK if (report.covered == 1.0 and report.overlaps == 0) else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    """A count flag's value: an integer >= 1, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """A level flag's value: a finite number > 0, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=list(FAMILIES), required=True)
    p.add_argument("--n", type=int, default=1024, help="binomial trial count")
    p.add_argument("--kmax", type=int, default=0, help="Poisson/chi-squared k range")
    p.add_argument("--lambda-max", type=float, default=0.0, dest="lambda_max")
    p.add_argument("--xmax", type=float, default=0.0)
    p.add_argument("--grid", type=int, default=0, help="column grid size (0: family default)")
    p.add_argument("--leaf", type=_positive_int, default=32,
                   help="target indices per finest diagonal cell (>= 1)")


class _StoreOnce(argparse.Action):
    """Store the flag's value; giving the flag twice is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given only once")
        setattr(namespace, self.dest, values)


def _add_eps_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, action=_StoreOnce, required=True, help="target accuracy")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, required=True, help="output path")
    p.add_argument("--seed", type=int, default=0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each parse starts a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="hlrd",
        description="Hierarchical low-rank experiments on distribution matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank-map", help="per-block numerical ranks (SVD oracle + ACA)")
    _add_family_flags(p)
    _add_eps_flag(p)
    p.add_argument("--rank-convention", choices=["rel", "abs"], default="rel")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_rank_map)

    p = sub.add_parser("eps-sweep", help="max block rank as a function of eps")
    _add_family_flags(p)
    p.add_argument("--eps", type=float, action="append", required=True,
                   help="target accuracy (repeatable)")
    p.add_argument("--rank-convention", choices=["rel", "abs"], default="rel")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_eps_sweep)

    p = sub.add_parser("ratio-scan", help="threshold points and divergence ratio over a level grid")
    p.add_argument("--m-min", type=_positive_float, default=1e-8)
    p.add_argument("--m-max", type=_positive_float, default=1e8)
    p.add_argument("--m-points", type=_positive_int, default=33)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_ratio_scan)

    p = sub.add_parser("compress", help="compress a family matrix into an HLRD1 container")
    _add_family_flags(p)
    _add_eps_flag(p)
    p.add_argument("--builder", choices=["constructive", "aca"], default="aca")
    _add_common_flags(p)
    p.add_argument("--samples", type=_positive_int, default=10000,
                   help="verification sample count (>= 1)")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("matvec-bench", help="compressed vs dense matvec timing and error")
    _add_family_flags(p)
    _add_eps_flag(p)
    p.add_argument("--builder", choices=["constructive", "aca"], default="aca")
    _add_common_flags(p)
    p.add_argument("--n-list", type=int, action="append", dest="n_list",
                   help="matrix sizes to benchmark (repeatable; defaults to --n)")
    p.set_defaults(func=_cmd_matvec_bench)

    p = sub.add_parser("verify-tiling", help="Monte-Carlo check of the staircase tiling")
    p.add_argument("--domain", choices=["unit", "quarter"], default="unit")
    p.add_argument("--extent", type=float, default=8.0)
    p.add_argument("--lmax", type=int, default=6)
    p.add_argument("--samples", type=_positive_int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default="")
    p.set_defaults(func=_cmd_verify_tiling)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "matvec-bench" and args.n_list and (
            args.kmax or args.xmax or args.lambda_max or args.grid):
        # each size sets the whole family; a fixed range or grid would override it
        parser.error("--n-list cannot be combined with --kmax, --xmax, --lambda-max or --grid")
    try:
        return args.func(args)
    except (SolverError, BuilderError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"hlrd: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        # numpy names the allocation it could not make; a bare MemoryError names nothing
        detail = f": {exc}" if str(exc) else ""
        print(f"hlrd: error: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
