"""Correctness checks of the benchmark's outputs.

Every check compares against ``reference`` (scipy.stats entries) or a
property the method must have; none compares against stored output.
Each returns a list of problems, empty when the output is correct.  The
checks run outside the timed and traced sections.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from hlrd import BinomialFamily
from hlrd.hmatrix import index_layout, reconstruct_entries
import reference

BLOCK_TOL = 10.0       # sampled block error, in units of eps
MATVEC_REL_TOL = 50.0  # relative error of sampled matvec rows, in units of eps
COLSUM_REL_TOL = 1e-6  # binomial columns sum to one
MAX_RANK = 12          # max svd_rank at n = 2^10, eps = 1e-9
RANK_SLACK = 1         # svd_rank against an SVD of the reference block
MIN_R2 = 0.9           # linear fit of max rank in ln(1/eps)


def check_blocks(h, eps: float, rng, per_block: int = 16) -> list[str]:
    """Sampled max |H - reference| <= 10 eps in every low-rank block of ``h``.

    All samples go through one ``reconstruct_entries`` call.
    """
    _, _, block_ranges, _, _ = index_layout(h.spec, h.scheme)
    boxes = [box for _, box in block_ranges]
    rows = np.concatenate([rng.integers(r0, r1, per_block) for r0, r1, _, _ in boxes])
    cols = np.concatenate([rng.integers(c0, c1, per_block) for _, _, c0, c1 in boxes])
    err = np.abs(reconstruct_entries(h, rows, cols) - reference.entries(h.spec, rows, cols))
    errs = err.reshape(len(boxes), per_block).max(axis=1)
    return [f"{_name(h.spec)} eps={eps:g}: block rows [{r0},{r1}) cols [{c0},{c1}) "
            f"sampled error {e:.3e} > {BLOCK_TOL:g} eps"
            for (r0, r1, c0, c1), e in zip(boxes, errs) if not e <= BLOCK_TOL * eps]


def check_column_sums(spec, x: np.ndarray, y: np.ndarray) -> list[str]:
    """Binomial columns sum to one, so sum(H x) must equal sum(x)."""
    if not isinstance(spec, BinomialFamily):
        return []
    gap = abs(float(np.sum(y)) - float(np.sum(x)))
    limit = COLSUM_REL_TOL * float(np.sum(np.abs(x)))
    return [] if gap <= limit else [f"binomial n={spec.n}: |sum(Hx) - sum(x)| = {gap:.3e} > {limit:.3e}"]


def check_matvec_rows(spec, eps: float, x: np.ndarray, y: np.ndarray, rows: np.ndarray) -> list[str]:
    cols = np.arange(spec.shape[1])
    ref = reference.entries(spec, rows[:, None], cols[None, :]) @ x
    rel = np.abs(y[rows] - ref) / np.abs(ref)
    worst = float(np.max(rel))
    return [] if worst <= MATVEC_REL_TOL * eps else [
        f"{_name(spec)}: matvec row relative error {worst:.3e} > {MATVEC_REL_TOL:g} eps"]


def check_verify(report, eps: float) -> list[str]:
    return [] if report.max_abs_error <= BLOCK_TOL * eps else [
        f"verify max error {report.max_abs_error:.3e} > {BLOCK_TOL:g} eps"]


def check_same_bytes(first: bytes, second: bytes, what: str) -> list[str]:
    return [] if first == second else [f"{what}: bytes differ"]


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_rank_map(path, spec, eps: float) -> list[str]:
    """Ranks within the bound and within one of an SVD of the reference block."""
    rows = _read_csv(path)
    if not rows:
        return [f"{path}: empty rank map"]
    problems = []
    top = max(int(r["svd_rank"]) for r in rows)
    if top > MAX_RANK:
        problems.append(f"{_name(spec)}: max svd_rank {top} > {MAX_RANK}")
    for r in rows:
        r0, r1, c0, c1 = (int(r[k]) for k in ("row_lo", "row_hi", "col_lo", "col_hi"))
        s = np.linalg.svd(reference.dense_block(spec, r0, r1, c0, c1), compute_uv=False)
        ref_rank = int(np.sum(s > eps * s[0]))
        if abs(int(r["svd_rank"]) - ref_rank) > RANK_SLACK:
            problems.append(f"{_name(spec)}: block level {r['level']} index {r['index']} "
                            f"svd_rank {r['svd_rank']} vs reference {ref_rank}")
    return problems


def check_eps_sweep(path) -> list[str]:
    """Max rank non-decreasing and linear in ln(1/eps)."""
    rows = sorted(_read_csv(path), key=lambda r: -float(r["eps"]))
    t = np.array([math.log(1.0 / float(r["eps"])) for r in rows])
    rank = np.array([float(r["max_rank"]) for r in rows])
    problems = []
    if np.any(np.diff(rank) < 0):
        problems.append(f"{path}: max rank decreases as eps shrinks: {rank.tolist()}")
    ss_tot = float(np.sum((rank - rank.mean()) ** 2))
    fit = np.polyval(np.polyfit(t, rank, 1), t)
    r2 = 1.0 - float(np.sum((rank - fit) ** 2)) / ss_tot if ss_tot > 0 else float("nan")
    if not r2 >= MIN_R2:
        problems.append(f"{path}: R^2 {r2:.3f} of max rank against ln(1/eps) < {MIN_R2}")
    return problems


def check_tiling(path) -> list[str]:
    (row,) = _read_csv(path)
    ok = float(row["covered"]) == 1.0 and int(row["overlaps"]) == 0
    return [] if ok else [f"tiling covered={row['covered']} overlaps={row['overlaps']}"]


def _name(spec) -> str:
    return type(spec).__name__
