"""Every entry of a compressed matrix against the exact entries, block by block.

``block_errors`` rebuilds each low-rank piece from its own factors (the
slots ``hmatrix.payload_arrays`` hands out), a panel of rows at a time,
and compares it with ``families.block_oracle`` over the piece's box; on
request, the rest of the piece's block too, where nothing is stored and
the matrix reads 0.  Sampled checks (``hmatrix.verify``) mostly draw
entries far below eps and can read an error several times low; this one
reads every entry.  Dense pieces store the oracle's entries, so
``dense_mismatches`` compares them bit for bit.

Run as a script it compresses matrices and checks every piece's box:

    PYTHONPATH=src python tests/panel_check.py --family binomial --n 16384 --eps 1e-9

prints the worst block's (level, index) and its error, and exits 1 when
any block errs by more than 10 eps or a dense piece differs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from hlrd.families import BinomialFamily, ChiSquaredFamily, PoissonFamily, block_oracle
from hlrd.hmatrix import Builder, compress, index_layout, payload_arrays, table_boxes

PANEL_ROWS = 256
BOUND = 10.0   # the error contract, in units of eps


def family(name: str, n: int):
    """The square n-point matrix of a family, as the tests and the benchmark build it."""
    if name == "binomial":
        return BinomialFamily(n=n)
    if name == "poisson":
        return PoissonFamily(k_max=n, lambda_max=float(n), lambda_grid=n)
    return ChiSquaredFamily(x_max=float(n), x_grid=n, k_max=n)


def block_errors(h, outside: bool = True) -> dict:
    """Largest |H - A| of each low-rank piece, keyed by its block's (level, index).

    Over the piece's box the piece is ``alpha @ beta.T`` from its slots,
    ``PANEL_ROWS`` rows at a time; with ``outside`` the region is the
    piece's whole block, which reads 0 outside the box.
    """
    slots = payload_arrays(h.layout, h.lowrank, h.dense)
    blocks = dict(index_layout(h.spec, h.scheme)[2]) if outside else {}
    errors = {}
    for k, (rec, (r0, r1, c0, c1)) in enumerate(zip(h.lowrank, table_boxes(h.lowrank).tolist())):
        key = (int(rec["level"]), int(rec["index"]))
        alpha, beta = slots[2 * k], slots[2 * k + 1]
        b0, b1, d0, d1 = blocks[key] if outside else (r0, r1, c0, c1)
        exact = block_oracle(h.spec, b0, b1, d0, d1)
        cols = np.arange(d1 - d0)[None, :]
        worst = 0.0
        for p0 in range(b0, b1, PANEL_ROWS):
            p1 = min(p0 + PANEL_ROWS, b1)
            err = exact(np.arange(p0 - b0, p1 - b0)[:, None], cols)
            lo, hi = max(p0, r0), min(p1, r1)
            if lo < hi:
                err[lo - p0:hi - p0, c0 - d0:c1 - d0] -= alpha[lo - r0:hi - r0] @ beta.T
            worst = max(worst, float(np.max(np.abs(err))))
        errors[key] = worst
    return errors


def dense_mismatches(h) -> list:
    """The boxes of the dense pieces whose values are not the oracle's, bit for bit."""
    slots = payload_arrays(h.layout, h.lowrank, h.dense)[2 * len(h.lowrank):]
    out = []
    for (r0, r1, c0, c1), values in zip(table_boxes(h.dense).tolist(), slots):
        exact = block_oracle(h.spec, r0, r1, c0, c1)(np.arange(r1 - r0)[:, None],
                                                     np.arange(c1 - c0)[None, :])
        if not np.array_equal(values, exact):
            out.append((r0, r1, c0, c1))
    return out


def worst_block(errors: dict) -> tuple:
    """((level, index), error) of the block with the largest error."""
    return max(errors.items(), key=lambda item: item[1], default=((-1, -1), 0.0))


def assert_within(errors: dict, eps: float) -> None:
    """AssertionError naming the worst block unless every block errs by at most 10 eps."""
    (level, index), err = worst_block(errors)
    assert err <= BOUND * eps, (f"block level={level} index={index} error {err:.3e} "
                                f"> {BOUND:g} eps = {BOUND * eps:.3e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--family", choices=["binomial", "poisson", "chisq"], required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--eps", type=float, required=True)
    parser.add_argument("--builder", choices=[b.value for b in Builder], default="constructive")
    args = parser.parse_args(argv)
    h = compress(family(args.family, args.n), args.eps, builder=Builder(args.builder))
    errors = block_errors(h, outside=False)
    (level, index), err = worst_block(errors)
    mismatched = dense_mismatches(h)
    print(f"{args.family} n={args.n} eps={args.eps:g} {args.builder}: {len(errors)} pieces, "
          f"worst level={level} index={index} error {err:.3e} = {err / args.eps:.3f} eps; "
          f"{len(mismatched)} dense pieces differ")
    return 0 if err <= BOUND * args.eps and not mismatched else 1


if __name__ == "__main__":
    sys.exit(main())
