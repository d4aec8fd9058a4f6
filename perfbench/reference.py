"""Family matrix entries from scipy.stats, independent of hlrd's own formulas.

The grids follow the family definitions documented in ``hlrd.families``:

* binomial(n, cols): row k = 0..n, column q_j = (j + 1/2) / cols, entry
  ``binom.pmf(k, n, q_j)``;
* Poisson(k_max, lambda_max, lambda_grid): row k = 0..k_max, column
  lambda_j = (j + 1) lambda_max / lambda_grid, entry ``poisson.pmf(k, lambda_j)``;
* chi-squared(x_max, x_grid, k_max): row x_i = (i + 1) x_max / x_grid,
  column k = j + 1 degrees of freedom, entry ``chi2.pdf(x_i, k)``.

Only the family parameters are read from the spec; no hlrd function runs.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from hlrd import BinomialFamily, ChiSquaredFamily, PoissonFamily


def entries(spec, rows, cols) -> np.ndarray:
    """Reference entries at broadcast integer (row, col) indices."""
    i = np.asarray(rows, dtype=np.float64)
    j = np.asarray(cols, dtype=np.float64)
    if isinstance(spec, BinomialFamily):
        return stats.binom.pmf(i, spec.n, (j + 0.5) / spec.cols)
    if isinstance(spec, PoissonFamily):
        return stats.poisson.pmf(i, (j + 1.0) * (spec.lambda_max / spec.lambda_grid))
    if isinstance(spec, ChiSquaredFamily):
        return stats.chi2.pdf((i + 1.0) * (spec.x_max / spec.x_grid), j + 1.0)
    raise TypeError(f"no reference for {spec!r}")


def dense_block(spec, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """Reference entries of rows [r0, r1) and columns [c0, c1)."""
    return entries(spec, np.arange(r0, r1)[:, None], np.arange(c0, c1)[None, :])
