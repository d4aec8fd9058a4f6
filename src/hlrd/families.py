"""Distribution families: exact entries, Stirling forms, kernel identification.

Three one-parameter families are supported, each viewed as a matrix over a
row grid and a column grid:

* binomial with n trials: rows are the outcomes k (so p = k/n), columns
  discretize the success probability q in (0, 1);
* Poisson: rows are the counts k, columns discretize the intensity
  lambda in (0, lambda_max];
* chi-squared: rows discretize the argument x in (0, x_max], columns are
  the integer degrees of freedom k = 1..k_max.

Each family has one log-entry model: its log-entry is a sum of row terms,
column terms and products of a row term with a column term, e.g.
``ln C(n, k) + k ln q + (n - k) ln(1 - q)`` for the binomial.  The 1-D
terms are computed once per family instance (log-gamma instead of
factorials, so nothing overflows even at n = 2^14).  One core gathers
them at broadcasting indices and exponentiates, and it is the only
evaluator.  ``entry_exact`` checks every index against the matrix and
calls it on the full terms; ``block_oracle`` checks a block's box once
and returns the core on views of the terms sliced to the box, so a
builder's row, column or grid requests inside the block cost only the
gather and ``exp``.  ``dense_matrix`` is ``entry_exact`` on the full
index grid, and the binomial and Poisson exact prefactors are the model
at q = p.  ``entry_stirling`` exposes the Stirling reduction
``prefactor * exp(-n_eff * divergence)`` that explains why the matrices
compress; ``kernel_map`` returns the full identification (divergence
kind, coordinate maps, prefactors) that the compression machinery uses,
also built once per family instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence, Union

import numpy as np
from scipy.special import gammaln

from .divergence import DivergenceKind, divergence

__all__ = [
    "BinomialFamily",
    "ChiSquaredFamily",
    "FAMILIES",
    "FamilySpec",
    "KernelMap",
    "PoissonFamily",
    "StirlingUndefinedError",
    "block_oracle",
    "dense_matrix",
    "entry_exact",
    "entry_stirling",
    "kernel_map",
]


class StirlingUndefinedError(ValueError):
    """Stirling-form undefined here (singular row or column)."""


@dataclass(frozen=True)
class KernelMap:
    """Identification of a family matrix with a divergence kernel.

    ``p_of_row`` / ``q_of_col`` give the kernel coordinates of every row /
    column; the exact entry factors as
    ``exp(exact_log_prefactor) * exp(-n_eff * divergence(kind, p, q))``
    where the exact prefactor depends only on the ``prefactor_axis``
    index.  ``stirling_prefactor`` is the classical approximation of that
    prefactor; it is what ``entry_stirling`` uses.  Singular rows/columns
    are where both prefactor forms break down and are stored dense by the
    hierarchical assembly.  A family instance builds its map once and
    hands the same one to every caller, so the arrays are read-only.
    """

    kind: DivergenceKind
    p_of_row: np.ndarray
    q_of_col: np.ndarray
    n_eff: float
    prefactor_axis: str  # "row" or "col"
    stirling_prefactor: Callable[[np.ndarray], np.ndarray]
    exact_log_prefactor: np.ndarray
    singular_rows: tuple[int, ...]
    singular_cols: tuple[int, ...]

    def __post_init__(self):
        for a in (self.p_of_row, self.q_of_col, self.exact_log_prefactor):
            a.flags.writeable = False


def _positive_finite(x: float) -> bool:
    return math.isfinite(x) and x > 0


@dataclass(frozen=True)
class BinomialFamily:
    """Binomial(n) matrix: rows k = 0..n, columns q_j = (j + 1/2)/cols."""

    n: int
    cols: int = 0  # 0 means: match n

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("binomial needs n >= 1")
        if self.cols < 0:
            raise ValueError("binomial needs cols >= 0 (0 means: match n)")
        if self.cols == 0:
            object.__setattr__(self, "cols", self.n)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n + 1, self.cols)

    def row_values(self) -> np.ndarray:
        return np.arange(self.n + 1, dtype=np.float64)

    def col_values(self) -> np.ndarray:
        return (np.arange(self.cols, dtype=np.float64) + 0.5) / self.cols

    # log-entry model: ln C(n, k) + k ln q + (n - k) ln(1 - q)
    @cached_property
    def _row_terms(self) -> tuple:
        k = self.row_values()
        lc = gammaln(self.n + 1.0) - gammaln(k + 1.0) - gammaln(self.n - k + 1.0)
        return lc, k, self.n - k

    @cached_property
    def _col_terms(self) -> tuple:
        return self._col_terms_at(self.col_values())

    @staticmethod
    def _col_terms_at(q: np.ndarray) -> tuple:
        return np.log(q), np.log1p(-q)

    @staticmethod
    def _log_entry(row: Sequence, col: Sequence) -> np.ndarray:
        lc, k, n_minus_k = row
        log_q, log_1mq = col
        return lc + k * log_q + n_minus_k * log_1mq

    # Bernoulli KL with p = k/n, n_eff = n
    @cached_property
    def _kernel_map(self) -> KernelMap:
        n = self.n
        k = self.row_values()
        p = k / n
        with np.errstate(divide="ignore", invalid="ignore"):
            # exact row prefactor C(n,k) (k/n)^k (1-k/n)^(n-k): the model at q = p;
            # singular ends excluded
            log_pref = self._log_entry(self._row_terms, self._col_terms_at(p))
        log_pref[0] = np.nan
        log_pref[-1] = np.nan

        def stirling_pref(idx, _n=n):
            pp = np.asarray(idx, dtype=np.float64) / _n
            return 1.0 / np.sqrt(2.0 * math.pi * _n * pp * (1.0 - pp))

        return KernelMap(
            kind=DivergenceKind.BERNOULLI,
            p_of_row=p,
            q_of_col=self.col_values(),
            n_eff=float(n),
            prefactor_axis="row",
            stirling_prefactor=stirling_pref,
            exact_log_prefactor=log_pref,
            singular_rows=(0, n),
            singular_cols=(),
        )


@dataclass(frozen=True)
class PoissonFamily:
    """Poisson matrix: rows k = 0..k_max, columns lambda on (0, lambda_max]."""

    k_max: int
    lambda_max: float
    lambda_grid: int

    def __post_init__(self):
        if self.k_max < 1 or self.lambda_grid < 1 or not _positive_finite(self.lambda_max):
            raise ValueError("invalid Poisson family parameters: need k_max >= 1, "
                             "lambda_grid >= 1 and a finite lambda_max > 0")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.k_max + 1, self.lambda_grid)

    def row_values(self) -> np.ndarray:
        return np.arange(self.k_max + 1, dtype=np.float64)

    def col_values(self) -> np.ndarray:
        j = np.arange(1, self.lambda_grid + 1, dtype=np.float64)
        return j * (self.lambda_max / self.lambda_grid)

    # log-entry model: k ln(lambda) - lambda - ln k!
    @cached_property
    def _row_terms(self) -> tuple:
        k = self.row_values()
        return k, gammaln(k + 1.0)

    @cached_property
    def _col_terms(self) -> tuple:
        return self._col_terms_at(self.col_values())

    @staticmethod
    def _col_terms_at(lam: np.ndarray) -> tuple:
        return np.log(lam), lam

    @staticmethod
    def _log_entry(row: Sequence, col: Sequence) -> np.ndarray:
        k, log_k_factorial = row
        log_lam, lam = col
        return k * log_lam - lam - log_k_factorial

    # rate divergence with p = k, q = lambda, n_eff = 1
    @cached_property
    def _kernel_map(self) -> KernelMap:
        k = self.row_values()
        with np.errstate(divide="ignore", invalid="ignore"):
            # exact row prefactor k^k e^{-k} / k!: the model at lambda = k
            log_pref = self._log_entry(self._row_terms, self._col_terms_at(k))
        log_pref[0] = np.nan

        def stirling_pref(idx):
            kk = np.asarray(idx, dtype=np.float64)
            return 1.0 / np.sqrt(2.0 * math.pi * kk)

        return KernelMap(
            kind=DivergenceKind.RATE,
            p_of_row=k,
            q_of_col=self.col_values(),
            n_eff=1.0,
            prefactor_axis="row",
            stirling_prefactor=stirling_pref,
            exact_log_prefactor=log_pref,
            singular_rows=(0,),
            singular_cols=(),
        )


@dataclass(frozen=True)
class ChiSquaredFamily:
    """Chi-squared matrix: rows x on (0, x_max], columns k = 1..k_max."""

    x_max: float
    x_grid: int
    k_max: int

    def __post_init__(self):
        if self.k_max < 1 or self.x_grid < 1 or not _positive_finite(self.x_max):
            raise ValueError("invalid chi-squared family parameters: need k_max >= 1, "
                             "x_grid >= 1 and a finite x_max > 0")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x_grid, self.k_max)

    def row_values(self) -> np.ndarray:
        i = np.arange(1, self.x_grid + 1, dtype=np.float64)
        return i * (self.x_max / self.x_grid)

    def col_values(self) -> np.ndarray:
        return np.arange(1, self.k_max + 1, dtype=np.float64)

    # log-entry model: (k/2 - 1) ln x - x/2 - (k/2) ln 2 - ln Gamma(k/2)
    @cached_property
    def _row_terms(self) -> tuple:
        x = self.row_values()
        return np.log(x), 0.5 * x

    @cached_property
    def _col_terms(self) -> tuple:
        half = 0.5 * self.col_values()
        return half - 1.0, half * math.log(2.0), gammaln(half)

    @staticmethod
    def _log_entry(row: Sequence, col: Sequence) -> np.ndarray:
        log_x, half_x = row
        half_minus_1, half_log_2, log_gamma_half = col
        return half_minus_1 * log_x - half_x - half_log_2 - log_gamma_half

    # dual rate divergence with p = x/2, q = k/2 - 1, n_eff = 1
    @cached_property
    def _kernel_map(self) -> KernelMap:
        kcol = self.col_values()
        qc = 0.5 * kcol - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            # exact column prefactor: q^q e^{-q} / (2 Gamma(q+1)) with q = k/2 - 1.
            # Kept in the q coordinate rather than taken from the model at the
            # mode x = 2q: that rounds differently in the last bit for about
            # half the columns and would change the constructive factors.
            log_pref = qc * np.log(qc) - qc - math.log(2.0) - gammaln(qc + 1.0)
        singular = tuple(int(j) for j in np.nonzero(kcol <= 2.0)[0])
        for j in singular:
            log_pref[j] = np.nan

        def stirling_pref(idx, _k=kcol):
            qq = 0.5 * np.asarray(_k[np.asarray(idx, dtype=np.intp)], dtype=np.float64) - 1.0
            return 1.0 / (2.0 * np.sqrt(2.0 * math.pi * qq))

        return KernelMap(
            kind=DivergenceKind.RATE_DUAL,
            p_of_row=0.5 * self.row_values(),
            q_of_col=qc,
            n_eff=1.0,
            prefactor_axis="col",
            stirling_prefactor=stirling_pref,
            exact_log_prefactor=log_pref,
            singular_rows=(),
            singular_cols=singular,
        )


FamilySpec = Union[BinomialFamily, PoissonFamily, ChiSquaredFamily]

# the name each family goes by in containers and on the command line
FAMILIES = {"binomial": BinomialFamily, "poisson": PoissonFamily, "chisq": ChiSquaredFamily}


# ---------------------------------------------------------------------------
# exact entries
# ---------------------------------------------------------------------------

def _entries(log_entry: Callable, row_terms: tuple, col_terms: tuple, rows, cols) -> np.ndarray:
    """The gather-and-exp core: the model's entries at broadcasting indices into the terms."""
    # open index arrays (rows[:, None], cols[None, :]) broadcast in the
    # arithmetic, so no full-grid index arrays are built
    return np.exp(log_entry([t[rows] for t in row_terms], [t[cols] for t in col_terms]))


def entry_exact(spec: FamilySpec, row, col):
    """Exact matrix entries, elementwise over broadcast integer indices."""
    rows = np.asarray(row, dtype=np.intp)
    cols = np.asarray(col, dtype=np.intp)
    scalar = rows.ndim == 0 and cols.ndim == 0
    n_rows, n_cols = spec.shape
    if np.any(rows < 0) or np.any(rows >= n_rows) or np.any(cols < 0) or np.any(cols >= n_cols):
        raise IndexError(f"index out of range for family of shape {spec.shape}")
    out = _entries(spec._log_entry, spec._row_terms, spec._col_terms, rows, cols)
    return float(out) if scalar else out


def block_oracle(spec: FamilySpec, r0: int, r1: int, c0: int, c1: int) -> Callable:
    """Exact entries of the block rows [r0, r1) x cols [c0, c1), by block-local index.

    The box is checked against the matrix once, here; the returned
    ``oracle(i, j)`` takes integer indices ``0 <= i < r1 - r0`` and
    ``0 <= j < c1 - c0`` that broadcast (0-d, 1-D or the open grid
    ``(i[:, None], j[None, :])``) and returns the entries in the broadcast
    shape, bit for bit equal to ``entry_exact(spec, i + r0, j + c0)``.  It
    does not check its indices: an index past the block's end raises
    ``IndexError`` and a negative one counts from the block's end.
    """
    n_rows, n_cols = spec.shape
    if not (0 <= r0 < r1 <= n_rows and 0 <= c0 < c1 <= n_cols):
        raise IndexError(f"block rows [{r0}, {r1}) cols [{c0}, {c1}) is empty or "
                         f"outside the family of shape {spec.shape}")
    return partial(_entries, spec._log_entry,
                   tuple(t[r0:r1] for t in spec._row_terms),
                   tuple(t[c0:c1] for t in spec._col_terms))


def dense_matrix(spec: FamilySpec) -> np.ndarray:
    """The full dense matrix: ``entry_exact`` on the open index grid."""
    n_rows, n_cols = spec.shape
    return entry_exact(spec, np.arange(n_rows)[:, None], np.arange(n_cols)[None, :])


# ---------------------------------------------------------------------------
# kernel identification and Stirling form
# ---------------------------------------------------------------------------

def kernel_map(spec: FamilySpec) -> KernelMap:
    """Identify the family with its divergence kernel (built once per instance).

    binomial  -> Bernoulli KL with p = k/n, n_eff = n
    Poisson   -> rate divergence with p = k, q = lambda, n_eff = 1
    chi^2     -> dual rate divergence with p = x/2, q = k/2 - 1, n_eff = 1
    """
    if not isinstance(spec, tuple(FAMILIES.values())):
        raise TypeError(f"unsupported family {spec!r}")
    return spec._kernel_map


def entry_stirling(spec: FamilySpec, row: int, col: int) -> float:
    """Stirling-form entry: prefactor * exp(-n_eff * divergence).

    Raises StirlingUndefinedError on the singular rows/columns (binomial
    p in {0, 1}; Poisson k = 0; chi-squared k <= 2), which the assembly
    stores exactly instead.
    """
    kmap = kernel_map(spec)
    n_rows, n_cols = spec.shape
    if not (0 <= row < n_rows and 0 <= col < n_cols):
        raise IndexError(f"index out of range for family of shape {spec.shape}")
    if row in kmap.singular_rows or col in kmap.singular_cols:
        raise StirlingUndefinedError(
            f"Stirling-form undefined here: row={row}, col={col} is singular for {type(spec).__name__}")
    p = kmap.p_of_row[row]
    q = kmap.q_of_col[col]
    div = divergence(kmap.kind, p, q)
    if kmap.prefactor_axis == "row":
        pref = float(kmap.stirling_prefactor(np.asarray([row]))[0])
    else:
        pref = float(kmap.stirling_prefactor(np.asarray([col]))[0])
    return pref * math.exp(-kmap.n_eff * div)
