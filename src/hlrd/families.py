"""Distribution families: exact entries, Stirling forms, kernel identification.

Three one-parameter families are supported, each viewed as a matrix over a
row grid and a column grid:

* binomial with n trials: rows are the outcomes k (so p = k/n), columns
  discretize the success probability q in (0, 1);
* Poisson: rows are the counts k, columns discretize the intensity
  lambda in (0, lambda_max];
* chi-squared: rows discretize the argument x in (0, x_max], columns are
  the integer degrees of freedom k = 1..k_max.

Every entry comes from one formula, the paper's factorization
``exp(exact_log_prefactor - n_eff * D(p, q))`` (``kernel_map`` holds its
pieces).  The exact prefactor is the Stirling prefactor times
``exp(-remainder)``, from Stirling's remainder ``stirlerr``:
``stirlerr(k) + stirlerr(n - k) - stirlerr(n)`` (binomial), ``stirlerr(k)``
(Poisson), ``stirlerr(k/2 - 1)`` (chi-squared, half a Poisson term).  D
is taken in the bd0 form ``x log1p((x - m)/m) - (x - m)``, whose terms are
of size |x - m|, so entries are accurate to rounding at every n (C.
Loader, "Fast and Accurate Computation of Binomial Probabilities", 2000).
``entry_exact``, ``dense_matrix``, ``block_oracle`` (which checks a box
once) and ``entry_stirling`` use it; the singular rows or columns
(binomial k in {0, n}, Poisson k = 0, chi-squared k <= 2), where the
Stirling prefactor is not finite, take a one-line formula per family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, ClassVar, Union

import numpy as np
from scipy.special import gammaln

from .divergence import DivergenceKind

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
    prefactor, per index of the same axis; ``entry_stirling`` uses it.
    Singular rows/columns are where the Stirling prefactor, and so the exact
    one, is not finite (NaN here); the hierarchical assembly stores them dense.
    A family instance builds its map once and hands the same one to every
    caller, so the arrays are read-only.
    """

    kind: DivergenceKind
    p_of_row: np.ndarray
    q_of_col: np.ndarray
    n_eff: float
    prefactor_axis: str  # "row" or "col"
    stirling_prefactor: np.ndarray
    exact_log_prefactor: np.ndarray
    singular_rows: tuple[int, ...]
    singular_cols: tuple[int, ...]

    def __post_init__(self):
        for a in (self.p_of_row, self.q_of_col, self.stirling_prefactor,
                  self.exact_log_prefactor):
            a.flags.writeable = False


# JSON true and false are Python ints, and a container's fields come through here
def _is_count(x, least: int = 1) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= least


def _positive_finite(x: float) -> bool:
    return (not isinstance(x, bool) and isinstance(x, (int, float))
            and math.isfinite(x) and x > 0)


def _stirlerr(x: np.ndarray) -> np.ndarray:
    """Stirling's remainder ``ln Gamma(x + 1) - ln(sqrt(2 pi x) (x/e)^x)``; NaN unless x > 0.

    Five terms of its series past 15 (the sixth is below 2.3e-16); below, the
    recurrence ``stirlerr(x) = stirlerr(x + 1) + (x + 1/2) log1p(1/x) - 1``.
    """
    y = np.where(x > 0.0, x, np.nan)
    walked = np.zeros_like(y)
    for _ in range(15):
        low = y <= 15.0
        walked[low] += (y[low] + 0.5) * np.log1p(1.0 / y[low]) - 1.0
        y[low] += 1.0
    z = 1.0 / (y * y)
    return walked + (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - z / 1188) * z) * z) * z) / y


def _entries(x_terms: tuple, m_terms: tuple, x_at, m_at) -> np.ndarray:
    """exp(log_prefactor - n_eff D) in place; rate kinds: n_eff = 1, D = x log1p((x - m)/m) - (x - m).

    On ``_Family._operands`` cut to a box (x on the prefactor axis).  The Bernoulli KL
    is rate plus reflected rate: ``n p log1p((p - q)/q) + n (1 - p) log1p((q - p)/(1 - q))``.
    """
    x, neg_n_x, log_prefactor = x_terms[:3]
    m = m_terms[0][m_at]
    d = x[x_at] - m
    if not d.ndim:
        # one entry: as a 1-element array, so that every step below runs in place
        return _entries(x_terms, m_terms, np.reshape(x_at, 1), m_at)[0]
    out = d / m
    np.log1p(out, out=out)
    out *= neg_n_x[x_at]
    if len(m_terms) == 1:
        out += d
    else:
        d /= m_terms[1][m_at]   # (p - q)/(q - 1) = (q - p)/(1 - q)
        np.log1p(d, out=d)
        d *= x_terms[3][x_at]
        out += d
    out += log_prefactor[x_at]
    return np.exp(out, out=out)


class _Family:
    """The kernel map and the formula's operands, from each family's ``kind``, coordinates,
    prefactor axis, ``n_eff``, Stirling prefactor and remainder, and singular formula."""

    @cached_property
    def _kernel_map(self) -> KernelMap:
        p, q = self._coordinates
        by_row = self.prefactor_axis == "row"
        with np.errstate(divide="ignore", invalid="ignore"):
            stirling_pref = self._stirling_prefactor()
            log_pref = np.log(stirling_pref) - self._stirling_remainder()
        # singular: the ridge leaves the Stirling form's domain, and neither prefactor is finite
        singular = tuple(np.flatnonzero(~np.isfinite(log_pref)).tolist())
        return KernelMap(kind=self.kind, p_of_row=p, q_of_col=q, n_eff=self.n_eff,
                         prefactor_axis=self.prefactor_axis, stirling_prefactor=stirling_pref,
                         exact_log_prefactor=log_pref, singular_rows=singular if by_row else (),
                         singular_cols=() if by_row else singular)

    @cached_property
    def _operands(self) -> tuple[tuple, tuple]:
        """The x-side and m-side arrays of the family's entry kernel."""
        p, q = self._coordinates
        log_pref = self._kernel_map.exact_log_prefactor
        if self.kind is DivergenceKind.BERNOULLI:
            n = self.n_eff
            return (p, -n * p, log_pref, -n * (1.0 - p)), (q, q - 1.0)
        # m held at 2^50 keeps log1p((x - m)/m) finite for every regular x >= 1/2
        # (see divergence._rate); past it every entry is 0 either way
        x, m = (p, q) if self.prefactor_axis == "row" else (q, p)
        return (x, -x, log_pref), (np.minimum(m, 2.0 ** 50),)

    def _formula(self, r0: int, r1: int, c0: int, c1: int) -> Callable:
        """The entry kernel on rows [r0, r1) x cols [c0, c1), by block-local index."""
        by_row = self.prefactor_axis == "row"
        x_lo, x_hi, m_lo, m_hi = (r0, r1, c0, c1) if by_row else (c0, c1, r0, r1)
        x_terms, m_terms = self._operands
        x_terms = tuple(t[x_lo:x_hi] for t in x_terms)
        m_terms = tuple(t[m_lo:m_hi] for t in m_terms)
        if by_row:
            return partial(_entries, x_terms, m_terms)
        return lambda i, j: _entries(x_terms, m_terms, j, i)


@dataclass(frozen=True)
class BinomialFamily(_Family):
    """Binomial(n) matrix: rows k = 0..n, columns q_j = (j + 1/2)/cols."""

    n: int
    cols: int = 0  # 0 means: match n

    def __post_init__(self):
        if not _is_count(self.n):
            raise ValueError(f"binomial needs an integer n >= 1, got {self.n!r}")
        if not _is_count(self.cols, 0):
            raise ValueError(f"binomial needs an integer cols >= 0 (0 means: match n), "
                             f"got {self.cols!r}")
        if self.cols == 0:
            object.__setattr__(self, "cols", self.n)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n + 1, self.cols)

    def row_values(self) -> np.ndarray:
        return np.arange(self.n + 1, dtype=np.float64)

    def col_values(self) -> np.ndarray:
        return (np.arange(self.cols, dtype=np.float64) + 0.5) / self.cols

    # Bernoulli KL with p = k/n, n_eff = n; row prefactor C(n,k) (k/n)^k (1-k/n)^(n-k)
    kind: ClassVar[DivergenceKind] = DivergenceKind.BERNOULLI
    prefactor_axis: ClassVar[str] = "row"

    @property
    def n_eff(self) -> float:
        return float(self.n)

    @cached_property
    def _coordinates(self) -> tuple:
        return self.row_values() / self.n, self.col_values()

    def _stirling_prefactor(self) -> np.ndarray:
        p = self._coordinates[0]
        return 1.0 / np.sqrt(2.0 * math.pi * self.n * p * (1.0 - p))

    def _stirling_remainder(self) -> np.ndarray:
        se = _stirlerr(self.row_values())   # k = 0..n, so se[::-1] is stirlerr(n - k)
        return se + se[::-1] - se[-1]

    def _singular_entry(self, k: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.exp(k * np.log(q) + (self.n - k) * np.log1p(-q))   # k in {0, n}: C(n, k) = 1


@dataclass(frozen=True)
class PoissonFamily(_Family):
    """Poisson matrix: rows k = 0..k_max, columns lambda on (0, lambda_max]."""

    k_max: int
    lambda_max: float
    lambda_grid: int

    def __post_init__(self):
        if not (_is_count(self.k_max) and _is_count(self.lambda_grid)
                and _positive_finite(self.lambda_max)):
            raise ValueError("invalid Poisson family parameters: need integers k_max >= 1 "
                             "and lambda_grid >= 1 and a finite lambda_max > 0")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.k_max + 1, self.lambda_grid)

    def row_values(self) -> np.ndarray:
        return np.arange(self.k_max + 1, dtype=np.float64)

    def col_values(self) -> np.ndarray:
        j = np.arange(1, self.lambda_grid + 1, dtype=np.float64)
        return j * (self.lambda_max / self.lambda_grid)

    def coordinate_bounds(self) -> tuple[float, float, float]:
        """(largest p, largest q, nominal step of the finer axis), from the parameters alone.

        The largest values are the grids' last points by the operations
        that form them, bit for bit."""
        step = self.lambda_max / self.lambda_grid
        return float(self.k_max), float(self.lambda_grid) * step, min(1.0, step)

    # rate divergence with p = k, q = lambda, n_eff = 1; row prefactor k^k e^{-k} / k!
    kind: ClassVar[DivergenceKind] = DivergenceKind.RATE
    prefactor_axis: ClassVar[str] = "row"
    n_eff: ClassVar[float] = 1.0

    @cached_property
    def _coordinates(self) -> tuple:
        return self.row_values(), self.col_values()

    def _stirling_prefactor(self) -> np.ndarray:
        return 1.0 / np.sqrt(2.0 * math.pi * self._coordinates[0])

    def _stirling_remainder(self) -> np.ndarray:
        return _stirlerr(self._coordinates[0])

    def _singular_entry(self, k: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return np.exp(k * np.log(lam) - lam)   # k = 0: e^{-lambda}


@dataclass(frozen=True)
class ChiSquaredFamily(_Family):
    """Chi-squared matrix: rows x on (0, x_max], columns k = 1..k_max."""

    x_max: float
    x_grid: int
    k_max: int

    def __post_init__(self):
        if not (_is_count(self.k_max) and _is_count(self.x_grid) and _positive_finite(self.x_max)):
            raise ValueError("invalid chi-squared family parameters: need integers k_max >= 1 "
                             "and x_grid >= 1 and a finite x_max > 0")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x_grid, self.k_max)

    def row_values(self) -> np.ndarray:
        i = np.arange(1, self.x_grid + 1, dtype=np.float64)
        return i * (self.x_max / self.x_grid)

    def col_values(self) -> np.ndarray:
        return np.arange(1, self.k_max + 1, dtype=np.float64)

    def coordinate_bounds(self) -> tuple[float, float, float]:
        """``PoissonFamily.coordinate_bounds`` for p = x/2 and q = k/2 - 1."""
        step = self.x_max / self.x_grid
        return (0.5 * (float(self.x_grid) * step), 0.5 * float(self.k_max) - 1.0,
                0.5 * min(step, 1.0))

    # dual rate divergence with p = x/2, q = k/2 - 1, n_eff = 1; column
    # prefactor q^q e^{-q} / (2 Gamma(q+1))
    kind: ClassVar[DivergenceKind] = DivergenceKind.RATE_DUAL
    prefactor_axis: ClassVar[str] = "col"
    n_eff: ClassVar[float] = 1.0

    @cached_property
    def _coordinates(self) -> tuple:
        return 0.5 * self.row_values(), 0.5 * self.col_values() - 1.0

    def _stirling_prefactor(self) -> np.ndarray:
        return 1.0 / (2.0 * np.sqrt(2.0 * math.pi * self._coordinates[1]))

    def _stirling_remainder(self) -> np.ndarray:
        return _stirlerr(self._coordinates[1])

    def _singular_entry(self, x: np.ndarray, k: np.ndarray) -> np.ndarray:
        # k <= 2: x^(k/2 - 1) e^(-x/2) / (2^(k/2) Gamma(k/2))
        return np.exp((0.5 * k - 1.0) * np.log(x) - 0.5 * x - 0.5 * k * math.log(2.0)
                      - gammaln(0.5 * k))


FamilySpec = Union[BinomialFamily, PoissonFamily, ChiSquaredFamily]

# the name each family goes by in containers and on the command line
FAMILIES = {"binomial": BinomialFamily, "poisson": PoissonFamily, "chisq": ChiSquaredFamily}


# ---------------------------------------------------------------------------
# exact entries
# ---------------------------------------------------------------------------

def entry_exact(spec: FamilySpec, row, col):
    """Exact matrix entries, elementwise over broadcast integer indices."""
    rows = np.asarray(row, dtype=np.intp)
    cols = np.asarray(col, dtype=np.intp)
    scalar = rows.ndim == 0 and cols.ndim == 0
    n_rows, n_cols = spec.shape
    if np.any(rows < 0) or np.any(rows >= n_rows) or np.any(cols < 0) or np.any(cols >= n_cols):
        raise IndexError(f"index out of range for family of shape {spec.shape}")
    # NaN, from the log prefactor, marks the singular strips; the direct formula serves them
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(spec._formula(0, n_rows, 0, n_cols)(rows, cols))
    singular = np.isnan(out)
    if singular.any():
        rows, cols = np.broadcast_arrays(rows, cols)
        out[singular] = spec._singular_entry(spec.row_values()[rows[singular]],
                                             spec.col_values()[cols[singular]])
    return float(out) if scalar else out


def block_oracle(spec: FamilySpec, r0: int, r1: int, c0: int, c1: int) -> Callable:
    """Exact entries of the block rows [r0, r1) x cols [c0, c1), by block-local index.

    The box is checked against the matrix once, here; the returned
    ``oracle(i, j)`` takes integer indices ``0 <= i < r1 - r0`` and
    ``0 <= j < c1 - c0`` that broadcast (0-d, 1-D or the open grid
    ``(i[:, None], j[None, :])``) and returns the entries in the broadcast
    shape, bit for bit equal to ``entry_exact(spec, i + r0, j + c0)``.  It
    does not check its indices; an index past the block's end raises
    ``IndexError``.
    """
    n_rows, n_cols = spec.shape
    if not (0 <= r0 < r1 <= n_rows and 0 <= c0 < c1 <= n_cols):
        raise IndexError(f"block rows [{r0}, {r1}) cols [{c0}, {c1}) is empty or "
                         f"outside the family of shape {spec.shape}")
    kmap = kernel_map(spec)
    if any(r0 <= i < r1 for i in kmap.singular_rows) or any(c0 <= j < c1 for j in kmap.singular_cols):
        return lambda i, j: entry_exact(spec, i + r0, j + c0)
    return spec._formula(r0, r1, c0, c1)


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
    return _family(spec)._kernel_map


def _family(spec: FamilySpec) -> FamilySpec:
    if not isinstance(spec, tuple(FAMILIES.values())):
        raise TypeError(f"unsupported family {spec!r}")
    return spec


def entry_stirling(spec: FamilySpec, row: int, col: int) -> float:
    """Stirling-form entry: the exact one's formula with the Stirling prefactor.

    Raises StirlingUndefinedError on the singular rows/columns, stored exactly instead."""
    kmap = kernel_map(spec)
    exact = entry_exact(spec, row, col)   # checks the indices
    if row in kmap.singular_rows or col in kmap.singular_cols:
        raise StirlingUndefinedError(
            f"Stirling-form undefined here: row={row}, col={col} is singular for {type(spec).__name__}")
    at = row if kmap.prefactor_axis == "row" else col
    return exact * float(kmap.stirling_prefactor[at] / np.exp(kmap.exact_log_prefactor[at]))
