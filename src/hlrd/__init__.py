"""hlrd: hierarchical low-rank structure of one-parameter distribution matrices.

Matrices built from binomial, Poisson and chi-squared families concentrate
along a diagonal ridge and decay like the negative exponential of a
divergence away from it.  This package builds the dyadic staircase
partition of the off-diagonal region, compresses each block by a separated
(low-rank) approximation, assembles the result into a hierarchical matrix
with fast matvec, and measures numerical ranks against an SVD oracle.
"""

from .divergence import (
    DivergenceKind,
    DivergenceDomainError,
    Regime,
    SolverError,
    ThresholdPair,
    divergence,
    divergence_ratio,
    solve_thresholds,
)
from .partition import (
    Block,
    PartitionScheme,
    QuarterPlane,
    UnitSquare,
    block_intervals,
    build_scheme,
    verify_tiling,
)
from .separated import (
    BuilderError,
    RankConvention,
    SeparatedApprox,
    aca_blocks,
    aca_build,
    build_constructive,
    build_product,
    constructive_blocks,
    numerical_rank,
    rank_from_singular_values,
    singular_values,
)
from .families import (
    BinomialFamily,
    ChiSquaredFamily,
    KernelMap,
    PoissonFamily,
    StirlingUndefinedError,
    dense_matrix,
    entry_exact,
    entry_stirling,
    kernel_map,
)
from .hmatrix import (
    Builder,
    HMatrix,
    StorageReport,
    VerifyReport,
    compress,
    matvec,
    storage_report,
    verify,
)
from .container import load_hmatrix, save_hmatrix

__version__ = "0.1.0"
