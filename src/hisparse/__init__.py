"""Hierarchically sparse signal recovery from hierarchically structured
measurements: block-sparse signal model, structured measurement operators,
the HiHTP solver, exact restricted-isometry constants on small instances,
and a Monte Carlo experiment harness."""

from .blocks import (
    BlockStructure,
    BlockVector,
    HiSparsity,
    HiSupport,
    block_norms,
    hi_threshold,
    is_hi_sparse,
)
from .ensembles import (
    gaussian_matrix,
    restrict_columns,
    spawn_seedseq,
    subsampled_dft,
)
from .errors import BudgetError, DimensionError
from .operators import HierarchicalOperator, kronecker_operator
from .riplab import (
    RipEstimate,
    column_necessity_check,
    hirip_bound,
    hirip_constant_exact,
    lemma1_check,
    prop1_check,
    rip_constant_exact,
)
from .solvers import SolverConfig, SolverResult, hihtp, htp_flat

__version__ = "0.1.0"

__all__ = [
    "BlockStructure",
    "BlockVector",
    "HiSparsity",
    "HiSupport",
    "HierarchicalOperator",
    "RipEstimate",
    "SolverConfig",
    "SolverResult",
    "BudgetError",
    "DimensionError",
    "block_norms",
    "column_necessity_check",
    "gaussian_matrix",
    "hi_threshold",
    "hihtp",
    "hirip_bound",
    "hirip_constant_exact",
    "htp_flat",
    "is_hi_sparse",
    "kronecker_operator",
    "lemma1_check",
    "prop1_check",
    "restrict_columns",
    "rip_constant_exact",
    "spawn_seedseq",
    "subsampled_dft",
]
