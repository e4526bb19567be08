"""Pursuit solvers for hierarchically structured measurements.

hihtp alternates a unit-step gradient update, hierarchical thresholding of
the updated iterate, and a least-squares refit on the selected support;
htp_flat is the same loop with unstructured top-K thresholding, kept as the
baseline that ignores the block structure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .blocks import BlockVector, HiSparsity, HiSupport, hi_threshold
from .errors import DimensionError
from .operators import HierarchicalOperator

STOP_SUPPORT_REPEAT = "support-repeat"
STOP_RESIDUAL = "residual"
STOP_MAX_ITERS = "max-iters"
STOP_LS_FAILURE = "ls-failure"


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and tolerance knobs shared by the pursuit solvers.

    The refit on the selected support S solves its normal equations by
    Cholesky on the structured Gram matrix when out_dim >= 2|S|, and takes
    one dense least-squares solve (LAPACK gelsd via numpy.linalg.lstsq)
    otherwise, or when the Cholesky factor L fails or has min/max diag(L)
    below GRAM_DIAG_RATIO = 1e-3 (see _restricted_lstsq).  The route
    depends on the support's shape and on its Gram matrix, both fixed by
    the support, so the refit is a function of the support alone.
    """

    max_iters: int = 50
    residual_tol: float = 1e-7

    def __post_init__(self):
        # bool is an Integral, and True would read as one iteration
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        # inf, or True read as 1.0, would stop every solve at its first
        # refit as converged, and nan would never stop one
        tol = self.residual_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) \
                or not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"residual_tol must be a finite number >= 0, got {tol!r}")


@dataclass(eq=False)
class SolverResult:
    estimate: BlockVector
    support: HiSupport
    iterations: int
    residual_norm: float
    converged: bool
    stop_reason: str


def _scatter(H: HierarchicalOperator, cols: np.ndarray, values: np.ndarray) -> BlockVector:
    out = BlockVector.zeros(H.structure)
    out.coeffs[cols] = values
    return out


# Cholesky fallback threshold on min/max diag(L).  cond(G) >= (max/min)^2,
# so a ratio below 1e-3 means cond(G) >= 1e6, far past the Marchenko-Pastur
# bound of about 34 for a random support at most half as wide as it is
# tall: the normal equations are not trusted there, and lstsq decides.
GRAM_DIAG_RATIO = 1e-3


# Rows per diagonal block of the triangular substitution in _gram_solve.
_TRI_BLOCK = 64


def _triangular_solve(T: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """T^{-1} b for a lower (or upper) triangular T, by blocked substitution
    (Golub & Van Loan, Matrix Computations, sec. 3.1): each diagonal block of
    at most _TRI_BLOCK rows is one np.linalg.solve, after one matmul takes
    the rows already solved off its right-hand side.  Up to _TRI_BLOCK rows
    it is the single solve np.linalg.solve(T, b)."""
    n = T.shape[0]
    if n <= _TRI_BLOCK:
        return np.linalg.solve(T, b)
    x = np.empty(n, dtype=np.result_type(T, b))
    starts = range(0, n, _TRI_BLOCK)
    for lo in starts if lower else reversed(starts):
        hi = min(lo + _TRI_BLOCK, n)
        rhs = b[lo:hi]
        if lower and lo:
            rhs = rhs - T[lo:hi, :lo] @ x[:lo]
        elif not lower and hi < n:
            rhs = rhs - T[lo:hi, hi:] @ x[hi:]
        x[lo:hi] = np.linalg.solve(T[lo:hi, lo:hi], rhs)
    return x


def _gram_solve(G: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """G^{-1} b by Cholesky for Hermitian G, or None when the factorization
    fails or min/max diag(L) < GRAM_DIAG_RATIO."""
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    d = L.diagonal().real
    if d.min() < GRAM_DIAG_RATIO * d.max():
        return None
    w = _triangular_solve(L, b, lower=True)
    # L^* z = w as L^T conj(z) = conj(w): L.T is a view, no conjugated copy
    return np.conj(_triangular_solve(L.T, np.conj(w), lower=False))


def _restricted_lstsq(
    H: HierarchicalOperator, y: np.ndarray, support: HiSupport, hy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool, np.ndarray]:
    """Minimize ||y - H z|| over z supported in `support`; hy is H^* y.

    Returns the support's global column indices in ascending order (the
    support is validated once, here: IndexError when it does not fit H),
    the minimizer's values on them (scatter them with _scatter), whether
    the selected columns are rank deficient, and the residual y - H z
    from H._apply_gathered, with the bits of y - H.apply of the scattered
    minimizer.  The columns are gathered once and serve the solve and the
    residual alike.

    A support with out_dim >= 2|S| solves the normal equations
    G z = (H^* y)[S], with G = H.gram(cols) built from the structure in
    O(m|S|^2), by Cholesky.  The normal equations square the condition
    number; by the Marchenko-Pastur edges, cond(G) of a random support at
    most half as wide as it is tall is about 34 at most.  Wider supports,
    and a Cholesky that fails or whose min/max diag(L) is below
    GRAM_DIAG_RATIO, take one dense lstsq on the assembled columns, whose
    rank check reports rank deficiency.  The route depends on the support
    alone (its size and its Gram matrix), so the result depends on the
    support alone, which the pursuit's cycle skip relies on."""
    cols = support.column_indices(H.structure)
    if not cols.size:
        return cols, np.zeros(0, dtype=np.complex128), False, y
    gathered = H._gather(cols)
    sol, rank_deficient = None, False
    if H.out_dim >= 2 * cols.size:
        sol = _gram_solve(H._gram(gathered), hy[cols])
    if sol is None:
        sol, _, rank, _ = np.linalg.lstsq(H._dense(gathered), y, rcond=None)
        rank_deficient = rank < cols.size
    return cols, sol, rank_deficient, y - H._apply_gathered(cols, gathered, sol)


def _measurements(H: HierarchicalOperator, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if y.shape[0] != H.out_dim:
        raise DimensionError("measurement length does not match the operator")
    if not np.isfinite(y).all():
        raise ValueError("measurements must be finite")
    return y


def _pursuit(H, y, project, cfg: SolverConfig) -> SolverResult:
    """The pursuit loop; project(u) returns the support of the next refit
    for the gradient-updated iterate u."""
    y = _measurements(H, y)
    tol = cfg.residual_tol * float(np.linalg.norm(y))
    # the first gradient H^* y, also the right-hand side of every refit
    hy = H.adjoint_apply(y)
    # every support refit so far, in refit order -> (iteration, its columns,
    # refit values, residual norm)
    refits: dict[HiSupport, tuple[int, np.ndarray, np.ndarray, float]] = {}
    # the iterate x is sol on cols, zero elsewhere; r = y - Hx
    cols, sol, r = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.complex128), y
    stop = STOP_MAX_ITERS
    for t in range(1, cfg.max_iters + 1):
        u = H.adjoint_apply(r) if t > 1 else hy
        u.coeffs[cols] += sol  # u = x + H^*(y - Hx)
        support = project(u)
        seen = refits.get(support)
        if seen is not None:
            j = seen[0]
            if j == t - 1:
                # the previous refit already solved this support
                stop = STOP_SUPPORT_REPEAT
            else:
                # A refit depends on its support alone, so iterations j .. t-1
                # now repeat with period t - j until max_iters; return the
                # state the loop would end in.
                support = list(refits)[j - 1 + (cfg.max_iters - j) % (t - j)]
                t = cfg.max_iters
            break
        cols, sol, rank_deficient, r = _restricted_lstsq(H, y, support, hy.coeffs)
        residual = float(np.linalg.norm(r))
        refits[support] = (t, cols, sol, residual)
        if rank_deficient or residual <= tol:
            stop = STOP_LS_FAILURE if rank_deficient else STOP_RESIDUAL
            break
    _, cols, sol, residual = refits[support]
    converged = stop in (STOP_SUPPORT_REPEAT, STOP_RESIDUAL)
    return SolverResult(_scatter(H, cols, sol), support, t, residual, converged, stop)


def hihtp(
    H: HierarchicalOperator,
    y: np.ndarray,
    k: HiSparsity,
    cfg: SolverConfig = SolverConfig(),
) -> SolverResult:
    """Hierarchical hard thresholding pursuit.

    From x = 0, iterate: gradient update u = x + H*(y - Hx); keep the best
    (s, sigma)-sparse approximation of u to get the next support; refit by
    least squares on that support.  Stops on support repetition, on the
    relative residual dropping below residual_tol, or at max_iters; a
    rank-deficient refit stops with stop_reason "ls-failure" instead of
    raising.  Non-finite measurements raise ValueError.

    The refit depends on the support alone, so once thresholding returns a
    support refit at an earlier iteration j (other than the one before,
    which is the support-repetition stop), the iterates repeat with period
    t - j until max_iters.  That tail is not run: the result is the state
    the loop would end in, with iterations == max_iters, stop_reason
    "max-iters" and converged False, exactly as if every iteration ran.
    """
    k.validate_for(H.structure)
    return _pursuit(H, y, lambda u: hi_threshold(u, k)[1], cfg)


def htp_flat(
    H: HierarchicalOperator,
    y: np.ndarray,
    k_total: int,
    cfg: SolverConfig = SolverConfig(),
) -> SolverResult:
    """Hard thresholding pursuit with unstructured top-k_total selection.

    Baseline that sees only the flat coefficient vector; callers comparing
    against hihtp at budget (s, sigma) typically set
    k_total = s * max(sigma).
    """
    if not 1 <= k_total <= H.total_dim:
        raise ValueError(f"need 1 <= k_total <= {H.total_dim}, got {k_total}")
    st = H.structure

    def project(u: BlockVector) -> HiSupport:
        return HiSupport.of_columns(st, np.argsort(-np.abs(u.coeffs), kind="stable")[:k_total])

    return _pursuit(H, y, project, cfg)
