"""Exact restricted-isometry constants on small instances.

The S-RIP constant of a matrix B is the smallest delta with
|  ||Bx||^2 - ||x||^2 | <= delta * ||x||^2 for every S-sparse x, which
equals max over column subsets T of size S of the spectral norm of
(B_T^* B_T - I).  The hierarchical variant takes the maximum over
(s, sigma)-supports instead of flat ones.  Everything here enumerates
supports explicitly, as lexicographically ordered index arrays behind a
budget guard, gathers their restricted Gram matrices in batches from one
Gram matrix per constant, and diagonalizes every one that certified bounds
cannot rule out, so the returned constants are exact up to eigensolver
roundoff.  The Gram matrix of a hierarchical operator is built from its
structure (HierarchicalOperator.gram), never from a dense assembly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockStructure, HiSparsity, HiSupport
from .errors import BudgetError, as_int
from .operators import HierarchicalOperator, _as_matrix

# Exhaustive enumeration refuses to walk more supports than this, and to
# form a Gram matrix of more complex entries than GRAM_ENTRY_BUDGET
# (50e6 entries ~ 800 MB at complex128).
DEFAULT_SUPPORT_BUDGET = 2_000_000
GRAM_ENTRY_BUDGET = 50_000_000

_CHUNK = 4096
# chunks of at most this many supports skip the pruning bounds
_PRUNE_MIN = 32


@dataclass(frozen=True)
class RipEstimate:
    """An exactly enumerated restricted-isometry constant.

    supports_examined is the full support count and delta is the true
    constant; argmax_support is the support achieving delta: a tuple of
    column indices for flat RIP, a HiSupport for the hierarchical constant.
    """

    delta: float
    supports_examined: int
    argmax_support: object


def hierarchical_support_count(structure: BlockStructure, k: HiSparsity) -> int:
    """Number of maximal (s, sigma)-supports: the order-s elementary
    symmetric polynomial of the per-block counts C(n_i, sigma_i)."""
    k.validate_for(structure)
    e = [0] * (k.s + 1)
    e[0] = 1
    for n, sig in zip(structure.block_sizes, k.sigma):
        c = math.comb(n, sig)
        for j in range(min(k.s, len(e) - 1), 0, -1):
            e[j] += e[j - 1] * c
    return e[k.s]


def _combinations(n: int, r: int, offset: int = 0) -> np.ndarray:
    """Every r-subset of range(offset, offset + n) as one row of a
    (C(n, r), r) index array, rows in lexicographic order."""
    count = math.comb(n, r)
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(offset, offset + n), r)),
        dtype=np.intp,
        count=count * r,
    )
    return flat.reshape(count, r)


def _deviation_gram(cols: int, make_gram) -> np.ndarray:
    """blockdiag(G - I, 0) for the cols x cols Gram matrix G = make_gram().

    Index cols selects the zero row, so a support padded with it to any
    width keeps its deviation: blockdiag(M, 0) has the spectrum of M plus
    zeros.  Refuses with BudgetError, before make_gram allocates anything,
    when the (cols + 1)^2 entries exceed GRAM_ENTRY_BUDGET."""
    side = cols + 1
    if side * side > GRAM_ENTRY_BUDGET:
        raise BudgetError(
            f"the Gram matrix needs {side * side} entries, budget is {GRAM_ENTRY_BUDGET}"
        )
    gram = np.zeros((side, side), dtype=np.complex128)
    gram[:cols, :cols] = make_gram()
    gram.flat[: cols * side : side + 1] -= 1.0
    return gram


def _spectral_norm(herm: np.ndarray) -> np.ndarray:
    """Spectral norm of each Hermitian matrix in a (..., w, w) stack."""
    return np.abs(np.linalg.eigvalsh(herm)).max(axis=-1, initial=0.0)


def _batch_last_index(rows: np.ndarray, side: int) -> np.ndarray:
    """idx (width, width, batch) with idx[i, j, b] the raveled position of
    entry (rows[b, i], rows[b, j]) of a side x side matrix, built in place
    from one contiguous copy of rows.T, so the reductions over i and j run
    along the batch."""
    cols = np.ascontiguousarray(rows.T)
    out = np.empty((cols.shape[0],) + cols.shape, dtype=np.intp)
    idx = np.multiply(cols[:, None, :], side, out=out)
    idx += cols
    return idx


def _norm_upper_bounds(sub: np.ndarray) -> np.ndarray:
    """An upper bound on ||M||_2 for each Hermitian M of a stack, read from
    sub = |M| laid out (width, width, batch): the smaller of the largest
    absolute row sum (Gershgorin) and the Frobenius norm."""
    gershgorin = sub.sum(axis=1).max(axis=0, initial=0.0)
    return np.minimum(gershgorin, np.sqrt(np.einsum("ijb,ijb->b", sub, sub)))


def _live_rows(mag: np.ndarray, flat: np.ndarray, idx: np.ndarray, best: float) -> np.ndarray:
    """Indices of the supports in a chunk that could attain the maximum
    deviation, given the best deviation seen before them.

    idx (width, width, batch) from _batch_last_index indexes the restricted
    matrices of the chunk in flat, the raveled Gram matrix, and mag =
    |flat|, so the bounds read floats and only one restricted matrix is
    gathered as complex.  For Hermitian M, max |M_ij| is a lower bound on
    ||M||_2 and _norm_upper_bounds an upper one.  The floor is the largest
    of best, the largest lower bound and the exact deviation of the support
    with the largest upper bound (usually the maximizer); a support whose
    upper bound falls below the floor, less a roundoff margin, cannot
    attain the maximum."""
    sub = mag.take(idx)
    upper = _norm_upper_bounds(sub)
    top = _spectral_norm(flat.take(idx[:, :, np.argmax(upper)]))
    floor = max(best, float(sub.max(initial=0.0)), float(top))
    return np.flatnonzero(upper >= floor - 1e-12 * (1.0 + floor))


def _joined(parts):
    """The rows of parts as one array; a single part is returned as is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _chunks(batches, chunk: int):
    """Regroup support batches into chunks of at most chunk rows.  A chunk
    cut from one batch is a view of it."""
    parts, fill = [], 0
    for supports in batches:
        lo = 0
        while lo < len(supports):
            part = supports[lo : lo + chunk - fill]
            lo += len(part)
            parts.append(part)
            fill += len(part)
            if fill == chunk:
                yield _joined(parts)
                parts, fill = [], 0
    if parts:
        yield _joined(parts)


def _max_deviation(gram: np.ndarray, batches, chunk: int = _CHUNK):
    """Maximum spectral norm of (G_T - I) over enumerated supports T.

    gram is blockdiag(G - I, 0) from _deviation_gram.  batches yields
    (count, width) arrays of column indices that together list the supports
    in enumeration order.  Narrower supports are padded with the index of
    the zero row (= the column count of G); the returned argmax drops the
    padding.  Each chunk of at most chunk supports gathers its restricted
    matrices from gram through one index laid out (width, width, batch).
    A chunk of more than _PRUNE_MIN rows is first bounded from |gram|, a
    float table made once per call when a chunk is first pruned, and only
    its _live_rows are gathered as complex and reach eigvalsh (a smaller
    chunk costs less to diagonalize whole than to prune).  The first
    support attaining the maximum wins ties, so for a lexicographic
    enumeration the argmax is the lexicographically smallest maximizer.
    Returns (delta, argmax row, count).
    """
    side = gram.shape[0]
    flat, cols = gram.ravel(), side - 1
    mag = None
    best_delta, best_row = -1.0, None
    count = 0
    for rows in _chunks(batches, chunk):
        count += len(rows)
        idx, live = _batch_last_index(rows, side), np.arange(len(rows))
        if len(rows) > _PRUNE_MIN:
            if mag is None:
                mag = np.abs(flat)
            live = _live_rows(mag, flat, idx, best_delta)
            # the live columns as a contiguous copy (idx[:, :, live] is not,
            # and flat.take would copy it again); rebinding drops the full
            # index before the gather, or before the next chunk's is built
            idx = idx.take(live, axis=2)
            if not live.size:
                continue
        devs = _spectral_norm(flat.take(idx).transpose(2, 0, 1))
        j = int(np.argmax(devs))
        if devs[j] > best_delta:
            i = int(live[j])
            best_delta, best_row = float(devs[j]), rows[i][rows[i] < cols]
    return max(best_delta, 0.0), best_row, count


def _check_support_count(count: int) -> None:
    if count > DEFAULT_SUPPORT_BUDGET:
        raise BudgetError(
            f"{count} supports exceed the enumeration budget {DEFAULT_SUPPORT_BUDGET}"
        )


def rip_constant_exact(B: np.ndarray, order: int) -> RipEstimate:
    """Exact S-RIP constant by enumerating all C(cols, S) column subsets.

    delta_0 = 0, because only the zero vector is 0-sparse: order 0 returns
    RipEstimate(0.0, 1, ()) without forming a Gram matrix.  At most
    DEFAULT_SUPPORT_BUDGET supports are enumerated, and the Gram matrix
    B^* B is formed once, with (cols + 1)^2 entries that must fit
    GRAM_ENTRY_BUDGET (BudgetError otherwise, before it is allocated).
    Orders >= 2 within the support budget stay far below that; it refuses
    order-1 calls on 7,071 or more columns."""
    B = _as_matrix(B)
    order = as_int(order, "isometry orders")
    cols = B.shape[1]
    if not 0 <= order <= cols:
        raise ValueError(f"need 0 <= order <= {cols}, got {order}")
    if order == 0:
        return RipEstimate(0.0, 1, ())
    _check_support_count(math.comb(cols, order))
    gram = _deviation_gram(cols, lambda: B.conj().T @ B)
    delta, row, examined = _max_deviation(gram, [_combinations(cols, order)])
    return RipEstimate(delta, examined, tuple(row.tolist()))


def _hierarchical_batches(structure: BlockStructure, k: HiSparsity):
    """The supports of each s-tuple of blocks, tuples in lexicographic
    order: every maximal (s, sigma)-support on those blocks as a row of
    global column indices, rows in lexicographic order.  Rows are
    padded to the widest support, the sum of the s largest sigma_i, with
    the index total_dim (see _max_deviation)."""
    per_block = [
        _combinations(n, sig, structure.offset(i))
        for i, (n, sig) in enumerate(zip(structure.block_sizes, k.sigma))
    ]
    width = sum(sorted(k.sigma, reverse=True)[: k.s])
    for blocks in itertools.combinations(range(structure.num_blocks), k.s):
        lens = [len(per_block[b]) for b in blocks]
        supports = np.full((math.prod(lens), width), structure.total_dim, dtype=np.intp)
        # row r of supports is the multi-index r of grid in C order, so the
        # last block's combination varies fastest
        grid = supports.reshape(*lens, width)
        col = 0
        for axis, b in enumerate(blocks):
            shape = [1] * len(lens) + [k.sigma[b]]
            shape[axis] = lens[axis]
            grid[..., col : col + k.sigma[b]] = per_block[b].reshape(shape)
            col += k.sigma[b]
        yield supports


def hirip_constant_exact(H: HierarchicalOperator, k: HiSparsity) -> RipEstimate:
    """Exact (s, sigma)-HiRIP constant of a hierarchical operator.

    Only maximal supports (exactly s blocks, exactly sigma_i coordinates
    each) are enumerated: every smaller hierarchical support is a principal
    submatrix of a maximal one and cannot increase the spectral deviation.
    The support count must fit DEFAULT_SUPPORT_BUDGET and the Gram matrix
    H.gram(), (total_dim + 1)^2 entries with its border, GRAM_ENTRY_BUDGET.

    The argmax's block tuple is the lexicographically first one holding the
    maximizing row: the blocks owning its columns, then the lowest-indexed
    blocks with sigma_i = 0 (kept active with ()).  The same row in a later
    tuple gathers the same matrix and never wins, so this is the tuple the
    enumeration met it in.
    """
    st = H.structure
    k.validate_for(st)
    _check_support_count(hierarchical_support_count(st, k))
    gram = _deviation_gram(H.total_dim, H.gram)
    delta, row, examined = _max_deviation(gram, _hierarchical_batches(st, k))
    # row is ascending: its blocks in order, each block's columns ascending
    idle = [b for b, sig in enumerate(k.sigma) if sig == 0]
    held = sorted(set(st.owner[row].tolist()))
    blocks = tuple(sorted(held + idle[: k.s - len(held)]))
    return RipEstimate(delta, examined, HiSupport(st, row, blocks))


def hirip_bound(delta_a: float, delta_bs) -> float:
    """Upper bound on the hierarchical constant from the constituents:
    delta_A + max_i delta_{B_i} + delta_A * max_i delta_{B_i}."""
    delta_a = float(delta_a)
    delta_bs = [float(d) for d in delta_bs]
    if not delta_bs:
        raise ValueError("need the isometry constant of at least one block matrix")
    # every constant checked on its own: max() can pass over a nan
    if not all(0 <= d < math.inf for d in (delta_a, *delta_bs)):
        raise ValueError("isometry constants must be finite and non-negative")
    worst_b = max(delta_bs)
    return delta_a + worst_b + delta_a * worst_b


def nuclear_norm_hermitian(X: np.ndarray) -> float:
    """Sum of absolute eigenvalues (equals the trace for PSD inputs)."""
    return float(np.abs(np.linalg.eigvalsh(X)).sum())


def column_necessity_check(
    H: HierarchicalOperator,
    k: HiSparsity,
    tol: float = 1e-10,
) -> dict:
    """Check that every column-weighted block matrix inherits the RIP.

    For each block i, the sigma_i-RIP constant of ||a_i|| * B_i must not
    exceed the hierarchical constant of H: a vector supported on a single
    block is (s, sigma)-sparse, so the restricted isometry of H already
    constrains each weighted B_i.  Blocks with sigma_i = 0 are vacuous:
    their constant is delta_0 = 0.
    """
    hi = hirip_constant_exact(H, k)
    per_block = []
    for i in range(H.num_blocks):
        a_norm = float(np.linalg.norm(H.A[:, i]))
        delta_i = rip_constant_exact(a_norm * H.Bs[i], k.sigma[i]).delta
        per_block.append(
            {
                "block": i,
                "column_norm": a_norm,
                "delta_weighted": delta_i,
                "slack": hi.delta - delta_i,
            }
        )
    slacks = [row["slack"] for row in per_block]
    return {
        "delta_hirip": hi.delta,
        "per_block": per_block,
        "min_slack": min(slacks),
        "max_slack": max(slacks),
        "tolerance": tol,
        "passed": min(slacks) >= -tol,
    }


def prop1_check(
    H: HierarchicalOperator,
    k: HiSparsity,
    active_set,
    gs: dict,
    tol: float = 1e-9,
) -> dict:
    """Necessity bound for the mixing matrix when the block matrices
    cannot demix on their own.

    Given s blocks whose unit sigma_i-sparse probes g_i produce nearly
    identical images (max pairwise distance epsilon), the s-RIP constant of
    A is bounded by delta_hirip / (1 - max_i delta_{B_i} - epsilon)^2.  A
    non-positive denominator means the premise fails and the bound is
    vacuous (reported, not an error).
    """
    st = H.structure
    k.validate_for(st)
    active = tuple(sorted(int(b) for b in active_set))
    if len(active) != k.s:
        raise ValueError(f"active set must have exactly s={k.s} blocks")
    images = {}
    for b in active:
        g = np.asarray(gs[b], dtype=np.complex128).reshape(-1)
        if g.shape[0] != st.block_sizes[b]:
            raise ValueError(f"probe for block {b} has wrong length")
        if not np.isfinite(g).all():
            raise ValueError(f"probe for block {b} is not finite")
        if abs(np.linalg.norm(g) - 1.0) > 1e-8:
            raise ValueError(f"probe for block {b} is not unit-norm")
        if int(np.count_nonzero(g)) > k.sigma[b]:
            raise ValueError(f"probe for block {b} is not sigma_{b}-sparse")
        images[b] = H.Bs[b] @ g
    epsilon = max(
        float(np.linalg.norm(images[i] - images[j]))
        for i in active
        for j in active
    )
    delta_h = hirip_constant_exact(H, k).delta
    # one constant per distinct (B_i, sigma_i): a Kronecker operator repeats
    # one array N times
    delta_bs = {}
    for B, sig in zip(H.Bs, k.sigma):
        if (id(B), sig) not in delta_bs:
            delta_bs[id(B), sig] = rip_constant_exact(B, sig).delta
    delta_b = max(delta_bs.values())
    delta_a = rip_constant_exact(H.A, k.s).delta
    denom = 1.0 - delta_b - epsilon
    report = {
        "epsilon": epsilon,
        "delta_hirip": delta_h,
        "delta_b_max": delta_b,
        "delta_a": delta_a,
        "denominator": denom,
        "tolerance": tol,
    }
    if denom <= 0.0:
        report.update(status="premise violated, bound vacuous", bound=None, passed=True)
    else:
        bound = delta_h / denom**2
        report.update(status="checked", bound=bound, passed=delta_a <= bound + tol)
    return report


def lemma1_check(A: np.ndarray, X: np.ndarray, tol: float = 1e-9) -> dict:
    """Trace inequality for Hermitian matrices with a small square pattern.

    If every nonzero row and column of the Hermitian X lies in one index
    set of size s, then |<A^*A, X> - ||X||_*| <= delta_s(A) * ||X||_*,
    with the nuclear norm taken as the sum of absolute eigenvalues.  The
    inequality is a theorem for PSD X (where the nuclear norm is the
    trace); indefinite Hermitian inputs are accepted and reported but the
    bound need not hold for them.
    """
    A = _as_matrix(A)
    X = _as_matrix(X)
    if X.shape[0] != X.shape[1] or X.shape[0] != A.shape[1]:
        raise ValueError("X must be square with side equal to the column count of A")
    scale = max(1.0, float(np.abs(X).max()))
    if float(np.abs(X - X.conj().T).max()) > 1e-12 * scale:
        raise ValueError("X is not Hermitian to 1e-12")
    s = int(np.count_nonzero((X != 0).any(axis=1)))
    nuclear = nuclear_norm_hermitian(X)
    inner = np.vdot(A.conj().T @ A, X)
    deviation = float(abs(inner - nuclear))
    delta = rip_constant_exact(A, s).delta
    return {
        "pattern_size": s,
        "delta": delta,
        "inner_product": float(inner.real),
        "nuclear_norm": nuclear,
        "deviation": deviation,
        "tolerance": tol,
        "passed": deviation <= delta * nuclear + tol,
    }
