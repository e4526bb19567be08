"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: the dense assembler
walks entries with explicit loops, the best-approximation oracle enumerates
every hierarchical support pattern, and the small eigenvalue problems use
closed forms where possible.
"""

import itertools

import numpy as np

from hisparse.blocks import BlockStructure, BlockVector, HiSparsity, HiSupport


def dense_by_entries(A, Bs):
    """Entry-by-entry dense assembly of sum_i a_i kron (B_i x_i)."""
    A = np.asarray(A, dtype=np.complex128)
    M, N = A.shape
    m = Bs[0].shape[0]
    sizes = [B.shape[1] for B in Bs]
    D = np.zeros((M * m, sum(sizes)), dtype=np.complex128)
    col = 0
    for i in range(N):
        B = np.asarray(Bs[i], dtype=np.complex128)
        for c in range(sizes[i]):
            for j in range(M):
                for r in range(m):
                    D[j * m + r, col] = A[j, i] * B[r, c]
            col += 1
    return D


def enumerate_hi_patterns(structure: BlockStructure, k: HiSparsity):
    """Every maximal (s, sigma)-support as {block: cols} dicts."""
    per_block = [
        list(itertools.combinations(range(n), sig))
        for n, sig in zip(structure.block_sizes, k.sigma)
    ]
    for blocks in itertools.combinations(range(structure.num_blocks), k.s):
        for choice in itertools.product(*(per_block[b] for b in blocks)):
            yield dict(zip(blocks, choice))


def hirip_by_patterns(A, Bs, k: HiSparsity):
    """Exhaustive (s, sigma)-HiRIP constant: one eigvalsh of the restricted
    Gram matrix of the entry-by-entry dense matrix per maximal support; the
    first maximizer in enumeration order wins ties.

    Returns (delta, argmax as a {block: cols} dict, support count)."""
    D = dense_by_entries(A, Bs)
    structure = BlockStructure(tuple(B.shape[1] for B in Bs))
    best, arg, count = -1.0, None, 0
    for pattern in enumerate_hi_patterns(structure, k):
        count += 1
        cols = [structure.offset(b) + c for b, local in pattern.items() for c in local]
        sub = D[:, cols]
        dev = float(np.abs(np.linalg.eigvalsh(sub.conj().T @ sub) - 1.0).max()) if cols else 0.0
        if dev > best:
            best, arg = dev, pattern
    return max(best, 0.0), arg, count


def best_hi_approx_residual(x: BlockVector, k: HiSparsity) -> float:
    """Exhaustive minimum of ||x - z|| over (s, sigma)-sparse z.

    For a fixed support the optimal z is x restricted to it, so the
    residual is ||x||^2 minus the kept energy; every support pattern is
    evaluated.
    """
    total = float(np.vdot(x.coeffs, x.coeffs).real)
    best_kept = 0.0
    for pattern in enumerate_hi_patterns(x.structure, k):
        kept = 0.0
        for b, cols in pattern.items():
            blk = x.block(b)
            for c in cols:
                kept += abs(blk[c]) ** 2
        best_kept = max(best_kept, kept)
    return float(np.sqrt(max(total - best_kept, 0.0)))


def block_scores_by_loop(x: BlockVector, k: HiSparsity):
    """The in-block step of hi_threshold_by_blocks: each block's kept local
    coordinates, ascending, and the array of block scores."""
    kept, scores = [], np.zeros(x.structure.num_blocks)
    for i, sig in enumerate(k.sigma):
        b = x.block(i)
        local = np.sort(np.argsort(-np.abs(b), kind="stable")[:sig])
        kept.append(local)
        if sig:
            scores[i] = float(np.sum(np.abs(b[local]) ** 2))
    return kept, scores


def hi_threshold_by_blocks(x: BlockVector, k: HiSparsity):
    """Per-block loop of hierarchical thresholding: one stable argsort of
    each block's negated magnitudes keeps its top sigma_i entries, a block
    scores the sum of their squared magnitudes in ascending coordinate
    order, and a stable argsort of the negated scores picks s blocks.

    Returns (thresholded BlockVector, HiSupport)."""
    kept, scores = block_scores_by_loop(x, k)
    winners = np.sort(np.argsort(-scores, kind="stable")[: k.s])
    out = BlockVector.zeros(x.structure)
    entries = {}
    for i in winners.tolist():
        out.block(i)[kept[i]] = x.block(i)[kept[i]]
        entries[i] = kept[i]
    return out, HiSupport.of_entries(x.structure, entries)


def pair_gram_deviation(B, i, j):
    """Closed-form spectral norm of the 2-column Gram deviation for
    columns i and j of B."""
    a = float(np.vdot(B[:, i], B[:, i]).real)
    d = float(np.vdot(B[:, j], B[:, j]).real)
    b = complex(np.vdot(B[:, i], B[:, j]))
    # eigenvalues of [[a, b], [conj(b), d]]
    mid = (a + d) / 2.0
    rad = np.sqrt(((a - d) / 2.0) ** 2 + abs(b) ** 2)
    return max(abs(mid + rad - 1.0), abs(mid - rad - 1.0))


def random_operator(rng, M, N, m, sizes):
    """Unnormalized complex Gaussian A and B_i (generic, not isometric)."""
    A = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
    Bs = tuple(
        rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        for n in sizes
    )
    return A, Bs


def random_hi_sparse(rng, structure: BlockStructure, k: HiSparsity) -> BlockVector:
    x = BlockVector.zeros(structure)
    blocks = rng.choice(structure.num_blocks, size=k.s, replace=False)
    for b in blocks:
        b = int(b)
        sig = k.sigma[b]
        if sig == 0:
            continue
        cols = rng.choice(structure.block_sizes[b], size=sig, replace=False)
        vals = rng.standard_normal(sig) + 1j * rng.standard_normal(sig)
        x.block(b)[np.asarray(cols, dtype=np.intp)] = vals
    return x


def kron_lstsq_refit(H, y, support):
    """Least squares of y on the support's columns, each assembled by kron
    and solved by one dense lstsq.

    Returns (estimate as a BlockVector, whether the columns are rank
    deficient)."""
    cols = [np.kron(H.A[:, b : b + 1],
                    H.Bs[b][:, np.asarray(support.entries[b], dtype=np.intp)])
            for b in support.active_blocks if support.entries[b]]
    x = BlockVector.zeros(H.structure)
    if not cols:
        return x, False
    sol, _, rank, _ = np.linalg.lstsq(np.hstack(cols), y, rcond=None)
    pos = 0
    for b in support.active_blocks:
        local = np.asarray(support.entries[b], dtype=np.intp)
        x.block(b)[local] = sol[pos : pos + local.size]
        pos += local.size
    return x, rank < sol.size


def reference_pursuit(H, y, project, refit, max_iters=50, residual_tol=1e-7):
    """Reference pursuit loop that runs every iteration: no periodic-tail
    skip, the residual recomputed after each refit.  refit(support) returns
    (estimate, rank deficient), as kron_lstsq_refit does for fixed H and y.

    Returns (estimate, support, iterations, residual_norm, converged,
    stop_reason)."""
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    y_norm = float(np.linalg.norm(y))
    x = BlockVector.zeros(H.structure)
    support = prev_support = None
    residual = y_norm
    converged = False
    stop = "max-iters"
    iterations = 0
    for t in range(1, max_iters + 1):
        iterations = t
        grad = H.adjoint_apply(y - H.apply(x))
        u = BlockVector(H.structure, x.coeffs + grad.coeffs)
        x_thr, new_support = project(u)
        if new_support == prev_support:
            support = new_support
            converged = True
            stop = "support-repeat"
            break
        x, failed = refit(new_support)
        support = new_support
        prev_support = new_support
        residual = float(np.linalg.norm(y - H.apply(x)))
        if failed:
            converged = False
            stop = "ls-failure"
            break
        if residual <= residual_tol * y_norm:
            converged = True
            stop = "residual"
            break
    return x, support, iterations, residual, converged, stop


def flat_top_k(structure: BlockStructure, k_total: int):
    """Unstructured top-k_total projection (lower index wins ties) as a
    pursuit projection: u -> (thresholded u, its HiSupport)."""
    def project(u: BlockVector):
        keep = sorted(sorted(range(structure.total_dim),
                             key=lambda g: (-abs(u.coeffs[g]), g))[:k_total])
        out = BlockVector.zeros(structure)
        entries = {}
        for g in keep:
            out.coeffs[g] = u.coeffs[g]
            b = max(i for i in range(structure.num_blocks) if structure.offset(i) <= g)
            entries.setdefault(b, []).append(g - structure.offset(b))
        return out, HiSupport.of_entries(structure, entries)
    return project
