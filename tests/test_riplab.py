import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hisparse.blocks import BlockStructure, HiSparsity, HiSupport
from hisparse.ensembles import gaussian_matrix
from hisparse.errors import BudgetError
from hisparse.operators import HierarchicalOperator, kronecker_operator
from hisparse.riplab import (
    _PRUNE_MIN,
    _combinations,
    _deviation_gram,
    _hierarchical_batches,
    _max_deviation,
    column_necessity_check,
    hierarchical_support_count,
    hirip_bound,
    RipEstimate,
    hirip_constant_exact,
    lemma1_check,
    nuclear_norm_hermitian,
    prop1_check,
    rip_constant_exact,
)

from oracles import (
    dense_by_entries,
    hirip_by_patterns,
    pair_gram_deviation,
    random_hi_sparse,
    random_operator,
)


def unitary(n, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def flat_gram(B):
    """The bordered deviation Gram matrix of B's columns, as for flat RIP."""
    return _deviation_gram(B.shape[1], lambda: B.conj().T @ B)


class TestFlatRip:
    def test_unitary_has_zero_constant(self):
        U = unitary(6, 1)
        for order in (1, 2, 4, 6):
            est = rip_constant_exact(U, order)
            assert est.delta <= 1e-12
            assert est.supports_examined == math.comb(6, order)

    def test_duplicate_columns_give_delta_one(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
        col /= np.linalg.norm(col)
        B = np.hstack([col, col])
        est = rip_constant_exact(B, 2)
        assert est.delta >= 1.0 - 1e-12
        assert est.argmax_support == (0, 1)

    def test_matches_pair_eigensolve_oracle(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
        B /= np.linalg.norm(B, axis=0, keepdims=True)
        want = max(
            pair_gram_deviation(B, i, j) for i, j in itertools.combinations(range(12), 2)
        )
        assert abs(rip_constant_exact(B, 2).delta - want) <= 1e-12

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_matches_subset_eigensolve_oracle(self, order):
        # one eigvalsh per column subset of B itself, no shared Gram matrix
        rng = np.random.default_rng(40 + order)
        B = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        B /= np.linalg.norm(B, axis=0, keepdims=True)
        want = 0.0
        for T in itertools.combinations(range(9), order):
            sub = B[:, T]
            want = max(want, np.abs(np.linalg.eigvalsh(sub.conj().T @ sub) - 1.0).max())
        est = rip_constant_exact(B, order)
        assert abs(est.delta - want) <= 1e-12
        assert est.supports_examined == math.comb(9, order)

    def test_gram_budget_refused_before_allocation(self):
        # the Gram matrix of 8000 columns would hold 8001^2 > 5e7 entries
        # (1 GB); the refusal must come before any of it is allocated
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                rip_constant_exact(np.zeros((1, 8000)), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_argmax_support_achieves_delta(self):
        B = gaussian_matrix(6, 9, 4)
        est = rip_constant_exact(B, 3)
        sub = B[:, list(est.argmax_support)]
        dev = np.abs(
            np.linalg.eigvalsh(sub.conj().T @ sub) - 1.0
        ).max()
        assert abs(dev - est.delta) <= 1e-13

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        B = gaussian_matrix(7, 8, 6)
        perm = rng.permutation(8)
        d1 = rip_constant_exact(B, 3).delta
        d2 = rip_constant_exact(B[:, perm], 3).delta
        assert abs(d1 - d2) <= 1e-12

    def test_monotone_in_sparsity(self):
        B = gaussian_matrix(10, 8, 7)
        deltas = [rip_constant_exact(B, S).delta for S in range(1, 6)]
        for lo, hi in zip(deltas, deltas[1:]):
            assert lo <= hi + 1e-12

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr("hisparse.riplab.DEFAULT_SUPPORT_BUDGET", 1000)
        B = gaussian_matrix(4, 40, 8)
        with pytest.raises(BudgetError):
            rip_constant_exact(B, 3)

    def test_invalid_order(self):
        B = gaussian_matrix(4, 4, 9)
        for order in (-1, 5):
            with pytest.raises(ValueError):
                rip_constant_exact(B, order)

    def test_order_zero_is_zero(self):
        # only the zero vector is 0-sparse, so delta_0 = 0 for any matrix
        B = np.hstack([gaussian_matrix(4, 3, 9)] * 2)  # delta_2 = 1
        assert rip_constant_exact(B, 0) == RipEstimate(0.0, 1, ())
        with pytest.raises(ValueError):
            rip_constant_exact(np.array([[1.0, np.nan]]), 0)


class TestHiRip:
    def test_identity_as_hierarchical(self):
        H = HierarchicalOperator(np.eye(1), (np.eye(4),))
        est = hirip_constant_exact(H, HiSparsity(1, (2,)))
        assert est.delta <= 1e-12
        assert isinstance(est.argmax_support, HiSupport)

    def test_unitary_kronecker(self):
        H = kronecker_operator(unitary(3, 14), unitary(4, 15))
        est = hirip_constant_exact(H, HiSparsity.uniform(2, 2, 3))
        assert est.delta <= 1e-12

    def test_support_count(self):
        st = BlockStructure((4, 4, 3))
        k = HiSparsity(2, (2, 2, 1))
        # C(4,2)*C(4,2) + C(4,2)*C(3,1) + C(4,2)*C(3,1) = 36 + 18 + 18
        assert hierarchical_support_count(st, k) == 72
        rng = np.random.default_rng(16)
        A, Bs = random_operator(rng, 3, 3, 5, (4, 4, 3))
        H = HierarchicalOperator(A, Bs)
        est = hirip_constant_exact(H, k)
        assert est.supports_examined == 72

    def test_random_probe_lower_bound(self):
        rng = np.random.default_rng(17)
        A, Bs = random_operator(rng, 6, 4, 8, (4, 4, 4, 4))
        A /= np.linalg.norm(A, axis=0, keepdims=True)
        Bs = tuple(B / np.linalg.norm(B, axis=0, keepdims=True) for B in Bs)
        H = HierarchicalOperator(A, Bs)
        k = HiSparsity.uniform(2, 2, 4)
        D = dense_by_entries(A, Bs)
        patterns = [
            sup
            for blocks in itertools.combinations(range(4), 2)
            for sup in itertools.product(
                *(list(itertools.combinations(range(4), 2)) for _ in blocks)
            )
        ]
        # 1e5 random unit-norm hierarchically sparse probes, grouped by
        # their (uniformly sampled) support pattern for vectorization
        probes = 100_000
        pattern_ids = rng.integers(0, len(patterns), size=probes)
        block_pairs = list(itertools.combinations(range(4), 2))
        lower = 0.0
        st = H.structure
        for pid in np.unique(pattern_ids):
            count = int(np.sum(pattern_ids == pid))
            blocks = block_pairs[pid // 36]
            local = patterns[pid]
            cols = [st.offset(b) + c for b, loc in zip(blocks, local) for c in loc]
            V = rng.standard_normal((len(cols), count)) + 1j * rng.standard_normal(
                (len(cols), count)
            )
            V /= np.linalg.norm(V, axis=0, keepdims=True)
            dev = np.abs(np.linalg.norm(D[:, cols] @ V, axis=0) ** 2 - 1.0).max()
            lower = max(lower, float(dev))
        est = hirip_constant_exact(H, k)
        assert lower <= est.delta + 1e-10
        assert est.delta <= lower * 1.5 + 0.2  # probes should come close

    def test_monotone_in_budgets(self):
        rng = np.random.default_rng(18)
        A, Bs = random_operator(rng, 4, 4, 5, (3, 3, 3, 3))
        H = HierarchicalOperator(A, Bs)
        d11 = hirip_constant_exact(H, HiSparsity.uniform(1, 1, 4)).delta
        d21 = hirip_constant_exact(H, HiSparsity.uniform(2, 1, 4)).delta
        d22 = hirip_constant_exact(H, HiSparsity.uniform(2, 2, 4)).delta
        assert d11 <= d21 + 1e-12
        assert d21 <= d22 + 1e-12

    def test_hirip_below_flat_rip(self):
        rng = np.random.default_rng(19)
        A, Bs = random_operator(rng, 3, 3, 4, (3, 3, 3))
        H = HierarchicalOperator(A, Bs)
        k = HiSparsity.uniform(2, 2, 3)
        flat_order = 4  # sum of the two largest sigma_i
        d_hi = hirip_constant_exact(H, k).delta
        d_flat = rip_constant_exact(dense_by_entries(A, Bs), flat_order).delta
        assert d_hi <= d_flat + 1e-12

    def test_gram_within_dense_budget(self, monkeypatch):
        # the bordered Gram matrix of 30 columns has 31^2 entries
        H = HierarchicalOperator(np.ones((1, 3)), (np.ones((1, 10)),) * 3)
        k = HiSparsity.uniform(1, 1, 3)
        monkeypatch.setattr("hisparse.riplab.GRAM_ENTRY_BUDGET", 100)
        with pytest.raises(BudgetError):
            hirip_constant_exact(H, k)
        monkeypatch.setattr("hisparse.riplab.GRAM_ENTRY_BUDGET", 31**2)
        assert hirip_constant_exact(H, k).supports_examined == 30

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr("hisparse.riplab.DEFAULT_SUPPORT_BUDGET", 100)
        rng = np.random.default_rng(20)
        A, Bs = random_operator(rng, 2, 6, 8, (8,) * 6)
        H = HierarchicalOperator(A, Bs)
        with pytest.raises(BudgetError):
            hirip_constant_exact(H, HiSparsity.uniform(2, 1, 6))


class TestArgmaxRules:
    """The argmax is the first maximizer in lexicographic enumeration order,
    and blocks with sigma_i = 0 stay in it with an empty coordinate tuple."""

    @pytest.mark.parametrize(
        "k, want",
        [
            (HiSparsity(2, (0, 2, 1)), HiSupport((1, 2), {1: (1, 2), 2: (0,)})),
            (HiSparsity(1, (0, 0, 0)), HiSupport((0,), {0: ()})),
            (HiSparsity(3, (1, 0, 2)), HiSupport((0, 1, 2), {0: (1,), 1: (), 2: (0, 1)})),
        ],
    )
    def test_zero_budget_blocks(self, k, want):
        rng = np.random.default_rng(41)
        H = HierarchicalOperator(*random_operator(rng, 3, 3, 4, (3, 3, 2)))
        est = hirip_constant_exact(H, k)
        assert est.supports_examined == hierarchical_support_count(H.structure, k)
        assert est.argmax_support == want
        if not any(k.sigma):
            assert est.delta == 0.0

    def test_zero_budget_block_kept_on_ties(self):
        H = HierarchicalOperator(np.eye(3), (np.eye(3),) * 3)
        est = hirip_constant_exact(H, HiSparsity(2, (0, 2, 1)))
        assert est.delta == 0.0
        assert est.argmax_support == HiSupport((0, 1), {0: (), 1: (0, 1)})

    def test_flat_ties_pick_first_support(self):
        est = rip_constant_exact(np.eye(5), 2)
        assert est.delta == 0.0
        assert est.argmax_support == (0, 1)

    def test_hierarchical_ties_pick_first_support(self):
        H = HierarchicalOperator(np.eye(3), (np.eye(3),) * 3)
        est = hirip_constant_exact(H, HiSparsity.uniform(2, 1, 3))
        assert est.delta == 0.0
        assert est.argmax_support == HiSupport((0, 1), {0: (0,), 1: (0,)})

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
    def test_ties_across_chunks(self, chunk):
        # columns e0, e1, e1, e0: supports (0, 3) and (1, 2) both reach
        # delta 1, and (0, 3) comes first
        e = np.eye(2)
        B = np.stack([e[0], e[1], e[1], e[0]], axis=1).astype(complex)
        delta, row, count = _max_deviation(flat_gram(B), [_combinations(4, 2)], chunk)
        assert tuple(row.tolist()) == (0, 3)
        assert delta == pytest.approx(1.0, abs=1e-12)
        assert count == 6

    def test_mixed_sigma_padding(self):
        # block tuples of widths 3, 4 and 5 share chunks, padded to width 5;
        # chunks of 40 and 4096 rows exceed _PRUNE_MIN and are pruned
        rng = np.random.default_rng(42)
        A, Bs = random_operator(rng, 3, 3, 4, (3, 5, 4))
        A /= np.linalg.norm(A, axis=0, keepdims=True)
        Bs = tuple(B / np.linalg.norm(B, axis=0, keepdims=True) for B in Bs)
        H = HierarchicalOperator(A, Bs)
        k = HiSparsity(2, (1, 3, 2))
        want, arg, count = hirip_by_patterns(A, Bs, k)
        est = hirip_constant_exact(H, k)
        assert abs(est.delta - want) <= 1e-12
        assert est.supports_examined == count
        assert est.argmax_support == HiSupport(tuple(arg), arg)
        gram = _deviation_gram(H.total_dim, H.gram)
        for chunk in (1, 7, 40, 4096):
            delta, row, examined = _max_deviation(
                gram, _hierarchical_batches(H.structure, k), chunk
            )
            assert abs(delta - want) <= 1e-12
            assert examined == count
            np.testing.assert_array_equal(
                row, HiSupport(tuple(arg), arg).column_indices(H.structure)
            )

    @pytest.mark.parametrize("chunk", [1, 5, 33, 4096])
    def test_tight_gershgorin_ties_pick_first_support(self, chunk):
        # orthogonal columns: every restricted deviation is diagonal, so the
        # lower and upper bounds equal it, and the tied column norms make
        # every support holding a column of norm 2 a maximizer at 3; chunks
        # of more than _PRUNE_MIN (of the 36 flat and 60 hierarchical
        # supports) go through the pruning bounds
        norms = [1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0]
        B = np.diag(norms)
        delta, row, count = _max_deviation(flat_gram(B), [_combinations(9, 2)], chunk)
        assert delta == 3.0
        assert tuple(row.tolist()) == (0, 3)
        assert count == 36
        H = HierarchicalOperator(np.eye(2), (B[:, :4], B[:, 4:]))
        est = hirip_constant_exact(H, HiSparsity(2, (2, 2)))
        assert est.delta == 3.0
        assert est.argmax_support == HiSupport((0, 1), {0: (0, 1), 1: (0, 4)})
        assert est.supports_examined == 60

    @pytest.mark.parametrize("tied", [False, True])
    def test_rank_one_deviation_pruned_as_unpruned(self, tied):
        # columns of D = [I; u^*] have D^* D - I = u u^*, so every restricted
        # deviation is rank one with spectral norm ||u_T||^2, which the
        # Frobenius bound attains; with |u_i| all equal every support ties
        # up to eigensolver roundoff, which the pruning margin must cover.
        # A 1 x N mixing row of ones and the column blocks of D as B_i give
        # the hierarchical operator the same Gram matrix.  Pruned chunks of
        # 4096 rows and unpruned ones of _PRUNE_MIN rows agree exactly
        rng = np.random.default_rng(5)
        N, n, s, sig = 3, 5, 2, 2
        mags = np.full(N * n, 0.5) if tied else rng.uniform(0.2, 1.0, N * n)
        u = mags * np.exp(2j * np.pi * rng.random(N * n))
        D = np.vstack([np.eye(N * n), u.conj()[None, :]])
        weights = np.abs(u) ** 2
        flat = flat_gram(D)
        H = HierarchicalOperator(np.ones((1, N)), tuple(D[:, b * n : (b + 1) * n] for b in range(N)))
        k = HiSparsity.uniform(s, sig, N)
        hier = _deviation_gram(H.total_dim, H.gram)
        np.testing.assert_allclose(hier, flat, rtol=0, atol=1e-15)
        per_block = np.sort(np.sort(weights.reshape(N, n), axis=1)[:, -sig:].sum(axis=1))
        cases = [
            (flat, lambda: [_combinations(N * n, 3)], np.sort(weights)[-3:].sum(), 455),
            (hier, lambda: _hierarchical_batches(H.structure, k), per_block[-s:].sum(), 300),
        ]
        for gram, batches, want, count in cases:
            pruned = _max_deviation(gram, batches(), 4096)
            whole = _max_deviation(gram, batches(), _PRUNE_MIN)
            assert pruned[0] == whole[0] == pytest.approx(want, rel=1e-12)
            assert pruned[1].tolist() == whole[1].tolist()
            assert pruned[2] == whole[2] == count

    def test_combinations_rows(self):
        np.testing.assert_array_equal(
            _combinations(4, 2, 10), np.array(list(itertools.combinations(range(10, 14), 2)))
        )
        assert _combinations(3, 0).shape == (1, 0)
        assert _combinations(3, 3).shape == (1, 3)


class TestSupportEnumeration:
    @pytest.mark.parametrize(
        "sizes, k",
        [
            ((3, 4, 2), HiSparsity(2, (1, 2, 1))),  # mixed sigma: widths 2, 3, 3
            ((3, 4, 2, 3), HiSparsity(2, (2, 0, 1, 2))),  # a sigma_i = 0 block
            ((3, 4, 2), HiSparsity(3, (2, 3, 0))),  # s = N
            ((2, 3), HiSparsity(2, (2, 3))),  # s = N, every column
            ((5,), HiSparsity(1, (0,))),
        ],
    )
    def test_batches_match_product_oracle(self, sizes, k):
        offsets = [sum(sizes[:b]) for b in range(len(sizes))]
        total = sum(sizes)
        width = sum(sorted(k.sigma, reverse=True)[: k.s])
        batches = list(_hierarchical_batches(BlockStructure(sizes), k))
        assert len(batches) == math.comb(len(sizes), k.s)
        want = []
        for blocks in itertools.combinations(range(len(sizes)), k.s):
            for choice in itertools.product(
                *(
                    itertools.combinations(range(offsets[b], offsets[b] + sizes[b]), k.sigma[b])
                    for b in blocks
                )
            ):
                row = [c for cols in choice for c in cols]
                want.append(row + [total] * (width - len(row)))
        rows = np.concatenate(batches)
        assert all(batch.dtype == np.intp for batch in batches)
        assert rows.shape == (len(want), width)
        assert rows.tolist() == want

    def test_pruned_chunk_never_gathers_complex(self):
        # one pruned chunk of 4,096 width-6 supports: the (4096, 6, 6) index
        # array takes 1.2 MB and a complex gather of every restricted matrix
        # 2.4 MB more; pruning reads |gram| and gathers only live supports
        B = gaussian_matrix(10, 16, 0)
        rows = _combinations(16, 6)[:4096]
        idx_bytes = rows.shape[0] * 6 * 6 * np.dtype(np.intp).itemsize
        gather_bytes = rows.shape[0] * 6 * 6 * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            _, _, count = _max_deviation(flat_gram(B), [rows])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 4096
        assert peak < idx_bytes + gather_bytes


class TestHiRipBound:
    def test_zero_inputs(self):
        assert hirip_bound(0.0, (0.0, 0.0)) == 0.0

    def test_direct_formula(self):
        assert abs(hirip_bound(0.1, (0.2, 0.15)) - 0.32) <= 1e-15

    def test_holds_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            N = int(rng.integers(2, 5))
            M = int(rng.integers(2, 6))
            m = int(rng.integers(2, 7))
            sizes = tuple(int(v) for v in rng.integers(2, 5, size=N))
            s = int(rng.integers(1, min(3, N) + 1))
            sigma = tuple(int(rng.integers(1, min(2, n) + 1)) for n in sizes)
            A = gaussian_matrix(M, N, rng)
            Bs = tuple(gaussian_matrix(m, n, rng) for n in sizes)
            H = HierarchicalOperator(A, Bs)
            k = HiSparsity(s, sigma)
            d_h = hirip_constant_exact(H, k).delta
            bound = hirip_bound(
                rip_constant_exact(A, s).delta,
                [rip_constant_exact(Bs[i], sigma[i]).delta for i in range(N)],
            )
            assert d_h <= bound + 1e-10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hirip_bound(-0.1, (0.0,))

    def test_attained_on_kronecker_operators(self):
        # A kron B on a support with the same in-block coordinates T in each
        # of the blocks S restricts to A_S kron B_T, whose Gram eigenvalues
        # are products: when delta_s(A) and delta_sigma(B) are both
        # lambda_max - 1 at their argmax supports, the product bound is
        # the exact hierarchical constant
        def upper_side(B, est):
            sub = B[:, list(est.argmax_support)]
            top = np.linalg.eigvalsh(sub.conj().T @ sub)[-1] - 1.0
            return abs(top - est.delta) <= 1e-13

        rng = np.random.default_rng(43)
        attained = 0
        for _ in range(120):
            M, N, m, n = (int(v) for v in rng.integers(2, 6, size=4))
            s = int(rng.integers(1, min(3, N) + 1))
            sig = int(rng.integers(1, min(3, n) + 1))
            A, B = gaussian_matrix(M, N, rng), gaussian_matrix(m, n, rng)
            est_a, est_b = rip_constant_exact(A, s), rip_constant_exact(B, sig)
            if not (upper_side(A, est_a) and upper_side(B, est_b)):
                continue
            attained += 1
            d_h = hirip_constant_exact(kronecker_operator(A, B), HiSparsity.uniform(s, sig, N))
            assert abs(d_h.delta - hirip_bound(est_a.delta, [est_b.delta])) <= 1e-12
        assert attained >= 60


class TestGramMatrix:
    def test_energy_identity(self):
        # ||H x||^2 equals the trace pairing of A^*A with the Gram matrix
        # G[i, j] = <B_i x_i, B_j x_j> (conjugate-linear in the second
        # slot), the exact quantity the trace inequality bounds
        rng = np.random.default_rng(23)
        A, Bs = random_operator(rng, 4, 3, 6, (3, 3, 3))
        H = HierarchicalOperator(A, Bs)
        for _ in range(20):
            x = random_hi_sparse(rng, H.structure, HiSparsity.uniform(2, 2, 3))
            z = np.stack([B @ x.block(i) for i, B in enumerate(Bs)], axis=1)
            G = z.T @ z.conj()
            lhs = np.linalg.norm(H.apply(x)) ** 2
            rhs = np.vdot(A.conj().T @ A, G).real
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)

    def test_nuclear_equals_trace_for_psd(self):
        rng = np.random.default_rng(24)
        Y = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        X = Y @ Y.conj().T
        assert abs(nuclear_norm_hermitian(X) - np.trace(X).real) <= 1e-10


class TestColumnNecessity:
    def test_unitary_blocks_zero_slack(self):
        H = kronecker_operator(unitary(3, 25), unitary(4, 26))
        rep = column_necessity_check(H, HiSparsity.uniform(2, 2, 3))
        assert rep["passed"]
        assert abs(rep["delta_hirip"]) <= 1e-12
        assert abs(rep["min_slack"]) <= 1e-12

    def test_identity_equality_at_zero(self):
        H = HierarchicalOperator(np.eye(1), (np.eye(3),))
        rep = column_necessity_check(H, HiSparsity(1, (2,)))
        assert rep["passed"]
        assert abs(rep["min_slack"]) <= 1e-12

    def test_random_instances_non_negative_slack(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            N = int(rng.integers(2, 5))
            M = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            sizes = tuple(int(v) for v in rng.integers(2, 5, size=N))
            sigma = tuple(int(rng.integers(1, min(2, n) + 1)) for n in sizes)
            s = int(rng.integers(1, min(2, N) + 1))
            A, Bs = random_operator(rng, M, N, m, sizes)
            H = HierarchicalOperator(A, Bs)
            rep = column_necessity_check(H, HiSparsity(s, sigma))
            assert rep["min_slack"] >= -1e-10
            assert rep["passed"]

    def test_zero_budget_blocks_report_zero_constant(self):
        rng = np.random.default_rng(38)
        sizes = (3, 4, 3, 2)
        H = HierarchicalOperator(*random_operator(rng, 3, 4, 4, sizes))
        k = HiSparsity(2, (0, 2, 1, 0))
        rep = column_necessity_check(H, k)
        assert rep["delta_hirip"] == hirip_constant_exact(H, k).delta
        for row, sig in zip(rep["per_block"], k.sigma):
            if sig == 0:
                assert row["delta_weighted"] == 0.0
                assert row["slack"] == rep["delta_hirip"]
            else:
                B = row["column_norm"] * H.Bs[row["block"]]
                assert row["delta_weighted"] == rip_constant_exact(B, sig).delta


class TestProp1:
    def test_shared_unitary_block_reduces_to_hirip(self):
        U = unitary(4, 28)
        A = gaussian_matrix(5, 4, 29)
        H = kronecker_operator(A, U)
        k = HiSparsity.uniform(2, 2, 4)
        g = np.zeros(4, dtype=complex)
        g[1] = 1.0
        rep = prop1_check(H, k, (0, 2), {0: g, 2: g})
        assert rep["epsilon"] <= 1e-12
        assert rep["delta_b_max"] <= 1e-12
        assert rep["status"] == "checked"
        # with epsilon = delta_B = 0 the bound collapses to delta_hirip,
        # which for a shared unitary block equals delta_s(A)
        assert abs(rep["bound"] - rep["delta_hirip"]) <= 1e-10
        assert rep["delta_a"] <= rep["bound"] + 1e-9
        assert rep["passed"]

    def test_orthogonal_subspaces_vacuous(self):
        N, n = 3, 2
        Bs = []
        for i in range(N):
            B = np.zeros((N * n, n), dtype=complex)
            B[i * n : (i + 1) * n] = np.eye(n)
            Bs.append(B)
        H = HierarchicalOperator(np.ones((1, N)), tuple(Bs))
        k = HiSparsity.uniform(2, 1, N)
        assert hirip_constant_exact(H, k).delta <= 1e-12
        g = np.array([1.0, 0.0], dtype=complex)
        rep = prop1_check(H, k, (0, 1), {0: g, 1: g})
        assert rep["status"] == "premise violated, bound vacuous"
        assert rep["bound"] is None
        assert abs(rep["epsilon"] - np.sqrt(2)) <= 1e-12
        assert rep["delta_a"] >= 1.0 - 1e-12  # the all-ones row has no RIP

    def test_random_shared_b_instances(self):
        rng = np.random.default_rng(30)
        checked = 0
        for _ in range(25):
            N = int(rng.integers(2, 6))
            M = int(rng.integers(2, 7))
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 5))
            s = int(rng.integers(1, min(3, N) + 1))
            sig = int(rng.integers(1, min(2, n) + 1))
            B = gaussian_matrix(m, n, rng)
            H = kronecker_operator(gaussian_matrix(M, N, rng), B)
            k = HiSparsity.uniform(s, sig, N)
            pos = np.sort(rng.choice(n, size=sig, replace=False))
            g = np.zeros(n, dtype=complex)
            g[pos] = rng.standard_normal(sig) + 1j * rng.standard_normal(sig)
            g /= np.linalg.norm(g)
            active = tuple(int(b) for b in np.sort(rng.choice(N, size=s, replace=False)))
            rep = prop1_check(H, k, active, {b: g for b in active})
            if rep["status"] == "checked":
                checked += 1
                assert rep["passed"]
        assert checked > 0

    def test_shared_block_solved_once(self, monkeypatch):
        calls = []

        def counting(B, order, *args):
            calls.append((B.shape, order))
            return rip_constant_exact(B, order, *args)

        monkeypatch.setattr("hisparse.riplab.rip_constant_exact", counting)
        B = gaussian_matrix(4, 3, 31)
        H = kronecker_operator(gaussian_matrix(5, 6, 32), B)
        g = np.array([1.0, 0.0, 0.0], dtype=complex)
        rep = prop1_check(H, HiSparsity.uniform(2, 1, 6), (0, 3), {0: g, 3: g})
        # B once for all six blocks, then A
        assert calls == [((4, 3), 1), ((5, 6), 2)]
        assert rep["delta_b_max"] == rip_constant_exact(B, 1).delta

    def test_zero_budget_blocks_outside_active_set(self):
        # the sigma_i = 0 blocks repeat a column (delta_2 = 1) but contribute
        # delta_0 = 0; delta_b_max comes from the scaled block 4 (0.21)
        U = unitary(6, 39)[:, :3]
        bad = np.hstack([U[:, :1], U[:, :2]])
        Bs = (U, bad, U, bad, 1.1 * unitary(6, 40)[:, :3])
        H = HierarchicalOperator(gaussian_matrix(8, 5, 42), Bs)
        k = HiSparsity(2, (1, 0, 2, 0, 1))
        g0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        g2 = np.array([0.8, 0.6j, 0.0], dtype=complex)
        rep = prop1_check(H, k, (0, 2), {0: g0, 2: g2})
        epsilon = float(np.linalg.norm(Bs[0] @ g0 - Bs[2] @ g2))
        delta_h = hirip_constant_exact(H, k).delta
        delta_b = max(rip_constant_exact(B, sig).delta for B, sig in zip(Bs, k.sigma) if sig)
        delta_a = rip_constant_exact(H.A, 2).delta
        denom = 1.0 - delta_b - epsilon
        assert denom > 0.0
        assert rep == {
            "epsilon": epsilon,
            "delta_hirip": delta_h,
            "delta_b_max": delta_b,
            "delta_a": delta_a,
            "denominator": denom,
            "tolerance": 1e-9,
            "status": "checked",
            "bound": delta_h / denom**2,
            "passed": delta_a <= delta_h / denom**2 + 1e-9,
        }

    def test_validates_probes(self):
        H = kronecker_operator(np.eye(2), np.eye(3))
        k = HiSparsity.uniform(1, 1, 2)
        bad = np.array([0.5, 0.0, 0.0], dtype=complex)  # not unit norm
        with pytest.raises(ValueError):
            prop1_check(H, k, (0,), {0: bad})
        dense_probe = np.ones(3, dtype=complex) / np.sqrt(3)  # not 1-sparse
        with pytest.raises(ValueError):
            prop1_check(H, k, (0,), {0: dense_probe})


class TestLemma1:
    def test_orthonormal_columns_zero_deviation(self):
        A = unitary(5, 31)[:, :4]
        rng = np.random.default_rng(32)
        Y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        X = np.zeros((4, 4), dtype=complex)
        X[np.ix_([1, 3], [1, 3])] = Y @ Y.conj().T
        rep = lemma1_check(A, X)
        assert rep["deviation"] <= 1e-10
        assert rep["passed"]

    def test_rank_one_reduces_to_column_norm(self):
        A = gaussian_matrix(4, 5, 33) * 1.3  # scaled so columns are not unit
        X = np.zeros((5, 5), dtype=complex)
        X[1, 1] = 1.0
        rep = lemma1_check(A, X)
        want = abs(np.linalg.norm(A[:, 1]) ** 2 - 1.0)
        assert abs(rep["deviation"] - want) <= 1e-12
        assert rep["pattern_size"] == 1
        assert rep["passed"]

    def test_random_psd_draws(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            N = int(rng.integers(2, 9))
            M = int(rng.integers(2, 11))
            s = int(rng.integers(1, min(4, N) + 1))
            A = gaussian_matrix(M, N, rng)
            pattern = np.sort(rng.choice(N, size=s, replace=False))
            Y = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
            X = np.zeros((N, N), dtype=complex)
            X[np.ix_(pattern, pattern)] = Y @ Y.conj().T
            assert lemma1_check(A, X)["passed"]

    def test_general_hermitian_accepted(self):
        # indefinite Hermitian inputs validate and report (the bound is a
        # theorem only for PSD patterns, so `passed` is not asserted)
        A = gaussian_matrix(6, 4, 35)
        X = np.zeros((4, 4), dtype=complex)
        X[0, 0], X[2, 2] = 1.0, -2.0
        X[0, 2] = 0.3 + 0.1j
        X[2, 0] = 0.3 - 0.1j
        rep = lemma1_check(A, X)
        assert rep["nuclear_norm"] >= 3.0 - 1e-12
        assert rep["pattern_size"] == 2
        assert np.isfinite(rep["deviation"])

    def test_zero_matrix(self):
        A = gaussian_matrix(3, 3, 36)
        rep = lemma1_check(A, np.zeros((3, 3)))
        want = {
            "pattern_size": 0,
            "delta": 0.0,
            "inner_product": 0.0,
            "nuclear_norm": 0.0,
            "deviation": 0.0,
            "tolerance": 1e-9,
            "passed": True,
        }
        assert rep == want
        assert {key: type(v) for key, v in rep.items()} == {key: type(v) for key, v in want.items()}
        assert all(math.copysign(1.0, v) == 1.0 for v in rep.values() if type(v) is float)

    def test_non_hermitian_rejected(self):
        A = gaussian_matrix(3, 3, 37)
        X = np.zeros((3, 3), dtype=complex)
        X[0, 1] = 1.0
        with pytest.raises(ValueError):
            lemma1_check(A, X)


@pytest.mark.parametrize(
    "call",
    [
        lambda: rip_constant_exact(np.array([[1.0, np.nan], [0.0, 1.0]]), 1),
        lambda: rip_constant_exact(np.ones(4), 1),
        lambda: prop1_check(
            kronecker_operator(np.eye(2), np.eye(3)),
            HiSparsity.uniform(1, 1, 2),
            (0,),
            {0: np.array([np.nan, 0.0, 0.0])},
        ),
        lambda: lemma1_check(np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])),
        lambda: hirip_bound(np.nan, [0.1]),
        lambda: hirip_bound(0.1, [0.2, np.nan]),
        lambda: hirip_bound(0.1, []),
    ],
    ids=[
        "rip-nan",
        "rip-1d",
        "prop1-nan-probe",
        "lemma1-nan",
        "bound-nan-a",
        "bound-nan-b",
        "bound-no-blocks",
    ],
)
def test_malformed_input_raises_value_error(call):
    with pytest.raises(ValueError):
        call()
