import numpy as np
import pytest

from hisparse.blocks import (
    BlockStructure,
    BlockVector,
    HiSparsity,
    HiSupport,
    hi_threshold,
    is_hi_sparse,
)
from hisparse.ensembles import dft_rows, gaussian_matrix, spawn_seedseq, subsampled_dft
from hisparse.errors import DimensionError
from hisparse import operators
from hisparse.operators import HierarchicalOperator, dft_operator
from hisparse.riplab import hirip_constant_exact
import hisparse.solvers as solvers
from hisparse.solvers import (
    STOP_LS_FAILURE,
    STOP_MAX_ITERS,
    STOP_RESIDUAL,
    STOP_SUPPORT_REPEAT,
    SolverConfig,
    hihtp,
    htp_flat,
)
from hisparse.harness.signals import generate_signal

from oracles import (
    dense_by_entries,
    enumerate_hi_patterns,
    flat_top_k,
    kron_lstsq_refit,
    random_operator,
    reference_pursuit,
)


def identity_operator(n):
    return HierarchicalOperator(np.eye(1), (np.eye(n),))


def desk_operator(seed, M=12, N=16, m=16, n=32):
    A = gaussian_matrix(M, N, spawn_seedseq(seed, 0))
    Bs = tuple(subsampled_dft(m, n, spawn_seedseq(seed, 1, i)) for i in range(N))
    return HierarchicalOperator(A, Bs)


def package_refit(H, y, support):
    """The pursuit's refit as (estimate, rank deficient): least squares of y
    on the support, zero elsewhere.  The residual the refit returns must be
    y - H.apply(estimate) bit for bit."""
    y = np.asarray(y, dtype=np.complex128)
    cols, sol, rank_deficient, r = solvers._restricted_lstsq(
        H, y, support, H.adjoint_apply(y).coeffs
    )
    x = solvers._scatter(H, cols, sol)
    assert r.tobytes() == (y - H.apply(x)).tobytes()
    return x, rank_deficient


class TestLeastSquares:
    def test_square_invertible_full_support(self):
        rng = np.random.default_rng(0)
        A, Bs = random_operator(rng, 2, 2, 2, (2, 2))
        H = HierarchicalOperator(A, Bs)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z = package_refit(H, y, HiSupport.of_columns(H.structure, range(H.total_dim)))[0]
        want = np.linalg.solve(dense_by_entries(A, Bs), y)
        assert np.linalg.norm(z.coeffs - want) <= 1e-10 * np.linalg.norm(want)

    def test_interpolates_on_superset_support(self):
        rng = np.random.default_rng(1)
        H = desk_operator(2, M=6, N=4, m=6, n=8)
        x = BlockVector.zeros(H.structure)
        x.block(1)[2] = 1.5 - 0.5j
        x.block(3)[0] = -2.0
        sup = HiSupport.of_entries(H.structure, {1: (0, 2), 3: (0, 5)})
        z = package_refit(H, H.apply(x), sup)[0]
        assert np.linalg.norm(z.coeffs - x.coeffs) <= 1e-10

    def test_matches_qr_oracle(self):
        rng = np.random.default_rng(3)
        A, Bs = random_operator(rng, 5, 4, 8, (3, 3, 3, 3))
        H = HierarchicalOperator(A, Bs)  # out_dim 40
        sup = HiSupport.of_entries(H.structure, {0: (0, 1, 2), 1: (0, 1, 2), 3: (0, 1, 2)})
        for wide in range(3):
            y = rng.standard_normal(40) + 1j * rng.standard_normal(40)
            z = package_refit(H, y, sup)[0]
            R = np.hstack(
                [np.kron(A[:, [b]], Bs[b][:, :3]) for b in (0, 1, 3)]
            )
            q, r = np.linalg.qr(R)
            want = np.linalg.solve(r, q.conj().T @ y)
            got = np.concatenate([z.block(b)[:3] for b in (0, 1, 3)])
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_empty_support(self):
        H = identity_operator(3)
        z = package_refit(H, np.ones(3), HiSupport.of_columns(H.structure, []))[0]
        np.testing.assert_array_equal(z.coeffs, np.zeros(3))

    def test_out_of_range_support_rejected(self):
        # column 3 lies outside H: a support can only hold it on a longer
        # structure, and the refit refuses a support on another structure
        H = identity_operator(3)
        with pytest.raises(IndexError):
            HiSupport.of_entries(H.structure, {0: (1, 3)})
        with pytest.raises(DimensionError, match="another block structure"):
            package_refit(H, np.ones(3), HiSupport.of_entries(BlockStructure((4,)), {0: (1, 3)}))

    def test_support_on_another_structure_rejected(self):
        # in range and of the same total dimension, but cut into other
        # blocks; an equal structure object of its own is accepted
        H = desk_operator(2, M=6, N=4, m=6, n=8)
        y = np.ones(H.out_dim)
        sizes = H.structure.block_sizes
        z = package_refit(H, y, HiSupport.of_columns(BlockStructure(sizes), [0, 9]))[0]
        assert z.coeffs.nonzero()[0].tolist() == [0, 9]
        other = BlockStructure((sizes[0] + 1, sizes[1] - 1) + sizes[2:])
        with pytest.raises(DimensionError, match="another block structure"):
            package_refit(H, y, HiSupport.of_columns(other, [0, 9]))

def refit_routes(monkeypatch):
    """Record whether each refit's Gram route solved it (False: lstsq)."""
    routes = []
    gram_solve = solvers._gram_solve

    def recording(*args):
        sol = gram_solve(*args)
        routes.append(sol is not None)
        return sol

    monkeypatch.setattr(solvers, "_gram_solve", recording)
    return routes


class TestRefitRoutes:
    """The refit solves supports with out_dim >= 2|S| by Cholesky on the
    structured Gram matrix and every other support by lstsq."""

    # (M, m, block sizes, support size): out_dim = M * m rows, and no block
    # wider than m, so that every support has full column rank
    SHAPES = [
        (5, 8, (3, 7, 4, 6), 4),     # 40 rows, 4 columns: Gram
        (5, 8, (3, 7, 4, 6), 20),    # 40 rows, 20 columns: Gram, exactly 2x
        (4, 6, (5, 5, 5, 5), 13),    # 24 rows, 13 columns: lstsq
        (3, 10, (9, 5, 10, 8), 28),  # 30 rows, 28 columns: lstsq
    ]

    @pytest.mark.parametrize("M, m, sizes, width", SHAPES)
    def test_matches_kron_lstsq(self, monkeypatch, M, m, sizes, width):
        routes = refit_routes(monkeypatch)
        rng = np.random.default_rng(width)
        for _ in range(10):
            A, Bs = random_operator(rng, M, len(sizes), m, sizes)
            H = HierarchicalOperator(A, Bs)
            sup = HiSupport.of_columns(
                H.structure, rng.choice(H.total_dim, size=width, replace=False)
            )
            y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
            got, failed = package_refit(H, y, sup)
            want, want_failed = kron_lstsq_refit(H, y, sup)
            assert not failed and not want_failed
            # the normal equations square the condition number; 1e-12
            # relative leaves a wide margin over the largest observed 6e-15
            assert np.linalg.norm(got.coeffs - want.coeffs) <= 1e-12 * np.linalg.norm(want.coeffs)
        assert routes == ([True] * 10 if H.out_dim >= 2 * width else [])

    @pytest.mark.parametrize("M, m, sizes, width", SHAPES[2:])
    def test_wide_support_is_lstsq_bitwise(self, M, m, sizes, width):
        rng = np.random.default_rng(100 + width)
        A, Bs = random_operator(rng, M, len(sizes), m, sizes)
        H = HierarchicalOperator(A, Bs)
        cols = np.sort(rng.choice(H.total_dim, size=width, replace=False))
        y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
        got_cols, sol, _, _ = solvers._restricted_lstsq(
            H, y, HiSupport.of_columns(H.structure, cols), H.adjoint_apply(y).coeffs
        )
        np.testing.assert_array_equal(got_cols, cols)
        np.testing.assert_array_equal(
            sol, np.linalg.lstsq(H.dense_columns(cols), y, rcond=None)[0]
        )

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("eps, gram", [(3e-3, True), (3e-4, False)])
    def test_ill_conditioned_tall_support(self, monkeypatch, seed, eps, gram):
        # column 1 is column 0 moved by eps, so Cholesky succeeds with
        # min/max diag(L) about eps: above GRAM_DIAG_RATIO for eps = 3e-3,
        # below it for eps = 3e-4, where the refit is lstsq bit for bit
        routes = refit_routes(monkeypatch)
        rng = np.random.default_rng(seed)
        A, Bs = random_operator(rng, 4, 2, 6, (4, 4))
        Bs[0][:, 1] = Bs[0][:, 0] + eps * Bs[0][:, 2]
        H = HierarchicalOperator(A, Bs)
        cols = np.array([0, 1, 5])
        y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
        d = np.linalg.cholesky(H.gram(cols)).diagonal().real
        assert (d.min() >= solvers.GRAM_DIAG_RATIO * d.max()) == gram
        sup = HiSupport.of_columns(H.structure, cols)
        got, failed = package_refit(H, y, sup)
        assert routes == [gram] and not failed
        if gram:
            # cond(G) is up to 1e6 here, so the normal equations lose about
            # 1e6 * 2.2e-16 relative; the largest observed is 5.5e-10
            want, want_failed = kron_lstsq_refit(H, y, sup)
            assert not want_failed
            assert np.linalg.norm(got.coeffs - want.coeffs) <= 1e-8 * np.linalg.norm(want.coeffs)
        else:
            np.testing.assert_array_equal(
                got.coeffs[cols], np.linalg.lstsq(H.dense_columns(cols), y, rcond=None)[0]
            )

    def test_gram_solve_on_wide_matrix(self):
        # 150 columns: the size of a paper-scale support's Gram matrix
        rng = np.random.default_rng(17)
        X = rng.standard_normal((300, 150)) + 1j * rng.standard_normal((300, 150))
        G = X.conj().T @ X
        b = rng.standard_normal(150) + 1j * rng.standard_normal(150)
        want = np.linalg.solve(G, b)
        got = solvers._gram_solve(G, b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("width", [128, 500])
    def test_blocked_gram_solve_matches_lstsq(self, width):
        # several diagonal blocks of the substitution; 2|S| rows, the
        # tallest shape the Gram route refits, where cond(G) is largest.
        # 1e-12 relative leaves a wide margin over the observed 4e-15
        rng = np.random.default_rng(width)
        X = rng.standard_normal((2 * width, width)) + 1j * rng.standard_normal((2 * width, width))
        y = rng.standard_normal(2 * width) + 1j * rng.standard_normal(2 * width)
        got = solvers._gram_solve(X.conj().T @ X, X.conj().T @ y)
        want = np.linalg.lstsq(X, y, rcond=None)[0]
        assert width > solvers._TRI_BLOCK
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("width", [1, 30, 64])
    def test_gram_solve_up_to_one_block_is_two_solves(self, width):
        # at most _TRI_BLOCK columns the substitution is one solve per
        # triangle, so refits of that size keep their bits
        rng = np.random.default_rng(width)
        X = rng.standard_normal((2 * width, width)) + 1j * rng.standard_normal((2 * width, width))
        G = X.conj().T @ X
        b = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        L = np.linalg.cholesky(G)
        want = np.conj(np.linalg.solve(L.T, np.conj(np.linalg.solve(L, b))))
        assert solvers._gram_solve(G, b).tobytes() == want.tobytes()

    def test_ls_failure_on_tall_support_with_duplicated_column(self, monkeypatch):
        # B_0 repeats its column 0 as column 1; the support holds both, so
        # Gram route declines it and lstsq's rank check flags it
        routes = refit_routes(monkeypatch)
        rng = np.random.default_rng(15)
        A, Bs = random_operator(rng, 4, 2, 6, (4, 4))
        Bs[0][:, 1] = Bs[0][:, 0]
        H = HierarchicalOperator(A, Bs)
        x = BlockVector.zeros(H.structure)
        x.block(0)[0] = 1.0
        res = hihtp(H, H.apply(x), HiSparsity.uniform(1, 2, 2))
        assert res.support == HiSupport.of_entries(H.structure, {0: (0, 1)})
        assert H.out_dim >= 2 * res.support.columns.size
        assert routes == [False]
        assert res.stop_reason == STOP_LS_FAILURE
        assert not res.converged


class TestHihtp:
    def test_identity_recovers_in_one_iteration(self):
        H = identity_operator(6)
        x = BlockVector(H.structure, np.array([0, 3 + 1j, 0, 0, -2, 0]))
        res = hihtp(H, H.apply(x), HiSparsity(1, (2,)))
        assert res.converged
        assert res.iterations == 1
        assert np.linalg.norm(res.estimate.coeffs - x.coeffs) <= 1e-12

    def test_zero_measurement(self):
        H = desk_operator(5, M=4, N=4, m=6, n=8)
        res = hihtp(H, np.zeros(H.out_dim), HiSparsity.uniform(2, 2, 4))
        assert res.converged
        assert res.iterations == 1
        assert res.estimate.norm() == 0.0
        assert res.stop_reason == STOP_RESIDUAL

    def test_desk_scale_noiseless_monte_carlo(self):
        st = BlockStructure.uniform(16, 32)
        k = HiSparsity.uniform(2, 3, 16)
        hits = 0
        for trial in range(30):
            H = desk_operator(100 + trial)
            x = generate_signal(st, k, spawn_seedseq(100 + trial, 2))
            res = hihtp(H, H.apply(x), k)
            rel = np.linalg.norm(res.estimate.coeffs - x.coeffs) / np.linalg.norm(x.coeffs)
            hits += rel <= 1e-6
        assert hits >= 28

    def test_estimate_is_always_hi_sparse(self):
        rng = np.random.default_rng(6)
        st = BlockStructure.uniform(6, 8)
        k = HiSparsity.uniform(2, 2, 6)
        for trial in range(20):
            H = desk_operator(200 + trial, M=5, N=6, m=6, n=8)
            y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
            res = hihtp(H, y, k)
            assert is_hi_sparse(res.estimate, k)
            off = np.ones(H.total_dim, dtype=bool)
            off[res.support.columns] = False
            assert not res.estimate.coeffs[off].any()

    def test_monotone_refit(self):
        # the refit never does worse than the thresholded gradient iterate
        rng = np.random.default_rng(7)
        k = HiSparsity.uniform(2, 2, 6)
        tol = 1e-10  # relative to ||y||; the refit is a least-squares solve
        for trial in range(20):
            H = desk_operator(300 + trial, M=5, N=6, m=6, n=8)
            y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
            x = BlockVector.zeros(H.structure)
            for _ in range(3):
                grad = H.adjoint_apply(y - H.apply(x))
                u = BlockVector(H.structure, x.coeffs + grad.coeffs)
                x_thr, sup = hi_threshold(u, k)
                refit = package_refit(H, y, sup)[0]
                r_refit = np.linalg.norm(y - H.apply(refit))
                r_thr = np.linalg.norm(y - H.apply(x_thr))
                assert r_refit <= r_thr + tol * np.linalg.norm(y)
                x = refit

    def test_deterministic(self):
        H = desk_operator(8, M=5, N=6, m=6, n=8)
        rng = np.random.default_rng(9)
        y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
        k = HiSparsity.uniform(2, 2, 6)
        r1 = hihtp(H, y, k)
        r2 = hihtp(H, y, k)
        np.testing.assert_array_equal(r1.estimate.coeffs, r2.estimate.coeffs)
        assert r1.support == r2.support
        assert r1.iterations == r2.iterations
        assert r1.residual_norm == r2.residual_norm

    def test_support_repeat_stop_on_noisy_data(self):
        rng = np.random.default_rng(10)
        H = desk_operator(11, M=5, N=6, m=6, n=8)
        y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
        res = hihtp(H, y, HiSparsity.uniform(2, 2, 6))
        assert res.stop_reason in (STOP_SUPPORT_REPEAT, STOP_MAX_ITERS)
        if res.stop_reason == STOP_SUPPORT_REPEAT:
            assert res.converged

    def test_max_iters_cap(self):
        rng = np.random.default_rng(12)
        H = desk_operator(13, M=5, N=6, m=6, n=8)
        y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
        cfg = SolverConfig(max_iters=1, residual_tol=0.0)
        res = hihtp(H, y, HiSparsity.uniform(2, 2, 6), cfg)
        assert res.iterations == 1
        assert res.stop_reason == STOP_MAX_ITERS
        assert not res.converged

    def test_ls_failure_on_underdetermined_support(self):
        # more selected columns than measurements: flagged, not raised
        rng = np.random.default_rng(14)
        A, Bs = random_operator(rng, 1, 2, 2, (3, 3))
        H = HierarchicalOperator(A, Bs)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        res = hihtp(H, y, HiSparsity.uniform(2, 3, 2))
        assert res.stop_reason == STOP_LS_FAILURE
        assert not res.converged

    def test_exact_recovery_under_small_hirip(self):
        # instance frozen so that the tripled-budget constant is below the
        # pursuit threshold 0.29; every planted signal must be recovered
        rng = np.random.default_rng(1)
        F3 = np.exp(-2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
        Bs = []
        for _ in range(3):
            G = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
            Q, _ = np.linalg.qr(G)
            P = Q + 0.05 * (rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6)))
            P /= np.linalg.norm(P, axis=0, keepdims=True)
            Bs.append(P)
        H = HierarchicalOperator(F3, tuple(Bs))
        k = HiSparsity.uniform(1, 1, 3)
        tripled = HiSparsity.uniform(3, 3, 3)  # min(3s, N), min(3*sigma, n_i)
        assert hirip_constant_exact(H, tripled).delta < 0.29
        for pattern in enumerate_hi_patterns(H.structure, k):
            for draw in range(3):
                x = BlockVector.zeros(H.structure)
                for b, cols in pattern.items():
                    vals = rng.standard_normal(len(cols)) + 1j * rng.standard_normal(len(cols))
                    x.block(b)[list(cols)] = vals
                res = hihtp(H, H.apply(x), k)
                assert np.linalg.norm(res.estimate.coeffs - x.coeffs) <= 1e-8

    def test_dimension_errors(self):
        H = identity_operator(4)
        with pytest.raises(DimensionError):
            hihtp(H, np.zeros(5), HiSparsity(1, (2,)))
        with pytest.raises(DimensionError):
            hihtp(H, np.zeros(4), HiSparsity(1, (2, 2)))


class TestHtpFlat:
    def test_identity_exact_recovery(self):
        H = identity_operator(6)
        x = BlockVector(H.structure, np.array([0, 1.0, 0, -2j, 0, 0.5]))
        res = htp_flat(H, H.apply(x), 3)
        assert np.linalg.norm(res.estimate.coeffs - x.coeffs) <= 1e-12
        assert res.converged

    def test_zero_measurement(self):
        H = desk_operator(15, M=4, N=4, m=6, n=8)
        res = htp_flat(H, np.zeros(H.out_dim), 4)
        assert res.estimate.norm() == 0.0
        assert res.converged

    def test_nnz_within_budget(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            H = desk_operator(400 + trial, M=5, N=6, m=6, n=8)
            y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
            res = htp_flat(H, y, 7)
            assert np.count_nonzero(res.estimate.coeffs) <= 7
            assert res.support.columns.size == 7

    def test_budget_validation(self):
        H = identity_operator(4)
        with pytest.raises(ValueError):
            htp_flat(H, np.zeros(4), 0)
        with pytest.raises(ValueError):
            htp_flat(H, np.zeros(4), 5)

    @pytest.mark.parametrize("k_total", [True, 2.0, 1.5])
    def test_non_integer_budget_refused(self, k_total):
        # True ran as k_total = 1, and 2.0 failed inside the first slice
        H = identity_operator(4)
        with pytest.raises(TypeError, match="sparsity budgets must be integers"):
            htp_flat(H, np.ones(4), k_total)
        assert htp_flat(H, np.ones(4), np.int64(2)).support.columns.size == 2

    def test_paired_with_hihtp_on_noiseless_trials(self):
        st = BlockStructure.uniform(16, 32)
        k = HiSparsity.uniform(2, 3, 16)
        hier = flat = 0
        for trial in range(30):
            H = desk_operator(500 + trial)
            x = generate_signal(st, k, spawn_seedseq(500 + trial, 2))
            y = H.apply(x)
            rh = hihtp(H, y, k)
            rf = htp_flat(H, y, 6)
            hier += np.linalg.norm(rh.estimate.coeffs - x.coeffs) <= 1e-6 * np.linalg.norm(x.coeffs)
            flat += np.linalg.norm(rf.estimate.coeffs - x.coeffs) <= 1e-6 * np.linalg.norm(x.coeffs)
        assert flat <= hier


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("residual_tol", np.inf),  # every solve would stop converged at its first refit
        ("residual_tol", np.nan),  # the residual stop would never fire
        ("max_iters", 2.5),  # would fail later in range(), inside a trial
        ("max_iters", True),  # would run as one iteration
        ("residual_tol", True),  # would read as 1.0 and stop every solve converged
        ("residual_tol", "1e-7"),  # failed inside math.isfinite with a TypeError
        ("residual_tol", None),
    ])
    def test_degenerate_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_integral_and_zero_values_accepted(self):
        cfg = SolverConfig(max_iters=np.int64(3), residual_tol=0)
        assert cfg.max_iters == 3 and cfg.residual_tol == 0


class TestNonFiniteMeasurements:
    def test_hihtp_rejects_nan(self):
        H = desk_operator(5, M=4, N=4, m=6, n=8)
        with pytest.raises(ValueError, match="finite"):
            hihtp(H, np.full(H.out_dim, np.nan), HiSparsity.uniform(2, 2, 4))

    def test_htp_flat_rejects_inf(self):
        H = desk_operator(5, M=4, N=4, m=6, n=8)
        y = np.ones(H.out_dim, dtype=np.complex128)
        y[3] = complex(np.inf, 0.0)
        with pytest.raises(ValueError, match="finite"):
            htp_flat(H, y, 4)


class TestTracedEntryPoints:
    """perfbench traces the pursuit through solvers.hi_threshold and
    HierarchicalOperator.adjoint_apply; a pursuit that bypassed either
    attribute would read as a per-layer gain.  Each executed iteration
    calls each exactly once (the first adjoint gives H^* y)."""

    def test_one_call_each_per_iteration_on_matrix_free_detection(self, monkeypatch):
        calls = {"hi_threshold": 0, "adjoint_apply": 0, "refit": 0}
        threshold, adjoint = solvers.hi_threshold, HierarchicalOperator.adjoint_apply
        refit = solvers._restricted_lstsq

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(solvers, "hi_threshold", counting("hi_threshold", threshold))
        monkeypatch.setattr(HierarchicalOperator, "adjoint_apply",
                            counting("adjoint_apply", adjoint))
        monkeypatch.setattr(solvers, "_restricted_lstsq", counting("refit", refit))
        # the paper's detection shape: 20 blocks of 200, the first 10 cut
        # to 10-column windows in the mixed mode
        M, N, m, n = 10, 20, 50, 200
        k = HiSparsity.uniform(6, 5, N)
        windows = (10,) * (N // 2) + (n,) * (N - N // 2)
        stops = set()
        for seed in range(3):
            A = gaussian_matrix(M, N, spawn_seedseq(900 + seed, 0))
            rows = np.array([dft_rows(m, n, spawn_seedseq(900 + seed, 1, i)) for i in range(N)])
            H_full = dft_operator(A, rows, (n,) * N)
            H_mixed = H_full.window(BlockStructure(windows))
            clean = H_full.apply(generate_signal(H_full.structure, k, 950 + seed))
            rng = np.random.default_rng(seed)
            noise = rng.standard_normal(H_full.out_dim) + 1j * rng.standard_normal(H_full.out_dim)
            for y in (clean, clean + 0.5 * noise, noise):
                for H in (H_full, H_mixed):
                    assert isinstance(H, operators._DFTOperator)
                    for key in calls:
                        calls[key] = 0
                    res = hihtp(H, y, k, SolverConfig(max_iters=30))
                    stops.add(res.stop_reason)
                    # an iteration ends in a refit, or in the break on a
                    # support refit before (a repeat, or a cycle whose tail
                    # is skipped: then fewer iterations ran than reported)
                    executed = calls["refit"] + (calls["refit"] < res.iterations)
                    if executed < res.iterations:
                        assert res.stop_reason == STOP_MAX_ITERS
                    assert calls["hi_threshold"] == calls["adjoint_apply"] == executed
        assert stops == {STOP_RESIDUAL, STOP_SUPPORT_REPEAT, STOP_MAX_ITERS}


class TestCycleSkip:
    """Once a support recurs the run is periodic and its tail is skipped; the
    result must be bit-identical to running every iteration
    (oracles.reference_pursuit with the package's own refit)."""

    @staticmethod
    def noisy_instance(seed, M=5, N=6, m=6, n=8):
        H = desk_operator(600 + seed, M=M, N=N, m=m, n=n)
        rng = np.random.default_rng(seed)
        return H, rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)

    @staticmethod
    def count_refits(monkeypatch):
        calls = []
        refit = solvers._restricted_lstsq

        def counting(*args):
            calls.append(args[2])
            return refit(*args)

        monkeypatch.setattr(solvers, "_restricted_lstsq", counting)
        return calls

    @staticmethod
    def assert_matches_reference(res, H, y, project, cfg):
        x, support, iterations, residual, converged, stop = reference_pursuit(
            H, y, project, lambda sup: package_refit(H, y, sup), cfg.max_iters,
            cfg.residual_tol,
        )
        np.testing.assert_array_equal(res.estimate.coeffs, x.coeffs)
        assert res.support == support
        assert res.iterations == iterations
        assert res.residual_norm == residual
        assert res.stop_reason == stop
        assert res.converged == converged

    # (instance seed, shape, budget (s, sigma)): period 2 from iteration 1,
    # and period 6 from iteration 1
    @pytest.mark.parametrize("seed, shape, budget", [
        (5, (5, 6, 6, 8), (2, 2)),
        (148, (4, 8, 6, 8), (3, 2)),
    ])
    @pytest.mark.parametrize("max_iters", [9, 10, 50])
    def test_hihtp_period_at_least_two(self, monkeypatch, seed, shape, budget, max_iters):
        H, y = self.noisy_instance(seed, *shape)
        k = HiSparsity.uniform(*budget, H.num_blocks)
        cfg = SolverConfig(max_iters=max_iters)
        calls = self.count_refits(monkeypatch)
        res = hihtp(H, y, k, cfg)
        assert res.stop_reason == STOP_MAX_ITERS and len(calls) < res.iterations
        self.assert_matches_reference(res, H, y, lambda u: hi_threshold(u, k), cfg)

    @pytest.mark.parametrize("max_iters", [9, 10, 50])
    def test_htp_flat_period_two(self, monkeypatch, max_iters):
        H, y = self.noisy_instance(30)
        cfg = SolverConfig(max_iters=max_iters)
        calls = self.count_refits(monkeypatch)
        res = htp_flat(H, y, 4, cfg)
        assert res.stop_reason == STOP_MAX_ITERS and len(calls) < res.iterations
        self.assert_matches_reference(res, H, y, flat_top_k(H.structure, 4), cfg)

    def test_matrix_free_operator_matches_reference(self):
        # the pursuit takes each residual from its refit's own gather; on
        # the matrix-free route the run must still equal, bit for bit, the
        # reference that recomputes y - H.apply(x)
        M, N, m, n = 6, 8, 16, 32
        k = HiSparsity.uniform(2, 3, N)
        cfg = SolverConfig(max_iters=20)
        stops = set()
        for seed in range(3):
            A = gaussian_matrix(M, N, spawn_seedseq(700 + seed, 0))
            rows = np.array([dft_rows(m, n, spawn_seedseq(700 + seed, 1, i)) for i in range(N)])
            H = dft_operator(A, rows, (n,) * N)
            assert isinstance(H, operators._DFTOperator)
            rng = np.random.default_rng(seed)
            planted = H.apply(generate_signal(H.structure, k, 800 + seed))
            noise = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
            for y in (planted, planted + 0.3 * noise, noise):
                res = hihtp(H, y, k, cfg)
                stops.add(res.stop_reason)
                self.assert_matches_reference(res, H, y, lambda u: hi_threshold(u, k), cfg)
                res = htp_flat(H, y, 6, cfg)
                self.assert_matches_reference(res, H, y, flat_top_k(H.structure, 6), cfg)
        # a cycle skip among them
        assert stops == {STOP_RESIDUAL, STOP_SUPPORT_REPEAT, STOP_MAX_ITERS}
