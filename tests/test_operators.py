import tracemalloc

import numpy as np
import pytest

from hisparse.blocks import BlockStructure, BlockVector
from hisparse.ensembles import dft_rows, gaussian_matrix, spawn_seedseq, subsampled_dft
from hisparse.errors import DimensionError
from hisparse import operators
from hisparse.operators import (
    FFT_MIN_ENTRIES,
    HierarchicalOperator,
    dft_operator,
    kronecker_operator,
)

from oracles import dense_by_entries, random_operator


def dense(H):
    """All columns of H, assembled by the operator itself."""
    return H.dense_columns(np.arange(H.total_dim))


def random_block_vector(rng, structure):
    n = structure.total_dim
    return BlockVector(structure, rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestApply:
    def test_identity_case(self):
        H = HierarchicalOperator(np.eye(1), (np.eye(2),))
        x = BlockVector(H.structure, np.array([1 + 2j, 3.0]))
        np.testing.assert_array_equal(H.apply(x), x.coeffs)

    def test_scalar_sum(self):
        H = HierarchicalOperator(np.array([[1.0, 1.0]]), (np.array([[1.0]]), np.array([[1.0]])))
        x = BlockVector(H.structure, np.array([2.0, 3.0]))
        np.testing.assert_array_equal(H.apply(x), [5.0])

    def test_matches_entrywise_dense_oracle(self):
        rng = np.random.default_rng(0)
        A, Bs = random_operator(rng, 3, 2, 4, (2, 3))
        H = HierarchicalOperator(A, Bs)
        D = dense_by_entries(A, Bs)
        for _ in range(10):
            x = random_block_vector(rng, H.structure)
            got = H.apply(x)
            want = D @ x.coeffs
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_antenna_major_layout(self):
        # output slice j holds sum_i A[j,i] * B_i x_i
        rng = np.random.default_rng(1)
        A, Bs = random_operator(rng, 3, 2, 5, (2, 2))
        H = HierarchicalOperator(A, Bs)
        x = random_block_vector(rng, H.structure)
        y = H.apply(x).reshape(3, 5)
        for j in range(3):
            want = sum(A[j, i] * (Bs[i] @ x.block(i)) for i in range(2))
            np.testing.assert_allclose(y[j], want, atol=1e-13)

    def test_structure_mismatch(self):
        H = HierarchicalOperator(np.eye(2), (np.eye(2), np.eye(2)))
        other = BlockVector(BlockStructure((3, 1)), np.zeros(4))
        with pytest.raises(DimensionError):
            H.apply(other)


class TestAdjoint:
    def test_identity(self):
        H = HierarchicalOperator(np.eye(1), (np.eye(3),))
        y = np.array([1.0, 2j, -1.0])
        np.testing.assert_array_equal(H.adjoint_apply(y).coeffs, y)

    def test_zero(self):
        rng = np.random.default_rng(2)
        A, Bs = random_operator(rng, 2, 3, 4, (2, 2, 2))
        H = HierarchicalOperator(A, Bs)
        out = H.adjoint_apply(np.zeros(8))
        np.testing.assert_array_equal(out.coeffs, np.zeros(6))

    def test_adjoint_identity_100_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            M, N, m = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 6)
            sizes = tuple(int(v) for v in rng.integers(1, 5, size=N))
            A, Bs = random_operator(rng, M, N, m, sizes)
            H = HierarchicalOperator(A, Bs)
            x = random_block_vector(rng, H.structure)
            y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
            lhs = np.vdot(y, H.apply(x))
            rhs = np.vdot(H.adjoint_apply(y).coeffs, x.coeffs)
            scale = np.linalg.norm(x.coeffs) * np.linalg.norm(y)
            assert abs(lhs - rhs) <= 1e-10 * max(scale, 1e-300)

    def test_length_mismatch(self):
        H = HierarchicalOperator(np.eye(2), (np.eye(2), np.eye(2)))
        with pytest.raises(DimensionError):
            H.adjoint_apply(np.zeros(5))

    def test_no_copy_of_block_matrices(self):
        # each B_i holds 50 x 4000 entries (3.2 MB); the output 8000 (128 kB)
        rng = np.random.default_rng(5)
        A, Bs = random_operator(rng, 3, 2, 50, (4000, 4000))
        H = HierarchicalOperator(A, Bs)
        x = random_block_vector(rng, H.structure)
        y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
        tracemalloc.start()
        try:
            H.adjoint_apply(y)
            H.apply(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestDenseAssembly:
    def test_identity(self):
        H = HierarchicalOperator(np.eye(1), (np.eye(2),))
        np.testing.assert_array_equal(dense(H), np.eye(2))

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(4)
        A, Bs = random_operator(rng, 3, 3, 2, (1, 4, 2))
        H = HierarchicalOperator(A, Bs)
        np.testing.assert_allclose(dense(H), dense_by_entries(A, Bs), atol=1e-14)

    def test_action_matches_apply(self):
        rng = np.random.default_rng(5)
        A, Bs = random_operator(rng, 4, 3, 3, (3, 2, 4))
        H = HierarchicalOperator(A, Bs)
        D = dense_by_entries(A, Bs)
        for _ in range(10):
            x = random_block_vector(rng, H.structure)
            want = D @ x.coeffs
            assert np.linalg.norm(H.apply(x) - want) <= 1e-12 * np.linalg.norm(want)

    def test_dense_columns_match_kron_bitwise(self):
        # every entry is the single product A[j, b] * B_b[r, c], as in kron
        rng = np.random.default_rng(9)
        A, Bs = random_operator(rng, 4, 5, 3, (2, 6, 1, 4, 3))
        H = HierarchicalOperator(A, Bs)
        full = np.hstack([np.kron(A[:, i : i + 1], B) for i, B in enumerate(Bs)])
        np.testing.assert_array_equal(dense(H), full)
        for size in (0, 1, 5, 9, H.total_dim):
            cols = np.sort(rng.choice(H.total_dim, size=size, replace=False))
            np.testing.assert_array_equal(H.dense_columns(cols), full[:, cols])


class TestGram:
    @pytest.mark.parametrize("sizes", [(3, 3, 3), (1, 4, 2), (5, 1, 3, 2)])
    def test_matches_dense_oracle(self, sizes):
        # block (b, b') is (A^*A)[b, b'] * (B_b^* B_b'), mixed n_i included
        rng = np.random.default_rng(sum(sizes))
        A, Bs = random_operator(rng, 4, len(sizes), 3, sizes)
        D = dense_by_entries(A, Bs)
        want = D.conj().T @ D
        G = HierarchicalOperator(A, Bs).gram()
        assert G.shape == want.shape
        assert np.linalg.norm(G - want) <= 1e-13 * np.linalg.norm(want)

    def test_column_subset(self):
        # gram(cols) is the Gram matrix of dense_columns(cols); over every
        # column it is gram() bit for bit
        rng = np.random.default_rng(11)
        A, Bs = random_operator(rng, 4, 4, 5, (3, 6, 2, 4))
        H = HierarchicalOperator(A, Bs)
        for width in (1, 4, 9):
            cols = np.sort(rng.choice(H.total_dim, size=width, replace=False))
            D = dense_by_entries(A, Bs)[:, cols]
            want = D.conj().T @ D
            assert np.linalg.norm(H.gram(cols) - want) <= 1e-13 * np.linalg.norm(want)
        np.testing.assert_array_equal(H.gram(np.arange(H.total_dim)), H.gram())


class TestKronecker:
    def test_single_column_is_b(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        H = kronecker_operator(np.array([[1.0]]), B)
        np.testing.assert_allclose(dense(H), B)

    def test_identity_kron_identity(self):
        H = kronecker_operator(np.eye(2), np.eye(2))
        np.testing.assert_array_equal(dense(H), np.eye(4))

    def test_matches_numpy_kron(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            A = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            B = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            H = kronecker_operator(A, B)
            np.testing.assert_allclose(dense(H), np.kron(A, B), atol=1e-14)


class TestValidationAndSerialization:
    def test_bs_count_mismatch(self):
        with pytest.raises(DimensionError):
            HierarchicalOperator(np.eye(2), (np.eye(2),))

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError):
            HierarchicalOperator(np.eye(2), (np.eye(2), np.eye(3)))

    @pytest.mark.parametrize("which", ["A", "B"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, which, bad):
        A, B = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
        (A if which == "A" else B)[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            HierarchicalOperator(A, (B, np.eye(3)))


def dft_instance(M, N, m, n, seed=0):
    """A Gaussian A and N row draws of the n-point DFT, each from its own
    stream, as the harness draws them."""
    A = gaussian_matrix(M, N, spawn_seedseq(seed, 0))
    rows = np.array([dft_rows(m, n, spawn_seedseq(seed, 1, i)) for i in range(N)])
    return A, rows


# matrix-free instances (M, N, m, n, widths): the paper detection shape on
# full and on windowed blocks, the crossover shape, and n past the DFT cache
FFT_CASES = {
    "detection-full": (10, 20, 50, 200, None),
    "detection-windowed": (10, 20, 50, 200, (10,) * 10 + (200,) * 10),
    "crossover": (2, 3, 32, 128, (128, 5, 64)),
    "uncached": (3, 4, 4, 1030, (1030, 7, 1, 513)),
}


def fft_case(name):
    M, N, m, n, widths = FFT_CASES[name]
    A, rows = dft_instance(M, N, m, n)
    H = dft_operator(A, rows, (n,) * N, widths)
    assert isinstance(H, operators._DFTOperator)
    # the same blocks, dense
    return H, HierarchicalOperator(A, H.Bs)


class TestDftOperator:
    def test_route_by_size(self):
        def route(m, n, lengths=None):
            A, rows = dft_instance(2, 3, m, n)
            H = dft_operator(A, rows, lengths or (n,) * 3)
            return "fft" if isinstance(H, operators._DFTOperator) else "dense"

        assert route(16, 32) == "dense"  # the desk recovery grid
        assert route(50, 200) == "fft"  # the paper detection sweep
        assert route(50, 100) == "fft"  # the paper recovery grid
        m = 32
        assert route(m, FFT_MIN_ENTRIES // m) == "fft"
        assert route(m, FFT_MIN_ENTRIES // m - 1) == "dense"
        # blocks of different lengths stay dense at any size
        assert route(50, 200, (200, 200, 201)) == "dense"

    @pytest.mark.parametrize("case", FFT_CASES)
    def test_apply_and_adjoint_match_dense(self, case):
        # the FFT and the gathered product sum in another order than the
        # dense blocks: pinned at |error| <= 1e-12 * ||input||
        H, D = fft_case(case)
        rng = np.random.default_rng(1)
        x = random_block_vector(rng, H.structure)
        x.block(1)[:] = 0
        y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
        for got, want, scale in (
            (H.apply(x), D.apply(x), np.linalg.norm(x.coeffs)),
            (H.adjoint_apply(y).coeffs, D.adjoint_apply(y).coeffs, np.linalg.norm(y)),
        ):
            assert np.abs(got - want).max() <= 1e-12 * scale
        np.testing.assert_array_equal(H.apply(BlockVector.zeros(H.structure)), 0)
        np.testing.assert_array_equal(H.adjoint_apply(np.zeros(H.out_dim)).coeffs, 0)
        with pytest.raises(DimensionError):
            H.adjoint_apply(y[1:])
        with pytest.raises(DimensionError):
            H.apply(BlockVector.zeros(BlockStructure((1,) * H.num_blocks)))

    @pytest.mark.parametrize("case", FFT_CASES)
    def test_gathers_bit_equal_to_dense(self, case):
        H, D = fft_case(case)
        rng = np.random.default_rng(2)
        for size in (0, 1, 30, 120):
            cols = np.sort(rng.choice(H.total_dim, size=size, replace=False))
            assert H.gram(cols).tobytes() == D.gram(cols).tobytes()
            assert H.dense_columns(cols).tobytes() == D.dense_columns(cols).tobytes()
        if H.total_dim <= 2000:
            assert H.gram().tobytes() == D.gram().tobytes()

    @pytest.mark.parametrize("m,n", [(16, 32), (50, 200), (4, 1030)])
    def test_dense_blocks_are_the_draws(self, m, n):
        # on either route, H.Bs is subsampled_dft's draw from the same
        # stream cut to the window, bit for bit
        A = gaussian_matrix(2, 3, 0)
        seeds = [spawn_seedseq(7, i) for i in range(3)]
        rows = np.array([dft_rows(m, n, seed) for seed in seeds])
        for widths in ((n,) * 3, (n, 1, n // 2)):
            H = dft_operator(A, rows, (n,) * 3, widths)
            for B, seed, w in zip(H.Bs, seeds, widths):
                assert B.dtype == np.complex128 and B.flags.c_contiguous
                assert B.tobytes() == subsampled_dft(m, n, seed)[:, :w].tobytes()

    @pytest.mark.parametrize("m,n", [(16, 32), (50, 200)])
    def test_shares_a_and_scans_no_block(self, monkeypatch, m, n):
        A, rows = dft_instance(3, 2, m, n)
        scans = []
        monkeypatch.setattr(operators, "_as_matrix", lambda a: scans.append(a) or a)
        H = dft_operator(A, rows, (n, n), (2, n))
        assert len(scans) == 1 and scans[0] is A and H.A is A
        assert H.structure == BlockStructure((2, n))
        monkeypatch.undo()
        x = random_block_vector(np.random.default_rng(3), H.structure)
        np.testing.assert_allclose(
            H.apply(x), HierarchicalOperator(A, H.Bs).apply(x), rtol=0, atol=1e-13
        )
        with pytest.raises(DimensionError):
            dft_operator(A, rows[:1], (n, n))
        with pytest.raises(DimensionError):
            dft_operator(A, rows, (n,))
        with pytest.raises(DimensionError):
            dft_operator(A, rows, (n, n), (2,))
        with pytest.raises(ValueError, match="wider"):
            dft_operator(A, rows, (n, n), (2, n + 1))
        with pytest.raises(ValueError, match="ascending"):
            dft_operator(A, rows[:, ::-1], (n, n))
        with pytest.raises(ValueError, match="ascending"):
            dft_operator(A, rows, (n, int(rows[1, -1])))
