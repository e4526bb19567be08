import pickle

import numpy as np
import pytest

from hisparse.blocks import (
    BlockStructure,
    BlockVector,
    HiSparsity,
    HiSupport,
    block_norms,
    hi_threshold,
    is_hi_sparse,
)
from hisparse import blocks
from hisparse.errors import DimensionError

from oracles import (
    best_hi_approx_residual,
    block_scores_by_loop,
    hi_threshold_by_blocks,
    random_hi_sparse,
)


def bv(structure, *blocks):
    return BlockVector(structure, np.concatenate([np.asarray(b, dtype=complex) for b in blocks]))


class TestTypes:
    def test_structure_derived_quantities(self):
        st = BlockStructure((3, 1, 4))
        assert st.num_blocks == 3
        assert st.total_dim == 8
        assert st.block_slice(2) == slice(4, 8)

    def test_starts_and_owner_match_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            st = BlockStructure(tuple(int(n) for n in rng.integers(1, 7, size=rng.integers(1, 8))))
            starts, owner, pos = [], [], 0
            for b, n in enumerate(st.block_sizes):
                starts.append(pos)
                owner += [b] * n
                pos += n
            assert st.starts.dtype == st.owner.dtype == np.intp
            assert st.starts.tolist() == starts and st.owner.tolist() == owner
            assert st.total_dim == pos and type(st.total_dim) is int
            assert [st.offset(b) for b in range(st.num_blocks)] == starts
            assert all(type(st.offset(b)) is int for b in range(st.num_blocks))
            for arr in (st.starts, st.owner):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1
            # split: the one global -> (block, local) conversion
            for cols in (np.arange(pos, dtype=np.intp), np.empty(0, dtype=np.intp)):
                blocks, local = st.split(cols)
                assert blocks.tolist() == [owner[g] for g in cols]
                assert local.tolist() == [g - starts[owner[g]] for g in cols]

    def test_structure_pickles_as_its_sizes(self):
        # the pool ships structures to its workers: a copy is equal and
        # keeps its arrays read-only
        st = BlockStructure((3, 1, 4))
        copy = pickle.loads(pickle.dumps(st))
        assert copy == st and copy.owner.tolist() == st.owner.tolist()
        assert copy.starts.tolist() == st.starts.tolist()
        for arr in (copy.starts, copy.owner):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_structure_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            BlockStructure(())
        with pytest.raises(ValueError):
            BlockStructure((2, 0))
        # a size is never truncated: a fractional or bool one is refused by
        # name, and numpy integers are sizes like any other
        for bad, shown in ((3.7, "3.7"), (True, "True"), (np.float64(2.0), "np.float64")):
            with pytest.raises(TypeError, match=f"block sizes must be integers, got {shown}"):
                BlockStructure((bad, 2))
        assert BlockStructure((np.int64(3), np.uint8(2))).block_sizes == (3, 2)

    def test_sparsity_bounds(self):
        with pytest.raises(ValueError):
            HiSparsity(0, (1, 1))
        with pytest.raises(ValueError):
            HiSparsity(3, (1, 1))
        with pytest.raises(ValueError):
            HiSparsity(1, (1, -1))
        k = HiSparsity.uniform(2, 3, 4)
        assert k.sigma == (3, 3, 3, 3)
        # neither budget is truncated
        for s, sigma, shown in ((1.5, (2, 1), "1.5"), (1, (2.9, 1), "2.9"),
                                (True, (2, 1), "True"), (1, (2, False), "False")):
            with pytest.raises(TypeError, match=f"sparsity budgets must be integers, got {shown}"):
                HiSparsity(s, sigma)
        k = HiSparsity(np.int32(2), (np.int64(3), 1))
        assert k == HiSparsity(2, (3, 1)) and type(k.s) is int and type(k.sigma[0]) is int

    def test_sparsity_validate_for_structure(self):
        st = BlockStructure((2, 2))
        with pytest.raises(DimensionError):
            HiSparsity(1, (1, 1, 1)).validate_for(st)
        with pytest.raises(ValueError):
            HiSparsity(1, (1, 3)).validate_for(st)

    def test_vector_length_checked(self):
        st = BlockStructure((2, 2))
        with pytest.raises(DimensionError):
            BlockVector(st, np.zeros(3))

    def test_block_views_share_buffer(self):
        st = BlockStructure((2, 3))
        x = BlockVector.zeros(st)
        x.block(1)[0] = 7.0
        assert x.coeffs[2] == 7.0

    def test_support_invariants(self):
        st = BlockStructure((3, 2))
        sup = HiSupport.of_entries(st, {1: (0,), 0: (2, 1)})
        assert sup.active_blocks == (0, 1)
        assert sup.entries == {0: (1, 2), 1: (0,)}
        assert sup.columns.dtype == np.intp and sup.columns.tolist() == [1, 2, 3]
        assert not sup.columns.flags.writeable
        with pytest.raises(ValueError):
            sup.columns[0] = 0
        with pytest.raises(IndexError):
            HiSupport.of_entries(st, {0: (5,)})

    def test_column_indices_match_elementwise_map(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            st = BlockStructure(tuple(int(n) for n in rng.integers(1, 6, size=rng.integers(1, 6))))
            blocks = [b for b in range(st.num_blocks) if rng.random() < 0.6]
            entries = {
                b: tuple(rng.choice(st.block_sizes[b], size=rng.integers(0, st.block_sizes[b] + 1),
                                    replace=False).tolist())
                for b in blocks
            }
            sup = HiSupport.of_entries(st, entries)
            want = [st.offset(b) + c for b in blocks for c in sorted(entries[b])]
            assert sup.columns.dtype == np.intp
            assert sup.columns.tolist() == want
            assert sup.active_blocks == tuple(blocks)
            assert sup.entries == {b: tuple(sorted(entries[b])) for b in blocks}

    @pytest.mark.parametrize("make, message", [
        # a repeated coordinate or column made the refit gather the same
        # column twice
        pytest.param(lambda: HiSupport.of_entries(BlockStructure.uniform(2, 4), {0: (1, 1)}),
                     "duplicate coordinate index in block 0", id="repeated-coordinate"),
        pytest.param(lambda: HiSupport.of_columns(BlockStructure.uniform(2, 4), [3, 3, 5]),
                     "duplicate column index", id="repeated-column"),
    ])
    def test_repeats_refused(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("make", [
        # a float or a bool index used to be truncated to an int
        pytest.param(lambda st: HiSupport.of_columns(st, [1.7, 5.2]), id="float-column"),
        pytest.param(lambda st: HiSupport.of_columns(st, [True]), id="bool-column"),
        pytest.param(lambda st: HiSupport.of_columns(st, [0], idle=[1.0]), id="float-idle"),
        pytest.param(lambda st: HiSupport.of_entries(st, {0: (1.5, 2.9)}), id="float-coordinate"),
        pytest.param(lambda st: HiSupport.of_entries(st, {True: (0,)}), id="bool-block"),
        pytest.param(lambda st: HiSupport.of_entries(st, {1.0: (0,)}), id="float-block"),
    ])
    def test_non_integer_indices_refused(self, make):
        with pytest.raises(TypeError, match="must be integers"):
            make(BlockStructure.uniform(2, 4))

    @pytest.mark.parametrize(
        "sup",
        [
            {2: (0,)},
            {-1: (0,)},
            {0: (0,), 1: (0, 2)},
            {0: (-1, 1), 1: ()},
        ],
    )
    def test_out_of_range_support_rejected(self, sup):
        st = BlockStructure((3, 2))
        with pytest.raises(IndexError):
            HiSupport.of_entries(st, sup)

    def test_threshold_support_checked_against_another_structure(self):
        # a support is a value on its structure: the same blocks and columns
        # on another structure make another support
        st = BlockStructure((8, 8))
        x = BlockVector.zeros(st)
        x.coeffs[[0, 15]] = 1.0, 5.0
        sup = hi_threshold(x, HiSparsity(2, (1, 1)))[1]
        assert sup.entries == {0: (0,), 1: (7,)}
        assert sup == HiSupport.of_columns(BlockStructure((8, 8)), [0, 15])
        other = HiSupport.of_columns(BlockStructure((8, 9)), [0, 15])
        assert other.active_blocks == sup.active_blocks
        assert other.columns.tobytes() == sup.columns.tobytes()
        assert sup != other

    def test_of_columns_inverts_column_indices(self):
        st = BlockStructure((3, 2))
        sup = HiSupport.of_entries(st, {0: (1, 2), 1: (0,)})
        assert HiSupport.of_columns(st, [2, 3, 1]) == sup
        assert HiSupport.of_columns(st, sup.columns) == sup
        assert HiSupport.of_nonzeros(bv(st, [0, 1, 1], [2, 0])) == sup
        assert HiSupport.of_columns(st, [3], idle=[0]) == HiSupport.of_entries(st, {0: (), 1: (0,)})
        empty = HiSupport.of_columns(st, [])
        assert empty == HiSupport.of_entries(st, {}) and empty.active_blocks == ()
        with pytest.raises(IndexError):
            HiSupport.of_columns(st, [5])

    def test_canonical_supports_match_validated_ones(self):
        # hi_threshold builds its support without the checks; it must equal
        # (and hash as) what of_entries checks and builds from its entries
        rng = np.random.default_rng(8)
        st = BlockStructure((4, 7, 1, 5, 7))
        for _ in range(50):
            x = BlockVector(st, rng.standard_normal(st.total_dim))
            sigma = tuple(int(rng.integers(0, n + 1)) for n in st.block_sizes)
            k = HiSparsity(int(rng.integers(1, 6)), sigma)
            sup = hi_threshold(x, k)[1]
            want = HiSupport.of_entries(st, sup.entries)
            assert sup == want and hash(sup) == hash(want)
            assert [type(b) for b in sup.active_blocks] == [int] * len(want.active_blocks)


class TestHiThreshold:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN used to be dropped silently: [nan, 1 | 2, 3] kept only the 3
        st = BlockStructure((2, 2))
        with pytest.raises(ValueError, match="non-finite"):
            hi_threshold(bv(st, [bad, 1], [2, 3]), HiSparsity(1, (1, 1)))

    def test_single_dominant_entry(self):
        # kept-entry block scores are 9, 1, 4 so the first block wins
        st = BlockStructure((2, 2, 2))
        x = bv(st, [3, 0], [0, 1], [2, 2])
        out, sup = hi_threshold(x, HiSparsity(1, (1, 1, 1)))
        np.testing.assert_array_equal(out.coeffs, [3, 0, 0, 0, 0, 0])
        assert sup.active_blocks == (0,)
        assert sup.entries[0] == (0,)

    def test_full_budget_is_identity(self):
        rng = np.random.default_rng(3)
        st = BlockStructure((3, 5, 2))
        x = BlockVector(st, rng.standard_normal(10) + 1j * rng.standard_normal(10))
        k = HiSparsity(3, (3, 5, 2))
        out, _ = hi_threshold(x, k)
        np.testing.assert_array_equal(out.coeffs, x.coeffs)

    def test_invalid_budget_raises_on_every_call(self):
        # the budget check lives in a cached helper; lru_cache keeps no
        # exceptions, so a repeated call must raise again
        x = bv(BlockStructure((2, 2)), [1, 2], [3, 4])
        for _ in range(2):
            with pytest.raises(ValueError, match="sigma_1=3 exceeds block size 2"):
                hi_threshold(x, HiSparsity(1, (1, 3)))
            with pytest.raises(DimensionError, match="sparsity has 3 blocks"):
                hi_threshold(x, HiSparsity(1, (1, 1, 1)))

    def test_matches_bruteforce_minimizer(self):
        rng = np.random.default_rng(11)
        st = BlockStructure.uniform(4, 5)
        k = HiSparsity.uniform(2, 2, 4)
        for _ in range(25):
            x = BlockVector(st, rng.standard_normal(20) + 1j * rng.standard_normal(20))
            out, _ = hi_threshold(x, k)
            res = np.linalg.norm(x.coeffs - out.coeffs)
            assert abs(res - best_hi_approx_residual(x, k)) <= 1e-12

    def test_tie_break_keeps_lower_index(self):
        st = BlockStructure((3, 3))
        x = bv(st, [1, 1, 1], [1, 1, 1])
        out, sup = hi_threshold(x, HiSparsity(1, (2, 2)))
        assert sup.active_blocks == (0,)
        assert sup.entries[0] == (0, 1)
        np.testing.assert_array_equal(out.coeffs, [1, 1, 0, 0, 0, 0])

    def test_sigma_zero_excludes_block(self):
        st = BlockStructure((2, 2))
        x = bv(st, [9, 9], [1, 0])
        out, sup = hi_threshold(x, HiSparsity(1, (0, 2)))
        assert sup.active_blocks == (1,)
        np.testing.assert_array_equal(out.coeffs, [0, 0, 1, 0])

    def test_support_lists_kept_zeros(self):
        # deterministic support cardinality even when kept values are zero
        st = BlockStructure((3,))
        x = bv(st, [2, 0, 0])
        _, sup = hi_threshold(x, HiSparsity(1, (2,)))
        assert sup.entries[0] == (0, 1)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(5)
        st = BlockStructure((4, 2, 6, 3))
        k = HiSparsity(2, (2, 1, 3, 2))
        for _ in range(50):
            x = BlockVector(st, rng.standard_normal(15) + 1j * rng.standard_normal(15))
            once, _ = hi_threshold(x, k)
            twice, _ = hi_threshold(once, k)
            np.testing.assert_array_equal(once.coeffs, twice.coeffs)

    def test_projection_membership(self):
        rng = np.random.default_rng(6)
        st = BlockStructure.uniform(5, 4)
        k = HiSparsity(2, (2, 0, 3, 1, 4))
        for _ in range(200):
            x = BlockVector(st, rng.standard_normal(20) + 1j * rng.standard_normal(20))
            out, _ = hi_threshold(x, k)
            assert is_hi_sparse(out, k)

    def test_support_scale_equivariance(self):
        rng = np.random.default_rng(7)
        st = BlockStructure.uniform(4, 6)
        k = HiSparsity.uniform(2, 2, 4)
        for _ in range(20):
            x = BlockVector(st, rng.standard_normal(24) + 1j * rng.standard_normal(24))
            _, sup = hi_threshold(x, k)
            for c in (2.0, -0.7, 1j, 3 - 4j):
                _, sup_c = hi_threshold(BlockVector(st, c * x.coeffs), k)
                assert sup_c == sup

    def test_structure_mismatch_raises(self):
        st = BlockStructure((2, 2))
        x = BlockVector.zeros(st)
        with pytest.raises(DimensionError):
            hi_threshold(x, HiSparsity(1, (1, 1, 1)))


class TestPaddedSigmaGroups:
    """Blocks sharing sigma_i are thresholded as one array padded by -1 to
    the longest of them: checked against the per-block loop, scores bit for
    bit, and against the exhaustive oracle where it is affordable."""

    @staticmethod
    def check(x, k, exhaustive=True):
        out, support = hi_threshold(x, k)
        want_out, want_support = hi_threshold_by_blocks(x, k)
        assert out.coeffs.tobytes() == want_out.coeffs.tobytes()
        assert support == want_support
        scores = blocks._block_scores(x, k)[0]
        assert scores.tobytes() == block_scores_by_loop(x, k)[1].tobytes()
        if exhaustive:
            res = np.linalg.norm(x.coeffs - out.coeffs)
            tol = 1e-12 * (1.0 + np.linalg.norm(x.coeffs))
            assert abs(res - best_hi_approx_residual(x, k)) <= tol
        return support

    @staticmethod
    def levels(rng, n):
        """Coefficients from a few magnitudes and phases: exact ties."""
        phases = np.exp(0.5j * np.pi * rng.integers(0, 4, n))
        return rng.choice((0.0, 1.0, 2.0, 0.5), n) * phases

    def test_detection_windows_are_one_group(self):
        # the mixed-mode prior: 10 windows of 10 and 10 blocks of 200, all
        # sigma = 5, thresholded as one (20, 200) array
        st = BlockStructure((10,) * 10 + (200,) * 10)
        k = HiSparsity.uniform(4, 5, 20)
        groups, slots = blocks._threshold_groups(st, k.sigma)
        assert len(groups) == 1 and groups[0][2].shape == (20, 200)
        assert slots == tuple((1, r) for r in range(20))
        rng = np.random.default_rng(21)
        for trial in range(20):
            c = rng.standard_normal(st.total_dim) + 1j * rng.standard_normal(st.total_dim)
            c[:100] *= 2.0 * (trial % 2)  # windows strong, or all zero
            self.check(BlockVector(st, c), k, exhaustive=False)
        # the same shape, small enough for the exhaustive oracle
        st, k = BlockStructure((2, 2, 6, 6)), HiSparsity.uniform(2, 2, 4)
        for _ in range(20):
            self.check(BlockVector(st, rng.standard_normal(16) + 1j * rng.standard_normal(16)), k)

    @pytest.mark.parametrize("s", [1, 3, 4])
    def test_zero_block_sigma_long(self, s):
        # block 0 is exactly sigma long and all zero: its threshold t = 0
        # sits next to the -1 padding, and it keeps both its zeros
        st, k = BlockStructure((2, 6, 2, 6)), HiSparsity.uniform(s, 2, 4)
        rng = np.random.default_rng(s)
        x = BlockVector(st, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        x.block(0)[:] = 0
        support = self.check(x, k)
        assert (0 in support.active_blocks) == (s == 4)
        if s == 4:
            assert support.entries[0] == (0, 1)

    def test_ties_at_t_across_lengths(self):
        st = BlockStructure((3, 5, 4, 5, 3, 2))
        k = HiSparsity(3, (2,) * 6)
        rng = np.random.default_rng(22)
        for _ in range(200):
            self.check(BlockVector(st, self.levels(rng, st.total_dim)), k)

    def test_zero_sigma_blocks_mixed_in(self):
        st = BlockStructure((3, 5, 6, 2, 4, 5))
        k = HiSparsity(3, (2, 0, 2, 0, 1, 2))
        groups, slots = blocks._threshold_groups(st, k.sigma)
        assert [g[1].tolist() for g in groups] == [[0, 2, 5], [4]]
        assert slots[1] == slots[3] == (0, 0)
        rng = np.random.default_rng(23)
        for trial in range(100):
            if trial % 2:
                c = self.levels(rng, st.total_dim)
            else:
                c = rng.standard_normal(st.total_dim) + 1j * rng.standard_normal(st.total_dim)
            self.check(BlockVector(st, c), k)


class TestPredicatesAndRestrict:
    def test_zero_vector_is_hi_sparse(self):
        st = BlockStructure((2, 3))
        assert is_hi_sparse(BlockVector.zeros(st), HiSparsity(1, (0, 1)))

    def test_too_many_in_block(self):
        st = BlockStructure((2, 2))
        x = bv(st, [1, 1], [0, 0])
        assert not is_hi_sparse(x, HiSparsity(1, (1, 2)))
        assert is_hi_sparse(x, HiSparsity(1, (2, 2)))

    def test_threshold_output_is_sparse_many_draws(self):
        rng = np.random.default_rng(8)
        st = BlockStructure.uniform(6, 5)
        k = HiSparsity.uniform(3, 2, 6)
        for _ in range(1000):
            x = BlockVector(st, rng.standard_normal(30) + 1j * rng.standard_normal(30))
            out, _ = hi_threshold(x, k)
            assert is_hi_sparse(out, k)


class TestBlockNorms:
    def test_zero(self):
        st = BlockStructure((2, 5))
        np.testing.assert_array_equal(block_norms(BlockVector.zeros(st)), [0, 0])

    def test_three_four_five(self):
        st = BlockStructure((2, 2))
        np.testing.assert_allclose(block_norms(bv(st, [3, 4], [0, 0])), [5, 0])

    def test_parseval_over_blocks(self):
        rng = np.random.default_rng(10)
        st = BlockStructure((3, 7, 2, 5))
        for _ in range(50):
            x = BlockVector(st, rng.standard_normal(17) + 1j * rng.standard_normal(17))
            norms = block_norms(x)
            assert abs(np.sum(norms**2) - np.linalg.norm(x.coeffs) ** 2) <= 1e-12 * max(
                1.0, np.linalg.norm(x.coeffs) ** 2
            )

    def test_support_of_random_hi_sparse(self):
        rng = np.random.default_rng(12)
        st = BlockStructure.uniform(5, 4)
        k = HiSparsity.uniform(2, 2, 5)
        for _ in range(100):
            x = random_hi_sparse(rng, st, k)
            assert is_hi_sparse(x, k)
