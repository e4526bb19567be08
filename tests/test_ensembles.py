import itertools
import math

import numpy as np
import pytest

from hisparse import ensembles
from hisparse.ensembles import (
    DFT_CACHE_MAX_ENTRIES,
    as_rng,
    gaussian_matrix,
    restrict_columns,
    spawn_seedseq,
    spawn_seedseqs,
    stream_fingerprint,
    stream_words,
    subsampled_dft,
    zigzag,
)
from hisparse.harness.experiments import _SNR_INF_KEY
from hisparse.riplab import rip_constant_exact

from oracles import pair_gram_deviation


class TestSeeding:
    def test_zigzag_is_injective_on_small_ints(self):
        vals = [zigzag(v) for v in range(-100, 101)]
        assert len(set(vals)) == len(vals)
        assert all(v >= 0 for v in vals)

    def test_streams_are_deterministic_and_distinct(self):
        a1 = spawn_seedseq(42, 1, 2).generate_state(4)
        a2 = spawn_seedseq(42, 1, 2).generate_state(4)
        b = spawn_seedseq(42, 1, 3).generate_state(4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_negative_ids_are_valid_streams(self):
        f1 = stream_fingerprint(7, -10, 3)
        f2 = stream_fingerprint(7, 10, 3)
        assert f1 != f2


def _numpy_stream(seed, *ids):
    """The stream as numpy assembles it from the int and the key."""
    return np.random.SeedSequence(entropy=zigzag(seed), spawn_key=tuple(zigzag(i) for i in ids))


def _states(ss):
    """generate_state(8) of ss and of each of its first two children."""
    return [ss.generate_state(8)] + [c.generate_state(8) for c in ss.spawn(2)]


class TestStreamWords:
    # spawn_seedseq hands numpy pre-assembled entropy words; a numpy that
    # assembled them differently would change every trial, and fails here
    SPECIAL = (0, -1, 1, 2**31, 2**32 - 1, 2**32, -(2**32), 2**64, -(2**64) - 3,
               2**70 + 5, _SNR_INF_KEY)

    def _value(self, rng):
        if rng.random() < 0.4:
            return self.SPECIAL[rng.integers(len(self.SPECIAL))]
        return int(rng.integers(-1000, 1000))

    def test_streams_equal_numpys_assembly(self):
        rng = np.random.default_rng(2027)
        for _ in range(300):
            seed = self._value(rng)
            ids = tuple(self._value(rng) for _ in range(rng.integers(0, 7)))
            for got, want in zip(_states(spawn_seedseq(seed, *ids)),
                                 _states(_numpy_stream(seed, *ids))):
                np.testing.assert_array_equal(got, want)

    def test_row_word_table_equals_per_stream_calls(self):
        for seed, ids in ((0, ()), (5, (1,)), (-7, (2, 10, 0, 3, 1)),
                          (2**64, (1, -3, _SNR_INF_KEY, 0, 1))):
            table = spawn_seedseqs(seed, *ids, count=21)
            assert len(table) == 21
            for i, ss in enumerate(table):
                np.testing.assert_array_equal(ss.entropy, stream_words(seed, *ids, i))
                for got, want in zip(_states(ss), _states(_numpy_stream(seed, *ids, i))):
                    np.testing.assert_array_equal(got, want)
        assert spawn_seedseqs(3, 1, count=0) == []
        with pytest.raises(ValueError, match="count"):
            spawn_seedseqs(3, 1, count=2**31 + 1)

    @pytest.mark.parametrize("args,bad", [
        ((1, 2.5), "2.5"), ((1.9, 2), "1.9"), ((1, True), "True"), ((2.0,), "2.0"),
        ((1, np.bool_(False)), "np.False_"), ((1, "3"), "'3'"),
    ])
    def test_refuses_a_non_integer_seed_or_id(self, args, bad):
        for call in (spawn_seedseq, stream_fingerprint, stream_words,
                     lambda *a: spawn_seedseqs(*a, count=2)):
            with pytest.raises(TypeError, match=f"integers, got {bad}"):
                call(*args)

    def test_numpy_integers_name_their_int_stream(self):
        want = spawn_seedseq(3, -4, 2**40).generate_state(4)
        got = spawn_seedseq(np.uint64(3), np.int8(-4), np.int64(2**40)).generate_state(4)
        np.testing.assert_array_equal(got, want)


class TestGaussianMatrix:
    def test_unit_columns(self):
        G = gaussian_matrix(17, 9, 123)
        np.testing.assert_allclose(np.linalg.norm(G, axis=0), 1.0, atol=1e-12)

    def test_determinism(self):
        np.testing.assert_array_equal(gaussian_matrix(5, 4, 9), gaussian_matrix(5, 4, 9))
        assert not np.array_equal(gaussian_matrix(5, 4, 9), gaussian_matrix(5, 4, 10))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gaussian_matrix(0, 3, 1)

    def test_tall_matrix_is_near_isometry_on_pairs(self):
        # normalization forces delta_1 = 0 exactly; enumerated delta_2
        # stays below 0.5 for 200 x 20 across 20 seeds
        for seed in range(20):
            G = gaussian_matrix(200, 20, seed)
            delta1 = np.abs(np.linalg.norm(G, axis=0) ** 2 - 1.0).max()
            assert delta1 <= 1e-12
            assert rip_constant_exact(G, 2).delta < 0.5


class TestSubsampledDft:
    def test_full_dft_is_unitary(self):
        F = subsampled_dft(8, 8, 0)
        np.testing.assert_allclose(F.conj().T @ F, np.eye(8), atol=1e-12)
        for order in (1, 2, 3):
            assert rip_constant_exact(F, order).delta <= 1e-12

    def test_unit_columns_any_subsampling(self):
        for seed in range(5):
            F = subsampled_dft(5, 12, seed)
            np.testing.assert_allclose(np.linalg.norm(F, axis=0), 1.0, atol=1e-12)

    def test_determinism_and_distinct_rows(self):
        F1 = subsampled_dft(4, 16, 77)
        F2 = subsampled_dft(4, 16, 77)
        np.testing.assert_array_equal(F1, F2)
        # first column of the DFT is constant 1/sqrt(m); row identity is
        # visible in column 1 phases
        phases = np.angle(F1[:, 1])
        assert len(np.unique(np.round(phases, 12))) == 4

    def test_delta2_matches_pair_oracle(self):
        F = subsampled_dft(4, 8, 5)
        want = max(
            pair_gram_deviation(F, i, j) for i, j in itertools.combinations(range(8), 2)
        )
        got = rip_constant_exact(F, 2).delta
        assert abs(got - want) <= 1e-12

    def test_m_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            subsampled_dft(9, 8, 0)

    # n = 1030 needs a matrix of 1030^2 entries, past the cap
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (5, 12), (50, 200), (7, 333), (3, 1030)])
    def test_bit_equal_to_direct_formula(self, m, n):
        assert (n * n > DFT_CACHE_MAX_ENTRIES) == (n == 1030)
        for seed in range(10):
            rows = np.sort(as_rng(seed).choice(n, size=m, replace=False))
            want = np.exp(np.outer(rows, np.arange(n)) * (-2j * np.pi / n)) / math.sqrt(m)
            F = subsampled_dft(m, n, seed)
            assert F.dtype == want.dtype and F.tobytes() == want.tobytes()
            F[:] = 0  # a draw is the caller's own array, not a view of the cache
            assert subsampled_dft(m, n, seed).tobytes() == want.tobytes()


    def test_dft_table_keyed_by_n_and_m(self):
        # one read-only table per (n, m), already scaled by 1/sqrt(m)
        k = np.arange(32)
        F = np.exp(np.outer(k, k) * (-2j * np.pi / 32))
        for m in (16, 4, 9):
            table = ensembles._dft_table(32, m)
            assert table is ensembles._dft_table(32, m) and not table.flags.writeable
            assert table.tobytes() == (F / math.sqrt(m)).tobytes()
        assert ensembles._dft_table(32, 16) is not ensembles._dft_table(32, 4)
        assert ensembles._dft_table(32, 4) is not ensembles._dft_table(16, 4)


class TestRestrictColumns:
    def test_keep_all(self):
        B = gaussian_matrix(4, 3, 2)
        np.testing.assert_array_equal(restrict_columns(B, range(3)), B)

    def test_keep_first(self):
        B = gaussian_matrix(4, 3, 2)
        out = restrict_columns(B, {0})
        assert out.shape == (4, 1)
        np.testing.assert_array_equal(out[:, 0], B[:, 0])

    def test_short_delay_spread_shape(self):
        B = subsampled_dft(50, 200, 3)
        out = restrict_columns(B, range(10))
        assert out.shape == (50, 10)
        np.testing.assert_array_equal(out, B[:, :10])

    def test_duplicate_and_out_of_range(self):
        B = gaussian_matrix(4, 3, 2)
        with pytest.raises(ValueError):
            restrict_columns(B, [0, 0])
        with pytest.raises(IndexError):
            restrict_columns(B, [0, 3])
