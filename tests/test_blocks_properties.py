"""Property tests of the block layer against per-block loops."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hisparse.blocks import (
    BlockStructure,
    BlockVector,
    HiSparsity,
    HiSupport,
    block_norms,
    hi_threshold,
    is_hi_sparse,
)

from oracles import best_hi_approx_residual, hi_threshold_by_blocks

# magnitudes drawn from a few levels make exact magnitude and score ties
# common; a sigma of 9 or more crosses numpy's 8-term summation unroll
LEVELS = (0.0, 1.0, 2.0, 0.5)


@st.composite
def block_vectors(draw, max_blocks=8, lengths=(1, 2, 3, 5, 10, 12)):
    """A vector over mixed block lengths (repeats make groups of equal
    (n_i, sigma_i)), a budget with sigma_i in [0, n_i], and coefficients
    that are either generic or built from a few magnitudes and phases."""
    N = draw(st.integers(1, max_blocks))
    sizes = tuple(draw(st.sampled_from(lengths)) for _ in range(N))
    sigma = tuple(draw(st.integers(0, n)) for n in sizes)
    s = draw(st.integers(1, N))
    total = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        coeffs = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    else:
        phases = np.exp(0.5j * np.pi * rng.integers(0, 4, total))
        coeffs = rng.choice(LEVELS, total) * phases
    return BlockVector(BlockStructure(sizes), coeffs), HiSparsity(s, sigma)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(block_vectors())
def test_grouped_threshold_matches_block_loop(case):
    x, k = case
    out, support = hi_threshold(x, k)
    want_out, want_support = hi_threshold_by_blocks(x, k)
    assert out.coeffs.tobytes() == want_out.coeffs.tobytes()
    assert support == want_support


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(block_vectors(max_blocks=4, lengths=(1, 2, 3, 4, 5)))
def test_threshold_is_best_approximation_on_mixed_blocks(case):
    # optimality against the exhaustive oracle, over every support pattern
    x, k = case
    out, _ = hi_threshold(x, k)
    res = np.linalg.norm(x.coeffs - out.coeffs)
    assert abs(res - best_hi_approx_residual(x, k)) <= 1e-12 * (1.0 + np.linalg.norm(x.coeffs))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(block_vectors(), st.booleans())
def test_threshold_support_is_the_canonical_one(case, every_block):
    # hi_threshold builds its support straight from the winners; it must be
    # the support _of_sorted builds from the same kept columns and idle
    # (sigma_i = 0) winners, and keep those columns for column_indices
    x, k = case
    if every_block:
        k = HiSparsity(len(k.sigma), k.sigma)  # s = N
    structure = x.structure
    _, support = hi_threshold(x, k)
    _, want = hi_threshold_by_blocks(x, k)
    kept = want.column_indices(structure)  # rebuilt: want is built by HiSupport(...)
    idle = [b for b in want.active_blocks if not k.sigma[b]]
    canonical = HiSupport._of_sorted(structure, kept.copy(), idle)
    assert support == canonical and hash(support) == hash(canonical)
    assert support.active_blocks == canonical.active_blocks
    assert list(support.entries.items()) == list(canonical.entries.items())

    cols = support.column_indices(structure)
    assert cols.dtype == np.intp and not cols.flags.writeable
    assert cols.tobytes() == kept.tobytes()
    # an equal but distinct structure takes the rebuild path
    twin = BlockStructure(structure.block_sizes)
    rebuilt = support.column_indices(twin)
    assert twin == structure and rebuilt is not cols
    assert rebuilt.tobytes() == kept.tobytes()
    # a structure the support does not fit is still refused
    last = support.active_blocks[-1]
    if last > 0:
        with pytest.raises(IndexError):
            support.column_indices(BlockStructure(structure.block_sizes[:last]))
    top = support.entries[last][-1] if support.entries[last] else 0
    if top > 0:
        sizes = list(structure.block_sizes)
        sizes[last] = top
        with pytest.raises(IndexError):
            support.column_indices(BlockStructure(tuple(sizes)))


def test_tied_scores_across_groups_keep_lower_blocks():
    # six blocks in two length groups, all scoring 4: blocks 0 and 1 win
    x = BlockVector.zeros(BlockStructure((3, 5, 3, 5, 3, 5)))
    for b in range(6):
        x.block(b)[-1] = 2.0
    k = HiSparsity(2, (1, 1, 1, 1, 1, 1))
    _, support = hi_threshold(x, k)
    assert support.active_blocks == (0, 1)
    assert support.entries == {0: (2,), 1: (4,)}


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(block_vectors())
def test_is_hi_sparse_and_norms_match_block_loop(case):
    x, k = case
    nnz = [np.count_nonzero(x.block(i)) for i in range(x.structure.num_blocks)]
    want = sum(v > 0 for v in nnz) <= k.s and all(v <= sig for v, sig in zip(nnz, k.sigma))
    assert is_hi_sparse(x, k) == want
    loop = [np.linalg.norm(x.block(i)) for i in range(x.structure.num_blocks)]
    # reduceat sums the squares in another order than the BLAS dot in norm
    np.testing.assert_allclose(block_norms(x), loop, rtol=4 * np.finfo(float).eps, atol=0)
