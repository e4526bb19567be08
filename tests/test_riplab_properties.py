"""Property tests of the exact HiRIP engine: against the exhaustive oracle,
and pruned against unpruned enumeration."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hisparse.blocks import HiSparsity
from hisparse.operators import HierarchicalOperator, kronecker_operator
from hisparse.riplab import (
    _PRUNE_MIN,
    _norm_upper_bounds,
    _spectral_norm,
    _deviation_gram,
    _hierarchical_batches,
    _max_deviation,
    hierarchical_support_count,
    hirip_constant_exact,
)

from oracles import dense_by_entries, hirip_by_patterns, random_operator


@st.composite
def instances(draw):
    """A small operator with unit-norm columns (N <= 4, n_i <= 4) and an
    (s, sigma) budget with sigma_i in [0, n_i] and s <= N."""
    N = draw(st.integers(1, 4))
    sizes = tuple(draw(st.integers(1, 4)) for _ in range(N))
    sigma = tuple(draw(st.integers(0, n)) for n in sizes)
    s = draw(st.integers(1, N))
    M, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, Bs = random_operator(rng, M, N, m, sizes)
    A /= np.linalg.norm(A, axis=0, keepdims=True)
    Bs = tuple(B / np.linalg.norm(B, axis=0, keepdims=True) for B in Bs)
    return A, Bs, HiSparsity(s, sigma)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(instances())
def test_hirip_matches_exhaustive_oracle(instance):
    A, Bs, k = instance
    H = HierarchicalOperator(A, Bs)
    est = hirip_constant_exact(H, k)
    want, _, count = hirip_by_patterns(A, Bs, k)
    assert abs(est.delta - want) <= 1e-12
    assert est.supports_examined == count == hierarchical_support_count(H.structure, k)

    sup = est.argmax_support
    assert len(sup.active_blocks) == k.s
    assert all(len(sup.entries[b]) == k.sigma[b] for b in sup.active_blocks)
    sub = dense_by_entries(A, Bs)[:, sup.columns]
    attained = np.abs(np.linalg.eigvalsh(sub.conj().T @ sub) - 1.0).max() if sub.size else 0.0
    assert abs(attained - est.delta) <= 1e-12


@st.composite
def pruned_instances(draw):
    """An operator with 27 to 10,000 maximal supports (N in {3, 4}, s >= N - 1,
    n_i in [3, 5], 0 < sigma_i < n_i), so chunks of 4096 rows mostly exceed
    _PRUNE_MIN.  A Kronecker operator with an identity mixing matrix repeats
    every restricted Gram matrix bit for bit across block tuples, so its
    maximum is an exact tie."""
    N = draw(st.integers(3, 4))
    M, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "kronecker", "tied"]))
    if kind == "random":
        sizes = tuple(draw(st.integers(3, 5)) for _ in range(N))
        H = HierarchicalOperator(*random_operator(rng, M, N, m, sizes))
    else:
        A, (B,) = random_operator(rng, M, N, m, (draw(st.integers(3, 5)),))
        H = kronecker_operator(np.eye(N) if kind == "tied" else A, B)
    sigma = tuple(draw(st.integers(1, n - 1)) for n in H.structure.block_sizes)
    return H, HiSparsity(draw(st.integers(N - 1, N)), sigma)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(pruned_instances())
def test_pruning_changes_no_result(instance):
    H, k = instance
    gram = _deviation_gram(H.total_dim, H.gram)
    pruned = _max_deviation(gram, _hierarchical_batches(H.structure, k), 4096)
    whole = _max_deviation(gram, _hierarchical_batches(H.structure, k), _PRUNE_MIN)
    assert pruned[0] == whole[0]
    assert pruned[1].tolist() == whole[1].tolist()
    assert pruned[2] == whole[2] == hierarchical_support_count(H.structure, k)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    st.integers(0, 6),
    st.integers(1, 40),
    st.sampled_from(["dense", "rank-one", "diagonal"]),
    st.floats(1e-3, 1e3),
    st.integers(0, 2**32 - 1),
)
def test_batch_last_upper_bound_holds(width, batch, kind, scale, seed):
    """The Gershgorin/Frobenius bound of a (width, width, batch) magnitude
    stack is at least the spectral norm of every Hermitian matrix in it, less
    the pruning's roundoff margin.  Diagonal matrices make Gershgorin tight,
    rank-one ones Frobenius."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((batch, width, width)) + 1j * rng.standard_normal((batch, width, width))
    if kind == "dense":
        M = X + X.conj().transpose(0, 2, 1)
    elif kind == "rank-one":
        M = X[:, :, :1] * X[:, :, :1].conj().transpose(0, 2, 1)
    else:
        M = X.real * np.eye(width)
    M *= scale
    exact = _spectral_norm(M)
    upper = _norm_upper_bounds(np.ascontiguousarray(np.abs(M).transpose(1, 2, 0)))
    assert upper.shape == (batch,)
    assert np.all(upper >= exact - 1e-12 * (1.0 + exact))
