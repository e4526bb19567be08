"""Property tests of the operator's forward and adjoint actions on mixed
block lengths."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hisparse.blocks import BlockVector
from hisparse.operators import HierarchicalOperator

from oracles import dense_by_entries, random_operator


@st.composite
def operators(draw):
    """A generic operator with N <= 6 blocks of mixed lengths n_i <= 7, a
    block vector whose blocks are each zero or not, and a measurement."""
    N = draw(st.integers(1, 6))
    sizes = tuple(draw(st.integers(1, 7)) for _ in range(N))
    M, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = HierarchicalOperator(*random_operator(rng, M, N, m, sizes))
    zero = np.repeat(draw(st.lists(st.booleans(), min_size=N, max_size=N)), sizes)
    x = rng.standard_normal(H.total_dim) + 1j * rng.standard_normal(H.total_dim)
    x[zero] = 0
    y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
    return H, BlockVector(H.structure, x), y


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(operators())
def test_adjoint_identity(case):
    H, x, y = case
    lhs = np.vdot(y, H.apply(x))
    rhs = np.vdot(H.adjoint_apply(y).coeffs, x.coeffs)
    assert abs(lhs - rhs) <= 1e-12 * max(np.linalg.norm(x.coeffs) * np.linalg.norm(y), 1e-300)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(operators())
def test_apply_with_zero_blocks_matches_entrywise_oracle(case):
    H, x, y = case
    D = dense_by_entries(H.A, H.Bs)
    want = D @ x.coeffs
    assert np.linalg.norm(H.apply(x) - want) <= 1e-12 * max(np.linalg.norm(want), 1e-300)
    want_adj = D.conj().T @ y
    got_adj = H.adjoint_apply(y).coeffs
    assert np.linalg.norm(got_adj - want_adj) <= 1e-12 * np.linalg.norm(want_adj)
