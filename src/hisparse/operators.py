"""Hierarchical measurement operators.

An operator is defined by a mixing matrix A (M x N) and per-block matrices
B_i (m x n_i); it maps a block vector x = (x_1, ..., x_N) to the length M*m
measurement

    y[j*m : (j+1)*m] = sum_i A[j, i] * (B_i @ x_i),    j = 0..M-1,

i.e. the antenna index j is the outer (slow) index of the output.  Dense
matrices are plain complex128 numpy arrays throughout.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockStructure, BlockVector
from .errors import DimensionError


def _as_matrix(a) -> np.ndarray:
    """a as a complex128 matrix; ValueError unless it is 2-D and finite."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(eq=False)
class HierarchicalOperator:
    """The pair (A, {B_i}) with action H(x) = sum_i a_i kron (B_i x_i)."""

    A: np.ndarray
    Bs: tuple[np.ndarray, ...]
    _structure: BlockStructure = field(init=False, repr=False)

    def __post_init__(self):
        self.A = _as_matrix(self.A)
        self.Bs = tuple(_as_matrix(B) for B in self.Bs)
        self._check_shapes()

    def _check_shapes(self) -> None:
        if len(self.Bs) != self.A.shape[1]:
            raise DimensionError(
                f"A has {self.A.shape[1]} columns but {len(self.Bs)} block "
                "matrices were given"
            )
        rows = {B.shape[0] for B in self.Bs}
        if len(rows) != 1:
            raise DimensionError(f"all B_i must share one row count, got {sorted(rows)}")
        self._structure = BlockStructure(tuple(B.shape[1] for B in self.Bs))

    def _with_blocks(self, Bs) -> "HierarchicalOperator":
        """The operator on this A with block matrices Bs, each one of this
        operator's B_i or a column subset of one: they are complex128, 2-D
        and finite already, so they are not scanned again."""
        H = copy.copy(self)
        H.Bs = tuple(Bs)
        H._check_shapes()
        return H

    @property
    def num_antennas(self) -> int:  # M
        return self.A.shape[0]

    @property
    def num_blocks(self) -> int:  # N
        return self.A.shape[1]

    @property
    def inner_rows(self) -> int:  # m
        return self.Bs[0].shape[0]

    @property
    def structure(self) -> BlockStructure:
        return self._structure

    @property
    def out_dim(self) -> int:
        return self.num_antennas * self.inner_rows

    @property
    def total_dim(self) -> int:
        return self._structure.total_dim

    def apply(self, x: BlockVector) -> np.ndarray:
        """Forward measurement; returns a length M*m complex vector.

        All-zero blocks are skipped: their rows of the inner products stay
        zero, exactly what B_i @ 0 gives."""
        if x.structure != self._structure:
            raise DimensionError("input block structure does not match the operator")
        z = np.zeros((self.num_blocks, self.inner_rows), dtype=np.complex128)
        nonzero = np.logical_or.reduceat(x.coeffs != 0, self._structure.starts)
        for i in np.flatnonzero(nonzero):
            np.matmul(self.Bs[i], x.block(i), out=z[i])
        return (self.A @ z).reshape(-1)

    def adjoint_apply(self, y: np.ndarray) -> BlockVector:
        """Adjoint H* y; block i is sum_j conj(A[j,i]) * (B_i^* y_j).

        B_i^* w_i is computed as conj(conj(w_i) @ B_i), so no conjugated
        copy of B_i is made; the products land in the output buffer."""
        y = np.asarray(y, dtype=np.complex128).reshape(-1)
        if y.shape[0] != self.out_dim:
            raise DimensionError(
                f"measurement has length {y.shape[0]}, operator expects {self.out_dim}"
            )
        ym = y.reshape(self.num_antennas, self.inner_rows)
        # conj of the (N, m) antenna mix; row i is for block i
        w = np.conj(self.A.conj().T @ ym)
        out = BlockVector.zeros(self._structure)
        for i, B in enumerate(self.Bs):
            np.matmul(w[i], B, out=out.block(i))
        np.conj(out.coeffs, out=out.coeffs)
        return out

    @functools.cached_property
    def _mixing_gram(self) -> np.ndarray:
        """A^* A, N x N."""
        return self.A.conj().T @ self.A

    def _gather(self, cols) -> tuple[np.ndarray, np.ndarray]:
        """The inner columns of the given sorted, in-range global columns
        (all of them when cols is None): the m x len(cols) stack of the
        columns B_b[:, c], and the block b owning each."""
        st = self._structure
        if cols is None:
            return np.concatenate(self.Bs, axis=1), st.owner
        owner, local, runs = st.runs(np.asarray(cols, dtype=np.intp))
        parts = [self.Bs[owner[lo]][:, local[lo:hi]] for lo, hi in runs]
        parts = parts or [np.empty((self.inner_rows, 0), dtype=np.complex128)]
        return np.concatenate(parts, axis=1), owner

    def gram(self, cols=None) -> np.ndarray:
        """Gram matrix of the given sorted, in-range global columns (all
        total_dim of them when cols is None), i.e. H^* H restricted to
        them: the entry of columns c in block b and c' in block b' is
        (A^*A)[b, b'] * (B_b^* B_b')[c, c'].

        Built in O(m len(cols)^2) from A^*A and the Gram matrix of the
        m-row stack of the selected B columns, without assembling the
        (M*m) x len(cols) dense matrix."""
        inner, owner = self._gather(cols)
        gram = inner.conj().T @ inner
        gram *= self._mixing_gram[np.ix_(owner, owner)]
        return gram

    def dense_columns(self, cols: np.ndarray) -> np.ndarray:
        """Dense (M*m) x len(cols) matrix of the given sorted, in-range
        global columns: column c of block b is kron(a_b, B_b[:, c]).

        The inner columns are multiplied by their mixing columns into one
        (M, m, len(cols)) buffer, so every entry is the single product
        A[j, b] * B_b[r, c], exactly as in kron.
        """
        inner, owner = self._gather(cols)
        out = np.empty((self.num_antennas, self.inner_rows, inner.shape[1]), dtype=np.complex128)
        np.multiply(self.A[:, None, owner], inner, out=out)
        return out.reshape(self.out_dim, inner.shape[1])


def kronecker_operator(A, B) -> HierarchicalOperator:
    """The constant-block special case: every B_i is the same matrix B,
    so the dense action is the Kronecker product A kron B."""
    A = _as_matrix(A)
    B = _as_matrix(B)
    return HierarchicalOperator(A, (B,) * A.shape[1])

