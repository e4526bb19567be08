"""Hierarchical measurement operators.

An operator is defined by a mixing matrix A (M x N) and per-block matrices
B_i (m x n_i); it maps a block vector x = (x_1, ..., x_N) to the length M*m
measurement

    y[j*m : (j+1)*m] = sum_i A[j, i] * (B_i @ x_i),    j = 0..M-1,

i.e. the antenna index j is the outer (slow) index of the output.  A and
the B_i are complex128 numpy arrays, except in the matrix-free form that
dft_operator gives blocks of subsampled-DFT rows at m*n >= FFT_MIN_ENTRIES:
it keeps only the rows of each block, applies its adjoint by one batched
inverse FFT, reads the DFT entries a column gather needs, and makes the
dense B_i only when they are asked for.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockStructure, BlockVector
from .ensembles import dft_block, dft_entries
from .errors import DimensionError

# dft_operator is matrix-free from m*n = FFT_MIN_ENTRIES on: the paper
# grids (m*n = 5,000 and 10,000), where the FFT adjoint is 3-4x faster than
# the dense one.  The desk grid (512) stays dense, so its outputs keep their
# bits: the FFT rounds differently, and some desk recovery trials sit on a
# knife edge where a last-bit change can change an iteration count.
FFT_MIN_ENTRIES = 4096


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

    @classmethod
    def _of_checked(cls, A: np.ndarray, Bs, structure: BlockStructure) -> "HierarchicalOperator":
        """The operator on A and the block matrices Bs, which are
        complex128, 2-D, finite and of one row count already, with
        structure their column counts: nothing is scanned or checked."""
        H = object.__new__(cls)
        H.A, H.Bs, H._structure = A, tuple(Bs), structure
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
        """Forward measurement; returns a length M*m complex vector."""
        if x.structure != self._structure:
            raise DimensionError("input block structure does not match the operator")
        return self._forward(x)

    def _forward(self, x: BlockVector) -> np.ndarray:
        """apply for a checked x.  All-zero blocks are skipped: their rows
        of the inner products stay zero, exactly what B_i @ 0 gives."""
        z = np.zeros((self.num_blocks, self.inner_rows), dtype=np.complex128)
        nonzero = np.logical_or.reduceat(x.coeffs != 0, self._structure.starts)
        for i in np.flatnonzero(nonzero):
            np.matmul(self.Bs[i], x.block(i), out=z[i])
        return (self.A @ z).reshape(-1)

    def adjoint_apply(self, y: np.ndarray) -> BlockVector:
        """Adjoint H* y; block i is B_i^* w_i, where w_i = sum_j conj(A[j,i]) y_j
        is row i of the (N, m) antenna mix w = A^* Y."""
        y = np.asarray(y, dtype=np.complex128).reshape(-1)
        if y.shape[0] != self.out_dim:
            raise DimensionError(
                f"measurement has length {y.shape[0]}, operator expects {self.out_dim}"
            )
        return self._adjoint(self.A.conj().T @ y.reshape(self.num_antennas, self.inner_rows))

    def _adjoint(self, w: np.ndarray) -> BlockVector:
        """The blocks B_i^* w_i of adjoint_apply, each computed as
        conj(conj(w_i) @ B_i), so no conjugated copy of B_i is made; the
        products land in the output buffer."""
        np.conj(w, out=w)
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


class _DFTOperator(HierarchicalOperator):
    """The matrix-free form of dft_operator: block i is rows[i] of the
    n x n DFT, scaled by 1/sqrt(m), on its first structure.block_sizes[i]
    columns."""

    def __init__(self, A: np.ndarray, rows: np.ndarray, n: int, structure: BlockStructure):
        self.A, self.rows, self.n, self._structure = A, rows, n, structure
        # where row r of block i, and coordinate c of block i, sit in a
        # flat (N, n) array
        self._row_pos = rows + n * np.arange(rows.shape[0])[:, None]
        self._coord_pos = structure.owner * n + self._local(np.arange(structure.total_dim))

    def _local(self, cols: np.ndarray) -> np.ndarray:
        return cols - self._structure.starts[self._structure.owner[cols]]

    @functools.cached_property
    def Bs(self) -> tuple[np.ndarray, ...]:
        """The dense blocks, made on first use; bit-identical to
        subsampled_dft's draw of the same rows, cut to the window."""
        return tuple(
            dft_block(r, self.n, w) for r, w in zip(self.rows, self._structure.block_sizes)
        )

    @property
    def inner_rows(self) -> int:
        return self.rows.shape[1]

    def _forward(self, x: BlockVector) -> np.ndarray:
        """apply from the gathered nonzero columns."""
        cols = np.flatnonzero(x.coeffs)
        inner, owner = self._gather(cols)
        return ((self.A[:, owner] * x.coeffs[cols]) @ inner.T).reshape(-1)

    def _adjoint(self, w: np.ndarray) -> BlockVector:
        """Row i of w, scattered to block i's rows of a length-n vector z_i,
        gives B_i^* w_i = (n/sqrt(m)) ifft(z_i) on the window: one batched
        inverse FFT serves every block."""
        z = np.zeros((self.num_blocks, self.n), dtype=np.complex128)
        z.reshape(-1)[self._row_pos] = w
        out = np.fft.ifft(z, axis=1).reshape(-1)[self._coord_pos]
        out *= self.n / math.sqrt(self.inner_rows)
        return BlockVector(self._structure, out)

    def _gather(self, cols) -> tuple[np.ndarray, np.ndarray]:
        """As HierarchicalOperator._gather, from the DFT entries: the same
        bits as the dense B_b[:, c]."""
        st = self._structure
        cols = np.arange(st.total_dim) if cols is None else np.asarray(cols, dtype=np.intp)
        owner = st.owner[cols]
        inner = dft_entries(self.rows[owner].T, self._local(cols), self.n)
        inner /= math.sqrt(self.inner_rows)
        return inner, owner


def dft_operator(A, rows, lengths, widths=None) -> HierarchicalOperator:
    """The operator on the mixing matrix A whose block i is the rows rows[i]
    of the lengths[i]-point DFT, scaled by 1/sqrt(m), cut to its first
    widths[i] columns (all of them when widths is None): what subsampled_dft
    draws, given the rows dft_rows draws.

    rows is an N x m integer array, each row ascending, distinct and in
    range.  When all lengths are one n and m*n >= FFT_MIN_ENTRIES the
    operator is matrix-free; otherwise its blocks are made dense by
    dft_block.  Either way no block is scanned for finiteness."""
    A = _as_matrix(A)
    rows = np.asarray(rows, dtype=np.intp)
    lengths = tuple(int(n) for n in lengths)
    structure = BlockStructure(lengths if widths is None else widths)
    N = A.shape[1]
    if rows.ndim != 2 or rows.shape[0] != N or len(lengths) != N or structure.num_blocks != N:
        raise DimensionError(f"need an {N} x m row array and {N} block lengths and widths")
    if rows.shape[1] < 1 or (np.diff(rows, axis=1) <= 0).any() or rows[:, 0].min() < 0 \
            or (rows[:, -1] >= lengths).any():
        raise ValueError("the rows of each block must be ascending, distinct and in range")
    if any(w > n for w, n in zip(structure.block_sizes, lengths)):
        raise ValueError(f"a window is wider than its block: {structure.block_sizes} > {lengths}")
    if len(set(lengths)) == 1 and rows.shape[1] * lengths[0] >= FFT_MIN_ENTRIES:
        return _DFTOperator(A, rows, lengths[0], structure)
    return HierarchicalOperator._of_checked(
        A, (dft_block(r, n, w) for r, n, w in zip(rows, lengths, structure.block_sizes)),
        structure,
    )


def kronecker_operator(A, B) -> HierarchicalOperator:
    """The constant-block special case: every B_i is the same matrix B,
    so the dense action is the Kronecker product A kron B."""
    A = _as_matrix(A)
    B = _as_matrix(B)
    return HierarchicalOperator(A, (B,) * A.shape[1])
