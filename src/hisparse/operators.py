"""Hierarchical measurement operators.

An operator is defined by a mixing matrix A (M x N) and per-block matrices
B_i (m x n_i); it maps a block vector x = (x_1, ..., x_N) to the length M*m
measurement

    y[j*m : (j+1)*m] = sum_i A[j, i] * (B_i @ x_i),    j = 0..M-1,

i.e. the antenna index j is the outer (slow) index of the output.  A and
the B_i are complex128 numpy arrays, except in the matrix-free form that
dft_operator gives blocks of subsampled-DFT rows of one length: it keeps
only the rows of each block, applies its adjoint by one batched inverse
FFT, reads the DFT entries a column gather needs, and makes the dense B_i
only when they are asked for.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .blocks import BlockStructure, BlockVector
from .ensembles import dft_block, dft_entries
from .errors import DimensionError

def _as_matrix(a) -> np.ndarray:
    """a as a complex128 matrix; ValueError unless it is 2-D and finite."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


class HierarchicalOperator:
    """The pair (A, {B_i}) with action H(x) = sum_i a_i kron (B_i x_i)."""

    def __init__(self, A, Bs):
        self.A = _as_matrix(A)
        # one check per distinct B; the tuple keeps each alive, so no id is reused
        Bs = tuple(Bs)
        distinct = {id(B): B for B in Bs}
        checked = {key: _as_matrix(B) for key, B in distinct.items()}
        self.Bs = tuple(checked[id(B)] for B in Bs)
        if len(self.Bs) != self.A.shape[1]:
            raise DimensionError(
                f"A has {self.A.shape[1]} columns but {len(self.Bs)} block "
                "matrices were given"
            )
        rows = {B.shape[0] for B in self.Bs}
        if len(rows) != 1:
            raise DimensionError(f"all B_i must share one row count, got {sorted(rows)}")
        self.structure = BlockStructure(tuple(B.shape[1] for B in self.Bs))
        self.inner_rows = rows.pop()  # m

    def window(self, structure: BlockStructure) -> "HierarchicalOperator":
        """The operator on the first structure.block_sizes[i] columns of
        each block i; self when every window is its whole block.  The
        matrix-free form keeps the given structure as its own."""
        if structure == self.structure:
            return self
        if structure.num_blocks != self.num_blocks:
            raise DimensionError(
                f"{structure.num_blocks} windows given for {self.num_blocks} blocks"
            )
        if any(w > n for w, n in zip(structure.block_sizes, self.structure.block_sizes)):
            raise ValueError(
                f"a window is wider than its block: {structure.block_sizes} > "
                f"{self.structure.block_sizes}"
            )
        return self._window(structure)

    def _window(self, structure: BlockStructure) -> "HierarchicalOperator":
        """window for checked windows: the cut blocks, each made
        contiguous, through the checked constructor."""
        return HierarchicalOperator(
            self.A,
            [np.ascontiguousarray(B[:, :w]) for B, w in zip(self.Bs, structure.block_sizes)],
        )

    @property
    def num_antennas(self) -> int:  # M
        return self.A.shape[0]

    @property
    def num_blocks(self) -> int:  # N
        return self.A.shape[1]

    @property
    def out_dim(self) -> int:
        return self.num_antennas * self.inner_rows

    @property
    def total_dim(self) -> int:
        return self.structure.total_dim

    def apply(self, x: BlockVector) -> np.ndarray:
        """Forward measurement; returns a length M*m complex vector."""
        if x.structure != self.structure:
            raise DimensionError("input block structure does not match the operator")
        return self._forward(x)

    def _forward(self, x: BlockVector) -> np.ndarray:
        """apply for a checked x.  All-zero blocks are skipped: their rows
        of the inner products stay zero, exactly what B_i @ 0 gives."""
        z = np.zeros((self.num_blocks, self.inner_rows), dtype=np.complex128)
        nonzero = np.logical_or.reduceat(x.coeffs != 0, self.structure.starts)
        for i in np.flatnonzero(nonzero):
            np.matmul(self.Bs[i], x.block(i), out=z[i])
        return (self.A @ z).reshape(-1)

    def _apply_gathered(self, cols: np.ndarray, gathered, z: np.ndarray) -> np.ndarray:
        """apply of the vector holding z on the sorted, in-range global
        columns cols and zero elsewhere, given gathered = self._gather(cols),
        with apply's bits.  The dense blocks need no gather: z is scattered
        and applied block by block."""
        x = BlockVector.zeros(self.structure)
        x.coeffs[cols] = z
        return self._forward(x)

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
        out = BlockVector.zeros(self.structure)
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
        st = self.structure
        if cols is None:
            return np.concatenate(self.Bs, axis=1), st.owner
        owner, local = st.split(np.asarray(cols, dtype=np.intp))
        # block b's columns are local[lo:hi] between its bounds
        bounds = np.searchsorted(owner, np.arange(self.num_blocks + 1)).tolist()
        parts = [B[:, local[lo:hi]] for B, lo, hi in zip(self.Bs, bounds, bounds[1:]) if lo < hi]
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
        return self._gram(self._gather(cols))

    def _gram(self, gathered) -> np.ndarray:
        """gram from gathered = self._gather(cols)."""
        inner, owner = gathered
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
        return self._dense(self._gather(cols))

    def _dense(self, gathered) -> np.ndarray:
        """dense_columns from gathered = self._gather(cols)."""
        inner, owner = gathered
        out = np.empty((self.num_antennas, self.inner_rows, inner.shape[1]), dtype=np.complex128)
        np.multiply(self.A[:, None, owner], inner, out=out)
        return out.reshape(self.out_dim, inner.shape[1])


class _DFTOperator(HierarchicalOperator):
    """The matrix-free form of dft_operator: block i is rows[i] of the
    n x n DFT, scaled by 1/sqrt(m), on its first structure.block_sizes[i]
    columns."""

    def __init__(self, A: np.ndarray, rows: np.ndarray, n: int, structure: BlockStructure):
        # HierarchicalOperator's checks are dft_operator's, already run on
        # these inputs; Bs is made on first use
        self.A, self.rows, self.n, self.structure = A, rows, n, structure
        self.inner_rows = rows.shape[1]
        # where row r of block i, and coordinate c of block i, sit in a
        # flat (N, n) array; no coordinate map when every window is its
        # full block, where the flat array is the coordinates in order
        self._row_pos = rows + n * np.arange(rows.shape[0])[:, None]
        self._coord_pos = None
        if structure.total_dim < rows.shape[0] * n:
            owner, local = structure.split(np.arange(structure.total_dim))
            self._coord_pos = owner * n + local

    @functools.cached_property
    def Bs(self) -> tuple[np.ndarray, ...]:
        """The dense blocks, made on first use; bit-identical to
        subsampled_dft's draw of the same rows, cut to the window."""
        return tuple(
            dft_block(r, self.n, w) for r, w in zip(self.rows, self.structure.block_sizes)
        )

    def _forward(self, x: BlockVector) -> np.ndarray:
        """apply from the gathered nonzero columns."""
        cols = np.flatnonzero(x.coeffs)
        return self._apply_gathered(cols, self._gather(cols), x.coeffs[cols])

    def _apply_gathered(self, cols: np.ndarray, gathered, z: np.ndarray) -> np.ndarray:
        """The product of the gathered columns, scaled by their mixing
        columns, with z: the formula of _forward itself, which takes the
        nonzero columns only, so the bits are apply's when no value of z
        is exactly zero."""
        inner, owner = gathered
        return ((self.A[:, owner] * z) @ inner.T).reshape(-1)

    def _adjoint(self, w: np.ndarray) -> BlockVector:
        """Row i of w, scattered to block i's rows of a length-n vector z_i,
        gives B_i^* w_i = (n/sqrt(m)) ifft(z_i) on the window: one batched
        inverse FFT, in place, serves every block, and the windows are
        gathered from it unless every window is its full block."""
        z = np.zeros((self.num_blocks, self.n), dtype=np.complex128)
        z.reshape(-1)[self._row_pos] = w
        out = np.fft.ifft(z, axis=1, out=z).reshape(-1)
        if self._coord_pos is not None:
            out = out[self._coord_pos]
        out *= self.n / math.sqrt(self.inner_rows)
        return BlockVector(self.structure, out)

    def _window(self, structure: BlockStructure) -> "_DFTOperator":
        """The same rows on the checked windows: nothing is scanned again."""
        return _DFTOperator(self.A, self.rows, self.n, structure)

    def _gather(self, cols) -> tuple[np.ndarray, np.ndarray]:
        """As HierarchicalOperator._gather, read from the scaled DFT
        entries: the same bits as the dense B_b[:, c]."""
        st = self.structure
        cols = np.arange(st.total_dim) if cols is None else np.asarray(cols, dtype=np.intp)
        owner, local = st.split(cols)
        return dft_entries(self.rows[owner].T, local, self.n, self.inner_rows), owner


def dft_operator(A, rows, lengths) -> HierarchicalOperator:
    """The operator on the mixing matrix A whose block i is the rows rows[i]
    of the lengths[i]-point DFT, scaled by 1/sqrt(m): what subsampled_dft
    draws, given the rows dft_rows draws.  lengths is the block sizes or a
    BlockStructure.  When all lengths are one n, a given BlockStructure is
    kept as the operator's, so a caller that builds many operators builds
    it once; with mixed lengths the operator builds a new, equal one.
    H.window cuts the blocks to their first columns.

    rows is an N x m array of an integer dtype, each row ascending,
    distinct and in range.  When all lengths are one n the operator is
    matrix-free and no block is scanned for finiteness; with mixed lengths
    its blocks are made dense by dft_block and built through
    HierarchicalOperator's checks."""
    A = _as_matrix(A)
    rows = np.asarray(rows)
    if rows.dtype.kind not in "iu":
        raise TypeError(f"DFT rows must have an integer dtype, got {rows.dtype}")
    rows = rows.astype(np.intp, copy=False)
    structure = lengths if isinstance(lengths, BlockStructure) else BlockStructure(tuple(lengths))
    lengths = structure.block_sizes
    N = A.shape[1]
    if rows.ndim != 2 or rows.shape[0] != N or len(lengths) != N:
        raise DimensionError(f"need an {N} x m row array and {N} block lengths")
    if rows.shape[1] < 1 or (np.diff(rows, axis=1) <= 0).any() or rows[:, 0].min() < 0 \
            or (rows[:, -1] >= lengths).any():
        raise ValueError("the rows of each block must be ascending, distinct and in range")
    if len(set(lengths)) == 1:
        return _DFTOperator(A, rows, lengths[0], structure)
    return HierarchicalOperator(A, [dft_block(r, n, n) for r, n in zip(rows, lengths)])


def kronecker_operator(A, B) -> HierarchicalOperator:
    """The constant-block special case: every B_i is the same matrix B,
    so the dense action is the Kronecker product A kron B."""
    A = _as_matrix(A)
    return HierarchicalOperator(A, (B,) * A.shape[1])
