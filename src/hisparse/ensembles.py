"""Random measurement ensembles and the seeding scheme.

All randomness in the package flows through numpy Generators derived from a
64-bit master seed by a counter-based split: the stream for a given purpose
is seeded with SeedSequence(entropy=master_seed, spawn_key=stream_ids),
where stream_ids is a tuple of small non-negative integers naming the cell,
trial and role.  Identical (seed, stream) pairs always produce identical
draws, and distinct streams are independent, so trials can run in any order
or in parallel without changing results.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# The n x n DFT matrix is cached only while it holds at most this many
# entries (16 MiB at complex128); larger n evaluate the entries they need.
DFT_CACHE_MAX_ENTRIES = 1 << 20


def zigzag(v: int) -> int:
    """Map a signed int to a non-negative one (0,-1,1,-2,... -> 0,1,2,3,...)."""
    v = int(v)
    return (v << 1) if v >= 0 else ((-v) << 1) - 1


def spawn_seedseq(master_seed: int, *stream_ids: int) -> np.random.SeedSequence:
    """SeedSequence for one named stream under the master seed."""
    key = tuple(zigzag(i) for i in stream_ids)
    return np.random.SeedSequence(entropy=zigzag(master_seed), spawn_key=key)


def stream_fingerprint(master_seed: int, *stream_ids: int) -> int:
    """Stable 64-bit identifier of a stream (recorded as the trial seed)."""
    words = spawn_seedseq(master_seed, *stream_ids).generate_state(2, np.uint32)
    return int(words[0]) | (int(words[1]) << 32)


def as_rng(seed) -> np.random.Generator:
    """Accept an int, SeedSequence or Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. standard complex Gaussian: real and imaginary parts are
    independent N(0, 1/2), so E|z|^2 = 1."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def gaussian_matrix(rows: int, cols: int, seed) -> np.ndarray:
    """Complex Gaussian matrix with every column rescaled to unit 2-norm.

    Entries are drawn i.i.d. complex Gaussian; the normalization makes the
    restricted-isometry constants scale-free and usually small for
    rows >> cols.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    rng = as_rng(seed)
    mat = complex_gaussian(rng, (rows, cols))
    mat /= np.linalg.norm(mat, axis=0, keepdims=True)
    return mat


def _dft_phases(rows, cols, n: int) -> np.ndarray:
    """exp(-2*pi*i*r*k/n) for the integer arrays rows and cols broadcast
    together: the entries (r, k) of the unscaled n x n DFT."""
    return np.exp(rows * cols * (-2j * np.pi / n))


@functools.lru_cache(maxsize=4)
def _dft_matrix(n: int) -> np.ndarray:
    """The read-only unscaled n x n DFT matrix."""
    k = np.arange(n)
    F = _dft_phases(k[:, None], k, n)
    F.flags.writeable = False
    return F


def dft_entries(rows, cols, n: int) -> np.ndarray:
    """A new array of the entries (r, k) of the unscaled n x n DFT, for the
    integer arrays rows and cols broadcast together.

    They are read from the DFT matrix, which is cached for the last few n
    and costs 16*n^2 bytes per cached n (625 KiB at n = 200).  Past
    DFT_CACHE_MAX_ENTRIES entries (n > 1024) they are evaluated.  Both
    evaluate exp of the same float phase r*k*(-2*pi*i/n), so they are
    bit-identical."""
    if n * n <= DFT_CACHE_MAX_ENTRIES:
        return _dft_matrix(n)[rows, cols]
    return _dft_phases(rows, cols, n)


def dft_rows(m: int, n: int, seed) -> np.ndarray:
    """m distinct rows of the n x n DFT, drawn uniformly without
    replacement, in ascending order: the random part of subsampled_dft."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = as_rng(seed)
    return np.sort(rng.choice(n, size=m, replace=False))


def dft_block(rows: np.ndarray, n: int, width: int) -> np.ndarray:
    """The given rows of the n x n DFT on its first `width` columns, scaled
    by 1/sqrt(m) for m = len(rows): entry (r, k) is
    exp(-2*pi*i*rows[r]*k/n)/sqrt(m)."""
    if n * n <= DFT_CACHE_MAX_ENTRIES:
        F = _dft_matrix(n)[rows, :width]  # a row take, cheaper than dft_entries' gather
    else:
        F = _dft_phases(rows[:, None], np.arange(width), n)
    F /= math.sqrt(len(rows))
    return F


def subsampled_dft(m: int, n: int, seed) -> np.ndarray:
    """m distinct rows of the n x n DFT, scaled by 1/sqrt(m).

    Rows are drawn uniformly without replacement (dft_rows) and kept in
    ascending order; entry (r, k) is exp(-2*pi*i*row_r*k/n)/sqrt(m), so
    every column has unit 2-norm.
    """
    return dft_block(dft_rows(m, n, seed), n, n)


def restrict_columns(B: np.ndarray, keep) -> np.ndarray:
    """Submatrix of the kept columns, in ascending column order.

    Models prior knowledge of a short delay spread: a block whose support
    lives in its first w coordinates is measured by B restricted to those
    columns.
    """
    B = np.asarray(B)
    idx = sorted(int(c) for c in keep)
    if len(idx) != len(set(idx)):
        raise ValueError("column indices must be distinct")
    if idx and (idx[0] < 0 or idx[-1] >= B.shape[1]):
        raise IndexError(f"column index out of range for {B.shape[1]} columns")
    return B[:, idx].copy()
