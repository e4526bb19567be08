"""Random measurement ensembles and the seeding scheme.

All randomness in the package flows through numpy Generators derived from a
64-bit master seed by a counter-based split: the stream for a given purpose
is SeedSequence(entropy=zigzag(master_seed), spawn_key=zigzag(stream_ids)),
where stream_ids is a tuple of integers naming the cell, trial and role.
Identical (seed, stream) pairs always produce identical draws, and distinct
streams are independent, so trials can run in any order or in parallel
without changing results.

spawn_seedseq hands numpy the entropy words it would assemble from that
pair (stream_words), which spares the per-int conversion of its Python
code; the words, and so every draw, are the same.  dft_rows keeps numpy's
shuffle in choice: subsampled_dft draws from a Generator its caller may
draw from again, so skipping the shuffle would change later draws.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import as_int

# The scaled n x n DFT matrix is cached only while it holds at most this
# many entries (16 MiB at complex128); larger n evaluate the entries they
# need.
DFT_CACHE_MAX_ENTRIES = 1 << 20


# numpy's SeedSequence pool size in 32-bit words: the entropy of a stream
# with a spawn key is zero-padded to it
_POOL_WORDS = 4
_WORD = 0xFFFFFFFF


def zigzag(v: int) -> int:
    """Map a signed int to a non-negative one (0,-1,1,-2,... -> 0,1,2,3,...);
    TypeError for a bool or a non-integral value."""
    if type(v) is not int:  # the common case skips the checks
        v = as_int(v, "seeds and stream ids")
    return (v << 1) if v >= 0 else ((-v) << 1) - 1


def _append_words(words: list, v: int) -> None:
    """Append numpy's uint32 words of the non-negative int v, least
    significant first (one 0 word for 0)."""
    words.append(v & _WORD)
    while v > _WORD:
        v >>= 32
        words.append(v & _WORD)


def stream_words(master_seed: int, *stream_ids: int) -> np.ndarray:
    """The uint32 entropy words numpy assembles for
    SeedSequence(entropy=zigzag(master_seed), spawn_key=zigzag(stream_ids)):
    the seed's words, zero-padded to the pool size when a key follows, then
    each id's words."""
    words = []
    _append_words(words, zigzag(master_seed))
    if stream_ids:
        words += [0] * (_POOL_WORDS - len(words))
        for i in stream_ids:
            _append_words(words, zigzag(i))
    return np.array(words, dtype=np.uint32)


def spawn_seedseq(master_seed: int, *stream_ids: int) -> np.random.SeedSequence:
    """SeedSequence for one named stream under the master seed; its state
    and spawned children are SeedSequence(entropy=zigzag(master_seed),
    spawn_key=zigzag(stream_ids))'s."""
    return np.random.SeedSequence(stream_words(master_seed, *stream_ids))


def spawn_seedseqs(master_seed: int, *stream_ids: int, count: int) -> list:
    """[spawn_seedseq(master_seed, *stream_ids, i) for i in range(count)],
    from one word table: the streams share every word but the last,
    zigzag(i) = 2i, which is one word for count <= 2**31."""
    if not 0 <= count <= 1 << 31:
        raise ValueError(f"need 0 <= count <= 2**31, got {count}")
    table = np.tile(stream_words(master_seed, *stream_ids, 0), (count, 1))
    table[:, -1] = np.arange(0, 2 * count, 2, dtype=np.uint32)
    return [np.random.SeedSequence(words) for words in table]


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
    phases = rows * cols * (-2j * np.pi / n)
    # in place: the phases and their exp are never both alive
    return np.exp(phases, out=phases)


# entries per row block of the DFT table's build: at most this many phases
# are alive beside the table
_TABLE_BLOCK_ENTRIES = 1 << 16


@functools.lru_cache(maxsize=4)
def _dft_table(n: int, m: int) -> np.ndarray:
    """The read-only n x n DFT matrix scaled by 1/sqrt(m), the scale of an
    m-row draw.  It is filled in row blocks, so no n x n temporary sits
    beside it."""
    k = np.arange(n)
    F = np.empty((n, n), dtype=np.complex128)
    step = max(1, _TABLE_BLOCK_ENTRIES // n)
    for lo in range(0, n, step):
        np.divide(_dft_phases(k[lo : lo + step, None], k, n), math.sqrt(m),
                  out=F[lo : lo + step])
    F.flags.writeable = False
    return F


def dft_entries(rows, cols, n: int, m: int) -> np.ndarray:
    """A new array of the entries (r, k) of the n x n DFT scaled by
    1/sqrt(m), for the integer arrays rows and cols broadcast together.

    They are read from the scaled DFT matrix, which is cached for the last
    few (n, m) and costs 16*n^2 bytes per cached pair (625 KiB at n = 200).
    Past DFT_CACHE_MAX_ENTRIES entries (n > 1024) they are evaluated and
    then divided by sqrt(m).  Both evaluate exp of the same float phase
    r*k*(-2*pi*i/n) and divide that value by the same sqrt(m), so they are
    bit-identical."""
    if n * n <= DFT_CACHE_MAX_ENTRIES:
        return _dft_table(n, m)[rows, cols]
    F = _dft_phases(rows, cols, n)
    F /= math.sqrt(m)
    return F


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
    m = len(rows)
    if n * n <= DFT_CACHE_MAX_ENTRIES:
        return _dft_table(n, m)[rows, :width]  # a row take, cheaper than dft_entries' gather
    return dft_entries(rows[:, None], np.arange(width), n, m)


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
