"""Block-partitioned complex vectors, hierarchical sparsity budgets and the
hierarchical thresholding (best hi-sparse approximation) operator.

A signal of total dimension sum(n_i) is split into N contiguous blocks of
lengths n_1..n_N.  A vector is (s, sigma)-sparse when at most s blocks hold
nonzero entries and block i holds at most sigma_i of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, as_int


@dataclass(frozen=True)
class BlockStructure:
    """Partition of a flat coefficient buffer into contiguous blocks.

    block_sizes holds (n_1, ..., n_N); block i occupies the half-open index
    range [offset(i), offset(i) + n_i) of the flat buffer.  The read-only
    intp arrays starts (offset(i) per block) and owner (the block of each
    global coordinate) are made once; split is the one global -> (block,
    local) conversion.
    """

    block_sizes: tuple[int, ...]
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    owner: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(as_int(n, "block sizes") for n in self.block_sizes)
        if not sizes:
            raise ValueError("a block structure needs at least one block")
        if any(n < 1 for n in sizes):
            raise ValueError(f"block sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)
        starts = np.cumsum((0,) + sizes[:-1], dtype=np.intp)
        owner = np.arange(len(sizes), dtype=np.intp).repeat(sizes)
        starts.flags.writeable = owner.flags.writeable = False
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "owner", owner)

    def __reduce__(self):
        # pickled as its sizes: the copy builds its own read-only arrays
        return type(self), (self.block_sizes,)

    @classmethod
    def uniform(cls, num_blocks: int, block_len: int) -> "BlockStructure":
        return cls((block_len,) * num_blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def total_dim(self) -> int:
        return self.owner.size

    def offset(self, i: int) -> int:
        return self.starts.item(i)

    def block_slice(self, i: int) -> slice:
        lo = self.starts.item(i)
        return slice(lo, lo + self.block_sizes[i])

    def split(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The owner block and the local index of each in-range global
        coordinate in cols (an intp array)."""
        owner = self.owner[cols]
        return owner, cols - self.starts[owner]


@dataclass(frozen=True)
class HiSparsity:
    """Sparsity budget pair: s active blocks, sigma_i nonzeros inside block i."""

    s: int
    sigma: tuple[int, ...]

    def __post_init__(self):
        sig = tuple(as_int(v, "sparsity budgets") for v in self.sigma)
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "s", as_int(self.s, "sparsity budgets"))
        if not 1 <= self.s <= len(sig):
            raise ValueError(f"need 1 <= s <= N, got s={self.s}, N={len(sig)}")
        if any(v < 0 for v in sig):
            raise ValueError(f"within-block budgets must be >= 0, got {sig}")

    @classmethod
    def uniform(cls, s: int, sigma: int, num_blocks: int) -> "HiSparsity":
        return cls(s, (sigma,) * num_blocks)

    def validate_for(self, structure: BlockStructure) -> None:
        if len(self.sigma) != structure.num_blocks:
            raise DimensionError(
                f"sparsity has {len(self.sigma)} blocks, structure has "
                f"{structure.num_blocks}"
            )
        for i, (sig, n) in enumerate(zip(self.sigma, structure.block_sizes)):
            if sig > n:
                raise ValueError(f"sigma_{i}={sig} exceeds block size {n}")


@dataclass(eq=False)
class BlockVector:
    """A complex coefficient vector carrying its block structure.

    The coefficient buffer is one flat complex128 array; blocks are views
    into it.
    """

    structure: BlockStructure
    coeffs: np.ndarray

    def __post_init__(self):
        buf = np.asarray(self.coeffs, dtype=np.complex128)
        if buf.ndim != 1:
            buf = buf.reshape(-1)
        if buf.shape[0] != self.structure.total_dim:
            raise DimensionError(
                f"coefficient buffer has length {buf.shape[0]}, structure "
                f"expects {self.structure.total_dim}"
            )
        self.coeffs = buf

    @classmethod
    def zeros(cls, structure: BlockStructure) -> "BlockVector":
        return cls(structure, np.zeros(structure.total_dim, dtype=np.complex128))

    def block(self, i: int) -> np.ndarray:
        """View of block i (no copy)."""
        return self.coeffs[self.structure.block_slice(i)]

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _indices(values, bound: int, what: str) -> np.ndarray:
    """values as a flat intp array: TypeError unless they are integers (a
    float or a bool must not stand for its integer twin), IndexError unless
    they lie in [0, bound)."""
    idx = np.asarray(values)
    if idx.size and idx.dtype.kind not in "iu":
        raise TypeError(f"{what} must be integers, got {idx.dtype} values")
    idx = idx.astype(np.intp, copy=False).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise IndexError(f"{what} must lie in [0, {bound})")
    return idx


@dataclass(frozen=True, eq=False)
class HiSupport:
    """A hierarchical support pattern on a block structure: which blocks,
    and which global columns inside them.

    columns is a read-only intp array of ascending, distinct, in-range
    global coordinates; active_blocks is ascending and holds the blocks
    owning them plus any idle blocks, active with no columns (the sigma_i
    = 0 winners of hi_threshold).  Columns are listed even when the vector
    value there is exactly zero, so the support cardinality produced by
    thresholding is deterministic.

    The constructor trusts these invariants, which hi_threshold and
    hirip_constant_exact hold by construction; of_columns, of_entries and
    of_nonzeros check theirs.  Supports are equal when their structures,
    active blocks and columns are; the hash reads the last two.
    """

    structure: BlockStructure
    columns: np.ndarray
    active_blocks: tuple[int, ...]

    def __post_init__(self):
        self.columns.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, HiSupport):
            return NotImplemented
        return (self.active_blocks == other.active_blocks and self.structure == other.structure
                and np.array_equal(self.columns, other.columns))

    def __hash__(self) -> int:
        return hash((self.active_blocks, self.columns.tobytes()))

    @classmethod
    def of_columns(cls, structure: BlockStructure, cols, idle=()) -> "HiSupport":
        """The support holding the distinct global coordinates cols, with
        the blocks in idle active too (with no columns unless they own
        some of cols).  TypeError for a non-integer index, IndexError for
        one out of range, ValueError for a repeated column."""
        cols = np.sort(_indices(cols, structure.total_dim, "column indices"))
        if (cols[1:] == cols[:-1]).any():
            raise ValueError("duplicate column index")
        idle = _indices(idle, structure.num_blocks, "block indices").tolist()
        blocks = set(structure.owner[cols].tolist()).union(idle)
        return cls(structure, cols, tuple(sorted(blocks)))

    @classmethod
    def of_entries(cls, structure: BlockStructure, entries) -> "HiSupport":
        """The support holding, in each block b keyed in entries, the
        distinct local coordinates entries[b]; a block keyed with none is
        active and idle.  The refusals of of_columns, and ValueError for a
        repeated coordinate."""
        blocks = _indices(list(entries), structure.num_blocks, "block indices").tolist()
        cols = [np.zeros(0, dtype=np.intp)]
        for b, local in zip(blocks, entries.values()):
            local = _indices(local, structure.block_sizes[b], f"coordinates of block {b}")
            if len(set(local.tolist())) < local.size:
                raise ValueError(f"duplicate coordinate index in block {b}")
            cols.append(structure.offset(b) + local)
        return cls.of_columns(structure, np.concatenate(cols), blocks)

    @classmethod
    def of_nonzeros(cls, x: BlockVector) -> "HiSupport":
        return cls.of_columns(x.structure, np.flatnonzero(x.coeffs))

    @property
    def entries(self) -> dict[int, tuple[int, ...]]:
        """Each active block -> its ascending local coordinates, as a new
        dict on every read."""
        owner, local = self.structure.split(self.columns)
        counts = np.bincount(owner, minlength=self.structure.num_blocks).tolist()
        local, lo = local.tolist(), 0
        # block b takes local[lo : lo + counts[b]], and lo moves past them
        return {b: tuple(local[lo : (lo := lo + counts[b])]) for b in self.active_blocks}


@functools.lru_cache(maxsize=16)
def _threshold_groups(structure: BlockStructure, sigma: tuple[int, ...]):
    """The blocks with sigma_i > 0 grouped by sigma_i.

    Returns (groups, slots).  groups[g - 1] is (sigma, block indices, (c, n)
    flat indices of the c blocks) for group g >= 1, in order of first
    appearance, with read-only arrays: n is the longest of the c blocks,
    and a shorter block's row is padded with total_dim, the slot that
    hi_threshold fills with -1.  slots[i] is block i's (group, row), and
    (0, 0) for a block with sigma_i = 0.  sigma is validated here, once
    per (structure, sigma); lru_cache keeps no exceptions."""
    HiSparsity(1, sigma).validate_for(structure)
    members: dict[int, list[int]] = {}
    for i, sig in enumerate(sigma):
        if sig:
            members.setdefault(sig, []).append(i)
    sizes = np.array(structure.block_sizes, dtype=np.intp)
    groups, slots = [], [(0, 0)] * structure.num_blocks
    for g, (sig, blocks) in enumerate(members.items(), start=1):
        idx = np.array(blocks, dtype=np.intp)
        local = np.arange(sizes[idx].max())
        flat = np.where(local < sizes[idx, None], structure.starts[idx, None] + local,
                        structure.total_dim)
        idx.flags.writeable = flat.flags.writeable = False
        groups.append((sig, idx, flat))
        for r, b in enumerate(blocks):
            slots[b] = (g, r)
    return tuple(groups), tuple(slots)


def hi_threshold(x: BlockVector, k: HiSparsity) -> tuple[BlockVector, HiSupport]:
    """Best (s, sigma)-sparse approximation of x in the 2-norm.

    Inside block i the sigma_i entries of largest magnitude are kept
    provisionally; blocks are scored by the squared 2-norm of their kept
    entries; the s top-scoring blocks survive and everything else is zeroed.
    Ties (equal magnitudes or equal scores) keep the lower index.
    Non-finite coefficients raise ValueError.

    The blocks sharing sigma_i are thresholded together as one (c, n)
    array of magnitudes, n the longest of them, with shorter rows padded
    by -1: below every magnitude, so no row keeps a pad.  One row-wise
    partition finds each row's sigma-th largest magnitude t, and a row
    keeps its entries above t plus, in index order, as many entries equal
    to t as fill sigma -- the first sigma of a stable descending sort.
    Scores are row sums of the kept squared magnitudes in ascending
    coordinate order, as a per-block loop would add them.  The support is
    the winners and their kept columns, ascending by construction.
    """
    st = x.structure
    scores, picked, slots = _block_scores(x, k)
    winners = np.sort(np.argsort(-scores, kind="stable")[: k.s]).tolist()
    cols = [picked[g][r] for g, r in map(slots.__getitem__, winners)]

    out = BlockVector.zeros(st)
    kept = np.concatenate(cols)  # ascending: winners are, and so is each row
    out.coeffs[kept] = x.coeffs[kept]
    return out, HiSupport(st, kept, tuple(winners))


def _block_scores(x: BlockVector, k: HiSparsity):
    """The in-block step of hi_threshold: (scores, picked, slots), with
    scores[i] block i's score, picked[g] the (c, sigma) global columns
    group g keeps in each of its blocks (picked[0] serves the blocks with
    sigma_i = 0) and slots from _threshold_groups."""
    st = x.structure
    groups, slots = _threshold_groups(st, k.sigma)
    if not np.isfinite(x.coeffs).all():
        raise ValueError("cannot threshold non-finite coefficients")
    # the magnitudes, and the pad slot at index total_dim
    mag = np.empty(st.total_dim + 1)
    np.abs(x.coeffs, out=mag[:-1])
    mag[-1] = -1.0
    scores = np.zeros(st.num_blocks)
    picked = [np.empty((1, 0), dtype=np.intp)]
    for sig, idx, flat in groups:
        rows = mag[flat]
        n = flat.shape[1]
        t = np.partition(rows, n - sig, axis=1)[:, n - sig, None]
        keep = rows >= t
        if np.count_nonzero(keep) > idx.size * sig:  # ties at t
            above = rows > t
            at = rows == t
            room = sig - np.count_nonzero(above, axis=1, keepdims=True)
            keep = above | (at & (np.cumsum(at, axis=1) <= room))
        pos = np.flatnonzero(keep)  # row-major: each row's kept entries ascending
        scores[idx] = np.sum(rows.reshape(-1)[pos].reshape(-1, sig) ** 2, axis=1)
        picked.append(flat.reshape(-1)[pos].reshape(-1, sig))
    return scores, picked, slots


def is_hi_sparse(x: BlockVector, k: HiSparsity) -> bool:
    """True iff at most s blocks are nonzero and block i has <= sigma_i nonzeros."""
    k.validate_for(x.structure)
    nnz = np.add.reduceat(x.coeffs != 0, x.structure.starts)
    return bool(np.count_nonzero(nnz) <= k.s and (nnz <= np.asarray(k.sigma)).all())


def block_norms(x: BlockVector) -> np.ndarray:
    """Per-block 2-norms as a float array of length N."""
    c = x.coeffs
    return np.sqrt(np.add.reduceat(c.real**2 + c.imag**2, x.structure.starts))
