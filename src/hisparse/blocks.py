"""Block-partitioned complex vectors, hierarchical sparsity budgets and the
hierarchical thresholding (best hi-sparse approximation) operator.

A signal of total dimension sum(n_i) is split into N contiguous blocks of
lengths n_1..n_N.  A vector is (s, sigma)-sparse when at most s blocks hold
nonzero entries and block i holds at most sigma_i of them.
"""

from __future__ import annotations

import functools
import itertools
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


@dataclass(frozen=True)
class HiSupport:
    """A hierarchical support pattern: which blocks, and which coordinates
    inside each of them.

    active_blocks is sorted; entries maps each active block to its sorted
    within-block coordinate tuple.  Coordinates are listed even when the
    vector value there is exactly zero, so the support cardinality produced
    by thresholding is deterministic.

    A support built by hi_threshold, of_columns or _of_sorted also keeps the
    read-only array of its ascending global columns and the BlockStructure
    they index, which column_indices returns for that same structure;
    validate_for does not re-check a support against it.  Equality and
    hashing look at active_blocks and entries only.
    """

    active_blocks: tuple[int, ...]
    entries: dict[int, tuple[int, ...]]
    _columns: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _columns_of: BlockStructure | None = field(default=None, init=False, repr=False,
                                               compare=False)

    def __post_init__(self):
        blocks = tuple(sorted(int(b) for b in self.active_blocks))
        ents = {int(b): tuple(sorted(int(c) for c in cols))
                for b, cols in self.entries.items()}
        if set(ents) != set(blocks):
            raise ValueError("entries must have a key exactly for each active block")
        if len(blocks) != len(set(blocks)):
            raise ValueError("duplicate active block index")
        for b, cols in ents.items():
            if len(cols) != len(set(cols)):
                raise ValueError(f"duplicate coordinate index in block {b}")
        object.__setattr__(self, "active_blocks", blocks)
        object.__setattr__(self, "entries", ents)

    def __hash__(self) -> int:
        return hash((self.active_blocks, tuple(self.entries[b] for b in self.active_blocks)))

    @classmethod
    def empty(cls) -> "HiSupport":
        return cls((), {})

    @classmethod
    def _of_sorted(cls, structure: BlockStructure, cols: np.ndarray, idle=()) -> "HiSupport":
        """The support covering the ascending, distinct, in-range global
        coordinates cols (an intp array), plus the blocks in idle, which
        hold none of them, as active blocks with no coordinates."""
        counts = np.bincount(structure.owner[cols], minlength=structure.num_blocks).tolist()
        blocks = [b for b, c in enumerate(counts) if c or b in idle]
        return cls._canonical(structure, cols, blocks, counts)

    @classmethod
    def _canonical(cls, structure: BlockStructure, cols: np.ndarray, blocks, counts) -> "HiSupport":
        """The support on the ascending blocks, each block b of which holds
        the next counts[b] of the ascending global columns cols of
        structure, an intp array that the support keeps and makes
        read-only: canonical (keys ascending, each tuple ascending) without
        the sorting and conversion of __post_init__."""
        local, lo = structure.split(cols)[1].tolist(), 0
        # block b takes local[lo : lo + counts[b]], and lo moves past them
        entries = {b: tuple(local[lo : (lo := lo + counts[b])]) for b in blocks}
        cols.flags.writeable = False
        support = object.__new__(cls)
        object.__setattr__(support, "active_blocks", tuple(entries))
        object.__setattr__(support, "entries", entries)
        object.__setattr__(support, "_columns", cols)
        object.__setattr__(support, "_columns_of", structure)
        return support

    @classmethod
    def of_columns(cls, structure: BlockStructure, cols) -> "HiSupport":
        """The support covering the given distinct global coordinate
        indices (the inverse of column_indices); ValueError for a repeat."""
        cols = np.sort(np.asarray(cols, dtype=np.intp))
        if cols.size and (cols[0] < 0 or cols[-1] >= structure.total_dim):
            raise IndexError(f"column indices must lie in [0, {structure.total_dim})")
        if (cols[1:] == cols[:-1]).any():
            raise ValueError("duplicate column index")
        return cls._of_sorted(structure, cols)

    @classmethod
    def of_nonzeros(cls, x: BlockVector) -> "HiSupport":
        return cls.of_columns(x.structure, np.flatnonzero(x.coeffs))

    @property
    def num_entries(self) -> int:
        return sum(len(cols) for cols in self.entries.values())

    def validate_for(self, structure: BlockStructure) -> None:
        """IndexError unless every block and coordinate lies inside the
        structure.  A support cut from structure's own columns fits it;
        otherwise coordinates are sorted, so checking the first and the
        last of each block covers the rest."""
        if structure is self._columns_of:
            return
        for b in self.active_blocks:
            if not 0 <= b < structure.num_blocks:
                raise IndexError(f"block index {b} out of range")
            cols, n = self.entries[b], structure.block_sizes[b]
            if cols and not (0 <= cols[0] and cols[-1] < n):
                bad = cols[0] if cols[0] < 0 else cols[-1]
                raise IndexError(f"coordinate {bad} out of range for block {b} (size {n})")

    def column_indices(self, structure: BlockStructure) -> np.ndarray:
        """Sorted global coordinate indices covered by this support: the
        stored read-only array when structure is the one the support was
        built on, else a new array."""
        self.validate_for(structure)
        if structure is self._columns_of:
            return self._columns
        cols = list(map(self.entries.__getitem__, self.active_blocks))
        counts = list(map(len, cols))
        local = np.fromiter(itertools.chain.from_iterable(cols), dtype=np.intp, count=sum(counts))
        return local + structure.starts[list(self.active_blocks)].repeat(counts)


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
    built from the winners and keeps their kept columns, which the refit
    reads back through column_indices.
    """
    st = x.structure
    scores, picked, slots = _block_scores(x, k)
    winners = np.sort(np.argsort(-scores, kind="stable")[: k.s]).tolist()
    cols = [picked[g][r] for g, r in map(slots.__getitem__, winners)]

    out = BlockVector.zeros(st)
    kept = np.concatenate(cols)  # ascending: winners are, and so is each row
    out.coeffs[kept] = x.coeffs[kept]
    # winner b holds the next sigma_b of kept: a sigma_b = 0 winner gets ()
    return out, HiSupport._canonical(st, kept, winners, k.sigma)


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
