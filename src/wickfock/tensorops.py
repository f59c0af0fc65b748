"""Operators on tensor powers of H, and their block-diagonal form.

Everything here is assembled from the level-2 operator T by the product and
sum recursions

    R_n  = 1 + T_1 + T_1 T_2 + ... + T_1 T_2 ... T_{n-1}
    P_2  = R_2,   P_{n+1} = (1 (x) P_n) R_{n+1}
    U_n  = (T_1 ... T_n)(T_1 ... T_{n-1}) ... (T_1 T_2) T_1

where T_i is T on slots i, i+1 with identity factors on the others.
:func:`apply_slots` multiplies a dense matrix on the right by
``1 (x) op (x) 1`` with a reshape and a matmul, never forming it.

When T is weight-preserving (:func:`weight_preserving`: it maps
e_a (x) e_b into the span of e_a (x) e_b and e_b (x) e_a), so is every
T_i, and every operator built from them by products and sums maps each
weight space of H^(x)level, the span of the words with one letter content,
into itself.  :func:`layout` gives those spaces as the diagonal blocks of
the level; any other T gives one block, the whole space.  A
:class:`BlockOperator` keeps one square matrix per block, and it is the only
place where blocks become a dense matrix.  :func:`slot_step` is right
multiplication by T_i (or any level-2 operator that keeps the layout) on
the blocks, packed as one flat array: the two-term gather over the weight
spaces, or :func:`apply_slots` on the single dense block, so both layouts
run the same code.  Every product of the T_i goes through it:
:func:`word_product` steps it over a word in the T_i, the
:class:`~wickfock.algebra.Algebra` builds R_n, P_n, U_n and its other words
with it, and the symmetric-group sums in :mod:`coxeter` walk with it.

Products and sums accumulate left to right in exactly this written order so
residuals are bit-reproducible run to run.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .model import TensorOperator

__all__ = [
    "MAX_LEVEL_BYTES",
    "MAX_BUILD_BYTES",
    "check_level",
    "op_norm",
    "apply_slots",
    "word_product",
    "longest_word",
    "braid_residual",
    "weight_preserving",
    "weight_spaces",
    "layout",
    "BlockOperator",
    "slot_step",
    "packed_identity",
    "by_shape",
]

BRAID_TOL = 1e-8
MAX_LEVEL_BYTES = 128 * 1024**2  # fixed guard on one complex matrix: a block, or a dense d^L x d^L
MAX_BUILD_BYTES = 1024**3  # fixed guard on one build in the weight layout, at its peak
PACKED_ENTRY_BYTES = 256  # what a build holds per packed entry at its peak (210-230 measured)
TABLE_BYTES = 40  # slot_step's tables of one slot, per packed entry: two complex, one int64
MAX_KEPT_TABLE_BYTES = 64 * 1024**2  # fixed budget for the tables slot_step keeps


def _largest_weight_space(d: int, level: int) -> int:
    """The number of words in the largest weight space of H^(x)level: the
    multinomial of the most even letter content."""
    q, r = divmod(level, d)
    return math.factorial(level) // (math.factorial(q + 1) ** r * math.factorial(q) ** (d - r))


def _packed_size(d: int, level: int) -> int:
    """The number of entries of one operator packed in the weight layout of
    H^(x)level: the sum over letter contents of the squared multinomial,
    summed letter by letter (``counts[m]`` over the contents of m slots in
    the letters so far)."""
    counts = [1] + [0] * level
    for _ in range(d):
        counts = [sum(math.comb(m, k) ** 2 * counts[m - k] for k in range(m + 1))
                  for m in range(level + 1)]
    return counts[level]


def check_level(d: int, level: int, weight: bool = False) -> None:
    """Refuse, before anything is allocated, a level whose operators need
    more than the guards allow.  Without ``weight``: one dense d^L x d^L
    matrix over MAX_LEVEL_BYTES.  With ``weight`` (the layout of a
    weight-preserving T): the largest weight-space block over
    MAX_LEVEL_BYTES, or a build over MAX_BUILD_BYTES at its peak, counted as
    PACKED_ENTRY_BYTES per entry of one packed operator (:func:`_packed_size`)
    plus the 16 L + 32 bytes per word that :func:`weight_spaces` takes to
    sort the d^L words."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    capped = min(level, 32)  # exact up to level 32, a lower bound beyond
    size = _largest_weight_space(d, capped) if weight else d**capped
    need = 16 * size**2
    if need > MAX_LEVEL_BYTES:
        what = f"one block of {size} words" if weight else "one dense matrix"
        raise ValueError(
            f"{what} at level {level}, d={d} needs {need} bytes or more, "
            f"over the {MAX_LEVEL_BYTES} byte guard"
        )
    if weight:
        entries = _packed_size(d, capped)
        need = PACKED_ENTRY_BYTES * entries + (16 * capped + 32) * d**capped
        if need > MAX_BUILD_BYTES:
            raise ValueError(
                f"the weight blocks at level {level}, d={d} hold {entries} entries per operator; "
                f"building them needs {need} bytes or more, over the {MAX_BUILD_BYTES} byte guard"
            )


def op_norm(op: BlockOperator | TensorOperator | np.ndarray | list) -> float:
    """Operator norm: largest singular value, via eigendecomposition of the
    self-adjoint square m^H m; for a block-diagonal operator, or a list of
    the pieces of an operator that lie in disjoint rows and disjoint
    columns, the largest over its blocks."""
    if not isinstance(op, (BlockOperator, list)):
        op = [np.asarray(getattr(op, "mat", op))]
    mats = [m for m in getattr(op, "mats", op) if m.size]  # a basis may hold no vector in a block
    squares = by_shape(lambda m: np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m), mats)
    return float(np.sqrt(max(max((float(ev[-1]) for ev in squares), default=0.0), 0.0)))


def by_shape(fn, mats) -> list:
    """``[fn(m) for m in mats]`` with one call of ``fn`` per shape, on the
    stack of the matrices of that shape (numpy's linear algebra runs over a
    stack matrix by matrix, with the LAPACK call a single matrix gets)."""
    if len(mats) == 1:
        return [fn(mats[0])]
    groups: dict = {}
    for k, m in enumerate(mats):
        groups.setdefault(m.shape, []).append(k)
    out: list = [None] * len(mats)
    for ks in groups.values():
        result = fn(np.stack([mats[k] for k in ks]))
        for j, k in enumerate(ks):
            out[k] = tuple(r[j] for r in result) if isinstance(result, tuple) else result[j]
    return out


def _require_level2(T: TensorOperator) -> None:
    if T.level != 2:
        raise ValueError(f"expected a level-2 operator, got level {T.level}")


def apply_slots(op: np.ndarray, d: int, i: int, X: np.ndarray) -> np.ndarray:
    """X (1 (x) op (x) 1), where the square ``op`` acts on the consecutive
    slots of H^(x)level starting at slot i (1-based) and the level is read
    off X.

    X is viewed as a stack of (slots acted on) x (trailing slots) blocks, and
    op is applied to every block with one matmul.
    """
    k = op.shape[0]
    if i < 1 or X.shape[1] % (d ** (i - 1) * k):
        raise ValueError(f"a {k}x{k} operator at slot {i} does not fit dimension {X.shape[1]}")
    return (op.T @ X.reshape(X.shape[0] * d ** (i - 1), k, -1)).reshape(X.shape)


def word_product(T: TensorOperator, word, level: int, words) -> BlockOperator:
    """T_{w_1} T_{w_2} ... T_{w_k} on H^(x)level in the layout ``words``, by
    :func:`slot_step` left to right from the identity (for the empty word)."""
    _require_level2(T)
    step, acc = slot_step(T.mat, T.d, level, words), packed_identity(words)
    for i in word:
        acc = step(i, acc)
    return BlockOperator.from_packed(T.d, level, words, acc)


def braid_residual(T: TensorOperator) -> float:
    """|| T_1 T_2 T_1 - T_2 T_1 T_2 ||_2 on H^(x)3, in the layout of T."""
    words = layout(T.d, 3, weight_preserving(T))
    return op_norm(word_product(T, (1, 2, 1), 3, words) - word_product(T, (2, 1, 2), 3, words))


def longest_word(n: int) -> tuple[int, ...]:
    """The word (1 ... n)(1 ... n-1) ... (1 2)(1) of U_n (empty for n = 0)."""
    return tuple(i for m in range(n, 0, -1) for i in range(1, m + 1))


def weight_preserving(T: TensorOperator) -> bool:
    """Whether T maps e_a (x) e_b into the span of e_a (x) e_b and e_b (x) e_a:
    every entry M[(a,b),(c,e)] with {a,b} != {c,e} is exactly zero (no
    tolerance, so no coefficient is ever dropped)."""
    a, b = np.divmod(np.arange(T.d**2), T.d)
    same = (a[:, None] == a) & (b[:, None] == b)
    swapped = (a[:, None] == b) & (b[:, None] == a)
    return not np.any(T.mat[~(same | swapped)] != 0)


def weight_spaces(d: int, level: int) -> tuple[np.ndarray, ...]:
    """The words of each weight space of H^(x)level (slot 1 the most
    significant digit), in increasing order, the spaces ordered by their
    sorted letter content."""
    words = np.arange(d**level)
    content = np.sort(words[:, None] // d ** np.arange(level - 1, -1, -1) % d, axis=1)
    order = np.lexsort(content.T[::-1])  # stable: each space keeps its words in order
    rows = content[order]
    return tuple(np.split(order, np.flatnonzero(np.any(rows[1:] != rows[:-1], axis=1)) + 1))


def layout(d: int, level: int, weight: bool) -> tuple[np.ndarray, ...]:
    """The diagonal blocks of H^(x)level that every operator built from a T
    keeps: the weight spaces when T is weight-preserving (``weight``, as
    :func:`weight_preserving` decides it), else one block."""
    if level >= 1 and weight:
        return weight_spaces(d, level)
    return (np.arange(d**level),)


class BlockOperator:
    """A block-diagonal operator on H^(x)level, read-only: ``words`` holds
    the words of each diagonal block in increasing order, ``mats`` one matrix
    per block, its rows (and, for an operator, its columns) in the order of
    the block's words.  A :class:`~wickfock.spectral.Subspace` keeps its
    basis the same way, each block's matrix holding the basis vectors that
    lie in the block, numbered block after block.  A dense operator is one
    block.  ``mat`` places the blocks in one dense matrix, once."""

    def __init__(self, d: int, level: int, words, mats) -> None:
        self.d, self.level = d, level
        self.words, self.mats = tuple(words), tuple(mats)
        for array in (*self.words, *self.mats):
            array.flags.writeable = False

    @classmethod
    def from_packed(cls, d: int, level: int, words, packed: np.ndarray) -> BlockOperator:
        """The operator whose square blocks are stored row-major one after
        another in the flat array ``packed`` (the layout of :func:`slot_step`)."""
        ends = np.cumsum([len(w) ** 2 for w in words])
        parts = np.split(packed, ends[:-1])
        return cls(d, level, words, [p.reshape(len(w), len(w)) for w, p in zip(words, parts)])

    @classmethod
    def identity(cls, d: int, level: int, words) -> BlockOperator:
        return cls(d, level, words, [np.eye(len(w), dtype=np.complex128) for w in words])

    def place(self) -> np.ndarray:
        """The dense matrix: block b at rows and columns ``words[b]``.  One
        block is returned as it is."""
        if len(self.mats) == 1:
            return self.mats[0]
        check_level(self.d, self.level)
        _, _, rows, cols = _entries(self.words)
        out = np.zeros((self.d**self.level,) * 2, dtype=np.complex128)
        out[rows, cols] = np.concatenate([m.ravel() for m in self.mats])
        out.flags.writeable = False
        return out

    @cached_property
    def mat(self) -> np.ndarray:
        return self.place()

    @cached_property
    def stacks(self) -> tuple:
        """Per shape of block, in order of first appearance: the words (blocks
        x rows) and the matrices of those blocks, stacked (a lone one a view)."""
        groups: dict = {}
        for words, m in zip(self.words, self.mats):
            groups.setdefault(m.shape, []).append((words, m))
        return tuple(tuple(np.stack(a) if len(a) > 1 else a[0][None] for a in zip(*group))
                     for group in groups.values())

    def packed(self) -> np.ndarray:
        """The blocks row-major one after another, as :meth:`from_packed`
        reads them."""
        return np.concatenate([m.ravel() for m in self.mats])

    def adjoint(self) -> BlockOperator:
        """The conjugate transpose, block by block."""
        return BlockOperator(self.d, self.level, self.words, [m.conj().T for m in self.mats])

    def _blockwise(self, other: BlockOperator, fn) -> BlockOperator:
        same = self.words is other.words or (
            len(self.words) == len(other.words) and all(map(np.array_equal, self.words, other.words))
        )
        if not same:
            raise ValueError("block-diagonal operators in different layouts")
        return BlockOperator(self.d, self.level, self.words, map(fn, self.mats, other.mats))

    def __add__(self, other: BlockOperator) -> BlockOperator:
        return self._blockwise(other, np.add)

    def __sub__(self, other: BlockOperator) -> BlockOperator:
        return self._blockwise(other, np.subtract)

    def __rmul__(self, scalar: complex) -> BlockOperator:
        return BlockOperator(self.d, self.level, self.words, [scalar * m for m in self.mats])

    def __matmul__(self, other: BlockOperator) -> BlockOperator:
        return self._blockwise(other, np.matmul)


def slot_step(M: np.ndarray, d: int, level: int, words):
    """``apply(i, X)``: X (1 (x) M (x) 1), M on slots i, i+1, for X a
    block-diagonal operator in the layout ``words`` packed as in
    :meth:`BlockOperator.from_packed`; M is a d^2 x d^2 matrix that keeps the
    layout.  One block is :func:`apply_slots` on its (D, D) view.  Over
    weight spaces it is the two-term gather X D_i + X[S_i] O_i, where S_i
    indexes (r, swap_i(c)) and D_i, O_i are the coefficients of M taking the
    letters of column c at slots i, i+1 to themselves and to their swap.
    The tables of a slot, TABLE_BYTES per packed entry, are made at its
    first step and kept from its second step on, when the tables of all
    level - 1 slots fit in MAX_KEPT_TABLE_BYTES (every walk the walk guard
    admits, and U_n at small levels); a build that steps each slot once,
    or one above that budget, holds the tables of one slot at a time."""
    if len(words) == 1:
        D = d**level
        return lambda i, X: apply_slots(M, d, i, X.reshape(D, D)).reshape(-1)
    _, c, _, cols = _entries(words)
    pos = np.empty(d**level, dtype=np.int64)
    pos[cols] = c
    row = np.arange(cols.size) - c  # where the row of each entry starts
    pairs = np.arange(d * d)
    swapped = pairs % d * d + pairs // d
    diagonal = M.diagonal().copy()
    crossed = np.where(pairs != swapped, M[swapped, pairs], 0)
    every = np.arange(d**level)
    keep = (level - 1) * TABLE_BYTES * cols.size <= MAX_KEPT_TABLE_BYTES
    tables: dict = {}  # slot -> its kept tables, or None after its first step

    def table(i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per word, then per entry through its column word: the pair of
        letters at slots i, i+1, and where swapping them takes the word."""
        hi, lo = d ** (level - i), d ** (level - i - 1)
        x, y = every // hi % d, every // lo % d
        pair = x * d + y
        swap = pos[every + (y - x) * (hi - lo)]  # in the block and the row of the word
        return diagonal[pair][cols], row + swap[cols], crossed[pair][cols]

    def apply(i: int, X: np.ndarray) -> np.ndarray:
        kept = tables.get(i)
        if kept is None:
            kept = table(i)
            if keep:
                tables[i] = kept if i in tables else None
        diag, swap, off = kept
        out = X[swap]
        out *= off
        out += X * diag  # X D_i + X[S_i] O_i, one temporary fewer
        return out

    return apply


def _entries(words) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For every entry of the packed layout of ``words``: its row and column
    position within its block, and the words of its row and its column."""
    sizes = np.array([len(w) for w in words])
    squares = sizes**2
    block = np.repeat(np.arange(len(words)), squares)
    local = np.arange(squares.sum()) - np.repeat(np.cumsum(squares) - squares, squares)
    size, first = sizes[block], (np.cumsum(sizes) - sizes)[block]
    r, c = local // size, local % size
    every = np.concatenate(words)
    return r, c, every[first + r], every[first + c]


def packed_identity(words) -> np.ndarray:
    """The identity in the packed layout of ``words``."""
    if len(words) == 1:  # one dense block needs no index tables
        return np.eye(len(words[0]), dtype=np.complex128).ravel()
    r, c, _, _ = _entries(words)
    return (r == c).astype(np.complex128)
