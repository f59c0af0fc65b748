"""Operators on tensor powers of H, and their block-diagonal form.

Everything here is assembled from the level-2 operator T by the product and
sum recursions

    R_n  = 1 + T_1 + T_1 T_2 + ... + T_1 T_2 ... T_{n-1}
    P_2  = R_2,   P_{n+1} = (1 (x) P_n) R_{n+1}
    U_n  = (T_1 ... T_n)(T_1 ... T_{n-1}) ... (T_1 T_2) T_1

where T_i is T on slots i, i+1 with identity factors on the others.
:func:`apply_slots` multiplies a dense matrix on the right by
``1 (x) op (x) 1`` with a reshape and a matmul, never forming it.

When T is weight-preserving (it maps e_a (x) e_b into the span of
e_a (x) e_b and e_b (x) e_a), so is every T_i, and every operator built
from them by products and sums maps each weight space of H^(x)level, the
span of the words with one letter content, into itself.  A :class:`Layout`
gives those spaces as the diagonal blocks of the level, with each word's
block and position and the offsets of the packed format; any other T gives
one block, the whole space.  A :class:`BlockOperator` keeps one square
matrix per block of its layout, and it is the only place where blocks
become a dense matrix; T is one, at level 2.  :func:`slot_step` is right
multiplication by T_i (or any level-2 operator in the layout of T) on the
blocks, packed as one flat array: the two-term gather over the weight
spaces, or :func:`apply_slots` on the single dense block, so both layouts
run the same code.  Every product of the T_i goes through it:
:func:`word_product` steps it over a word in the T_i, the
:class:`~wickfock.algebra.Algebra` builds R_n, P_n, U_n and its other
words with it, and the symmetric-group sums in :mod:`coxeter` walk with it.

Products and sums accumulate left to right in exactly this written order so
residuals are bit-reproducible run to run.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .model import MAX_LEVEL_BYTES

__all__ = [
    "MAX_LEVEL_BYTES",
    "MAX_BUILD_BYTES",
    "check_level",
    "op_norm",
    "apply_slots",
    "word_product",
    "longest_word",
    "weight_spaces",
    "Layout",
    "largest_block",
    "packed_size",
    "BlockOperator",
    "slot_step",
    "packed_identity",
    "slot_sum",
]

BRAID_TOL = 1e-8
MAX_BUILD_BYTES = 1024**3  # fixed guard on one build in the weight layout, at its peak
PACKED_ENTRY_BYTES = 128  # what a build holds per packed entry at its peak (72-92 measured)


def largest_block(d: int, level: int, weight: bool) -> int:
    """The number of words in the largest block of the layout of
    H^(x)level (:class:`Layout`): with ``weight``, the largest weight space,
    the multinomial of the most even letter content; else all d^level."""
    if not weight:
        return d**level
    q, r = divmod(level, d)
    return math.factorial(level) // (math.factorial(q + 1) ** r * math.factorial(q) ** (d - r))


def packed_size(d: int, level: int) -> int:
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
    """Refuse, before anything is allocated, a level over 500 (at d=1 no
    byte guard bounds the work) or one whose operators need more than the
    byte guards allow.  Without ``weight``: one dense d^L x d^L
    matrix over MAX_LEVEL_BYTES.  With ``weight`` (the layout of a
    weight-preserving T): the largest weight-space block over
    MAX_LEVEL_BYTES, or a build over MAX_BUILD_BYTES at its peak, counted as
    PACKED_ENTRY_BYTES per entry of one packed operator (:func:`packed_size`)
    plus the 16 L + 32 bytes per word that :func:`weight_spaces` takes to
    sort the d^L words."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level > 500:
        raise ValueError(f"level {level} is over the fixed guard of 500 levels")
    capped = min(level, 32)  # exact up to level 32, a lower bound beyond
    size = largest_block(d, capped, weight)
    need = 16 * size**2
    if need > MAX_LEVEL_BYTES:
        what = f"one block of {size} words" if weight else "one dense matrix"
        raise ValueError(
            f"{what} at level {level}, d={d} needs {need} bytes or more, "
            f"over the {MAX_LEVEL_BYTES} byte guard"
        )
    if weight:
        entries = packed_size(d, capped)
        need = PACKED_ENTRY_BYTES * entries + (16 * capped + 32) * d**capped
        if need > MAX_BUILD_BYTES:
            raise ValueError(
                f"the weight blocks at level {level}, d={d} hold {entries} entries per operator; "
                f"building them needs {need} bytes or more, over the {MAX_BUILD_BYTES} byte guard"
            )


def op_norm(op: BlockOperator | np.ndarray | list) -> float:
    """Operator norm: largest singular value, via eigendecomposition of the
    self-adjoint square m^H m; for a block-diagonal operator, or a list of
    the pieces of an operator that lie in disjoint rows and disjoint
    columns, the largest over its blocks, taken one block at a time."""
    if not isinstance(op, (BlockOperator, list)):
        op = [np.asarray(op)]
    top = 0.0
    for m in getattr(op, "mats", op):
        if m.size:  # a basis may hold no vector in a block
            top = max(top, float(np.linalg.eigvalsh(m.conj().T @ m)[-1]))
    return float(np.sqrt(top))


def _require_level2(T: BlockOperator) -> None:
    if T.level != 2:
        raise ValueError(f"expected a level-2 operator, got level {T.level}")


def apply_slots(op: np.ndarray, d: int, i: int, X: np.ndarray) -> np.ndarray:
    """X (1 (x) op (x) 1), where the square ``op`` acts on the consecutive
    slots of H^(x)level starting at slot i (1-based) and the level is read
    off X.

    X is viewed as a stack of (slots acted on) x (trailing slots) blocks, and
    op is applied to every block with one matmul; when the trailing block is
    narrower than op, as one product of the transposed stack and op.
    """
    k = op.shape[0]
    if i < 1 or X.shape[1] % (d ** (i - 1) * k):
        raise ValueError(f"a {k}x{k} operator at slot {i} does not fit dimension {X.shape[1]}")
    blocks = X.reshape(X.shape[0] * d ** (i - 1), k, -1)
    if blocks.shape[2] >= k:
        return (op.T @ blocks).reshape(X.shape)
    return (blocks.swapaxes(1, 2).reshape(-1, k) @ op).reshape(len(blocks), -1, k).swapaxes(1, 2).reshape(X.shape)


def word_product(T: BlockOperator, word, layout: Layout) -> BlockOperator:
    """T_{w_1} T_{w_2} ... T_{w_k} on H^(x)level in ``layout``, by
    :func:`slot_step` of the level-2 T left to right from the identity."""
    _require_level2(T)
    step, acc = slot_step(T, layout), packed_identity(layout)
    for i in word:
        acc = step(i, acc)
    return BlockOperator.from_packed(layout, acc)


def longest_word(n: int) -> tuple[int, ...]:
    """The word (1 ... n)(1 ... n-1) ... (1 2)(1) of U_n (empty for n = 0)."""
    return tuple(i for m in range(n, 0, -1) for i in range(1, m + 1))


def weight_spaces(d: int, level: int) -> tuple[np.ndarray, ...]:
    """The words of each weight space of H^(x)level (slot 1 the most
    significant digit), in increasing order, the spaces ordered by their
    sorted letter content; read-only views of one array."""
    words = np.arange(d**level)
    content = np.sort(words[:, None] // d ** np.arange(level - 1, -1, -1) % d, axis=1)
    order = np.lexsort(content.T[::-1])  # stable: each space keeps its words in order
    order.flags.writeable = False
    rows = content[order]
    return tuple(np.split(order, np.flatnonzero(np.any(rows[1:] != rows[:-1], axis=1)) + 1))


class Layout:
    """The diagonal blocks of H^(x)level that every operator built from a T
    keeps: the weight spaces when T is weight-preserving (``weight``), else
    one block.  ``words`` holds the words of each block in increasing order
    (read-only arrays), ``block`` and ``pos`` each word's block and its
    position there, ``sizes`` the number of words of each block, and
    ``starts`` the offset of each block in the packed format, where the
    square blocks lie row-major one after another in one flat array of
    ``size`` entries; ``record`` names it (``"weight"`` or ``"dense"``, for
    one block) with its block count and largest block.  The
    :class:`~wickfock.algebra.Algebra` builds one per level, and every
    operator in it shares it."""

    def __init__(self, d: int, level: int, weight: bool) -> None:
        self.d, self.level = d, level
        if level >= 1 and weight:
            self.words = weight_spaces(d, level)
        else:
            every = np.arange(d**level)
            every.flags.writeable = False
            self.words = (every,)
        self.sizes = np.fromiter(map(len, self.words), dtype=np.int64, count=len(self.words))
        squares = self.sizes**2
        self.starts, self.size = np.cumsum(squares) - squares, int(squares.sum())
        self.block, self.pos = np.empty((2, d**level), dtype=np.int64)
        order = np.concatenate(self.words)
        self.block[order] = np.repeat(np.arange(len(self.sizes)), self.sizes)
        self.pos[order] = np.arange(order.size) - np.repeat(np.cumsum(self.sizes) - self.sizes, self.sizes)
        self.record = {"layout": "weight" if len(self.words) > 1 else "dense", "blocks": len(self.words),
                       "largest_block": int(self.sizes.max())}

    def views(self, packed: np.ndarray) -> list:
        """The square blocks of the flat array ``packed``, as views."""
        return [packed[s : s + n * n].reshape(n, n) for s, n in zip(self.starts.tolist(), self.sizes.tolist())]

    def entries(self, row: bool = False) -> np.ndarray:
        """For every packed entry, the word of its column (with ``row``, of
        its row), written block by block into the one array returned."""
        out = np.empty(self.size, dtype=np.int64)
        for view, words in zip(self.views(out), self.words):
            view[...] = words[:, None] if row else words
        return out

    def index(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The packed position of entry [u, v], or -1 where the words u and v
        lie in different blocks."""
        b = self.block[u]
        return np.where(b == self.block[v], self.starts[b] + self.pos[u] * self.sizes[b] + self.pos[v], -1)


class BlockOperator:
    """A block-diagonal operator on H^(x)level, read-only, in ``layout``
    (:class:`Layout`, whose ``d``, ``level`` and ``words`` it reads):
    ``mats`` holds one matrix per block, its rows (and, for an operator, its
    columns) in the order of the block's words.  A :class:`~wickfock.spectral.Subspace` keeps its
    basis the same way, each block's matrix holding the basis vectors that
    lie in the block, numbered block after block.  A dense operator is one
    block.  ``mat`` places the blocks in one dense matrix, once."""

    def __init__(self, layout: Layout, mats) -> None:
        self.layout, self.mats = layout, tuple(mats)
        self.d, self.level, self.words = layout.d, layout.level, layout.words
        for m in self.mats:
            m.flags.writeable = False

    @classmethod
    def from_packed(cls, layout: Layout, packed: np.ndarray) -> BlockOperator:
        """The operator whose square blocks are stored row-major one after
        another in the flat array ``packed`` (the layout of :func:`slot_step`)."""
        return cls(layout, layout.views(packed))

    @classmethod
    def identity(cls, layout: Layout) -> BlockOperator:
        return cls.from_packed(layout, packed_identity(layout))

    def place(self) -> np.ndarray:
        """The dense matrix: block b at rows and columns ``words[b]``.  One
        block is returned as it is."""
        if len(self.mats) == 1:
            return self.mats[0]
        check_level(self.d, self.level)
        out = np.zeros((self.d**self.level,) * 2, dtype=np.complex128)
        out[self.layout.entries(row=True), self.layout.entries()] = np.concatenate([m.ravel() for m in self.mats])
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
        return BlockOperator(self.layout, [m.conj().T for m in self.mats])

    def _blockwise(self, other: BlockOperator, fn) -> BlockOperator:
        same = self.layout is other.layout or (
            len(self.words) == len(other.words) and all(map(np.array_equal, self.words, other.words))
        )
        if not same:
            raise ValueError("block-diagonal operators in different layouts")
        return BlockOperator(self.layout, map(fn, self.mats, other.mats))

    def __add__(self, other: BlockOperator) -> BlockOperator:
        return self._blockwise(other, np.add)

    def __sub__(self, other: BlockOperator) -> BlockOperator:
        return self._blockwise(other, np.subtract)

    def __rmul__(self, scalar: complex) -> BlockOperator:
        return BlockOperator(self.layout, [scalar * m for m in self.mats])

    def __matmul__(self, other: BlockOperator) -> BlockOperator:
        return self._blockwise(other, np.matmul)


def slot_step(M: BlockOperator, layout: Layout):
    """``apply(i, X)``: X (1 (x) M (x) 1), M on slots i, i+1, for X a
    block-diagonal operator in ``layout`` packed as in
    :meth:`BlockOperator.from_packed`; M is a level-2 operator in the layout
    of T.  One block is :func:`apply_slots` of M's one block on its (D, D)
    view.  Over weight spaces it is the two-term gather X D_i + X[:, S_i] O_i,
    where S_i takes each column c to the column of swap_i(c) and D_i, O_i are
    the coefficients of M taking the letters of c at slots i, i+1 to
    themselves and to their swap (:func:`_slot_columns`, tables over the
    words), taken block by block on every step; nothing is kept from one
    step to the next, so no table grows with the packed entries."""
    if len(layout.words) == 1:
        D = M.d**layout.level
        return lambda i, X: apply_slots(M.mat, M.d, i, X.reshape(D, D)).reshape(-1)
    columns, order = _slot_columns(M, layout), np.concatenate(layout.words)

    def apply(i: int, X: np.ndarray) -> np.ndarray:
        diag, swap, off = (table[order] for table in columns(i))  # the columns of block after block
        out, end = np.empty_like(X), 0
        for x, o in zip(layout.views(X), layout.views(out)):
            span, end = slice(end, end + len(x)), end + len(x)
            o[...] = x[:, swap[span]]
            o *= off[span]
            o += x * diag[span]
        return out

    return apply


def _slot_columns(M: BlockOperator, layout: Layout):
    """``columns(i)``: per word of H^(x)level, the coefficients of M taking
    its letters at slots i, i+1 to themselves and to their swap, and the
    position in its block of the word with those letters swapped, read off
    M's weight blocks of level 2: of the pair aa, or of ab and its swap ba."""
    d, level = M.d, layout.level
    diagonal, crossed = np.zeros((2, d * d), dtype=np.complex128)
    for pairs, m in M.stacks:
        diagonal[pairs] = m.diagonal(axis1=1, axis2=2)
        if pairs.shape[1] == 2:
            crossed[pairs] = m[:, ::-1].diagonal(axis1=1, axis2=2)
    every = np.arange(d**level)

    def columns(i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        hi, lo = d ** (level - i), d ** (level - i - 1)
        x, y = every // hi % d, every // lo % d
        pair = x * d + y
        return diagonal[pair], layout.pos[every + (y - x) * (hi - lo)], crossed[pair]

    return columns


def slot_sum(M: BlockOperator, layout: Layout) -> np.ndarray:
    """sum_i 1 (x) M (x) 1 over the slots i = 1..level-1, packed in
    ``layout``, M as in :func:`slot_step`: over weight spaces scattered from
    the tables of :func:`_slot_columns`, O_i at (S_i(c), c) and then D_i on
    the diagonal, one array operation each per slot into one array."""
    if len(layout.words) == 1:
        step, eye = slot_step(M, layout), packed_identity(layout)
        return sum((step(i, eye) for i in range(1, layout.level)), np.zeros_like(eye))
    columns = _slot_columns(M, layout)
    start, size = layout.starts[layout.block], layout.sizes[layout.block]  # per column word c
    total = np.zeros(layout.size, dtype=np.complex128)
    for i in range(1, layout.level):
        diag, swap, off = columns(i)
        total[start + swap * size + layout.pos] += off
        total[start + layout.pos * (size + 1)] += diag
    return total


def packed_identity(layout: Layout) -> np.ndarray:
    """The identity in the packed format of ``layout``."""
    eye = np.zeros(layout.size, dtype=np.complex128)
    eye[layout.starts[layout.block] + layout.pos * (layout.sizes[layout.block] + 1)] = 1
    return eye
