"""The algebra of one run, which the certification reports in
:mod:`spectral`, :mod:`fock` and :func:`coxeter.coxeter_checks` take; the
primitives in :mod:`tensorops` and :mod:`coxeter` take its ``T``, and its
Fock functional (:class:`rewrite.FockFunctional`) its ``spec``."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import coxeter
from .model import WickSpec, build_T
from .rewrite import FockFunctional
from .spectral import Subspace, kernel
from .tensorops import (
    MAX_LEVEL_BYTES,
    BlockOperator,
    braid_residual,
    check_level,
    layout,
    longest_word,
    op_norm,
    packed_identity,
    slot_step,
    weight_preserving,
    word_product,
)

__all__ = ["MAX_LEVEL_BYTES", "check_level", "Algebra"]


class Algebra:
    """A spec with its ``T``, the block layout of each level
    (:func:`~wickfock.tensorops.layout`), R_n, P_n, the words in the T_i
    (U_n among them), ker P_n, the walk of S_{n+1} (:func:`coxeter.descent_sums`)
    and the group sum P(S_{n+1}), each built read-only on first use, after
    the level guard (:func:`check_level`: when T is weight-preserving, on
    the largest block and on what the blocks of one operator hold together).
    A second call returns the same object, so each rank is walked once.

    R_n, P_n and the words are :class:`~wickfock.tensorops.BlockOperator`
    values built block by block: R_n and the words by the slot step of ``T``,
    and P_{n+1} = (1 (x) P_n) R_{n+1} by :meth:`apply_tensor`, where
    1 (x) P_n on the words a w of a block is P_n on the block of the words w
    (:meth:`split`, which the Wick-ideal and Fock reports read too).  The
    hypotheses of the reports,
    the braid residual and the norm of ``T``, are taken once.

    >>> from wickfock.model import preset
    >>> alg = Algebra(preset("q-ccr", 1, q=0.5))
    >>> alg.P(3).mat.real  # [3]_q! = 1 (1 + q) (1 + q + q^2)
    array([[2.625]])
    >>> alg.P(3) is alg.P(3), alg.P(3).mat.flags.writeable
    (True, False)
    """

    def __init__(self, spec: WickSpec) -> None:
        self.spec = spec
        self.T = build_T(spec)
        self.T.mat.flags.writeable = False
        self.weight = weight_preserving(self.T)
        self._memo: dict = {}

    @cached_property
    def braid_residual(self) -> float:
        """The braid residual of T (:func:`~wickfock.tensorops.braid_residual`)."""
        return braid_residual(self.T)

    @cached_property
    def norm_T(self) -> float:
        """The operator norm of T."""
        return op_norm(self.T)

    @cached_property
    def f(self) -> FockFunctional:
        """The Fock functional on free words, with one memo of word values
        for the life of this algebra."""
        return FockFunctional(self.spec)

    def check_level(self, level: int) -> None:
        """The level guard for the operators this algebra builds."""
        check_level(self.T.d, level, self.weight)

    def _get(self, key: tuple, level: int, build):
        if key not in self._memo:
            self.check_level(level)
            self._memo[key] = build()
        return self._memo[key]

    def layout(self, level: int) -> tuple:
        return self._get(("layout", level), level, lambda: layout(self.T.d, level, self.weight))

    def R(self, n: int) -> BlockOperator:
        """R_n = 1 + T_1 + T_1 T_2 + ... + T_1 ... T_{n-1}; R_0 = R_1 = 1."""

        def build():
            blocks = self.layout(n)
            step, term = slot_step(self.T.mat, self.T.d, n, blocks), packed_identity(blocks)
            total = term
            for i in range(1, n):
                term = step(i, term)
                total = total + term
            return BlockOperator.from_packed(self.T.d, n, blocks, total)

        return self._get(("R", n), n, build)

    def P(self, n: int) -> BlockOperator:
        """P_n by P_{n+1} = (1 (x) P_n) R_{n+1}, from P_0 = P_1 = 1."""
        if n < 2:
            return self.word((), n)
        return self._get(("P", n), n, lambda: self.apply_tensor(self.P(n - 1), self.R(n)))

    def split(self, level: int, last: bool = False) -> tuple:
        """Per block of the level, per letter a that starts (with ``last``:
        ends) some of its words, in increasing order: (a, rows, home), the
        rows of those words in the block (a slice for a first letter) and the
        block of level - 1 that holds their tails, in the order of its words."""

        def build():
            d, k = self.T.d, self.T.d ** (level - 1)
            home = np.empty(k, dtype=np.int64)
            for b, words in enumerate(self.layout(level - 1)):
                home[words] = b
            blocks = []
            for words in self.layout(level):
                letter, tail = (words % d, words // d) if last else divmod(words, k)
                rows = [np.flatnonzero(letter == a) for a in sorted(set(letter.tolist()))]
                blocks.append(tuple((int(letter[r[0]]), r if last else slice(int(r[0]), int(r[-1]) + 1),
                                     int(home[tail[r[0]]])) for r in rows))
            return tuple(blocks)

        return self._get(("split", level, last), level, build)

    def apply_tensor(self, op: BlockOperator, A: BlockOperator, last: bool = False) -> BlockOperator:
        """(1 (x) op) A, or (op (x) 1) A with ``last``, op one level below A:
        by :meth:`split`, the rows of the words a w (w a) of a block of A
        times op's block of the words w."""
        mats = []
        for m, pieces in zip(A.mats, self.split(A.level, last)):
            out = np.empty_like(m)
            for _, rows, home in pieces:
                out[rows] = op.mats[home] @ m[rows]
            mats.append(out)
        return BlockOperator(self.T.d, A.level, A.words, mats)

    def word(self, word, level: int) -> BlockOperator:
        """T_{w_1} ... T_{w_k} on H^(x)level in the layout of the level."""
        key = ("word", tuple(word), level)
        return self._get(key, level, lambda: word_product(self.T, key[1], level, self.layout(level)))

    def U(self, n: int) -> BlockOperator:
        """U_n = (T_1 ... T_n)(T_1 ... T_{n-1}) ... (T_1 T_2) T_1 on H^(x)(n+1)."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        return self.word(longest_word(n), n + 1)

    def ker_P(self, n: int, rank_tol: float) -> Subspace:
        return self._get(("ker_P", n, rank_tol), n, lambda: kernel(self.P(n), rank_tol))

    def descent_sums(self, n: int) -> coxeter.Walk:
        """The descent-set buckets of the walk of S_{n+1}, in the layout of
        level n+1; :meth:`coxeter.Walk.sum` adds the sums a caller reads in
        that layout."""
        return self._get(
            ("walk", n), n + 1, lambda: coxeter.descent_sums(self.T, n, self.layout(n + 1))
        )

    def group_sum(self, n: int) -> BlockOperator:
        """P(S_{n+1}), the sum of every bucket of the walk."""
        return self._get(("group_sum", n), n + 1, lambda: self.descent_sums(n).sum())
