"""The algebra of one run, which the certification reports in
:mod:`spectral`, :mod:`fock` and :func:`coxeter.coxeter_checks` take; the
primitives in :mod:`tensorops` and :mod:`coxeter` take its ``T``, and the
rewrite engine its ``spec``."""

from __future__ import annotations

import numpy as np

from . import coxeter
from .model import WickSpec, build_T
from .spectral import Subspace, kernel
from .tensorops import (
    MAX_LEVEL_BYTES,
    BlockOperator,
    check_level,
    layout,
    longest_word,
    packed_identity,
    slot_step,
    weight_preserving,
)

__all__ = ["MAX_LEVEL_BYTES", "check_level", "Algebra"]


class Algebra:
    """A spec with its ``T``, the block layout of each level
    (:func:`~wickfock.tensorops.layout`), and R_n, P_n, U_n, ker P_n, the
    walk of S_{n+1} (:func:`coxeter.descent_sums`) and the group sum
    P(S_{n+1}), each built read-only on first use, after the level guard
    (:func:`check_level`: when T is weight-preserving, on the largest block
    and on what the blocks of one operator hold together).
    A second call returns the same object, so each rank is walked once.

    R_n, P_n and U_n are :class:`~wickfock.tensorops.BlockOperator` values
    built block by block: R_n and U_n by the slot step of ``T``, and
    P_{n+1} = (1 (x) P_n) R_{n+1}, where 1 (x) P_n on the words a w of a
    block is P_n on the block of the words w.

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

    def _blocks(self, level: int, build) -> BlockOperator:
        """The operator that ``build(step, eye)`` returns packed, given the
        slot step of T and the identity in the layout of the level."""
        blocks = self.layout(level)
        packed = build(slot_step(self.T.mat, self.T.d, level, blocks), packed_identity(blocks))
        return BlockOperator.from_packed(self.T.d, level, blocks, packed)

    def R(self, n: int) -> BlockOperator:
        """R_n = 1 + T_1 + T_1 T_2 + ... + T_1 ... T_{n-1}; R_0 = R_1 = 1."""

        def build(step, term):
            total = term
            for i in range(1, n):
                term = step(i, term)
                total = total + term
            return total

        return self._get(("R", n), n, lambda: self._blocks(n, build))

    def P(self, n: int) -> BlockOperator:
        """P_n by P_{n+1} = (1 (x) P_n) R_{n+1}, from P_0 = P_1 = 1."""
        return self._get(("P", n), n, lambda: self._lift(n))

    def _lift(self, n: int) -> BlockOperator:
        """(1 (x) P_{n-1}) R_n block by block: the rows of a block whose words
        a w start with one letter a are those of R_n times the block of
        P_{n-1} that holds the words w."""
        if n < 2:
            return self._blocks(n, lambda step, eye: eye)
        below, R = self.P(n - 1), self.R(n)
        k = self.T.d ** (n - 1)
        home = {int(w[0]): b for b, w in enumerate(below.words)}  # first word -> its block
        mats = []
        for words, m in zip(R.words, R.mats):
            out = np.empty_like(m)
            starts = np.flatnonzero(np.diff(words // k, prepend=-1))  # rows of one first letter
            for lo, hi in zip(starts, [*starts[1:], len(words)]):
                np.matmul(below.mats[home[int(words[lo]) % k]], m[lo:hi], out=out[lo:hi])
            mats.append(out)
        return BlockOperator(self.T.d, n, R.words, mats)

    def U(self, n: int) -> BlockOperator:
        """U_n = (T_1 ... T_n)(T_1 ... T_{n-1}) ... (T_1 T_2) T_1 on H^(x)(n+1)."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")

        def build(step, acc):
            for i in longest_word(n):
                acc = step(i, acc)
            return acc

        return self._get(("U", n), n + 1, lambda: self._blocks(n + 1, build))

    def ker_P(self, n: int, rank_tol: float) -> Subspace:
        return self._get(("ker_P", n, rank_tol), n, lambda: kernel(self.P(n), rank_tol))

    def descent_sums(self, n: int) -> coxeter.Walk:
        """The descent-set buckets of the walk of S_{n+1}, in the walk's own
        layout; :meth:`coxeter.Walk.sum` places the sums a caller reads."""
        return self._get(
            ("walk", n), n + 1, lambda: coxeter.descent_sums(self.T, n, self.layout(n + 1))
        )

    def group_sum(self, n: int) -> BlockOperator:
        """P(S_{n+1}), the sum of every bucket of the walk."""
        return self._get(("group_sum", n), n + 1, lambda: self.descent_sums(n).sum())
