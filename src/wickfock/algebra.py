"""The algebra of one run, which the certification reports in
:mod:`spectral`, :mod:`fock` and :mod:`coxeter` take; the primitives in
:mod:`tensorops` take its ``T``, and its Fock functional
(:class:`rewrite.FockFunctional`) its ``spec``."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import coxeter
from .model import T_blocks, WickSpec
from .rewrite import FockFunctional
from .spectral import Subspace, kernel, symmetric_eigenvalues
from .tensorops import (
    BRAID_TOL,
    MAX_LEVEL_BYTES,
    BlockOperator,
    Layout,
    check_level,
    longest_word,
    op_norm,
    packed_identity,
    slot_step,
    word_product,
)

__all__ = ["MAX_LEVEL_BYTES", "check_level", "Algebra"]


class Algebra:
    """A spec with its ``T`` and each fact about ``T`` the reports read,
    decided once: ``weight`` (whether T is weight-preserving: each nonzero
    T_ab^ce has {a, e} = {b, c}, decided exactly), the braid residual, the
    norm and the smallest eigenvalue of ``T``, per block of ``T`` in the
    layout of level 2, and from them the paper's hypotheses (``braided``,
    ``hypotheses``), which every check reads.  On first use, after the level guard
    (:func:`check_level`: when T is weight-preserving, on the largest block
    and on what the blocks of one operator hold together), it builds
    read-only ``T``, the block layout of each level
    (:class:`~wickfock.tensorops.Layout`), R_n, P_n and its eigenvalues, the
    words in the T_i (U_n among them), ker P_n and P(S_{n+1}) (:mod:`coxeter`),
    each kept for a second call, but for the R_m that :meth:`P` reads once:
    it reads the R_m that :meth:`R` kept, or builds one for that step alone.

    R_n, P_n and the words are :class:`~wickfock.tensorops.BlockOperator`
    values built block by block: R_n and the words by the slot step of ``T``,
    and P_{n+1} = (1 (x) P_n) R_{n+1} by :meth:`apply_tensor`, where
    1 (x) P_n on the words a w of a block is P_n on the block of the words w
    (:meth:`split`, which the Wick-ideal and Fock reports read too).

    >>> from wickfock.model import preset
    >>> alg = Algebra(preset("q-ccr", 1, q=0.5))
    >>> alg.P(3).mat.real  # [3]_q! = 1 (1 + q) (1 + q + q^2)
    array([[2.625]])
    >>> alg.P(3) is alg.P(3), alg.P(3).mat.flags.writeable
    (True, False)
    """

    def __init__(self, spec: WickSpec) -> None:
        self.spec = spec
        self.weight = all({a, e} == {b, c} for (a, b, c, e), v in spec.coeffs.items() if v != 0)
        self._memo: dict = {}

    @cached_property
    def T(self) -> BlockOperator:
        """T on H^(x)2 in the layout of level 2, read-only."""
        return BlockOperator(self.layout(2), T_blocks(self.spec, self.layout(2)))

    @cached_property
    def braid_residual(self) -> float:
        """||T_1 T_2 T_1 - T_2 T_1 T_2|| on H^(x)3, in the layout of T."""
        return op_norm(self.word((1, 2, 1), 3) - self.word((2, 1, 2), 3))

    @cached_property
    def norm_T(self) -> float:
        """The operator norm of T."""
        return op_norm(self.T)

    @cached_property
    def braided(self) -> bool:
        """Whether T satisfies the braid relation, at the fixed BRAID_TOL:
        the hypothesis of the Coxeter sums and of the U_n laws."""
        return self.braid_residual <= BRAID_TOL

    @cached_property
    def hypotheses(self) -> dict:
        """The hypotheses of the kernel theorem: ``applicable`` when T is
        braided and ||T|| <= 1 (at the fixed 1 + 1e-10)."""
        return {"braid_residual": self.braid_residual, "norm_T": self.norm_T,
                "applicable": self.braided and self.norm_T <= 1.0 + 1e-10}

    @cached_property
    def min_eig_T(self) -> float:
        """The smallest eigenvalue of the symmetrized T, over its blocks."""
        return min(float(symmetric_eigenvalues(m)[0]) for m in self.T.mats)

    @cached_property
    def f(self) -> FockFunctional:
        """The Fock functional on free words, with one memo of word values
        for the life of this algebra."""
        return FockFunctional(self.spec)

    def check_level(self, level: int) -> None:
        """The level guard for the operators this algebra builds."""
        check_level(self.spec.d, level, self.weight)

    def _get(self, key: tuple, level: int, build):
        if key not in self._memo:
            self.check_level(level)
            self._memo[key] = build()
        return self._memo[key]

    def layout(self, level: int) -> Layout:
        """The block layout of the level, which every operator of the level shares."""
        return self._get(("layout", level), level, lambda: Layout(self.spec.d, level, self.weight))

    def R(self, n: int) -> BlockOperator:
        """R_n = 1 + T_1 + T_1 T_2 + ... + T_1 ... T_{n-1}; R_0 = R_1 = 1."""
        return self._get(("R", n), n, lambda: self._R(n))

    def _R(self, n: int) -> BlockOperator:
        """R_n, built and not kept."""
        layout = self.layout(n)
        step, term = slot_step(self.T, layout), packed_identity(layout)
        total = term
        for i in range(1, n):
            term = step(i, term)
            total += term  # the identity's array, no longer term's
        return BlockOperator.from_packed(layout, total)

    def P(self, n: int) -> BlockOperator:
        """P_n by P_{n+1} = (1 (x) P_n) R_{n+1}, from P_0 = P_1 = 1, the
        missing levels built bottom-up after the guard of level n."""
        if n < 2:
            return self.word((), n)
        if ("P", n) not in self._memo:
            self.check_level(n)
            P = self.P(1)
            for m in range(2, n + 1):
                P = self._get(("P", m), m, lambda: self.apply_tensor(P, self._memo.get(("R", m)) or self._R(m)))
        return self._memo["P", n]

    def eigenvalues(self, n: int) -> tuple:
        """The eigenvalues of the symmetrized P_n, per block, ascending."""

        def build():
            evals = [symmetric_eigenvalues(m) for m in self.P(n).mats]
            for e in evals:
                e.flags.writeable = False
            return tuple(evals)

        return self._get(("eigenvalues", n), n, build)

    def split(self, level: int, last: bool = False) -> tuple:
        """Per block of the level, per letter a that starts (with ``last``:
        ends) some of its words, in increasing order: (a, rows, home), the
        rows of those words in the block (a slice for a first letter) and the
        block of level - 1 that holds their tails, in the order of its words."""

        def build():
            d, k, home = self.spec.d, self.spec.d ** (level - 1), self.layout(level - 1).block
            blocks = []
            for words in self.layout(level).words:
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
        return BlockOperator(A.layout, mats)

    def word(self, word, level: int) -> BlockOperator:
        """T_{w_1} ... T_{w_k} on H^(x)level in the layout of the level."""
        key = ("word", tuple(word), level)
        return self._get(key, level, lambda: word_product(self.T, key[1], self.layout(level)))

    def U(self, n: int) -> BlockOperator:
        """U_n = (T_1 ... T_n)(T_1 ... T_{n-1}) ... (T_1 T_2) T_1 on H^(x)(n+1)."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        return self.word(longest_word(n), n + 1)

    def ker_P(self, n: int, rank_tol: float) -> Subspace:
        return self._get(("ker_P", n, rank_tol), n, lambda: kernel(self.P(n), rank_tol))

    def group_sum(self, n: int) -> BlockOperator:
        """P(S_{n+1}), by its right-coset product, with no walk: a few
        operators of level n+1, so the level guard is its only guard."""
        return self._get(("group_sum", n), n + 1, lambda: coxeter.group_sum(self, n))
