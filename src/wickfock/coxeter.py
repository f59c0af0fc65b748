"""The symmetric group S_{n+1} as a Coxeter group, and its operator sums.

Permutations are tuples in one-line notation over {1, ..., n+1}; generator
letters are 1-based adjacent transpositions s_i = (i, i+1).  Right
multiplication by s_i swaps the entries at positions i, i+1 of the one-line
form.

The quasimultiplicative map sends a reduced word i_1 ... i_k to the matrix
product T_{i_1} ... T_{i_k}; it is well defined only when T satisfies the
braid condition, so every walk is gated on the braid residual.

Every operator sum over the group comes from one walk of S_{n+1}:
:func:`descent_sums` adds each phi(w) into one of 2^n buckets keyed by the
descent set of w, kept in the walk's layout in one read-only :class:`Walk`.
When T is weight-preserving (it maps e_a (x) e_b into the span of
e_a (x) e_b and e_b (x) e_a), every phi(w) is block-diagonal on the weight
spaces of H^(x)(n+1), the spans of the words with one letter content, and
the walk keeps only those blocks; any other T is one dense block.  The
group sum P(S_{n+1}), every descent-class sum P(D_J) and both sides of the
Euler-Solomon identity are sums of buckets, which :func:`coxeter_checks`
compares against the independent product constructions of P_{n+1}, U_n
and P(W_J), read from the :class:`~wickfock.algebra.Algebra` that holds
the walk.  :func:`check_walk` is the walk's guard.

>>> sums = descent_sums(TensorOperator(1, 2, [[0.5]]), 2)  # d=1: phi(w) = q^length(w)
>>> [s.item().real for s in sums]  # descent sets {}, {1}, {2}, {1, 2}
[1.0, 0.75, 0.75, 0.125]
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .model import TensorOperator
from .tensorops import BRAID_TOL, apply_slots, braid_residual, op_norm

if TYPE_CHECKING:
    from .algebra import Algebra

__all__ = [
    "BraidConditionError",
    "MAX_RANK",
    "MAX_WALK_BYTES",
    "Walk",
    "check_walk",
    "descent_sums",
    "coxeter_checks",
]

MAX_RANK = 6  # guard: S_7 has 5040 elements
MAX_WALK_BYTES = 2 * 1024**3  # fixed guard on the matrices one walk keeps live


class BraidConditionError(ValueError):
    """The operator fails the braid condition, so the quasimultiplicative
    map is not well defined on reduced words."""


def _apply_right(perm: tuple[int, ...], i: int) -> tuple[int, ...]:
    """perm * s_i: swap entries at positions i, i+1 (1-based)."""
    p = list(perm)
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def check_walk(d: int, n: int) -> None:
    """Refuse, before anything is allocated, a walk of S_{n+1} at dimension d
    whose rank lies outside 1..MAX_RANK or whose dense layout (2^n buckets,
    the products along one path, the sum and P_{n+1}/U_n) would hold more
    than MAX_WALK_BYTES, whatever layout the walk then takes."""
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank n={n} out of guard range 1..{MAX_RANK}")
    dim = d ** (n + 1)
    need = (2**n + n * (n + 1) // 2 + 3) * dim * dim * 16
    if need > MAX_WALK_BYTES:
        raise ValueError(
            f"the Coxeter sums at rank n={n}, d={d} need about {need} bytes, "
            f"over the {MAX_WALK_BYTES} byte guard"
        )


def _weight_preserving(T: TensorOperator) -> bool:
    """Whether T maps e_a (x) e_b into the span of e_a (x) e_b and e_b (x) e_a:
    every entry M[(a,b),(c,e)] with {a,b} != {c,e} is exactly zero (no
    tolerance, so no coefficient is ever dropped)."""
    a, b = np.divmod(np.arange(T.d**2), T.d)
    same = (a[:, None] == a) & (b[:, None] == b)
    swapped = (a[:, None] == b) & (b[:, None] == a)
    return not np.any(T.mat[~(same | swapped)] != 0)


def _weight_classes(d: int, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weight space (letter content) of each word of H^(x)level, slot 1
    the most significant digit; the word's position among the words of its
    space, in increasing order; and the size of every space."""
    words = np.arange(d**level)
    digits = words[:, None] // d ** np.arange(level - 1, -1, -1) % d
    _, space, sizes = np.unique(
        np.sort(digits, axis=1), axis=0, return_inverse=True, return_counts=True
    )
    space = space.reshape(-1)  # flat, whatever shape this numpy gives the inverse
    order = np.argsort(space, kind="stable")
    pos = np.empty_like(words)
    pos[order] = words - (np.cumsum(sizes) - sizes)[space[order]]
    return space, pos, sizes


class Walk:
    """The 2^n descent-set buckets of one walk of S_{n+1}, read-only, in the
    walk's layout: row ``mask`` of ``buckets`` holds the entries of every
    diagonal block (an array of words) in turn, row-major within each.
    ``record`` names the layout with its block count and largest block.
    Indexing and iteration yield single buckets as dense matrices."""

    def __init__(self, buckets: np.ndarray, blocks: list[np.ndarray], layout: str) -> None:
        for array in (buckets, *blocks):
            array.flags.writeable = False
        self.buckets, self.blocks = buckets, tuple(blocks)
        self.dim = sum(map(len, blocks))
        self.record = {"layout": layout, "blocks": len(blocks),
                       "largest_block": max(map(len, blocks))}

    def sum(self, masks=None) -> np.ndarray:
        """The dense sum of the buckets ``masks`` (default all), added in the
        given order within the layout and placed once."""
        packed = np.zeros(self.buckets.shape[1], dtype=np.complex128)
        for mask in range(len(self)) if masks is None else masks:
            packed += self.buckets[mask]
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        ends = np.cumsum([len(words) ** 2 for words in self.blocks])
        for words, block in zip(self.blocks, np.split(packed, ends[:-1])):
            out[np.ix_(words, words)] = block.reshape(len(words), -1)
        return out

    def __len__(self) -> int:
        return len(self.buckets)

    def __getitem__(self, mask: int) -> np.ndarray:
        return self.sum([mask])


def _walk(n: int, start: np.ndarray, apply) -> np.ndarray:
    """One depth-first walk of the canonical-word tree of S_{n+1} from the
    image ``start`` of the identity, ``apply(i, X)`` giving X T_i: each
    element of length >= 1 is reached from the shorter element obtained by
    peeling its smallest descent, so only the 2^n buckets and the products
    along the current path are live.  Returns the buckets, stacked."""
    sums = np.zeros((2**n, *start.shape), dtype=start.dtype)

    def visit(perm: tuple[int, ...], mask: int, mat: np.ndarray) -> None:
        sums[mask] += mat
        for i in range(1, n + 1):
            if perm[i - 1] < perm[i]:
                child = _apply_right(perm, i)
                child_mask = mask | 1 << (i - 1)
                for j in (i - 1, i + 1):  # the swap moves no other descent
                    if 1 <= j <= n:
                        child_mask &= ~(1 << (j - 1))
                        child_mask |= (child[j - 1] > child[j]) << (j - 1)
                if child_mask & -child_mask == 1 << (i - 1):
                    visit(child, child_mask, apply(i, mat))

    try:
        visit(tuple(range(1, n + 2)), 0, start)
    finally:
        del visit  # visit reaches itself through its closure cell; free it now, not at the next gc
    return sums


def descent_sums(T: TensorOperator, n: int) -> Walk:
    """Sums of phi over the descent classes of S_{n+1}: bucket ``mask`` adds
    phi(w) over the w whose descent set is {i : bit i-1 of mask}.

    One depth-first walk (:func:`_walk`), one application of T_i per group
    element, with each phi(w) in the layout of :class:`Walk`.  When T is
    weight-preserving the blocks are the weight spaces, and right
    multiplication by T_i is the two-term gather X D_i + X[S_i] O_i, where
    S_i indexes (r, swap_i(c)) and D_i, O_i are the coefficients of T taking
    the letters of column c at slots i, i+1 to themselves and to their
    swap.  Any other T is one dense block, and T_i is :func:`apply_slots`.
    Refused by :func:`check_walk` before anything is allocated.
    """
    check_walk(T.d, n)
    r = braid_residual(T)
    if r > BRAID_TOL:
        raise BraidConditionError(
            f"braid residual {r:.3e} exceeds {BRAID_TOL:.1e}; the map is only well "
            "defined for braided operators"
        )
    d, level = T.d, n + 1
    layout = "weight" if _weight_preserving(T) else "dense"
    if layout == "weight":
        space, pos, sizes = _weight_classes(d, level)
        blocks = np.split(np.argsort(space, kind="stable"), np.cumsum(sizes)[:-1])
        cols = np.concatenate([np.tile(words, len(words)) for words in blocks])
        steps = {}
        for i in range(1, n + 1):  # swap_i(c) shares the block and the row of c
            hi, lo = d ** (level - i), d ** (level - i - 1)
            x, y = cols // hi % d, cols // lo % d
            swap = np.arange(cols.size) + pos[cols + (y - x) * (hi - lo)] - pos[cols]
            off = np.where(x != y, T.mat[y * d + x, x * d + y], 0)
            steps[i] = (T.mat[x * d + y, x * d + y], swap, off)
    else:
        blocks = [np.arange(d**level)]

    def apply(i: int, X: np.ndarray) -> np.ndarray:
        if layout == "dense":
            return apply_slots(T.mat, d, i, X.reshape(d**level, -1)).reshape(-1)
        diag, swap, off = steps[i]
        return X * diag + X[swap] * off

    start = np.concatenate([np.eye(len(words), dtype=np.complex128).ravel() for words in blocks])
    return Walk(_walk(n, start, apply), blocks, layout)


def _young_sum(alg: Algebra, n: int, J: int) -> np.ndarray:
    """P(W_J) for the generator set J (a bit mask), built independently of
    the walk: W_J is the Young subgroup of the blocks of consecutive slots
    that J joins (slots s, s+1 share a block iff s is in J), so P(W_J) is
    the tensor product of the block P_b."""
    acc = np.eye(alg.T.d ** (n + 1), dtype=np.complex128)
    start = 1
    for s in range(1, n + 2):
        if not J >> (s - 1) & 1:  # bit n is never set: the last block closes at slot n+1
            if s > start:
                acc = apply_slots(alg.P(s - start + 1).mat, alg.T.d, start, acc, left=True)
            start = s + 1
    return acc


def coxeter_checks(alg: Algebra, n: int) -> dict:
    """Every Coxeter identity at rank n from the buckets of the walk of
    S_{n+1} that ``alg`` holds (``alg.descent_sums(n)``), as operator norm
    residuals on H^(x)(n+1):

    - ``group_sum``: P(S_{n+1}) against the recursive P_{n+1};
    - ``factorization``: per J (in mask order), P_{n+1} against
      P(D_J) P(W_J), where D_J holds the elements with no descent in J;
    - ``euler_solomon``: over proper nonempty J, with sigma_0 the longest
      element (the only one with every descent),

          sum_J (-1)^|J| P(D_J)   = -(-1)^n 1 + phi(sigma_0) - P(S_{n+1})
          sum_J (-1)^|J| P(D_J)^* =  (-1)^(n+1) 1 + U_n - P_{n+1}

      the larger of the two residuals; the second right side uses the
      independent product constructions of U_n and P_{n+1};
    - ``longest_vs_U``: phi(sigma_0) against U_n.
    """
    walk = alg.descent_sums(n)
    full = 2**n - 1
    eye = np.eye(alg.T.d ** (n + 1), dtype=np.complex128)
    P = alg.P(n + 1).mat
    U = alg.U(n).mat
    total = alg.group_sum(n).mat

    factorization = []
    alternating = np.zeros_like(eye)
    for J in range(2**n):
        PDJ = walk.sum(D for D in range(2**n) if not D & J)
        J_set = [s for s in range(1, n + 1) if J >> (s - 1) & 1]
        factorization.append({"J": J_set, "residual": op_norm(P - PDJ @ _young_sum(alg, n, J))})
        if 0 < J < full:
            alternating = alternating + (-1.0) ** len(J_set) * PDJ

    sign_S = (-1.0) ** n
    euler = max(
        op_norm(alternating - (-sign_S * eye + walk[full] - total)),
        op_norm(alternating.conj().T - (-sign_S * eye + U - P)),
    )
    return {
        "n": n,
        "group_sum": op_norm(total - P),
        "factorization": factorization,
        "euler_solomon": euler,
        "longest_vs_U": op_norm(walk[full] - U),
    }
