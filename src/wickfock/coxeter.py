"""The symmetric group S_{n+1} as a Coxeter group, and its operator sums.

Generator letters are 1-based adjacent transpositions s_i = (i, i+1); right
multiplication by s_i swaps the entries at positions i, i+1 of a one-line form.

The quasimultiplicative map sends a reduced word i_1 ... i_k to the matrix
product T_{i_1} ... T_{i_k}; it is well defined on the group only when T
satisfies the braid condition.  Both sums below read one reduced word per
element, u s_m ... s_k, so they are computed for any T, and agree there;
whether the identities they are compared against hold rests on the braid
relation, which the :class:`~wickfock.algebra.Algebra` decides
(``alg.braided``) and the reports read.

:func:`group_sum` builds P(S_{n+1}) by its right cosets of S_m,
P(S_{m+1}) = P(S_m)(1 + T_m + T_m T_{m-1} + ... + T_m ... T_1), in
n(n+1)/2 right multiplications by a T_i.  :func:`descent_sums` adds phi
over each of the 2^n descent classes into one bucket, a row of one array
that only :func:`coxeter_checks` takes, and drops.  The walk
visits descent classes, not elements: every w in S_{m+1} is uniquely
u s_m s_{m-1} ... s_k with u in S_m and 1 <= k <= m+1 (m+1 inserted at
position k of u's one-line form, the lengths adding), so
phi(w) = phi(u) T_m ... T_k and the descent set of w depends only on that
of u and on k (:func:`_walk`).  When T is weight-preserving (it maps
e_a (x) e_b into the span of e_a (x) e_b and e_b (x) e_a), every phi(w) is
block-diagonal on the weight spaces of H^(x)(n+1), the spans of the words
with one letter content, and both sums keep only those blocks
(:class:`~wickfock.tensorops.Layout`); any other T is one dense block.  The
descent-class sum P(D_J), over the elements with no descent in J, adds the
buckets of the subsets of the complement of J: :func:`coxeter_checks` takes
every one of them at once by the subset-sum transform of Yates (1937), n
passes over the bucket array in place, after which row mask holds the sum
of the buckets of its submasks.  The alternating Euler-Solomon side adds
those rows, and :func:`coxeter_checks` compares them against the group sum
and the independent constructions of P_{n+1}, U_n and P(W_J), read from
the :class:`~wickfock.algebra.Algebra` that keeps them; the group-sum
check sets the right-coset product against the left factorization
P_{n+1} = (1 (x) P_n) R_{n+1}.  Every operand stays in the layout of level
n+1, P(W_J) included (built per block from the blocks of the recursive
P_b), so each residual is the largest over the blocks and a
weight-preserving T places no dense matrix.  :func:`check_walk` guards
the walk, on the operators' entries in its layout; the group sum holds a
few operators and takes only the level guard of its
:class:`~wickfock.algebra.Algebra`.

>>> from wickfock.algebra import Algebra
>>> from wickfock.model import preset
>>> buckets = descent_sums(Algebra(preset("q-ccr", 1, q=0.5)), 2)  # d=1: phi(w) = q^length(w)
>>> buckets[:, 0].real.tolist()  # descent sets {}, {1}, {2}, {1, 2}
[1.0, 0.75, 0.75, 0.125]
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .tensorops import (
    BlockOperator,
    op_norm,
    packed_identity,
    packed_size,
    slot_step,
)

if TYPE_CHECKING:
    from .algebra import Algebra

__all__ = [
    "MAX_RANK",
    "MAX_WALK_BYTES",
    "check_walk",
    "descent_sums",
    "group_sum",
    "coxeter_checks",
]

MAX_RANK = 6  # guard: S_7 has 5040 elements
MAX_WALK_BYTES = 2 * 1024**3  # fixed guard on the matrices one walk keeps live
# per packed entry, beyond the operators of 16-byte entries: index arrays and
# the checks' operands; fitted when slot steps kept per-entry tables, so high now
WALK_ENTRY_BYTES = 480


def check_walk(d: int, n: int, weight: bool = False) -> None:
    """Refuse, before anything is allocated, a walk of S_{n+1} at dimension d
    whose rank lies outside 1..MAX_RANK or whose matrices would hold more
    than MAX_WALK_BYTES: the 2^n buckets, the current product of the walk's
    chain and the next, and then the copy of the longest bucket, the
    alternating Euler-Solomon sum and P_{n+1}/U_n, each one operator of
    16-byte entries.  In the dense layout an operator has d^(2(n+1))
    entries; in the weight layout (``weight``: T is weight-preserving) it
    has the packed entries of the level
    (:func:`~wickfock.tensorops.packed_size`), and each entry adds
    WALK_ENTRY_BYTES for the index arrays and the operands of
    :func:`coxeter_checks`.  That value was fitted while the slot step still
    kept per-entry tables, so it now overestimates."""
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank n={n} out of guard range 1..{MAX_RANK}")
    held = 2**n + 5
    if weight:
        entries = packed_size(d, n + 1)
        need = (16 * held + WALK_ENTRY_BYTES) * entries
        layout = f" in weight blocks of {entries} entries"
    else:
        need = 16 * held * d ** (2 * (n + 1))
        layout = ""
    if need > MAX_WALK_BYTES:
        raise ValueError(
            f"the Coxeter sums at rank n={n}, d={d}{layout} need about {need} bytes, "
            f"over the {MAX_WALK_BYTES} byte guard"
        )


def _walk(n: int, start: np.ndarray, apply) -> np.ndarray:
    """The descent-class sums of phi over S_{n+1}, from the image ``start``
    of the identity, ``apply(i, X)`` giving X T_i.  Level by level, bucket J
    of S_m (a mask over descents 1..m-1) holds the sum of phi(u) over its
    class; each w = u s_m ... s_k of S_{m+1} has the descents of u below
    k-1, the descent k when k <= m, and each descent j >= k of u moved to
    j+1, so bucket J times the chain T_m, T_m T_{m-1}, ..., T_m ... T_1 adds
    into the buckets K(J, k) of S_{m+1}.  K > J for k <= m, and k = m+1
    leaves bucket J where it is, so running J downward updates one array in
    place: sum_{m<=n} m 2^(m-1) calls of ``apply`` (321 at rank 6), with only
    the buckets and the current chain product live.  Returns the buckets,
    stacked."""
    sums = np.zeros((2**n, *start.shape), dtype=start.dtype)
    sums[0] = start
    for m in range(1, n + 1):
        for J in range(2 ** (m - 1) - 1, -1, -1):
            product = sums[J]
            for k in range(m, 0, -1):
                product = apply(k, product)
                below = J & ((1 << (k - 1)) - 1) >> 1  # the descents 1..k-2 of u
                sums[(J >> (k - 1)) << k | 1 << (k - 1) | below] += product
    return sums


def descent_sums(alg: Algebra, n: int) -> np.ndarray:
    """Sums of phi over the descent classes of S_{n+1}, stacked: row
    ``mask`` adds phi(w) over the w whose descent set is
    {i : bit i-1 of mask}.

    One walk over the descent classes (:func:`_walk`), with each row packed
    in the blocks of ``alg.layout(n + 1)`` (the weight spaces when T is
    weight-preserving, else one dense block) as
    :meth:`~wickfock.tensorops.BlockOperator.from_packed` reads it, and
    right multiplication by T_i the :func:`~wickfock.tensorops.slot_step`.
    Refused by :func:`check_walk` before anything is allocated.
    """
    check_walk(alg.spec.d, n, alg.weight)
    layout = alg.layout(n + 1)
    return _walk(n, packed_identity(layout), slot_step(alg.T, layout))


def group_sum(alg: Algebra, n: int) -> BlockOperator:
    """P(S_{n+1}) = prod_{m=1..n} (1 + T_m + T_m T_{m-1} + ... + T_m ... T_1),
    each chain term added as the :func:`~wickfock.tensorops.slot_step` makes
    it: n(n+1)/2 steps (21 at rank 6) with three operators live, in the
    layout of :func:`descent_sums`.  No walk guard: ``alg.layout(n + 1)``
    runs the level guard, which budgets more per entry than the three
    operators take."""
    layout = alg.layout(n + 1)
    step, total = slot_step(alg.T, layout), packed_identity(layout)
    for m in range(1, n + 1):
        term = total
        for k in range(m, 0, -1):
            term = step(k, term)
            total += term  # P(S_m) is read only by the chain's first step
    return BlockOperator.from_packed(layout, total)


def _young_sums(alg: Algebra, n: int):
    """P(W_J) for every generator set J (a bit mask), in mask order, built
    independently of the walk: W_J is the Young subgroup of the groups of
    consecutive slots that J joins (slots s, s+1 share a group iff s is in
    J), so P(W_J) is the tensor product of the block P_b of each group.  In
    the layout of H^(x)(n+1), entry [u, v] of P(W_J) is the product over the
    groups g of P_b[u_g, v_g], u_g the segment of the word u on the slots of
    g: for a group of one slot, whether the letters of u and v there agree;
    for a wider one, read from the blocks of ``alg.P(b)`` at the position
    its layout gives for [u_g, v_g] (-1, a zero, where the letter contents
    of u_g and v_g differ), kept as int32 once per group (first, last) for
    all J."""
    d, level = alg.spec.d, n + 1
    layout = alg.layout(level)
    rows, cols = layout.entries(row=True), layout.entries()  # the words of each packed entry
    groups: dict = {}  # (first, last) -> the letter test of one slot, or the index of a wider group

    def factor(first: int, last: int) -> np.ndarray:
        if (first, last) not in groups:
            u, v = (words // d ** (level - last) % d ** (last - first + 1) for words in (rows, cols))
            groups[first, last] = (u == v if first == last
                                   else alg.P(last - first + 1).layout.index(u, v).astype(np.int32))
        index = groups[first, last]
        return index if first == last else np.where(index >= 0, alg.P(last - first + 1).packed()[index], 0)

    for J in range(2**n):
        product = np.ones(rows.size, dtype=np.complex128)
        first = 1
        for s in range(1, level + 1):
            if not J >> (s - 1) & 1:  # bit n is never set: the last group closes at slot n+1
                product *= factor(first, s)
                if J | 1 << (s - 1) | 1 << first >> 2 == 2**n - 1 | 1 << (s - 1):  # no later J reads the group
                    del groups[first, s]
                first = s + 1
        yield BlockOperator.from_packed(layout, product)


def coxeter_checks(alg: Algebra, n: int) -> dict:
    """Every Coxeter identity at rank n from the buckets of the walk of
    S_{n+1}, dropped on return, and the group sum that ``alg`` keeps
    (``alg.group_sum(n)``), as operator norm residuals on H^(x)(n+1):

    - ``group_sum``: the right-coset P(S_{n+1}) against the recursive P_{n+1};
    - ``factorization``: per J (in mask order), P_{n+1} against
      P(D_J) P(W_J), where D_J holds the elements with no descent in J;
    - ``euler_solomon``: over proper nonempty J, with sigma_0 the longest
      element (the only one with every descent),

          sum_J (-1)^|J| P(D_J)   = -(-1)^n 1 + phi(sigma_0) - P(S_{n+1})
          sum_J (-1)^|J| P(D_J)^* =  (-1)^(n+1) 1 + U_n - P_{n+1}

      the larger of the two residuals; the second right side uses the
      independent product constructions of U_n and P_{n+1};
    - ``longest_vs_U``: phi(sigma_0) against U_n.

    phi(sigma_0), the bucket of every descent, is copied out before the
    subset sums take the buckets' place.  Every operand is a
    :class:`~wickfock.tensorops.BlockOperator` in the layout of the walk, so
    no dense matrix is placed when T is weight-preserving, and every
    residual is the largest over the blocks.
    """
    buckets = descent_sums(alg, n)
    full = 2**n - 1
    layout = alg.layout(n + 1)
    P = alg.P(n + 1)
    U = alg.U(n)
    total = alg.group_sum(n)
    longest = BlockOperator.from_packed(layout, buckets[full].copy())
    for i in range(n):  # rows with bit i set add the row without it
        pairs = buckets.reshape(-1, 2, 2**i, layout.size)
        pairs[:, 1] += pairs[:, 0]

    factorization = []
    alternating = np.zeros(layout.size, dtype=np.complex128)
    for J, PWJ in enumerate(_young_sums(alg, n)):
        PDJ = buckets[full ^ J]
        J_set = [s for s in range(1, n + 1) if J >> (s - 1) & 1]
        factorization.append({"J": J_set, "residual": op_norm(P - BlockOperator.from_packed(layout, PDJ) @ PWJ)})
        if 0 < J < full:
            alternating += (-1.0) ** len(J_set) * PDJ

    sign_S = (-1.0) ** n
    eye = BlockOperator.identity(layout)
    alternating = BlockOperator.from_packed(layout, alternating)
    euler = max(
        op_norm(alternating - (-sign_S * eye + longest - total)),
        op_norm(alternating.adjoint() - (-sign_S * eye + U - P)),
    )
    return {
        "n": n,
        "group_sum": op_norm(total - P),
        "factorization": factorization,
        "euler_solomon": euler,
        "longest_vs_U": op_norm(longest - U),
    }
