"""The symmetric group S_{n+1} as a Coxeter group, and its operator sums.

Permutations are tuples in one-line notation over {1, ..., n+1}; generator
letters are 1-based adjacent transpositions s_i = (i, i+1), composed as
functions, (u * v)(x) = u(v(x)).  Right multiplication by s_i swaps the
entries at positions i, i+1 of the one-line form.

The quasimultiplicative map sends a reduced word i_1 ... i_k to the matrix
product T_{i_1} ... T_{i_k}; it is well defined only when T satisfies the
braid condition, so every evaluation is gated on the braid residual unless
explicitly forced.

>>> reduced_word((3, 2, 1))
(1, 2, 1)
>>> [e.length for e in enumerate_group(2)]
[0, 1, 1, 2, 2, 3]
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import TensorOperator
from .tensorops import BRAID_TOL, apply_slots, braid_residual, build_P, build_U, op_norm, word_product

__all__ = [
    "BraidConditionError",
    "CoxeterElement",
    "DescentData",
    "MAX_RANK",
    "enumerate_group",
    "reduced_word",
    "inversion_count",
    "compose",
    "longest_element",
    "phi",
    "phi_table",
    "group_sum",
    "descent_data",
    "partial_sum",
    "euler_solomon_residual",
]

MAX_RANK = 6  # guard: S_7 has 5040 elements


class BraidConditionError(ValueError):
    """The operator fails the braid condition, so the quasimultiplicative
    map is not well defined on reduced words."""


@dataclass(frozen=True)
class CoxeterElement:
    """A permutation with its inversion length and canonical reduced word."""

    perm: tuple[int, ...]
    length: int
    word: tuple[int, ...]


def inversion_count(perm: tuple[int, ...]) -> int:
    n = len(perm)
    return sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])


def compose(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """(u * v)(x) = u(v(x))."""
    return tuple(u[v[x] - 1] for x in range(len(u)))


def _apply_right(perm: tuple[int, ...], i: int) -> tuple[int, ...]:
    """perm * s_i: swap entries at positions i, i+1 (1-based)."""
    p = list(perm)
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _descents(perm: tuple[int, ...]) -> list[int]:
    """Positions i with perm(i) > perm(i+1), i.e. right multiplications by
    s_i that shorten the element."""
    return [i for i in range(1, len(perm)) if perm[i - 1] > perm[i]]


def reduced_word(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical reduced word, peeling the smallest descent each step.

    The letters collected while reducing multiply back in reverse, so the
    returned word w satisfies s_{w_1} ... s_{w_k} = perm with k equal to the
    inversion count.

    >>> reduced_word((1, 2, 3))
    ()
    >>> reduced_word((2, 3, 1))
    (1, 2)
    """
    collected = []
    cur = perm
    while True:
        ds = _descents(cur)
        if not ds:
            break
        i = ds[0]
        collected.append(i)
        cur = _apply_right(cur, i)
    return tuple(reversed(collected))


def longest_element(n: int) -> tuple[int, ...]:
    """The order-reversing permutation of S_{n+1}, of length n(n+1)/2."""
    return tuple(range(n + 1, 0, -1))


def enumerate_group(n: int) -> list[CoxeterElement]:
    """All of S_{n+1}, sorted by (length, one-line form), 1 <= n <= MAX_RANK."""
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank n={n} out of guard range 1..{MAX_RANK}")
    elements = []
    for perm in itertools.permutations(range(1, n + 2)):
        elements.append(
            CoxeterElement(perm=perm, length=inversion_count(perm), word=reduced_word(perm))
        )
    elements.sort(key=lambda e: (e.length, e.perm))
    return elements


def _gate_braid(T: TensorOperator, force: bool, tol: float = BRAID_TOL) -> None:
    if force:
        return
    r = braid_residual(T)
    if r > tol:
        raise BraidConditionError(
            f"braid residual {r:.3e} exceeds {tol:.1e}; the map is only well "
            "defined for braided operators (pass force=True to override)"
        )


def phi(T: TensorOperator, element: CoxeterElement, n: int, force: bool = False) -> TensorOperator:
    """Image of one group element: the product of amplified T_i along the
    canonical reduced word, on H^(x)(n+1)."""
    if len(element.perm) != n + 1:
        raise ValueError(f"element of S_{len(element.perm)} does not match n={n}")
    _gate_braid(T, force)
    return word_product(T, element.word, n + 1)


def phi_table(
    T: TensorOperator, n: int, force: bool = False
) -> dict[tuple[int, ...], np.ndarray]:
    """phi on all of S_{n+1} by dynamic programming along the weak order.

    Each element of length >= 1 is reached from the shorter element obtained
    by peeling its smallest descent, so one application of T_i per group
    element reproduces the canonical-word products.
    """
    _gate_braid(T, force)
    d = T.d
    table: dict[tuple[int, ...], np.ndarray] = {}
    for el in enumerate_group(n):
        if el.length == 0:
            table[el.perm] = np.eye(d ** (n + 1), dtype=np.complex128)
        else:
            i = _descents(el.perm)[0]
            table[el.perm] = apply_slots(T.mat, d, i, table[_apply_right(el.perm, i)])
    return table


def _sum_from_table(
    d: int, level: int, table: dict[tuple[int, ...], np.ndarray], elements
) -> TensorOperator:
    total = np.zeros((d**level, d**level), dtype=np.complex128)
    for el in elements:
        total = total + table[el.perm]
    return TensorOperator(d, level, total)


def group_sum(T: TensorOperator, n: int, force: bool = False) -> TensorOperator:
    """P(S_{n+1}) = sum of phi over the whole group, in canonical enumeration
    order; equals the recursive P_{n+1} for braided T."""
    table = phi_table(T, n, force=force)
    return _sum_from_table(T.d, n + 1, table, enumerate_group(n))


@dataclass(frozen=True)
class DescentData:
    """A subset J of generators with its descent class and parabolic subgroup.

    D_J holds the elements lengthened by every s in J; W_J is the subgroup
    generated by J.  Every group element factors uniquely as d * w with
    d in D_J, w in W_J.
    """

    n: int
    J: frozenset[int]
    D_J: tuple[CoxeterElement, ...]
    W_J: tuple[CoxeterElement, ...]


def descent_data(n: int, J) -> DescentData:
    """Descent class and parabolic subgroup for J a subset of {1, ..., n}."""
    Jset = frozenset(J)
    for s in Jset:
        if not 1 <= s <= n:
            raise ValueError(f"generator index {s} out of range 1..{n}")
    elements = enumerate_group(n)
    D = tuple(el for el in elements if all(s not in _descents(el.perm) for s in Jset))
    W = tuple(el for el in elements if _in_parabolic(el.perm, Jset))
    return DescentData(n=n, J=Jset, D_J=D, W_J=W)


def _in_parabolic(perm: tuple[int, ...], J: frozenset[int]) -> bool:
    """Membership in W_J: the permutation moves points only within the
    maximal consecutive blocks carved out by J (points s, s+1 share a block
    iff s is in J)."""
    size = len(perm)
    block = [0] * size
    for p in range(1, size):
        block[p] = block[p - 1] if p in J else block[p - 1] + 1
    return all(block[x] == block[perm[x] - 1] for x in range(size))


def partial_sum(T: TensorOperator, elements, force: bool = False) -> TensorOperator:
    """Sum of phi over an arbitrary list of elements of one group S_{n+1}."""
    elements = list(elements)
    if not elements:
        raise ValueError("cannot infer the group from an empty element list")
    sizes = {len(el.perm) for el in elements}
    if len(sizes) != 1:
        raise ValueError(f"elements come from different groups: sizes {sorted(sizes)}")
    n = sizes.pop() - 1
    table = phi_table(T, n, force=force)
    return _sum_from_table(T.d, n + 1, table, elements)


def euler_solomon_residual(T: TensorOperator, n: int, force: bool = False) -> float:
    """Max residual of the quasimultiplicative Euler-Solomon identity and its
    adjoint form on H^(x)(n+1).

    Over proper nonempty subsets J of the generator set S (|S| = n):

        sum_J (-1)^|J| P(D_J)   = -(-1)^n 1 + phi(sigma_0) - P(S_{n+1})
        sum_J (-1)^|J| P(D_J)^* =  (-1)^(n+1) 1 + U_n - P_{n+1}

    The first right side uses the phi table, the second uses the independent
    product constructions of U_n and P_{n+1}.
    """
    if not 1 <= n <= 5:
        raise ValueError(f"rank n={n} out of guard range 1..5")
    _gate_braid(T, force)
    d = T.d
    level = n + 1
    table = phi_table(T, n, force=True)
    elements = enumerate_group(n)
    descent_sets = {el.perm: frozenset(_descents(el.perm)) for el in elements}

    dim = d**level
    lhs4 = np.zeros((dim, dim), dtype=np.complex128)
    lhs5 = np.zeros((dim, dim), dtype=np.complex128)
    for mask in range(1, 2**n - 1):
        J = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        sign = -1.0 if bin(mask).count("1") % 2 else 1.0
        PDJ = np.zeros((dim, dim), dtype=np.complex128)
        for el in elements:
            if not (J & descent_sets[el.perm]):
                PDJ = PDJ + table[el.perm]
        lhs4 = lhs4 + sign * PDJ
        lhs5 = lhs5 + sign * PDJ.conj().T

    eye = np.eye(dim, dtype=np.complex128)
    sigma0 = table[longest_element(n)]
    group_total = _sum_from_table(d, level, table, elements).mat

    sign_S = -1.0 if n % 2 else 1.0
    rhs4 = -sign_S * eye + sigma0 - group_total
    rhs5 = -sign_S * eye + build_U(T, n).mat - build_P(T, level).mat
    return max(op_norm(lhs4 - rhs4), op_norm(lhs5 - rhs5))
