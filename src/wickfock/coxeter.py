"""The symmetric group S_{n+1} as a Coxeter group, and its operator sums.

Permutations are tuples in one-line notation over {1, ..., n+1}; generator
letters are 1-based adjacent transpositions s_i = (i, i+1), composed as
functions, (u * v)(x) = u(v(x)).  Right multiplication by s_i swaps the
entries at positions i, i+1 of the one-line form.

The quasimultiplicative map sends a reduced word i_1 ... i_k to the matrix
product T_{i_1} ... T_{i_k}; it is well defined only when T satisfies the
braid condition, so every evaluation is gated on the braid residual unless
explicitly forced.

Every operator sum over the group comes from one walk of S_{n+1}:
:func:`descent_sums` adds each phi(w) into one of 2^n buckets keyed by the
descent set of w.  The group sum P(S_{n+1}), every descent-class sum P(D_J)
and both sides of the Euler-Solomon identity are sums of buckets, which
:func:`coxeter_checks` compares against the independent product
constructions of P_{n+1}, U_n and P(W_J).  :func:`phi` evaluates a single
element along its canonical reduced word and is the reference for the walk.

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
    "MAX_RANK",
    "MAX_WALK_BYTES",
    "enumerate_group",
    "reduced_word",
    "inversion_count",
    "compose",
    "longest_element",
    "phi",
    "descent_sums",
    "group_sum",
    "coxeter_checks",
]

MAX_RANK = 6  # guard: S_7 has 5040 elements
MAX_WALK_BYTES = 2 * 1024**3  # fixed guard on the matrices one walk keeps live


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


def descent_sums(T: TensorOperator, n: int, force: bool = False) -> list[np.ndarray]:
    """Sums of phi over the descent classes of S_{n+1}: ``sums[mask]`` adds
    phi(w) over the w whose descent set is {i : bit i-1 of mask}.

    One depth-first walk of the canonical-word tree: each element of length
    >= 1 is reached from the shorter element obtained by peeling its
    smallest descent, so one application of T_i per group element
    reproduces the canonical-word products, and only the 2^n buckets and the
    products along the current path are live.  Refused before allocating
    when those matrices, with the sum and P_{n+1}/U_n beside them, would
    exceed MAX_WALK_BYTES.
    """
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank n={n} out of guard range 1..{MAX_RANK}")
    dim = T.d ** (n + 1)
    need = (2**n + n * (n + 1) // 2 + 3) * dim * dim * 16
    if need > MAX_WALK_BYTES:
        raise ValueError(
            f"the Coxeter sums at rank n={n}, d={T.d} need about {need} bytes, "
            f"over the {MAX_WALK_BYTES} byte guard"
        )
    _gate_braid(T, force)
    sums = [np.zeros((dim, dim), dtype=np.complex128) for _ in range(2**n)]

    def visit(perm: tuple[int, ...], mat: np.ndarray) -> None:
        sums[sum(1 << (i - 1) for i in _descents(perm))] += mat
        for i in range(1, n + 1):
            if perm[i - 1] < perm[i]:
                child = _apply_right(perm, i)
                if _descents(child)[0] == i:
                    visit(child, apply_slots(T.mat, T.d, i, mat))

    visit(tuple(range(1, n + 2)), np.eye(dim, dtype=np.complex128))
    return sums


def group_sum(T: TensorOperator, n: int, force: bool = False) -> TensorOperator:
    """P(S_{n+1}) = sum of phi over the whole group; equals the recursive
    P_{n+1} for braided T."""
    return TensorOperator(T.d, n + 1, sum(descent_sums(T, n, force=force)))


def _young_sum(T: TensorOperator, n: int, J: int) -> np.ndarray:
    """P(W_J) for the generator set J (a bit mask), built independently of
    the walk: W_J is the Young subgroup of the blocks of consecutive slots
    that J joins (slots s, s+1 share a block iff s is in J), so P(W_J) is
    the tensor product of the block P_b."""
    acc = np.eye(T.d ** (n + 1), dtype=np.complex128)
    start = 1
    for s in range(1, n + 2):
        if not J >> (s - 1) & 1:  # bit n is never set: the last block closes at slot n+1
            if s > start:
                acc = apply_slots(build_P(T, s - start + 1).mat, T.d, start, acc, left=True)
            start = s + 1
    return acc


def coxeter_checks(T: TensorOperator, n: int, force: bool = False) -> dict:
    """Every Coxeter identity at rank n from one walk of S_{n+1}, as operator
    norm residuals on H^(x)(n+1):

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
    if not 1 <= n <= 5:
        raise ValueError(f"rank n={n} out of guard range 1..5")
    sums = descent_sums(T, n, force=force)
    full = 2**n - 1
    eye = np.eye(T.d ** (n + 1), dtype=np.complex128)
    P = build_P(T, n + 1).mat
    U = build_U(T, n).mat
    total = sum(sums)

    factorization = []
    alternating = np.zeros_like(eye)
    for J in range(2**n):
        PDJ = sum(sums[D] for D in range(2**n) if not D & J)
        J_set = [s for s in range(1, n + 1) if J >> (s - 1) & 1]
        factorization.append({"J": J_set, "residual": op_norm(P - PDJ @ _young_sum(T, n, J))})
        if 0 < J < full:
            alternating = alternating + (-1.0) ** len(J_set) * PDJ

    sign_S = (-1.0) ** n
    euler = max(
        op_norm(alternating - (-sign_S * eye + sums[full] - total)),
        op_norm(alternating.conj().T - (-sign_S * eye + U - P)),
    )
    return {
        "n": n,
        "group_sum": op_norm(total - P),
        "factorization": factorization,
        "euler_solomon": euler,
        "longest_vs_U": op_norm(sums[full] - U),
    }
