"""Reference constructions that the tests compare the library against.

No wickfock run uses these.  Each builds its object a second way, from the
definitions; ``phi`` and ``build_Rtilde`` reuse ``word_product`` and
``apply_slots``, which the tests check against :func:`amplify`.

- The group element by element (Bożejko-Speicher, Math. Ann. 300, 1994):
  :class:`CoxeterElement`, :func:`enumerate_group`, :func:`reduced_word`,
  :func:`inversion_count`, :func:`descents`, :func:`compose` and
  :func:`longest_element`.
  ``test_coxeter.py`` checks them by brute force (``test_enumerate_*``,
  ``test_reduced_word_basics``, ``test_reduced_words_multiply_back``) and
  builds D_J and W_J from them (``test_unique_factorization``).
- :func:`phi`, one element along its canonical reduced word: the reference
  for the walk's buckets (``test_descent_sums_extremes``,
  ``test_descent_sums_match_phi_grouped_by_descent_set``,
  ``test_descent_factorization_example``), for U_n
  (``test_phi_longest_matches_U``) and for word independence
  (``test_matsumoto_word_independence``, acceptance criterion 09).
- :func:`amplify`, T_i as an explicit Kronecker product: the reference for
  ``apply_slots`` and ``word_product``
  (``test_apply_slots_and_word_product_match_kron_products``), for the braid
  relation at every position (``test_braid_relation_at_every_position``)
  and for the per-k kernels ker(1 + T_k) of the kernel theorem
  (``test_subspace_sum_flip_level3``,
  ``test_ideal_complement_matches_the_stacked_level_L_kernels``).
- :func:`build_R`, :func:`build_P` and :func:`build_U`, each one dense
  matrix by the product and sum recursions: the references for the blocks
  the :class:`~wickfock.algebra.Algebra` builds
  (``test_memoized_operators_equal_the_builders_bit_for_bit``,
  ``test_blocked_operators_equal_the_dense_references``, bit for bit in
  ``test_one_dense_block_is_the_dense_build``), and the dense side of the
  walk and Coxeter tests.
- :func:`kernel_projector` and :func:`ideal_complement_projector`, the
  projectors onto ker P and ker S from one eigendecomposition of the whole
  matrix, with every amplification a Kronecker product: the references for
  the kernels decided per block (``test_blocked_operators_equal_the_dense_references``,
  ``test_kernel_is_memoized_per_rank_tolerance``).
- :func:`build_Rtilde` and :func:`build_PDm`, P(D_m) as the product of the
  Rt_k: the reference for the walk's bucket sum P(D_J), J = {1..m-1}
  (``test_factorization_m_form``, acceptance criterion 07).
- :func:`annihilate_mu`, the free left contraction, which ``fock.annihilate``
  must equal when T = 0 (``test_annihilate_free_reduces_to_mu``).
- :func:`normal_order_paths`, Wick ordering path by path, each word rewritten
  again every time a path reaches it: the reference for the merged pass of
  ``rewrite.normal_order`` (``test_normal_order_matches_the_path_expansion``,
  ``test_normal_order_matches_the_path_expansion_on_braided_families``,
  ``test_normal_order_matches_the_path_expansion_on_rotated_hecke``) and for
  its work (``test_normal_order_rewrites_each_distinct_word_once``).

>>> reduced_word((3, 2, 1))
(1, 2, 1)
>>> [e.length for e in enumerate_group(2)]
[0, 1, 1, 2, 2, 3]
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from wickfock import rewrite
from wickfock.coxeter import MAX_RANK, _apply_right
from wickfock.fock import GradedVector
from wickfock.model import SpecError, TensorOperator, WickSpec
from wickfock.tensorops import _require_level2, apply_slots, longest_word, word_product


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


def descents(perm: tuple[int, ...]) -> list[int]:
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
        ds = descents(cur)
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


def phi(T: TensorOperator, element: CoxeterElement, n: int) -> TensorOperator:
    """Image of one group element: the product of amplified T_i along the
    canonical reduced word, on H^(x)(n+1)."""
    if len(element.perm) != n + 1:
        raise ValueError(f"element of S_{len(element.perm)} does not match n={n}")
    return word_product(T, element.word, n + 1)


def amplify(T: TensorOperator, i: int, n: int) -> TensorOperator:
    """T_i = 1 (x) ... (x) 1 (x) T (x) 1 (x) ... (x) 1 on H^(x)n, acting on
    slots i, i+1 (positions are 1-based, 1 <= i <= n-1)."""
    _require_level2(T)
    if n < 2:
        raise ValueError(f"amplification needs level n >= 2, got {n}")
    if not 1 <= i <= n - 1:
        raise ValueError(f"position i={i} out of range 1..{n - 1}")
    d = T.d
    left = np.eye(d ** (i - 1), dtype=np.complex128)
    right = np.eye(d ** (n - i - 1), dtype=np.complex128)
    return TensorOperator(d, n, np.kron(np.kron(left, T.mat), right))


def build_R(T: TensorOperator, n: int) -> TensorOperator:
    """R_n = 1 + T_1 + T_1 T_2 + ... + T_1 ... T_{n-1} as one dense matrix;
    R_0 = R_1 = 1."""
    _require_level2(T)
    if n < 0:
        raise ValueError(f"level n must be >= 0, got {n}")
    d = T.d
    total = term = np.eye(d**n, dtype=np.complex128)
    for i in range(1, n):
        term = apply_slots(T.mat, d, i, term)
        total = total + term
    return TensorOperator(d, n, total)


def build_P(T: TensorOperator, n: int) -> TensorOperator:
    """P_n as one dense matrix, by P_2 = R_2, P_{n+1} = (1 (x) P_n) R_{n+1};
    P_0 = P_1 = 1."""
    _require_level2(T)
    if n < 0:
        raise ValueError(f"level n must be >= 0, got {n}")
    d = T.d
    if n < 2:
        return TensorOperator(d, n, np.eye(d**n, dtype=np.complex128))
    P = np.eye(d, dtype=np.complex128)
    for m in range(2, n + 1):
        P = apply_slots(P, d, 2, build_R(T, m).mat, left=True)
    return TensorOperator(d, n, P)


def build_U(T: TensorOperator, n: int) -> TensorOperator:
    """U_n = (T_1 ... T_n)(T_1 ... T_{n-1}) ... (T_1 T_2) T_1 on H^(x)(n+1),
    as one dense matrix."""
    _require_level2(T)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return word_product(T, longest_word(n), n + 1)


def kernel_projector(A: np.ndarray, rank_tol: float) -> np.ndarray:
    """The projector onto the kernel of a dense self-adjoint matrix, from one
    eigendecomposition of the whole matrix under the rank rule."""
    evals, evecs = np.linalg.eigh((A + A.conj().T) / 2.0)
    zero = np.abs(evals) <= rank_tol * max(1.0, float(np.max(np.abs(evals), initial=0.0)))
    return evecs[:, zero] @ evecs[:, zero].conj().T


def ideal_complement_projector(T: TensorOperator, level: int, rank_tol: float) -> np.ndarray:
    """The projector onto ker S, S = sum_k 1 (x) Pi (x) 1, with every
    operator dense and amplified by Kronecker products."""
    d = T.d
    Pi = TensorOperator(d, 2, kernel_projector(np.eye(d * d) + T.mat, rank_tol))
    S = sum(amplify(Pi, k, level).mat for k in range(1, level))
    return kernel_projector(S, rank_tol)


def build_Rtilde(T: TensorOperator, k: int, n: int) -> TensorOperator:
    """Rt_k = 1 + T_{k-1} + T_{k-2}T_{k-1} + ... + T_1 T_2 ... T_{k-1},
    with the T_i amplified into level n (2 <= k <= n)."""
    _require_level2(T)
    if not 2 <= k <= n:
        raise ValueError(f"position k={k} out of range 2..{n}")
    d = T.d
    total = term = np.eye(d**n, dtype=np.complex128)
    for j in range(k - 1, 0, -1):
        term = apply_slots(T.mat, d, j, term, left=True)
        total = total + term
    return TensorOperator(d, n, total)


def build_PDm(T: TensorOperator, n: int, m: int) -> TensorOperator:
    """P(D_m) = Rt_{n+m} Rt_{n+m-1} ... Rt_{m+1} on H^(x)(n+m).

    Satisfies P_{n+m} = P(D_m) (P_m (x) 1_n) for braided T.
    """
    _require_level2(T)
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got n={n}, m={m}")
    d = T.d
    level = n + m
    acc = np.eye(d**level, dtype=np.complex128)
    for k in range(level, m, -1):
        acc = acc @ build_Rtilde(T, k, level).mat
    return TensorOperator(d, level, acc)


def annihilate_mu(i: int, v: GradedVector) -> GradedVector:
    """The free left contraction mu(e_i^*): degree n maps to the e_i slice
    of degree n-1; the vacuum maps to zero."""
    d = v.d
    if not 0 <= i < d:
        raise ValueError(f"index {i} out of range 0..{d - 1}")
    N = v.max_degree
    out = [np.zeros(d**n, dtype=np.complex128) for n in range(N + 1)]
    for n in range(1, N + 1):
        out[n - 1] = v.comps[n].reshape(d, d ** (n - 1))[i].copy()
    return GradedVector(d, tuple(out))


def normal_order_paths(spec: WickSpec, w) -> rewrite.WickPolynomial:
    """Wick order a free word or a linear combination of free words,
    rewriting the leftmost redex until none remains, one path of the
    rewrite tree at a time."""
    if isinstance(w, tuple):
        pending: list[tuple[rewrite.FreeWord, complex]] = [(w, 1.0 + 0j)]
    elif isinstance(w, dict):
        pending = [(word, complex(c)) for word, c in w.items()]
    else:
        raise TypeError(f"cannot normal order a {type(w).__name__}")
    for word, _ in pending:
        for idx, _starred in word:
            if not 0 <= idx < spec.d:
                raise SpecError(f"generator a{idx + 1} out of range 1..{spec.d}")

    result: dict[rewrite.WickMonomial, complex] = {}
    while pending:
        word, coeff = pending.pop()
        if coeff == 0:
            continue
        t = rewrite.redex_position(word)
        if t is None:
            mono = rewrite.WickMonomial(
                tuple(i for i, s in word if not s), tuple(i for i, s in word if s)
            )
            result[mono] = result.get(mono, 0j) + coeff
        else:
            for new_word, c in rewrite.rewrite_step(spec, word, t).items():
                pending.append((new_word, coeff * c))
    return rewrite.WickPolynomial(result)
