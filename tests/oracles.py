"""Reference constructions that the tests compare the library against.

No wickfock run uses these.  Each builds its object a second way, from the
definitions, as one dense matrix; the products of the T_i reuse only
``apply_slots`` and its left-hand twin :func:`apply_left`, which the tests
check against :func:`amplify`.

- The group element by element (Bożejko-Speicher, Math. Ann. 300, 1994):
  :class:`CoxeterElement`, :func:`enumerate_group`, :func:`reduced_word`,
  :func:`inversion_count`, :func:`descents`, :func:`compose` and
  :func:`longest_element`.
  ``test_coxeter.py`` checks them by brute force (``test_enumerate_*``,
  ``test_reduced_word_basics``, ``test_reduced_words_multiply_back``) and
  builds D_J and W_J from them (``test_unique_factorization``).
- :func:`walk_elements`, the descent-class sums by a depth-first walk of
  the group, one right multiplication by a T_i per element: the reference
  for the walk over descent classes, bucket by bucket
  (``test_descent_sums_match_the_element_walk``) and for its work
  (``test_walk_makes_one_step_per_class_and_letter``).
- :func:`phi`, one element along its canonical reduced word: the reference
  for the walk's buckets (``test_descent_sums_extremes``,
  ``test_descent_sums_match_phi_grouped_by_descent_set``,
  ``test_descent_factorization_example``), for U_n
  (``test_phi_longest_matches_U``) and for word independence
  (``test_matsumoto_word_independence``, acceptance criterion 09).
- :func:`word_product`, a word in the T_i by ``apply_slots`` from the
  identity: the dense side of :func:`phi` and :func:`build_U`, and of the
  telescoping reference.
- :func:`amplify`, T_i as an explicit Kronecker product: the reference for
  ``apply_slots``, :func:`apply_left` and ``tensorops.word_product`` in either layout
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
- :func:`coxeter_checks`, :func:`young_sum` and :func:`un_checks`, the
  Coxeter and U_n reports with every operand placed as one dense matrix and
  P(W_J) a product of dense P_b by :func:`apply_left`: the references for the
  reports taken per block (``test_coxeter_checks_on_hecke_and_unimodular_flips``,
  ``test_un_laws_on_hecke_and_unimodular_flips``,
  ``test_blocked_reports_on_one_dense_block``).
- :func:`telescoping_residual`, :func:`kernel_1mU2_diag` and
  :func:`nullspace_basis`, the telescoping expansion of 1 - U_n^2, the
  diagnostic on ker(1 - U_n^2) and the nullspace of R_n on dense matrices,
  with the intersection from one eigendecomposition of the whole matrix:
  the references for the reports taken per block
  (``test_blocked_diagnostics_equal_the_dense_references``,
  ``test_blocked_diagnostics_on_rotated_hecke``).
- :func:`wick_ideal_checks` and :func:`relation_check`, the Wick-ideal and
  Fock relation reports on dense matrices, with the dense basis of ker P_n
  (:func:`dense_basis`) and the dense :func:`annihilate` and
  :func:`fock_inner`: the references for the reports taken per block
  through ``Algebra.split`` (``test_blocked_wick_and_fock_reports_equal_the_dense_references``,
  ``test_blocked_wick_and_fock_reports_on_rotated_hecke``).
- :func:`annihilate_mu`, the free left contraction, which ``fock.annihilate``
  must equal when T = 0 (``test_annihilate_free_reduces_to_mu``).
- :func:`normal_order`, Wick ordering into a :class:`WickPolynomial` by the
  leftmost rewrite step (:func:`rewrite_step`), each distinct word once from
  the most inversions down, and :func:`fock_functional`, its vacuum
  coefficient: the reference for ``rewrite.FockFunctional``, which
  evaluates f without the normal form
  (``test_fock_functional_matches_the_normal_form``), and for confluence
  (``conftest.max_confluence_defect``, acceptance criterion 09).
- :func:`normal_order_paths`, Wick ordering path by path, each word rewritten
  again every time a path reaches it: the reference for the merged pass of
  :func:`normal_order` (``test_normal_order_matches_the_path_expansion``,
  ``test_normal_order_matches_the_path_expansion_on_braided_families``,
  ``test_normal_order_matches_the_path_expansion_on_rotated_hecke``).

>>> reduced_word((3, 2, 1))
(1, 2, 1)
>>> [e.length for e in enumerate_group(2)]
[0, 1, 1, 2, 2, 3]
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from wickfock import rewrite
from wickfock.coxeter import MAX_RANK
from wickfock.fock import GradedVector, _pad, _random_graded, create
from wickfock.model import SpecError, TensorOperator, WickSpec
from wickfock.tensorops import _require_level2, apply_slots, longest_word, op_norm


@dataclass(frozen=True)
class CoxeterElement:
    """A permutation with its inversion length and canonical reduced word."""

    perm: tuple[int, ...]
    length: int
    word: tuple[int, ...]


def _apply_right(perm: tuple[int, ...], i: int) -> tuple[int, ...]:
    """perm * s_i: swap entries at positions i, i+1 (1-based)."""
    p = list(perm)
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


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


def walk_elements(n: int, start: np.ndarray, apply) -> np.ndarray:
    """The descent-class sums of phi over S_{n+1} element by element: one
    depth-first walk of the canonical-word tree from the image ``start`` of
    the identity, ``apply(i, X)`` giving X T_i.  Each element of length
    >= 1 is reached from the shorter element obtained by peeling its
    smallest descent, and phi(w) is added into the bucket of its descent
    set: (n+1)! - 1 calls of ``apply``.  Returns the buckets, stacked."""
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

    visit(tuple(range(1, n + 2)), 0, start)
    return sums


def apply_left(op: np.ndarray, d: int, i: int, X: np.ndarray) -> np.ndarray:
    """(1 (x) op (x) 1) X, ``op`` on the consecutive slots from slot i
    (1-based): X viewed as a stack of (slots acted on) x (trailing slots)
    blocks, op applied to each by one matmul; ``tensorops.apply_slots`` is
    the product from the right."""
    k = op.shape[0]
    if i < 1 or X.shape[0] % (d ** (i - 1) * k):
        raise ValueError(f"a {k}x{k} operator at slot {i} does not fit dimension {X.shape[0]}")
    return (op @ X.reshape(d ** (i - 1), k, -1)).reshape(X.shape)


def dense_basis(K) -> np.ndarray:
    """The basis of a ``spectral.Subspace`` as one dense matrix, the
    vectors of its blocks in turn."""
    out = np.zeros((K.d**K.level, K.dim), dtype=np.complex128)
    start = 0
    for words, m in zip(K.parts.words, K.parts.mats):
        out[words, start:start + m.shape[1]] = m
        start += m.shape[1]
    return out


def word_product(T: TensorOperator, word, level: int) -> TensorOperator:
    """T_{w_1} T_{w_2} ... T_{w_k} on H^(x)level as one dense matrix,
    multiplied left to right starting from the identity."""
    _require_level2(T)
    acc = np.eye(T.d**level, dtype=np.complex128)
    for i in word:
        acc = apply_slots(T.mat, T.d, i, acc)
    return TensorOperator(T.d, level, acc)


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
        P = apply_left(P, d, 2, build_R(T, m).mat)
    return TensorOperator(d, n, P)


def build_U(T: TensorOperator, n: int) -> TensorOperator:
    """U_n = (T_1 ... T_n)(T_1 ... T_{n-1}) ... (T_1 T_2) T_1 on H^(x)(n+1),
    as one dense matrix."""
    _require_level2(T)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return word_product(T, longest_word(n), n + 1)


def _is_zero(values: np.ndarray, rank_tol: float) -> np.ndarray:
    return np.abs(values) <= rank_tol * max(1.0, float(np.max(np.abs(values), initial=0.0)))


def kernel_basis(A: np.ndarray, rank_tol: float, refine: bool = False) -> np.ndarray:
    """An orthonormal basis of the kernel of a dense self-adjoint matrix, from
    one eigendecomposition of the whole matrix under the rank rule.  That
    tilts the kernel by about eps ||A|| / gap, gap the smallest kept
    |eigenvalue|, where a block of the weight layout sees only its own norm;
    ``refine`` removes the tilt to first order by the step
    B - C L^-1 C^H A B (C, L the kept eigenvectors and eigenvalues), A B
    taken by a matmul that keeps the exact zeros of A."""
    H = (A + A.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(H)
    zero = _is_zero(evals, rank_tol)
    if not refine:
        return evecs[:, zero]
    B, C = evecs[:, zero], evecs[:, ~zero]
    return np.linalg.qr(B - C @ ((C.conj().T @ (H @ B)) / evals[~zero][:, None]))[0]


def kernel_projector(A: np.ndarray, rank_tol: float, refine: bool = False) -> np.ndarray:
    """The projector onto the kernel of a dense self-adjoint matrix."""
    B = kernel_basis(A, rank_tol, refine)
    return B @ B.conj().T


def nullspace_basis(A: np.ndarray, rank_tol: float) -> np.ndarray:
    """An orthonormal basis of the nullspace of a dense matrix, from one SVD
    of the whole matrix under the rank rule."""
    _, s, vh = np.linalg.svd(A)
    return vh.conj().T[:, _is_zero(s, rank_tol)]


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
        term = apply_left(T.mat, d, j, term)
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


class WickMonomial(NamedTuple):
    """A Wick ordered monomial: creation indices then annihilation indices,
    each a tuple of 0-based generator indices."""

    creation: tuple[int, ...]
    annihilation: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.creation) + len(self.annihilation)

    def to_word(self) -> rewrite.FreeWord:
        return tuple((i, False) for i in self.creation) + tuple(
            (j, True) for j in self.annihilation
        )


@dataclass(frozen=True, eq=False)
class WickPolynomial:
    """A finite linear combination of Wick ordered monomials.

    Exact zero coefficients are pruned at construction; near-zeros are kept
    so that every tolerance decision happens in comparisons, not storage.
    Iteration follows (degree, creation word, annihilation word).
    """

    terms: Mapping[WickMonomial, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {m: complex(c) for m, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", cleaned)

    def canonical_items(self) -> list[tuple[WickMonomial, complex]]:
        return sorted(
            self.terms.items(), key=lambda mc: (mc[0].degree, mc[0].creation, mc[0].annihilation)
        )

    def coefficient(self, m: WickMonomial) -> complex:
        return self.terms.get(m, 0j)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WickPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "WickPolynomial(0)"
        parts = [
            f"({c.real:+g}{c.imag:+g}j)*{rewrite.format_word(m.to_word())}"
            for m, c in self.canonical_items()
        ]
        return "WickPolynomial(" + " ".join(parts) + ")"


def _monomial(word: rewrite.FreeWord) -> WickMonomial:
    """The monomial of a Wick ordered word."""
    return WickMonomial(tuple(i for i, s in word if not s), tuple(i for i, s in word if s))


def star(p):
    """The involution on free words and polynomials (``rewrite.star``) and
    on WickPolynomials, whose image is again Wick ordered."""
    if isinstance(p, WickPolynomial):
        return WickPolynomial(
            {
                WickMonomial(tuple(reversed(m.annihilation)), tuple(reversed(m.creation))): c.conjugate()
                for m, c in p.terms.items()
            }
        )
    return rewrite.star(p)


def redex_position(word: rewrite.FreeWord) -> int | None:
    """Index of the leftmost adjacent (starred, unstarred) pair, or None if
    the word is already Wick ordered."""
    for t in range(len(word) - 1):
        if word[t][1] and not word[t + 1][1]:
            return t
    return None


def rewrite_step(spec: WickSpec, word: rewrite.FreeWord, t: int) -> dict:
    """Apply the basic relation to the pair at position t (which must be a
    starred letter followed by an unstarred one), scanning every
    coefficient of the spec."""
    (i, si), (j, sj) = word[t], word[t + 1]
    if not (si and not sj):
        raise ValueError(f"position {t} is not an a_i* a_j pair in {rewrite.format_word(word)}")
    prefix, suffix = word[:t], word[t + 2 :]
    out: dict = {}
    if i == j:
        w = prefix + suffix
        out[w] = out.get(w, 0j) + 1.0
    for (a, b, k, l), c in spec.coeffs.items():
        if (a, b) != (i, j):
            continue
        w = prefix + ((l, False), (k, True)) + suffix
        out[w] = out.get(w, 0j) + c
    return out


def _inversions(word: rewrite.FreeWord) -> int:
    """The number of (starred, unstarred) letter pairs with the starred
    letter on the left; zero exactly when the word is Wick ordered."""
    count = starred = 0
    for _, s in word:
        if s:
            starred += 1
        else:
            count += starred
    return count


def _pending(spec: WickSpec, w) -> list[tuple[rewrite.FreeWord, complex]]:
    """The words of a free word or polynomial with their coefficients,
    after the index guard."""
    if isinstance(w, tuple):
        w = {w: 1.0 + 0j}
    elif not isinstance(w, dict):
        raise TypeError(f"cannot normal order a {type(w).__name__}")
    for word in w:
        for idx, _starred in word:
            if not 0 <= idx < spec.d:
                raise SpecError(f"generator a{idx + 1} out of range 1..{spec.d}")
    return [(word, complex(c)) for word, c in w.items()]


def normal_order(spec: WickSpec, w) -> WickPolynomial:
    """Wick order a free word or a linear combination of free words,
    rewriting the leftmost redex of each distinct word once, with its
    merged coefficient, from the most inversions down (every step lowers
    the count, so a popped bucket can receive nothing more)."""
    buckets: dict[int, dict] = {}

    def add(word: rewrite.FreeWord, coeff: complex) -> None:
        bucket = buckets.setdefault(_inversions(word), {})
        bucket[word] = bucket.get(word, 0j) + coeff

    for word, coeff in _pending(spec, w):
        add(word, coeff)
    result: dict[WickMonomial, complex] = {}
    while buckets:
        for word, coeff in buckets.pop(max(buckets)).items():
            if coeff == 0:
                continue
            t = redex_position(word)
            if t is None:
                result[_monomial(word)] = coeff
            else:
                for new_word, c in rewrite_step(spec, word, t).items():
                    add(new_word, coeff * c)
    return WickPolynomial(result)


def fock_functional(p: WickPolynomial) -> complex:
    """The Fock state: 1 on the empty monomial, 0 on every other Wick
    ordered monomial."""
    return p.coefficient(WickMonomial((), ()))


def normal_order_paths(spec: WickSpec, w) -> WickPolynomial:
    """Wick order a free word or a linear combination of free words,
    rewriting the leftmost redex until none remains, one path of the
    rewrite tree at a time."""
    pending = _pending(spec, w)
    result: dict[WickMonomial, complex] = {}
    while pending:
        word, coeff = pending.pop()
        if coeff == 0:
            continue
        t = redex_position(word)
        if t is None:
            mono = _monomial(word)
            result[mono] = result.get(mono, 0j) + coeff
        else:
            for new_word, c in rewrite_step(spec, word, t).items():
                pending.append((new_word, coeff * c))
    return WickPolynomial(result)


def young_sum(alg, n: int, J: int) -> np.ndarray:
    """P(W_J) as one dense matrix: the tensor product of the dense block
    P_b over the groups of consecutive slots that J joins (slots s, s+1
    share a group iff s is in J), each applied by :func:`apply_left`."""
    acc = np.eye(alg.T.d ** (n + 1), dtype=np.complex128)
    start = 1
    for s in range(1, n + 2):
        if not J >> (s - 1) & 1:  # bit n is never set: the last group closes at slot n+1
            if s > start:
                acc = apply_left(alg.P(s - start + 1).mat, alg.T.d, start, acc)
            start = s + 1
    return acc


def coxeter_checks(alg, n: int) -> dict:
    """``coxeter.coxeter_checks`` with every operand placed as one dense
    matrix and every residual the norm of a dense difference."""
    walk = alg.descent_sums(n)
    full = 2**n - 1
    eye = np.eye(alg.T.d ** (n + 1), dtype=np.complex128)
    P = alg.P(n + 1).mat
    U = alg.U(n).mat
    total = alg.group_sum(n).mat

    factorization = []
    alternating = np.zeros_like(eye)
    for J in range(2**n):
        PDJ = walk.sum(D for D in range(2**n) if not D & J).mat
        J_set = [s for s in range(1, n + 1) if J >> (s - 1) & 1]
        factorization.append({"J": J_set, "residual": op_norm(P - PDJ @ young_sum(alg, n, J))})
        if 0 < J < full:
            alternating = alternating + (-1.0) ** len(J_set) * PDJ

    sign_S = (-1.0) ** n
    longest = walk[full]
    euler = max(
        op_norm(alternating - (-sign_S * eye + longest - total)),
        op_norm(alternating.conj().T - (-sign_S * eye + U - P)),
    )
    return {
        "n": n,
        "group_sum": op_norm(total - P),
        "factorization": factorization,
        "euler_solomon": euler,
        "longest_vs_U": op_norm(longest - U),
    }


def un_checks(alg, n: int, rank_tol: float = 1e-8, tol: float = 1e-8) -> dict:
    """``spectral.un_checks`` on dense matrices, with T_k U_n taken from
    the left by :func:`apply_left`."""
    T = alg.T
    level = n + 1
    U = alg.U(n).mat
    proj = alg.ker_P(level, rank_tol).projector().mat
    eye = np.eye(T.d**level, dtype=np.complex128)
    invariance = op_norm((eye - proj) @ U @ proj)
    commutation = 0.0
    for k in range(1, n + 1):
        tk_U = apply_left(T.mat, T.d, k, U)
        U_tmirror = apply_slots(T.mat, T.d, n + 1 - k, U)
        commutation = max(commutation, op_norm(tk_U - U_tmirror))
    return {
        "level": level,
        "invariance_residual": invariance,
        "commutation_residual": commutation,
        "status": "pass" if invariance <= tol and commutation <= tol else "fail",
    }


def telescoping_residual(T: TensorOperator, n: int) -> float:
    """``spectral.telescoping_residual`` on dense matrices, each sandwich
    T_1 ... T_m X T_m ... T_1 taken from both sides by ``apply_slots`` and
    :func:`apply_left`."""
    _require_level2(T)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = T.d
    level = n + 1
    eye = np.eye(d**level, dtype=np.complex128)

    def sandwich(m: int, inner: np.ndarray) -> np.ndarray:
        """T_1 ... T_m inner T_m ... T_1."""
        for i in range(m, 0, -1):
            inner = apply_left(T.mat, d, i, apply_slots(T.mat, d, i, inner))
        return inner

    Un = word_product(T, longest_word(n), level).mat
    lhs = eye - Un @ Un
    rhs = np.zeros_like(eye)
    for k in range(1, n + 1):
        rhs = rhs + sandwich(k - 1, eye - word_product(T, (k, k), level).mat)
    Um1 = word_product(T, longest_word(n - 1), level).mat
    rhs = rhs + sandwich(n, eye - Um1 @ Um1)
    return op_norm(lhs - rhs)


def kernel_1mU2_diag(T: TensorOperator, n: int, rank_tol: float = 1e-8, tol: float = 1e-8) -> dict:
    """``spectral.kernel_1mU2_diag`` on dense matrices: the kernels of
    1 - U_n^2 and of P_{n+1} and their intersection, the kernel of
    (1 - Pi_A) + (1 - Pi_B), each from one refined eigendecomposition, and
    T_k^2 applied to the basis from the left by :func:`apply_left`."""
    level = n + 1
    eye = np.eye(T.d**level, dtype=np.complex128)
    U = build_U(T, n).mat
    ker_U = kernel_basis(eye - U @ U, rank_tol, refine=True)
    proj_P = kernel_projector(build_P(T, level).mat, rank_tol, refine=True)
    inter = kernel_basis((eye - ker_U @ ker_U.conj().T) + (eye - proj_P), rank_tol, refine=True)
    T2 = T.mat @ T.mat
    residual = max(op_norm(inter - apply_left(T2, T.d, k, inter)) for k in range(1, n + 1))
    return {
        "level": level,
        "dim_ker_1mU2": ker_U.shape[1],
        "dim_intersection": inter.shape[1],
        "involution_residual": residual,
        "status": "pass" if residual <= tol else "fail",
    }


def _mu_columns(d: int, i: int, cols: np.ndarray) -> np.ndarray:
    """Apply the left contraction mu(e_i^*) to every column (0-based i)."""
    dim, r = cols.shape
    return cols.reshape(d, dim // d, r)[i]


def wick_ideal_checks(alg, n: int, rank_tol: float = 1e-8, tol: float = 1e-8) -> dict:
    """``spectral.wick_ideal_checks`` on dense matrices: the contractions
    of the dense basis of ker P_n, and the intertwining of the dense chain
    T_1 ... T_n from both sides."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    d = alg.T.d
    P_n = alg.P(n)
    P_nm1 = alg.P(n - 1).mat
    R_n = alg.R(n)
    ker_P = alg.ker_P(n, rank_tol)
    basis = dense_basis(ker_P)
    ker_R = nullspace_basis(R_n.mat, rank_tol)

    chain_n = alg.word(range(1, n + 1), n + 1).mat
    RX = R_n.mat @ basis
    annihilation = max(op_norm(P_nm1 @ _mu_columns(d, i, RX)) for i in range(d))
    coaction = 0.0
    for k in range(d):
        Xk = np.kron(basis, np.eye(d, dtype=np.complex128)[:, [k]])  # X (x) e_k
        CXk = chain_n @ Xk
        for i in range(d):
            coaction = max(coaction, op_norm(P_n.mat @ _mu_columns(d, i, CXk)))

    intertwining = op_norm(
        apply_left(P_n.mat, d, 2, chain_n) - apply_slots(P_n.mat, d, 1, chain_n)
    )
    kerR_margin = op_norm(P_n.mat @ ker_R)

    ok = max(annihilation, coaction, intertwining, kerR_margin) <= tol
    return {
        "level": n,
        "dim_ker_P": ker_P.dim,
        "dim_ker_R": ker_R.shape[1],
        "annihilation_residual": annihilation,
        "coaction_residual": coaction,
        "intertwining_residual": intertwining,
        "kerR_inclusion_margin": kerR_margin,
        "status": "pass" if ok else "fail",
    }


def annihilate(alg, i: int, v: GradedVector) -> GradedVector:
    """``fock.annihilate`` with the dense R_n: mu(e_i^*) R_n on each
    degree-n component."""
    d = v.d
    out = [np.zeros(d**n, dtype=np.complex128) for n in range(v.max_degree + 1)]
    for n in range(1, v.max_degree + 1):
        out[n - 1] = (alg.R(n).mat @ v.comps[n]).reshape(d, d ** (n - 1))[i].copy()
    return GradedVector(d, tuple(out))


def fock_inner(alg, x: GradedVector, y: GradedVector) -> complex:
    """``fock.fock_inner`` with the dense P_n."""
    total = 0j
    for n in range(x.max_degree + 1):
        yn = y.comps[n] if n < 2 else alg.P(n).mat @ y.comps[n]
        total += np.vdot(x.comps[n], yn)
    return complex(total)


def relation_check(alg, N: int, seed: int = 42, tol: float = 1e-8) -> dict:
    """``fock.relation_check`` on dense matrices: each relation residual
    the norm of a dense (i, j) block of R_{n+1} against its right side,
    the lam(a_k^*) row blocks of the dense R_n placed by Kronecker
    products, and the adjointness residual on the same 50 seeded graded
    vectors through the dense :func:`annihilate` and :func:`fock_inner`."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    d = alg.T.d
    units = np.eye(d, dtype=np.complex128)
    relation_residual = 0.0
    for n in range(0, N):
        eye_n = np.eye(d**n, dtype=np.complex128)
        blocks = alg.R(n + 1).mat.reshape(d, d**n, d, d**n)
        ann = alg.R(n).mat.reshape(d, -1, d**n) if n >= 1 else None
        for i in range(d):
            for j in range(d):
                rhs = (1.0 if i == j else 0.0) * eye_n
                if n >= 1:
                    for (a, b, k, l), c in alg.spec.coeffs.items():
                        if (a, b) != (i, j):
                            continue
                        rhs = rhs + c * np.kron(units[:, [l]], ann[k])
                residual = op_norm(blocks[i, :, j, :] - rhs)
                relation_residual = max(relation_residual, residual)

    rng = np.random.default_rng(seed)
    adjoint_residual = 0.0
    for _ in range(50):
        x = _random_graded(d, N - 1, rng)
        y = _random_graded(d, N, rng)
        i = int(rng.integers(0, d))
        lhs = fock_inner(alg, _pad(create(i, _pad(x, N)), N), y)
        rhs = fock_inner(alg, _pad(x, N), _pad(annihilate(alg, i, y), N))
        scale = 1.0 + x.norm() * y.norm()
        adjoint_residual = max(adjoint_residual, abs(lhs - rhs) / scale)

    ok = relation_residual <= tol and adjoint_residual <= tol
    return {
        "max_degree": N,
        "relation_residual": relation_residual,
        "adjointness_residual": adjoint_residual,
        "status": "pass" if ok else "fail",
    }
