"""Group enumeration, reduced words, phi, descent-class sums, Euler-Solomon."""

import itertools
import math

import numpy as np
import pytest

from conftest import braided_presets, free_spec, qccr, qij, twisted_flip
from wickfock import coxeter, model, tensorops
from wickfock.coxeter import BraidConditionError
from wickfock.model import TensorOperator


def brute_inversions(perm) -> int:
    return sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )


def word_to_perm(word, size) -> tuple:
    """Compose the adjacent transpositions of a word, left to right."""
    perm = tuple(range(1, size + 1))
    for i in word:
        gen = list(range(1, size + 1))
        gen[i - 1], gen[i] = gen[i], gen[i - 1]
        perm = coxeter.compose(perm, tuple(gen))
    return perm


def test_enumerate_s2():
    els = coxeter.enumerate_group(1)
    assert [(e.perm, e.length) for e in els] == [((1, 2), 0), ((2, 1), 1)]


def test_enumerate_s3_lengths():
    els = coxeter.enumerate_group(2)
    assert sorted(e.length for e in els) == [0, 1, 1, 2, 2, 3]
    # oracle: brute-force inversion count over all permutations of 3
    for e in els:
        assert e.length == brute_inversions(e.perm)


def test_enumerate_sorted_and_guarded():
    els = coxeter.enumerate_group(3)
    assert len(els) == 24
    keys = [(e.length, e.perm) for e in els]
    assert keys == sorted(keys)
    assert els[-1].perm == (4, 3, 2, 1)
    assert els[-1].length == 3 * 4 // 2
    with pytest.raises(ValueError):
        coxeter.enumerate_group(0)
    with pytest.raises(ValueError):
        coxeter.enumerate_group(7)


def test_reduced_word_basics():
    assert coxeter.reduced_word((1, 2, 3)) == ()
    assert coxeter.reduced_word((3, 2, 1)) == (1, 2, 1)
    w = coxeter.reduced_word((2, 3, 1))
    assert len(w) == 2
    assert word_to_perm(w, 3) == (2, 3, 1)


def test_reduced_words_multiply_back():
    for e in coxeter.enumerate_group(3):
        assert len(e.word) == brute_inversions(e.perm)
        assert word_to_perm(e.word, 4) == e.perm


def test_phi_identity_and_scalar():
    T = model.build_T(qccr(1, 0.5))
    for e in coxeter.enumerate_group(2):
        value = coxeter.phi(T, e, 2).mat[0, 0]
        assert abs(value - 0.5**e.length) <= 1e-15
    reversal = [e for e in coxeter.enumerate_group(2) if e.perm == (3, 2, 1)][0]
    assert abs(coxeter.phi(T, reversal, 2).mat[0, 0] - 0.125) <= 1e-15


def test_phi_identity_element_is_identity_matrix():
    T = model.build_T(qccr(2, 0.5))
    e = coxeter.enumerate_group(2)[0]
    assert np.array_equal(coxeter.phi(T, e, 2).mat, np.eye(8))


def test_phi_longest_matches_U():
    for label, spec in braided_presets():
        T = model.build_T(spec)
        for n in range(1, 5):
            longest = coxeter.CoxeterElement(
                perm=coxeter.longest_element(n),
                length=n * (n + 1) // 2,
                word=coxeter.reduced_word(coxeter.longest_element(n)),
            )
            residual = tensorops.op_norm(coxeter.phi(T, longest, n) - tensorops.build_U(T, n))
            assert residual <= 1e-10, (label, n)


def test_phi_gate_rejects_non_braided():
    M = model.build_T(qccr(2, 0.5)).mat.copy()
    M[0, 3] = 0.1
    M[3, 0] = 0.1
    bad = TensorOperator(2, 2, M)
    el = coxeter.enumerate_group(2)[3]
    with pytest.raises(BraidConditionError):
        coxeter.phi(bad, el, 2)
    coxeter.phi(bad, el, 2, force=True)
    with pytest.raises(BraidConditionError):
        coxeter.group_sum(bad, 2)


def random_reduced_word(perm, rng) -> tuple:
    """A reduced word from random descent choices (right peeling)."""
    collected = []
    cur = perm
    while True:
        descents = [i for i in range(1, len(cur)) if cur[i - 1] > cur[i]]
        if not descents:
            break
        i = descents[int(rng.integers(0, len(descents)))]
        collected.append(i)
        p = list(cur)
        p[i - 1], p[i] = p[i], p[i - 1]
        cur = tuple(p)
    return tuple(reversed(collected))


def test_matsumoto_word_independence():
    rng = np.random.default_rng(42)
    for label, spec in [("q-ccr q=0.5", qccr(2, 0.5)), ("qij lam=-1", qij(-1.0))]:
        T = model.build_T(spec)
        amps = {i: tensorops.amplify(T, i, 4).mat for i in (1, 2, 3)}
        for e in coxeter.enumerate_group(3):
            reference = coxeter.phi(T, e, 3).mat
            for _ in range(5):
                word = random_reduced_word(e.perm, rng)
                assert len(word) == e.length
                assert word_to_perm(word, 4) == e.perm
                acc = np.eye(16, dtype=complex)
                for i in word:
                    acc = acc @ amps[i]
                assert np.linalg.norm(acc - reference, 2) <= 1e-12, (label, e.perm)


def test_group_sum_scalar_poincare():
    # oracle: the Poincare polynomial sum q^inv over brute-force inversions
    T = model.build_T(qccr(1, 0.5))
    expected = sum(
        0.5 ** brute_inversions(p) for p in itertools.permutations(range(3))
    )
    value = coxeter.group_sum(T, 2).mat[0, 0]
    assert abs(value - expected) <= 1e-15
    assert abs(value - 2.625) <= 1e-15
    T1 = model.build_T(qccr(1, 1.0))
    assert abs(coxeter.group_sum(T1, 2).mat[0, 0] - 6.0) <= 1e-15


def test_group_sum_free_is_identity():
    T = model.build_T(free_spec(2))
    assert np.array_equal(coxeter.group_sum(T, 2).mat, np.eye(8))


def test_group_sum_matches_recursive_P():
    for label, spec in braided_presets():
        T = model.build_T(spec)
        for n in range(1, 5):
            residual = tensorops.op_norm(coxeter.group_sum(T, n) - tensorops.build_P(T, n + 1))
            assert residual <= 1e-10, (label, n)
    T3 = model.build_T(qccr(3, 0.5))
    for n in range(1, 4):
        residual = tensorops.op_norm(coxeter.group_sum(T3, n) - tensorops.build_P(T3, n + 1))
        assert residual <= 1e-10


def descent_class(n: int, J) -> list:
    """D_J by brute force: the elements with no descent in J."""
    return [
        e for e in coxeter.enumerate_group(n)
        if not any(e.perm[s - 1] > e.perm[s] for s in J)
    ]


def young_subgroup(n: int, J) -> list:
    """W_J by brute force: the elements that move points only within the
    blocks of consecutive points that J joins (s, s+1 share a block iff s
    is in J)."""
    block = [0]
    for p in range(1, n + 1):
        block.append(block[-1] if p in J else block[-1] + 1)
    return [
        e for e in coxeter.enumerate_group(n)
        if all(block[x] == block[e.perm[x] - 1] for x in range(n + 1))
    ]


def phi_sum(T, elements, n: int) -> np.ndarray:
    """Reference sum of phi, one canonical-word product per element."""
    return sum(coxeter.phi(T, e, n).mat for e in elements)


def mask_to_set(mask: int, n: int) -> set:
    return {s for s in range(1, n + 1) if mask >> (s - 1) & 1}


def test_descent_sums_extremes():
    # only the identity has no descent, only the longest element has all
    T = model.build_T(qccr(2, 0.5))
    sums = coxeter.descent_sums(T, 3)
    assert len(sums) == 8
    assert np.array_equal(sums[0], np.eye(16))
    longest = coxeter.enumerate_group(3)[-1]
    assert np.array_equal(sums[7], coxeter.phi(T, longest, 3).mat)


def test_descent_sums_match_phi_grouped_by_descent_set():
    # oracle: phi element by element, grouped by descent set
    for d in (2, 3):
        T = model.build_T(twisted_flip(d, seed=d))
        for n in (1, 2, 3):
            expected = [np.zeros((d ** (n + 1),) * 2, dtype=complex) for _ in range(2**n)]
            for e in coxeter.enumerate_group(n):
                mask = sum(1 << (s - 1) for s in coxeter._descents(e.perm))
                expected[mask] += coxeter.phi(T, e, n).mat
            sums = coxeter.descent_sums(T, n)
            for mask in range(2**n):
                assert np.linalg.norm(sums[mask] - expected[mask], 2) <= 1e-12, (d, n, mask)


def test_descent_class_sizes_count_permutations():
    # at d=1, q=1 every phi(w) is 1, so the buckets count permutations by
    # descent set; oracle: itertools.permutations
    T = model.build_T(qccr(1, 1.0))
    for n in (1, 2, 3, 4, 5):
        counts = [0] * 2**n
        for perm in itertools.permutations(range(n + 1)):
            counts[sum(1 << s for s in range(n) if perm[s] > perm[s + 1])] += 1
        sums = coxeter.descent_sums(T, n)
        assert [s.item() for s in sums] == counts, n
        order = math.factorial(n + 1)
        for J in range(2**n):
            size_D = sum(counts[D] for D in range(2**n) if not D & J)
            blocks, run = [], 1
            for s in range(1, n + 1):
                if J >> (s - 1) & 1:
                    run += 1
                else:
                    blocks.append(run)
                    run = 1
            blocks.append(run)
            assert size_D * math.prod(math.factorial(b) for b in blocks) == order, (n, J)


def test_unique_factorization():
    for n in (2, 3, 4):
        elements = {e.perm for e in coxeter.enumerate_group(n)}
        for mask in range(2**n):
            J = mask_to_set(mask, n)
            products = {}
            for delta in descent_class(n, J):
                for w in young_subgroup(n, J):
                    prod = coxeter.compose(delta.perm, w.perm)
                    assert prod not in products, (n, J, prod)
                    products[prod] = (delta, w)
                    assert delta.length + w.length == brute_inversions(prod)
            assert set(products) == elements


def test_descent_factorization_example():
    D_J, W_J = descent_class(2, {1}), young_subgroup(2, {1})
    assert len(W_J) == 2 and len(D_J) == 3
    T = model.build_T(qccr(2, 0.5))
    sums = coxeter.descent_sums(T, 2)
    PDJ = sums[0] + sums[2]  # the descent sets {} and {2} avoid J = {1}
    assert np.linalg.norm(PDJ - phi_sum(T, D_J, 2), 2) <= 1e-12
    lhs = tensorops.build_P(T, 3).mat
    assert np.linalg.norm(lhs - PDJ @ phi_sum(T, W_J, 2), 2) <= 1e-10
    fact = coxeter.coxeter_checks(T, 2)["factorization"][1]
    assert fact["J"] == [1] and fact["residual"] <= 1e-10


def test_separated_blocks_factor_and_commute():
    T = model.build_T(qccr(2, 0.5))
    J1, J2 = {1}, {3, 4}
    both = phi_sum(T, young_subgroup(4, J1 | J2), 4)
    a = phi_sum(T, young_subgroup(4, J1), 4)
    b = phi_sum(T, young_subgroup(4, J2), 4)
    assert np.linalg.norm(both - a @ b, 2) <= 1e-12
    assert np.linalg.norm(a @ b - b @ a, 2) <= 1e-12


def test_descent_sums_guards():
    T = model.build_T(qccr(2, 0.5))
    for n in (0, coxeter.MAX_RANK + 1):
        with pytest.raises(ValueError):
            coxeter.descent_sums(T, n)
    # d=3 at n=6: 88 matrices of 3^7 x 3^7 complex numbers, about 6.7 GB,
    # refused before anything is allocated
    T3 = model.build_T(qccr(3, 0.5))
    need = (2**6 + 21 + 3) * 3**14 * 16
    message = f"need about {need} bytes, over the {coxeter.MAX_WALK_BYTES} byte guard"
    with pytest.raises(ValueError, match=message):
        coxeter.descent_sums(T3, 6)
    with pytest.raises(ValueError, match=message):
        coxeter.group_sum(T3, 6)


def test_coxeter_checks_report_shape():
    rep = coxeter.coxeter_checks(model.build_T(qccr(2, 0.5)), 3)
    assert list(rep) == ["n", "group_sum", "factorization", "euler_solomon", "longest_vs_U"]
    assert [f["J"] for f in rep["factorization"]] == [
        sorted(mask_to_set(mask, 3)) for mask in range(8)
    ]


def test_coxeter_checks_twisted_flip():
    # complex coefficients: a conjugate/transpose slip on the adjoint
    # Euler-Solomon side, or in P(W_J), shows here and not on the presets
    for d in (2, 3):
        T = model.build_T(twisted_flip(d, seed=10 + d))
        for n in range(1, 5):
            rep = coxeter.coxeter_checks(T, n)
            worst = max(
                [rep["group_sum"], rep["euler_solomon"], rep["longest_vs_U"]]
                + [f["residual"] for f in rep["factorization"]]
            )
            assert worst <= 1e-10, (d, n, rep)


def test_euler_solomon_presets():
    for label, spec in braided_presets():
        T = model.build_T(spec)
        for n in range(1, 5):
            assert coxeter.coxeter_checks(T, n)["euler_solomon"] <= 1e-10, (label, n)


def test_euler_solomon_zero_operator():
    T = model.build_T(free_spec(2))
    assert coxeter.coxeter_checks(T, 2)["euler_solomon"] <= 1e-15


def test_euler_solomon_guard():
    T = model.build_T(qccr(2, 0.5))
    for n in (0, 6):
        with pytest.raises(ValueError):
            coxeter.coxeter_checks(T, n)
