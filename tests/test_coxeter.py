"""Group enumeration, reduced words, phi, descent-class sums, Euler-Solomon.

The element-by-element constructions are the references in ``oracles``."""

import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import (
    braided_families,
    braided_presets,
    free_spec,
    hecke,
    matrix_spec,
    qccr,
    qij,
    rotated,
    twisted_flip,
    unimodular_flip,
)
from wickfock import coxeter, model, tensorops
from wickfock.algebra import Algebra
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
        perm = oracles.compose(perm, tuple(gen))
    return perm


def test_enumerate_s2():
    els = oracles.enumerate_group(1)
    assert [(e.perm, e.length) for e in els] == [((1, 2), 0), ((2, 1), 1)]


def test_enumerate_s3_lengths():
    els = oracles.enumerate_group(2)
    assert sorted(e.length for e in els) == [0, 1, 1, 2, 2, 3]
    # oracle: brute-force inversion count over all permutations of 3
    for e in els:
        assert e.length == brute_inversions(e.perm)


def test_enumerate_sorted_and_guarded():
    els = oracles.enumerate_group(3)
    assert len(els) == 24
    keys = [(e.length, e.perm) for e in els]
    assert keys == sorted(keys)
    assert els[-1].perm == (4, 3, 2, 1)
    assert els[-1].length == 3 * 4 // 2
    with pytest.raises(ValueError):
        oracles.enumerate_group(0)
    with pytest.raises(ValueError):
        oracles.enumerate_group(7)


def test_reduced_word_basics():
    assert oracles.reduced_word((1, 2, 3)) == ()
    assert oracles.reduced_word((3, 2, 1)) == (1, 2, 1)
    w = oracles.reduced_word((2, 3, 1))
    assert len(w) == 2
    assert word_to_perm(w, 3) == (2, 3, 1)


def test_reduced_words_multiply_back():
    for e in oracles.enumerate_group(3):
        assert len(e.word) == brute_inversions(e.perm)
        assert word_to_perm(e.word, 4) == e.perm


def test_phi_identity_and_scalar():
    T = model.build_T(qccr(1, 0.5))
    for e in oracles.enumerate_group(2):
        value = oracles.phi(T, e, 2).mat[0, 0]
        assert abs(value - 0.5**e.length) <= 1e-15
    reversal = [e for e in oracles.enumerate_group(2) if e.perm == (3, 2, 1)][0]
    assert abs(oracles.phi(T, reversal, 2).mat[0, 0] - 0.125) <= 1e-15


def test_phi_identity_element_is_identity_matrix():
    T = model.build_T(qccr(2, 0.5))
    e = oracles.enumerate_group(2)[0]
    assert np.array_equal(oracles.phi(T, e, 2).mat, np.eye(8))


def test_phi_longest_matches_U():
    for label, spec in braided_presets():
        T = model.build_T(spec)
        for n in range(1, 5):
            longest = oracles.CoxeterElement(
                perm=oracles.longest_element(n),
                length=n * (n + 1) // 2,
                word=oracles.reduced_word(oracles.longest_element(n)),
            )
            residual = tensorops.op_norm(oracles.phi(T, longest, n).mat - oracles.build_U(T, n).mat)
            assert residual <= 1e-10, (label, n)


def test_phi_gate_rejects_non_braided():
    M = model.build_T(qccr(2, 0.5)).mat.copy()
    M[0, 3] = 0.1
    M[3, 0] = 0.1
    with pytest.raises(BraidConditionError):
        coxeter.descent_sums(TensorOperator(2, 2, M), 2)
    with pytest.raises(BraidConditionError):
        Algebra(matrix_spec(M)).group_sum(2)


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
        amps = {i: oracles.amplify(T, i, 4).mat for i in (1, 2, 3)}
        for e in oracles.enumerate_group(3):
            reference = oracles.phi(T, e, 3).mat
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
    value = sum(coxeter.descent_sums(T, 2))[0, 0]
    assert abs(value - expected) <= 1e-15
    assert abs(value - 2.625) <= 1e-15
    T1 = model.build_T(qccr(1, 1.0))
    assert abs(sum(coxeter.descent_sums(T1, 2))[0, 0] - 6.0) <= 1e-15


def test_group_sum_free_is_identity():
    T = model.build_T(free_spec(2))
    assert np.array_equal(sum(coxeter.descent_sums(T, 2)), np.eye(8))


def test_group_sum_matches_recursive_P():
    for label, spec in braided_presets():
        T = model.build_T(spec)
        for n in range(1, 5):
            residual = tensorops.op_norm(sum(coxeter.descent_sums(T, n)) - oracles.build_P(T, n + 1).mat)
            assert residual <= 1e-10, (label, n)
    T3 = model.build_T(qccr(3, 0.5))
    for n in range(1, 4):
        residual = tensorops.op_norm(sum(coxeter.descent_sums(T3, n)) - oracles.build_P(T3, n + 1).mat)
        assert residual <= 1e-10


def descent_class(n: int, J) -> list:
    """D_J by brute force: the elements with no descent in J."""
    return [
        e for e in oracles.enumerate_group(n)
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
        e for e in oracles.enumerate_group(n)
        if all(block[x] == block[e.perm[x] - 1] for x in range(n + 1))
    ]


def phi_sum(T, elements, n: int) -> np.ndarray:
    """Reference sum of phi, one canonical-word product per element."""
    return sum(oracles.phi(T, e, n).mat for e in elements)


def mask_to_set(mask: int, n: int) -> set:
    return {s for s in range(1, n + 1) if mask >> (s - 1) & 1}


def test_descent_sums_extremes():
    # only the identity has no descent, only the longest element has all
    T = model.build_T(qccr(2, 0.5))
    sums = coxeter.descent_sums(T, 3)
    assert len(sums) == 8
    assert np.array_equal(sums[0], np.eye(16))
    longest = oracles.enumerate_group(3)[-1]
    assert np.array_equal(sums[7], oracles.phi(T, longest, 3).mat)


def test_descent_sums_match_phi_grouped_by_descent_set():
    # oracle: phi element by element, grouped by descent set; the Hecke T
    # has two terms in some columns, the free T none, and the rotated T
    # mix weight spaces, so they take the dense walk
    cases = [
        ("twisted flip d=2", twisted_flip(2, seed=2), "weight"),
        ("twisted flip d=3", twisted_flip(3, seed=3), "weight"),
        ("hecke d=2", hecke(2, 0.6), "weight"),
        ("hecke d=3", hecke(3, 0.8), "weight"),
        ("free d=2", free_spec(2), "weight"),
        ("rotated hecke d=2", rotated(hecke(2, 0.6), 1), "dense"),
        ("rotated unimodular flip d=3", rotated(unimodular_flip(3, seed=5), 2), "dense"),
    ]
    for label, spec, layout in cases:
        T = model.build_T(spec)
        d = T.d
        for n in (1, 2, 3):
            assert coxeter.descent_sums(T, n).record["layout"] == layout, label
            expected = [np.zeros((d ** (n + 1),) * 2, dtype=complex) for _ in range(2**n)]
            for e in oracles.enumerate_group(n):
                mask = sum(1 << (s - 1) for s in oracles.descents(e.perm))
                expected[mask] += oracles.phi(T, e, n).mat
            sums = coxeter.descent_sums(T, n)
            for mask in range(2**n):
                assert np.linalg.norm(sums[mask] - expected[mask], 2) <= 1e-12, (label, n, mask)


def dense_walk(T, n: int) -> np.ndarray:
    """The walk with every phi(w) a dense matrix, the layout descent_sums
    takes, flattened, for a T that is not weight-preserving."""
    start = np.eye(T.d ** (n + 1), dtype=complex)
    return coxeter._walk(n, start, lambda i, X: tensorops.apply_slots(T.mat, T.d, i, X))


@pytest.mark.parametrize("d, max_rank", [(2, 4), (3, 3)])
@given(data=st.data())
def test_packed_walk_matches_dense_walk(d, max_rank, data):
    T = model.build_T(data.draw(braided_families(d)))
    for n in range(1, max_rank + 1):
        walk = coxeter.descent_sums(T, n)
        assert walk.record["layout"] == "weight"
        for packed, dense in zip(walk, dense_walk(T, n), strict=True):
            assert np.linalg.norm(packed - dense, 2) <= 1e-13, (n, T.mat)


def test_walk_layout_detection():
    weight = [spec for _, spec in braided_presets()] + [
        hecke(2, 0.6), hecke(3, 0.8), twisted_flip(2, seed=1), twisted_flip(3, seed=2),
        unimodular_flip(3, seed=4), free_spec(3),
    ]
    for spec in weight:
        assert tensorops.weight_preserving(model.build_T(spec)), spec.source
    dense = [rotated(hecke(2, 0.6), 1), rotated(qccr(2, 0.5), 3), rotated(unimodular_flip(3, seed=5), 2)]
    for spec in dense:
        T = model.build_T(spec)
        walk = coxeter.descent_sums(T, 3)
        assert walk.record == {"layout": "dense", "blocks": 1, "largest_block": T.d**4}
        # the one block is the dense square, flattened row-major: the same
        # walk as the dense reference, bit for bit
        reference = dense_walk(T, 3)
        assert np.array_equal(walk.buckets, reference.reshape(len(reference), -1))
        assert np.array_equal(walk, reference)
    # one off-pattern coefficient, however small, leaves the weight layout:
    # the test is exact, so no coefficient is dropped
    M = model.build_T(hecke(2, 0.6)).mat.copy()
    M[1, 0] = M[0, 1] = 1e-300
    T = TensorOperator(2, 2, M)
    assert not tensorops.weight_preserving(T)
    walk = coxeter.descent_sums(T, 2)
    assert walk.record["layout"] == "dense"
    assert np.array_equal(walk, dense_walk(T, 2))


def test_walk_leaves_nothing_for_the_cycle_collector():
    # the walk's working arrays go when descent_sums returns, not at the
    # next run of the cyclic garbage collector
    for spec in (qccr(2, 0.5), rotated(hecke(2, 0.6), 1)):
        T = model.build_T(spec)
        gc.collect()
        gc.disable()
        try:
            walk = coxeter.descent_sums(T, 4)
            assert gc.collect() == 0, walk.record
        finally:
            gc.enable()


def test_weight_blocks_count_words_by_letter_content():
    # oracle: pairs of words with the same sorted letters, by brute force;
    # 3,432 = C(14, 7) entries at d=2, level 7, and 4,653 at d=3, level 5
    for d, level, entries in ((2, 7, 3432), (3, 5, 4653), (3, 2, 15)):
        contents = [tuple(sorted(w)) for w in itertools.product(range(d), repeat=level)]
        counts = {c: contents.count(c) for c in set(contents)}
        spaces = tensorops.weight_spaces(d, level)
        assert sorted(map(len, spaces)) == sorted(counts.values())
        assert sum(len(words) ** 2 for words in spaces) == sum(k * k for k in counts.values()) == entries
        assert sorted(np.concatenate(spaces)) == list(range(d**level))
        for words in spaces:
            assert list(words) == sorted(words)
            assert len({contents[w] for w in words}) == 1
        T = model.build_T(qccr(d, 0.5))
        assert coxeter.descent_sums(T, level - 1).record == {
            "layout": "weight", "blocks": len(counts), "largest_block": max(counts.values())
        }


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
        elements = {e.perm for e in oracles.enumerate_group(n)}
        for mask in range(2**n):
            J = mask_to_set(mask, n)
            products = {}
            for delta in descent_class(n, J):
                for w in young_subgroup(n, J):
                    prod = oracles.compose(delta.perm, w.perm)
                    assert prod not in products, (n, J, prod)
                    products[prod] = (delta, w)
                    assert delta.length + w.length == brute_inversions(prod)
            assert set(products) == elements


def test_descent_factorization_example():
    D_J, W_J = descent_class(2, {1}), young_subgroup(2, {1})
    assert len(W_J) == 2 and len(D_J) == 3
    alg = Algebra(qccr(2, 0.5))
    T = alg.T
    sums = coxeter.descent_sums(T, 2)
    PDJ = sums[0] + sums[2]  # the descent sets {} and {2} avoid J = {1}
    assert np.linalg.norm(PDJ - phi_sum(T, D_J, 2), 2) <= 1e-12
    lhs = oracles.build_P(T, 3).mat
    assert np.linalg.norm(lhs - PDJ @ phi_sum(T, W_J, 2), 2) <= 1e-10
    fact = coxeter.coxeter_checks(alg, 2)["factorization"][1]
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
        with pytest.raises(ValueError, match=f"rank n={n} out of guard range"):
            coxeter.check_walk(2, n)
        with pytest.raises(ValueError):
            coxeter.descent_sums(T, n)
    coxeter.check_walk(2, coxeter.MAX_RANK)
    coxeter.check_walk(3, 5)
    # d=3 at n=6: 88 matrices of 3^7 x 3^7 complex numbers, about 6.7 GB,
    # refused before anything is allocated
    T3 = model.build_T(qccr(3, 0.5))
    need = (2**6 + 21 + 3) * 3**14 * 16
    message = f"need about {need} bytes, over the {coxeter.MAX_WALK_BYTES} byte guard"
    with pytest.raises(ValueError, match=message):
        coxeter.check_walk(3, 6)
    with pytest.raises(ValueError, match=message):
        coxeter.descent_sums(T3, 6)
    with pytest.raises(ValueError, match=message):
        Algebra(qccr(3, 0.5)).group_sum(6)


def test_coxeter_checks_report_shape():
    rep = coxeter.coxeter_checks(Algebra(qccr(2, 0.5)), 3)
    assert list(rep) == ["n", "group_sum", "factorization", "euler_solomon", "longest_vs_U"]
    assert [f["J"] for f in rep["factorization"]] == [
        sorted(mask_to_set(mask, 3)) for mask in range(8)
    ]


def test_coxeter_checks_twisted_flip():
    # complex coefficients: a conjugate/transpose slip on the adjoint
    # Euler-Solomon side, or in P(W_J), shows here and not on the presets
    for d in (2, 3):
        alg = Algebra(twisted_flip(d, seed=10 + d))
        for n in range(1, 5):
            rep = coxeter.coxeter_checks(alg, n)
            worst = max(
                [rep["group_sum"], rep["euler_solomon"], rep["longest_vs_U"]]
                + [f["residual"] for f in rep["factorization"]]
            )
            assert worst <= 1e-10, (d, n, rep)


def test_euler_solomon_presets():
    for label, spec in braided_presets():
        alg = Algebra(spec)
        for n in range(1, 5):
            assert coxeter.coxeter_checks(alg, n)["euler_solomon"] <= 1e-10, (label, n)


def test_euler_solomon_zero_operator():
    assert coxeter.coxeter_checks(Algebra(free_spec(2)), 2)["euler_solomon"] <= 1e-15


def test_euler_solomon_guard():
    # the checks take the walk's own guard: rank 6 runs at d=2, not at d=3
    alg = Algebra(qccr(2, 0.5))
    for n in (0, coxeter.MAX_RANK + 1):
        with pytest.raises(ValueError, match=f"rank n={n} out of guard range 1..{coxeter.MAX_RANK}"):
            coxeter.coxeter_checks(alg, n)
    need = (2**6 + 21 + 3) * 3**14 * 16
    with pytest.raises(ValueError, match=f"need about {need} bytes, over the {coxeter.MAX_WALK_BYTES} byte guard"):
        coxeter.coxeter_checks(Algebra(qccr(3, 0.5)), 6)


@pytest.mark.parametrize("d, max_rank", [(2, 4), (3, 3)])
@given(data=st.data())
def test_coxeter_checks_on_hecke_and_unimodular_flips(d, max_rank, data):
    # non-monomial (Hecke) and complex unimodular T, beyond the presets
    alg = Algebra(data.draw(braided_families(d)))
    for n in range(1, max_rank + 1):
        rep = coxeter.coxeter_checks(alg, n)
        worst = max(
            [rep["group_sum"], rep["euler_solomon"], rep["longest_vs_U"]]
            + [f["residual"] for f in rep["factorization"]]
        )
        assert worst <= 1e-10, (alg.spec.source, n, rep)
