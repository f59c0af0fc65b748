"""Wick ordering, the star involution, and the Fock functional."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import (
    braided_families,
    creation_words,
    hecke,
    max_confluence_defect,
    max_cross_residual,
    polynomials_agree,
    qccr,
    qij,
    rotated,
)
from wickfock import model, rewrite, tensorops
from wickfock.model import SpecError
from wickfock.rewrite import WickMonomial, WickPolynomial


def test_parse_and_format_words():
    assert rewrite.parse_word("1") == ()
    assert rewrite.parse_word("a1 a2* a1*") == ((0, False), (1, True), (0, True))
    assert rewrite.format_word(((0, False), (1, True))) == "a1 a2*"
    assert rewrite.format_word(()) == "1"
    with pytest.raises(SpecError):
        rewrite.parse_word("b2")
    with pytest.raises(SpecError):
        rewrite.parse_word("a0")
    with pytest.raises(SpecError):
        rewrite.parse_word("")


def test_parse_word_expr_json():
    poly = rewrite.parse_word_expr(
        '[{"re": 1.0, "im": 0.0, "word": "a1 a2"}, {"re": 0.0, "im": -2.0, "word": "1"}]',
        2,
    )
    assert poly[((0, False), (1, False))] == 1.0
    assert poly[()] == -2j
    with pytest.raises(SpecError, match="out of range"):
        rewrite.parse_word_expr("a3", 2)


def test_parse_word_expr_rejects_empty_input():
    # an empty expression is zero, which would pass any comparison vacuously;
    # the unit is written '1'
    with pytest.raises(SpecError, match="empty word expression"):
        rewrite.parse_word_expr("  ", 2)
    for empty in ("[]", " [ ] "):
        with pytest.raises(SpecError, match="nonempty array"):
            rewrite.parse_word_expr(empty, 2)


def test_normal_order_qccr_diagonal():
    spec = qccr(1, 0.5)
    p = rewrite.normal_order(spec, rewrite.parse_word("a1* a1"))
    assert p.coefficient(WickMonomial((), ())) == 1.0
    assert p.coefficient(WickMonomial((0,), (0,))) == 0.5
    assert len(p.terms) == 2


def test_normal_order_leaves_ordered_words():
    spec = qccr(2, 0.5)
    word = rewrite.parse_word("a1 a2*")
    p = rewrite.normal_order(spec, word)
    assert p == WickPolynomial({WickMonomial((0,), (1,)): 1.0 + 0j})


def test_normal_order_off_diagonal():
    spec = qccr(2, 0.5)
    p = rewrite.normal_order(spec, rewrite.parse_word("a1* a2"))
    assert p == WickPolynomial({WickMonomial((1,), (0,)): 0.5 + 0j})


def test_normal_order_accepts_linear_combinations():
    spec = qccr(2, 0.5)
    combo = {rewrite.parse_word("a1* a1"): 2.0 + 0j, rewrite.parse_word("1"): 1.0 + 0j}
    p = rewrite.normal_order(spec, combo)
    assert p.coefficient(WickMonomial((), ())) == 3.0


def test_star_examples():
    assert rewrite.star(rewrite.parse_word("a1 a2*")) == rewrite.parse_word("a2 a1*")
    assert rewrite.star(()) == ()
    poly = {rewrite.parse_word("a1 a1"): 0.5 + 0.1j}
    starred = rewrite.star(poly)
    assert starred == {((0, True), (0, True)): 0.5 - 0.1j}


def test_star_is_an_involution_on_random_polynomials():
    rng = np.random.default_rng(42)
    letters = [(i, starred) for i in range(2) for starred in (False, True)]
    for _ in range(200):
        poly = {}
        for _ in range(int(rng.integers(1, 4))):
            length = int(rng.integers(0, 5))
            word = tuple(letters[int(rng.integers(0, 4))] for _ in range(length))
            poly[word] = complex(rng.standard_normal(), rng.standard_normal())
        twice = rewrite.star(rewrite.star(poly))
        assert set(twice) == set(poly)
        for word, c in poly.items():
            assert abs(twice[word] - c) <= 1e-15


def test_star_of_wick_polynomial_stays_ordered():
    p = WickPolynomial({WickMonomial((0, 1), (1,)): 1.0 + 2.0j})
    s = rewrite.star(p)
    assert s == WickPolynomial({WickMonomial((1,), (1, 0)): 1.0 - 2.0j})
    assert rewrite.star(s) == p


def test_fock_functional():
    spec = qccr(2, 0.5)
    assert rewrite.fock_functional(rewrite.normal_order(spec, ())) == 1.0
    p = rewrite.normal_order(spec, rewrite.parse_word("a1 a1*"))
    assert rewrite.fock_functional(p) == 0.0
    combo = {(): 3.0 + 0j, ((0, False), (1, True)): 2.0 + 0j}
    assert rewrite.fock_functional(rewrite.normal_order(spec, combo)) == 3.0


def test_inner_via_f_examples():
    spec = qccr(2, 0.5)
    a1 = {rewrite.parse_word("a1"): 1.0 + 0j}
    a2 = {rewrite.parse_word("a2"): 1.0 + 0j}
    assert rewrite.inner_via_f(spec, a1, a1) == 1.0
    assert rewrite.inner_via_f(spec, a1, a2) == 0.0

    d1 = qccr(1, 0.5)
    aa = {rewrite.parse_word("a1 a1"): 1.0 + 0j}
    # oracle: <e(x)e, P_2 e(x)e> on the operator side
    P2 = tensorops.build_P(model.build_T(d1), 2).mat[0, 0]
    assert abs(rewrite.inner_via_f(d1, aa, aa) - P2) <= 1e-15
    assert abs(rewrite.inner_via_f(d1, aa, aa) - 1.5) <= 1e-15


def test_inner_via_f_rejects_annihilators():
    spec = qccr(2, 0.5)
    bad = {rewrite.parse_word("a1*"): 1.0 + 0j}
    good = {rewrite.parse_word("a1"): 1.0 + 0j}
    with pytest.raises(ValueError, match="creation-only"):
        rewrite.inner_via_f(spec, bad, good)


def test_cross_validation_against_fock_inner():
    for spec in (qccr(2, 0.5), qij(-1.0)):
        assert max_cross_residual(spec, 3) <= 1e-9


@pytest.mark.parametrize("d", [2, 3])
@given(data=st.data())
def test_cross_validation_on_hecke_and_unimodular_flips(d, data):
    assert max_cross_residual(data.draw(braided_families(d)), 3) <= 1e-9


def test_cross_validation_on_rotated_hecke():
    # T mixes every basis tensor, so the rewrite engine sees dense coefficients
    assert max_cross_residual(rotated(hecke(2, 0.6), seed=2), 3) <= 1e-9


def carrying(u, w, prefix=()):
    """Every permutation sigma with w[sigma[k]] == u[k] for each k."""
    if len(prefix) == len(u):
        yield prefix
        return
    for p in range(len(w)):
        if p not in prefix and w[p] == u[len(prefix)]:
            yield from carrying(u, w, prefix + (p,))


def permutation_inner(q, u, w):
    """<e_u, e_w>_0 for q-CCR: the sum of q^inv(sigma) over the
    permutations carrying u onto w."""
    if len(u) != len(w):
        return 0.0
    return sum(
        q ** sum(sigma[a] > sigma[b] for a, b in itertools.combinations(range(len(u)), 2))
        for sigma in carrying(u, w)
    )


@pytest.mark.parametrize("q", [0.35, 0.65])
def test_inner_via_f_at_degree_7_and_8_matches_the_permutation_sum(q):
    # combinations of a degree-8 word (4 a1, 4 a2) and a degree-7 word
    # (4 a1, 3 a2) with complex coefficients, as in the wick-words benchmark
    spec = qccr(2, q)
    rng = random.Random(f"degree-7-8:{q}")

    def combination():
        terms = []
        for ones, twos in ((4, 4), (4, 3)):
            letters = [0] * ones + [1] * twos
            rng.shuffle(letters)
            terms.append((tuple(letters), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
        return terms

    for _ in range(2):
        x, y = combination(), combination()
        expected = sum(
            cx.conjugate() * cy * permutation_inner(q, u, w) for u, cx in x for w, cy in y
        )
        X = {tuple((i, False) for i in u): c for u, c in x}
        Y = {tuple((i, False) for i in w): c for w, c in y}
        assert abs(rewrite.inner_via_f(spec, X, Y) - expected) <= 1e-9


def assert_matches_the_path_expansion(spec, word):
    merged = rewrite.normal_order(spec, word)
    paths = oracles.normal_order_paths(spec, word)
    scale = max((abs(c) for c in paths.terms.values()), default=0.0)
    for m in set(merged.terms) | set(paths.terms):
        assert abs(merged.coefficient(m) - paths.coefficient(m)) <= 1e-12 * scale, m


def mixed_words(d, max_degree):
    letter = st.tuples(st.integers(0, d - 1), st.booleans())
    return st.lists(letter, max_size=max_degree).map(tuple)


@given(q=st.floats(-1.0, 1.0), word=mixed_words(2, 6))
def test_normal_order_matches_the_path_expansion(q, word):
    assert_matches_the_path_expansion(qccr(2, q), word)


@pytest.mark.parametrize("d", [2, 3])
@given(data=st.data())
def test_normal_order_matches_the_path_expansion_on_braided_families(d, data):
    spec = data.draw(braided_families(d))
    assert_matches_the_path_expansion(spec, data.draw(mixed_words(d, 6)))


@given(q=st.floats(0.0, 1.0, exclude_min=True), word=mixed_words(2, 4))
def test_normal_order_matches_the_path_expansion_on_rotated_hecke(q, word):
    assert_matches_the_path_expansion(rotated(hecke(2, q), seed=1), word)


def test_normal_order_rewrites_each_distinct_word_once(monkeypatch):
    spec = qccr(2, 0.5)
    word = rewrite.parse_word("a1* a1* a1* a1* a1 a1 a1 a1")
    rewritten = []
    step = rewrite.rewrite_step

    def counted(spec, w, t):
        rewritten.append(w)
        return step(spec, w, t)

    monkeypatch.setattr(rewrite, "rewrite_step", counted)
    merged = rewrite.normal_order(spec, word)
    merged_words = rewritten[:]
    rewritten.clear()
    paths = oracles.normal_order_paths(spec, word)
    # the path expansion reaches the same words, most of them many times
    assert set(merged_words) == set(rewritten)
    assert len(merged_words) == len(set(rewritten)) == 30
    assert len(rewritten) == 208
    assert polynomials_agree(merged, paths)


def test_gram_matrix_of_f_is_psd():
    spec = qccr(2, 0.5)
    words = [w for w in creation_words(2, 2) if len(w) == 2]
    gram = np.zeros((len(words), len(words)), dtype=complex)
    for r, wx in enumerate(words):
        for c, wy in enumerate(words):
            gram[r, c] = rewrite.inner_via_f(spec, {wx: 1.0 + 0j}, {wy: 1.0 + 0j})
    evals = np.linalg.eigvalsh(gram)
    assert evals[0] >= -1e-10


def test_confluence_small_words():
    for spec in (qccr(2, 0.5), qij(-1.0)):
        assert max_confluence_defect(spec, 3, seed=42, trials=5) <= 1e-12


def test_zero_coefficients_are_pruned():
    p = WickPolynomial({WickMonomial((), ()): 0j, WickMonomial((0,), ()): 1.0 + 0j})
    assert list(p.terms) == [WickMonomial((0,), ())]


def test_canonical_iteration_order():
    p = WickPolynomial(
        {
            WickMonomial((1,), (0,)): 1.0,
            WickMonomial((), ()): 2.0,
            WickMonomial((0,), (0,)): 3.0,
        }
    )
    degrees = [m.degree for m, _ in p.canonical_items()]
    assert degrees == sorted(degrees)
    assert p.canonical_items()[1][0] == WickMonomial((0,), (0,))


def test_rewrite_step_guard():
    spec = qccr(2, 0.5)
    with pytest.raises(ValueError):
        rewrite.rewrite_step(spec, rewrite.parse_word("a1 a2*"), 0)


def test_normal_order_index_guard():
    spec = qccr(2, 0.5)
    with pytest.raises(SpecError):
        rewrite.normal_order(spec, ((5, False),))
