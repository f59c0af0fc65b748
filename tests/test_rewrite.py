"""The Fock functional on free words, the star involution, and the
reference Wick ordering in ``oracles`` that the functional is checked
against."""

import itertools
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import (
    braided_families,
    creation_words,
    hecke,
    free_spec,
    max_confluence_defect,
    max_cross_residual,
    qccr,
    qij,
    rotated,
    twisted_flip,
)
from oracles import WickMonomial, WickPolynomial
from wickfock import cli, model, rewrite
from wickfock.algebra import Algebra
from wickfock.model import SpecError

SPECS = {p.stem: p for p in sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.json"))}


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


def test_parse_word_expr_refuses_a_misspelt_key():
    # "RE" for "re" would read as a zero coefficient, and 0 = 0 passes any
    # comparison
    with pytest.raises(SpecError, match=r"word expression entry 1: unknown keys \['RE'\]"):
        rewrite.parse_word_expr('[{"re": 1, "word": "a1"}, {"RE": 2, "word": "a1 a2"}]', 2)


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
    p = oracles.normal_order(spec, rewrite.parse_word("a1* a1"))
    assert p.coefficient(WickMonomial((), ())) == 1.0
    assert p.coefficient(WickMonomial((0,), (0,))) == 0.5
    assert len(p.terms) == 2


def test_normal_order_leaves_ordered_words():
    spec = qccr(2, 0.5)
    word = rewrite.parse_word("a1 a2*")
    p = oracles.normal_order(spec, word)
    assert p == WickPolynomial({WickMonomial((0,), (1,)): 1.0 + 0j})


def test_normal_order_off_diagonal():
    spec = qccr(2, 0.5)
    p = oracles.normal_order(spec, rewrite.parse_word("a1* a2"))
    assert p == WickPolynomial({WickMonomial((1,), (0,)): 0.5 + 0j})


def test_normal_order_accepts_linear_combinations():
    spec = qccr(2, 0.5)
    combo = {rewrite.parse_word("a1* a1"): 2.0 + 0j, rewrite.parse_word("1"): 1.0 + 0j}
    p = oracles.normal_order(spec, combo)
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
    s = oracles.star(p)
    assert s == WickPolynomial({WickMonomial((1,), (1, 0)): 1.0 - 2.0j})
    assert oracles.star(s) == p


def test_fock_functional():
    spec = qccr(2, 0.5)
    f = Algebra(spec).f
    assert oracles.fock_functional(oracles.normal_order(spec, ())) == f(()) == 1.0
    word = rewrite.parse_word("a1 a1*")
    assert oracles.fock_functional(oracles.normal_order(spec, word)) == f(word) == 0.0
    combo = {(): 3.0 + 0j, ((0, False), (1, True)): 2.0 + 0j}
    assert oracles.fock_functional(oracles.normal_order(spec, combo)) == 3.0
    # q-CCR: a2* a1 = q a1 a2*, so f(a1* a2* a1 a2) = q f(a1* a1 a2* a2) = q
    assert f(rewrite.parse_word("a1* a2* a1 a2")) == 0.5


def test_fock_functional_index_guard():
    with pytest.raises(SpecError, match="out of range"):
        Algebra(qccr(2, 0.5)).f(((5, True), (0, False)))


def test_inner_via_f_examples():
    alg = Algebra(qccr(2, 0.5))
    a1 = {rewrite.parse_word("a1"): 1.0 + 0j}
    a2 = {rewrite.parse_word("a2"): 1.0 + 0j}
    assert rewrite.inner_via_f(alg, a1, a1) == 1.0
    assert rewrite.inner_via_f(alg, a1, a2) == 0.0

    d1 = Algebra(qccr(1, 0.5))
    aa = {rewrite.parse_word("a1 a1"): 1.0 + 0j}
    # oracle: <e(x)e, P_2 e(x)e> on the operator side
    P2 = oracles.build_P(d1.T, 2).mat[0, 0]
    assert abs(rewrite.inner_via_f(d1, aa, aa) - P2) <= 1e-15
    assert abs(rewrite.inner_via_f(d1, aa, aa) - 1.5) <= 1e-15


def test_inner_via_f_is_conjugate_linear_in_x():
    alg = Algebra(twisted_flip(2, seed=3))
    u, w = rewrite.parse_word("a1 a2"), rewrite.parse_word("a2 a1")
    base = rewrite.inner_via_f(alg, {u: 1.0 + 0j}, {w: 1.0 + 0j})
    assert base.imag != 0
    c = 0.3 - 1.7j
    assert abs(rewrite.inner_via_f(alg, {u: c}, {w: 1.0 + 0j}) - c.conjugate() * base) <= 1e-15
    assert abs(rewrite.inner_via_f(alg, {u: 1.0 + 0j}, {w: c}) - c * base) <= 1e-15


def test_inner_via_f_rejects_annihilators():
    alg = Algebra(qccr(2, 0.5))
    bad = {rewrite.parse_word("a1*"): 1.0 + 0j}
    good = {rewrite.parse_word("a1"): 1.0 + 0j}
    with pytest.raises(ValueError, match="creation-only"):
        rewrite.inner_via_f(alg, bad, good)
    with pytest.raises(ValueError, match="creation-only"):
        rewrite.inner_via_f(alg, good, bad)


def test_long_words_need_no_recursion():
    # the evaluation keeps its own stack: a word of 3,000 letters is far
    # beyond the interpreter's recursion limit
    start = time.perf_counter()
    a1 = {((0, False),) * 1500: 1.0 + 0j}
    assert rewrite.inner_via_f(Algebra(free_spec(1)), a1, a1) == 1.0
    assert time.perf_counter() - start <= 10.0
    # q-CCR d=1: <a1^n, a1^n>_0 = [n]_q! = prod_{m<=n} (1 + q + ... + q^(m-1))
    q, n = 0.5, 40
    expected = math.prod((1 - q**m) / (1 - q) for m in range(1, n + 1))
    a1 = {((0, False),) * n: 1.0 + 0j}
    got = rewrite.inner_via_f(Algebra(qccr(1, q)), a1, a1)
    assert abs(got - expected) <= 1e-13 * expected


def test_cross_validation_against_fock_inner():
    for spec in (qccr(2, 0.5), qij(-1.0)):
        assert max_cross_residual(spec, 3) <= 1e-9


@pytest.mark.parametrize("d", [2, 3])
@given(data=st.data())
def test_cross_validation_on_hecke_and_unimodular_flips(d, data):
    assert max_cross_residual(data.draw(braided_families(d)), 3) <= 1e-9


def test_cross_validation_on_rotated_hecke():
    # T mixes every basis tensor, so every a_i* a_j has d^2 coefficients
    assert max_cross_residual(rotated(hecke(2, 0.6), seed=2), 3) <= 1e-9


def test_cross_validation_on_rotated_hecke_at_d3():
    # the degree-3 cross-check of full --n-max 5 on this spec: 1,600 pairs
    # over 81 coefficients for each a_i* a_j
    assert max_cross_residual(rotated(hecke(3, 0.6), 1), 3) <= 1e-9


def mixed_words(d, max_degree):
    letter = st.tuples(st.integers(0, d - 1), st.booleans())
    return st.lists(letter, max_size=max_degree).map(tuple)


@st.composite
def live_words(draw, d, max_pairs):
    """Words f does not prune: a starred letter first, a plain one last,
    and as many starred letters as plain ones."""
    letters = st.integers(0, d - 1)
    n = draw(st.integers(1, max_pairs))
    starred = [(i, True) for i in draw(st.lists(letters, min_size=n, max_size=n))]
    plain = [(i, False) for i in draw(st.lists(letters, min_size=n, max_size=n))]
    return (starred[0], *draw(st.permutations(starred[1:] + plain[1:])), plain[0])


def pruned(word) -> bool:
    """A word f sends to 0 without a rewrite step."""
    starred = sum(s for _, s in word)
    return bool(word) and (not word[0][1] or word[-1][1] or 2 * starred != len(word))


def assert_functional_matches_the_normal_form(spec, words):
    f = Algebra(spec).f
    for word in words:
        normal = oracles.normal_order(spec, word)
        want = oracles.fock_functional(normal)
        if pruned(word):
            assert f(word) == want == 0, word
        else:
            scale = max((abs(c) for c in normal.terms.values()), default=0.0)
            assert abs(f(word) - want) <= 1e-12 * max(scale, 1.0), (word, f(word), want)


@pytest.mark.parametrize("d", [2, 3])
@given(data=st.data())
def test_fock_functional_matches_the_normal_form(d, data):
    spec = data.draw(braided_families(d))
    words = data.draw(mixed_words(d, 8)), data.draw(live_words(d, 4))
    assert_functional_matches_the_normal_form(spec, words)


@given(q=st.floats(0.0, 1.0, exclude_min=True), word=mixed_words(2, 8), live=live_words(2, 4))
def test_fock_functional_matches_the_normal_form_on_rotated_hecke(q, word, live):
    assert_functional_matches_the_normal_form(rotated(hecke(2, q), seed=1), (word, live))


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
    alg = Algebra(qccr(2, q))
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
        assert abs(rewrite.inner_via_f(alg, X, Y) - expected) <= 1e-9


def assert_matches_the_path_expansion(spec, word):
    merged = oracles.normal_order(spec, word)
    paths = oracles.normal_order_paths(spec, word)
    scale = max((abs(c) for c in paths.terms.values()), default=0.0)
    for m in set(merged.terms) | set(paths.terms):
        assert abs(merged.coefficient(m) - paths.coefficient(m)) <= 1e-12 * scale, m


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


def test_fock_functional_expands_each_distinct_word_once(monkeypatch):
    # full's degree-3 cross-check at d=3: the rotated T is one block per
    # degree, so the 1 + 9 + 81 + 729 same-degree pairs share the algebra's f
    alg = Algebra(rotated(hecke(3, 0.6), 1))
    expanded, pairs = [], []
    expand, evaluate = alg.f._expand, rewrite.FockFunctional.__call__

    def counted_expand(word):
        expanded.append(word)
        return expand(word)

    def counted_call(self, word):
        pairs.append(word)
        return evaluate(self, word)

    monkeypatch.setattr(alg.f, "_expand", counted_expand)
    monkeypatch.setattr(rewrite.FockFunctional, "__call__", counted_call)
    checks = cli._Checks()
    cli._suite_rewrite_cross(alg, checks, 3, 1e-8)
    assert checks.overall == "pass"
    assert len(pairs) == 1 + 9 + 81 + 729
    assert len(expanded) == len(set(expanded)) == len(alg.f.values) - 1  # all but the empty word
    assert len(expanded) > 1000


@pytest.mark.parametrize("name", [*SPECS, "rotated hecke d=2"])
def test_rewrite_cross_check_equals_the_pairwise_reference(name):
    # for one-word X and Y, every sum of the pairwise route has one nonzero
    # term, the entry of P_n the CLI reads, so the two agree bit for bit
    if name in SPECS:
        spec = model.load_spec_file(SPECS[name])
    else:
        spec = rotated(hecke(2, 0.6), 1)
    checks = cli._Checks()
    cli._suite_rewrite_cross(Algebra(spec), checks, 3, 1e-8)
    [record] = checks.records
    assert record["residual"] == oracles.rewrite_cross_residual(Algebra(spec), 3)
    assert record["status"] == "pass"


def test_each_algebra_keeps_its_own_word_values():
    word = rewrite.parse_word("a1* a2* a1* a1 a1 a2")
    low, high = Algebra(qccr(2, 0.3)), Algebra(qccr(2, 0.7))
    assert low.f is low.f and low.f.values is not high.f.values
    first = low.f(word)
    assert high.f(word) == Algebra(qccr(2, 0.7)).f(word) != first
    assert low.f(word) == first == Algebra(qccr(2, 0.3)).f(word)
    assert len(Algebra(qccr(2, 0.3)).f.values) == 1  # the empty word alone: nothing shared


def test_gram_matrix_of_f_is_psd():
    alg = Algebra(qccr(2, 0.5))
    words = [w for w in creation_words(2, 2) if len(w) == 2]
    gram = np.zeros((len(words), len(words)), dtype=complex)
    for r, wx in enumerate(words):
        for c, wy in enumerate(words):
            gram[r, c] = rewrite.inner_via_f(alg, {wx: 1.0 + 0j}, {wy: 1.0 + 0j})
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
        oracles.rewrite_step(spec, rewrite.parse_word("a1 a2*"), 0)


def test_normal_order_index_guard():
    spec = qccr(2, 0.5)
    with pytest.raises(SpecError):
        oracles.normal_order(spec, ((5, False),))
