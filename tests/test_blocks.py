"""Operators kept in weight blocks: equal to the dense references, and
closed forms per block.

The closed forms compute each block's size from the multinomial of its
letter content and share no code with the build."""

import itertools
import math
import random
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    braided_families,
    check_against_reference,
    hecke,
    qccr,
    rotated,
    twisted_flip,
    twisted_flip_spec,
    unimodular_flip,
    unimodular_q,
    walk_buckets,
)
from wickfock import cli, coxeter, fock, model, spectral, tensorops
from wickfock.algebra import Algebra

TOL = 1e-12


def multinomial(content: Counter) -> int:
    return math.factorial(sum(content.values())) // math.prod(map(math.factorial, content.values()))


def letters(word: int, d: int, level: int) -> Counter:
    return Counter(word // d ** (level - 1 - t) % d for t in range(level))


def kernel_dims(alg: Algebra, level: int) -> list[tuple[Counter, int, int]]:
    """(letter content, words, dim ker P_level) for every block of the level,
    the content read off the block's first word."""
    parts = alg.ker_P(level, spectral.RANK_TOL).parts
    return [
        (letters(int(words[0]), alg.T.d, level), len(words), basis.shape[1])
        for words, basis in zip(parts.words, parts.mats)
    ]


def check_blocks(blocks, d: int, level: int) -> None:
    """One block per letter content (a composition of the level into d
    parts), each as large as its multinomial."""
    assert len(blocks) == math.comb(level + d - 1, d - 1)
    assert len({tuple(sorted(content.items())) for content, _, _ in blocks}) == len(blocks)
    for content, size, _ in blocks:
        assert size == multinomial(content), content


@pytest.mark.parametrize("d, level", [(2, 6), (3, 5)])
def test_hecke_kernel_misses_one_line_per_block(d, level):
    # the image of P_L is the q-symmetric tensors, one per letter content
    blocks = kernel_dims(Algebra(hecke(d, 0.6)), level)
    check_blocks(blocks, d, level)
    for content, size, dim in blocks:
        assert dim == multinomial(content) - 1, content


@pytest.mark.parametrize("d, level", [(3, 3), (3, 5), (4, 4)])
def test_antisymmetric_kernel_per_block(d, level):
    # q = -1: T is minus the flip and P_L the antisymmetrizer times L!, so
    # its image is one antisymmetric tensor per content of distinct letters
    blocks = kernel_dims(Algebra(qccr(d, -1.0)), level)
    check_blocks(blocks, d, level)
    for content, size, dim in blocks:
        distinct = all(count == 1 for count in content.values())
        assert dim == multinomial(content) - distinct, content


@pytest.mark.parametrize("d, level", [(3, 3), (4, 4), (5, 5)])
def test_zagier_determinant_on_the_block_of_distinct_letters(d, level):
    # Zagier, Comm. Math. Phys. 147 (1992): on the words of L distinct
    # letters, det P_L = prod_{k=1}^{L-1} (1 - q^(k^2+k))^((L-k) L!/(k^2+k))
    q = 0.5
    alg = Algebra(qccr(d, q))
    P = alg.P(level)
    first = sum(t * d ** (level - 1 - t) for t in range(level))  # the word 0 1 ... L-1
    [block] = [m for words, m in zip(P.words, P.mats) if first in words]
    assert len(block) == math.factorial(level)
    sign, logdet = np.linalg.slogdet(block)
    expected = sum(
        (level - k) * math.factorial(level) / (k * k + k) * math.log1p(-(q ** (k * k + k)))
        for k in range(1, level)
    )
    assert abs(sign - 1) <= TOL
    assert abs(logdet - expected) <= TOL * abs(expected)


def within(built: np.ndarray, reference: np.ndarray) -> bool:
    """The Frobenius norm of the difference, which bounds its operator norm,
    within TOL of the reference's operator norm."""
    return np.linalg.norm(built - reference) <= TOL * max(1.0, tensorops.op_norm(reference))


def check_against_dense_references(spec, max_level: int, exact: bool) -> None:
    """R, P, U, the ker P and ker S projectors of the Algebra against the
    dense constructions in tests/oracles.py: within TOL of the operator's
    norm, and bit for bit when T is one dense block (``exact``).  Across
    weight blocks the ker P reference is refined once
    (:func:`oracles.kernel_basis`): a dense eigendecomposition tilts the
    kernel by eps ||P|| / gap, a block's by its own norm over the gap."""
    alg = Algebra(spec)
    T = alg.T
    for level in range(2, max_level + 1):
        P = oracles.build_P(T, level).mat
        pairs = [
            (alg.R(level).mat, oracles.build_R(T, level).mat),
            (alg.P(level).mat, P),
            (alg.U(level - 1).mat, oracles.build_U(T, level - 1).mat),
            (alg.ker_P(level, spectral.RANK_TOL).projector().mat,
             oracles.kernel_projector(P, spectral.RANK_TOL, refine=not exact)),
            (spectral.ideal_complement(alg, level).projector().mat,
             oracles.ideal_complement_projector(T, level, spectral.RANK_TOL)),
        ]
        for built, reference in pairs:
            assert np.array_equal(built, reference) if exact else within(built, reference), level


@pytest.mark.parametrize("d, max_level", [(2, 5), (3, 4)])
@settings(max_examples=10)
@given(data=st.data())
def test_blocked_operators_equal_the_dense_references(d, max_level, data):
    spec = data.draw(braided_families(d))
    assert Algebra(spec).weight
    check_against_dense_references(spec, max_level, exact=False)


@pytest.mark.parametrize("d, max_level", [(2, 5), (3, 4)])
@settings(max_examples=10)
@given(data=st.data())
def test_one_dense_block_is_the_dense_build(d, max_level, data):
    # a rotated T is not weight-preserving: one block, the parent's dense path
    spec = rotated(data.draw(braided_families(d)), data.draw(st.integers(0, 2**16)))
    assert not Algebra(spec).weight
    check_against_dense_references(spec, max_level, exact=True)


@pytest.mark.parametrize("phases", [(0.0, 0.0, 0.0), (0.5, 1.0, 2.0), (1.0, 4.0, 2.5), (3.0, 5.5, 0.25)])
def test_blocked_operators_on_a_near_degenerate_unimodular_flip(phases):
    # moduli 1 and 0.875, diagonal -1 and 1: a relative gap of about 0.083/24
    # in P_4, where one dense eigh tilts the kernel by eps ||P|| / gap; the
    # property test above met it only by the draw of its examples
    spec = twisted_flip_spec(unimodular_q(3, [1.0, 0.875], phases, [-1.0, 1.0]))
    check_against_dense_references(spec, 4, exact=False)


def test_blocked_reports_on_one_dense_block():
    # a rotated T is one dense block: the blocked Coxeter and U_n reports run
    # the same code on it and give the dense references' residuals
    for spec, max_rank in ((rotated(hecke(2, 0.6), 1), 4), (rotated(unimodular_flip(3, seed=5), 2), 3)):
        alg = Algebra(spec)
        assert not alg.weight
        for n in range(1, max_rank + 1):
            check_against_reference(coxeter.coxeter_checks(alg, n), oracles.coxeter_checks(alg, n), n)
            check_against_reference(spectral.un_checks(alg, n), oracles.un_checks(alg, n), n)


@pytest.mark.parametrize("spec", [qccr(3, 0.5), twisted_flip(3, seed=3)], ids=["q-ccr", "twisted flip"])
def test_blocked_reports_place_no_dense_matrix(spec, monkeypatch, tmp_path):
    alg = Algebra(spec)
    assert alg.weight

    def place(self):
        raise AssertionError(f"placed a dense matrix at level {self.level}")

    def build_T(spec):
        raise AssertionError("built T as one dense matrix")

    monkeypatch.setattr(tensorops.BlockOperator, "place", place)
    dense_T = model.build_T
    for name, module in list(sys.modules.items()):  # wherever a module binds build_T
        if name.split(".")[0] == "wickfock" and getattr(module, "build_T", None) is dense_T:
            monkeypatch.setattr(module, "build_T", build_T)
    assert coxeter.coxeter_checks(alg, 4)["group_sum"] <= 1e-10
    assert spectral.un_checks(alg, 4)["status"] == "pass"
    assert spectral.telescoping_residual(alg, 4) <= 1e-10
    assert spectral.kernel_1mU2_diag(alg, 4)["status"] == "pass"
    assert spectral.wick_ideal_checks(alg, 4)["status"] == "pass"
    assert fock.relation_check(alg, 4)["status"] == "pass"
    x = fock._random_graded(3, 4, random.Random(1))
    assert fock.fock_inner(alg, x, x).real > 0
    # and a whole `full --n-max 4` run
    path = tmp_path / "spec.json"
    path.write_text(model.to_json(spec))
    assert cli.main(["full", "--spec", str(path), "--n-max", "4", "--out", str(tmp_path / "out.json")]) == 0


def check_diagnostics_against_dense(alg: Algebra, max_rank: int) -> None:
    """The telescoping residual, the ker(1 - U_n^2) diagnostic and ker R_{n+1}
    taken per block against the dense references in tests/oracles.py: equal
    dimensions, residuals within 1e-13 and projectors within TOL."""
    T = alg.T
    for n in range(1, max_rank + 1):
        context = (alg.spec.source, n)
        telescoping = spectral.telescoping_residual(alg, n)
        assert abs(telescoping - oracles.telescoping_residual(T, n)) <= 1e-13, context
        assert telescoping <= 1e-10, context
        rep, ref = spectral.kernel_1mU2_diag(alg, n), oracles.kernel_1mU2_diag(T, n)
        for key in ("dim_ker_1mU2", "dim_intersection", "status"):
            assert rep[key] == ref[key], (context, key)
        check_against_reference(rep, ref, context)
        ker_R = spectral.nullspace_svd(alg.R(n + 1))
        basis = oracles.nullspace_basis(oracles.build_R(T, n + 1).mat, spectral.RANK_TOL)
        assert ker_R.dim == basis.shape[1], context
        assert within(ker_R.projector().mat, basis @ basis.conj().T), context


@pytest.mark.parametrize("d, max_rank", [(2, 4), (3, 3)])
@settings(max_examples=10)
@given(data=st.data())
def test_blocked_diagnostics_equal_the_dense_references(d, max_rank, data):
    alg = Algebra(data.draw(braided_families(d)))
    assert alg.weight
    check_diagnostics_against_dense(alg, max_rank)


def test_blocked_diagnostics_on_rotated_hecke():
    # one dense block: the same code as the weight layout, on the whole space
    for spec, max_rank in ((rotated(hecke(2, 0.6), 1), 4), (rotated(hecke(3, 0.6), 2), 3)):
        alg = Algebra(spec)
        assert not alg.weight
        check_diagnostics_against_dense(alg, max_rank)


def check_wick_and_fock_against_dense(alg: Algebra, max_level: int) -> None:
    """The Wick-ideal reports at n <= max_level and the Fock relation
    report at degree max_level, taken through ``alg.split``, against the
    dense references in tests/oracles.py: equal dimensions and statuses,
    residuals within 1e-13."""
    pairs = [(spectral.wick_ideal_checks(alg, n), oracles.wick_ideal_checks(alg, n))
             for n in range(2, max_level + 1)]
    pairs.append((fock.relation_check(alg, max_level), oracles.relation_check(alg, max_level)))
    for rep, ref in pairs:
        context = (alg.spec.source, rep.get("level", rep.get("max_degree")))
        assert rep.keys() == ref.keys(), context
        for key, value in rep.items():
            if isinstance(value, float):
                assert abs(value - ref[key]) <= 1e-13, (context, key, value, ref[key])
            else:
                assert value == ref[key], (context, key)
        assert rep["status"] == "pass", context


@pytest.mark.parametrize("d, max_level", [(2, 4), (3, 3)])
@settings(max_examples=10)
@given(data=st.data())
def test_blocked_wick_and_fock_reports_equal_the_dense_references(d, max_level, data):
    alg = Algebra(data.draw(braided_families(d)))
    assert alg.weight
    check_wick_and_fock_against_dense(alg, max_level)


def test_blocked_wick_and_fock_reports_on_rotated_hecke():
    # one dense block: the split of the whole space by first and last letter
    for spec, max_level in ((rotated(hecke(2, 0.6), 1), 4), (rotated(hecke(3, 0.6), 2), 3)):
        alg = Algebra(spec)
        assert not alg.weight
        check_wick_and_fock_against_dense(alg, max_level)


def test_split_takes_each_letter_to_the_block_of_its_tails():
    # for every block and first (last) letter, the tails of the rows are the
    # words of the home block, in order, and the rows cover the block once
    for spec in (qccr(3, 0.5), rotated(hecke(2, 0.6), 1)):
        alg = Algebra(spec)
        d = alg.T.d
        for level in range(1, 5):
            below = alg.layout(level - 1).words
            for last in (False, True):
                for words, pieces in zip(alg.layout(level).words, alg.split(level, last)):
                    covered = np.concatenate([np.arange(len(words))[rows] for _, rows, _ in pieces])
                    assert sorted(covered) == list(range(len(words))), (level, last)
                    for a, rows, home in pieces:
                        letter, tail = divmod(words[rows], d ** (level - 1))
                        if last:
                            tail, letter = divmod(words[rows], d)
                        assert set(letter) == {a}, (level, last)
                        assert np.array_equal(tail, below[home]), (level, last)


def relabelled(blocks, d: int, level: int, sigma) -> list[tuple[int, np.ndarray]]:
    """Per block: the block that holds the images of its words under the
    letter permutation ``sigma``, and where each image sits in it; read digit
    by digit, and checked to be a bijection of one block onto another."""
    where = {int(w): (b, k) for b, words in enumerate(blocks) for k, w in enumerate(words)}
    images = []
    for words in blocks:
        found = []
        for w in words:
            digits = [int(w) // d ** (level - 1 - t) % d for t in range(level)]
            found.append(where[sum(sigma[x] * d ** (level - 1 - t) for t, x in enumerate(digits))])
        [target] = {b for b, _ in found}
        positions = np.array([k for _, k in found])
        assert sorted(positions) == list(range(len(words)))
        images.append((target, positions))
    return images


@pytest.mark.parametrize("level", [4, 5])
def test_letter_relabelling_maps_each_block_onto_its_image(level):
    # q-CCR treats the letters alike, so P_L and every bucket of the walk of
    # S_L commute with relabelling the letters: block b read through the
    # relabelled words is the block of the images.  The gather does the same
    # arithmetic on an entry and its image, so the buckets agree bit for bit;
    # P_L's matmuls add in the order of the words, so it agrees within TOL
    alg = Algebra(qccr(3, 0.37))
    buckets = walk_buckets(alg, level - 1)
    P = alg.P(level)
    for sigma in itertools.permutations(range(3)):
        for b, (target, positions) in enumerate(relabelled(alg.layout(level).words, 3, level, sigma)):
            image = np.ix_(positions, positions)
            assert within(P.mats[target][image], P.mats[b]), sigma
            for bucket in buckets:
                assert np.array_equal(bucket.mats[target][image], bucket.mats[b]), sigma
