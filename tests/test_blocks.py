"""Operators kept in weight blocks: equal to the dense references, and
closed forms per block.

The closed forms compute each block's size from the multinomial of its
letter content and share no code with the build."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import braided_families, hecke, qccr, rotated
from wickfock import spectral, tensorops
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
    norm, and bit for bit when T is one dense block (``exact``)."""
    alg = Algebra(spec)
    T = alg.T
    for level in range(2, max_level + 1):
        P = oracles.build_P(T, level).mat
        pairs = [
            (alg.R(level).mat, oracles.build_R(T, level).mat),
            (alg.P(level).mat, P),
            (alg.U(level - 1).mat, oracles.build_U(T, level - 1).mat),
            (alg.ker_P(level, spectral.RANK_TOL).projector().mat,
             oracles.kernel_projector(P, spectral.RANK_TOL)),
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
