"""Amplifications, the R/P/U constructions, and their factorizations; the
Kronecker amplification and the Rt product are the references in
``oracles``."""

import itertools

import numpy as np
import pytest

import oracles
from conftest import (
    braided_presets,
    example3,
    free_spec,
    hecke,
    qccr,
    qij,
    random_unitary,
    rotated,
    unimodular_flip,
)
from wickfock import coxeter, model, spectral, tensorops
from wickfock.algebra import Algebra
from wickfock.model import TensorOperator


def qfactorial(q: float, n: int) -> float:
    """[n]_q! with [k]_q = 1 + q + ... + q^(k-1)."""
    total = 1.0
    for k in range(1, n + 1):
        total *= sum(q**j for j in range(k))
    return total


def permutation_matrix(perm_of_slots, d: int) -> np.ndarray:
    """Operator sending e_{i_1} (x) ... (x) e_{i_n} to the tensor with slot t
    holding the old slot perm_of_slots[t] (0-based slots)."""
    n = len(perm_of_slots)
    dim = d**n
    mat = np.zeros((dim, dim), dtype=complex)
    for src in itertools.product(range(d), repeat=n):
        dst = tuple(src[perm_of_slots[t]] for t in range(n))
        p = sum(i * d ** (n - 1 - t) for t, i in enumerate(src))
        r = sum(i * d ** (n - 1 - t) for t, i in enumerate(dst))
        mat[r, p] = 1.0
    return mat


def test_amplify_scalar_case():
    T = model.build_T(qccr(1, 0.5))
    for n in (2, 3, 4):
        for i in range(1, n):
            assert oracles.amplify(T, i, n).mat[0, 0] == 0.5


def test_amplify_flip_is_slot_swap():
    # oracle: explicit basis-vector permutation of the first two slots
    flip = model.build_T(qccr(2, 1.0))
    expected = permutation_matrix((1, 0, 2), 2)
    assert np.array_equal(oracles.amplify(flip, 1, 3).mat.real, expected.real)
    expected23 = permutation_matrix((0, 2, 1), 2)
    assert np.array_equal(oracles.amplify(flip, 2, 3).mat.real, expected23.real)


def test_amplify_commutes_at_distance_exactly():
    for _, spec in braided_presets():
        T = model.build_T(spec)
        t1 = oracles.amplify(T, 1, 4).mat
        t3 = oracles.amplify(T, 3, 4).mat
        assert np.array_equal(t1 @ t3, t3 @ t1)


def test_amplify_position_errors():
    T = model.build_T(qccr(2, 0.5))
    with pytest.raises(ValueError):
        oracles.amplify(T, 0, 3)
    with pytest.raises(ValueError):
        oracles.amplify(T, 3, 3)
    with pytest.raises(ValueError):
        oracles.amplify(TensorOperator(2, 3, np.eye(8)), 1, 4)
    with pytest.raises(ValueError):
        tensorops.apply_slots(T.mat, 2, 0, np.eye(8))
    with pytest.raises(ValueError):
        tensorops.apply_slots(T.mat, 2, 3, np.eye(8))


def _rel_err(got: np.ndarray, expected: np.ndarray) -> float:
    return float(np.linalg.norm(got - expected) / max(1.0, np.linalg.norm(expected)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_apply_slots_and_word_product_match_kron_products(d):
    # Every preset T is real symmetric, so a transpose or adjoint slip in the
    # slot contraction would pass the preset tests; a random complex,
    # non-Hermitian, non-braided T does not.  word_product runs on T in one
    # block and, in the weight layout, on Tw, T without the entries that take
    # a letter pair elsewhere than to itself or its swap.  Reference:
    # products of the explicit Kronecker amplifications.
    rng = np.random.default_rng(d)

    def crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    T = TensorOperator(d, 2, crandn(d * d, d * d) / (2 * d))
    a, b = np.divmod(np.arange(d * d), d)
    kept = ((a[:, None] == a) & (b[:, None] == b)) | ((a[:, None] == b) & (b[:, None] == a))
    Tw = TensorOperator(d, 2, np.where(kept, T.mat, 0))
    assert tensorops.weight_preserving(Tw)
    for op in (T, Tw):
        assert tensorops.op_norm(op.mat - op.mat.conj().T) > 0.1 or d == 1
    tol = 1e-12  # float64 rounding over at most ten factors of size <= 3^5
    for level in range(2, 6):
        dim = d**level
        X = crandn(dim, dim)
        tall = crandn(dim, 3)
        for i in range(1, level):
            Ti = oracles.amplify(T, i, level).mat
            assert _rel_err(tensorops.apply_slots(T.mat, d, i, X), X @ Ti) <= tol
            assert _rel_err(oracles.apply_left(T.mat, d, i, X), Ti @ X) <= tol
            assert _rel_err(oracles.apply_left(T.mat, d, i, tall), Ti @ tall) <= tol
        word = tuple(int(i) for i in rng.integers(1, level, size=2 * level))
        for op, weight in ((T, False), (Tw, True)):
            expected = np.eye(dim)
            for i in word:
                expected = expected @ oracles.amplify(op, i, level).mat
            words = tensorops.layout(d, level, weight)
            assert _rel_err(tensorops.word_product(op, word, level, words).mat, expected) <= tol
            assert np.array_equal(tensorops.word_product(op, (), level, words).mat, np.eye(dim))

        # multi-slot operators as build_P and the P(D_m) check use them:
        # (1 (x) P_{level-1}) R_level and X (P_{level-1} (x) 1)
        P = oracles.build_P(T, level - 1).mat
        R = oracles.build_R(T, level).mat
        eye_d = np.eye(d)
        assert _rel_err(oracles.apply_left(P, d, 2, R), np.kron(eye_d, P) @ R) <= tol
        assert _rel_err(tensorops.apply_slots(P, d, 1, X), X @ np.kron(P, eye_d)) <= tol
        if level >= 4:  # a three-slot operator strictly inside the tensor power
            op = crandn(d**3, d**3)
            amp = np.kron(np.kron(eye_d, op), np.eye(d ** (level - 4)))
            assert _rel_err(tensorops.apply_slots(op, d, 2, X), X @ amp) <= tol
            assert _rel_err(oracles.apply_left(op, d, 2, X), amp @ X) <= tol


def test_braid_residual_presets_and_zero():
    for label, spec in braided_presets():
        assert tensorops.braid_residual(model.build_T(spec)) <= 1e-12, label
    assert tensorops.braid_residual(model.build_T(free_spec())) == 0.0


def test_braid_residual_detects_perturbation():
    # q-ccr q=0.5 with M[(1,1),(2,2)] and its adjoint partner set to 0.1
    M = model.build_T(qccr(2, 0.5)).mat.copy()
    M[0, 3] = 0.1
    M[3, 0] = 0.1
    residual = tensorops.braid_residual(TensorOperator(2, 2, M))
    assert residual > 1e-3


def test_braid_relation_at_every_position():
    for label, spec in braided_presets():
        T = model.build_T(spec)
        for n in range(3, 7):
            for i in range(1, n - 1):
                ti = oracles.amplify(T, i, n).mat
                tj = oracles.amplify(T, i + 1, n).mat
                assert np.linalg.norm(ti @ tj @ ti - tj @ ti @ tj, 2) <= 1e-12, (label, n, i)
    T3 = model.build_T(qccr(3, 0.5))
    for n in (3, 4):
        for i in range(1, n - 1):
            ti = oracles.amplify(T3, i, n).mat
            tj = oracles.amplify(T3, i + 1, n).mat
            assert np.linalg.norm(ti @ tj @ ti - tj @ ti @ tj, 2) <= 1e-12


def test_build_R_scalar_geometric():
    alg = Algebra(qccr(1, 0.5))
    # oracle: geometric sum 1 + q + q^2
    assert abs(alg.R(3).mat[0, 0] - 1.75) <= 1e-15
    assert abs(alg.R(3).mat[0, 0] - sum(0.5**j for j in range(3))) <= 1e-15


def test_build_R_zero_and_low_levels():
    alg = Algebra(free_spec(2))
    for n in (0, 1, 2, 4):
        assert np.array_equal(alg.R(n).mat, np.eye(2**n))
    alg_q = Algebra(qccr(2, 0.5))
    assert np.array_equal(alg_q.R(0).mat, np.eye(1))
    assert np.array_equal(alg_q.R(1).mat, np.eye(2))


def test_build_R_flip_spectrum():
    # oracle: symmetric/antisymmetric split of H (x) H
    flip = Algebra(qccr(2, 1.0))
    evals = sorted(np.linalg.eigvalsh(flip.R(2).mat).real)
    assert np.allclose(evals, [0.0, 2.0, 2.0, 2.0], atol=1e-12)


def test_build_Rtilde():
    T1 = model.build_T(qccr(1, 0.5))
    assert abs(oracles.build_Rtilde(T1, 3, 3).mat[0, 0] - 1.75) <= 1e-15
    T0 = model.build_T(free_spec(2))
    assert np.array_equal(oracles.build_Rtilde(T0, 3, 4).mat, np.eye(16))
    for _, spec in braided_presets():
        T = model.build_T(spec)
        lhs = oracles.build_Rtilde(T, 2, 2).mat
        assert np.allclose(lhs, Algebra(spec).R(2).mat, atol=1e-15)
    with pytest.raises(ValueError):
        oracles.build_Rtilde(T1, 1, 3)
    with pytest.raises(ValueError):
        oracles.build_Rtilde(T1, 4, 3)


def test_build_P_scalar_qfactorial():
    alg = Algebra(qccr(1, 0.5))
    assert abs(alg.P(3).mat[0, 0] - 2.625) <= 1e-15
    for n in range(7):
        expected = qfactorial(0.5, n)
        assert abs(alg.P(n).mat[0, 0] - expected) <= 1e-12 * max(1, expected)


def test_build_P_is_covariant_under_rotation():
    # P_L((U (x) U) T (U (x) U)^*) = U^(x)L P_L(T) U^(x)L^*
    for seed, spec in enumerate([hecke(2, 0.6), hecke(3, 0.8), unimodular_flip(3, 0)]):
        U = random_unitary(spec.d, seed)
        alg, alg_rot = Algebra(spec), Algebra(rotated(spec, seed))
        UL = U
        for level in range(2, 5):
            UL = np.kron(UL, U)  # U^(x)level
            lhs = alg_rot.P(level).mat
            rhs = UL @ alg.P(level).mat @ UL.conj().T
            assert tensorops.op_norm(lhs - rhs) <= 1e-12, (spec.source, level)


def test_build_P_zero_is_identity():
    alg = Algebra(free_spec(2))
    for n in (0, 1, 2, 3, 4):
        assert np.array_equal(alg.P(n).mat, np.eye(2**n))


def test_build_P_flip_is_symmetrizer_sum():
    # oracle: sum over the 6 slot-permutation matrices of S_3
    flip = Algebra(qccr(2, 1.0))
    expected = np.zeros((8, 8), dtype=complex)
    for perm in itertools.permutations(range(3)):
        expected += permutation_matrix(perm, 2)
    P3 = flip.P(3).mat
    assert np.allclose(P3, expected, atol=1e-12)
    evals = sorted(np.linalg.eigvalsh(P3).real)
    assert np.allclose(evals, [0, 0, 0, 0, 6, 6, 6, 6], atol=1e-10)


def test_build_P_selfadjoint_for_braided_presets():
    for label, spec in braided_presets():
        alg = Algebra(spec)
        for n in range(2, 6):
            P = alg.P(n).mat
            assert np.linalg.norm(P - P.conj().T, 2) <= 1e-10, (label, n)


def test_build_P_positive_for_contractive_presets():
    for label, spec in braided_presets():
        alg = Algebra(spec)
        assert tensorops.op_norm(alg.T) <= 1.0 + 1e-12
        for n in range(2, 6):
            P = alg.P(n).mat
            min_eig = np.linalg.eigvalsh((P + P.conj().T) / 2)[0]
            assert min_eig >= -1e-10, (label, n)


def test_build_PDm_scalar_decomposition():
    T = model.build_T(qccr(1, 0.5))
    assert abs(oracles.build_PDm(T, 1, 2).mat[0, 0] - 1.75) <= 1e-15
    p3 = oracles.build_P(T, 3).mat[0, 0]
    p2 = oracles.build_P(T, 2).mat[0, 0]
    assert abs(p3 - 1.75 * p2) <= 1e-15
    assert abs(p3 - 2.625) <= 1e-15


def test_build_PDm_argument_guards():
    T = model.build_T(qccr(2, 0.5))
    with pytest.raises(ValueError):
        oracles.build_PDm(T, 0, 2)
    with pytest.raises(ValueError):
        oracles.build_PDm(T, 1, 1)


def test_factorization_m_form():
    # the walk's bucket sum P(D_J), J = {1..m-1} at rank n+m-1, against the
    # Rt product P(D_m), which also satisfies P_{n+m} = P(D_m) (P_m (x) 1_n)
    for spec in (free_spec(2), qccr(2, 1.0), qij(-1.0)):
        T = model.build_T(spec)
        for n, m in [(1, 2), (2, 2), (1, 3)]:
            sums = coxeter.descent_sums(T, n + m - 1)
            J = 2 ** (m - 1) - 1
            PDJ = sum(sums[D] for D in range(len(sums)) if not D & J)
            PDm = oracles.build_PDm(T, n, m).mat
            assert tensorops.op_norm(PDJ - PDm) <= 1e-10, (spec.source, n, m)
            rhs = tensorops.apply_slots(oracles.build_P(T, m).mat, T.d, 1, PDm)
            assert tensorops.op_norm(oracles.build_P(T, n + m).mat - rhs) <= 1e-10, (n, m)


def test_factorization_J_form():
    # P_{n+1} = P(D_J) P(W_J) is checked from the Coxeter walk
    alg = Algebra(qccr(2, 0.5))
    fact = coxeter.coxeter_checks(alg, 3)["factorization"][1]
    assert fact["J"] == [1] and fact["residual"] <= 1e-10
    fact = coxeter.coxeter_checks(alg, 2)["factorization"][0]
    assert fact["J"] == [] and fact["residual"] <= 1e-10


def test_build_U_scalar_and_zero():
    alg = Algebra(qccr(1, 0.5))
    assert abs(alg.U(2).mat[0, 0] - 0.125) <= 1e-15
    free = Algebra(free_spec(2))
    for n in (1, 2, 3):
        assert np.array_equal(free.U(n).mat, np.zeros((2 ** (n + 1),) * 2))


def test_build_U_flip_is_reversal():
    # oracle: the explicit order-reversing slot permutation on 3 slots
    flip = Algebra(qccr(2, 1.0))
    expected = permutation_matrix((2, 1, 0), 2)
    assert np.allclose(flip.U(2).mat, expected, atol=1e-12)


def test_build_U_selfadjoint_contraction():
    for label, spec in braided_presets():
        alg = Algebra(spec)
        for n in range(1, 5):
            U = alg.U(n).mat
            assert np.linalg.norm(U - U.conj().T, 2) <= 1e-10, (label, n)
            assert tensorops.op_norm(U) <= 1.0 + 1e-10, (label, n)


def test_telescoping_identity():
    for label, spec in braided_presets():
        alg = Algebra(spec)
        for n in range(1, 5):
            assert spectral.telescoping_residual(alg, n) <= 1e-10, (label, n)
    # scalar oracle: 1 - q^(n(n+1)) telescopes through the q powers
    assert spectral.telescoping_residual(Algebra(qccr(1, 0.5)), 3) <= 1e-15


def test_op_norm_skips_blocks_without_vectors():
    # P_3 of q-CCR at q=0.5 is strictly positive: no block of ker P_3 holds a vector
    assert tensorops.op_norm(Algebra(qccr(2, 0.5)).ker_P(3, 1e-8).parts) == 0.0
    # at q=1 the symmetric words' block holds none, the mixed ones two each
    parts = Algebra(qccr(2, 1.0)).ker_P(3, 1e-8).parts
    assert sorted(m.shape[1] for m in parts.mats) == [0, 0, 2, 2]
    assert abs(tensorops.op_norm(parts) - 1.0) <= 1e-12  # an orthonormal basis


def test_op_norm_conventions():
    T = model.build_T(qccr(2, 0.5))
    assert abs(tensorops.op_norm(T) - 0.5) <= 1e-12
    assert tensorops.op_norm(np.zeros((3, 3))) == 0.0
    assert abs(tensorops.op_norm(np.diag([1.0, -3.0])) - 3.0) <= 1e-12
