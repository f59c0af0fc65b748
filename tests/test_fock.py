"""Creation, annihilation, and the Fock inner product on the graded space."""

import numpy as np
import pytest

import oracles
from conftest import braided_presets, example3, free_spec, qccr, qij
from wickfock import fock, spectral
from wickfock.algebra import Algebra
from wickfock.fock import DegreeOverflowError
from wickfock.model import TensorOperator


def test_create_on_vacuum():
    v = fock.create(0, fock.elementary(2, 3, ()))
    expected = fock.elementary(2, 3, (0,))
    assert (v - expected).norm() == 0.0


def test_create_stacks_on_left():
    e1 = fock.elementary(2, 3, (0,))
    v = fock.create(1, e1)
    assert (v - fock.elementary(2, 3, (1, 0))).norm() == 0.0


def test_create_is_linear():
    x = fock.elementary(2, 3, (0,)) + fock.elementary(2, 3, (1,))
    v = fock.create(0, x)
    expected = fock.elementary(2, 3, (0, 0)) + fock.elementary(2, 3, (0, 1))
    assert (v - expected).norm() == 0.0


def test_create_overflow_is_an_error():
    top = fock.elementary(2, 2, (0, 1))
    with pytest.raises(DegreeOverflowError):
        fock.create(0, top)


def test_annihilate_mu_examples():
    v = fock.elementary(2, 3, (0, 1))
    out = oracles.annihilate_mu(0, v)
    assert (out - fock.elementary(2, 3, (1,))).norm() == 0.0
    assert oracles.annihilate_mu(1, v).norm() == 0.0
    assert oracles.annihilate_mu(0, fock.elementary(2, 3, ())).norm() == 0.0


def test_annihilate_on_vacuum_and_scalars():
    spec = qccr(2, 0.5)
    assert fock.annihilate(Algebra(spec), 0, fock.elementary(2, 3, ())).norm() == 0.0
    d1 = qccr(1, 0.5)
    out = fock.annihilate(Algebra(d1), 0, fock.elementary(1, 3, (0, 0)))
    assert np.allclose(out.degree(1), [1.5])


def test_annihilate_free_reduces_to_mu():
    alg = Algebra(free_spec(2))
    rng = np.random.default_rng(7)
    v = fock.GradedVector(
        2, tuple(rng.standard_normal(2**n) + 0j for n in range(4))
    )
    for i in (0, 1):
        diff = fock.annihilate(alg, i, v) - oracles.annihilate_mu(i, v)
        assert diff.norm() == 0.0


def test_fock_inner_examples():
    alg = Algebra(qccr(1, 0.5))
    vac = fock.elementary(1, 3, ())
    assert fock.fock_inner(alg, vac, vac) == 1.0 + 0j
    ee = fock.elementary(1, 3, (0, 0))
    assert abs(fock.fock_inner(alg, ee, ee) - 1.5) <= 1e-15

    flip = qccr(2, 1.0)
    anti = fock.elementary(2, 2, (0, 1)) - fock.elementary(2, 2, (1, 0))
    assert abs(fock.fock_inner(Algebra(flip), anti, anti)) <= 1e-15


def test_degree_orthogonality_is_structural():
    spec = qccr(2, 0.5)
    x = fock.elementary(2, 3, (0,))
    y = fock.elementary(2, 3, (0, 1))
    assert fock.fock_inner(Algebra(spec), x, y) == 0j


def test_relation_check_presets():
    for label, spec in braided_presets():
        rep = fock.relation_check(Algebra(spec), 4)
        assert rep["relation_residual"] <= 1e-10, label
        assert rep["adjointness_residual"] <= 1e-9, label
        assert rep["status"] == "pass"


def test_relation_check_free_case_exact():
    rep = fock.relation_check(Algebra(free_spec(2)), 4)
    assert rep["relation_residual"] <= 1e-15
    assert rep["adjointness_residual"] <= 1e-12


def test_relation_check_guard():
    with pytest.raises(ValueError):
        fock.relation_check(Algebra(qccr(2, 0.5)), 1)


def test_kernel_vectors_are_null():
    rng = np.random.default_rng(42)
    for spec in (qij(-1.0), qccr(2, 1.0)):
        alg = Algebra(spec)
        for n in (2, 3):
            K = spectral.kernel(oracles.build_P(alg.T, n))
            for col in range(K.dim):
                b = fock.GradedVector(
                    2,
                    tuple(
                        oracles.dense_basis(K)[:, col] if m == n else np.zeros(2**m, dtype=complex)
                        for m in range(n + 1)
                    ),
                )
                assert abs(fock.fock_inner(alg, b, b)) <= 1e-10
                y = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
                gy = fock.GradedVector(
                    2,
                    tuple(
                        y if m == n else np.zeros(2**m, dtype=complex)
                        for m in range(n + 1)
                    ),
                )
                bound = 1e-8 * np.linalg.norm(y)
                assert abs(fock.fock_inner(alg, b, gy)) <= bound


def test_creation_words_tensor():
    # lam(X) Y = X (x) Y holds exactly for creation words by construction
    spec = qccr(2, 0.5)
    y = fock.elementary(2, 4, (1, 0))
    v = fock.create(0, fock.create(1, y))
    assert (v - fock.elementary(2, 4, (0, 1, 1, 0))).norm() == 0.0


def test_graded_vector_validation():
    with pytest.raises(ValueError, match="length"):
        fock.GradedVector(2, (np.zeros(2),))
    with pytest.raises(ValueError, match="mismatch"):
        fock.elementary(2, 2, ()) + fock.elementary(2, 3, ())
    with pytest.raises(DegreeOverflowError):
        fock.elementary(2, 1, (0, 1))
