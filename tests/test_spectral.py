"""Kernels, subspace arithmetic, and the certification reports."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import (
    braided_families,
    braided_presets,
    check_against_reference,
    example3,
    free_spec,
    hecke,
    matrix_spec,
    qccr,
    qij,
    random_hermitian,
    rotated,
    unimodular_flip,
    unimodular_flips,
)
from wickfock import algebra, model, spectral, tensorops
from wickfock.algebra import Algebra


def test_kernel_of_identity_is_zero():
    K = spectral.kernel(oracles.dense(2, 2, np.eye(4)))
    assert K.dim == 0


def test_kernel_rejects_non_selfadjoint():
    upper = np.zeros((4, 4), dtype=complex)
    upper[0, 1] = 1.0
    with pytest.raises(ValueError, match="self-adjoint"):
        spectral.kernel(oracles.dense(2, 2, upper))


def test_kernel_of_1_plus_T_qij():
    # spanned by a unit multiple of e2 (x) e1 - lam12 * e1 (x) e2
    lam12 = -1.0
    T = model.build_T(qij(lam12))
    K = spectral.kernel(oracles.dense(2, 2, np.eye(4) + T.mat))
    assert K.dim == 1
    v = np.zeros(4, dtype=complex)
    v[1 * 2 + 0] = 1.0
    v[0 * 2 + 1] = -lam12
    v /= np.linalg.norm(v)
    assert abs(abs(np.vdot(oracles.dense_basis(K)[:, 0], v)) - 1.0) <= 1e-12


def test_kernel_of_1_plus_flip_is_antisymmetric_line():
    flip = model.build_T(qccr(2, 1.0))
    K = spectral.kernel(oracles.dense(2, 2, np.eye(4) + flip.mat))
    assert K.dim == 1
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0
    v[2] = -1.0
    v /= np.sqrt(2)
    assert abs(abs(np.vdot(oracles.dense_basis(K)[:, 0], v)) - 1.0) <= 1e-12


def test_nullspace_svd_of_zero_and_full_rank():
    zero = oracles.dense(2, 2, np.zeros((4, 4)))
    assert spectral.nullspace_svd(zero).dim == 4
    assert spectral.nullspace_svd(oracles.dense(2, 2, np.eye(4))).dim == 0


def test_subspace_sum_flip_level3():
    # oracle: d^n - C(d+n-1, n) = 8 - 4, the non-symmetric complement
    alg = Algebra(qccr(2, 1.0))
    flip = alg.T
    complement = spectral.ideal_complement(alg, 3)
    dim_sum = 2**3 - complement.dim
    assert dim_sum == 2**3 - math.comb(2 + 3 - 1, 3)
    kerP = spectral.kernel(oracles.build_P(flip, 3))
    eye = np.eye(8)
    assert tensorops.op_norm(kerP.projector().mat + complement.projector().mat - eye) <= 1e-8
    # every ker(1 + T_k) is orthogonal to the complement
    for k in (1, 2):
        part = spectral.kernel(oracles.dense(2, 3, eye + oracles.amplify(flip, k, 3).mat))
        overlap = oracles.dense_basis(complement).conj().T @ oracles.dense_basis(part)
        assert tensorops.op_norm(overlap) <= 1e-10


def test_subspace_mismatch_errors():
    a = spectral.Subspace(oracles.dense(2, 2, np.zeros((4, 0))))
    b = spectral.Subspace(oracles.dense(2, 3, np.zeros((8, 0))))
    with pytest.raises(ValueError, match="mismatch"):
        spectral.subspace_intersection(a, b)
    with pytest.raises(ValueError, match="orthonormal"):
        spectral.Subspace(oracles.dense(2, 2, np.ones((4, 2))))


def test_kernel_theorem_flip_dims():
    # oracle: 2^k - (k+1), the complement of the symmetric tensors
    alg = Algebra(qccr(2, 1.0))
    for level in (2, 3, 4):
        rep = spectral.kernel_theorem_check(alg, level - 1)
        assert rep["status"] == "pass"
        assert rep["dim_ker_P"] == rep["dim_sum"] == 2**level - (level + 1)
        assert rep["distance"] <= 1e-8
        assert rep["inclusion_margin"] <= 1e-8


def test_kernel_theorem_antiflip_dims():
    # oracle: d^k - C(d, k), the complement of the antisymmetric tensors
    alg = Algebra(qccr(2, -1.0))
    for level in (2, 3, 4):
        rep = spectral.kernel_theorem_check(alg, level - 1)
        assert rep["status"] == "pass"
        assert rep["dim_ker_P"] == rep["dim_sum"] == 2**level - math.comb(2, level)


def test_kernel_theorem_example3_trivial_kernels():
    alg = Algebra(example3(2, 0.5))
    for level in (2, 3, 4):
        rep = spectral.kernel_theorem_check(alg, level - 1)
        assert rep["status"] == "pass"
        assert rep["dim_ker_P"] == rep["dim_sum"] == 0


def test_kernel_theorem_qij():
    for lam in (-1.0, 1.0):
        alg = Algebra(qij(lam))
        for level in (2, 3, 4):
            rep = spectral.kernel_theorem_check(alg, level - 1)
            assert rep["status"] == "pass"
            assert rep["dim_ker_P"] == rep["dim_sum"]
            assert rep["distance"] <= 1e-8


def test_kernel_theorem_inapplicable_beyond_norm_bound():
    # 1.5 * flip is braided but not a contraction
    entries = []
    for i in (1, 2):
        for j in (1, 2):
            entries.append({"i": i, "j": j, "k": i, "l": j, "re": 1.5, "im": 0.0})
    spec = model.load_spec({"d": 2, "coefficients": entries})
    rep = spectral.kernel_theorem_check(Algebra(spec), 2)
    assert not rep["hypotheses"]["applicable"]
    assert rep["status"] == "inapplicable"


def test_easy_inclusion_margin_across_presets():
    for label, spec in braided_presets():
        alg = Algebra(spec)
        for level in range(2, 7):
            rep = spectral.kernel_theorem_check(alg, level - 1)
            assert rep["inclusion_margin"] <= 1e-8, (label, level)


def test_kernel_equality_across_dimensions():
    def qij_d3(sign):
        lam = [[1.0 if r == c else sign for c in range(3)] for r in range(3)]
        return model.preset("qij-ccr", 3, qs=[0.5, 0.5, 0.5], lam=lam)

    cases = [
        (qccr(2, 1.0), 5), (qccr(2, -1.0), 5),
        (qij(-1.0), 5), (qij(1.0), 5),
        (qccr(3, 1.0), 4), (qccr(3, -1.0), 4),
        (qij_d3(-1.0), 4), (qij_d3(1.0), 4),
    ]
    for spec, max_level in cases:
        alg = Algebra(spec)
        for level in range(2, max_level + 1):
            rep = spectral.kernel_theorem_check(alg, level - 1)
            assert rep["status"] == "pass", (spec.source, level)
            assert rep["dim_ker_P"] == rep["dim_sum"], (spec.source, level)
            assert rep["distance"] <= 1e-8, (spec.source, level)


def test_kernel_theorem_on_hecke_and_rotated_hecke():
    # oracle: d^L - C(L+d-1, d-1), the complement of the q-symmetric tensors;
    # rotation keeps it, since it conjugates P_L by the unitary U^(x)L
    cases = [(hecke(2, 0.6), 5), (hecke(3, 0.8), 4)]
    cases += [(rotated(spec, seed), max_level) for seed, (spec, max_level) in enumerate(cases)]
    for spec, max_level in cases:
        alg = Algebra(spec)
        d = spec.d
        for level in range(2, max_level + 1):
            rep = spectral.kernel_theorem_check(alg, level - 1)
            assert rep["status"] == "pass", (level, rep)
            expected = d**level - math.comb(level + d - 1, d - 1)
            assert rep["dim_ker_P"] == rep["dim_sum"] == expected, (level, rep)


def test_kernel_theorem_on_rotated_unimodular_flip():
    flip = unimodular_flip(3, 0)
    spec = rotated(flip, 0)
    M = model.build_T(spec).mat
    # not weight-preserving: T mixes pairs with different multisets of indices
    mixing = [
        abs(M[a * 3 + b, c * 3 + e])
        for a in range(3) for b in range(3) for c in range(3) for e in range(3)
        if sorted((a, b)) != sorted((c, e))
    ]
    assert max(mixing) > 1e-2
    alg, ref = Algebra(spec), Algebra(flip)
    for level in range(2, 5):
        rep = spectral.kernel_theorem_check(alg, level - 1)
        assert rep["status"] == "pass", (level, rep)
        dims = rep["dim_ker_P"], rep["dim_sum"]
        assert dims == (ref.ker_P(level, spectral.RANK_TOL).dim,) * 2, (level, rep)
        assert dims[0] > 0


def test_ideal_complement_matches_the_stacked_level_L_kernels():
    # reference: each ker(1 + T_k) decided directly at level L from the
    # Kronecker T_k, their span from a numpy SVD of the stacked bases
    d2 = [spec for _, spec in braided_presets()] + [unimodular_flip(2, s) for s in range(4)]
    d3 = [qccr(3, 1.0), qccr(3, -1.0), qccr(3, 0.5), example3(3, 0.5)]
    d3 += [
        model.preset("qij-ccr", 3, qs=[0.5, 0.4, 0.6], lam=[[1, lam, lam], [lam, 1, lam], [lam, lam, 1]])
        for lam in (-1.0, 1.0)
    ]
    d3 += [unimodular_flip(3, s) for s in range(4)]
    for spec, max_level in [(s, 5) for s in d2] + [(s, 4) for s in d3]:
        alg = Algebra(spec)
        T = alg.T
        for level in range(2, max_level + 1):
            eye = np.eye(T.d**level, dtype=complex)
            stacked = np.concatenate(
                [
                    oracles.dense_basis(
                        spectral.kernel(oracles.dense(T.d, level, eye + oracles.amplify(T, k, level).mat))
                    )
                    for k in range(1, level)
                ],
                axis=1,
            )
            u, s, _ = np.linalg.svd(stacked, full_matrices=False)
            ref = u[:, s > 1e-8 * max(1.0, s.max(initial=0.0))]
            complement = spectral.ideal_complement(alg, level)
            assert isinstance(complement, spectral.Subspace)
            assert ref.shape[1] + complement.dim == T.d**level, (spec.source, level)
            residual = np.linalg.norm(ref @ ref.conj().T + complement.projector().mat - eye, 2)
            assert residual <= 1e-12, (spec.source, level)


def test_kernel_theorem_decides_one_level2_kernel(monkeypatch):
    levels = []
    real_kernel = spectral.kernel

    def counting_kernel(A, rank_tol=spectral.RANK_TOL):
        levels.append(A.level)
        return real_kernel(A, rank_tol)

    monkeypatch.setattr(spectral, "kernel", counting_kernel)
    monkeypatch.setattr(algebra, "kernel", counting_kernel)
    for spec in (qccr(2, -1.0), qccr(3, 1.0)):
        for n in (2, 3):
            alg = Algebra(spec)
            levels.clear()
            spectral.kernel_theorem_check(alg, n)
            assert sorted(levels) == [2, n + 1, n + 1]  # ker(1 + T), ker S, ker P_{n+1}
            levels.clear()
            spectral.kernel_theorem_check(alg, n)
            assert sorted(levels) == [2, n + 1]  # ker P_{n+1} is memoized


@pytest.mark.parametrize("d, max_level", [(2, 5), (3, 4)])
@given(data=st.data())
def test_kernel_theorem_on_unimodular_twisted_flips(d, max_level, data):
    # braided, self-adjoint, ||T|| = 1, with complex kernels no preset has
    alg = Algebra(data.draw(unimodular_flips(d)))
    for level in range(2, max_level + 1):
        rep = spectral.kernel_theorem_check(alg, level - 1)
        assert rep["status"] == "pass", (alg.spec.source, level, rep)
        assert rep["dim_ker_P"] == rep["dim_sum"] > 0, (alg.spec.source, level, rep)


def test_positivity_classifications():
    rep = spectral.positivity_check(Algebra(qccr(2, 0.5)), 4)
    assert rep["classification"] == "strictly positive"
    assert rep["dim_ker_P"] == 0
    rep = spectral.positivity_check(Algebra(qccr(2, 1.0)), 3)
    assert rep["classification"] == "positive semidefinite"
    assert abs(rep["min_eig"]) <= 1e-10
    assert rep["dim_ker_P"] == 2**3 - 4  # oracle: complement of Sym^3(C^2)
    rep = spectral.positivity_check(Algebra(qccr(1, -1.0)), 2)
    assert rep["classification"] == "positive semidefinite"
    assert abs(rep["min_eig"]) <= 1e-15


def test_positivity_strict_for_open_range_presets():
    for spec in (qccr(2, 0.99), qccr(2, -0.99), example3(2, 0.5)):
        alg = Algebra(spec)
        for n in range(2, 6):
            rep = spectral.positivity_check(alg, n)
            assert rep["classification"] == "strictly positive", (spec.source, n)


def test_un_checks():
    rep = spectral.un_checks(Algebra(qccr(1, 0.7)), 2)
    assert rep["invariance_residual"] <= 1e-15
    assert rep["commutation_residual"] <= 1e-15
    flip = Algebra(qccr(2, 1.0))
    rep = spectral.un_checks(flip, 2)
    assert rep["invariance_residual"] <= 1e-10
    rep = spectral.un_checks(flip, 3)
    assert rep["commutation_residual"] <= 1e-10
    for label, spec in braided_presets():
        alg = Algebra(spec)
        for n in range(1, 5):
            rep = spectral.un_checks(alg, n)
            assert rep["status"] == "pass", (label, n)


@pytest.mark.parametrize("d, max_rank", [(2, 4), (3, 3)])
@given(data=st.data())
def test_un_laws_on_hecke_and_unimodular_flips(d, max_rank, data):
    # every residual, taken per weight block, is the dense reference's
    alg = Algebra(data.draw(braided_families(d)))
    for n in range(1, max_rank + 1):
        rep = spectral.un_checks(alg, n)
        assert rep["status"] == "pass", (alg.spec.source, n, rep)
        check_against_reference(rep, oracles.un_checks(alg, n), (alg.spec.source, n))
        assert spectral.telescoping_residual(alg, n) <= 1e-10, (alg.spec.source, n)


def test_wick_ideal_checks_free():
    rep = spectral.wick_ideal_checks(Algebra(free_spec(2)), 3)
    assert rep["dim_ker_P"] == 0
    assert rep["intertwining_residual"] == 0.0
    assert rep["status"] == "pass"


def test_wick_ideal_checks_flip_exact():
    rep = spectral.wick_ideal_checks(Algebra(qccr(2, 1.0)), 2)
    assert rep["dim_ker_P"] == 1
    assert rep["annihilation_residual"] <= 1e-12
    assert rep["status"] == "pass"


def test_wick_ideal_checks_qij():
    rep = spectral.wick_ideal_checks(Algebra(qij(-1.0)), 3)
    assert rep["status"] == "pass"
    assert max(
        rep["annihilation_residual"],
        rep["coaction_residual"],
        rep["intertwining_residual"],
        rep["kerR_inclusion_margin"],
    ) <= 1e-8


def test_ker_R_inside_ker_P_across_presets():
    for label, spec in braided_presets():
        alg = Algebra(spec)
        for n in range(2, 6):
            rep = spectral.wick_ideal_checks(alg, n)
            assert rep["kerR_inclusion_margin"] <= 1e-8, (label, n)


def test_kernel_1mU2_vacuous_cases():
    rep = spectral.kernel_1mU2_diag(Algebra(example3(2, 0.5)), 2)
    assert rep["dim_intersection"] == 0
    assert rep["status"] == "pass"
    rep = spectral.kernel_1mU2_diag(Algebra(qccr(1, 0.5)), 2)
    assert rep["dim_ker_1mU2"] == 0
    assert rep["status"] == "pass"


def test_kernel_1mU2_flip():
    rep = spectral.kernel_1mU2_diag(Algebra(qccr(2, 1.0)), 2)
    assert rep["dim_ker_1mU2"] == 8
    assert rep["dim_intersection"] == 4
    assert rep["involution_residual"] <= 1e-10
    assert rep["status"] == "pass"


def test_un_laws_are_inapplicable_on_a_T_that_is_not_braided():
    # a random self-adjoint T at d=2 with ||T|| = 1/2: P_3 is strictly
    # positive, so the invariance residual is 0, while T_k U_2 = U_2 T_{3-k}
    # needs the braid relation (its residual 0.047 here); the laws are
    # computed and read inapplicable, as is every check resting on the braid
    # relation, while the telescoping expansion holds for any T
    alg = Algebra(matrix_spec(0.5 * random_hermitian(3)))
    assert alg.braid_residual > 1e-2 and not alg.braided
    rep = spectral.un_checks(alg, 2)
    assert rep["invariance_residual"] <= spectral.CHECK_TOL < rep["commutation_residual"]
    assert rep["status"] == "inapplicable"
    assert alg.hypotheses == {"braid_residual": alg.braid_residual, "norm_T": alg.norm_T, "applicable": False}
    for check in (spectral.kernel_theorem_check, spectral.positivity_check, spectral.wick_ideal_checks,
                  spectral.kernel_1mU2_diag):
        assert check(alg, 2)["status"] == "inapplicable", check
    assert spectral.telescoping_residual(alg, 3) <= spectral.CHECK_TOL


def test_hypotheses_are_decided_at_fixed_thresholds():
    # the braid relation at BRAID_TOL and ||T|| <= 1 at 1 + 1e-10, whatever
    # a check's tol; each check reads the decision the Algebra keeps
    flip = model.build_T(qccr(2, 1.0)).mat
    for scale, braided, applicable in ((1 + 1e-11, True, True), (1 + 1e-9, True, False)):
        alg = Algebra(matrix_spec(scale * flip))
        assert (alg.braided, alg.hypotheses["applicable"]) == (braided, applicable), scale
    alg = Algebra(qccr(2, 1.0))
    alg.__dict__["braid_residual"] = 2e-8  # between BRAID_TOL and the tol below
    assert not alg.braided and not alg.hypotheses["applicable"]
    assert spectral.kernel_theorem_check(alg, 2, tol=1e-4)["status"] == "inapplicable"
    assert spectral.un_checks(alg, 2, tol=1e-4)["status"] == "inapplicable"


def test_each_check_rests_on_its_own_hypothesis():
    # on the flip, the U_n laws rest on the braid relation alone, the kernel
    # theorem, positivity, the Wick ideal and ker(1 - U_n^2) on it and
    # ||T|| <= 1 too: a contraction that fails, and then a braid relation
    # that fails, take exactly their checks to inapplicable
    checks = {"kernel_theorem": spectral.kernel_theorem_check, "positivity": spectral.positivity_check,
              "wick_ideal": spectral.wick_ideal_checks, "kernel_1mU2": spectral.kernel_1mU2_diag,
              "un_laws": spectral.un_checks}
    alg = Algebra(qccr(2, 1.0))
    assert {name: check(alg, 2)["status"] for name, check in checks.items()} == dict.fromkeys(checks, "pass")
    alg = Algebra(qccr(2, 1.0))
    alg.__dict__["norm_T"] = 1.5
    statuses = {name: check(alg, 2)["status"] for name, check in checks.items()}
    assert statuses == {**dict.fromkeys(checks, "inapplicable"), "un_laws": "pass"}
    alg = Algebra(qccr(2, 1.0))
    alg.__dict__["braided"] = False
    assert {name: check(alg, 2)["status"] for name, check in checks.items()} == dict.fromkeys(checks, "inapplicable")


# Each status condition below is driven to "fail" with every other quantity
# of its report still within tol, so a status that ignored it would pass.
# Where no natural input fails it, one operator the Algebra memoizes is
# replaced by a faulty copy after what must not see the fault is built.


def perturbed(op: tensorops.BlockOperator, shift: float) -> tensorops.BlockOperator:
    """``op + shift 1``, block by block."""
    return tensorops.BlockOperator(op.layout, [m + shift * np.eye(len(m)) for m in op.mats])


def tilted(alg: Algebra, level: int, angle: float) -> spectral.Subspace:
    """ker P_level, with the first basis vector of the first block that holds
    both kernel and range turned by ``angle`` towards the block's top
    eigenvector of P: still orthonormal, and off ker P by about ``angle``."""
    K, P = alg.ker_P(level, spectral.RANK_TOL), alg.P(level)
    b = next(b for b, B in enumerate(K.parts.mats) if 0 < B.shape[1] < len(B))
    mats = [B.copy() for B in K.parts.mats]
    mats[b][:, 0] = np.cos(angle) * mats[b][:, 0] + np.sin(angle) * np.linalg.eigh(P.mats[b])[1][:, -1]
    return spectral.Subspace(tensorops.BlockOperator(K.parts.layout, mats))


def test_kernel_theorem_fails_on_the_distance_alone():
    # the flip at level 3: ker P_3, tilted by 1e-6, keeps its dimension 4,
    # and ||P_3 Pi_sum|| reads no kernel basis
    alg, level = Algebra(qccr(2, 1.0)), 3
    alg._memo["ker_P", level, spectral.RANK_TOL] = tilted(alg, level, 1e-6)
    rep = spectral.kernel_theorem_check(alg, level - 1)
    assert rep["dim_ker_P"] == rep["dim_sum"] == 4
    assert rep["inclusion_margin"] <= spectral.CHECK_TOL < rep["distance"]
    assert rep["status"] == "fail"


def test_un_laws_fail_on_the_invariance_alone():
    # the flip at n = 2: U_2 does not keep ker P_3 tilted by 1e-6, and the
    # commutation reads no kernel
    alg, n = Algebra(qccr(2, 1.0)), 2
    alg._memo["ker_P", n + 1, spectral.RANK_TOL] = tilted(alg, n + 1, 1e-6)
    rep = spectral.un_checks(alg, n)
    assert rep["commutation_residual"] <= spectral.CHECK_TOL < rep["invariance_residual"]
    assert rep["status"] == "fail"


def test_un_laws_fail_on_the_commutation_alone():
    # the flip at n = 3: U_3 + 1e-6 keeps every subspace that U_3 keeps, and
    # T_1 U_3 - U_3 T_3 moves by 1e-6 (T_1 - T_3); the braid relation is
    # decided first, on words U_3 is not
    alg, n = Algebra(qccr(2, 1.0)), 3
    assert alg.braided
    alg._memo["word", tensorops.longest_word(n), n + 1] = perturbed(alg.U(n), 1e-6)
    rep = spectral.un_checks(alg, n)
    assert rep["invariance_residual"] <= spectral.CHECK_TOL < rep["commutation_residual"]
    assert rep["status"] == "fail"


def test_positivity_fails_where_strict_positivity_is_lost():
    # q-CCR at q = 1/2 (min eig T = -1/2 > -1): P_3 shifted down by its
    # smallest eigenvalue is positive semidefinite, and the criterion asks
    # for strictly positive
    alg, n = Algebra(qccr(2, 0.5)), 3
    alg._memo["P", n] = perturbed(alg.P(n), -min(np.linalg.eigvalsh(m)[0] for m in alg.P(n).mats))
    rep = spectral.positivity_check(alg, n)
    assert rep["classification"] == "positive semidefinite"
    assert rep["status"] == "fail"


def test_positivity_fails_on_an_indefinite_P_where_semidefinite_is_asked():
    # the flip (min eig T = -1): P_3 - 1e-6 has the eigenvalue -1e-6
    alg, n = Algebra(qccr(2, 1.0)), 3
    assert alg.min_eig_T == -1.0
    alg._memo["P", n] = perturbed(alg.P(n), -1e-6)
    rep = spectral.positivity_check(alg, n)
    assert rep["classification"] == "indefinite"
    assert rep["status"] == "fail"


def test_kernel_theorem_fails_on_the_inclusion_margin_alone():
    # the flip at level 3: ker P_3 (dimension 4) is decided from the true P_3,
    # then P_3 + 1e-6 takes its place, which moves only ||P_3 Pi_sum||
    alg, level = Algebra(qccr(2, 1.0)), 3
    alg.ker_P(level, spectral.RANK_TOL)
    alg._memo["P", level] = perturbed(alg.P(level), 1e-6)
    rep = spectral.kernel_theorem_check(alg, level - 1)
    assert rep["dim_ker_P"] == rep["dim_sum"] == 4
    assert rep["distance"] <= spectral.CHECK_TOL < rep["inclusion_margin"]
    assert rep["status"] == "fail"


def test_wick_ideal_fails_on_the_kerR_margin_alone():
    # the flip at level 3: R_3 (1 - v v*), v the top eigenvector of one block
    # of P_3, so orthogonal to ker P_3; ker R_3 gains v, which P_3 does not
    # annihilate, and R_3 X is unchanged on a basis X of ker P_3
    alg, n = Algebra(qccr(2, 1.0)), 3
    alg.ker_P(n, spectral.RANK_TOL)
    v = np.linalg.eigh(alg.P(n).mats[1])[1][:, -1:]
    R = alg.R(n)
    alg._memo["R", n] = tensorops.BlockOperator(
        R.layout, [m - m @ v @ v.conj().T if b == 1 else m for b, m in enumerate(R.mats)])
    rep = spectral.wick_ideal_checks(alg, n)
    others = ("annihilation_residual", "coaction_residual", "intertwining_residual")
    assert max(rep[k] for k in others) <= spectral.CHECK_TOL < rep["kerR_inclusion_margin"]
    assert rep["status"] == "fail"


WICK_RESIDUALS = ("annihilation_residual", "coaction_residual", "intertwining_residual", "kerR_inclusion_margin")


def wick_ideal_fails_on(rep: dict, name: str) -> None:
    assert max(rep[k] for k in WICK_RESIDUALS if k != name) <= spectral.CHECK_TOL < rep[name], rep
    assert rep["status"] == "fail"


def test_wick_ideal_fails_on_the_annihilation_alone():
    # the flip at level 3: P_2 + 1e-6 after P_3 and ker P_3 are built from
    # the true P_2; only the annihilation reads P_2
    alg, n = Algebra(qccr(2, 1.0)), 3
    alg.ker_P(n, spectral.RANK_TOL)
    alg._memo["P", n - 1] = perturbed(alg.P(n - 1), 1e-6)
    wick_ideal_fails_on(spectral.wick_ideal_checks(alg, n), "annihilation_residual")


def test_wick_ideal_fails_on_the_coaction_alone():
    # the flip at level 3: P_3 + 1e-6 (1 - Pi), Pi the projector onto ker R_3,
    # after ker P_3: Pi lies in the algebra of the T_i, so T_1 ... T_3
    # intertwines 1 (x) Pi with Pi (x) 1 and the intertwining residual stays;
    # P_3 is unchanged on ker R_3, and the annihilation reads P_2
    alg, n = Algebra(qccr(2, 1.0)), 3
    alg.ker_P(n, spectral.RANK_TOL)
    P, Pi = alg.P(n), spectral.nullspace_svd(alg.R(n)).projector()
    alg._memo["P", n] = tensorops.BlockOperator(
        P.layout, [m + 1e-6 * (np.eye(len(m)) - pi) for m, pi in zip(P.mats, Pi.mats)])
    wick_ideal_fails_on(spectral.wick_ideal_checks(alg, n), "coaction_residual")


def test_wick_ideal_fails_on_the_intertwining_alone():
    # the flip at level 3: the chain C = T_1 T_2 T_3 + 1e-6 (Q (x) 1), Q the
    # projector onto the range of P_3, which vanishes on every X (x) e_k, X
    # in ker P_3; only the intertwining sees it
    alg, n = Algebra(qccr(2, 1.0)), 3
    Q = tensorops.BlockOperator.identity(alg.layout(n)) - alg.ker_P(n, spectral.RANK_TOL).projector()
    K = alg.apply_tensor(Q, tensorops.BlockOperator.identity(alg.layout(n + 1)), last=True)
    chain = tuple(range(1, n + 1))
    alg._memo["word", chain, n + 1] = alg.word(chain, n + 1) + tensorops.BlockOperator(
        K.layout, [1e-6 * m for m in K.mats])
    wick_ideal_fails_on(spectral.wick_ideal_checks(alg, n), "intertwining_residual")


def test_kernel_1mU2_fails_on_the_involution_residual():
    # the flip at n = 2: ker(1 - U_2^2) meets ker P_3 in dimension 4, where
    # T_1^2 = 1; with T_1^2 + 1e-6 in its place the residual is 1e-6
    alg, n = Algebra(qccr(2, 1.0)), 2
    alg._memo["word", (1, 1), n + 1] = perturbed(alg.word((1, 1), n + 1), 1e-6)
    rep = spectral.kernel_1mU2_diag(alg, n)
    assert rep["dim_intersection"] == 4
    assert rep["involution_residual"] > spectral.CHECK_TOL
    assert rep["status"] == "fail"
