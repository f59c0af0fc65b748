"""Spec loading, presets, and the level-2 operator."""

import json
import re

import numpy as np
import pytest

from conftest import braided_presets, example3, free_spec, qccr, qij
from wickfock import cli, model, tensorops
from wickfock.algebra import Algebra
from wickfock.model import SpecError


def test_load_preset_document_d1():
    spec = model.load_spec('{"d":1,"preset":{"name":"q-ccr","q":0.5}}')
    assert spec.d == 1
    assert spec.coeffs == {(0, 0, 0, 0): 0.5 + 0j}


def test_load_empty_coefficients_is_free():
    spec = model.load_spec('{"d":2,"coefficients":[]}')
    assert spec.d == 2
    assert spec.coeffs == {}
    assert np.array_equal(model.build_T(spec).mat, np.zeros((4, 4)))


def test_load_rejects_missing_hermitian_partner():
    doc = '{"d":2,"coefficients":[{"i":1,"j":2,"k":1,"l":2,"re":0.3,"im":0.1}]}'
    with pytest.raises(SpecError, match="hermitian"):
        model.load_spec(doc)


def test_load_accepts_complex_pair_with_partner():
    doc = {
        "d": 2,
        "coefficients": [
            {"i": 1, "j": 2, "k": 1, "l": 2, "re": 0.3, "im": 0.1},
            {"i": 2, "j": 1, "k": 2, "l": 1, "re": 0.3, "im": -0.1},
        ],
    }
    spec = model.load_spec(json.dumps(doc))
    assert spec.coeff(0, 1, 0, 1) == 0.3 + 0.1j
    T = model.build_T(spec)
    assert np.linalg.norm(T.mat - T.mat.conj().T) <= 1e-12


@pytest.mark.parametrize(
    "doc,message",
    [
        ("[]", "JSON object"),
        ("{", "malformed"),
        ('{"preset":{"name":"q-ccr","q":0.5}}', 'missing "d"'),
        ('{"d":0,"coefficients":[]}', "positive"),
        ('{"d":2}', "exactly one"),
        ('{"d":2,"coefficients":[],"matrix":[]}', "exactly one"),
        ('{"d":2,"coefficients":[{"i":3,"j":1,"k":1,"l":1,"re":1,"im":0}]}', "out of range"),
        ('{"d":2,"coefficients":[{"j":1,"k":1,"l":1,"re":1,"im":0}]}', 'missing "i"'),
        ('{"d":1,"preset":{"name":"nope"}}', "unknown preset"),
        ('{"d":2,"coefficients":[],"w":1}', "unknown top-level"),
        ('{"d":1,"coefficients":[{"i":1,"j":1,"k":1,"l":1,"re":NaN,"im":0}]}', "finite"),
        ('{"d":2,"preset":{"name":"q-ccr","q":-Infinity}}', "finite"),
        ('{"d":2,"preset":{"name":"q-ccr","q":1' + "0" * 400 + "}}", "finite"),
    ],
)
def test_load_rejects_malformed_documents(doc, message):
    with pytest.raises(SpecError, match=message):
        model.load_spec(doc)


def test_misspelt_coefficient_key_is_refused():
    # "Re" for "re" would read as a zero coefficient on both partners, and
    # the algebra would load as the free one
    entries = [{"i": 1, "j": 2, "k": 1, "l": 2, "Re": 0.5}, {"i": 2, "j": 1, "k": 2, "l": 1, "Re": 0.5}]
    with pytest.raises(SpecError, match=r"coefficient entry 0: unknown keys \['Re'\]"):
        model.load_spec(json.dumps({"d": 2, "coefficients": entries}))


@pytest.mark.parametrize("flat", [False, True])
def test_matrix_cell_with_a_stray_key_is_refused(flat):
    # a cell must hold both "re" and "im"; a third key ("Im" for "im") was
    # dropped, and T = 0.5 loaded as if the cell read {"re": 0.5, "im": 0}
    cell, where = {"re": 0.5, "im": 0, "Im": 0.3}, "0" if flat else "(0,0)"
    with pytest.raises(SpecError, match=re.escape(f"matrix entry {where}: unknown keys ['Im']")):
        model.load_spec(json.dumps({"d": 1, "matrix": [cell] if flat else [[cell]]}))


def test_duplicate_quadruple_rejected():
    doc = {
        "d": 1,
        "coefficients": [
            {"i": 1, "j": 1, "k": 1, "l": 1, "re": 0.5, "im": 0.0},
            {"i": 1, "j": 1, "k": 1, "l": 1, "re": 0.25, "im": 0.0},
        ],
    }
    with pytest.raises(SpecError, match="duplicate"):
        model.load_spec(json.dumps(doc))


def test_dimension_guard_on_T():
    # T is one dense d^2 x d^2 complex matrix of 16 d^4 bytes: 126 MB at
    # d=53, within the one-matrix guard, and 136 MB at d=54, over it.  Every
    # place that reads d refuses, before a coefficient is made
    assert model.MAX_LEVEL_BYTES == 128 * 1024**2
    assert model.load_spec({"d": 53, "coefficients": []}).d == 53
    message = f"d=54: T is one dense 2916 x 2916 matrix of {16 * 54**4} bytes, over the {model.MAX_LEVEL_BYTES} byte guard"
    with pytest.raises(SpecError, match=message):
        model.load_spec({"d": 54, "coefficients": []})
    with pytest.raises(SpecError, match=message):
        model.load_spec({"d": 54, "preset": {"name": "q-ccr", "q": 0.5}})
    with pytest.raises(SpecError, match="d=1000: T is one dense"):
        model.preset("q-ccr", 1000, q=0.5)
    with pytest.raises(SpecError, match=message):
        model.build_T(model.WickSpec(54, {}))


def test_build_T_qccr_is_scaled_flip():
    # oracle: T e_k (x) e_l = q e_l (x) e_k, written out column by column
    d, q = 2, 0.5
    expected = np.zeros((4, 4), dtype=complex)
    for k in range(d):
        for l in range(d):
            expected[l * d + k, k * d + l] = q
    T = model.build_T(qccr(d, q))
    assert np.allclose(T.mat, expected, atol=1e-15)


def test_build_T_qij_matches_relation_template():
    # oracle: apply the preset's operator action basis vector by basis vector
    q1 = q2 = 0.5
    lam12 = -1.0
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = q1  # T e1e1 = q1 e1e1
    expected[3, 3] = q2  # T e2e2 = q2 e2e2
    expected[0 * 2 + 1, 1 * 2 + 0] = lam12  # T e2e1 = lam12 e1e2
    expected[1 * 2 + 0, 0 * 2 + 1] = lam12  # T e1e2 = lam21 e2e1
    T = model.build_T(qij(lam12, q1, q2))
    assert np.allclose(T.mat, expected, atol=1e-15)
    # frozen spec values
    assert T.mat[0, 0] == 0.5 and T.mat[3, 3] == 0.5
    assert T.mat[1, 2] == -1.0 and T.mat[2, 1] == -1.0


def test_build_T_example3_spectrum():
    # oracle: eigendecomposition of the explicit 4x4 action matrix
    q = 0.5
    explicit = np.zeros((4, 4), dtype=complex)
    explicit[0, 0] = 1.0
    explicit[3, 3] = 1.0
    explicit[1, 2] = q
    explicit[2, 1] = q
    evals = np.linalg.eigvalsh(explicit)
    T = model.build_T(example3(2, q))
    assert np.allclose(T.mat, explicit, atol=1e-15)
    assert abs(tensorops.op_norm(T) - 1.0) <= 1e-12
    assert abs(evals[0] - (-0.5)) <= 1e-12
    assert abs(evals[-1] - 1.0) <= 1e-12


def test_preset_qccr_q1_is_flip():
    T = model.build_T(qccr(2, 1.0))
    flip = np.zeros((4, 4))
    for k in range(2):
        for l in range(2):
            flip[l * 2 + k, k * 2 + l] = 1.0
    assert np.array_equal(T.mat.real, flip)


def test_preset_parameter_ranges():
    model.preset("q-ccr", 2, q=1.0)
    model.preset("q-ccr", 2, q=-1.0)
    with pytest.raises(SpecError):
        model.preset("q-ccr", 2, q=1.5)
    with pytest.raises(SpecError):
        model.preset("qij-ccr", 2, qs=[0.5, 1.0], lam=[[1, 1], [1, 1]])
    with pytest.raises(SpecError):
        model.preset("qij-ccr", 2, qs=[0.5, 0.5], lam=[[1, 0.5], [0.5, 1]])
    with pytest.raises(SpecError, match="symmetric"):
        model.preset("qij-ccr", 2, qs=[0.5, 0.5], lam=[[1, 1], [-1, 1]])
    with pytest.raises(SpecError):
        model.preset("example3", 2, q=1.0)
    with pytest.raises(SpecError):
        model.preset("qij-ccr", 2, qs=[0.5], lam=[[1, 1], [1, 1]])


def test_qij_preset_with_both_lambda_keys_is_refused(tmp_path, capsys):
    # one matrix under "lam" and another under "lambda": neither is dropped silently
    params = {"qs": [0.5, 0.5], "lam": [[1, 1], [1, 1]], "lambda": [[1, -1], [-1, 1]]}
    with pytest.raises(SpecError, match='"lam" or "lambda", not both'):
        model.preset("qij-ccr", 2, **params)
    path = tmp_path / "both.json"
    path.write_text(json.dumps({"d": 2, "preset": {"name": "qij-ccr", **params}}))
    assert cli.main(["check", "--spec", str(path)]) == 2
    assert "not both" in capsys.readouterr().err


def test_roundtrip_is_bit_exact():
    for label, spec in braided_presets():
        reloaded = model.load_spec(model.to_json(spec))
        assert reloaded.d == spec.d
        assert reloaded.coeffs == dict(spec.coeffs), label


def test_matrix_form_roundtrip():
    spec = qij(-1.0)
    M = model.build_T(spec).mat
    rows = [
        [{"re": float(z.real), "im": float(z.imag)} for z in row] for row in M
    ]
    loaded = model.load_spec(json.dumps({"d": 2, "matrix": rows}))
    assert loaded.coeffs == dict(spec.coeffs)
    flat = [{"re": float(z.real), "im": float(z.imag)} for z in M.reshape(-1)]
    loaded_flat = model.load_spec(json.dumps({"d": 2, "matrix": flat}))
    assert loaded_flat.coeffs == dict(spec.coeffs)


def test_build_T_selfadjoint_across_presets():
    samples = [
        qccr(1, 0.5), qccr(2, -1.0), qccr(3, 0.7),
        qij(-1.0), qij(1.0, q1=0.25, q2=0.75),
        example3(2, -0.9), example3(3, 0.5),
    ]
    for spec in samples:
        M = model.build_T(spec).mat
        assert np.linalg.norm(M - M.conj().T, 2) <= 1e-12


def defect_spec(sign: np.ndarray, eps: float) -> model.WickSpec:
    """A d=2 coefficient spec whose level-2 matrix is M = (i eps / 2) sign,
    for a real symmetric 4 x 4 ``sign``: A = M - M^H = i eps sign, and each
    quadruple's defect against its partner is eps |sign| entry by entry."""
    entries = []
    for p, row in enumerate(sign):
        for r, s in enumerate(row):
            (a, e), (b, c) = divmod(p, 2), divmod(r, 2)  # M[a d + e, b d + c] = T_ab^ce
            entries.append({"i": a + 1, "j": b + 1, "k": c + 1, "l": e + 1, "re": 0.0, "im": eps * s / 2})
    return model.load_spec({"d": 2, "coefficients": entries})


def test_build_T_decides_on_the_exact_two_norm():
    # every per-entry defect passes the 1e-12 check of the loader; the 2-norm
    # of A decides: 4 eps for the all-ones sign, 2 eps for a Hadamard sign,
    # whose bound sqrt(||A||_1 ||A||_inf) = 4 eps overestimates it
    ones = np.ones((4, 4))
    hadamard = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]])
    with pytest.raises(SpecError, match="not self-adjoint: defect 3.600e-12"):
        model.build_T(defect_spec(ones, 0.9e-12))
    T = model.build_T(defect_spec(hadamard, 0.4e-12))  # bound 1.6e-12, 2-norm 0.8e-12
    assert np.linalg.norm(T.mat - T.mat.conj().T, 2) <= model.HERMITIAN_TOL
    with pytest.raises(SpecError, match="not self-adjoint: defect 1.800e-12"):
        model.build_T(defect_spec(hadamard, 0.9e-12))


def test_presets_are_braided():
    samples = [
        qccr(1, 0.5), qccr(2, 0.5), qccr(2, 1.0), qccr(2, -1.0), qccr(3, 0.3),
        qij(-1.0), qij(1.0), qij(-1.0, q1=0.25, q2=0.75),
        example3(2, 0.5), example3(2, -0.9), example3(3, 0.5),
    ]
    for spec in samples:
        assert Algebra(spec).braid_residual <= 1e-12


def test_free_spec_has_zero_operator():
    T = model.build_T(free_spec(2))
    assert np.array_equal(T.mat, np.zeros((4, 4)))

