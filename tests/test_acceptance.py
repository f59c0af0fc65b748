"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import itertools
import json
import math

import numpy as np

import oracles
from conftest import (
    braided_presets,
    example3,
    max_confluence_defect,
    max_cross_residual,
    qccr,
    qij,
    walk_buckets,
)
from wickfock import cli, coxeter, fock, model, rewrite, spectral, tensorops
from wickfock.algebra import Algebra


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d} {name}{suffix}")
    assert ok, f"criterion {num:02d} {name} failed{suffix}"


def brute_inversions(perm) -> int:
    return sum(
        1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b]
    )


def test_criterion_01_scalar_q_factorial():
    q = 0.5
    alg = Algebra(qccr(1, q))
    worst = 0.0
    frozen = {2: 1.5, 3: 2.625, 4: 4.921875}
    for n in range(2, 7):
        # oracle: Poincare polynomial of S_n at q, by brute-force inversions
        expected = sum(q ** brute_inversions(p) for p in itertools.permutations(range(n)))
        recursive = alg.P(n).mat[0, 0].real
        group = alg.group_sum(n - 1).mat[0, 0].real
        worst = max(worst, abs(recursive - expected), abs(group - recursive))
        if n in frozen:
            worst = max(worst, abs(recursive - frozen[n]))
    report(1, "scalar q-factorial P_n, both methods", worst <= 1e-10, f"worst {worst:.2e}")


def method_equivalence_presets():
    return [
        ("q-ccr q=0.5", qccr(2, 0.5)),
        ("q-ccr q=1", qccr(2, 1.0)),
        ("q-ccr q=-1", qccr(2, -1.0)),
        ("qij lam=-1", qij(-1.0)),
        ("qij lam=+1", qij(+1.0)),
    ]


def test_criterion_02_method_equivalence():
    worst = 0.0
    for label, spec in method_equivalence_presets():
        alg = Algebra(spec)
        for n in range(2, 6):
            residual = tensorops.op_norm(alg.group_sum(n - 1).mat - alg.P(n).mat)
            worst = max(worst, residual)
    report(2, "recursive P_n equals Coxeter group sum", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_03_euler_solomon():
    worst = 0.0
    for label, spec in method_equivalence_presets():
        alg = Algebra(spec)
        for n in range(1, 5):
            worst = max(worst, coxeter.coxeter_checks(alg, n)["euler_solomon"])
    report(3, "Euler-Solomon identity and adjoint form", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_04_main_theorem_kernels():
    ok = True
    details = []
    flip, antiflip = Algebra(qccr(2, 1.0)), Algebra(qccr(2, -1.0))
    for level in (2, 3, 4):
        rep = spectral.kernel_theorem_check(flip, level - 1)
        expected = 2**level - (level + 1)
        ok &= rep["dim_ker_P"] == rep["dim_sum"] == expected
        ok &= rep["distance"] <= 1e-8
        details.append(f"flip L{level}:{rep['dim_ker_P']}")
    for level in (2, 3, 4):
        rep = spectral.kernel_theorem_check(antiflip, level - 1)
        expected = 2**level - math.comb(2, level)
        ok &= rep["dim_ker_P"] == rep["dim_sum"] == expected
        ok &= rep["distance"] <= 1e-8
    for lam in (-1.0, 1.0):
        alg = Algebra(qij(lam))
        for level in (2, 3, 4):
            rep = spectral.kernel_theorem_check(alg, level - 1)
            ok &= rep["dim_ker_P"] == rep["dim_sum"]
            ok &= rep["distance"] <= 1e-8
    report(4, "ker P_{n+1} = sum ker(1+T_k)", ok, " ".join(details))


def test_criterion_05_strict_positivity():
    ok = True
    worst_min = np.inf
    for spec in (example3(2, 0.5), qccr(2, 0.99)):
        alg = Algebra(spec)
        T = alg.T
        for n in range(2, 6):
            rep = spectral.positivity_check(alg, n)
            ok &= rep["min_eig"] > 1e-8
            # trivial kernel at the classification tolerance (absolute)
            ok &= rep["classification"] == "strictly positive"
            P = oracles.build_P(T, n).mat
            evals = np.linalg.eigvalsh((P + P.conj().T) / 2.0)
            ok &= int(np.sum(np.abs(evals) <= 1e-8)) == 0
            worst_min = min(worst_min, rep["min_eig"])
    report(5, "strict positivity of P_n", ok, f"smallest min-eig {worst_min:.2e}")


def test_criterion_06_un_laws():
    worst_comm = worst_inv = worst_tel = 0.0
    for label, spec in braided_presets():
        alg = Algebra(spec)
        for n in range(1, 5):
            rep = spectral.un_checks(alg, n)
            worst_comm = max(worst_comm, rep["commutation_residual"])
            worst_inv = max(worst_inv, rep["invariance_residual"])
            worst_tel = max(worst_tel, spectral.telescoping_residual(alg, n))
    ok = worst_comm <= 1e-10 and worst_inv <= 1e-8 and worst_tel <= 1e-10
    report(
        6,
        "U_n commutation, kernel invariance, telescoping",
        ok,
        f"comm {worst_comm:.2e} inv {worst_inv:.2e} tel {worst_tel:.2e}",
    )


def test_criterion_07_factorizations():
    worst = 0.0
    for label, spec in braided_presets():
        alg = Algebra(spec)
        T = alg.T
        for n in range(1, 5):
            for fact in coxeter.coxeter_checks(alg, n)["factorization"]:
                worst = max(worst, fact["residual"])
        # the walk's bucket sum P(D_J), J = {1..m-1}, against the Rt product P(D_m)
        for n, m in [(1, 2), (2, 2), (1, 3)]:
            J = 2 ** (m - 1) - 1
            PDJ = sum(bucket.mat for D, bucket in enumerate(walk_buckets(alg, n + m - 1)) if not D & J)
            worst = max(worst, tensorops.op_norm(PDJ - oracles.build_PDm(T, n, m).mat))
    report(7, "descent factorizations and P(D_m)", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_08_fock_side_consistency():
    ok = True
    worst_rel = worst_adj = worst_cross = 0.0
    for spec in (qccr(2, 0.5), qij(-1.0)):
        rep = fock.relation_check(Algebra(spec), 4, seed=42)
        worst_rel = max(worst_rel, rep["relation_residual"])
        worst_adj = max(worst_adj, rep["adjointness_residual"])
        worst_cross = max(worst_cross, max_cross_residual(spec, 3))
    ok = worst_rel <= 1e-10 and worst_adj <= 1e-9 and worst_cross <= 1e-9
    report(
        8,
        "Fock relations, adjointness, f vs inner product",
        ok,
        f"rel {worst_rel:.2e} adj {worst_adj:.2e} cross {worst_cross:.2e}",
    )


def test_criterion_09_matsumoto_and_confluence():
    rng = np.random.default_rng(42)
    worst_phi = 0.0
    for label, spec in braided_presets():
        T = model.build_T(spec)
        amps = {i: oracles.amplify(T, i, 4).mat for i in (1, 2, 3)}
        for el in oracles.enumerate_group(3):
            reference = oracles.phi(T, el, 3).mat
            for _ in range(5):
                word = _random_reduced_word(el.perm, rng)
                acc = np.eye(16, dtype=complex)
                for i in word:
                    acc = acc @ amps[i]
                worst_phi = max(worst_phi, float(np.linalg.norm(acc - reference, 2)))
    worst_conf = 0.0
    for spec in (qccr(2, 0.5), qij(-1.0)):
        worst_conf = max(worst_conf, max_confluence_defect(spec, 5, seed=42, trials=5))
    ok = worst_phi <= 1e-12 and worst_conf <= 1e-12
    report(
        9,
        "Matsumoto word independence and rewrite confluence",
        ok,
        f"phi {worst_phi:.2e} confluence {worst_conf:.2e}",
    )


def _random_reduced_word(perm, rng):
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


def test_criterion_10_negative_controls(tmp_path):
    M = model.build_T(qccr(2, 0.5)).mat.copy()
    M[0, 3] = 0.1
    M[3, 0] = 0.1
    rows = [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in M]
    braid_path = tmp_path / "braidbad.json"
    braid_path.write_text(json.dumps({"d": 2, "matrix": rows}))
    out = tmp_path / "braidbad_report.json"
    code_braid = cli.main(["check", "--spec", str(braid_path), "--out", str(out)])
    rep = json.loads(out.read_text())
    braid_check = [c for c in rep["checks"] if c["name"] == "braid"][0]

    herm_path = tmp_path / "herm.json"
    herm_path.write_text(
        json.dumps(
            {"d": 2, "coefficients": [{"i": 1, "j": 2, "k": 1, "l": 2, "re": 0.3, "im": 0.1}]}
        )
    )
    code_herm = cli.main(["check", "--spec", str(herm_path)])

    ok = code_braid == 1 and braid_check["residual"] > 1e-3 and code_herm == 2
    report(
        10,
        "negative controls (exit codes 1 and 2)",
        ok,
        f"braid exit {code_braid} residual {braid_check['residual']:.2e}, hermitian exit {code_herm}",
    )
