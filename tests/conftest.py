"""Shared preset factories and cross-suite helpers."""

from __future__ import annotations

import itertools
import math
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.internal.conjecture import providers

import oracles
from wickfock import coxeter, model, rewrite
from wickfock.algebra import Algebra
from wickfock.tensorops import BlockOperator

# property tests replay the same examples on every run and keep no database
settings.register_profile(
    "wickfock", derandomize=True, database=None, deadline=None, max_examples=20
)
settings.load_profile("wickfock")

# Hypothesis mixes into its draws constants it mines from every local module
# loaded so far, so a new constant anywhere in the package, or one more
# module imported, would change what these derandomized tests draw.  The
# pool is fixed and empty instead (hypothesis has no public switch for it).
_NO_LOCAL_CONSTANTS = providers.Constants()
providers._get_local_constants = lambda: _NO_LOCAL_CONSTANTS


def pytest_configure(config):
    """Hypothesis caches the constants it reads from the source files while
    pytest collects; that cache goes to a temporary directory, not the checkout."""
    home = tempfile.TemporaryDirectory(prefix="wickfock-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def qccr(d: int, q: float) -> model.WickSpec:
    return model.preset("q-ccr", d, q=q)


def qij(lam12: float = -1.0, q1: float = 0.5, q2: float = 0.5) -> model.WickSpec:
    return model.preset("qij-ccr", 2, qs=[q1, q2], lam=[[1.0, lam12], [lam12, 1.0]])


def example3(d: int = 2, q: float = 0.5) -> model.WickSpec:
    return model.preset("example3", d, q=q)


def free_spec(d: int = 2) -> model.WickSpec:
    return model.load_spec({"d": d, "coefficients": []})


def twisted_flip(d: int, seed: int = 0) -> model.WickSpec:
    """T e_i(x)e_j = q_ij e_j(x)e_i with random complex q_ij, |q_ij| <= 1
    and q_ji = conj(q_ij) (q_ii real): braided and self-adjoint, and, unlike
    every preset, not real."""
    rng = np.random.default_rng(seed)
    q = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        q[i, i] = rng.uniform(-1.0, 1.0)
        for j in range(i + 1, d):
            q[i, j] = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            q[j, i] = np.conj(q[i, j])
    return twisted_flip_spec(q)


def twisted_flip_spec(q: np.ndarray) -> model.WickSpec:
    """The twisted flip T e_i(x)e_j = q_ij e_j(x)e_i of a d x d matrix q."""
    d = q.shape[0]
    entries = [
        {"i": j + 1, "j": i + 1, "k": j + 1, "l": i + 1, "re": q[i, j].real, "im": q[i, j].imag}
        for i in range(d)
        for j in range(d)
    ]
    return model.load_spec({"d": d, "coefficients": entries})


def unimodular_q(d: int, moduli, phases, diagonal) -> np.ndarray:
    """q for a unimodular twisted flip: q_11 = -1 and |q_12| = 1, so that
    ker(1 + T) is nonzero and complex; the remaining q_ii from ``diagonal``
    (d - 1 reals) and, row by row, the remaining |q_ij|, i < j, from
    ``moduli``; every arg q_ij, i < j, from ``phases``; q_ji = conj(q_ij).
    T is then braided and self-adjoint with ||T|| = 1."""
    q = np.diag([-1.0, *diagonal]).astype(np.complex128)
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for (i, j), r, phase in zip(upper, [1.0, *moduli], phases, strict=True):
        q[i, j] = r * np.exp(1j * phase)
        q[j, i] = np.conj(q[i, j])
    return q


def unimodular_flip(d: int, seed: int = 0) -> model.WickSpec:
    """A unimodular twisted flip (:func:`unimodular_q`) drawn from a seed:
    the free moduli are 1 or in [0, 0.9], the free q_ii are -1, 1 or in
    [-0.9, 0.9], so no eigenvalue of 1 + T sits near the rank threshold."""
    rng = np.random.default_rng(seed)
    pairs = d * (d - 1) // 2
    moduli = [1.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.9) for _ in range(pairs - 1)]
    diagonal = [rng.choice([-1.0, 1.0, rng.uniform(-0.9, 0.9)]) for _ in range(d - 1)]
    return twisted_flip_spec(unimodular_q(d, moduli, rng.uniform(0.0, 2 * np.pi, pairs), diagonal))


def matrix_spec(M: np.ndarray) -> model.WickSpec:
    """The ``matrix`` spec of a d^2 x d^2 level-2 operator matrix."""
    rows = [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in M]
    return model.load_spec({"d": math.isqrt(M.shape[0]), "matrix": rows})


def random_hermitian(seed: int) -> np.ndarray:
    """A random self-adjoint 4 x 4 matrix (d=2) of operator norm 1, from
    numpy's generator under ``seed``; as a ``T`` it is not braided."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = A + A.conj().T
    return H / np.linalg.norm(H, 2)


def hecke(d: int, q: float) -> model.WickSpec:
    """The Hecke T of the Pusz-Woronowicz twisted CCR, 0 < q <= 1:
    T e_i(x)e_i = q^2 e_i(x)e_i and, for i < j, T e_i(x)e_j = q e_j(x)e_i and
    T e_j(x)e_i = q e_i(x)e_j + (q^2 - 1) e_j(x)e_i.  Real symmetric and
    braided, with eigenvalues q^2 and -1, so ||T|| = 1; weight-preserving,
    but not monomial."""
    M = np.zeros((d * d, d * d))
    for i in range(d):
        M[i * d + i, i * d + i] = q * q
        for j in range(i + 1, d):
            ij, ji = i * d + j, j * d + i
            M[ji, ij] = M[ij, ji] = q
            M[ji, ji] = q * q - 1
    return matrix_spec(M)


def random_unitary(d: int, seed: int) -> np.ndarray:
    """A d x d unitary from the QR factorization of a seeded complex
    Gaussian matrix."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


def rotated(spec: model.WickSpec, seed: int) -> model.WickSpec:
    """(U (x) U) T (U (x) U)^* for U = random_unitary(d, seed), as a matrix
    spec: braided and self-adjoint when T is, with the same norm, and
    generically not weight-preserving."""
    K = np.kron(*[random_unitary(spec.d, seed)] * 2)
    return matrix_spec(K @ model.build_T(spec).mat @ K.conj().T)


@st.composite
def unimodular_flips(draw, d):
    """Unimodular twisted flips (:func:`unimodular_q`); the free moduli and
    diagonal entries stay away from the edge of the rank threshold."""
    pairs = d * (d - 1) // 2
    modulus = st.just(1.0) | st.floats(0.0, 0.9)
    diagonal = st.sampled_from([-1.0, 1.0]) | st.floats(-0.9, 0.9)
    q = unimodular_q(
        d,
        draw(st.lists(modulus, min_size=pairs - 1, max_size=pairs - 1)),
        draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=pairs, max_size=pairs)),
        draw(st.lists(diagonal, min_size=d - 1, max_size=d - 1)),
    )
    return twisted_flip_spec(q)


def braided_families(d: int):
    """Braided self-adjoint T beyond the presets, for property tests: the
    Hecke T (:func:`hecke`) at 0 < q <= 1, and the unimodular twisted flips."""
    return st.floats(0.0, 1.0, exclude_min=True).map(lambda q: hecke(d, q)) | unimodular_flips(d)


def walk_buckets(alg: Algebra, n: int) -> list[BlockOperator]:
    """The rows of ``coxeter.descent_sums(alg, n)``, the descent-class sums
    of phi over S_{n+1}, each read as an operator in the layout of level n+1."""
    return [BlockOperator.from_packed(alg.layout(n + 1), row) for row in coxeter.descent_sums(alg, n)]


def residuals(report: dict) -> dict:
    """The residuals of a ``coxeter_checks`` or ``un_checks`` report by
    name, each factorization residual under its J."""
    flat = {k: v for k, v in report.items() if isinstance(v, float)}
    flat.update((f"J={f['J']}", f["residual"]) for f in report.get("factorization", ()))
    return flat


def check_against_reference(report: dict, reference: dict, context) -> None:
    """Every residual of a blocked report is within 1e-13 of the dense
    reference's and at most 1e-10."""
    got, want = residuals(report), residuals(reference)
    assert got.keys() == want.keys() and got, context
    for name, value in got.items():
        assert abs(value - want[name]) <= 1e-13, (context, name, value, want[name])
        assert value <= 1e-10, (context, name, value)


def braided_presets() -> list[tuple[str, model.WickSpec]]:
    """The d=2 presets exercised by the acceptance suite."""
    return [
        ("q-ccr q=0.5", qccr(2, 0.5)),
        ("q-ccr q=1", qccr(2, 1.0)),
        ("q-ccr q=-1", qccr(2, -1.0)),
        ("qij lam=-1", qij(-1.0)),
        ("qij lam=+1", qij(+1.0)),
        ("example3 q=0.5", example3()),
    ]


def creation_words(d: int, max_degree: int) -> list[rewrite.FreeWord]:
    return [
        tuple((i, False) for i in w)
        for deg in range(max_degree + 1)
        for w in itertools.product(range(d), repeat=deg)
    ]


def max_cross_residual(spec: model.WickSpec, max_degree: int) -> float:
    """Worst |f(X*Y) - <X, Y>_0| over all creation monomial pairs."""
    return oracles.rewrite_cross_residual(Algebra(spec), max_degree)


def normal_order_random_strategy(
    spec: model.WickSpec, word: rewrite.FreeWord, rng: np.random.Generator
) -> oracles.WickPolynomial:
    """Wick order by rewriting a randomly chosen redex at each step (the
    alternate strategy used only to probe confluence)."""
    pending: list[tuple[rewrite.FreeWord, complex]] = [(word, 1.0 + 0j)]
    result: dict[oracles.WickMonomial, complex] = {}
    while pending:
        w, coeff = pending.pop()
        redexes = [t for t in range(len(w) - 1) if w[t][1] and not w[t + 1][1]]
        if not redexes:
            mono = oracles.WickMonomial(
                tuple(i for i, s in w if not s), tuple(i for i, s in w if s)
            )
            result[mono] = result.get(mono, 0j) + coeff
            continue
        t = redexes[int(rng.integers(0, len(redexes)))]
        for new_word, c in oracles.rewrite_step(spec, w, t).items():
            pending.append((new_word, coeff * c))
    return oracles.WickPolynomial(result)


def max_confluence_defect(
    spec: model.WickSpec, max_len: int, seed: int = 42, trials: int = 5
) -> float:
    """Worst coefficient gap between leftmost-redex and random-redex normal
    forms over every free word up to the given length."""
    d = spec.d
    rng = np.random.default_rng(seed)
    letters = [(i, s) for i in range(d) for s in (False, True)]
    worst = 0.0
    for length in range(max_len + 1):
        for word in itertools.product(letters, repeat=length):
            canonical = oracles.normal_order(spec, word)
            for _ in range(trials):
                alt = normal_order_random_strategy(spec, word, rng)
                monomials = set(canonical.terms) | set(alt.terms)
                for m in monomials:
                    worst = max(worst, abs(canonical.coefficient(m) - alt.coefficient(m)))
    return worst
