"""Shared preset factories and cross-suite helpers."""

from __future__ import annotations

import itertools

import numpy as np

from wickfock import fock, model, rewrite


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
    entries = [
        {"i": j + 1, "j": i + 1, "k": j + 1, "l": i + 1, "re": q[i, j].real, "im": q[i, j].imag}
        for i in range(d)
        for j in range(d)
    ]
    return model.load_spec({"d": d, "coefficients": entries})


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
    d = spec.d
    N = max(max_degree, 2)
    words = creation_words(d, max_degree)
    vectors = {w: rewrite.creation_vector({w: 1.0 + 0j}, d, N) for w in words}
    worst = 0.0
    for wx in words:
        for wy in words:
            lhs = rewrite.inner_via_f(spec, {wx: 1.0 + 0j}, {wy: 1.0 + 0j})
            rhs = fock.fock_inner(spec, vectors[wx], vectors[wy])
            worst = max(worst, abs(lhs - rhs))
    return worst


def normal_order_random_strategy(
    spec: model.WickSpec, word: rewrite.FreeWord, rng: np.random.Generator
) -> rewrite.WickPolynomial:
    """Wick order by rewriting a randomly chosen redex at each step (the
    alternate strategy used only to probe confluence)."""
    pending: list[tuple[rewrite.FreeWord, complex]] = [(word, 1.0 + 0j)]
    result: dict[rewrite.WickMonomial, complex] = {}
    while pending:
        w, coeff = pending.pop()
        redexes = [t for t in range(len(w) - 1) if w[t][1] and not w[t + 1][1]]
        if not redexes:
            mono = rewrite.WickMonomial(
                tuple(i for i, s in w if not s), tuple(i for i, s in w if s)
            )
            result[mono] = result.get(mono, 0j) + coeff
            continue
        t = redexes[int(rng.integers(0, len(redexes)))]
        for new_word, c in rewrite.rewrite_step(spec, w, t).items():
            pending.append((new_word, coeff * c))
    return rewrite.WickPolynomial(result)


def polynomials_agree(
    a: rewrite.WickPolynomial, b: rewrite.WickPolynomial, tol: float = 1e-12
) -> bool:
    monomials = set(a.terms) | set(b.terms)
    return all(abs(a.coefficient(m) - b.coefficient(m)) <= tol for m in monomials)


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
            canonical = rewrite.normal_order(spec, word)
            for _ in range(trials):
                alt = normal_order_random_strategy(spec, word, rng)
                monomials = set(canonical.terms) | set(alt.terms)
                for m in monomials:
                    worst = max(worst, abs(canonical.coefficient(m) - alt.coefficient(m)))
    return worst
