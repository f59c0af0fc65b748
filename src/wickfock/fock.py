"""The Fock representation on the truncated graded space (+) H^(x)n, n <= N.

A graded vector keeps one dense complex component per degree; degree 0 is
the span of the vacuum, ``elementary(d, N, ())``.  Creation tensors on the
left; annihilation is the left contraction composed with R_n degree by
degree, which is the closed form of the inductively defined adjoint action.  The Fock inner product is
< x, y >_0 = sum_n < x_n, P_n y_n > with P_0 = P_1 = 1; distinct degrees are
orthogonal by construction.  The operators R_n and P_n are read from an
:class:`~wickfock.algebra.Algebra`, which builds each of them once in its
block layout, and act on a component block by block (a contraction through
:meth:`~wickfock.algebra.Algebra.split`).

Generator indices are 0-based here (library convention); only files and
display strings are 1-based.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .tensorops import op_norm

if TYPE_CHECKING:
    from .algebra import Algebra

__all__ = [
    "DegreeOverflowError",
    "GradedVector",
    "zero_vector",
    "elementary",
    "default_max_degree",
    "create",
    "annihilate",
    "fock_inner",
    "relation_check",
]


class DegreeOverflowError(ValueError):
    """Creation would push a nonzero component past the truncation degree."""


def default_max_degree(d: int) -> int:
    """Desk-scale truncation: degree 5 for d <= 2, degree 4 above.  Every
    report is taken per block, so memory no longer asks for it; it stays
    because it fixes which records ``full`` emits, which the benchmark's
    recorded fingerprints pin."""
    return 5 if d <= 2 else 4


@dataclass(frozen=True, eq=False)
class GradedVector:
    """One complex vector per degree 0..N; component n has length d^n."""

    d: int
    comps: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        comps = tuple(np.asarray(c, dtype=np.complex128).reshape(-1) for c in self.comps)
        for n, c in enumerate(comps):
            if c.shape != (self.d**n,):
                raise ValueError(
                    f"degree-{n} component has length {c.shape[0]}, expected {self.d**n}"
                )
        object.__setattr__(self, "comps", comps)

    @property
    def max_degree(self) -> int:
        return len(self.comps) - 1

    def degree(self, n: int) -> np.ndarray:
        return self.comps[n]

    def norm(self) -> float:
        return float(np.sqrt(sum(float(np.vdot(c, c).real) for c in self.comps)))

    def __add__(self, other: "GradedVector") -> "GradedVector":
        _check_compatible(self, other)
        return GradedVector(self.d, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        _check_compatible(self, other)
        return GradedVector(self.d, tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __mul__(self, scalar: complex) -> "GradedVector":
        return GradedVector(self.d, tuple(scalar * c for c in self.comps))

    __rmul__ = __mul__


def _check_compatible(x: GradedVector, y: GradedVector) -> None:
    if x.d != y.d or x.max_degree != y.max_degree:
        raise ValueError(
            f"graded vectors mismatch: (d={x.d}, N={x.max_degree}) vs "
            f"(d={y.d}, N={y.max_degree})"
        )


def zero_vector(d: int, N: int) -> GradedVector:
    return GradedVector(d, tuple(np.zeros(d**n, dtype=np.complex128) for n in range(N + 1)))


def elementary(d: int, N: int, indices: tuple[int, ...]) -> GradedVector:
    """The basis tensor e_{i_1} (x) ... (x) e_{i_n} (0-based indices)."""
    n = len(indices)
    if n > N:
        raise DegreeOverflowError(f"degree {n} exceeds truncation {N}")
    p = 0
    for i in indices:
        if not 0 <= i < d:
            raise ValueError(f"index {i} out of range 0..{d - 1}")
        p = p * d + i
    v = [np.zeros(d**m, dtype=np.complex128) for m in range(N + 1)]
    v[n][p] = 1.0
    return GradedVector(d, tuple(v))


def create(i: int, v: GradedVector) -> GradedVector:
    """Left creation: each degree-n component becomes e_i (x) component at
    degree n+1.  A nonzero component at the truncation degree is an error,
    never a silent drop."""
    d = v.d
    if not 0 <= i < d:
        raise ValueError(f"index {i} out of range 0..{d - 1}")
    N = v.max_degree
    if np.any(v.comps[N]):
        raise DegreeOverflowError(
            f"creation would push the occupied degree {N} past the truncation"
        )
    out = [np.zeros(d**n, dtype=np.complex128) for n in range(N + 1)]
    for n in range(N):
        block = out[n + 1].reshape(d, d**n)
        block[i] = v.comps[n]
    return GradedVector(d, tuple(out))


def annihilate(alg: Algebra, i: int, v: GradedVector) -> GradedVector:
    """The Fock annihilation: mu(e_i^*) R_n on each degree-n component."""
    d = v.d
    if alg.spec.d != d:
        raise ValueError(f"spec dimension {alg.spec.d} does not match vector dimension {d}")
    if not 0 <= i < d:
        raise ValueError(f"index {i} out of range 0..{d - 1}")
    N = v.max_degree
    out = [np.zeros(d**n, dtype=np.complex128) for n in range(N + 1)]
    for n in range(1, N + 1):
        R, below = alg.R(n), alg.layout(n - 1).words
        for words, m, pieces in zip(R.words, R.mats, alg.split(n)):
            for _, rows, home in (p for p in pieces if p[0] == i):  # rows i w, onto the block of words w
                out[n - 1][below[home]] = m[rows] @ v.comps[n][words]
    return GradedVector(d, tuple(out))


def fock_inner(alg: Algebra, x: GradedVector, y: GradedVector) -> complex:
    """< x, y >_0 = sum_n < x_n, P_n y_n >, conjugate-linear in x."""
    _check_compatible(x, y)
    if alg.spec.d != x.d:
        raise ValueError(f"spec dimension {alg.spec.d} does not match vectors (d={x.d})")
    total = 0j
    for n in range(x.max_degree + 1):
        for words, mats in alg.P(n).stacks:
            total += np.vdot(x.comps[n][words], mats @ y.comps[n][words][..., None])
    return complex(total)


def relation_check(alg: Algebra, N: int, seed: int = 42, tol: float = 1e-8) -> dict:
    """Certify the basic relations and adjointness on the truncated space.

    Relation residuals are operator norms, per degree n <= N-1 and pair
    (i, j), of

        lam(a_i^*) lam(a_j) - delta_ij - sum_kl T_ij^kl lam(a_l) lam(a_k^*)

    read off as blocks of R: lam(a_i^*) lam(a_j) on degree n is the (i, j)
    block of R_{n+1}, and lam(a_k^*) on degree n the k-th row block of R_n,
    both by ``alg.split``.  For fixed (i, j) the rows i w and columns j v of
    distinct blocks of R_{n+1} map distinct blocks of words v to distinct
    blocks of words w, and so does each term (T keeps the layout), so the
    residual is the largest piece's.  The adjointness residual pairs
    creation against annihilation, through the Fock inner product, on 50
    trials drawn from ``random.Random(seed)``: per trial a graded vector x
    up to degree N-1, then y up to degree N, every entry a standard
    complex Gaussian by Box-Muller, then the index i.  The standard
    library's generator keeps ``numpy.random`` unloaded, and its stream does
    not depend on the numpy version.
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    if seed < 0:  # random.Random takes |seed|: -1 would draw the samples of 1
        raise ValueError(f"need seed >= 0, got {seed}")
    d = alg.spec.d
    terms: dict = {}  # (i, j) -> its (k, l, T_ij^kl)
    for (i, j, k, l), c in alg.spec.coeffs.items():
        terms.setdefault((i, j), []).append((k, l, c))
    pieces = []
    for n in range(0, N):
        # lam(a_k^*) on degree n: the rows k w of a block of R_n, onto the block of the words w
        below = [{a: (rows, home) for a, rows, home in p} for p in alg.split(n)] if n else []
        for m, split in zip(alg.R(n + 1).mats, alg.split(n + 1)):
            for i, rows_i, target in split:
                for j, rows_j, source in split:
                    piece = m[rows_i, rows_j] - (i == j) * np.eye(*m[rows_i, rows_j].shape)
                    for k, l, c in terms.get((i, j), []) if n else []:
                        ann, cre = below[source].get(k), below[target].get(l)
                        if ann and cre and ann[1] == cre[1]:  # lam(a_l) takes the words w to rows l w
                            piece[cre[0]] -= c * alg.R(n).mats[source][ann[0]]
                    pieces.append(piece)
    relation_residual = op_norm(pieces)

    rng = random.Random(seed)
    adjoint_residual = 0.0
    for _ in range(50):
        x = _random_graded(d, N - 1, rng)
        y = _random_graded(d, N, rng)
        i = rng.randrange(d)
        lhs = fock_inner(alg, create(i, _pad(x, N)), y)
        rhs = fock_inner(alg, _pad(x, N), annihilate(alg, i, y))
        scale = 1.0 + x.norm() * y.norm()
        adjoint_residual = max(adjoint_residual, abs(lhs - rhs) / scale)

    ok = relation_residual <= tol and adjoint_residual <= tol
    return {
        "max_degree": N,
        "relation_residual": relation_residual,
        "adjointness_residual": adjoint_residual,
        "status": "pass" if ok else "fail",
    }


def _random_graded(d: int, N: int, rng: random.Random) -> GradedVector:
    """A graded vector up to degree N whose entries, degree by degree, are
    standard complex Gaussians: real and imaginary parts independent N(0, 1)."""
    sizes = [d**n for n in range(N + 1)]
    return GradedVector(d, tuple(np.split(_complex_gaussians(rng, sum(sizes)), np.cumsum(sizes)[:-1])))


def _complex_gaussians(rng: random.Random, size: int) -> np.ndarray:
    """``size`` standard complex Gaussians by Box-Muller on 2 * size uniforms
    u in [0, 1), the top 53 bits of each little-endian uint64 of
    ``rng.randbytes``: radius sqrt(-2 log(1 - u1)), phase 2 pi u2."""
    u = (np.frombuffer(rng.randbytes(16 * size), dtype="<u8") >> 11) * 2.0**-53
    u1, u2 = u.reshape(2, size)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.exp(2j * np.pi * u2)


def _pad(v: GradedVector, N: int) -> GradedVector:
    if v.max_degree == N:
        return v
    if v.max_degree > N:
        raise ValueError("cannot pad downward")
    comps = list(v.comps) + [
        np.zeros(v.d**n, dtype=np.complex128) for n in range(v.max_degree + 1, N + 1)
    ]
    return GradedVector(v.d, tuple(comps))
