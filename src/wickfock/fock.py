"""The Fock representation on the truncated graded space (+) H^(x)n, n <= N.

A graded vector keeps one dense complex component per degree; degree 0 is
the span of the vacuum.  Creation tensors on the left; annihilation is the
left contraction composed with R_n degree by degree, which is the closed
form of the inductively defined adjoint action.  The Fock inner product is
< x, y >_0 = sum_n < x_n, P_n y_n > with P_0 = P_1 = 1; distinct degrees are
orthogonal by construction.  The operators R_n and P_n are read from an
:class:`~wickfock.algebra.Algebra`, which builds each of them once.

Generator indices are 0-based here (library convention); only files and
display strings are 1-based.
"""

from __future__ import annotations

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
    "vacuum",
    "elementary",
    "default_max_degree",
    "create",
    "annihilate_mu",
    "annihilate",
    "fock_inner",
    "relation_check",
]


class DegreeOverflowError(ValueError):
    """Creation would push a nonzero component past the truncation degree."""


def default_max_degree(d: int) -> int:
    """Desk-scale truncation: degree 5 for d <= 2, degree 4 above."""
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


def vacuum(d: int, N: int) -> GradedVector:
    v = [np.zeros(d**n, dtype=np.complex128) for n in range(N + 1)]
    v[0][0] = 1.0
    return GradedVector(d, tuple(v))


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


def annihilate_mu(i: int, v: GradedVector) -> GradedVector:
    """The free left contraction mu(e_i^*): degree n maps to the e_i slice
    of degree n-1; the vacuum maps to zero."""
    d = v.d
    if not 0 <= i < d:
        raise ValueError(f"index {i} out of range 0..{d - 1}")
    N = v.max_degree
    out = [np.zeros(d**n, dtype=np.complex128) for n in range(N + 1)]
    for n in range(1, N + 1):
        out[n - 1] = v.comps[n].reshape(d, d ** (n - 1))[i].copy()
    return GradedVector(d, tuple(out))


def annihilate(alg: Algebra, i: int, v: GradedVector) -> GradedVector:
    """The Fock annihilation: mu(e_i^*) R_n on each degree-n component."""
    d = v.d
    if alg.T.d != d:
        raise ValueError(f"spec dimension {alg.T.d} does not match vector dimension {d}")
    if not 0 <= i < d:
        raise ValueError(f"index {i} out of range 0..{d - 1}")
    N = v.max_degree
    out = [np.zeros(d**n, dtype=np.complex128) for n in range(N + 1)]
    for n in range(1, N + 1):
        rv = alg.R(n).mat @ v.comps[n]
        out[n - 1] = rv.reshape(d, d ** (n - 1))[i].copy()
    return GradedVector(d, tuple(out))


def fock_inner(alg: Algebra, x: GradedVector, y: GradedVector) -> complex:
    """< x, y >_0 = sum_n < x_n, P_n y_n >, conjugate-linear in x."""
    _check_compatible(x, y)
    if alg.T.d != x.d:
        raise ValueError(f"spec dimension {alg.T.d} does not match vectors (d={x.d})")
    total = 0j
    for n in range(x.max_degree + 1):
        if n < 2:
            total += np.vdot(x.comps[n], y.comps[n])
        else:
            total += np.vdot(x.comps[n], alg.P(n).mat @ y.comps[n])
    return complex(total)


def relation_check(alg: Algebra, N: int, seed: int = 42, tol: float = 1e-8) -> dict:
    """Certify the basic relations and adjointness on the truncated space.

    Relation residuals are operator norms, per degree n <= N-1 and pair
    (i, j), of

        lam(a_i^*) lam(a_j) - delta_ij - sum_kl T_ij^kl lam(a_l) lam(a_k^*)

    read off as blocks of R: lam(a_i^*) lam(a_j) on degree n is the (i, j)
    block of R_{n+1}, and lam(a_k^*) on degree n the k-th row block of R_n.  The
    adjointness residual pairs creation against annihilation on 50 seeded
    pseudo-random graded vectors via the Fock inner product.
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    d = alg.T.d
    units = np.eye(d, dtype=np.complex128)
    relation_residual = 0.0
    for n in range(0, N):
        eye_n = np.eye(d**n, dtype=np.complex128)
        blocks = alg.R(n + 1).mat.reshape(d, d**n, d, d**n)
        ann = alg.R(n).mat.reshape(d, -1, d**n) if n >= 1 else None
        for i in range(d):
            for j in range(d):
                rhs = (1.0 if i == j else 0.0) * eye_n
                if n >= 1:
                    for (a, b, k, l), c in alg.spec.coeffs.items():
                        if (a, b) != (i, j):
                            continue
                        rhs = rhs + c * np.kron(units[:, [l]], ann[k])
                residual = op_norm(blocks[i, :, j, :] - rhs)
                relation_residual = max(relation_residual, residual)

    rng = np.random.default_rng(seed)
    adjoint_residual = 0.0
    for _ in range(50):
        x = _random_graded(d, N - 1, rng)
        y = _random_graded(d, N, rng)
        i = int(rng.integers(0, d))
        lhs = fock_inner(alg, _pad(create(i, _pad(x, N)), N), y)
        rhs = fock_inner(alg, _pad(x, N), _pad(annihilate(alg, i, y), N))
        scale = 1.0 + x.norm() * y.norm()
        adjoint_residual = max(adjoint_residual, abs(lhs - rhs) / scale)

    ok = relation_residual <= tol and adjoint_residual <= tol
    return {
        "max_degree": N,
        "relation_residual": relation_residual,
        "adjointness_residual": adjoint_residual,
        "status": "pass" if ok else "fail",
    }


def _random_graded(d: int, N: int, rng: np.random.Generator) -> GradedVector:
    comps = []
    for n in range(N + 1):
        size = d**n
        comps.append(rng.standard_normal(size) + 1j * rng.standard_normal(size))
    return GradedVector(d, tuple(comps))


def _pad(v: GradedVector, N: int) -> GradedVector:
    if v.max_degree == N:
        return v
    if v.max_degree > N:
        raise ValueError("cannot pad downward")
    comps = list(v.comps) + [
        np.zeros(v.d**n, dtype=np.complex128) for n in range(v.max_degree + 1, N + 1)
    ]
    return GradedVector(v.d, tuple(comps))
