"""Kernels, subspace arithmetic, and the certification checks.

A subspace of H^(x)n is carried as a matrix with orthonormal columns plus
the rank tolerance that produced it.  Kernels of self-adjoint operators come
from an eigendecomposition of the symmetrization; kernels of non-normal
operators (the R_n) come from an SVD.  Subspace equality is always judged by
the operator norm of the projector difference, never by comparing bases.

The check functions take an :class:`~wickfock.algebra.Algebra`, read its
memoized operators, and return plain dicts (JSON-ready report fragments): the
kernel equality ker P_{n+1} = sum_k ker(1 + T_k), strict positivity, the
U_n invariance and commutation laws, the Wick-ideal membership residuals,
and the diagnostics on ker(1 - U_n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import TensorOperator
from .tensorops import apply_slots, braid_residual, op_norm, word_product

if TYPE_CHECKING:
    from .algebra import Algebra

__all__ = [
    "RANK_TOL",
    "CHECK_TOL",
    "Subspace",
    "kernel",
    "nullspace_svd",
    "subspace_sum",
    "subspace_distance",
    "subspace_intersection",
    "kernel_theorem_check",
    "positivity_check",
    "un_checks",
    "wick_ideal_checks",
    "kernel_1mU2_diag",
]

RANK_TOL = 1e-8
CHECK_TOL = 1e-8
SELFADJOINT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Subspace:
    """An orthonormal basis of a subspace of H^(x)level."""

    d: int
    level: int
    basis: np.ndarray
    rank_tol: float

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=np.complex128)
        dim = self.d**self.level
        if b.ndim != 2 or b.shape[0] != dim:
            raise ValueError(f"basis shape {b.shape} does not match dimension {dim}")
        if b.shape[1] > dim:
            raise ValueError(f"rank {b.shape[1]} exceeds dimension {dim}")
        gram_defect = np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1]), 2) if b.shape[1] else 0.0
        if gram_defect > 1e-10:
            raise ValueError(f"basis columns not orthonormal: defect {gram_defect:.3e}")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def _check_same_space(a: Subspace, b: Subspace) -> None:
    if (a.d, a.level) != (b.d, b.level):
        raise ValueError(
            f"subspace mismatch: (d={a.d}, level={a.level}) vs (d={b.d}, level={b.level})"
        )


def kernel(A: TensorOperator, rank_tol: float = RANK_TOL) -> Subspace:
    """Kernel of a self-adjoint operator.

    The input must be self-adjoint within 1e-8 (relative); the kernel is the
    span of eigenvectors of (A + A^H)/2 with |eigenvalue| <= rank_tol *
    max(1, ||A||).  Eigenvector order is the LAPACK ascending-eigenvalue
    order, so the basis is deterministic for a given input.
    """
    m = A.mat
    scale = max(1.0, op_norm(m))
    defect = op_norm(m - m.conj().T)
    if defect > SELFADJOINT_TOL * scale:
        raise ValueError(
            f"operator is not self-adjoint: defect {defect:.3e} at scale {scale:.3e}"
        )
    sym = (m + m.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    mask = np.abs(evals) <= rank_tol * max(1.0, float(np.max(np.abs(evals), initial=0.0)))
    return Subspace(A.d, A.level, evecs[:, mask], rank_tol)


def nullspace_svd(A: TensorOperator, rank_tol: float = RANK_TOL) -> Subspace:
    """Nullspace of an arbitrary (not necessarily normal) operator, via SVD:
    right singular vectors with singular value <= rank_tol * max(1, s_max)."""
    u, s, vh = np.linalg.svd(A.mat)
    smax = float(s[0]) if s.size else 0.0
    mask = s <= rank_tol * max(1.0, smax)
    return Subspace(A.d, A.level, vh.conj().T[:, mask], rank_tol)


def subspace_sum(parts: list[Subspace], rank_tol: float = RANK_TOL) -> Subspace:
    """Orthonormalized span of the concatenated bases (rank-revealing SVD,
    singular values kept above rank_tol * max(1, s_max))."""
    if not parts:
        raise ValueError("need at least one subspace")
    first = parts[0]
    for p in parts[1:]:
        _check_same_space(first, p)
    stacked = np.concatenate([p.basis for p in parts], axis=1)
    if stacked.shape[1] == 0:
        return Subspace(first.d, first.level, stacked, rank_tol)
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    mask = s > rank_tol * max(1.0, float(s[0]))
    return Subspace(first.d, first.level, u[:, mask], rank_tol)


def subspace_distance(a: Subspace, b: Subspace) -> float:
    """|| Pi_A - Pi_B ||_2; zero iff the subspaces coincide, at most one."""
    _check_same_space(a, b)
    return op_norm(a.projector() - b.projector())


def subspace_intersection(a: Subspace, b: Subspace, rank_tol: float = RANK_TOL) -> Subspace:
    """Intersection via the kernel of (1 - Pi_A) + (1 - Pi_B)."""
    _check_same_space(a, b)
    eye = np.eye(a.d**a.level, dtype=np.complex128)
    op = TensorOperator(a.d, a.level, (eye - a.projector()) + (eye - b.projector()))
    return kernel(op, rank_tol)


def _hypotheses(T: TensorOperator, tol: float) -> dict:
    br = braid_residual(T)
    norm_T = op_norm(T.mat)
    return {
        "braid_residual": br,
        "norm_T": norm_T,
        "applicable": bool(br <= tol and norm_T <= 1.0 + 1e-10),
    }


def kernel_theorem_check(
    alg: Algebra, n: int, rank_tol: float = RANK_TOL, tol: float = CHECK_TOL
) -> dict:
    """Certify ker P_{n+1} = sum_k ker(1 + T_k) at level n+1.

    Both sides are computed independently: the left from the recursive P,
    the right as the rank-revealed sum of the level-(n+1) kernels of each
    1 + T_k.  The report carries dimensions, the projector distance, and the
    easy-inclusion margin ||P_{n+1} B_sum||.  Hypothesis violations (braid,
    norm) do not stop the computation; they mark the check inapplicable.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    T = alg.T
    level = n + 1
    hyp = _hypotheses(T, tol)

    P = alg.P(level)
    ker_P = alg.ker_P(level, rank_tol)

    eye = np.eye(T.d**level, dtype=np.complex128)
    parts = []
    for k in range(1, level):
        onePT = TensorOperator(T.d, level, eye + word_product(T, (k,), level).mat)
        parts.append(kernel(onePT, rank_tol))
    sum_space = subspace_sum(parts, rank_tol)

    distance = subspace_distance(ker_P, sum_space)
    margin = op_norm(P.mat @ sum_space.basis) if sum_space.dim else 0.0
    report = {
        "level": level,
        "dim_ker_P": ker_P.dim,
        "dim_sum": sum_space.dim,
        "distance": distance,
        "inclusion_margin": margin,
        "hypotheses": hyp,
    }
    ok = ker_P.dim == sum_space.dim and distance <= tol and margin <= tol
    report["status"] = ("pass" if ok else "fail") if hyp["applicable"] else "inapplicable"
    return report


def positivity_check(
    alg: Algebra, n: int, rank_tol: float = RANK_TOL, tol: float = CHECK_TOL
) -> dict:
    """Minimum eigenvalue of the symmetrized P_n with its classification:
    strictly positive, positive semidefinite, or indefinite.  ``dim_ker_P``
    counts the eigenvalues within the absolute tolerance rank_tol, the same
    threshold the classification uses, so the two stay consistent.

    The status applies the positivity criterion: for braided T with
    ||T|| <= 1 and min eig T > -1 + rank_tol, P_n must be strictly positive;
    for braided contractive T otherwise, min_eig >= -rank_tol; for any other
    T the check is inapplicable.
    """
    T = alg.T
    P = alg.P(n).mat
    evals = np.linalg.eigvalsh((P + P.conj().T) / 2.0)
    min_eig = float(evals[0]) if evals.size else 1.0
    if min_eig > rank_tol:
        classification = "strictly positive"
    elif min_eig >= -rank_tol:
        classification = "positive semidefinite"
    else:
        classification = "indefinite"
    dim_ker = int(np.sum(np.abs(evals) <= rank_tol))
    if not _hypotheses(T, tol)["applicable"]:
        status = "inapplicable"
    elif np.linalg.eigvalsh((T.mat + T.mat.conj().T) / 2.0)[0] > -1.0 + rank_tol:
        status = "pass" if classification == "strictly positive" else "fail"
    else:
        status = "pass" if min_eig >= -rank_tol else "fail"
    return {
        "level": n,
        "min_eig": min_eig,
        "classification": classification,
        "dim_ker_P": dim_ker,
        "status": status,
    }


def un_checks(alg: Algebra, n: int, rank_tol: float = RANK_TOL, tol: float = CHECK_TOL) -> dict:
    """Residuals for the two U_n laws at level n+1: invariance of ker P_{n+1}
    under U_n, and the commutation T_k U_n = U_n T_{n+1-k}."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    T = alg.T
    level = n + 1
    U = alg.U(n).mat
    proj = alg.ker_P(level, rank_tol).projector()
    eye = np.eye(T.d**level, dtype=np.complex128)
    invariance = op_norm((eye - proj) @ U @ proj)
    commutation = 0.0
    for k in range(1, n + 1):
        tk_U = apply_slots(T.mat, T.d, k, U, left=True)
        U_tmirror = apply_slots(T.mat, T.d, n + 1 - k, U)
        commutation = max(commutation, op_norm(tk_U - U_tmirror))
    return {
        "level": level,
        "invariance_residual": invariance,
        "commutation_residual": commutation,
        "status": "pass" if invariance <= tol and commutation <= tol else "fail",
    }


def _mu_columns(d: int, i: int, cols: np.ndarray) -> np.ndarray:
    """Apply the left contraction mu(e_i^*) to every column (0-based i)."""
    dim, r = cols.shape
    return cols.reshape(d, dim // d, r)[i]


def wick_ideal_checks(
    alg: Algebra, n: int, rank_tol: float = RANK_TOL, tol: float = CHECK_TOL
) -> dict:
    """Residuals behind the Wick-ideal property of the kernel ideal.

    For an orthonormal basis X of ker P_n: max_i ||P_{n-1} mu(e_i^*) R_n X||
    and max_{i,k} ||P_n mu(e_i^*) T_1...T_n (X (x) e_k)||, together with the
    intertwining residual ||(1 (x) P_n)(T_1...T_n) - (T_1...T_n)(P_n (x) 1)||
    and the margin ||P_n B|| over a basis B of ker R_n, certifying the
    containment ker R_n <= ker P_n.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    T = alg.T
    d = T.d

    P_n = alg.P(n)
    P_nm1 = alg.P(n - 1).mat
    R_n = alg.R(n)
    ker_P = alg.ker_P(n, rank_tol)
    ker_R = nullspace_svd(R_n, rank_tol)

    chain_n = word_product(T, range(1, n + 1), n + 1).mat
    annihilation = 0.0
    coaction = 0.0
    if ker_P.dim:
        RX = R_n.mat @ ker_P.basis
        for i in range(d):
            annihilation = max(annihilation, op_norm(P_nm1 @ _mu_columns(d, i, RX)))
        for k in range(d):
            Xk = np.kron(ker_P.basis, np.eye(d, dtype=np.complex128)[:, [k]])  # X (x) e_k
            CXk = chain_n @ Xk
            for i in range(d):
                coaction = max(coaction, op_norm(P_n.mat @ _mu_columns(d, i, CXk)))

    intertwining = op_norm(
        apply_slots(P_n.mat, d, 2, chain_n, left=True) - apply_slots(P_n.mat, d, 1, chain_n)
    )
    kerR_margin = op_norm(P_n.mat @ ker_R.basis) if ker_R.dim else 0.0

    ok = max(annihilation, coaction, intertwining, kerR_margin) <= tol
    return {
        "level": n,
        "dim_ker_P": ker_P.dim,
        "dim_ker_R": ker_R.dim,
        "annihilation_residual": annihilation,
        "coaction_residual": coaction,
        "intertwining_residual": intertwining,
        "kerR_inclusion_margin": kerR_margin,
        "status": "pass" if ok else "fail",
    }


def kernel_1mU2_diag(
    alg: Algebra, n: int, rank_tol: float = RANK_TOL, tol: float = CHECK_TOL
) -> dict:
    """On ker(1 - U_n^2) intersected with ker P_{n+1}, every T_k must square
    to the identity: report max_k,v ||(1 - T_k^2) v||."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    T = alg.T
    level = n + 1
    eye = np.eye(T.d**level, dtype=np.complex128)
    U = alg.U(n).mat
    one_minus_U2 = TensorOperator(T.d, level, eye - U @ U)
    ker_U = kernel(one_minus_U2, rank_tol)
    ker_P = alg.ker_P(level, rank_tol)
    inter = subspace_intersection(ker_U, ker_P, rank_tol)

    residual = 0.0
    if inter.dim:
        T2 = T.mat @ T.mat
        for k in range(1, n + 1):
            tk2_basis = apply_slots(T2, T.d, k, inter.basis, left=True)
            residual = max(residual, op_norm(inter.basis - tk2_basis))
    return {
        "level": level,
        "dim_ker_1mU2": ker_U.dim,
        "dim_intersection": inter.dim,
        "involution_residual": residual,
        "status": "pass" if residual <= tol else "fail",
    }
