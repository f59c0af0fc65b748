"""Kernels, subspace arithmetic, and the certification checks.

Operators and subspaces are kept in the block layout of T
(:func:`~wickfock.tensorops.layout`): one block per weight space of
H^(x)n when T is weight-preserving, else one dense block.  A subspace of
H^(x)n is carried as a :class:`Subspace`, an orthonormal basis per block.
Kernels of self-adjoint operators come from an eigendecomposition of the
symmetrization of each block, those of non-normal operators (the R_n) from
an SVD, each cut by one rank rule whose scale is the largest |eigenvalue|
over all blocks, so a blocked kernel has the dimension the dense
eigendecomposition decides.  Subspace equality is always judged by the
operator norm of the projector difference, never by comparing bases; the
norm of a block-diagonal operator is the largest norm of its blocks, so
every residual is taken block by block.

The check functions take an :class:`~wickfock.algebra.Algebra`, read its
memoized operators, and return plain dicts (JSON-ready report fragments): the
kernel equality ker P_{n+1} = sum_k ker(1 + T_k), decided as the orthogonal
decomposition ker P_{n+1} (+) ker(sum_k 1 (x) Pi (x) 1) = H^(x)(n+1) with Pi
the projector onto the level-2 kernel of 1 + T, strict positivity, the U_n
invariance and commutation laws, the Wick-ideal membership residuals, and
the diagnostics on ker(1 - U_n^2).  The first two are decided per block;
the others read dense matrices placed from the blocks.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .model import TensorOperator
from .tensorops import (
    BlockOperator,
    apply_slots,
    braid_residual,
    by_shape,
    op_norm,
    packed_identity,
    slot_step,
    word_product,
)

if TYPE_CHECKING:
    from .algebra import Algebra

__all__ = [
    "RANK_TOL",
    "CHECK_TOL",
    "Subspace",
    "kernel",
    "symmetric_eigenvalues",
    "nullspace_svd",
    "subspace_intersection",
    "ideal_complement",
    "kernel_theorem_check",
    "positivity_check",
    "un_checks",
    "wick_ideal_checks",
    "kernel_1mU2_diag",
]

RANK_TOL = 1e-8
CHECK_TOL = 1e-8
SELFADJOINT_TOL = 1e-8


class Subspace:
    """An orthonormal basis of a subspace of H^(x)level, kept per diagonal
    block: block b of ``parts`` (a :class:`~wickfock.tensorops.BlockOperator`)
    holds the basis vectors that lie in block b, one column each, and a
    dense ``basis`` is one block.  The Gram defect is at most 1e-10 in the
    Frobenius norm over the blocks, which equals the dense one and bounds
    the operator norm."""

    def __init__(self, d: int, level: int, basis: np.ndarray | BlockOperator) -> None:
        if not isinstance(basis, BlockOperator):
            b = np.array(basis, dtype=np.complex128)
            dim = d**level
            if b.ndim != 2 or b.shape[0] != dim:
                raise ValueError(f"basis shape {b.shape} does not match dimension {dim}")
            basis = BlockOperator(d, level, (np.arange(dim),), (b,))
        gram_defect = float(np.linalg.norm(
            [np.linalg.norm(B.conj().T @ B - np.eye(B.shape[1])) for B in basis.mats]
        ))
        if gram_defect > 1e-10:
            raise ValueError(f"basis columns not orthonormal: defect {gram_defect:.3e}")
        self.d, self.level, self.parts = d, level, basis

    @property
    def dim(self) -> int:
        return sum(B.shape[1] for B in self.parts.mats)

    @cached_property
    def basis(self) -> np.ndarray:
        """The basis as one dense matrix, the blocks' vectors in turn."""
        return self.parts.place(basis=True)

    def projector(self) -> BlockOperator:
        return BlockOperator(
            self.d, self.level, self.parts.words, [B @ B.conj().T for B in self.parts.mats]
        )


def _check_same_space(a: Subspace, b: Subspace) -> None:
    if (a.d, a.level) != (b.d, b.level):
        raise ValueError(
            f"subspace mismatch: (d={a.d}, level={a.level}) vs (d={b.d}, level={b.level})"
        )


def _is_zero(values: np.ndarray, rank_tol: float, top: float) -> np.ndarray:
    """The rank rule: |value| <= rank_tol * max(1, top), ``top`` the largest
    |value| of the whole operator (over all its blocks)."""
    return np.abs(values) <= rank_tol * max(1.0, top)


def symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    """The eigenvalues of (m + m^H)/2, for one matrix or a stack."""
    return np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2.0)


def _largest(values) -> float:
    return max((float(np.max(np.abs(v), initial=0.0)) for v in values), default=0.0)


def kernel(A: BlockOperator | TensorOperator, rank_tol: float = RANK_TOL) -> Subspace:
    """Kernel of a self-adjoint operator (||A - A^H||_F within 1e-8 of its
    largest |eigenvalue|): per block, the eigenvectors of (A + A^H)/2 whose
    eigenvalues the rank rule, at the scale of the whole operator, counts as
    zero, in LAPACK's ascending order.  A dense operator is one block.

    >>> flip = np.eye(4)[[0, 2, 1, 3]]  # e_i (x) e_j -> e_j (x) e_i at d=2
    >>> K = kernel(TensorOperator(2, 2, np.eye(4) + flip))
    >>> K.dim, np.round((K.basis[:, 0] / K.basis[1, 0]).real, 12) + 0.0
    (1, array([ 0.,  1., -1.,  0.]))
    """
    if not isinstance(A, BlockOperator):
        A = BlockOperator.restrict(A.d, A.level, (np.arange(A.d**A.level),), A.mat)
    pairs = by_shape(lambda m: np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0), A.mats)
    top = _largest(evals for evals, _ in pairs)
    scale = max(1.0, top)
    defect = float(np.linalg.norm([np.linalg.norm(m - m.conj().T) for m in A.mats]))
    if defect > SELFADJOINT_TOL * scale:
        raise ValueError(
            f"operator is not self-adjoint: defect {defect:.3e} at scale {scale:.3e}"
        )
    bases = [evecs[:, _is_zero(evals, rank_tol, top)] for evals, evecs in pairs]
    return Subspace(A.d, A.level, BlockOperator(A.d, A.level, A.words, bases))


def nullspace_svd(A: BlockOperator | TensorOperator, rank_tol: float = RANK_TOL) -> Subspace:
    """Nullspace of an arbitrary (not necessarily normal) operator, via SVD
    of its dense matrix: right singular vectors with singular values the
    rank rule counts as zero."""
    u, s, vh = np.linalg.svd(A.mat)
    return Subspace(A.d, A.level, vh.conj().T[:, _is_zero(s, rank_tol, _largest([s]))])


def subspace_intersection(a: Subspace, b: Subspace, rank_tol: float = RANK_TOL) -> Subspace:
    """Intersection via the kernel of (1 - Pi_A) + (1 - Pi_B)."""
    _check_same_space(a, b)
    eye = np.eye(a.d**a.level, dtype=np.complex128)
    op = TensorOperator(a.d, a.level, (eye - a.projector().mat) + (eye - b.projector().mat))
    return kernel(op, rank_tol)


def _hypotheses(T: TensorOperator, tol: float) -> dict:
    br = braid_residual(T)
    norm_T = op_norm(T.mat)
    return {
        "braid_residual": br,
        "norm_T": norm_T,
        "applicable": bool(br <= tol and norm_T <= 1.0 + 1e-10),
    }


def ideal_complement(alg: Algebra, level: int, rank_tol: float = RANK_TOL) -> Subspace:
    """The orthogonal complement in H^(x)level of I = sum_k ker(1 + T_k),
    k = 1..level-1: the kernel of the positive S = sum_k 1 (x) Pi (x) 1, Pi
    the projector onto the level-2 kernel of 1 + T.  S has range I, and its
    kernel is decided by :func:`kernel`, under the rank rule of ker P.  Pi
    keeps the layout of T, so it is built per level-2 block and S per block
    of the level, in the layouts ``alg`` holds, by the
    :func:`~wickfock.tensorops.slot_step` of Pi.

    For the flip at d=2 (q-CCR with q = 1), I is spanned by the
    antisymmetric pairs in every slot pair; its complement at level 3 is
    Sym^3(C^2), of dimension 4:

    >>> from wickfock.algebra import Algebra
    >>> from wickfock.model import preset
    >>> ideal_complement(Algebra(preset("q-ccr", 2, q=1.0)), 3).dim
    4
    """
    d = alg.T.d
    one_plus_T = BlockOperator.restrict(d, 2, alg.layout(2), np.eye(d**2) + alg.T.mat)
    Pi = kernel(one_plus_T, rank_tol).projector().mat
    blocks = alg.layout(level)
    step, eye = slot_step(Pi, d, level, blocks), packed_identity(blocks)
    S = sum((step(k, eye) for k in range(1, level)), np.zeros_like(eye))
    return kernel(BlockOperator.from_packed(d, level, blocks, S), rank_tol)


def kernel_theorem_check(
    alg: Algebra, n: int, rank_tol: float = RANK_TOL, tol: float = CHECK_TOL
) -> dict:
    """Certify ker P_{n+1} = sum_k ker(1 + T_k) at level n+1, as the
    orthogonal decomposition ker P_{n+1} (+) ker S = H^(x)(n+1), with ker S
    the complement of the sum (:func:`ideal_complement`).

    Both sides are computed independently and decided by :func:`kernel`:
    the left from the recursive P, the right from the level-2 kernel of
    1 + T.  With Pi_sum = 1 - Pi_{ker S}, the report carries the dimensions
    (``dim_sum = d^(n+1) - dim ker S``), the projector distance
    ||Pi_{ker P} - Pi_sum||, and the easy-inclusion margin ||P_{n+1} Pi_sum||,
    each the largest over the blocks of the layout, which all three share.
    Hypothesis violations (braid, norm) do not stop the computation; they
    mark the check inapplicable.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    T = alg.T
    level = n + 1
    hyp = _hypotheses(T, tol)

    P = alg.P(level)
    ker_P = alg.ker_P(level, rank_tol)
    complement = ideal_complement(alg, level, rank_tol)

    dim_sum = T.d**level - complement.dim
    eye = BlockOperator(T.d, level, P.words, [np.eye(len(w), dtype=np.complex128) for w in P.words])
    sum_proj = eye - complement.projector()
    distance = op_norm(ker_P.projector() - sum_proj)
    margin = op_norm(P @ sum_proj)
    ok = ker_P.dim == dim_sum and distance <= tol and margin <= tol
    return {
        "level": level,
        "dim_ker_P": ker_P.dim,
        "dim_sum": dim_sum,
        "distance": distance,
        "inclusion_margin": margin,
        "hypotheses": hyp,
        "status": ("pass" if ok else "fail") if hyp["applicable"] else "inapplicable",
    }


def positivity_check(
    alg: Algebra, n: int, rank_tol: float = RANK_TOL, tol: float = CHECK_TOL
) -> dict:
    """Minimum eigenvalue of the symmetrized P_n, over its blocks, with its
    classification: strictly positive, positive semidefinite, or
    indefinite.  ``dim_ker_P``
    counts the eigenvalues within the absolute tolerance rank_tol, the same
    threshold the classification uses, so the two stay consistent.

    The status applies the positivity criterion: for braided T with
    ||T|| <= 1 and min eig T > -1 + rank_tol, P_n must be strictly positive;
    for braided contractive T otherwise, min_eig >= -rank_tol; for any other
    T the check is inapplicable.
    """
    T = alg.T
    evals = np.concatenate(by_shape(symmetric_eigenvalues, alg.P(n).mats))
    min_eig = float(evals.min()) if evals.size else 1.0
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
    proj = alg.ker_P(level, rank_tol).projector().mat
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
    RX = R_n.mat @ ker_P.basis
    annihilation = max(op_norm(P_nm1 @ _mu_columns(d, i, RX)) for i in range(d))
    coaction = 0.0
    for k in range(d):
        Xk = np.kron(ker_P.basis, np.eye(d, dtype=np.complex128)[:, [k]])  # X (x) e_k
        CXk = chain_n @ Xk
        for i in range(d):
            coaction = max(coaction, op_norm(P_n.mat @ _mu_columns(d, i, CXk)))

    intertwining = op_norm(
        apply_slots(P_n.mat, d, 2, chain_n, left=True) - apply_slots(P_n.mat, d, 1, chain_n)
    )
    kerR_margin = op_norm(P_n.mat @ ker_R.basis)

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
    U = alg.U(n).mat
    ker_U = kernel(TensorOperator(T.d, level, np.eye(T.d**level) - U @ U), rank_tol)
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
