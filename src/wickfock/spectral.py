"""Kernels, subspace arithmetic, and the certification checks.

Operators and subspaces are kept in the block layout of T
(:class:`~wickfock.tensorops.Layout`): one block per weight space of
H^(x)n when T is weight-preserving, else one dense block.  A subspace of
H^(x)n is carried as a :class:`Subspace`, an orthonormal basis per block.
Kernels of self-adjoint operators come from an eigendecomposition of the
symmetrization of each block, those of non-normal operators (the R_n) from
an SVD, each cut by one rank rule whose scale is the largest |eigenvalue|
or singular value over all blocks, so a blocked kernel has the dimension
the dense decomposition decides.  Subspace equality is always judged by the
operator norm of the projector difference, never by comparing bases; the
norm of a block-diagonal operator is the largest norm of its blocks, so
every residual is taken block by block.

The check functions take an :class:`~wickfock.algebra.Algebra`, read its
memoized operators, and return plain dicts (JSON-ready report fragments): the
kernel equality ker P_{n+1} = sum_k ker(1 + T_k), decided as the orthogonal
decomposition ker P_{n+1} (+) ker(sum_k 1 (x) Pi (x) 1) = H^(x)(n+1) with Pi
the projector onto the level-2 kernel of 1 + T, strict positivity, the U_n
invariance and commutation laws, the telescoping expansion of 1 - U_n^2,
the diagnostics on ker(1 - U_n^2), and the Wick-ideal membership residuals,
each status by the one rule of :func:`verdict` on the hypothesis the
Algebra decides.
Every product of the T_i is a word of the Algebra (``alg.word``), and all
is taken per block, the Wick-ideal contractions and amplifications through
the first- and last-letter split of the blocks
(:meth:`~wickfock.algebra.Algebra.split`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .tensorops import BlockOperator, longest_word, op_norm, slot_step, slot_sum

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
    "verdict",
    "kernel_theorem_check",
    "positivity_check",
    "un_checks",
    "wick_ideal_checks",
    "telescoping_residual",
    "kernel_1mU2_diag",
]

RANK_TOL = 1e-8
CHECK_TOL = 1e-8
SELFADJOINT_TOL = 1e-8


class Subspace:
    """An orthonormal basis of a subspace of H^(x)level, kept per diagonal
    block: block b of ``parts`` (a :class:`~wickfock.tensorops.BlockOperator`,
    whose ``d`` and ``level`` it reads) holds the basis vectors that lie in
    block b, one column each.  The Gram
    defect is at most 1e-10 in the Frobenius norm over the blocks, which
    equals the dense one and bounds the operator norm."""

    def __init__(self, basis: BlockOperator) -> None:
        gram_defect = float(np.linalg.norm(
            [np.linalg.norm(B.conj().T @ B - np.eye(B.shape[1])) for B in basis.mats]
        ))
        if gram_defect > 1e-10:
            raise ValueError(f"basis columns not orthonormal: defect {gram_defect:.3e}")
        self.d, self.level, self.parts = basis.d, basis.level, basis

    @property
    def dim(self) -> int:
        return sum(B.shape[1] for B in self.parts.mats)

    def projector(self) -> BlockOperator:
        return BlockOperator(self.parts.layout, [B @ B.conj().T for B in self.parts.mats])


def _is_zero(values: np.ndarray, rank_tol: float, top: float) -> np.ndarray:
    """The rank rule: |value| <= rank_tol * max(1, top), ``top`` the largest
    |value| of the whole operator (over all its blocks)."""
    return np.abs(values) <= rank_tol * max(1.0, top)


def symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    """The eigenvalues of (m + m^H)/2."""
    return np.linalg.eigvalsh((m + m.conj().T) / 2.0)


def _largest(values) -> float:
    return max((float(np.max(np.abs(v), initial=0.0)) for v in values), default=0.0)


def kernel(A: BlockOperator, rank_tol: float = RANK_TOL) -> Subspace:
    """Kernel of a self-adjoint operator (||A - A^H||_F within 1e-8 of its
    largest |eigenvalue|): per block, the eigenvectors of (A + A^H)/2 whose
    eigenvalues the rank rule, at the scale of the whole operator, counts as
    zero, in LAPACK's ascending order.  A dense operator is one block.

    >>> flip = np.eye(4)[[0, 2, 1, 3]]  # e_i (x) e_j -> e_j (x) e_i at d=2
    >>> from wickfock.tensorops import Layout
    >>> K = kernel(BlockOperator(Layout(2, 2, False), [np.eye(4) + flip]))
    >>> [v] = K.parts.mats[0].T
    >>> K.dim, np.round((v / v[1]).real, 12) + 0.0
    (1, array([ 0.,  1., -1.,  0.]))
    """
    pairs = [np.linalg.eigh((m + m.conj().T) / 2.0) for m in A.mats]
    top = _largest(evals for evals, _ in pairs)
    scale = max(1.0, top)
    defect = float(np.linalg.norm([np.linalg.norm(m - m.conj().T) for m in A.mats]))
    if defect > SELFADJOINT_TOL * scale:
        raise ValueError(
            f"operator is not self-adjoint: defect {defect:.3e} at scale {scale:.3e}"
        )
    bases = []
    for k, (evals, evecs) in enumerate(pairs):
        pairs[k] = None  # each block's eigenvectors go once its basis is cut
        bases.append(evecs[:, _is_zero(evals, rank_tol, top)])
    return Subspace(BlockOperator(A.layout, bases))


def nullspace_svd(A: BlockOperator, rank_tol: float = RANK_TOL) -> Subspace:
    """Nullspace of an arbitrary (not necessarily normal) operator: per block, the
    right singular vectors whose singular values the rank rule, at the scale of
    the whole operator, counts as zero.  A dense operator is one block."""
    triples = [np.linalg.svd(m) for m in A.mats]
    top = _largest(s for _, s, _ in triples)
    bases = [vh.conj().T[:, _is_zero(s, rank_tol, top)] for _, s, vh in triples]
    return Subspace(BlockOperator(A.layout, bases))


def subspace_intersection(a: Subspace, b: Subspace, rank_tol: float = RANK_TOL) -> Subspace:
    """The kernel of (1 - Pi_A) + (1 - Pi_B), for two bases in one layout."""
    if (a.d, a.level) != (b.d, b.level):
        raise ValueError(f"subspace mismatch: (d={a.d}, level={a.level}) vs (d={b.d}, level={b.level})")
    eye = BlockOperator.identity(a.parts.layout)
    return kernel((eye - a.projector()) + (eye - b.projector()), rank_tol)


def verdict(ok: bool, applicable: bool) -> str:
    """The status of a check, by the one rule for a failed hypothesis: the
    check is computed on any self-adjoint T, and reads inapplicable when the
    paper's hypothesis for its identity (``alg.braided`` or
    ``alg.hypotheses["applicable"]``) fails."""
    return ("pass" if ok else "fail") if applicable else "inapplicable"


def ideal_complement(alg: Algebra, level: int, rank_tol: float = RANK_TOL) -> Subspace:
    """The orthogonal complement in H^(x)level of I = sum_k ker(1 + T_k),
    k = 1..level-1: the kernel of the positive S = sum_k 1 (x) Pi (x) 1, Pi
    the projector onto the level-2 kernel of 1 + T.  S has range I, and its
    kernel is decided by :func:`kernel`, under the rank rule of ker P.  Pi
    keeps the layout of T, so it is built per block of T and S per block
    of the level, in the layouts ``alg`` holds, by
    :func:`~wickfock.tensorops.slot_sum` of Pi.

    For the flip at d=2 (q-CCR with q = 1), I is spanned by the
    antisymmetric pairs in every slot pair; its complement at level 3 is
    Sym^3(C^2), of dimension 4:

    >>> from wickfock.algebra import Algebra
    >>> from wickfock.model import preset
    >>> ideal_complement(Algebra(preset("q-ccr", 2, q=1.0)), 3).dim
    4
    """
    layout = alg.layout(level)
    Pi = kernel(BlockOperator.identity(alg.T.layout) + alg.T, rank_tol).projector()
    return kernel(BlockOperator.from_packed(layout, slot_sum(Pi, layout)), rank_tol)


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
    each the largest over the blocks of the layout, which all three share,
    taken one block at a time.  It carries ``alg.hypotheses`` too, and reads
    inapplicable when they fail.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    level = n + 1
    P = alg.P(level)
    ker_P = alg.ker_P(level, rank_tol)
    complement = ideal_complement(alg, level, rank_tol)

    dim_sum = alg.spec.d**level - complement.dim
    distance = margin = 0.0
    for K, C, P_b in zip(ker_P.parts.mats, complement.parts.mats, P.mats):
        sum_proj = np.eye(len(P_b), dtype=np.complex128) - C @ C.conj().T
        distance = max(distance, op_norm([K @ K.conj().T - sum_proj]))
        margin = max(margin, op_norm([P_b @ sum_proj]))
    ok = ker_P.dim == dim_sum and distance <= tol and margin <= tol
    return {
        "level": level,
        "dim_ker_P": ker_P.dim,
        "dim_sum": dim_sum,
        "distance": distance,
        "inclusion_margin": margin,
        "hypotheses": dict(alg.hypotheses),
        "status": verdict(ok, alg.hypotheses["applicable"]),
    }


def positivity_check(alg: Algebra, n: int, rank_tol: float = RANK_TOL) -> dict:
    """Minimum eigenvalue of the symmetrized P_n, over its blocks
    (``alg.eigenvalues(n)``), with its classification: strictly positive,
    positive semidefinite, or indefinite.  ``dim_ker_P`` counts the
    eigenvalues within the absolute tolerance rank_tol, the same threshold
    the classification uses, so the two stay consistent.

    The status applies the positivity criterion: for braided T with
    ||T|| <= 1 and min eig T > -1 + rank_tol (``alg.min_eig_T``), P_n must
    be strictly positive; for braided contractive T otherwise,
    min_eig >= -rank_tol; for any other T the check is inapplicable
    (``alg.hypotheses``).
    """
    evals = np.concatenate(alg.eigenvalues(n))
    min_eig = float(evals.min()) if evals.size else 1.0
    if min_eig > rank_tol:
        classification = "strictly positive"
    elif min_eig >= -rank_tol:
        classification = "positive semidefinite"
    else:
        classification = "indefinite"
    dim_ker = int(np.sum(np.abs(evals) <= rank_tol))
    strict = alg.min_eig_T > -1.0 + rank_tol
    ok = classification == "strictly positive" if strict else classification != "indefinite"
    return {
        "level": n,
        "min_eig": min_eig,
        "classification": classification,
        "dim_ker_P": dim_ker,
        "status": verdict(ok, alg.hypotheses["applicable"]),
    }


def un_checks(alg: Algebra, n: int, rank_tol: float = RANK_TOL, tol: float = CHECK_TOL) -> dict:
    """Residuals for the two U_n laws at level n+1: invariance of ker P_{n+1}
    under U_n, and the commutation T_k U_n = U_n T_{n+1-k}, each the largest
    over the blocks of the layout.  Both sides of the commutation are one
    :func:`~wickfock.tensorops.slot_step`: T_k U_n = (U_n^H T_k)^H, since
    ``T_blocks`` admits only a self-adjoint T."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    level = n + 1
    U = alg.U(n)
    proj = alg.ker_P(level, rank_tol).projector()
    eye = BlockOperator.identity(U.layout)
    invariance = op_norm((eye - proj) @ U @ proj)
    step = slot_step(alg.T, U.layout)
    U_packed, UH_packed = U.packed(), U.adjoint().packed()
    commutation = 0.0
    for k in range(1, n + 1):
        tk_U = BlockOperator.from_packed(U.layout, step(k, UH_packed)).adjoint()
        U_tmirror = BlockOperator.from_packed(U.layout, step(n + 1 - k, U_packed))
        commutation = max(commutation, op_norm(tk_U - U_tmirror))
    return {
        "level": level,
        "invariance_residual": invariance,
        "commutation_residual": commutation,
        "status": verdict(invariance <= tol and commutation <= tol, alg.braided),
    }


def wick_ideal_checks(
    alg: Algebra, n: int, rank_tol: float = RANK_TOL, tol: float = CHECK_TOL
) -> dict:
    """Residuals behind the Wick-ideal property of the kernel ideal.

    For an orthonormal basis X of ker P_n: max_i ||P_{n-1} mu(e_i^*) R_n X||
    and max_{i,k} ||P_n mu(e_i^*) T_1...T_n (X (x) e_k)||, together with the
    intertwining residual ||(1 (x) P_n)(T_1...T_n) - (T_1...T_n)(P_n (x) 1)||
    and the margin ||P_n B|| over a basis B of ker R_n, certifying the
    containment ker R_n <= ker P_n.  By ``alg.split``, mu(e_i^*) takes the
    rows i w of a block to the block of the words w, and X (x) e_k lies in
    the rows w k of a block: for fixed letters, distinct blocks give pieces
    in distinct rows and columns, so each norm is the largest piece's.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    P_n, P_below, R_n = alg.P(n), alg.P(n - 1), alg.R(n)
    ker_P, ker_R = alg.ker_P(n, rank_tol), nullspace_svd(R_n, rank_tol)
    X, C = ker_P.parts.mats, alg.word(range(1, n + 1), n + 1)  # C the chain T_1 ... T_n

    annihilation = op_norm([
        P_below.mats[home] @ RX[rows]
        for RX, pieces in zip(map(np.matmul, R_n.mats, X), alg.split(n))
        for _, rows, home in pieces
    ])
    coaction = op_norm([
        P_n.mats[home] @ CX[rows]
        for m, firsts, lasts in zip(C.mats, alg.split(n + 1), alg.split(n + 1, last=True))
        for CX in (m[:, cols] @ X[tails] for _, cols, tails in lasts)
        for _, rows, home in firsts
    ])
    right = alg.apply_tensor(P_n.adjoint(), C.adjoint(), last=True).adjoint()  # C (P_n (x) 1)
    intertwining = op_norm(alg.apply_tensor(P_n, C) - right)
    kerR_margin = op_norm(P_n @ ker_R.parts)

    ok = max(annihilation, coaction, intertwining, kerR_margin) <= tol
    return {
        "level": n,
        "dim_ker_P": ker_P.dim,
        "dim_ker_R": ker_R.dim,
        "annihilation_residual": annihilation,
        "coaction_residual": coaction,
        "intertwining_residual": intertwining,
        "kerR_inclusion_margin": kerR_margin,
        "status": verdict(ok, alg.hypotheses["applicable"]),
    }


def telescoping_residual(alg: Algebra, n: int) -> float:
    """Residual of the telescoping expansion of 1 - U_n^2 on H^(x)(n+1):

    (1 - T_1^2) + T_1 (1 - T_2^2) T_1 + ... +
    T_1...T_{n-1} (1 - T_n^2) T_{n-1}...T_1 +
    T_1...T_n (1 - U_{n-1}^2) T_n...T_1,

    every product a word of ``alg``, the norm the largest over the blocks."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    level = n + 1
    eye = BlockOperator.identity(alg.layout(level))

    def sandwich(m: int, inner: BlockOperator) -> BlockOperator:
        """T_1 ... T_m inner T_m ... T_1."""
        return alg.word(range(1, m + 1), level) @ inner @ alg.word(range(m, 0, -1), level)

    U, Um1 = alg.U(n), alg.word(longest_word(n - 1), level)
    terms = [sandwich(k - 1, eye - alg.word((k, k), level)) for k in range(1, n + 1)]
    terms.append(sandwich(n, eye - Um1 @ Um1))
    return op_norm(eye - U @ U - sum(terms[1:], terms[0]))


def kernel_1mU2_diag(
    alg: Algebra, n: int, rank_tol: float = RANK_TOL, tol: float = CHECK_TOL
) -> dict:
    """On ker(1 - U_n^2) intersected with ker P_{n+1}, every T_k must square
    to the identity: report max_k ||(1 - T_k^2) V||, V an orthonormal basis
    of the intersection, each norm the largest over the blocks."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    level = n + 1
    U = alg.U(n)
    eye = BlockOperator.identity(U.layout)
    ker_U = kernel(eye - U @ U, rank_tol)
    inter = subspace_intersection(ker_U, alg.ker_P(level, rank_tol), rank_tol)
    residual = max(op_norm((eye - alg.word((k, k), level)) @ inter.parts) for k in range(1, n + 1))
    return {
        "level": level,
        "dim_ker_1mU2": ker_U.dim,
        "dim_intersection": inter.dim,
        "involution_residual": residual,
        "status": verdict(residual <= tol, alg.hypotheses["applicable"]),
    }
