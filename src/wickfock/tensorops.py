"""Derived operators on tensor powers of H.

Everything here is assembled from the level-2 operator by amplification
(identity factors on the untouched slots) and by the product/sum recursions

    R_n  = 1 + T_1 + T_1 T_2 + ... + T_1 T_2 ... T_{n-1}
    Rt_k = 1 + T_{k-1} + T_{k-2} T_{k-1} + ... + T_1 T_2 ... T_{k-1}
    P_2  = R_2,   P_{n+1} = (1 (x) P_n) R_{n+1}
    U_n  = (T_1 ... T_n)(T_1 ... T_{n-1}) ... (T_1 T_2) T_1

Every product of amplified operators goes through :func:`apply_slots`, which
applies ``1 (x) op (x) 1`` from either side by a reshape and a matmul, never
forming it; :func:`word_product` loops it over a word in the T_i.  Sums over
the symmetric group, and the factorization P_{n+1} = P(D_J) P(W_J), live in
:mod:`coxeter`; this module checks only P_{n+m} = P(D_m) (P_m (x) 1_n).

Products and sums accumulate left to right in exactly this written order so
residuals are bit-reproducible run to run.  Matrices are dense; desk scale
is d <= 3, level <= 6.
"""

from __future__ import annotations

import numpy as np

from .model import TensorOperator

__all__ = [
    "op_norm",
    "amplify",
    "apply_slots",
    "word_product",
    "braid_residual",
    "is_braided",
    "build_R",
    "build_Rtilde",
    "build_P",
    "build_PDm",
    "build_U",
    "factorization_check",
    "telescoping_residual",
]

BRAID_TOL = 1e-8


def op_norm(op: TensorOperator | np.ndarray) -> float:
    """Operator norm: largest singular value, via eigendecomposition of the
    self-adjoint square m^H m."""
    m = op.mat if isinstance(op, TensorOperator) else np.asarray(op)
    if m.size == 0:
        return 0.0
    ev = np.linalg.eigvalsh(m.conj().T @ m)
    return float(np.sqrt(max(ev[-1], 0.0)))


def _require_level2(T: TensorOperator) -> None:
    if T.level != 2:
        raise ValueError(f"expected a level-2 operator, got level {T.level}")


def amplify(T: TensorOperator, i: int, n: int) -> TensorOperator:
    """T_i = 1 (x) ... (x) 1 (x) T (x) 1 (x) ... (x) 1 on H^(x)n, acting on
    slots i, i+1 (positions are 1-based, 1 <= i <= n-1)."""
    _require_level2(T)
    if n < 2:
        raise ValueError(f"amplification needs level n >= 2, got {n}")
    if not 1 <= i <= n - 1:
        raise ValueError(f"position i={i} out of range 1..{n - 1}")
    d = T.d
    left = np.eye(d ** (i - 1), dtype=np.complex128)
    right = np.eye(d ** (n - i - 1), dtype=np.complex128)
    return TensorOperator(d, n, np.kron(np.kron(left, T.mat), right))


def apply_slots(op: np.ndarray, d: int, i: int, X: np.ndarray, left: bool = False) -> np.ndarray:
    """X (1 (x) op (x) 1), or (1 (x) op (x) 1) X with ``left=True``, where
    the square ``op`` acts on the consecutive slots of H^(x)level starting at
    slot i (1-based) and the level is read off X.

    X is viewed as a stack of (slots acted on) x (trailing slots) blocks, and
    op is applied to every block with one matmul.
    """
    k = op.shape[0]
    dim = X.shape[0] if left else X.shape[1]
    if i < 1 or dim % (d ** (i - 1) * k):
        raise ValueError(f"a {k}x{k} operator at slot {i} does not fit dimension {dim}")
    if left:
        return (op @ X.reshape(d ** (i - 1), k, -1)).reshape(X.shape)
    return (op.T @ X.reshape(X.shape[0] * d ** (i - 1), k, -1)).reshape(X.shape)


def word_product(T: TensorOperator, word, level: int) -> TensorOperator:
    """T_{w_1} T_{w_2} ... T_{w_k} on H^(x)level, multiplied left to right
    starting from the identity (the identity for the empty word)."""
    _require_level2(T)
    acc = np.eye(T.d**level, dtype=np.complex128)
    for i in word:
        acc = apply_slots(T.mat, T.d, i, acc)
    return TensorOperator(T.d, level, acc)


def braid_residual(T: TensorOperator) -> float:
    """|| T_1 T_2 T_1 - T_2 T_1 T_2 ||_2 on H^(x)3."""
    return op_norm(word_product(T, (1, 2, 1), 3).mat - word_product(T, (2, 1, 2), 3).mat)


def is_braided(T: TensorOperator, tol: float = BRAID_TOL) -> bool:
    return braid_residual(T) <= tol


def build_R(T: TensorOperator, n: int) -> TensorOperator:
    """R_n = 1 + T_1 + T_1 T_2 + ... + T_1 ... T_{n-1}; R_0 = R_1 = 1."""
    _require_level2(T)
    if n < 0:
        raise ValueError(f"level n must be >= 0, got {n}")
    d = T.d
    total = term = np.eye(d**n, dtype=np.complex128)
    for i in range(1, n):
        term = apply_slots(T.mat, d, i, term)
        total = total + term
    return TensorOperator(d, n, total)


def build_Rtilde(T: TensorOperator, k: int, n: int) -> TensorOperator:
    """Rt_k = 1 + T_{k-1} + T_{k-2}T_{k-1} + ... + T_1 T_2 ... T_{k-1},
    with the T_i amplified into level n (2 <= k <= n)."""
    _require_level2(T)
    if not 2 <= k <= n:
        raise ValueError(f"position k={k} out of range 2..{n}")
    d = T.d
    total = term = np.eye(d**n, dtype=np.complex128)
    for j in range(k - 1, 0, -1):
        term = apply_slots(T.mat, d, j, term, left=True)
        total = total + term
    return TensorOperator(d, n, total)


def build_P(T: TensorOperator, n: int) -> TensorOperator:
    """P_n via the recursion P_2 = R_2, P_{n+1} = (1 (x) P_n) R_{n+1}.

    P_0 = P_1 = 1 by convention.  For braided self-adjoint T the result is
    self-adjoint up to accumulation noise (asserted by the test suite, not
    enforced here, so non-braided inputs can still be explored).
    """
    _require_level2(T)
    if n < 0:
        raise ValueError(f"level n must be >= 0, got {n}")
    d = T.d
    if n < 2:
        return TensorOperator(d, n, np.eye(d**n, dtype=np.complex128))
    P = np.eye(d, dtype=np.complex128)
    for m in range(2, n + 1):
        P = apply_slots(P, d, 2, build_R(T, m).mat, left=True)
    return TensorOperator(d, n, P)


def build_PDm(T: TensorOperator, n: int, m: int) -> TensorOperator:
    """P(D_m) = Rt_{n+m} Rt_{n+m-1} ... Rt_{m+1} on H^(x)(n+m).

    Satisfies P_{n+m} = P(D_m) (P_m (x) 1_n) for braided T; see
    :func:`factorization_check`.
    """
    _require_level2(T)
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got n={n}, m={m}")
    d = T.d
    level = n + m
    acc = np.eye(d**level, dtype=np.complex128)
    for k in range(level, m, -1):
        acc = acc @ build_Rtilde(T, k, level).mat
    return TensorOperator(d, level, acc)


def _longest_word(n: int) -> tuple[int, ...]:
    """The word (1 ... n)(1 ... n-1) ... (1 2)(1) of U_n (empty for n = 0)."""
    return tuple(i for m in range(n, 0, -1) for i in range(1, m + 1))


def build_U(T: TensorOperator, n: int) -> TensorOperator:
    """U_n = (T_1 ... T_n)(T_1 ... T_{n-1}) ... (T_1 T_2) T_1 on H^(x)(n+1).

    Self-adjoint for braided self-adjoint T (image of the longest group
    element under the quasimultiplicative map).
    """
    _require_level2(T)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return word_product(T, _longest_word(n), n + 1)


def factorization_check(T: TensorOperator, n: int, m: int) -> dict:
    """Residual || P_{n+m} - P(D_m) (P_m (x) 1_n) ||_2, both sides built
    independently (recursion vs. the Rt product).

    Non-braided input is not rejected; the report flags the residual as
    unreliable instead.
    """
    _require_level2(T)
    br = braid_residual(T)
    lhs = build_P(T, n + m).mat
    rhs = apply_slots(build_P(T, m).mat, T.d, 1, build_PDm(T, n, m).mat)
    return {
        "braid_residual": br,
        "braided": br <= BRAID_TOL,
        "kind": "P(Dm)(Pm x 1)",
        "params": {"n": n, "m": m},
        "residual": op_norm(lhs - rhs),
    }


def telescoping_residual(T: TensorOperator, n: int) -> float:
    """Residual of the telescoping expansion of 1 - U_n^2 on H^(x)(n+1):

    (1 - T_1^2) + T_1 (1 - T_2^2) T_1 + ... +
    T_1...T_{n-1} (1 - T_n^2) T_{n-1}...T_1 +
    T_1...T_n (1 - U_{n-1}^2) T_n...T_1.
    """
    _require_level2(T)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = T.d
    level = n + 1
    eye = np.eye(d**level, dtype=np.complex128)

    def sandwich(m: int, inner: np.ndarray) -> np.ndarray:
        """T_1 ... T_m inner T_m ... T_1."""
        for i in range(m, 0, -1):
            inner = apply_slots(T.mat, d, i, apply_slots(T.mat, d, i, inner), left=True)
        return inner

    Un = word_product(T, _longest_word(n), level).mat
    lhs = eye - Un @ Un
    rhs = np.zeros_like(eye)
    for k in range(1, n + 1):
        rhs = rhs + sandwich(k - 1, eye - word_product(T, (k, k), level).mat)
    Um1 = word_product(T, _longest_word(n - 1), level).mat
    rhs = rhs + sandwich(n, eye - Um1 @ Um1)
    return op_norm(lhs - rhs)
