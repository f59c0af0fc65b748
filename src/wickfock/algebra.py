"""The algebra of one run, which the certification reports in
:mod:`spectral`, :mod:`fock` and :func:`coxeter.coxeter_checks` take; the
primitives in :mod:`tensorops` and :mod:`coxeter` take its ``T``, and the
rewrite engine its ``spec``."""

from __future__ import annotations

from . import coxeter
from .model import TensorOperator, WickSpec, build_T
from .spectral import Subspace, kernel
from .tensorops import build_P, build_R, build_U

__all__ = ["MAX_LEVEL_BYTES", "check_level", "Algebra"]

MAX_LEVEL_BYTES = 128 * 1024**2  # fixed guard on one dense d^L x d^L complex matrix


def check_level(d: int, level: int) -> None:
    """Refuse, before anything is allocated, a level whose dense complex
    matrix needs more than MAX_LEVEL_BYTES."""
    need = 16 * d ** (2 * min(level, 32))  # exact up to level 32, a lower bound beyond
    if need > MAX_LEVEL_BYTES:
        raise ValueError(
            f"one dense matrix at level {level}, d={d} needs {need} bytes or more, "
            f"over the {MAX_LEVEL_BYTES} byte guard"
        )


def _read_only(value: TensorOperator | Subspace | coxeter.Walk):
    if not isinstance(value, coxeter.Walk):  # a walk is built read-only
        (value.basis if isinstance(value, Subspace) else value.mat).flags.writeable = False
    return value


class Algebra:
    """A spec with its ``T``, and R_n, P_n, U_n, ker P_n, the walk of S_{n+1}
    (:func:`coxeter.descent_sums`) and the group sum P(S_{n+1}), each built
    read-only on first use, after the level guard (:func:`check_level`).  A
    second call returns the same object, so each rank is walked once.

    >>> from wickfock.model import preset
    >>> alg = Algebra(preset("q-ccr", 1, q=0.5))
    >>> alg.P(3).mat.real  # [3]_q! = 1 (1 + q) (1 + q + q^2)
    array([[2.625]])
    >>> alg.P(3) is alg.P(3), alg.P(3).mat.flags.writeable
    (True, False)
    """

    def __init__(self, spec: WickSpec) -> None:
        self.spec = spec
        self.T = _read_only(build_T(spec))
        self._memo: dict = {}

    def _get(self, key: tuple, level: int, build):
        if key not in self._memo:
            check_level(self.T.d, level)
            self._memo[key] = _read_only(build())
        return self._memo[key]

    def R(self, n: int) -> TensorOperator:
        return self._get(("R", n), n, lambda: build_R(self.T, n))

    def P(self, n: int) -> TensorOperator:
        return self._get(("P", n), n, lambda: build_P(self.T, n))

    def U(self, n: int) -> TensorOperator:
        return self._get(("U", n), n + 1, lambda: build_U(self.T, n))

    def ker_P(self, n: int, rank_tol: float) -> Subspace:
        return self._get(("ker_P", n, rank_tol), n, lambda: kernel(self.P(n), rank_tol))

    def descent_sums(self, n: int) -> coxeter.Walk:
        """The descent-set buckets of the walk of S_{n+1}, in the walk's own
        layout; :meth:`coxeter.Walk.sum` places the sums a caller reads."""
        return self._get(("walk", n), n + 1, lambda: coxeter.descent_sums(self.T, n))

    def group_sum(self, n: int) -> TensorOperator:
        """P(S_{n+1}), the sum of every bucket of the walk."""
        return self._get(("group_sum", n), n + 1,
                         lambda: TensorOperator(self.T.d, n + 1, self.descent_sums(n).sum()))
