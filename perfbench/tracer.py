"""Traced pass: spans around calls into the public functions of each
wickfock module, recorded from outside the package.

Modules import functions by name (``from .tensorops import build_P``), so
each traced function is replaced in every ``wickfock.*`` namespace that
binds it, not only in the module that defines it.  A span's self time is its
duration minus the time covered by the spans it encloses.  Private helpers
(``_amp``, ``_norm2``, the CLI's ``_suite_*``) are not wrapped, so their cost
falls into the self time of the public function that calls them.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

MODULES = ("model", "tensorops", "coxeter", "spectral", "fock", "rewrite", "cli")

# Functions whose distinct-argument share is reported: a rebuild with the
# same arguments is wasted work.
DISTINCT = ("model.build_T", "tensorops.build_P", "coxeter.phi_table")

# Per-function metrics reported by the benchmark: the functions an
# optimisation is most likely to move.  Every public function is wrapped,
# so the module totals cover the unreported ones too.
REPORTED = (
    "model.build_T",
    "model.load_spec_file",
    "tensorops.build_R",
    "tensorops.build_P",
    "tensorops.build_PDm",
    "tensorops.build_U",
    "tensorops.chain",
    "tensorops.op_norm",
    "tensorops.braid_residual",
    "tensorops.factorization_check",
    "tensorops.telescoping_residual",
    "coxeter.phi",
    "coxeter.phi_table",
    "coxeter.enumerate_group",
    "coxeter.reduced_word",
    "coxeter.group_sum",
    "coxeter.partial_sum",
    "coxeter.euler_solomon_residual",
    "spectral.kernel",
    "spectral.nullspace_svd",
    "spectral.subspace_sum",
    "spectral.subspace_intersection",
    "spectral.kernel_theorem_check",
    "spectral.positivity_check",
    "spectral.un_checks",
    "spectral.wick_ideal_checks",
    "spectral.kernel_1mU2_diag",
    "fock.create",
    "fock.annihilate",
    "fock.fock_inner",
    "fock.relation_check",
    "rewrite.redex_position",
    "rewrite.rewrite_step",
    "rewrite.normal_order",
    "rewrite.inner_via_f",
    "rewrite.creation_vector",
    "cli.build_report",
    "cli.main",
)


def _arg_key(value):
    """Hashable value of an argument, so equal rebuilds count once."""
    mat = getattr(value, "mat", None)
    if mat is not None:  # TensorOperator
        return (value.d, value.level, mat.tobytes())
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:  # WickSpec
        return (value.d, tuple(sorted(coeffs.items())))
    return value


class Tracer:
    """Call counts, self times and distinct arguments per traced function."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.phi_table_max_bytes = 0
        self._stack: list[float] = []

    def _wrap(self, qualname: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[qualname] = 0
        self_s[qualname] = 0.0
        seen = self.distinct.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                self._note_arguments(qualname, seen, args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                covered = stack.pop()
                calls[qualname] += 1
                self_s[qualname] += span - covered
                if stack:
                    stack[-1] += span

        return traced

    def _note_arguments(self, qualname, seen, args, kwargs) -> None:
        seen.add(tuple(_arg_key(a) for a in args) + tuple(sorted(kwargs.items())))
        if qualname == "coxeter.phi_table":
            T, n = args[0], args[1]
            # computed size of the whole table: (n+1)! matrices of d^(n+1) squared complex128
            size = math.factorial(n + 1) * T.d ** (2 * (n + 1)) * 16
            self.phi_table_max_bytes = max(self.phi_table_max_bytes, size)

    def install(self) -> None:
        """Wrap every public function of the wickfock modules, in every
        wickfock namespace that binds it."""
        replacements = {}
        for short in MODULES:
            module = sys.modules[f"wickfock.{short}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name != "entry":
                    replacements[fn] = self._wrap(f"{short}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "wickfock" and not modname.startswith("wickfock."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(module, attr, replacements[value])

    def stats(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
            "phi_table_max_bytes": self.phi_table_max_bytes,
        }
