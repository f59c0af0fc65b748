"""Operator machinery for Wick algebras with braided coefficients.

Builds the coefficient operator T and its amplifications, the row sums R_n,
the positivity operators P_n, the Coxeter-group sums behind them, and the
longest-element operator U_n; certifies numerically that the kernel of the
Fock inner product at each degree equals the sum of the kernels of 1 + T_k;
and cross-validates the operator-side inner product against the Fock
functional, evaluated on free words of the abstract algebra by the Wick
rewrite rule.
"""

__version__ = "0.1.0"

from .model import (
    SpecError,
    TensorOperator,
    WickSpec,
    build_T,
    load_spec,
    load_spec_file,
    preset,
    to_document,
    to_json,
)

__all__ = [
    "__version__",
    "SpecError",
    "TensorOperator",
    "WickSpec",
    "build_T",
    "load_spec",
    "load_spec_file",
    "preset",
    "to_document",
    "to_json",
]
