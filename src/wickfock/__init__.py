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

__all__ = [
    "__version__",
    "SpecError",
    "WickSpec",
    "build_T",
    "load_spec",
    "load_spec_file",
    "preset",
    "to_document",
    "to_json",
]


def __getattr__(name: str):
    """The ``model`` names of ``__all__``, imported on first use, so that
    importing the package loads no numpy (and starts no OpenBLAS)."""
    if name in __all__:
        from . import model

        return getattr(model, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
