"""Batch front-end: load a spec, run named verification suites, emit a
machine-readable report.

Usage:
    wickfock <check|pn|kernel-theorem|coxeter|positivity|inner|full>
             --spec FILE [--tol T] [--rank-tol T] [--n N | --n-max N]
             [--method M] [--x EXPR --y EXPR] [--seed S] [--out PATH]
             [--timestamps]

The report is JSON with stable key order, written to --out (default
stdout); a human summary goes to stderr.  Exit codes: 0 all applicable
checks pass, 1 at least one check failed, 2 input error.  Reports are
byte-identical across reruns on the same input unless --timestamps is on.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import sys

import numpy as np

from . import __version__, coxeter, fock, rewrite, spectral, tensorops
from .model import SpecError, WickSpec, build_T, load_spec_file

__all__ = ["main", "entry", "build_report"]

MAX_FULL_COXETER_RANK = 4


def _complex_field(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


class _Checks:
    """Accumulates check records; overall passes iff nothing failed."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def add(self, name: str, params: dict, status: str, **fields) -> None:
        record: dict = {"name": name, "params": params}
        record.update(fields)
        record["status"] = status
        self.records.append(record)

    def add_residual(self, name: str, params: dict, residual: float, tol: float) -> None:
        self.add(
            name,
            params,
            "pass" if residual <= tol else "fail",
            residual=float(residual),
            tolerance=tol,
        )

    @property
    def overall(self) -> str:
        return "fail" if any(r["status"] == "fail" for r in self.records) else "pass"


def _spec_block(spec: WickSpec) -> dict:
    return {"d": spec.d, "source": dict(spec.source)}


def _suite_check(spec: WickSpec, checks: _Checks, tol: float) -> None:
    T = build_T(spec)
    herm = float(np.linalg.norm(T.mat - T.mat.conj().T, 2))
    checks.add_residual("hermiticity", {}, herm, 1e-12)
    checks.add("operator_norm", {}, "info", value=tensorops.op_norm(T))
    checks.add_residual("braid", {}, tensorops.braid_residual(T), tol)


def _pn_spectrum(mat: np.ndarray) -> dict:
    sym = (mat + mat.conj().T) / 2.0
    evals = np.linalg.eigvalsh(sym)
    return {
        "min_eig": float(evals[0]),
        "max_eig": float(evals[-1]),
        "norm": tensorops.op_norm(mat),
    }


def _suite_pn(spec: WickSpec, checks: _Checks, n: int, method: str, tol: float) -> None:
    T = build_T(spec)
    mats = {}
    if method in ("recursive", "both"):
        mats["recursive"] = tensorops.build_P(T, n).mat
    if method in ("coxeter", "both"):
        if n < 2:
            checks.add("pn_spectrum", {"n": n, "method": "coxeter"}, "inapplicable",
                       reason="group sum needs n >= 2")
        else:
            try:
                mats["coxeter"] = coxeter.group_sum(T, n - 1).mat
            except coxeter.BraidConditionError as exc:
                checks.add("pn_spectrum", {"n": n, "method": "coxeter"}, "inapplicable",
                           reason=str(exc))
    for name, mat in mats.items():
        checks.add("pn_spectrum", {"n": n, "method": name}, "info", **_pn_spectrum(mat))
    if len(mats) == 2:
        residual = tensorops.op_norm(mats["recursive"] - mats["coxeter"])
        checks.add_residual("pn_method_agreement", {"n": n}, residual, tol)


def _suite_kernel_theorem(
    spec: WickSpec, checks: _Checks, n_max: int, rank_tol: float, tol: float
) -> None:
    for level in range(2, n_max + 1):
        rep = spectral.kernel_theorem_check(spec, level - 1, rank_tol=rank_tol, tol=tol)
        checks.add(
            "kernel_theorem",
            {"level": level},
            rep["status"],
            dim_ker_P=rep["dim_ker_P"],
            dim_sum=rep["dim_sum"],
            distance=rep["distance"],
            inclusion_margin=rep["inclusion_margin"],
            hypotheses=rep["hypotheses"],
            tolerance=tol,
        )


def _suite_positivity(
    spec: WickSpec, checks: _Checks, n_max: int, rank_tol: float, tol: float
) -> None:
    T = build_T(spec)
    braided = tensorops.braid_residual(T) <= tol
    norm_ok = tensorops.op_norm(T) <= 1.0 + 1e-10
    min_eig_T = float(np.linalg.eigvalsh((T.mat + T.mat.conj().T) / 2.0)[0])
    strict_regime = min_eig_T > -1.0 + rank_tol
    for n in range(2, n_max + 1):
        rep = spectral.positivity_check(spec, n, rank_tol=rank_tol)
        if not (braided and norm_ok):
            status = "inapplicable"
        elif strict_regime:
            status = "pass" if rep["classification"] == "strictly positive" else "fail"
        else:
            status = "pass" if rep["min_eig"] >= -rank_tol else "fail"
        checks.add(
            "positivity",
            {"n": n},
            status,
            min_eig=rep["min_eig"],
            classification=rep["classification"],
            dim_ker_P=rep["dim_ker_P"],
        )


def _suite_coxeter(spec: WickSpec, checks: _Checks, n: int, tol: float) -> None:
    T = build_T(spec)
    try:
        coxeter._gate_braid(T, force=False)
    except coxeter.BraidConditionError as exc:
        checks.add("coxeter_suite", {"n": n}, "inapplicable", reason=str(exc))
        return
    residual = tensorops.op_norm(coxeter.group_sum(T, n) - tensorops.build_P(T, n + 1))
    checks.add_residual("group_sum_agreement", {"n": n}, residual, tol)
    for mask in range(2**n):
        J = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        rep = tensorops.factorization_check(T, n, J=J)
        checks.add_residual(
            "factorization_DJ_WJ", {"n": n, "J": sorted(J)}, rep["residual"], tol
        )
    checks.add_residual(
        "euler_solomon", {"n": n}, coxeter.euler_solomon_residual(T, n), tol
    )
    el = coxeter.CoxeterElement(
        perm=coxeter.longest_element(n),
        length=n * (n + 1) // 2,
        word=coxeter.reduced_word(coxeter.longest_element(n)),
    )
    residual = tensorops.op_norm(coxeter.phi(T, el, n) - tensorops.build_U(T, n))
    checks.add_residual("phi_longest_vs_U", {"n": n}, residual, tol)


def _suite_un(spec: WickSpec, checks: _Checks, n: int, rank_tol: float, tol: float) -> None:
    rep = spectral.un_checks(spec, n, rank_tol=rank_tol, tol=tol)
    checks.add(
        "un_laws",
        {"n": n},
        rep["status"],
        invariance_residual=rep["invariance_residual"],
        commutation_residual=rep["commutation_residual"],
        tolerance=tol,
    )
    T = build_T(spec)
    checks.add_residual("telescoping", {"n": n}, tensorops.telescoping_residual(T, n), tol)


def _suite_inner(
    spec: WickSpec, checks: _Checks, x_text: str, y_text: str, tol: float
) -> None:
    X = rewrite.parse_word_expr(x_text, spec.d)
    Y = rewrite.parse_word_expr(y_text, spec.d)
    via_f = rewrite.inner_via_f(spec, X, Y)
    N = max(
        [len(w) for w in X] + [len(w) for w in Y] + [2]
    )
    gx = rewrite.creation_vector(X, spec.d, N)
    gy = rewrite.creation_vector(Y, spec.d, N)
    via_fock = fock.fock_inner(spec, gx, gy)
    checks.add(
        "inner_product",
        {"x": x_text, "y": y_text},
        "pass" if abs(via_f - via_fock) <= tol else "fail",
        via_functional=_complex_field(via_f),
        via_fock=_complex_field(via_fock),
        difference=abs(via_f - via_fock),
        tolerance=tol,
    )


def _suite_rewrite_cross(spec: WickSpec, checks: _Checks, max_degree: int, tol: float) -> None:
    d = spec.d
    N = max(max_degree, 2)
    words = [
        tuple((i, False) for i in w)
        for deg in range(max_degree + 1)
        for w in itertools.product(range(d), repeat=deg)
    ]
    worst = 0.0
    for wx in words:
        X = {wx: 1.0 + 0j}
        gx = rewrite.creation_vector(X, d, N)
        for wy in words:
            Y = {wy: 1.0 + 0j}
            gy = rewrite.creation_vector(Y, d, N)
            diff = abs(rewrite.inner_via_f(spec, X, Y) - fock.fock_inner(spec, gx, gy))
            worst = max(worst, diff)
    checks.add_residual("rewrite_fock_agreement", {"max_degree": max_degree}, worst, tol)


def _suite_wick_ideal(spec: WickSpec, checks: _Checks, n: int, rank_tol: float, tol: float) -> None:
    rep = spectral.wick_ideal_checks(spec, n, rank_tol=rank_tol, tol=tol)
    checks.add(
        "wick_ideal",
        {"n": n},
        rep["status"],
        dim_ker_P=rep["dim_ker_P"],
        dim_ker_R=rep["dim_ker_R"],
        annihilation_residual=rep["annihilation_residual"],
        coaction_residual=rep["coaction_residual"],
        intertwining_residual=rep["intertwining_residual"],
        kerR_inclusion_margin=rep["kerR_inclusion_margin"],
        tolerance=tol,
    )


def build_report(args: argparse.Namespace) -> tuple[dict, int]:
    """Run the requested command; return (report, exit_code)."""
    spec = load_spec_file(args.spec)
    checks = _Checks()
    tol = args.tol
    rank_tol = args.rank_tol

    if args.command == "check":
        _suite_check(spec, checks, tol)
    elif args.command == "pn":
        _suite_pn(spec, checks, args.n, args.method, tol)
    elif args.command == "kernel-theorem":
        _suite_kernel_theorem(spec, checks, args.n_max, rank_tol, tol)
    elif args.command == "positivity":
        _suite_positivity(spec, checks, args.n_max, rank_tol, tol)
    elif args.command == "coxeter":
        _suite_coxeter(spec, checks, args.n, tol)
    elif args.command == "inner":
        _suite_inner(spec, checks, args.x, args.y, tol)
    elif args.command == "full":
        n_max = args.n_max
        _suite_check(spec, checks, tol)
        for n in range(2, n_max + 1):
            _suite_pn(spec, checks, n, "both", tol)
        _suite_kernel_theorem(spec, checks, n_max, rank_tol, tol)
        _suite_positivity(spec, checks, n_max, rank_tol, tol)
        for n in range(1, min(n_max - 1, MAX_FULL_COXETER_RANK) + 1):
            _suite_coxeter(spec, checks, n, tol)
            _suite_un(spec, checks, n, rank_tol, tol)
            spectral_rep = spectral.kernel_1mU2_diag(spec, n, rank_tol=rank_tol, tol=tol)
            checks.add(
                "kernel_1mU2",
                {"n": n},
                spectral_rep["status"],
                dim_ker_1mU2=spectral_rep["dim_ker_1mU2"],
                dim_intersection=spectral_rep["dim_intersection"],
                involution_residual=spectral_rep["involution_residual"],
            )
        for n in range(2, min(n_max, 4) + 1):
            _suite_wick_ideal(spec, checks, n, rank_tol, tol)
        N = min(n_max, fock.default_max_degree(spec.d))
        rep = fock.relation_check(spec, max(N, 2), seed=args.seed, tol=tol)
        checks.add(
            "fock_relations",
            {"max_degree": rep["max_degree"], "seed": args.seed},
            rep["status"],
            relation_residual=rep["relation_residual"],
            adjointness_residual=rep["adjointness_residual"],
            tolerance=tol,
        )
        _suite_rewrite_cross(spec, checks, min(3, N), tol)
    else:  # pragma: no cover - argparse restricts choices
        raise SpecError(f"unknown command {args.command}")

    report = {
        "tool": {"name": "wickfock", "version": __version__},
        "command": args.command,
        "spec": _spec_block(spec),
        "parameters": {
            "tol": tol,
            "rank_tol": rank_tol,
            "seed": args.seed,
        },
        "checks": checks.records,
        "overall": checks.overall,
    }
    if args.n is not None:
        report["parameters"]["n"] = args.n
    if args.n_max is not None:
        report["parameters"]["n_max"] = args.n_max
    if args.timestamps:
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return report, 0 if checks.overall == "pass" else 1


def _summarize(report: dict, stream) -> None:
    for record in report["checks"]:
        bits = [f"[{record['status'].upper():>12}]", record["name"]]
        params = record.get("params") or {}
        if params:
            bits.append(json.dumps(params, sort_keys=True))
        for key in ("residual", "distance", "value", "min_eig", "difference"):
            if key in record:
                bits.append(f"{key}={record[key]:.3e}")
                break
        print(" ".join(bits), file=stream)
    print(f"overall: {report['overall']}", file=stream)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wickfock",
        description="verification suites for Wick algebras with braided coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "check": "hermiticity, operator norm, braid residual",
        "pn": "spectrum of P_n by the recursive and/or Coxeter method",
        "kernel-theorem": "kernel equality ker P_{n+1} = sum_k ker(1+T_k) per level",
        "coxeter": "group sums, descent factorizations, Euler-Solomon identity",
        "positivity": "minimum eigenvalue and kernel dimension of P_n",
        "inner": "inner product of two creation-word expressions, both routes",
        "full": "every suite",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", required=True, help="path to the JSON spec file")
        p.add_argument("--tol", type=float, default=1e-8, help="residual tolerance")
        p.add_argument("--rank-tol", type=float, default=1e-8, dest="rank_tol",
                       help="relative rank threshold for kernels")
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--seed", type=int, default=42, help="seed for randomized suites")
        p.add_argument("--timestamps", action="store_true", help="include a timestamp")
        if name == "pn":
            p.add_argument("--n", type=int, required=True, help="tensor level")
            p.add_argument("--method", choices=["recursive", "coxeter", "both"],
                           default="both")
        elif name == "coxeter":
            p.add_argument("--n", type=int, required=True,
                           help="Coxeter rank (group S_{n+1})")
        elif name in ("kernel-theorem", "positivity", "full"):
            p.add_argument("--n-max", type=int, default=4, dest="n_max",
                           help="largest tensor level")
        elif name == "inner":
            p.add_argument("--x", required=True, help="left word expression")
            p.add_argument("--y", required=True, help="right word expression")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not hasattr(args, "n"):
        args.n = None
    if not hasattr(args, "n_max"):
        args.n_max = None
    try:
        report, code = build_report(args)
    except ValueError as exc:  # SpecError and BraidConditionError included
        print(f"wickfock: input error: {exc}", file=sys.stderr)
        return 2

    body = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    _summarize(report, sys.stderr)
    return code


def entry() -> None:  # pragma: no cover - console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
