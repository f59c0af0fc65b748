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
import contextlib
import ctypes
import datetime
import functools
import glob
import itertools
import json
import math
import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it.  The CLI starts
# it on one thread (see ONE_BLAS_THREAD_BELOW) unless numpy is loaded already
# or the user chose a count; the variable is set for this import alone, so no
# child process inherits it.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _chooses_blas_start(modules, environ) -> bool:
    return "numpy" not in modules and not any(name in environ for name in BLAS_THREAD_VARIABLES)


OWN_BLAS_START = _chooses_blas_start(sys.modules, os.environ)
if OWN_BLAS_START:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if OWN_BLAS_START:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import __version__, coxeter, fock, rewrite, spectral, tensorops
from .algebra import Algebra
from .model import SpecError, load_spec_file

__all__ = ["main", "entry", "build_report"]

MAX_FULL_COXETER_RANK = 4
MAX_FULL_WICK_LEVEL = 4  # fixes which records `full` emits, which the benchmark's fingerprints pin

# A command whose largest block (tensorops.largest_block at its deepest
# level) holds fewer words than this runs on one OpenBLAS thread: a second
# thread stalls on products this small and pays from 243 words on.  A larger
# block runs on OpenBLAS's processor count when the one-thread start was the
# CLI's own (OWN_BLAS_START), else on the count found, never raised.  Measured
# on 2 vCPUs with numpy 2.4's bundled OpenBLAS 0.3.31, one thread against its
# default two:
#   eigh of one n x n block      n=126: 6.0 ms vs 8.8   n=243: 23.8 vs 19.0
#                                n=729: 582 ms vs 349
#   q-CCR, weight blocks         d=4 kernel-theorem --n-max 6 (180 words):
#                                  0.69-0.79 s vs 0.60-0.75, CPU 0.7-0.8 s vs 1.1-1.4
#                                d=3 full --n-max 7 (210 words): 2.55-3.36 s vs 2.89-4.32
#   rotated Hecke, one dense     d=2 pn --n 7 --method coxeter (128 words): 0.48 s vs 0.53
#   block per level              d=3 full --n-max 5 (243 words): 1.58 s vs 1.49
#                                d=3 kernel-theorem --n-max 6 (729 words): 2.45 s vs 1.79
ONE_BLAS_THREAD_BELOW = 243


@functools.cache
def _openblas_threads():
    """The thread-count getter and setter and the processor-count getter of
    the OpenBLAS that numpy's wheel bundles (scipy-openblas, under
    ``numpy.libs``), or None when numpy uses another BLAS or the symbols are
    missing."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(libs[0])
        get, put, procs = (lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_,
                           lib.scipy_openblas_get_num_procs64_)
    except (OSError, AttributeError):  # not loadable, or an OpenBLAS with other symbol names
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    procs.argtypes, procs.restype = [], ctypes.c_int
    return get, put, procs


@contextlib.contextmanager
def _blas_threads(words: int):
    """Run the body on the OpenBLAS thread count that pays for blocks of
    ``words`` words: one below ONE_BLAS_THREAD_BELOW; from there the
    processor count when the one-thread start was the CLI's own, else the
    count found.  The count found is restored however the body ends, and
    nothing changes when OpenBLAS is not found."""
    blas = _openblas_threads()
    before = blas[0]() if blas else 1
    count = 1 if words < ONE_BLAS_THREAD_BELOW else blas[2]() if blas and OWN_BLAS_START else before
    if count == before:
        yield
        return
    blas[1](count)
    try:
        yield
    finally:
        blas[1](before)


def _full_reports(n_max: int, d: int) -> tuple[range, range, int]:
    """The bounded reports of the full suite, all taken in the layout: the
    ranks n of the Coxeter and U_n reports, the levels n of the Wick-ideal
    checks (the chain T_1 ... T_n at level n+1) and the Fock truncation
    degree N (R_n and P_n up to N).  Memory no longer asks for the last two
    bounds; they stay because they fix which records the suite emits."""
    coxeter_ranks = range(1, min(n_max - 1, MAX_FULL_COXETER_RANK) + 1)
    wick_levels = range(2, min(n_max, MAX_FULL_WICK_LEVEL) + 1)
    return coxeter_ranks, wick_levels, min(n_max, fock.default_max_degree(d))


class _Checks:
    """Accumulates check records; overall passes iff nothing failed."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def add(self, name: str, params: dict, status: str, **fields) -> None:
        self.records.append({"name": name, "params": params, **fields, "status": status})

    def add_report(self, name: str, params: dict, report: dict, **fields) -> None:
        """A library report as a record: its fields in their order, without
        the level and status it carries, then ``fields``."""
        copied = {k: v for k, v in report.items() if k not in ("level", "max_degree", "status")}
        self.add(name, params, report["status"], **copied, **fields)

    def add_residual(self, name: str, params: dict, residual: float, tol: float, **fields) -> None:
        self.add(
            name,
            params,
            "pass" if residual <= tol else "fail",
            residual=float(residual),
            tolerance=tol,
            **fields,
        )

    @property
    def overall(self) -> str:
        return "fail" if any(r["status"] == "fail" for r in self.records) else "pass"


def _suite_check(alg: Algebra, checks: _Checks, tol: float) -> None:
    checks.add_residual("hermiticity", {}, tensorops.op_norm(alg.T - alg.T.adjoint()), 1e-12)
    checks.add("operator_norm", {}, "info", value=alg.norm_T)
    checks.add_residual("braid", {}, alg.braid_residual, tol)


def _suite_pn(alg: Algebra, checks: _Checks, n: int, method: str, tol: float) -> None:
    ops = {}
    if method in ("coxeter", "both"):  # first: the group sum's chain is never live beside P_n
        if n < 2:
            checks.add("pn_spectrum", {"n": n, "method": "coxeter"}, "inapplicable",
                       reason="group sum needs n >= 2")
        else:
            try:
                ops["coxeter"] = alg.group_sum(n - 1)
            except coxeter.BraidConditionError as exc:
                checks.add("pn_spectrum", {"n": n, "method": "coxeter"}, "inapplicable",
                           reason=str(exc))
    if method in ("recursive", "both"):
        ops = {"recursive": alg.P(n), **ops}
    for name, op in ops.items():
        evals = (alg.eigenvalues(n) if name == "recursive"
                 else [spectral.symmetric_eigenvalues(m) for m in op.mats])
        walk = {"walk": alg.layout(n).record} if name == "coxeter" else {}
        low, high = min(float(e[0]) for e in evals), max(float(e[-1]) for e in evals)
        checks.add("pn_spectrum", {"n": n, "method": name}, "info", min_eig=low, max_eig=high,
                   norm=max(abs(low), abs(high)), **walk)  # both sums are self-adjoint
    if len(ops) == 2:
        residual = tensorops.op_norm(ops["recursive"] - ops["coxeter"])
        checks.add_residual("pn_method_agreement", {"n": n}, residual, tol)


def _suite_kernel_theorem(
    alg: Algebra, checks: _Checks, n_max: int, rank_tol: float, tol: float
) -> None:
    for level in range(2, n_max + 1):
        rep = spectral.kernel_theorem_check(alg, level - 1, rank_tol=rank_tol, tol=tol)
        checks.add_report("kernel_theorem", {"level": level}, rep, tolerance=tol)


def _suite_positivity(
    alg: Algebra, checks: _Checks, n_max: int, rank_tol: float, tol: float
) -> None:
    for n in range(2, n_max + 1):
        rep = spectral.positivity_check(alg, n, rank_tol=rank_tol, tol=tol)
        checks.add_report("positivity", {"n": n}, rep)


def _suite_coxeter(alg: Algebra, checks: _Checks, n: int, tol: float) -> None:
    try:
        rep = coxeter.coxeter_checks(alg, n)
    except coxeter.BraidConditionError as exc:
        checks.add("coxeter_suite", {"n": n}, "inapplicable", reason=str(exc))
        return
    checks.add_residual("group_sum_agreement", {"n": n}, rep["group_sum"], tol,
                        walk=alg.layout(n + 1).record)
    for fact in rep["factorization"]:
        checks.add_residual(
            "factorization_DJ_WJ", {"n": n, "J": fact["J"]}, fact["residual"], tol
        )
    checks.add_residual("euler_solomon", {"n": n}, rep["euler_solomon"], tol)
    checks.add_residual("phi_longest_vs_U", {"n": n}, rep["longest_vs_U"], tol)


def _suite_rewrite_cross(alg: Algebra, checks: _Checks, max_degree: int, tol: float) -> None:
    """|f(u* w) - <u, w>_0| over every pair of creation words u, w of degree
    at most ``max_degree``: <u, w>_0 is the entry [u, w] of the block of P_n
    when both have degree n and lie in one block, else 0."""
    words = []  # per creation word: the free word, the block of P_n that holds it, its row there
    for n in range(max_degree + 1):
        P, letters = alg.P(n), list(itertools.product(range(alg.spec.d), repeat=n))
        for block, m in zip(P.words, P.mats):
            words += [(tuple((i, False) for i in letters[w]), m, row) for row, w in enumerate(block.tolist())]
    worst = 0.0
    for u, block, row in words:
        u_star = rewrite.star(u)
        for w, other, col in words:
            inner = complex(block[row, col]) if other is block else 0j
            worst = max(worst, abs(alg.f(u_star + w) - inner))
    checks.add_residual("rewrite_fock_agreement", {"max_degree": max_degree}, worst, tol)


def build_report(args: argparse.Namespace) -> tuple[dict, int]:
    """Run the requested command; return (report, exit_code)."""
    if args.n_max is not None and args.n_max < 2:
        raise ValueError(f"--n-max must be >= 2, the first level with a check; got {args.n_max}")
    # a non-finite or non-positive threshold would let a check pass vacuously
    if not 0.0 < args.tol < math.inf:
        raise ValueError(f"--tol must be positive and finite; got {args.tol}")
    if not 0.0 < args.rank_tol < 1.0:
        raise ValueError(f"--rank-tol must lie in (0, 1); got {args.rank_tol}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0; got {args.seed}")
    spec = load_spec_file(args.spec)
    walk = None  # the rank of the deepest walk of S_{n+1} the command takes
    if args.command == "inner":
        X = rewrite.parse_word_expr(args.x, spec.d)
        Y = rewrite.parse_word_expr(args.y, spec.d)
        top = max([len(w) for w in X] + [len(w) for w in Y] + [2])
    elif args.command == "coxeter":
        walk = args.n
        top = walk + 1
    else:  # check takes neither --n nor --n-max
        top = args.n if args.n is not None else args.n_max or 2
        if args.command == "full":  # its last Coxeter walk; the chain T_1 ... T_n of its deepest Wick-ideal check
            coxeter_ranks, wick_levels, _ = _full_reports(top, spec.d)
            walk, top = coxeter_ranks[-1], max(top, wick_levels[-1] + 1)
    if args.command != "inner" and getattr(args, "method", None) != "recursive":
        top = max(top, 3)  # the braid residual, taken at level 3
    alg = Algebra(spec)  # decides the layout from the coefficients; T is built on first use
    alg.check_level(top)  # the largest block, or the dense matrix when T is not weight-preserving
    if walk is not None:
        coxeter.check_walk(spec.d, walk, alg.weight)
    checks = _Checks()
    tol = args.tol
    rank_tol = args.rank_tol
    # the largest block of the deepest level decides whether a second BLAS thread pays
    with _blas_threads(tensorops.largest_block(spec.d, top, alg.weight)):
        if args.command == "check":
            _suite_check(alg, checks, tol)
        elif args.command == "pn":
            _suite_pn(alg, checks, args.n, args.method, tol)
        elif args.command == "kernel-theorem":
            _suite_kernel_theorem(alg, checks, args.n_max, rank_tol, tol)
        elif args.command == "positivity":
            _suite_positivity(alg, checks, args.n_max, rank_tol, tol)
        elif args.command == "coxeter":
            _suite_coxeter(alg, checks, args.n, tol)
        elif args.command == "inner":
            via_f = rewrite.inner_via_f(alg, X, Y)
            gx = rewrite.creation_vector(X, spec.d, top)
            gy = rewrite.creation_vector(Y, spec.d, top)
            via_fock = fock.fock_inner(alg, gx, gy)
            # refused, not failed: the moduli below would be inf or NaN, or abs() would raise
            if not all(math.isfinite(math.hypot(v.real, v.imag)) for v in (via_f, via_fock, via_f - via_fock)):
                raise ValueError(
                    f"<X, Y>_0 leaves the float range: {via_f} through f, {via_fock} through the Fock space; "
                    "scale the coefficients down"
                )
            bound = tol * max(1.0, abs(via_fock))  # relative once |<X, Y>_0| > 1
            checks.add(
                "inner_product",
                {"x": args.x, "y": args.y},
                "pass" if abs(via_f - via_fock) <= bound else "fail",
                via_functional={"re": via_f.real, "im": via_f.imag},
                via_fock={"re": via_fock.real, "im": via_fock.imag},
                difference=abs(via_f - via_fock),
                tolerance=bound,
            )
        elif args.command == "full":
            n_max = args.n_max
            coxeter_ranks, wick_levels, N = _full_reports(n_max, spec.d)
            _suite_check(alg, checks, tol)
            for n in range(2, n_max + 1):
                _suite_pn(alg, checks, n, "both", tol)
            _suite_kernel_theorem(alg, checks, n_max, rank_tol, tol)
            _suite_positivity(alg, checks, n_max, rank_tol, tol)
            for n in coxeter_ranks:
                _suite_coxeter(alg, checks, n, tol)
                rep = spectral.un_checks(alg, n, rank_tol=rank_tol, tol=tol)
                checks.add_report("un_laws", {"n": n}, rep, tolerance=tol)
                checks.add_residual("telescoping", {"n": n}, spectral.telescoping_residual(alg, n), tol)
                rep = spectral.kernel_1mU2_diag(alg, n, rank_tol=rank_tol, tol=tol)
                checks.add_report("kernel_1mU2", {"n": n}, rep)
            for n in wick_levels:
                rep = spectral.wick_ideal_checks(alg, n, rank_tol=rank_tol, tol=tol)
                checks.add_report("wick_ideal", {"n": n}, rep, tolerance=tol)
            rep = fock.relation_check(alg, max(N, 2), seed=args.seed, tol=tol)
            checks.add_report(
                "fock_relations", {"max_degree": rep["max_degree"], "seed": args.seed}, rep, tolerance=tol
            )
            _suite_rewrite_cross(alg, checks, min(3, N), tol)
        else:  # pragma: no cover - argparse restricts choices
            raise SpecError(f"unknown command {args.command}")

    report = {
        "tool": {"name": "wickfock", "version": __version__},
        "command": args.command,
        "spec": {"d": spec.d, "source": dict(spec.source)},
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
    parser.set_defaults(n=None, n_max=None)
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
        p.add_argument("--seed", type=int, default=42,
                       help="seed of the 50 adjointness samples of full's fock_relations, "
                            "drawn from random.Random(seed) by Box-Muller")
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
    try:
        report, code = build_report(args)
        body = json.dumps(report, indent=2, allow_nan=False) + "\n"  # NaN and Infinity are not JSON
    except ValueError as exc:  # SpecError and BraidConditionError included
        print(f"wickfock: input error: {exc}", file=sys.stderr)
        return 2

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
