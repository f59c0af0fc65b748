"""Batch front-end: load a spec, run named verification suites, emit a
machine-readable report.  Each command is one plan, a list of suites with
the deepest level and walk each takes: the guards read it before any
operator exists, and the run calls its suites in order.

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
from .model import load_spec_file

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
                checks.add("pn_spectrum", {"n": n, "method": "coxeter"}, "inapplicable", reason=str(exc))
    if method in ("recursive", "both"):
        ops = {"recursive": alg.P(n), **ops}
    norms = {}
    for name, op in ops.items():
        evals = (alg.eigenvalues(n) if name == "recursive"
                 else [spectral.symmetric_eigenvalues(m) for m in op.mats])
        walk = {"walk": alg.layout(n).record} if name == "coxeter" else {}
        low, high = min(float(e[0]) for e in evals), max(float(e[-1]) for e in evals)
        norms[name] = max(abs(low), abs(high))  # both sums are self-adjoint
        checks.add("pn_spectrum", {"n": n, "method": name}, "info", min_eig=low, max_eig=high,
                   norm=norms[name], **walk)
    if len(ops) == 2:
        residual = tensorops.op_norm(ops["recursive"] - ops["coxeter"])
        # relative once ||P_n|| > 1, as inner's bound: [n]_q! outgrows any absolute tolerance
        checks.add_residual("pn_method_agreement", {"n": n}, residual, tol * max(1.0, norms["recursive"]))


def _suite_kernel_theorem(alg: Algebra, checks: _Checks, n_max: int, rank_tol: float, tol: float) -> None:
    for level in range(2, n_max + 1):
        rep = spectral.kernel_theorem_check(alg, level - 1, rank_tol=rank_tol, tol=tol)
        checks.add_report("kernel_theorem", {"level": level}, rep, tolerance=tol)


def _suite_positivity(alg: Algebra, checks: _Checks, n_max: int, rank_tol: float, tol: float) -> None:
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


def _suite_rank(alg: Algebra, checks: _Checks, n: int, rank_tol: float, tol: float) -> None:
    """full's reports of one Coxeter rank n: the Coxeter suite, the U_n laws,
    the telescoping identity and ker(1 - U_n^2) on the diagonal."""
    _suite_coxeter(alg, checks, n, tol)
    rep = spectral.un_checks(alg, n, rank_tol=rank_tol, tol=tol)
    checks.add_report("un_laws", {"n": n}, rep, tolerance=tol)
    checks.add_residual("telescoping", {"n": n}, spectral.telescoping_residual(alg, n), tol)
    checks.add_report("kernel_1mU2", {"n": n}, spectral.kernel_1mU2_diag(alg, n, rank_tol=rank_tol, tol=tol))


def _suite_wick_ideal(alg: Algebra, checks: _Checks, n: int, rank_tol: float, tol: float) -> None:
    rep = spectral.wick_ideal_checks(alg, n, rank_tol=rank_tol, tol=tol)
    checks.add_report("wick_ideal", {"n": n}, rep, tolerance=tol)


def _suite_fock(alg: Algebra, checks: _Checks, N: int, seed: int, tol: float) -> None:
    rep = fock.relation_check(alg, N, seed=seed, tol=tol)
    checks.add_report("fock_relations", {"max_degree": rep["max_degree"], "seed": seed}, rep, tolerance=tol)


def _suite_rewrite_cross(alg: Algebra, checks: _Checks, max_degree: int, tol: float) -> None:
    """|f(u* w) - <u, w>_0| over the pairs of creation words u, w of degree
    n <= ``max_degree`` that lie in one block of P_n, where <u, w>_0 is the
    block's entry [u, w].  Every other pair is 0 on both sides: f refuses
    two degrees at once, and for a weight-preserving T each rewrite step
    keeps the letter content of the plain letters minus the starred ones (a
    nonzero T_ij^kl has {i, l} = {j, k}), so a pair of two weight spaces
    never reaches the empty word."""
    worst = 0.0
    for n in range(max_degree + 1):
        P, letters = alg.P(n), list(itertools.product(range(alg.spec.d), repeat=n))
        for block, m in zip(P.words, P.mats):
            words = [tuple((i, False) for i in letters[w]) for w in block.tolist()]
            for u, row in zip(words, m):
                u_star = rewrite.star(u)
                for w, entry in zip(words, row):
                    worst = max(worst, abs(alg.f(u_star + w) - complex(entry)))
    checks.add_residual("rewrite_fock_agreement", {"max_degree": max_degree}, worst, tol)


def _suite_inner(alg: Algebra, checks: _Checks, x: str, X, y: str, Y, N: int, tol: float) -> None:
    """<X, Y>_0 as f(X* Y) and through the Fock space truncated at degree N."""
    via_f = rewrite.inner_via_f(alg, X, Y)
    via_fock = fock.fock_inner(alg, *(rewrite.creation_vector(Z, alg.spec.d, N) for Z in (X, Y)))
    # refused, not failed: the moduli below would be inf or NaN, or abs() would raise
    if not all(math.isfinite(math.hypot(v.real, v.imag)) for v in (via_f, via_fock, via_f - via_fock)):
        raise ValueError(
            f"<X, Y>_0 leaves the float range: {via_f} through f, {via_fock} through the Fock space; "
            "scale the coefficients down"
        )
    bound = tol * max(1.0, abs(via_fock))  # relative once |<X, Y>_0| > 1
    checks.add("inner_product", {"x": x, "y": y}, "pass" if abs(via_f - via_fock) <= bound else "fail",
               via_functional={"re": via_f.real, "im": via_f.imag},
               via_fock={"re": via_fock.real, "im": via_fock.imag},
               difference=abs(via_f - via_fock), tolerance=bound)


def _plan(args: argparse.Namespace, d: int) -> list[tuple]:
    """The command's suites in run order, as (suite, level, walk, *arguments):
    the deepest level the suite builds (2 wherever it reads T, 3 wherever it
    reads the braid residual), the rank of the walk of S_{n+1} it takes or
    None, and its arguments after the algebra and the checks.  ``full`` is
    the other commands' suites, then its capped per-rank reports, Wick-ideal
    checks (the chain T_1 ... T_n at level n+1), Fock relations and rewrite
    cross-check."""
    tol, rank_tol = args.tol, args.rank_tol
    if args.command == "inner":
        X, Y = rewrite.parse_word_expr(args.x, d), rewrite.parse_word_expr(args.y, d)
        N = max([len(w) for w in X] + [len(w) for w in Y] + [2])
        return [(_suite_inner, N, None, args.x, X, args.y, Y, N, tol)]
    if args.command == "coxeter":
        return [(_suite_coxeter, max(args.n + 1, 3), args.n, args.n, tol)]
    if args.command == "pn":
        level = max(args.n, 2 if args.method == "recursive" else 3)  # P_0 and P_1 read T
        return [(_suite_pn, level, None, args.n, args.method, tol)]
    plan = [(_suite_check, 3, None, tol)]
    if args.command == "check":
        return plan
    n_max = args.n_max
    kernel_theorem = (_suite_kernel_theorem, max(n_max, 3), None, n_max, rank_tol, tol)
    positivity = (_suite_positivity, max(n_max, 3), None, n_max, rank_tol, tol)
    if args.command != "full":
        return [kernel_theorem if args.command == "kernel-theorem" else positivity]
    N = min(n_max, fock.default_max_degree(d))
    return (plan + [(_suite_pn, max(n, 3), None, n, "both", tol) for n in range(2, n_max + 1)]
            + [kernel_theorem, positivity]
            + [(_suite_rank, max(n + 1, 3), n, n, rank_tol, tol)
               for n in range(1, min(n_max - 1, MAX_FULL_COXETER_RANK) + 1)]
            + [(_suite_wick_ideal, k + 1, None, k, rank_tol, tol)
               for k in range(2, min(n_max, MAX_FULL_WICK_LEVEL) + 1)]
            + [(_suite_fock, N, None, N, args.seed, tol),
               (_suite_rewrite_cross, min(3, N), None, min(3, N), tol)])


def build_report(args: argparse.Namespace) -> tuple[dict, int]:
    """Run the requested command; return (report, exit_code).  The guards
    read the command's plan (:func:`_plan`) before any operator exists: the
    level guard its deepest level, the walk guard its deepest walk; the
    largest block of that level sets the BLAS threads, and the suites run in
    the plan's order."""
    if args.n_max is not None and args.n_max < 2:
        raise ValueError(f"--n-max must be >= 2, the first level with a check; got {args.n_max}")
    if args.command == "pn" and args.n < 0:
        raise ValueError(f"--n must be >= 0, the level of P_n; got {args.n}")
    # a non-finite or non-positive threshold would let a check pass vacuously
    if not 0.0 < args.tol < math.inf:
        raise ValueError(f"--tol must be positive and finite; got {args.tol}")
    if not 0.0 < args.rank_tol < 1.0:
        raise ValueError(f"--rank-tol must lie in (0, 1); got {args.rank_tol}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0; got {args.seed}")
    spec = load_spec_file(args.spec)
    plan = _plan(args, spec.d)
    alg = Algebra(spec)  # decides the layout from the coefficients; T is built on first use
    top = max(entry[1] for entry in plan)
    alg.check_level(top)  # the largest block, or the dense matrix when T is not weight-preserving
    walks = [entry[2] for entry in plan if entry[2] is not None]
    if walks:
        coxeter.check_walk(spec.d, max(walks), alg.weight)
    checks = _Checks()
    with _blas_threads(tensorops.largest_block(spec.d, top, alg.weight)):
        for suite, _, _, *arguments in plan:
            suite(alg, checks, *arguments)

    report = {
        "tool": {"name": "wickfock", "version": __version__},
        "command": args.command,
        "spec": {"d": spec.d, "source": dict(spec.source)},
        "parameters": {"tol": args.tol, "rank_tol": args.rank_tol, "seed": args.seed},
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
