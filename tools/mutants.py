"""Mutant runner for the status logic and for what the Algebra keeps: each
mutant is a one-line textual change to a condition that sets a check's
status, to where the Algebra decides a hypothesis and how a record reads
it, to the rule that drops an operator after its last reader, to
the level a command's plan states, or to the subset sums that give every
P(D_J), and the test suite must fail on every one of them.

Usage, from the repository root (a few minutes; a mutant that survives
costs one run of the whole suite):

    python3 tools/mutants.py

The tree (src/, tests/, perfbench/, specs/ and the project files) is copied
to a temporary directory once, tests included, because some tests start the
CLI from the src/ next to them; each mutant is applied to the copy's source,
``python -m pytest -x -q`` runs there with the copy's src/ on PYTHONPATH,
and the file is restored before the next one.  The working tree is never
edited.  Prints each mutant's outcome and the survivors, and exits 1 when
any mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/wickfock, text, replacement): each text occurs once
MUTANTS = [
    ("kernel-theorem-inclusion-margin", "spectral.py",
     "ok = ker_P.dim == dim_sum and distance <= tol and margin <= tol",
     "ok = ker_P.dim == dim_sum and distance <= tol"),
    ("kernel-theorem-distance", "spectral.py",
     "ok = ker_P.dim == dim_sum and distance <= tol and margin <= tol",
     "ok = ker_P.dim == dim_sum and margin <= tol"),
    ("wick-ideal-kerR-margin", "spectral.py",
     "ok = max(annihilation, coaction, intertwining, kerR_margin) <= tol",
     "ok = max(annihilation, coaction, intertwining) <= tol"),
    ("wick-ideal-annihilation", "spectral.py",
     "ok = max(annihilation, coaction, intertwining, kerR_margin) <= tol",
     "ok = max(coaction, intertwining, kerR_margin) <= tol"),
    ("wick-ideal-coaction", "spectral.py",
     "ok = max(annihilation, coaction, intertwining, kerR_margin) <= tol",
     "ok = max(annihilation, intertwining, kerR_margin) <= tol"),
    ("wick-ideal-intertwining", "spectral.py",
     "ok = max(annihilation, coaction, intertwining, kerR_margin) <= tol",
     "ok = max(annihilation, coaction, kerR_margin) <= tol"),
    ("un-laws-commutation", "spectral.py",
     "verdict(invariance <= tol and commutation <= tol, alg.braided)",
     "verdict(invariance <= tol, alg.braided)"),
    ("un-laws-invariance", "spectral.py",
     "verdict(invariance <= tol and commutation <= tol, alg.braided)",
     "verdict(commutation <= tol, alg.braided)"),
    ("un-laws-ignore-applicability", "spectral.py",
     "verdict(invariance <= tol and commutation <= tol, alg.braided)",
     "verdict(invariance <= tol and commutation <= tol, True)"),
    ("kernel-1mU2-status", "spectral.py",
     '"status": verdict(residual <= tol, alg.hypotheses["applicable"]),',
     '"status": verdict(True, alg.hypotheses["applicable"]),'),
    ("positivity-strictness-threshold", "spectral.py",
     "strict = alg.min_eig_T > -1.0 + rank_tol",
     "strict = alg.min_eig_T > -1.0 - rank_tol"),
    ("positivity-strict-branch", "spectral.py",
     'classification == "strictly positive" if strict',
     "True if strict"),
    ("positivity-semidefinite-branch", "spectral.py",
     'else classification != "indefinite"',
     "else True"),
    ("fock-relation-residual", "fock.py",
     "ok = relation_residual <= tol and adjoint_residual <= tol",
     "ok = adjoint_residual <= tol"),
    ("norm-hypothesis", "algebra.py",
     "self.norm_T <= 1.0 + 1e-10",
     "self.norm_T <= 2.0"),
    ("braid-tolerance", "tensorops.py",
     "BRAID_TOL = 1e-8",
     "BRAID_TOL = 1e-2"),
    # the braid record judged apart from the Algebra's decision, at a --tol
    # of 1e-4, under which a braid residual of 1e-6 would pass
    ("braid-record-judged-at-another-tolerance", "cli.py",
     '"pass" if alg.braided else "fail"',
     '"pass" if alg.braid_residual <= 1e-4 else "fail"'),
    ("P-loop-memoizes-R", "algebra.py",
     'self._memo.get(("R", m)) or self._R(m)',
     "self.R(m)"),
    ("algebra-keeps-the-walk", "coxeter.py",
     "buckets = descent_sums(alg, n)",
     'buckets = alg._memo.setdefault(("walk", n), descent_sums(alg, n))'),
    ("subset-sums-skip-the-last-pass", "coxeter.py",
     "for i in range(n):",
     "for i in range(n - 1):"),
    ("rewrite-cross-compares-nothing", "cli.py",
     "worst = max(worst, abs(alg.f(u_star + w) - complex(entry)))",
     "pass"),
    ("telescoping-ignores-its-residual", "cli.py",
     'checks.add_residual("telescoping", {"n": n}, spectral.telescoping_residual(alg, n), tol)',
     'checks.add_residual("telescoping", {"n": n}, 0.0, tol)'),
    ("pn-agreement-ignores-its-residual", "cli.py",
     'checks.add_residual("pn_method_agreement", {"n": n}, residual,',
     'checks.add_residual("pn_method_agreement", {"n": n}, 0.0,'),
    ("full-plans-the-wick-ideal-a-level-short", "cli.py",
     "(_suite_wick_ideal, k + 1, None, k, rank_tol, tol)",
     "(_suite_wick_ideal, k, None, k, rank_tol, tol)"),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
                                ".bench_work", ".bench_build", "*.egg-info", "build")


def run_mutant(tree: Path, name: str, filename: str, text: str, replacement: str) -> bool:
    """Apply one mutant to the copy, run the suite, restore the file; True
    when the suite passes (the mutant survives)."""
    path = tree / "src" / "wickfock" / filename
    original = path.read_text(encoding="utf-8")
    if original.count(text) != 1:
        raise SystemExit(f"mutant {name}: the text to replace occurs {original.count(text)} times in {filename}")
    path.write_text(original.replace(text, replacement), encoding="utf-8")
    try:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"),
                                                                         os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                              cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    finally:
        path.write_text(original, encoding="utf-8")
    last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
    print(f"{'SURVIVED' if done.returncode == 0 else 'killed':>8}  {name}: {last[0]}", flush=True)
    return done.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="wickfock-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        survivors = [m[0] for m in MUTANTS if run_mutant(tree, *m)]
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survived" + (f": {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
