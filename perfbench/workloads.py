"""The benchmark's four workloads, generated from a seed.

Each workload is a list of wickfock CLI invocations on spec files the
benchmark writes itself.  The seed draws the free parameters (q values,
creation words, coefficients, the CLI's own seed) from ranges on which every
check keeps the same status, kernel dimensions and classifications, so one
recorded fingerprint serves every seed and the work per run does not depend
on it.

Why these four, and what each exercises:

- certify-d3: ``full --n-max 5`` on q-CCR at d=3, the everyday certification
  run.  Most of its time is ``phi_table`` rebuilt per suite, with thousands
  of ``build_P`` / ``build_T`` rebuilds, so build-once-and-reuse shows here.
- groupsum-s7: ``pn --method coxeter --n 7`` on five d=2 algebras.  One
  S_7 table of 128x128 matrices (5040 * 128^2 * 16 B = 1.32 GB) dominates
  memory; streaming the group sum shows here and ``spectral`` barely runs.
- kernels-d3: ``kernel-theorem`` and ``positivity`` at ``--n-max 6``, d=3,
  on q-CCR q=-1 and qij-CCR lambda=-1.  Dense eigh/SVD at size 729
  dominates; ``coxeter`` is never called, so a Coxeter change should show
  no effect here.
- wick-words: ``inner`` on linear combinations of degree-7/8 creation words
  at d=2.  The only workload where the ``rewrite`` layer does most of the
  work.

``full --n-max 6`` at d=3 is left out on purpose: its S_6 table at 729^2
peaks at about 5.9 GB, most of a 7 GB machine.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Invocation:
    """One wickfock run: CLI arguments (``{spec}`` stands for the spec
    file), generated values the report echoes back, and the results an
    independent oracle predicts."""

    key: str
    spec: str
    args: tuple[str, ...]
    variables: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)

    def argv(self, spec_path: str, report_path: str) -> list[str]:
        args = [spec_path if a == "{spec}" else a for a in self.args]
        return args + ["--out", report_path]


@dataclass(frozen=True)
class Workload:
    name: str
    specs: dict  # label -> spec document
    invocations: tuple[Invocation, ...]

    def write_specs(self, directory: Path) -> dict:
        """Write the spec files; return label -> path."""
        paths = {}
        for label, doc in self.specs.items():
            path = directory / f"{label}.json"
            path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
            paths[label] = str(path)
        return paths


def _q(rng: random.Random) -> float:
    return round(rng.uniform(0.3, 0.7), 4)


def q_factorial(n: int, q: float) -> float:
    """[n]_q! = prod_k (1 + q + ... + q^(k-1)), the norm of P_n for
    q-CCR with q >= 0 (attained on e_1 (x) ... (x) e_1)."""
    return math.prod(sum(q**j for j in range(k)) for k in range(1, n + 1))


def _certify_d3(rng: random.Random) -> Workload:
    q = _q(rng)
    cli_seed = rng.randrange(1, 10**6)
    return Workload(
        "certify-d3",
        {"qccr_d3": {"d": 3, "preset": {"name": "q-ccr", "q": q}}},
        (
            Invocation(
                "full:qccr_d3",
                "qccr_d3",
                ("full", "--spec", "{spec}", "--n-max", "5", "--seed", str(cli_seed)),
                variables={"seed": cli_seed},
            ),
        ),
    )


def _groupsum_s7(rng: random.Random) -> Workload:
    q_ccr, q_ex3 = _q(rng), _q(rng)
    qs = [_q(rng), _q(rng)]
    n = 7
    specs = {
        "free_d2": ({"d": 2, "coefficients": []}, {"max_eig": 1.0, "positive": True}),
        "flip_d2": ({"d": 2, "preset": {"name": "q-ccr", "q": 1.0}}, {"max_eig": float(math.factorial(n))}),
        "qccr_d2": (
            {"d": 2, "preset": {"name": "q-ccr", "q": q_ccr}},
            {"max_eig": q_factorial(n, q_ccr), "positive": True},
        ),
        # T fixes e_i (x) e_i, so P_n e_1^(x)n = n! e_1^(x)n, and ||T|| <= 1 bounds ||P_n|| by n!
        "example3_d2": (
            {"d": 2, "preset": {"name": "example3", "q": q_ex3}},
            {"max_eig": float(math.factorial(n)), "positive": True},
        ),
        "qij_d2": ({"d": 2, "preset": {"name": "qij-ccr", "qs": qs, "lambda": [[1, -1], [-1, 1]]}}, {}),
    }
    return Workload(
        "groupsum-s7",
        {label: doc for label, (doc, _) in specs.items()},
        tuple(
            Invocation(
                f"pn:{label}",
                label,
                ("pn", "--spec", "{spec}", "--n", str(n), "--method", "coxeter"),
                oracle=oracle,
            )
            for label, (_, oracle) in specs.items()
        ),
    )


def _kernels_d3(rng: random.Random) -> Workload:
    qs = [_q(rng), _q(rng), _q(rng)]
    lam = [[1 if i == j else -1 for j in range(3)] for i in range(3)]
    # q = -1: T = -flip, so ker P_n is everything but the antisymmetric tensors
    antisym = {"kernel_dims": {n: 3**n - math.comb(3, n) for n in range(2, 7)}}
    specs = {
        "qccr_m1_d3": ({"d": 3, "preset": {"name": "q-ccr", "q": -1.0}}, antisym),
        "qij_d3": ({"d": 3, "preset": {"name": "qij-ccr", "qs": qs, "lambda": lam}}, {}),
    }
    return Workload(
        "kernels-d3",
        {label: doc for label, (doc, _) in specs.items()},
        tuple(
            Invocation(f"{command}:{label}", label, (command, "--spec", "{spec}", "--n-max", "6"), oracle=oracle)
            for label, (_, oracle) in specs.items()
            for command in ("kernel-theorem", "positivity")
        ),
    )


def _word(rng: random.Random, ones: int, twos: int) -> str:
    letters = ["a1"] * ones + ["a2"] * twos
    rng.shuffle(letters)
    return " ".join(letters)


def _combination(rng: random.Random) -> list:
    """A degree-8 and a degree-7 creation word, each with seeded complex
    coefficients; the letter counts are fixed so the rewrite work is too."""
    return [
        {"re": round(rng.uniform(-1, 1), 3), "im": round(rng.uniform(-1, 1), 3), "word": _word(rng, *counts)}
        for counts in ((4, 4), (4, 3))
    ]


def _wick_words(rng: random.Random) -> Workload:
    specs = {
        "qccr_d2": ({"d": 2, "preset": {"name": "q-ccr", "q": _q(rng)}}, "q-ccr"),
        "example3_d2": ({"d": 2, "preset": {"name": "example3", "q": _q(rng)}}, "example3"),
    }
    invocations = []
    for label, (doc, family) in specs.items():
        for pair in range(2):
            x, y = _combination(rng), _combination(rng)
            x_text, y_text = json.dumps(x), json.dumps(y)
            invocations.append(
                Invocation(
                    f"inner:{label}:{pair}",
                    label,
                    ("inner", "--spec", "{spec}", "--x", x_text, "--y", y_text),
                    variables={"x": x_text, "y": y_text},
                    oracle={"inner": fock_inner_product(family, doc["preset"]["q"], x, y)},
                )
            )
    return Workload("wick-words", {label: doc for label, (doc, _) in specs.items()}, tuple(invocations))


def _word_inner(family: str, q: float, u: list[str], w: list[str]) -> float:
    """<e_u, e_w>_0 as a sum over the permutations carrying u onto w: each
    inversion contributes q, except that example3 swaps equal letters with
    weight 1."""
    if sorted(u) != sorted(w):
        return 0.0
    n = len(w)
    used = [False] * n

    def walk(k: int) -> float:
        if k == n:
            return 1.0
        total = 0.0
        for p in range(n):
            if used[p] or u[p] != w[k]:
                continue
            weight = 1.0
            for r in range(p + 1, n):
                if used[r]:  # position r was taken earlier but lies to the right: an inversion
                    weight *= 1.0 if (family == "example3" and u[r] == u[p]) else q
            used[p] = True
            total += weight * walk(k + 1)
            used[p] = False
        return total

    return walk(0)


def fock_inner_product(family: str, q: float, x: list, y: list) -> complex:
    """<X, Y>_0, conjugate-linear in X, computed from the permutation sum
    without the package."""
    return sum(
        complex(a["re"], a["im"]).conjugate()
        * complex(b["re"], b["im"])
        * _word_inner(family, q, a["word"].split(), b["word"].split())
        for a in x
        for b in y
    )


BUILDERS = {
    "certify-d3": _certify_d3,
    "groupsum-s7": _groupsum_s7,
    "kernels-d3": _kernels_d3,
    "wick-words": _wick_words,
}


def build(name: str, seed: int) -> Workload:
    """The workload's inputs for this seed; the same seed gives the same
    inputs."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
