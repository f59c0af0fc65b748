"""wickfock benchmark.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; ``wickfock`` is imported from its ``src/``.
Each workload (see ``workloads.py``) is a list of wickfock CLI invocations,
run as a closed loop: one child process at a time, the next starting when
the previous has exited, cycling through the list for about ``--seconds``:
every invocation runs at least once, and the next one starts only if it
should end within ``--seconds``.  OpenBLAS keeps its
default thread count.  Every report goes through the correctness gate
(``gate.py``).

``--trace 0`` reports the end-to-end metrics:
  wall_s       wall time of one pass over the workload's invocations: the sum,
               over invocations, of each one's median wall time
  cpu_s        the same for the children's user+sys CPU time
  peak_rss_mb  largest, over invocations, of each one's median peak RSS
  setup_s      median wall time of a child that imports wickfock, loads the
               workload's specs, builds T and exits; at least SETUP_REPEATS
               of them, interleaved with the invocations
``--trace 1`` runs one pass untraced and one pass traced (``tracer.py``) and
reports the per-layer metrics: calls and self time per public function,
self time per module, distinct-argument ratios of the rebuilt operators, the
computed size of the largest phi_table, the import time and the tracing
overhead.

The share of invocations that failed the gate is printed in the summary and
carried by ``failed``/``attempted`` in the last line, a JSON object.  The
benchmark exits with code 2, printing no result, when the checkout has no
``src/wickfock``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
CHILD = [sys.executable, str(HERE / "child.py")]
SETUP_REPEATS = 7
DEADLINE_S = 175  # a run that has not finished by then is stopped and fails


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    rss_mib: float
    exit_code: int


class BenchmarkError(RuntimeError):
    """The harness could not run a workload: no result is printed."""


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def spawn(args: list[str], stderr_path: Path) -> Sample:
    """Run one child to completion; its own wall, CPU and peak RSS."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(CHILD + args, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


class Runner:
    """Runs one workload's invocations in child processes and gates each
    report."""

    def __init__(self, workload: workloads.Workload, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.spec_paths = workload.write_specs(work)
        self.fingerprints = gate.load_fingerprints()[workload.name]
        self.attempted = 0
        self.failed = 0

    def setup_s(self) -> float:
        """Wall time of one child that imports wickfock, loads the specs and
        builds T."""
        sample = spawn(["setup", *self.spec_paths.values()], self.work / "stderr.txt")
        if sample.exit_code != 0:
            raise BenchmarkError(f"set-up child failed:\n{self._stderr_tail()}")
        return sample.wall_s

    def invoke(self, inv: workloads.Invocation, traced: bool = False) -> Sample:
        spec_path = self.spec_paths[inv.spec]
        report = self.work / "report.json"
        report.unlink(missing_ok=True)
        mode = ["trace", str(self.work / "stats.json")] if traced else ["run"]
        sample = spawn([*mode, "--", *inv.argv(spec_path, str(report))], self.work / "stderr.txt")
        problems = gate.check(inv, spec_path, report, sample.exit_code, self.fingerprints[inv.key])
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {inv.key}: " + "; ".join(problems[:5]), file=sys.stderr)
            print(self._stderr_tail(), file=sys.stderr)
        return sample

    def _stderr_tail(self) -> str:
        text = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-10:])


def end_to_end(runner: Runner, seconds: float) -> dict:
    """Closed loop over the invocations.  Set-up children run before each
    invocation, enough that SETUP_REPEATS of them span two passes, so their
    samples are spread over the run as the invocations are."""
    invs = runner.workload.invocations
    samples: dict[str, list[Sample]] = {inv.key: [] for inv in invs}
    setups_per_invocation = math.ceil(SETUP_REPEATS / (2 * len(invs)))
    setups: list[float] = []
    start = time.perf_counter()
    done = 0
    while True:
        setups += [runner.setup_s() for _ in range(setups_per_invocation)]
        inv = invs[done % len(invs)]
        samples[inv.key].append(runner.invoke(inv))
        done += 1
        if done >= len(invs):
            # start the next invocation only if it should end within the run
            expected = statistics.median(s.wall_s for s in samples[invs[done % len(invs)].key])
            if time.perf_counter() - start + expected > seconds:
                break
    while len(setups) < SETUP_REPEATS:
        setups.append(runner.setup_s())

    def per_invocation(attr: str) -> list[float]:
        return [statistics.median(getattr(s, attr) for s in runs) for runs in samples.values()]

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(per_invocation("wall_s")), "s"),
        "cpu_s": (sum(per_invocation("cpu_s")), "s"),
        "peak_rss_mb": (max(per_invocation("rss_mib")), "MiB"),
    }


def per_layer(runner: Runner) -> dict:
    invs = runner.workload.invocations
    untraced = sum(runner.invoke(inv).wall_s for inv in invs)
    traced = 0.0
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    distinct: dict[str, int] = {}
    max_bytes = 0
    import_s = []
    for inv in invs:
        stats_path = runner.work / "stats.json"
        stats_path.unlink(missing_ok=True)
        traced += runner.invoke(inv, traced=True).wall_s
        if not stats_path.exists():  # the child failed; the gate has counted it
            continue
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        for name, count in stats["calls"].items():
            calls[name] = calls.get(name, 0) + count
            self_s[name] = self_s.get(name, 0.0) + stats["self_s"][name]
        for name, count in stats["distinct"].items():
            distinct[name] = distinct.get(name, 0) + count
        max_bytes = max(max_bytes, stats["phi_table_max_bytes"])
        import_s.append(stats["import_s"])

    metrics = {}
    for name in tracer.REPORTED:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for module in tracer.MODULES:
        total = sum(v for k, v in self_s.items() if k.startswith(module + "."))
        metrics[f"{module}.self_s"] = (total, "s")
    for name in tracer.DISTINCT:
        n_calls = calls.get(name, 0)
        metrics[f"{name}.distinct_ratio"] = (distinct.get(name, 0) / n_calls if n_calls else 0.0, "ratio")
    metrics["coxeter.phi_table.max_bytes"] = (max_bytes, "B_computed")
    metrics["wickfock.import_s"] = (statistics.median(import_s) if import_s else 0.0, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def declared_metrics(trace: int) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    out = subprocess.run(CHILD + ["env"], cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workloads.build(name, seed), work)
    if trace:
        metrics = per_layer(runner)
    else:
        metrics = end_to_end(runner, seconds)
    mismatch = declared_metrics(trace) ^ set(metrics)
    if mismatch:
        raise BenchmarkError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")

    print(f"{name} seed={seed} trace={trace}:")
    if not trace:
        for key, (value, unit) in metrics.items():
            print(f"  {key:<12} {value:12.4f} {unit}")
    print(f"  {'failed_share':<12} {runner.failed / runner.attempted:12.4f} share"
          f" ({runner.failed} of {runner.attempted} invocations)")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wickfock" / "__init__.py").is_file():
        print(f"benchmark: no wickfock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    if args.workload != "all":
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(DEADLINE_S)
    try:
        print("environment: " + json.dumps(environment()), file=sys.stderr)
        results = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except (BenchmarkError, TimeoutError, subprocess.CalledProcessError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
