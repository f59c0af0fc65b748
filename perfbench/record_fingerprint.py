"""Record the correctness gate's fingerprints (``fingerprint.json``).

    python3 perfbench/record_fingerprint.py

Runs every invocation of every workload once on two seeds, requires the two
fingerprints to be equal and every independent oracle to agree, and writes
the result.  Re-record only when a change is meant to alter check names,
params, statuses, kernel dimensions or classifications, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
import workloads

SEEDS = (0, 1)


def record(name: str, work) -> dict:
    per_seed = []
    for seed in SEEDS:
        wl = workloads.build(name, seed)
        spec_paths = wl.write_specs(work)
        prints = {}
        for inv in wl.invocations:
            report_path = work / "report.json"
            report_path.unlink(missing_ok=True)
            sample = run.spawn(["run", "--", *inv.argv(spec_paths[inv.spec], str(report_path))],
                               work / "stderr.txt")
            report = json.loads(report_path.read_text(encoding="utf-8"))
            problems = gate.oracle_problems(report, inv.oracle)
            if sample.exit_code not in (0, 1) or problems:
                raise SystemExit(f"{inv.key} seed {seed}: exit {sample.exit_code}, {problems}")
            prints[inv.key] = gate.fingerprint(report, inv.variables)
            print(f"{name} seed {seed} {inv.key}: {report['overall']}, {sample.wall_s:.2f} s", file=sys.stderr)
        per_seed.append(prints)
    if any(p != per_seed[0] for p in per_seed):
        raise SystemExit(f"{name}: fingerprint depends on the seed")
    return per_seed[0]


def main() -> int:
    work = run.WORK / "fingerprint"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prints = {name: record(name, work) for name in workloads.BUILDERS}
    gate.FINGERPRINT_FILE.write_text(json.dumps(prints, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
