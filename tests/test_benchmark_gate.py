"""The benchmark's correctness gate against the committed fingerprints: every
invocation of every workload, run in-process through the CLI at one seed,
passes ``perfbench/gate.check``.  A change of check names, params, statuses,
kernel dimensions or classifications, or a stale ``fingerprint.json``, fails
here as well as in the benchmark."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gate  # noqa: E402
import workloads  # noqa: E402

from wickfock import cli  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_workload_passes_the_benchmark_gate(name, tmp_path):
    workload = workloads.build(name, SEED)
    spec_paths = workload.write_specs(tmp_path)
    expected = gate.load_fingerprints()[name]
    report = tmp_path / "report.json"
    for inv in workload.invocations:
        report.unlink(missing_ok=True)
        code = cli.main(inv.argv(spec_paths[inv.spec], str(report)))
        assert gate.check(inv, spec_paths[inv.spec], report, code, expected[inv.key]) == [], inv.key
