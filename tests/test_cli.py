"""Exit codes, report schema, and determinism of the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import qccr
from wickfock import cli, model


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def qccr_path(tmp_path):
    return write_spec(tmp_path, "qccr.json", {"d": 2, "preset": {"name": "q-ccr", "q": 0.5}})


@pytest.fixture
def braid_violating_path(tmp_path):
    M = model.build_T(qccr(2, 0.5)).mat.copy()
    M[0, 3] = 0.1
    M[3, 0] = 0.1
    rows = [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in M]
    return write_spec(tmp_path, "braidbad.json", {"d": 2, "matrix": rows})


def run(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_check_passes_on_preset(qccr_path, tmp_path):
    code, report = run(["check", "--spec", qccr_path], tmp_path)
    assert code == 0
    assert report["overall"] == "pass"
    assert report["tool"]["name"] == "wickfock"
    names = [c["name"] for c in report["checks"]]
    assert names == ["hermiticity", "operator_norm", "braid"]
    norm = [c for c in report["checks"] if c["name"] == "operator_norm"][0]
    assert abs(norm["value"] - 0.5) <= 1e-12


def test_check_fails_on_braid_violation(braid_violating_path, tmp_path):
    code, report = run(["check", "--spec", braid_violating_path], tmp_path)
    assert code == 1
    assert report["overall"] == "fail"
    braid = [c for c in report["checks"] if c["name"] == "braid"][0]
    assert braid["status"] == "fail"
    assert braid["residual"] > 1e-3


def test_hermitian_violation_is_input_error(tmp_path):
    path = write_spec(
        tmp_path,
        "herm.json",
        {"d": 2, "coefficients": [{"i": 1, "j": 2, "k": 1, "l": 2, "re": 0.3, "im": 0.1}]},
    )
    code = cli.main(["check", "--spec", path])
    assert code == 2


def test_missing_and_malformed_files(tmp_path):
    assert cli.main(["check", "--spec", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["check", "--spec", str(bad)]) == 2


def test_pn_methods_agree(qccr_path, tmp_path):
    code, report = run(["pn", "--spec", qccr_path, "--n", "4"], tmp_path)
    assert code == 0
    agreement = [c for c in report["checks"] if c["name"] == "pn_method_agreement"][0]
    assert agreement["residual"] <= 1e-10
    spectra = [c for c in report["checks"] if c["name"] == "pn_spectrum"]
    assert {c["params"]["method"] for c in spectra} == {"recursive", "coxeter"}


def test_pn_single_method(qccr_path, tmp_path):
    code, report = run(
        ["pn", "--spec", qccr_path, "--n", "3", "--method", "recursive"], tmp_path
    )
    assert code == 0
    assert all(c["name"] == "pn_spectrum" for c in report["checks"])


def test_kernel_theorem_command_dims(tmp_path):
    path = write_spec(tmp_path, "flip.json", {"d": 2, "preset": {"name": "q-ccr", "q": 1.0}})
    code, report = run(["kernel-theorem", "--spec", path, "--n-max", "4"], tmp_path)
    assert code == 0
    dims = [(c["params"]["level"], c["dim_ker_P"]) for c in report["checks"]]
    assert dims == [(2, 1), (3, 4), (4, 11)]


def test_positivity_command(tmp_path):
    path = write_spec(
        tmp_path, "ex3.json", {"d": 2, "preset": {"name": "example3", "q": 0.5}}
    )
    code, report = run(["positivity", "--spec", path, "--n-max", "5"], tmp_path)
    assert code == 0
    for check in report["checks"]:
        assert check["classification"] == "strictly positive"
        assert check["dim_ker_P"] == 0


def test_n_max_below_2_is_input_error(qccr_path, tmp_path, capsys):
    # level 2 is the first with a check: a smaller --n-max would pass vacuously
    for command in ("kernel-theorem", "positivity", "full"):
        for n_max in ("1", "0", "-3"):
            code, report = run([command, "--spec", qccr_path, "--n-max", n_max], tmp_path)
            assert code == 2 and report is None, (command, n_max)
            assert "--n-max must be >= 2" in capsys.readouterr().err


def test_coxeter_command(tmp_path):
    path = write_spec(
        tmp_path,
        "qij.json",
        {"d": 2, "preset": {"name": "qij-ccr", "qs": [0.5, 0.5], "lambda": [[1, -1], [-1, 1]]}},
    )
    code, report = run(["coxeter", "--spec", path, "--n", "3"], tmp_path)
    assert code == 0
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "group_sum_agreement",
        "factorization_DJ_WJ",
        "euler_solomon",
        "phi_longest_vs_U",
    }
    factorizations = [c for c in report["checks"] if c["name"] == "factorization_DJ_WJ"]
    assert len(factorizations) == 8  # every J subset of {1,2,3}


def test_inner_command(qccr_path, tmp_path):
    code, report = run(
        ["inner", "--spec", qccr_path, "--x", "a1 a1", "--y", "a1 a1"], tmp_path
    )
    assert code == 0
    check = report["checks"][0]
    assert abs(check["via_functional"]["re"] - 1.5) <= 1e-12
    assert abs(check["via_fock"]["re"] - 1.5) <= 1e-12
    assert check["difference"] <= 1e-9


def test_inner_rejects_bad_expression(qccr_path):
    assert cli.main(["inner", "--spec", qccr_path, "--x", "a9", "--y", "a1"]) == 2
    assert (
        cli.main(["inner", "--spec", qccr_path, "--x", "a1*", "--y", "a1"]) == 2
    )
    for bad in ('[{"re": null, "word": "a1"}]', '[{"word": 5}]'):
        assert cli.main(["inner", "--spec", qccr_path, "--x", bad, "--y", "a1"]) == 2


def test_module_entry_point_writes_report():
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wickfock.cli", "check", "--spec", "specs/free_d2.json"],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["overall"] == "pass"


def test_full_on_free_spec_is_vacuous_pass(tmp_path):
    path = write_spec(tmp_path, "free.json", {"d": 2, "coefficients": []})
    code, report = run(["full", "--spec", path, "--n-max", "3"], tmp_path)
    assert code == 0
    assert report["overall"] == "pass"
    for check in report["checks"]:
        if check["name"] == "kernel_theorem":
            assert check["dim_ker_P"] == 0


def test_full_report_is_byte_identical(tmp_path):
    path = write_spec(
        tmp_path,
        "qij.json",
        {"d": 2, "preset": {"name": "qij-ccr", "qs": [0.5, 0.5], "lambda": [[1, 1], [1, 1]]}},
    )
    code1, _ = run(["full", "--spec", path, "--n-max", "3"], tmp_path, "r1.json")
    code2, _ = run(["full", "--spec", path, "--n-max", "3"], tmp_path, "r2.json")
    assert code1 == code2 == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_timestamps_flag_adds_field(qccr_path, tmp_path):
    _, without = run(["check", "--spec", qccr_path], tmp_path, "a.json")
    _, with_ts = run(["check", "--spec", qccr_path, "--timestamps"], tmp_path, "b.json")
    assert "timestamp" not in without
    assert "timestamp" in with_ts


def test_report_written_on_failure_exit(braid_violating_path, tmp_path):
    out = tmp_path / "fail_report.json"
    code = cli.main(["check", "--spec", braid_violating_path, "--out", str(out)])
    assert code == 1
    assert out.exists()


def test_stdout_default(qccr_path, capsys):
    code = cli.main(["check", "--spec", qccr_path])
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["overall"] == "pass"
    assert "overall: pass" in captured.err
