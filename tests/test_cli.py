"""Exit codes, report schema, and determinism of the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import hecke, qccr, rotated
from wickfock import cli, coxeter, model, rewrite
from wickfock.algebra import Algebra


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


def test_coxeter_rank6_runs_at_d2(qccr_path, tmp_path):
    # the checks share the walk's guard, which lets S_7 through at d=2
    code, report = run(["coxeter", "--spec", qccr_path, "--n", "6"], tmp_path)
    assert code == 0 and report["overall"] == "pass"
    factorizations = [c for c in report["checks"] if c["name"] == "factorization_DJ_WJ"]
    assert len(factorizations) == 2**6


def test_reports_say_which_walk_ran(qccr_path, tmp_path):
    rotated_path = write_spec(tmp_path, "rotated.json", model.to_document(rotated(hecke(2, 0.6), 1)))
    for path, walk in (
        (qccr_path, {"layout": "weight", "blocks": 5, "largest_block": 6}),
        (rotated_path, {"layout": "dense", "blocks": 1, "largest_block": 16}),
    ):
        _, pn = run(["pn", "--spec", path, "--n", "4"], tmp_path, "pn.json")
        spectra = {c["params"]["method"]: c for c in pn["checks"] if c["name"] == "pn_spectrum"}
        assert spectra["coxeter"]["walk"] == walk
        assert "walk" not in spectra["recursive"]
        _, cox = run(["coxeter", "--spec", path, "--n", "3"], tmp_path, "cox.json")
        [agreement] = [c for c in cox["checks"] if c["name"] == "group_sum_agreement"]
        assert agreement["walk"] == walk
        assert pn["overall"] == cox["overall"] == "pass"


def test_full_on_a_dense_T_runs_the_degree_3_rewrite_cross_check(tmp_path):
    # rotated Hecke mixes every basis tensor, so each a_i* a_j has d^2
    # coefficients; the Fock functional expands each word once per run, so
    # the degree-3 cross-check of full --n-max 3 stays quick at d=3 too
    for d in (2, 3):
        doc = model.to_document(rotated(hecke(d, 0.6), 1))
        path = write_spec(tmp_path, f"rotated{d}.json", doc)
        code, report = run(["full", "--spec", path, "--n-max", "3"], tmp_path, f"report{d}.json")
        assert code == 0
        [cross] = [c for c in report["checks"] if c["name"] == "rewrite_fock_agreement"]
        assert cross["params"] == {"max_degree": 3}
        assert cross["status"] == "pass"


def test_inner_command(qccr_path, tmp_path):
    code, report = run(
        ["inner", "--spec", qccr_path, "--x", "a1 a1", "--y", "a1 a1"], tmp_path
    )
    assert code == 0
    check = report["checks"][0]
    assert abs(check["via_functional"]["re"] - 1.5) <= 1e-12
    assert abs(check["via_fock"]["re"] - 1.5) <= 1e-12
    assert check["difference"] <= 1e-9


@pytest.mark.parametrize("q, degree", [(0.9, 15), (0.5, 30), (0.7, 25), (0.5, 60)])
def test_inner_tolerance_is_relative_to_the_inner_product(tmp_path, q, degree):
    # <a1^n, a1^n>_0 = [n]_q! reaches 1e17 at q=0.5, n=60, where the two
    # routes differ by a few ulp, far above an absolute 1e-8
    path = write_spec(tmp_path, "qccr1.json", {"d": 1, "preset": {"name": "q-ccr", "q": q}})
    word = " ".join(["a1"] * degree)
    code, report = run(["inner", "--spec", path, "--x", word, "--y", word], tmp_path)
    assert code == 0
    [check] = report["checks"]
    via_fock = abs(complex(check["via_fock"]["re"], check["via_fock"]["im"]))
    assert via_fock > 1e8
    assert check["tolerance"] == 1e-8 * via_fock
    assert check["difference"] <= check["tolerance"]


def test_inner_fails_on_a_relative_error(tmp_path, monkeypatch):
    path = write_spec(tmp_path, "qccr1.json", {"d": 1, "preset": {"name": "q-ccr", "q": 0.9}})
    word = " ".join(["a1"] * 15)
    inner = rewrite.inner_via_f
    monkeypatch.setattr(rewrite, "inner_via_f", lambda *args: inner(*args) * (1 + 1e-6))
    code, report = run(["inner", "--spec", path, "--x", word, "--y", word], tmp_path)
    assert code == 1
    [check] = report["checks"]
    assert check["status"] == "fail"
    assert check["difference"] > check["tolerance"] > 1e-8


def test_inner_rejects_bad_expression(qccr_path):
    assert cli.main(["inner", "--spec", qccr_path, "--x", "a9", "--y", "a1"]) == 2
    assert (
        cli.main(["inner", "--spec", qccr_path, "--x", "a1*", "--y", "a1"]) == 2
    )
    for bad in ('[{"re": null, "word": "a1"}]', '[{"word": 5}]'):
        assert cli.main(["inner", "--spec", qccr_path, "--x", bad, "--y", "a1"]) == 2
    # an empty combination is zero and would pass vacuously, like an empty word
    for y in ("[]", ""):
        assert cli.main(["inner", "--spec", qccr_path, "--x", "a1", "--y", y]) == 2


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


def test_bad_tolerances_are_input_errors(braid_violating_path, tmp_path, capsys):
    # each of these used to pass vacuously: an infinite --tol forgives the
    # braid violation, and a NaN or negative --rank-tol finds no kernel
    # where q = -1 has one of dimension 3 (level 2) and 8 (level 3)
    antiflip = write_spec(tmp_path, "antiflip.json", {"d": 2, "preset": {"name": "q-ccr", "q": -1.0}})
    cases = [
        (["check", "--spec", braid_violating_path, f"--tol={value}"], "--tol must be positive and finite")
        for value in ("inf", "nan", "0", "-1e-8")
    ] + [
        (["kernel-theorem", "--spec", antiflip, "--n-max", "3", f"--rank-tol={value}"], "--rank-tol must lie in (0, 1)")
        for value in ("nan", "-1", "0", "1")
    ] + [
        (["positivity", "--spec", antiflip, "--rank-tol", "inf"], "--rank-tol must lie in (0, 1)"),
    ]
    for args, message in cases:
        code, report = run(args, tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and report is None, args
        assert message in err and "Traceback" not in err, (args, err)


def test_level_guard_is_input_error(tmp_path, capsys):
    # a T that is not weight-preserving is one dense block: the guard is on
    # the dense matrix, as for every dense report
    d3 = write_spec(tmp_path, "rotated_d3.json", model.to_document(rotated(qccr(3, 0.5), 1)))
    d2 = write_spec(tmp_path, "rotated_d2.json", model.to_document(rotated(qccr(2, 0.5), 1)))
    qccr_d2 = write_spec(tmp_path, "qccr_d2.json", {"d": 2, "preset": {"name": "q-ccr", "q": 0.5}})
    long_word = " ".join(["a1"] * 12)
    cases = [
        (["pn", "--spec", d3, "--n", "8", "--method", "recursive"], 3 ** 16 * 16),
        (["pn", "--spec", d2, "--n", "12"], 2 ** 24 * 16),
        (["full", "--spec", d3, "--n-max", "8"], 3 ** 16 * 16),
        (["kernel-theorem", "--spec", d2, "--n-max", "12"], 2 ** 24 * 16),
        # in blocks q-CCR would admit this word: C(24, 12) packed entries, 690 MB
        (["inner", "--spec", d2, "--x", long_word, "--y", "a1"], 2 ** 24 * 16),
        # a weight-preserving T is guarded on its largest block, C(14, 7) words
        (["kernel-theorem", "--spec", qccr_d2, "--n-max", "14"], 3432 ** 2 * 16),
        (["positivity", "--spec", qccr_d2, "--n-max", "14"], 3432 ** 2 * 16),
    ]
    # the braid residual is taken at level 3 in the layout whatever the
    # run's top level: a rotated T at d=15 is one dense block there
    rotated15 = write_spec(tmp_path, "rotated_d15.json", model.to_document(rotated(qccr(15, 0.5), 1)))
    level3 = 182250000  # 16 * 15^6 bytes
    cases += [
        (["kernel-theorem", "--spec", rotated15, "--n-max", "2"], level3),
        (["positivity", "--spec", rotated15, "--n-max", "2"], level3),
        (["coxeter", "--spec", rotated15, "--n", "1"], level3),
        (["pn", "--spec", rotated15, "--n", "2"], level3),
        (["full", "--spec", rotated15, "--n-max", "2"], level3),
    ]
    for args, need in cases:
        code, report = run(args, tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and report is None, args
        assert f"needs {need} bytes or more, over the {128 * 1024**2} byte guard" in err, (args, err)
    # commands that never take the braid residual keep their own top level,
    # and the free T at d=15 takes it in weight blocks of at most 6 words
    free15 = write_spec(tmp_path, "free_d15.json", {"d": 15, "coefficients": []})
    for args in (
        ["inner", "--spec", rotated15, "--x", "a1 a2", "--y", "a2 a1"],
        ["pn", "--spec", rotated15, "--n", "2", "--method", "recursive"],
        ["kernel-theorem", "--spec", free15, "--n-max", "2"],
    ):
        code, report = run(args, tmp_path)
        assert code == 0 and report["overall"] == "pass", args


def test_level_guard_reads_the_largest_weight_block(tmp_path, capsys):
    # q-CCR at d=5, level 5: the dense matrix needs 156 MB, over the guard,
    # but the largest weight space has 5! = 120 words
    d5 = write_spec(tmp_path, "qccr_d5.json", {"d": 5, "preset": {"name": "q-ccr", "q": 0.5}})
    for command in ("kernel-theorem", "positivity"):
        code, report = run([command, "--spec", d5, "--n-max", "5"], tmp_path)
        assert code == 0 and report["overall"] == "pass", command
        assert all(c["status"] == "pass" for c in report["checks"])
    # a rotated T at d=5 is one dense block, and is refused
    rotated_d5 = write_spec(tmp_path, "rotated_d5.json", model.to_document(rotated(qccr(5, 0.5), 1)))
    code, report = run(["kernel-theorem", "--spec", rotated_d5, "--n-max", "5"], tmp_path, "refused.json")
    err = capsys.readouterr().err
    assert code == 2 and report is None
    assert f"one dense matrix at level 5, d=5 needs {5 ** 10 * 16} bytes or more, over the" in err
    assert "Traceback" not in err


def test_level_guard_bounds_what_the_weight_blocks_hold_together(tmp_path, capsys):
    # each block passes the guard (720 words at level 6), but together the
    # blocks of one operator hold the sum over letter contents of the squared
    # multinomials: 329,009,500 entries at d=10, 31,397,827,200 at d=20,
    # where the layout alone would sort 20^6 = 64e6 words, and
    # 9,669,367,129,500 at d=50, the README's case
    d10 = write_spec(tmp_path, "qccr_d10.json", {"d": 10, "preset": {"name": "q-ccr", "q": 0.5}})
    d20 = write_spec(tmp_path, "qccr_d20.json", {"d": 20, "preset": {"name": "q-ccr", "q": 0.5}})
    d50 = write_spec(tmp_path, "qccr_d50.json", {"d": 50, "preset": {"name": "q-ccr", "q": 0.5}})
    for args, entries in (
        (["positivity", "--spec", d10, "--n-max", "6"], 329009500),
        (["pn", "--spec", d20, "--n", "6", "--method", "recursive"], 31397827200),
        (["pn", "--spec", d50, "--n", "6", "--method", "recursive"], 9669367129500),
    ):
        code, report = run(args, tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and report is None, args
        assert f"hold {entries} entries per operator" in err, (args, err)
        assert f"over the {1024**3} byte guard" in err and "Traceback" not in err, (args, err)


def test_level_both_layouts_refuse_builds_no_T(tmp_path):
    # q-CCR at d=50, level 6: both layouts refuse the level, so the run stops
    # before T (d^4 entries) and its weight test take hundreds of MiB, near
    # the 29 MiB an import takes.  The child reports the peak RSS of its own
    # address space (VmHWM); getrusage would also count the pages of the
    # test process it was forked from.
    d50 = write_spec(tmp_path, "qccr_d50.json", {"d": 50, "preset": {"name": "q-ccr", "q": 0.5}})
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    child = ("import sys\nfrom wickfock.cli import main\ncode = main(sys.argv[1:])\n"
             "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\nsys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", child, "pn", "--spec", d50, "--n", "6", "--method", "recursive"],
        env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "hold 9669367129500 entries per operator" in proc.stderr and "Traceback" not in proc.stderr
    assert int(proc.stdout) < 64 * 1024, proc.stdout  # KiB


def test_full_at_d5_takes_every_report_in_blocks(tmp_path):
    # the Wick-ideal check at n = 4 reads the chain T_1...T_4 at level 5,
    # which would be a dense matrix of 156 MB at d=5; in weight blocks the
    # largest has 120 words, and every report of the d=3 run is there
    d3 = write_spec(tmp_path, "qccr_d3.json", {"d": 3, "preset": {"name": "q-ccr", "q": 0.5}})
    d5 = write_spec(tmp_path, "qccr_d5.json", {"d": 5, "preset": {"name": "q-ccr", "q": 0.5}})
    code, report = run(["full", "--spec", d5, "--n-max", "4"], tmp_path)
    assert code == 0 and report["overall"] == "pass"
    for c in report["checks"]:
        assert c["status"] == ("info" if c["name"] in ("operator_norm", "pn_spectrum") else "pass"), c["name"]
    code, small = run(["full", "--spec", d3, "--n-max", "4"], tmp_path, "d3.json")
    assert code == 0

    def names(report):
        return [(c["name"], c["params"], c["status"]) for c in report["checks"]]

    assert names(report) == names(small)


def test_walk_guard_is_input_error_before_any_operator(tmp_path, capsys, monkeypatch):
    # every run passes the level guard; the deepest walk of S_{n+1} does not
    built = []
    original_P = Algebra.P
    monkeypatch.setattr(Algebra, "P", lambda self, n: built.append(n) or original_P(self, n))
    d2 = write_spec(tmp_path, "qccr_d2.json", {"d": 2, "preset": {"name": "q-ccr", "q": 0.5}})
    d5 = write_spec(tmp_path, "qccr_d5.json", {"d": 5, "preset": {"name": "q-ccr", "q": 0.5}})
    rotated_d3 = write_spec(tmp_path, "rotated_d3.json", model.to_document(rotated(qccr(3, 0.5), 1)))
    rank7 = f"rank n=7 out of guard range 1..{coxeter.MAX_RANK}"
    guard = f"bytes, over the {coxeter.MAX_WALK_BYTES} byte guard"
    # a rotated T at d=3, rank 6, is one dense block: 69 matrices of 3^7 x 3^7
    # complex numbers, about 5.3 GB
    dense6 = f"d=3 need about {(2**6 + 5) * 3**14 * 16} {guard}"
    # q-CCR at d=5, rank 5: 2,241,225 packed entries an operator, about 2.4 GB
    need5 = (16 * (2**5 + 5) + coxeter.WALK_ENTRY_BYTES) * 2241225
    weight5 = f"d=5 in weight blocks of 2241225 entries need about {need5} {guard}"
    cases = [
        (["full", "--spec", d2, "--n-max", "8"], rank7),
        (["full", "--spec", rotated_d3, "--n-max", "7"], dense6),
        (["pn", "--spec", rotated_d3, "--n", "7"], dense6),
        (["pn", "--spec", rotated_d3, "--n", "7", "--method", "coxeter"], dense6),
        (["coxeter", "--spec", rotated_d3, "--n", "6"], dense6),
        (["pn", "--spec", d5, "--n", "6", "--method", "coxeter"], weight5),
        (["coxeter", "--spec", d5, "--n", "5"], weight5),
    ]
    for args, message in cases:
        code, report = run(args, tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and report is None, args
        assert message in err and "Traceback" not in err, (args, err)
        assert built == [], args
    # the recursive method takes no walk, and n < 2 has no group sum
    for args in (
        ["pn", "--spec", d2, "--n", "8", "--method", "recursive"],
        ["pn", "--spec", d2, "--n", "1", "--method", "coxeter"],
    ):
        code, report = run(args, tmp_path)
        assert code == 0 and report["overall"] == "pass", args


def test_braid_gate_reason_names_no_override(braid_violating_path, tmp_path):
    code, report = run(["coxeter", "--spec", braid_violating_path, "--n", "2"], tmp_path)
    assert code == 0
    [record] = report["checks"]
    assert record["status"] == "inapplicable"
    assert record["reason"].endswith("the map is only well defined for braided operators")


def test_negative_seed_is_input_error_before_the_spec_is_read(tmp_path, capsys):
    # numpy refuses a negative seed only once the random suite runs, and
    # without naming the flag
    missing = str(tmp_path / "absent.json")
    for spec in (missing, "specs/qccr_d2_q05.json"):
        code, report = run(["full", "--spec", spec, "--n-max", "2", "--seed", "-1"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and report is None, spec
        assert "--seed must be >= 0; got -1" in err and "Traceback" not in err, err


STRUCTURE = Path(__file__).with_name("report_structure.json")


def structure(report: dict) -> list[dict]:
    """What a report decides, without a float: each record's name, params,
    status, kernel dimensions, classification and walk."""
    return [
        {k: v for k, v in record.items()
         if k in ("name", "params", "status", "classification", "walk") or k.startswith("dim_")}
        for record in report["checks"]
    ]


def test_full_reports_keep_their_recorded_structure(tmp_path):
    # report_structure.json holds structure() of `full --n-max 4` on every
    # spec in specs/, recorded before the walk kept its buckets in its own
    # layout; a refactor must not move a status, a dimension or a record
    expected = json.loads(STRUCTURE.read_text())
    specs = sorted(Path(__file__).resolve().parents[1].glob("specs/*.json"))
    assert sorted(expected) == [path.name for path in specs]
    for path in specs:
        code, report = run(["full", "--spec", str(path), "--n-max", "4"], tmp_path)
        assert code == 0, path.name
        assert structure(report) == expected[path.name], path.name
