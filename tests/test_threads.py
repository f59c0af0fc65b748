"""The BLAS thread count a command runs on: one OpenBLAS thread when the
largest block of its deepest level is small, the count found otherwise, and
the count found restored however the command ends."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import hecke, rotated
from wickfock import cli, model

ROOT = Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "specs").glob("*.json"))


class FakeBlas:
    """Stands in for OpenBLAS's thread-count getter and setter."""

    def __init__(self, threads: int) -> None:
        self.threads = threads
        self.set_to: list[int] = []

    def get(self) -> int:
        return self.threads

    def put(self, count: int) -> None:
        self.set_to.append(count)
        self.threads = count


@pytest.fixture
def blas(monkeypatch):
    fake = FakeBlas(2)
    monkeypatch.setattr(cli, "_openblas_threads", lambda: (fake.get, fake.put))
    return fake


def spy(monkeypatch, suite: str, read, then=None) -> list:
    """Record ``read()`` each time the CLI suite runs, then run ``then`` on
    its arguments (by default the suite itself)."""
    seen = []
    original = getattr(cli, suite)

    def recorded(*args, **kwargs):
        seen.append(read())
        return (then or original)(*args, **kwargs)

    monkeypatch.setattr(cli, suite, recorded)
    return seen


def write(tmp_path, name: str, spec: model.WickSpec) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(model.to_document(spec)))
    return str(path)


def test_block_sized_full_runs_on_one_thread(blas, monkeypatch, tmp_path):
    # q-CCR d=2, full --n-max 4: the deepest level is 5, its largest block 10 words
    seen = spy(monkeypatch, "_suite_rewrite_cross", lambda: blas.threads)
    out = tmp_path / "report.json"
    assert cli.main(["full", "--spec", str(ROOT / "specs" / "qccr_d2_q05.json"), "--n-max", "4",
                     "--out", str(out)]) == 0
    assert seen == [1]
    assert blas.set_to == [1, 2] and blas.threads == 2


def test_block_sized_full_runs_on_one_openblas_thread(monkeypatch, tmp_path):
    # the same, read from the OpenBLAS that numpy bundles, where there is one
    found = cli._openblas_threads()
    if found is None:
        pytest.skip("numpy does not bundle a scipy-openblas here")
    get, _ = found
    before = get()
    seen = spy(monkeypatch, "_suite_rewrite_cross", get)
    out = tmp_path / "report.json"
    assert cli.main(["full", "--spec", str(ROOT / "specs" / "qccr_d2_q05.json"), "--n-max", "4",
                     "--out", str(out)]) == 0
    assert seen == [1]
    assert get() == before


def test_dense_run_above_the_crossover_keeps_the_count_found(blas, monkeypatch, tmp_path):
    # rotated Hecke is not weight-preserving: level 6 at d=3 is one block of 729 words
    path = write(tmp_path, "rotated.json", rotated(hecke(3, 0.6), 1))
    seen = spy(monkeypatch, "_suite_kernel_theorem", lambda: blas.threads, then=lambda *args: None)
    out = tmp_path / "report.json"
    assert cli.main(["kernel-theorem", "--spec", path, "--n-max", "6", "--out", str(out)]) == 0
    assert seen == [2]
    assert blas.set_to == []


def test_the_count_found_is_never_raised(monkeypatch):
    fake = FakeBlas(1)
    monkeypatch.setattr(cli, "_openblas_threads", lambda: (fake.get, fake.put))
    assert cli.main(["check", "--spec", str(ROOT / "specs" / "qccr_d2_q05.json")]) == 0
    assert fake.set_to == [] and fake.threads == 1


def test_the_count_found_is_restored_on_every_exit(blas, monkeypatch, tmp_path, capsys):
    spec = str(ROOT / "specs" / "qccr_d2_q05.json")
    seen = spy(monkeypatch, "_suite_check", lambda: blas.threads)
    M = model.build_T(model.load_spec_file(spec)).mat.copy()
    M[0, 3] = M[3, 0] = 0.1  # still hermitian, no longer braided: the braid check fails
    broken = write(tmp_path, "braidbad.json", model.load_spec(
        {"d": 2, "matrix": [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in M]}))
    assert cli.main(["check", "--spec", spec]) == 0
    assert cli.main(["check", "--spec", broken]) == 1
    assert seen == [1, 1]
    assert blas.set_to == [1, 2, 1, 2] and blas.threads == 2

    # an input error before any suite runs leaves the count alone
    assert cli.main(["check", "--spec", spec, "--tol", "0"]) == 2
    assert blas.set_to == [1, 2, 1, 2]

    def refuse(*args):
        raise ValueError("refused inside the suite")

    monkeypatch.setattr(cli, "_suite_check", refuse)
    assert cli.main(["check", "--spec", spec]) == 2
    assert "refused inside the suite" in capsys.readouterr().err
    assert blas.set_to == [1, 2, 1, 2, 1, 2] and blas.threads == 2

    def crash(*args):
        raise RuntimeError("crashed inside the suite")

    monkeypatch.setattr(cli, "_suite_check", crash)
    with pytest.raises(RuntimeError, match="crashed inside the suite"):
        cli.main(["check", "--spec", spec])
    assert blas.set_to == [1, 2, 1, 2, 1, 2, 1, 2] and blas.threads == 2


@pytest.mark.parametrize("path", [*SPECS, "rotated"], ids=lambda p: getattr(p, "stem", p))
def test_reports_do_not_depend_on_finding_openblas(monkeypatch, tmp_path, path):
    if path == "rotated":  # one dense block per level
        path = write(tmp_path, "rotated.json", rotated(hecke(2, 0.6), 1))
    args = ["full", "--spec", str(path), "--n-max", "5"]
    assert cli.main([*args, "--out", str(tmp_path / "found.json")]) == 0
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    assert cli.main([*args, "--out", str(tmp_path / "missing.json")]) == 0
    assert (tmp_path / "found.json").read_bytes() == (tmp_path / "missing.json").read_bytes()


def test_full_reports_are_byte_identical_with_one_thread_pinned(tmp_path):
    for path in SPECS:
        bodies = []
        for pin in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            if pin:
                env["OPENBLAS_NUM_THREADS"] = pin
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
            out = tmp_path / f"{path.stem}-{pin}.json"
            subprocess.run([sys.executable, "-m", "wickfock.cli", "full", "--spec", str(path), "--n-max", "5",
                            "--out", str(out)], env=env, check=True, capture_output=True, timeout=120)
            bodies.append(out.read_bytes())
        assert bodies[0] == bodies[1], path.name
