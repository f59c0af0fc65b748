"""The BLAS thread count a command runs on: OpenBLAS started on one thread
by the CLI unless numpy was loaded first or the user chose a count; one
thread when the largest block of its deepest level is small; otherwise the
processor count after the CLI's own start, else the count found; and the
count found restored however the command ends."""

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
    """Stands in for OpenBLAS's thread-count getter and setter and its
    processor-count getter."""

    def __init__(self, threads: int, procs: int = 3) -> None:
        self.threads = threads
        self.processors = procs
        self.set_to: list[int] = []

    def get(self) -> int:
        return self.threads

    def put(self, count: int) -> None:
        self.set_to.append(count)
        self.threads = count

    def procs(self) -> int:
        return self.processors

    def install(self, monkeypatch) -> "FakeBlas":
        monkeypatch.setattr(cli, "_openblas_threads", lambda: (self.get, self.put, self.procs))
        return self


@pytest.fixture
def blas(monkeypatch):
    return FakeBlas(2).install(monkeypatch)


def needs_openblas():
    if cli._openblas_threads() is None:
        pytest.skip("numpy does not bundle a scipy-openblas here")


def child_env(**variables: str) -> dict:
    """The environment of a fresh interpreter that imports ``src/``: no BLAS
    thread variable but ``variables``."""
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return {**env, **variables}


# read in a fresh interpreter: tests/conftest.py loads numpy before any test
# imports the CLI, so no in-process test sees the CLI choose OpenBLAS's start
READ_START = """
import json, os
from wickfock import cli
get, _, procs = cli._openblas_threads()
print(json.dumps({"threads": get(), "procs": procs(), "own": cli.OWN_BLAS_START,
                  "variables": {name: os.environ.get(name) for name in cli.BLAS_THREAD_VARIABLES}}))
"""


def read_start(before: str = "", **variables: str) -> dict:
    out = subprocess.run([sys.executable, "-c", before + READ_START], env=child_env(**variables),
                         check=True, capture_output=True, text=True, timeout=60)
    return json.loads(out.stdout)


def test_the_cli_starts_openblas_on_one_thread():
    needs_openblas()
    start = read_start()
    assert start["threads"] == 1 and start["own"]
    assert start["variables"] == dict.fromkeys(cli.BLAS_THREAD_VARIABLES)  # no child inherits the pin


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_the_cli_obeys_a_thread_count_the_user_set(name):
    needs_openblas()
    start = read_start(**{name: "2"})
    assert start["threads"] == min(2, start["procs"]) and not start["own"]  # OpenBLAS caps it at its processors
    assert start["variables"] == {**dict.fromkeys(cli.BLAS_THREAD_VARIABLES), name: "2"}


def test_the_cli_keeps_the_default_start_when_numpy_is_loaded_first():
    needs_openblas()
    start = read_start("import numpy\n")
    assert start["threads"] == start["procs"] and not start["own"]
    assert start["variables"] == dict.fromkeys(cli.BLAS_THREAD_VARIABLES)


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
    needs_openblas()
    get = cli._openblas_threads()[0]
    before = get()
    seen = spy(monkeypatch, "_suite_rewrite_cross", get)
    out = tmp_path / "report.json"
    assert cli.main(["full", "--spec", str(ROOT / "specs" / "qccr_d2_q05.json"), "--n-max", "4",
                     "--out", str(out)]) == 0
    assert seen == [1]
    assert get() == before


def run_dense_kernel_theorem(monkeypatch, tmp_path, fake: FakeBlas) -> list:
    """The thread counts the suite sees on rotated Hecke d=3, kernel-theorem
    --n-max 6: not weight-preserving, so level 6 is one block of 729 words."""
    path = write(tmp_path, "rotated.json", rotated(hecke(3, 0.6), 1))
    seen = spy(monkeypatch, "_suite_kernel_theorem", lambda: fake.threads, then=lambda *args: None)
    out = tmp_path / "report.json"
    assert cli.main(["kernel-theorem", "--spec", path, "--n-max", "6", "--out", str(out)]) == 0
    return seen


@pytest.mark.parametrize("environ", [{}, {"OPENBLAS_NUM_THREADS": "1"}], ids=["cli", "user"])
def test_dense_run_above_the_crossover_raises_only_the_clis_own_start(monkeypatch, tmp_path, environ):
    fake = FakeBlas(1, procs=3).install(monkeypatch)
    monkeypatch.setattr(cli, "OWN_BLAS_START", cli._chooses_blas_start({}, environ))
    seen = run_dense_kernel_theorem(monkeypatch, tmp_path, fake)
    if environ:  # the user's one thread is obeyed
        assert seen == [1] and fake.set_to == []
    else:  # the CLI's own one-thread start is raised to the processor count, then restored
        assert seen == [3] and fake.set_to == [3, 1]


@pytest.mark.parametrize("found", [1, 2])
def test_a_count_the_cli_did_not_choose_is_never_raised(monkeypatch, tmp_path, found):
    fake = FakeBlas(found, procs=3).install(monkeypatch)
    monkeypatch.setattr(cli, "OWN_BLAS_START", False)
    assert run_dense_kernel_theorem(monkeypatch, tmp_path, fake) == [found]
    assert cli.main(["check", "--spec", str(ROOT / "specs" / "qccr_d2_q05.json")]) == 0
    assert fake.set_to == ([] if found == 1 else [1, 2]) and fake.threads == found


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
    # the CLI's own one-thread start against a user's two threads
    for path in SPECS:
        bodies = []
        for pin in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
            out = tmp_path / f"{path.stem}-{len(pin)}.json"
            subprocess.run([sys.executable, "-m", "wickfock.cli", "full", "--spec", str(path), "--n-max", "5",
                            "--out", str(out)], env=child_env(**pin), check=True, capture_output=True, timeout=120)
            bodies.append(out.read_bytes())
        assert bodies[0] == bodies[1], path.name
