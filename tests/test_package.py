"""The public surface of the package."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import wickfock


def test_every_name_in_all_resolves():
    # tools that wrap the public functions do getattr on each __all__ entry
    modules = [wickfock] + [
        importlib.import_module(f"wickfock.{info.name}")
        for info in pkgutil.iter_modules(wickfock.__path__)
    ]
    assert len(modules) == 9
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_importing_the_package_loads_no_numpy():
    # a fresh interpreter: tests/conftest.py has loaded numpy in this one.
    # The package names resolve lazily, so a library import starts no
    # OpenBLAS and the CLI can still choose its thread count
    src = str(Path(wickfock.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import json, sys, wickfock\n"
            "loaded = 'numpy' in sys.modules\n"
            "print(json.dumps([loaded, [n for n in wickfock.__all__ if not hasattr(wickfock, n)]]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=60)
    assert json.loads(out.stdout) == [False, []]


def test_modules_import_only_the_standard_library_numpy_and_wickfock():
    # pyproject.toml declares numpy alone: an import of anything else (say
    # scipy) would pass where it happens to be installed and break elsewhere
    allowed = set(sys.stdlib_module_names) | {"numpy", "wickfock"}
    for path in sorted(Path(wickfock.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert set(roots) <= allowed, (path.name, node.lineno, roots)


def test_no_module_references_numpy_random():
    # the library draws its samples from the standard library's random;
    # numpy.random would add its bit generators to every run's memory
    for path in sorted(Path(wickfock.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = node.value.id if isinstance(node.value, ast.Name) else None
                found = node.attr == "random" and name in ("np", "numpy")
            elif isinstance(node, ast.Import):
                found = any(alias.name.startswith("numpy.random") for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                found = (node.module or "").startswith("numpy.random") or (
                    node.module == "numpy" and any(alias.name == "random" for alias in node.names)
                )
            else:
                continue
            assert not found, (path.name, node.lineno)


def test_only_the_algebra_builds_T_and_decides_its_layout():
    # whether T is weight-preserving, and so the layout of every level, is
    # decided once per run, by the Algebra, which builds T in that layout; a
    # Layout constructed anywhere else would decide it again (build_T's one
    # block, weight False, decides nothing), and a call of build_T would
    # place T as one dense d^2 x d^2 matrix
    for path in sorted(Path(wickfock.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {node: fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func  # a bare name, or a name of a module (not a method such as alg.layout)
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                name = f"{func.value.id}.{func.attr}"
            else:
                name = getattr(func, "id", None)
            assert name not in ("build_T", "model.build_T"), (path.name, node.lineno, name)
            if path.name != "algebra.py" and name in ("Layout", "tensorops.Layout"):
                one_block = isinstance(node.args[-1], ast.Constant) and node.args[-1].value is False
                assert (path.name, owner.get(node), one_block) == ("model.py", "build_T", True), (path.name, node.lineno)


def test_no_module_imports_a_private_name_of_tensorops():
    # the block structure is tensorops' own: another module reads it through
    # Layout and the public names, never through a private helper
    for path in sorted(Path(wickfock.__file__).parent.glob("*.py")):
        if path.name == "tensorops.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("tensorops", "wickfock.tensorops"):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert private == [], (path.name, node.lineno, private)


def test_only_the_coxeter_report_walks_the_descent_classes():
    # the walk over descent classes holds 2^n buckets, and the group sum, a
    # right-coset product, needs none of them: coxeter.descent_sums has one
    # caller, coxeter_checks, which turns the buckets into their subset sums
    # in place and drops them when it returns (the Algebra keeps none), so
    # no caller that wants P(S_{n+1}) can bring the walk back
    calls = []
    for path in sorted(Path(wickfock.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {node: fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or getattr(node.func, "attr", getattr(node.func, "id", None)) != "descent_sums":
                continue
            module = isinstance(node.func, ast.Name) or getattr(node.func.value, "id", None) == "coxeter"
            calls.append((path.name, owner.get(node), "coxeter.descent_sums" if module else "Algebra.descent_sums"))
    assert sorted(calls) == [("coxeter.py", "coxeter_checks", "coxeter.descent_sums")]
