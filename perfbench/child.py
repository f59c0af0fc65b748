"""Child entry point of the benchmark: one wickfock job per process.

    python3 perfbench/child.py setup SPEC...          import, load specs, build T
    python3 perfbench/child.py run -- CLI_ARGS...     wickfock.cli.main(CLI_ARGS)
    python3 perfbench/child.py trace STATS -- CLI_ARGS...
                                                      the same, traced; stats to STATS
    python3 perfbench/child.py env                    print the environment as JSON

``wickfock`` is imported from ``src/`` of the checkout that holds this file;
the child exits with code 3 if it would import another copy.  The CLI module
has no ``__main__`` guard, so ``main`` is called here explicitly and its
return value is the exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WRONG_PACKAGE = 3


def _import_wickfock() -> None:
    sys.path.insert(0, str(SRC))
    import wickfock

    if not Path(wickfock.__file__).resolve().is_relative_to(SRC):
        print(f"benchmark child: wickfock imported from {wickfock.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(WRONG_PACKAGE)


def _setup(spec_paths: list[str]) -> int:
    _import_wickfock()
    from wickfock import build_T, load_spec_file

    for path in spec_paths:
        build_T(load_spec_file(path))
    return 0


def _run(argv: list[str]) -> int:
    _import_wickfock()
    from wickfock.cli import main

    return main(argv)


def _trace(stats_path: str, argv: list[str]) -> int:
    start = time.perf_counter()
    _import_wickfock()
    import wickfock.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = wickfock.cli.main(argv)
    stats = tracer.stats()
    stats["import_s"] = import_s
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


def _openblas() -> dict:
    """Build string and default thread count of the OpenBLAS that numpy's
    wheel bundles (scipy-openblas); empty when numpy uses another BLAS."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if not libs:
        return {}
    lib = ctypes.CDLL(libs[0])
    try:
        config = lib.scipy_openblas_get_config64_
        threads = lib.scipy_openblas_get_num_threads64_
    except AttributeError:  # an OpenBLAS build with other symbol names
        return {}
    config.argtypes, config.restype = [], ctypes.c_char_p
    threads.argtypes, threads.restype = [], ctypes.c_int
    return {"config": config().decode(), "threads": threads()}


def _env() -> int:
    import platform

    import numpy

    mem_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    blas = _openblas()
    print(json.dumps({
        "nproc": os.cpu_count(),
        "mem_total_gib": round(mem_bytes / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas.get("config"),
        "openblas_threads": blas.get("threads"),
    }))
    return 0


def main(args: list[str]) -> int:
    mode = args[0]
    if mode == "setup":
        return _setup(args[1:])
    if mode == "run":
        return _run(args[args.index("--") + 1:])
    if mode == "trace":
        return _trace(args[1], args[args.index("--") + 1:])
    if mode == "env":
        return _env()
    raise SystemExit(f"benchmark child: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
