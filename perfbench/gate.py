"""Correctness gate for every wickfock report the benchmark receives.

A report passes when the process exited with the expected code, the report
exists and parses, its structural fingerprint (check names, params,
statuses, kernel dimensions, classifications) equals the one recorded in
``fingerprint.json``, and it agrees with the invocation's independent oracle.
"""

from __future__ import annotations

import json
from pathlib import Path

FINGERPRINT_FILE = Path(__file__).resolve().parent / "fingerprint.json"

KEPT_FIELDS = (
    "dim_ker_P",
    "dim_sum",
    "dim_ker_R",
    "dim_ker_1mU2",
    "dim_intersection",
    "classification",
    "reason",
)
ORACLE_RTOL = 1e-9


def _mask(params: dict, variables: dict) -> dict:
    """Params with seed-generated values replaced by ``$name``, so one
    fingerprint serves every seed; a value that differs from what the
    benchmark sent stays and shows as a mismatch."""
    return {k: (f"${k}" if k in variables and v == variables[k] else v) for k, v in params.items()}


def fingerprint(report: dict, variables: dict) -> dict:
    checks = []
    for rec in report["checks"]:
        item = {"name": rec["name"], "params": _mask(rec["params"], variables), "status": rec["status"]}
        item.update({k: rec[k] for k in KEPT_FIELDS if k in rec})
        if "hypotheses" in rec:
            item["applicable"] = rec["hypotheses"]["applicable"]
        checks.append(item)
    source = report["spec"]["source"]
    return {
        "command": report["command"],
        "parameters": _mask(report["parameters"], variables),
        "spec": {"d": report["spec"]["d"], "kind": source.get("kind"), "name": source.get("name")},
        "overall": report["overall"],
        "checks": checks,
    }


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINT_FILE.read_text(encoding="utf-8"))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ORACLE_RTOL * max(1.0, abs(b))


def oracle_problems(report: dict, oracle: dict) -> list[str]:
    problems = []
    for rec in report["checks"]:
        params = rec["params"]
        dims = oracle.get("kernel_dims")
        if dims and "dim_ker_P" in rec:
            level = params.get("level", params.get("n"))
            if rec["dim_ker_P"] != dims[level]:
                problems.append(f"{rec['name']} level {level}: dim_ker_P {rec['dim_ker_P']}, oracle {dims[level]}")
        if rec["name"] == "pn_spectrum":
            if "max_eig" in oracle and not _close(rec["max_eig"], oracle["max_eig"]):
                problems.append(f"max_eig {rec['max_eig']!r}, oracle {oracle['max_eig']!r}")
            if oracle.get("positive") and not rec["min_eig"] > 0:
                problems.append(f"min_eig {rec['min_eig']!r} not positive")
        if rec["name"] == "inner_product" and "inner" in oracle:
            want = oracle["inner"]
            for key in ("via_functional", "via_fock"):
                got = complex(rec[key]["re"], rec[key]["im"])
                if abs(got - want) > ORACLE_RTOL * max(1.0, abs(want)):
                    problems.append(f"{key} {got!r}, oracle {want!r}")
    return problems


def check(invocation, spec_path: str, report_path: Path, exit_code: int, expected: dict) -> list[str]:
    """Problems with one report; empty when it passes the gate."""
    want_code = 0 if expected["overall"] == "pass" else 1
    if exit_code != want_code:
        return [f"exit code {exit_code}, expected {want_code}"]
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"no readable report: {exc}"]
    if not isinstance(report, dict) or not report.get("checks"):
        return ["empty report"]
    try:
        if report["spec"]["source"].get("path") != spec_path:
            return [f"report is for {report['spec']['source'].get('path')!r}, not {spec_path!r}"]
        got = fingerprint(report, invocation.variables)
        problems = oracle_problems(report, invocation.oracle)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
    if got != expected:
        diff = [
            f"check {i}: {a} != {b}"
            for i, (a, b) in enumerate(zip(got["checks"], expected["checks"]))
            if a != b
        ]
        rest = {k: got[k] for k in got if k != "checks" and got[k] != expected.get(k)}
        problems.insert(0, f"fingerprint differs: {rest} {diff[:3]} ({len(got['checks'])} vs {len(expected['checks'])} checks)")
    return problems
