"""Algebra specifications: the coefficient tensor, its level-2 operator, and presets.

An algebra instance is a :class:`WickSpec`: a dimension ``d`` and a map of
coefficient quadruples ``(i, j, k, l) -> T_ij^kl`` subject to the hermitian
symmetry ``T_ij^kl == conj(T_ji^lk)``.  The single derived object built here
is the level-2 operator ``T`` on ``H (x) H`` under the canonical pair
encoding ``p = i*d + j`` (0-based): its blocks in a layout of the pairs
(:func:`T_blocks`), or the same in one dense ``d^2 x d^2`` block (:func:`build_T`).

Indices are 1-based in JSON documents and error messages, 0-based in memory;
the conversion happens only in :func:`load_spec` / :func:`to_document`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

if TYPE_CHECKING:
    from .tensorops import BlockOperator

__all__ = [
    "SpecError",
    "WickSpec",
    "load_spec",
    "load_spec_file",
    "to_document",
    "to_json",
    "preset",
    "T_blocks",
    "build_T",
    "PRESET_NAMES",
    "MAX_LEVEL_BYTES",
]

HERMITIAN_TOL = 1e-12
MAX_LEVEL_BYTES = 128 * 1024**2  # fixed guard on one complex matrix: a block, or a dense d^L x d^L

PRESET_NAMES = ("q-ccr", "qij-ccr", "example3")


class SpecError(ValueError):
    """Invalid algebra specification: malformed document, bad index, bad
    preset parameter, or a hermitian-symmetry violation."""


@dataclass(frozen=True)
class WickSpec:
    """Coefficient data of one algebra instance.

    ``coeffs`` maps 0-based quadruples ``(i, j, k, l)`` to the complex
    coefficient of ``a_l a_k*`` in the expansion of ``a_i* a_j``.  Absent
    quadruples are zero.  Instances are immutable; treat ``coeffs`` as
    read-only.
    """

    d: int
    coeffs: Mapping[tuple[int, int, int, int], complex]
    source: Mapping[str, Any] = field(default_factory=dict)

    def coeff(self, i: int, j: int, k: int, l: int) -> complex:
        """Coefficient at a 0-based quadruple (zero if absent)."""
        return self.coeffs.get((i, j, k, l), 0j)


def _as_positive_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f'"{name}" must be an integer, got {value!r}')
    if value < 1:
        raise SpecError(f'"{name}" must be positive, got {value}')
    return value


def _check_dimension(d: int) -> int:
    """Refuse a d whose T, a dense d^2 x d^2 complex matrix of 16 d^4
    bytes, would be over MAX_LEVEL_BYTES (so d <= 53); return d."""
    if 16 * d**4 > MAX_LEVEL_BYTES:
        raise SpecError(
            f"d={d}: T is one dense {d * d} x {d * d} matrix of {16 * d**4} bytes, "
            f"over the {MAX_LEVEL_BYTES} byte guard"
        )
    return d


def _as_float(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f'"{name}" must be a number, got {value!r}')
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int beyond the float range
        raise SpecError(f'"{name}" must be finite, got {value!r}')
    return float(value)


def _check_hermitian(d: int, coeffs: dict[tuple[int, int, int, int], complex]) -> None:
    """Reject coefficient maps violating T_ij^kl == conj(T_ji^lk).

    Absent entries count as zero; the offending quadruple is reported
    1-based.  The map is never silently symmetrized.
    """
    for (i, j, k, l), c in coeffs.items():
        partner = coeffs.get((j, i, l, k), 0j)
        if abs(c - partner.conjugate()) > HERMITIAN_TOL:
            raise SpecError(
                f"hermitian symmetry violated at quadruple "
                f"({i + 1},{j + 1},{k + 1},{l + 1}): coefficient {c} vs "
                f"conjugate of partner ({j + 1},{i + 1},{l + 1},{k + 1}) = "
                f"{partner.conjugate()}"
            )


def _from_coefficient_list(d: int, entries: Any) -> dict[tuple[int, int, int, int], complex]:
    if not isinstance(entries, list):
        raise SpecError('"coefficients" must be an array')
    coeffs: dict[tuple[int, int, int, int], complex] = {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SpecError(f"coefficient entry {pos} must be an object")
        if extra := set(entry) - {"i", "j", "k", "l", "re", "im"}:  # so a misspelt "re" never reads as 0
            raise SpecError(f"coefficient entry {pos}: unknown keys {sorted(map(str, extra))}")
        quad = []
        for name in ("i", "j", "k", "l"):
            if name not in entry:
                raise SpecError(f'coefficient entry {pos} is missing "{name}"')
            v = entry[name]
            if isinstance(v, bool) or not isinstance(v, int):
                raise SpecError(f'coefficient entry {pos}: "{name}" must be an integer')
            if not 1 <= v <= d:
                raise SpecError(
                    f'coefficient entry {pos}: index "{name}"={v} out of range 1..{d}'
                )
            quad.append(v - 1)
        re = _as_float(entry.get("re", 0.0), "re")
        im = _as_float(entry.get("im", 0.0), "im")
        key = tuple(quad)
        if key in coeffs:
            raise SpecError(
                f"duplicate coefficient entry for quadruple "
                f"({quad[0] + 1},{quad[1] + 1},{quad[2] + 1},{quad[3] + 1})"
            )
        coeffs[key] = complex(re, im)
    return coeffs


def _from_matrix(d: int, rows: Any) -> dict[tuple[int, int, int, int], complex]:
    """Read a d^2 x d^2 matrix given as {re, im} pairs and shuffle it back
    into the coefficient map via T_ab^cd = M[(a,d),(b,c)].

    Accepts either a nested list of d^2 rows or a flat row-major list of
    d^4 entries.
    """
    n = d * d
    if not isinstance(rows, list):
        raise SpecError('"matrix" must be an array')

    def read_pair(cell: Any, where: str) -> complex:
        if not isinstance(cell, dict) or "re" not in cell or "im" not in cell:
            raise SpecError(f'matrix entry {where} must be an object with "re" and "im"')
        if extra := set(cell) - {"re", "im"}:  # a stray key is never dropped silently
            raise SpecError(f"matrix entry {where}: unknown keys {sorted(map(str, extra))}")
        return complex(_as_float(cell["re"], "re"), _as_float(cell["im"], "im"))

    M = np.zeros((n, n), dtype=np.complex128)
    if len(rows) == n and all(isinstance(r, list) for r in rows):
        for r, row in enumerate(rows):
            if len(row) != n:
                raise SpecError(f"matrix row {r} has {len(row)} entries, expected {n}")
            for c, cell in enumerate(row):
                M[r, c] = read_pair(cell, f"({r},{c})")
    elif len(rows) == n * n:
        for p, cell in enumerate(rows):
            M[p // n, p % n] = read_pair(cell, str(p))
    else:
        raise SpecError(
            f"matrix must be {n}x{n} nested rows or a flat row-major list of "
            f"{n * n} entries, got length {len(rows)}"
        )

    coeffs: dict[tuple[int, int, int, int], complex] = {}
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    v = M[a * d + e, b * d + c]
                    if v != 0:
                        coeffs[(a, b, c, e)] = complex(v)
    return coeffs


def preset(name: str, d: int, **params: Any) -> WickSpec:
    """Build one of the documented example algebras.

    ``q-ccr``    needs ``q`` in [-1, 1]:  T e_i(x)e_j = q e_j(x)e_i.
    ``qij-ccr``  needs ``qs`` (each in (0,1)) and a symmetric ``lam`` matrix
                 with off-diagonal entries +-1:  T e_i(x)e_i = q_i e_i(x)e_i
                 and T e_j(x)e_i = lam_ij e_i(x)e_j for i != j.
    ``example3`` needs ``q`` in (-1, 1):  T e_i(x)e_i = e_i(x)e_i and
                 T e_j(x)e_i = q e_i(x)e_j for i != j.
    """
    d = _check_dimension(_as_positive_int(d, "d"))
    coeffs: dict[tuple[int, int, int, int], complex] = {}

    if name == "q-ccr":
        q = _as_float(params.pop("q", None), "q")
        if params:
            raise SpecError(f"unexpected q-ccr parameters: {sorted(params)}")
        if not -1.0 <= q <= 1.0:
            raise SpecError(f"q-ccr requires -1 <= q <= 1, got {q}")
        if q != 0.0:
            for i in range(d):
                for j in range(d):
                    coeffs[(i, j, i, j)] = complex(q)
        source = {"kind": "preset", "name": name, "params": {"q": q}}

    elif name == "qij-ccr":
        qs = params.pop("qs", None)
        if "lam" in params and "lambda" in params:
            raise SpecError('qij-ccr takes "lam" or "lambda", not both')
        lam = params.pop("lam", params.pop("lambda", None))
        if params:
            raise SpecError(f"unexpected qij-ccr parameters: {sorted(params)}")
        if not isinstance(qs, (list, tuple)) or len(qs) != d:
            raise SpecError(f'qij-ccr requires "qs" with {d} entries')
        qvals = [_as_float(v, "qs entry") for v in qs]
        for v in qvals:
            if not 0.0 < v < 1.0:
                raise SpecError(f"qij-ccr requires 0 < q_i < 1, got {v}")
        if not isinstance(lam, (list, tuple)) or len(lam) != d:
            raise SpecError(f'qij-ccr requires a {d}x{d} "lambda" matrix')
        lam_rows = []
        for r, row in enumerate(lam):
            if not isinstance(row, (list, tuple)) or len(row) != d:
                raise SpecError(f'"lambda" row {r} must have {d} entries')
            lam_rows.append([_as_float(v, "lambda entry") for v in row])
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                if lam_rows[i][j] not in (1.0, -1.0):
                    raise SpecError(
                        f"lambda[{i + 1}][{j + 1}] must be +1 or -1, got {lam_rows[i][j]}"
                    )
                if lam_rows[i][j] != lam_rows[j][i]:
                    raise SpecError(
                        f"lambda must be symmetric: lambda[{i + 1}][{j + 1}] != "
                        f"lambda[{j + 1}][{i + 1}]"
                    )
        for i in range(d):
            coeffs[(i, i, i, i)] = complex(qvals[i])
            for j in range(d):
                if i != j:
                    coeffs[(i, j, i, j)] = complex(lam_rows[i][j])
        source = {
            "kind": "preset",
            "name": name,
            "params": {"qs": qvals, "lambda": lam_rows},
        }

    elif name == "example3":
        q = _as_float(params.pop("q", None), "q")
        if params:
            raise SpecError(f"unexpected example3 parameters: {sorted(params)}")
        if not -1.0 < q < 1.0:
            raise SpecError(f"example3 requires -1 < q < 1, got {q}")
        for i in range(d):
            coeffs[(i, i, i, i)] = 1.0 + 0j
            for j in range(d):
                if i != j and q != 0.0:
                    coeffs[(i, j, i, j)] = complex(q)
        source = {"kind": "preset", "name": name, "params": {"q": q}}

    else:
        raise SpecError(f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}")

    _check_hermitian(d, coeffs)
    return WickSpec(d=d, coeffs=coeffs, source=source)


def _preset_from_document(d: int, doc: Any) -> WickSpec:
    if not isinstance(doc, dict) or "name" not in doc:
        raise SpecError('"preset" must be an object with a "name"')
    name = doc["name"]
    params = {k: v for k, v in doc.items() if k != "name"}
    return preset(name, d, **params)


def load_spec(text: str | dict) -> WickSpec:
    """Parse a JSON spec document and validate it.

    The document holds ``{"d": int}`` plus exactly one of ``"preset"``,
    ``"coefficients"`` or ``"matrix"`` (schemas in the README).  Hermitian
    symmetry is verified at tolerance 1e-12 and never repaired.
    """
    if isinstance(text, dict):
        doc = text
    else:
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise SpecError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    if "d" not in doc:
        raise SpecError('spec document is missing "d"')
    d = _check_dimension(_as_positive_int(doc["d"], "d"))

    forms = [k for k in ("preset", "coefficients", "matrix") if k in doc]
    if len(forms) != 1:
        raise SpecError(
            'spec document must contain exactly one of "preset", '
            f'"coefficients", "matrix"; found {forms or "none"}'
        )
    extra = set(doc) - {"d", "preset", "coefficients", "matrix"}
    if extra:
        raise SpecError(f"unknown top-level keys: {sorted(extra)}")

    form = forms[0]
    if form == "preset":
        return _preset_from_document(d, doc["preset"])
    if form == "coefficients":
        coeffs = _from_coefficient_list(d, doc["coefficients"])
        source: dict[str, Any] = {"kind": "coefficients"}
    else:
        coeffs = _from_matrix(d, doc["matrix"])
        source = {"kind": "matrix"}
    _check_hermitian(d, coeffs)
    return WickSpec(d=d, coeffs=coeffs, source=source)


def load_spec_file(path: str) -> WickSpec:
    """Load a spec from a JSON file, recording the path as provenance."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    spec = load_spec(text)
    source = dict(spec.source)
    source["path"] = path
    return WickSpec(d=spec.d, coeffs=spec.coeffs, source=source)


def to_document(spec: WickSpec) -> dict:
    """Serialize to the explicit-coefficients form (1-based, sorted keys).

    Round trip is exact: ``load_spec(json.dumps(to_document(s)))`` reproduces
    the coefficient map bit for bit.
    """
    entries = []
    for (i, j, k, l) in sorted(spec.coeffs):
        c = spec.coeffs[(i, j, k, l)]
        entries.append(
            {"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "re": c.real, "im": c.imag}
        )
    return {"d": spec.d, "coefficients": entries}


def to_json(spec: WickSpec) -> str:
    return json.dumps(to_document(spec), indent=2)


def T_blocks(spec: WickSpec, layout) -> list[np.ndarray]:
    """The diagonal blocks of the level-2 operator in ``layout``, a
    :class:`~wickfock.tensorops.Layout` of the pair words p = i*d + j that
    T keeps, each placed by the layout's block and position: T_ab^cd lands at row pair
    (a,d), column pair (b,c), so M[(i,j),(k,l)] = T_ik^lj.  Each block is
    checked self-adjoint (hermitian symmetry as an operator) at tolerance
    1e-12 on the 2-norm of A = m - m^H: the bound
    ||A||_2 <= sqrt(||A||_1 ||A||_inf) first, the exact 2-norm (a full SVD)
    only when the bound exceeds the tolerance, so every decision is exact."""
    d, mats = spec.d, [np.zeros((n, n), dtype=np.complex128) for n in layout.sizes.tolist()]
    block, pos = layout.block.tolist(), layout.pos.tolist()
    for (a, b, c, e), v in spec.coeffs.items():
        if v != 0:  # a zero may lie between two blocks
            mats[block[a * d + e]][pos[a * d + e], pos[b * d + c]] = v
    for m in mats:
        A = m - m.conj().T
        size = np.abs(A)
        if np.sqrt(size.sum(axis=0).max() * size.sum(axis=1).max()) > HERMITIAN_TOL:
            defect = float(np.linalg.norm(A, 2))
            if defect > HERMITIAN_TOL:
                raise SpecError(f"level-2 operator is not self-adjoint: defect {defect:.3e}")
    return mats


def build_T(spec: WickSpec) -> BlockOperator:
    """The level-2 operator as a BlockOperator of one dense block, :func:`T_blocks`
    of all d^2 pairs; a d whose T would be over MAX_LEVEL_BYTES is refused first."""
    from .tensorops import BlockOperator, Layout  # tensorops imports this module
    _check_dimension(spec.d)
    layout = Layout(spec.d, 2, False)
    return BlockOperator(layout, T_blocks(spec, layout))
