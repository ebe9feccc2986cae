"""Strict JSON schemas for bases, states and Kraus sets.

Complex numbers travel as two-element [re, im] arrays; unknown fields are
rejected; every error carries the JSON-pointer path of the offending node.
Artifact files are written in a canonical form (sorted keys, exact float
round-trip), so save(load(x)) is byte-stable.
"""

from __future__ import annotations

import json
import sys
from typing import Any

import numpy as np

from .basis import FreeBasis, new_free_basis
from .errors import SchemaViolation, SuperposError
from .states import DensityMatrix, PureState


def _require_keys(obj: dict, required: set, path: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaViolation(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required:
            raise SchemaViolation(path, f"unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise SchemaViolation(path, f"missing field {key!r}")


def _parse_complex(node: Any, path: str) -> complex:
    # json reads NaN, Infinity and integers of any size; NaN fails the bound
    if (not isinstance(node, list) or len(node) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       and abs(x) <= sys.float_info.max for x in node)):
        raise SchemaViolation(path, "complex numbers must be [re, im] pairs of finite numbers")
    return complex(node[0], node[1])


def _parse_complex_vector(node: Any, path: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise SchemaViolation(path, "expected a non-empty array of [re, im] pairs")
    return np.array([_parse_complex(x, f"{path}/{i}") for i, x in enumerate(node)])


def _parse_complex_matrix(node: Any, path: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise SchemaViolation(path, "expected a non-empty array of rows")
    rows = [_parse_complex_vector(r, f"{path}/{i}") for i, r in enumerate(node)]
    width = rows[0].shape[0]
    if any(r.shape[0] != width for r in rows):
        raise SchemaViolation(path, "rows have inconsistent lengths")
    return np.stack(rows)


def _to_json(a: np.ndarray) -> list:
    """A complex array as nested lists with [re, im] pairs of floats as its entries."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def canonical_dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, exact float round-trip, newline-terminated."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": ")) + "\n"


def basis_to_json(basis: FreeBasis) -> dict:
    return {"d": basis.d, "columns": _to_json(basis.vectors.T)}


def basis_from_json(node: Any) -> FreeBasis:
    _require_keys(node, {"d", "columns"}, "/")
    d = node["d"]
    if not isinstance(d, int) or isinstance(d, bool):
        raise SchemaViolation("/d", "d must be an integer")
    if d < 2:
        raise SchemaViolation("/d", f"d must be at least 2, got {d}")
    cols = node["columns"]
    if not isinstance(cols, list) or len(cols) != d:
        raise SchemaViolation("/columns", f"expected {d} columns")
    columns = [_parse_complex_vector(c, f"/columns/{i}") for i, c in enumerate(cols)]
    for i, c in enumerate(columns):
        if c.shape[0] != d:
            raise SchemaViolation(f"/columns/{i}", f"expected {d} entries, got {c.shape[0]}")
    try:
        return new_free_basis(columns)
    except SuperposError as exc:
        raise SchemaViolation("/columns", str(exc)) from exc


def pure_state_to_json(psi: PureState) -> dict:
    return {"amp": _to_json(psi.amp)}


def density_to_json(rho: DensityMatrix) -> dict:
    return {"mat": _to_json(rho.mat)}


def state_from_json(node: Any):
    """Parse either a pure state {"amp": ...} or a mixed state {"mat": ...}."""
    if not isinstance(node, dict):
        raise SchemaViolation("/", "expected an object")
    for key, parse, kind in (("amp", _parse_complex_vector, PureState),
                             ("mat", _parse_complex_matrix, DensityMatrix)):
        if key in node:
            _require_keys(node, {key}, "/")
            data = parse(node[key], f"/{key}")
            try:
                return kind(data)
            except SuperposError as exc:
                raise SchemaViolation(f"/{key}", str(exc)) from exc
    raise SchemaViolation("/", "state must carry either 'amp' or 'mat'")


def kraus_set_from_json(node: Any) -> list[np.ndarray]:
    _require_keys(node, {"operators"}, "/")
    ops = node["operators"]
    if not isinstance(ops, list) or not ops:
        raise SchemaViolation("/operators", "expected a non-empty array of matrices")
    return [_parse_complex_matrix(k, f"/operators/{i}") for i, k in enumerate(ops)]


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaViolation(path, f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaViolation(path, f"invalid JSON: {exc}") from exc


def load_basis(path: str) -> FreeBasis:
    return basis_from_json(load_json(path))


def load_state(path: str):
    return state_from_json(load_json(path))


def load_kraus_set(path: str) -> list[np.ndarray]:
    return kraus_set_from_json(load_json(path))
