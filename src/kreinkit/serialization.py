"""JSON wire formats for matrices, spaces, groups, representations, functions.

Complex matrices travel as ``{"rows": m, "cols": n, "data": [[re, im], ...]}``
with the data flattened in row-major order.
"""

from __future__ import annotations

import dataclasses
import itertools
import numbers
from typing import TYPE_CHECKING

import numpy as np

from .groups import FiniteGroup
from .spaces import IndefiniteSpace

if TYPE_CHECKING:  # imported at call time: both modules import this one
    from .fixpoint import GroupRep
    from .qpd import GroupFunction

__all__ = [
    "report_to_json",
    "matrix_to_json",
    "matrix_from_json",
    "space_to_json",
    "space_from_json",
    "group_to_json",
    "group_from_json",
    "rep_to_json",
    "rep_from_json",
    "group_function_to_json",
    "group_function_from_json",
]


def report_to_json(report) -> dict:
    """The fields of a report dataclass as a JSON object.

    Arrays become matrix objects, nested dataclasses nested objects and
    tuples lists.  A field whose metadata maps ``"json"`` to None is left
    out; a string there renames the field's key.
    """
    out = {}
    for field in dataclasses.fields(report):
        key = field.metadata.get("json", field.name)
        if key is not None:
            out[key] = _json_value(getattr(report, field.name))
    return out


def _json_value(value):
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    if dataclasses.is_dataclass(value):
        return report_to_json(value)
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


def _pairs_to_json(values: np.ndarray) -> list:
    return np.column_stack([values.real, values.imag]).tolist()


def _pairs_from_json(data, what: str) -> np.ndarray:
    """A JSON list of finite [re, im] number pairs as a complex vector.

    Booleans are rejected: numpy would read ``true`` next to numbers as 1.
    """
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a list of [re, im] pairs")
    try:
        ragged = bool(data) and set(map(len, data)) != {2}
    except TypeError:  # an entry without a length, such as a bare number
        ragged = True
    if ragged:
        raise ValueError(f"{what} entries must be [re, im] pairs")
    flat = list(itertools.chain.from_iterable(data))
    if any(t is bool or not issubclass(t, numbers.Real) for t in set(map(type, flat))):
        raise ValueError(f"{what} entries must be [re, im] pairs of numbers")
    try:
        values = np.array(flat, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{what} has non-finite entries") from exc
    if not np.isfinite(values).all():
        raise ValueError(f"{what} has non-finite entries")
    return values.view(complex)


def matrix_to_json(m) -> dict:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    rows, cols = arr.shape
    return {"rows": int(rows), "cols": int(cols), "data": _pairs_to_json(arr.reshape(-1))}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    values = _pairs_from_json(data, "matrix JSON data")
    if rows < 0 or cols < 0 or len(values) != rows * cols:
        raise ValueError(
            f"matrix JSON claims {rows}x{cols} but carries {len(values)} entries"
        )
    return values.reshape(rows, cols)


def space_to_json(space: IndefiniteSpace) -> dict:
    return {"n_minus": space.n_minus, "n_plus": space.n_plus}


def space_from_json(obj) -> IndefiniteSpace:
    try:
        counts = obj["n_minus"], obj["n_plus"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed space JSON: {exc}") from exc
    if any(isinstance(c, bool) or not isinstance(c, numbers.Integral) for c in counts):
        raise ValueError(f"malformed space JSON: signature {counts} is not two integers")
    return IndefiniteSpace(int(counts[0]), int(counts[1]))


def group_to_json(group: FiniteGroup) -> dict:
    return {
        "order": group.order,
        "elements": list(group.elements),
        "table": group.table.tolist(),
        "identity": group.identity,
    }


def group_from_json(obj) -> FiniteGroup:
    try:
        elements = obj["elements"]
        table = obj["table"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed group JSON: {exc}") from exc
    if "order" in obj and int(obj["order"]) != len(elements):
        raise ValueError("group JSON order disagrees with the element list")
    group = FiniteGroup.from_table(elements, table)
    if "identity" in obj and int(obj["identity"]) != group.identity:
        raise ValueError("group JSON identity index disagrees with the table")
    return group


def rep_to_json(rep: GroupRep) -> dict:
    return {
        "space": space_to_json(rep.space),
        "matrices": [matrix_to_json(m) for m in rep.matrices],
    }


def rep_from_json(group: FiniteGroup, obj) -> GroupRep:
    from .fixpoint import GroupRep

    try:
        space = space_from_json(obj["space"])
        mats = [matrix_from_json(m) for m in obj["matrices"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed representation JSON: {exc}") from exc
    if len(mats) != group.order:
        raise ValueError(
            f"representation carries {len(mats)} matrices for a group of order {group.order}"
        )
    return GroupRep(group, space, np.array(mats))


def group_function_to_json(phi: GroupFunction) -> dict:
    return {"values": _pairs_to_json(phi.values)}


def group_function_from_json(group: FiniteGroup, obj) -> GroupFunction:
    from .qpd import GroupFunction

    try:
        values = obj["values"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed group-function JSON: {exc}") from exc
    return GroupFunction(group, _pairs_from_json(values, "group-function values"))
