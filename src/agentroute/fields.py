"""Checked reads of parsed JSON, and the one writer of persisted artifacts.

Every reader raises ValueError naming the offending field, so a malformed
history, checkpoint, kNN or config file fails the same clean way whatever
field is wrong, not with a KeyError or TypeError from inside a constructor.
"""

from __future__ import annotations

import os

import numpy as np

NUMBER = (int, float)


def _has_type(value, types) -> bool:
    """isinstance(value, types), except that a JSON true/false is not a number:
    bool subclasses int, and would otherwise pass as a count, index or shape."""
    if isinstance(value, bool):
        return bool in (types if isinstance(types, tuple) else (types,))
    return isinstance(value, types)


def field(obj, key: str, types, where: str):
    """obj[key], after checking that obj is an object whose key has one of types."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not _has_type(value, types):
        raise ValueError(f"{where}: field {key!r} has the wrong type "
                         f"({type(value).__name__})")
    return value


def floats(obj, key: str, where: str) -> np.ndarray:
    """obj[key] as a float64 array; nested lists must be rectangular numbers."""
    value = field(obj, key, list, where)
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: field {key!r} is not a numeric array") from exc


def items(obj, key: str, types, where: str) -> list:
    """obj[key] as a list whose every item has one of types."""
    value = field(obj, key, list, where)
    if not all(_has_type(v, types) for v in value):
        raise ValueError(f"{where}: field {key!r} holds an item of the wrong type")
    return value


def write_atomic(path, data: str | bytes) -> None:
    """Replace path by way of a temporary sibling: a failed write leaves it whole."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data.encode() if isinstance(data, str) else data)
    os.replace(tmp, path)
