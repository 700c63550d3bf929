"""Checked reads of parsed JSON for the persisted formats.

Every reader raises ValueError naming the offending field, so a malformed
history, checkpoint or kNN file fails the same clean way whichever field is
wrong, instead of with a KeyError or TypeError from inside a constructor.
"""

from __future__ import annotations

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


def ints(obj, key: str, where: str) -> list[int]:
    """obj[key] as a list of integers."""
    value = field(obj, key, list, where)
    if not all(_has_type(v, int) for v in value):
        raise ValueError(f"{where}: field {key!r} must hold integers only")
    return value
