"""Checked reads of parsed JSON, and the one writer of persisted artifacts.

Every reader raises ValueError naming the offending field, so a malformed
history, checkpoint, kNN or config file fails the same clean way whatever
field is wrong, not with a KeyError or TypeError from inside a constructor.

Persisted float arrays are one JSON string each: the base64 text of their
little-endian float64 bytes (`packed`). That keeps every bit, NaN payloads
and -0.0 included, and costs no float printing or parsing. Version-1 files
of each format listed the values as JSON numbers instead; `floats` reads
either, as the file's version says.
"""

from __future__ import annotations

import base64
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


def packed(a) -> str:
    """a's values, flattened in C order, as base64 text of little-endian float64."""
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


def floats(obj, key: str, where: str, version: int) -> np.ndarray:
    """obj[key] as a writable 1-D float64 array: `packed` text in a version-2
    file, a flat list of JSON numbers in a version-1 file.

    Packed text must be canonical, so that an accepted file writes back
    byte for byte: strict base64 that re-encodes to itself, of whole
    float64 values.
    """
    if version == 1:
        value = items(obj, key, NUMBER, where)
        try:
            return np.array(value, dtype=np.float64)
        except OverflowError as exc:
            raise ValueError(f"{where}: field {key!r} holds a number out of "
                             f"float64 range") from exc
    text = field(obj, key, str, where)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"{where}: field {key!r} is not base64 text") from exc
    if len(raw) % 8 or base64.b64encode(raw).decode("ascii") != text:
        raise ValueError(f"{where}: field {key!r} is not canonical packed float64 text")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


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
