"""Packed float64 arrays in every persisted format: checkpoint, history, kNN.

Version 2 of each format stores a float array as `fields.packed` text and
version 1 as a list of JSON numbers. Both must load to the same bits, and a
malformed array must fail with a ValueError naming its field.
"""

import base64
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentroute.baselines import KnnStore
from agentroute.fields import floats, packed
from agentroute.memory import deserialize, serialize
from agentroute.tensor import params_from_jsonable, params_to_jsonable
from graph_equality import as_v1

GOLDEN_V1 = Path(__file__).parent / "data" / "history_v1.json"

# -0.0, quiet and signalling NaNs with payloads, +-inf, the smallest and
# largest subnormals and the extremes of the normal range, as float64 bits
SPECIAL_BITS = [0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000001,
                0x7FF0000000000001, 0x7FF4DEADBEEF0000, 0x7FF0000000000000,
                0xFFF0000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF,
                0x0010000000000000, 0x7FEFFFFFFFFFFFFF]


def float_bits(n: int):
    """n float64 values drawn as raw bit patterns, specials favoured."""
    return st.lists(st.one_of(st.sampled_from(SPECIAL_BITS),
                              st.integers(0, 2 ** 64 - 1)),
                    min_size=n, max_size=n).map(
        lambda bits: np.array(bits, dtype=np.uint64).view(np.float64))


@st.composite
def arrays(draw, shape=None):
    if shape is None:
        shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    return draw(float_bits(math.prod(shape))).reshape(shape)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def stored(text: str) -> np.ndarray:
    """The array that packed text holds."""
    return floats({"x": text}, "x", "test", 2)


# -- the helper pair -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(arrays())
def test_packed_text_reads_back_bit_for_bit(a):
    got = stored(packed(a))
    assert same_bits(got, a.reshape(-1))
    assert got.flags.writeable
    assert packed(got) == packed(a)


@pytest.mark.parametrize("value", [[True, False], ["1.5", "2"], [1.0, None],
                                   [[1.0, 2.0]], [10 ** 400]],
                         ids=["booleans", "numeric-strings", "null", "nested", "huge-int"])
def test_version_1_lists_hold_only_json_numbers(value):
    with pytest.raises(ValueError, match="test: field 'e'"):
        floats({"e": value}, "e", "test", 1)


def test_version_1_lists_read_ints_and_floats():
    got = floats({"e": [1, -0.0, 2.5, 5e-324]}, "e", "test", 1)
    assert same_bits(got, np.array([1.0, -0.0, 2.5, 5e-324]))
    assert got.flags.writeable


# -- one loader per persisted format, at a v2 blob and the path to one float field -------


def checkpoint_blob(arrays_by_name: dict) -> bytes:
    return dumps(dict(params_to_jsonable(arrays_by_name), meta={"note": 1}))


def load_checkpoint(blob: bytes) -> bytes:
    """Load, then write back: the v2 bytes an accepted blob must reproduce."""
    obj = json.loads(blob)
    return checkpoint_blob(params_from_jsonable(obj))


def load_history(blob: bytes) -> bytes:
    return serialize(deserialize(blob))


def load_knn(blob: bytes) -> bytes:
    return dumps(KnnStore.from_jsonable(json.loads(blob)).to_jsonable())


def knn_blob(embeddings) -> bytes:
    store = KnnStore()
    for i, e in enumerate(embeddings):
        store.add(e, [i, 1])
    return dumps(store.to_jsonable())


CHECKPOINT = checkpoint_blob({"w": np.arange(4.0).reshape(2, 2), "b": np.ones(2)})
HISTORY = serialize(deserialize(GOLDEN_V1.read_bytes()))
KNN = knn_blob([np.array([0.5, -1.0]), np.array([0.0, 2.0])])
CHECKPOINT_V1 = as_v1(CHECKPOINT, [("tensors", "*", "data")])
HISTORY_V1 = as_v1(HISTORY)
KNN_V1 = as_v1(KNN, [("records", "*", "embedding")])
FORMATS = {
    # name: (v2 blob, its v1 twin, loader, path to one float field, what errors name)
    "checkpoint": (CHECKPOINT, CHECKPOINT_V1, load_checkpoint, ("tensors", "w", "data"),
                   "parameter 'w': field 'data'"),
    "history-query": (HISTORY, HISTORY_V1, load_history, ("queries", 1, "embedding"),
                      "graph query 1: field 'embedding'"),
    "history-response": (HISTORY, HISTORY_V1, load_history, ("responses", 3, "embedding"),
                         "graph response 3: field 'embedding'"),
    "history-hub": (HISTORY, HISTORY_V1, load_history, ("hubs", 2, "role_embedding"),
                    "graph hub 2: field 'role_embedding'"),
    "knn": (KNN, KNN_V1, load_knn, ("records", 1, "embedding"),
            "kNN record 1: field 'embedding'"),
}


def with_value(blob: bytes, path, value) -> bytes:
    obj = json.loads(blob)
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return dumps(obj)


def value_at(blob: bytes, path):
    node = json.loads(blob)
    for key in path:
        node = node[key]
    return node


def test_the_history_twin_is_the_golden_file():
    assert HISTORY_V1 == GOLDEN_V1.read_bytes()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_writers_write_version_2_and_both_versions_load_to_its_bytes(fmt):
    blob, v1, load, path, _ = FORMATS[fmt]
    assert json.loads(blob)["format_version"] == 2
    assert isinstance(value_at(blob, path), str)
    assert isinstance(value_at(v1, path), list)
    assert load(blob) == blob
    assert load(v1) == blob


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FORMATS)), st.data())
def test_any_array_round_trips_bit_for_bit_in_every_format(fmt, data):
    blob, _, load, path, _ = FORMATS[fmt]
    if fmt == "checkpoint":
        shape = tuple(data.draw(st.lists(st.integers(0, 4), max_size=3)))
        a = data.draw(arrays(shape))
        blob = with_value(blob, path[:-1], {"data": packed(a), "shape": list(shape)})
        got = params_from_jsonable(json.loads(blob))["w"]
    elif fmt == "knn":  # every record's embedding is as long as the first's
        a = data.draw(arrays((data.draw(st.integers(0, 5)),)))
        blob = with_value(blob, path, packed(a))
        blob = with_value(blob, ("records", 0, "embedding"), packed(np.zeros(a.shape)))
        got = KnnStore.from_jsonable(json.loads(blob)).embeddings[path[1]]
    else:  # a graph embedding must be as long as the others of its kind
        a = data.draw(arrays(stored(value_at(blob, path)).shape))
        blob = with_value(blob, path, packed(a))
        g = deserialize(blob)
        kind, i, _ = path
        got = (g.hubs.hubs[i].role_embedding if kind == "hubs" else
               list((g.queries if kind == "queries" else g.responses).values())[i].embedding)
    assert same_bits(got, a)
    assert got.flags.writeable
    assert load(blob) == blob


def bump_last(text: str) -> str:
    """The text with its last data character one higher: its unused trailing
    bits set, so it still decodes to as many bytes, but not canonically."""
    data = text.rstrip("=")
    return data[:-1] + chr(ord(data[-1]) + 1) + text[len(data):]


# Each is made from a field's valid text, so only the defect named can reject it.
MALFORMED = {
    "non-alphabet": lambda t: t[:5] + "$" + t[6:],
    "inner-whitespace": lambda t: t[:8] + " " + t[8:],
    "missing-padding": lambda t: t.rstrip("="),
    "extra-padding": lambda t: t + "=",
    "trailing-bits": bump_last,
    "half-a-value": lambda t: base64.b64encode(base64.b64decode(t) + bytes(4)).decode(),
    "non-ascii": lambda t: t[:5] + "\u00e9" + t[6:],
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("how", sorted(MALFORMED))
def test_malformed_packed_text_names_the_field(fmt, how):
    blob, _, load, path, name = FORMATS[fmt]
    text = value_at(blob, path)
    assert text.endswith("=")  # every field's value has unused trailing bits
    with pytest.raises(ValueError, match=name):
        load(with_value(blob, path, MALFORMED[how](text)))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("value", [None, True, 1.5, 3, {}, {"data": "AAAAAAAAAAA="}],
                         ids=["null", "true", "float", "int", "empty-object", "object"])
def test_other_json_types_name_the_field_in_both_versions(fmt, value):
    blob, v1, load, path, name = FORMATS[fmt]
    for base in (blob, v1):
        with pytest.raises(ValueError, match=name):
            load(with_value(base, path, value))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_each_version_takes_only_its_own_encoding(fmt):
    blob, v1, load, path, name = FORMATS[fmt]
    with pytest.raises(ValueError, match=name):
        load(with_value(blob, path, value_at(v1, path)))   # a list under v2
    with pytest.raises(ValueError, match=name):
        load(with_value(v1, path, value_at(blob, path)))   # text under v1


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("version", [0, 3, 99])
def test_unknown_versions_are_rejected(fmt, version):
    blob, _, load, _, _ = FORMATS[fmt]
    obj = json.loads(blob)
    obj["format_version"] = version
    with pytest.raises(ValueError, match="version"):
        load(dumps(obj))


@pytest.mark.parametrize("values, shape", [([0.0] * 5, [2, 3]), ([0.0] * 6, [3]),
                                           ([], [1]), ([0.0, 0.0], []), ([], [0, -1])])
def test_checkpoint_size_must_match_its_shape(values, shape):
    with pytest.raises(ValueError, match="parameter 'w'"):
        load_checkpoint(with_value(CHECKPOINT, ("tensors", "w"),
                                   {"data": packed(values), "shape": shape}))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FORMATS)),
       st.text(alphabet="AB+/=QgD8$ ", min_size=1, max_size=20))
def test_every_accepted_v2_blob_writes_back_byte_for_byte(fmt, tail):
    blob, _, load, path, _ = FORMATS[fmt]
    text = value_at(blob, path)
    candidate = with_value(blob, path, text[:-len(tail)] + tail)
    try:
        again = load(candidate)
    except ValueError:
        return
    assert again == candidate


# -- version-1 files ----------------------------------------------------------------------

# Written by hand as the version-1 writer wrote checkpoints: each tensor's
# values flattened in C order as JSON numbers, keys sorted.
V1_CHECKPOINT = (
    '{"format_version": 1, "meta": {"note": 1}, "tensors": {'
    '"b": {"data": [0.1, -0.0], "shape": [2]}, '
    '"s": {"data": [1.5], "shape": []}, '
    '"w": {"data": [1.0, -2.5, 5e-324, 1e-300, 0.3333333333333333, 2.5e+17], '
    '"shape": [2, 3]}}}')
V1_CHECKPOINT_ARRAYS = {
    "b": np.array([0.1, -0.0]),
    "s": np.asarray(1.5),
    "w": np.array([[1.0, -2.5, 5e-324], [1e-300, 1.0 / 3.0, 2.5e17]]),
}


def test_a_v1_checkpoint_loads_to_the_arrays_of_its_v2_twin():
    v1 = params_from_jsonable(json.loads(V1_CHECKPOINT))
    v2 = params_from_jsonable(json.loads(checkpoint_blob(V1_CHECKPOINT_ARRAYS)))
    assert sorted(v1) == sorted(v2) == sorted(V1_CHECKPOINT_ARRAYS)
    for name, want in V1_CHECKPOINT_ARRAYS.items():
        assert same_bits(v1[name], want)
        assert same_bits(v2[name], want)
        assert v1[name].flags.writeable
    assert load_checkpoint(V1_CHECKPOINT.encode()) == checkpoint_blob(V1_CHECKPOINT_ARRAYS)


@pytest.mark.parametrize("value", [[True], ["1.5"], [[1.0, -2.5, 5e-324]]],
                         ids=["boolean", "numeric-string", "nested"])
def test_a_v1_checkpoint_with_non_numbers_is_rejected(value):
    obj = json.loads(V1_CHECKPOINT)
    obj["tensors"]["b"]["data"] = value
    with pytest.raises(ValueError, match="parameter 'b': field 'data'"):
        params_from_jsonable(obj)
