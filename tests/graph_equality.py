"""Structural graph equality for tests: nodes, edges, hub statistics, order;
and the version-1 text of a version-2 blob, which the golden files predate."""

import json

import numpy as np

from agentroute.fields import floats
from agentroute.memory import HeteroGraph


# where a serialized graph keeps its float arrays; '*' is every index
GRAPH_ARRAYS = (("hubs", "*", "role_embedding"), ("queries", "*", "embedding"),
                ("responses", "*", "embedding"))


def as_v1(blob: bytes, paths=GRAPH_ARRAYS) -> bytes:
    """A version-2 blob as the version-1 writer would have written it: the
    packed arrays at paths ('*' for every key or index) listed as JSON
    numbers. By default the blob is a serialized graph."""
    obj = json.loads(blob)
    assert obj["format_version"] == 2
    obj["format_version"] = 1

    def walk(node, path):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in (keys if path[0] == "*" else [path[0]]):
            if len(path) > 1:
                walk(node[key], path[1:])
            else:
                node[key] = floats(node, key, "blob", 2).tolist()

    for path in paths:
        walk(obj, path)
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def graphs_equal(a: HeteroGraph, b: HeteroGraph) -> bool:
    """Structural equality: nodes, edges, hub statistics, insertion order."""
    if a.kind != b.kind or a.capacity != b.capacity:
        return False
    if list(a.queries) != list(b.queries) or list(a.responses) != list(b.responses):
        return False
    if a.episode_order != b.episode_order:
        return False
    for ha, hb in zip(a.hubs.hubs, b.hubs.hubs):
        if (ha.role_index, ha.model_index, ha.role_name, ha.model_name) != \
           (hb.role_index, hb.model_index, hb.role_name, hb.model_name):
            return False
        if ha.utility_ema != hb.utility_ema or ha.cost_ema != hb.cost_ema:
            return False
        if not np.array_equal(ha.role_embedding, hb.role_embedding):
            return False
    for qa, qb in zip(a.queries.values(), b.queries.values()):
        if (qa.id, qa.depth, qa.parent, qa.family, qa.status, qa.is_summary,
                qa.width_hint, qa.answer_id) != \
           (qb.id, qb.depth, qb.parent, qb.family, qb.status, qb.is_summary,
                qb.width_hint, qb.answer_id):
            return False
        if not np.array_equal(qa.embedding, qb.embedding):
            return False
    for ra, rb in zip(a.responses.values(), b.responses.values()):
        if (ra.id, ra.produced_by, ra.tokens_in, ra.tokens_out, ra.quality) != \
           (rb.id, rb.produced_by, rb.tokens_in, rb.tokens_out, rb.quality):
            return False
        if not np.array_equal(ra.embedding, rb.embedding):
            return False
    return a.edges == b.edges
