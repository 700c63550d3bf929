"""Graph store tests: construction, eviction, consolidation, persistence."""

import copy
import dataclasses
import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from agentroute.memory import (
    EDGE_QUERY_HUB,
    EDGE_QUERY_PARENT,
    EDGE_QUERY_RESPONSE,
    EDGE_RESPONSE_HUB,
    STATUS_PENDING,
    STATUS_RESOLVED,
    HeteroGraph,
    HubSet,
    QueryNode,
    ResponseNode,
    RoleHubNode,
    add_summary_query,
    attach_response,
    attach_subqueries,
    clone_workflow,
    consolidate,
    copy_hub_stats,
    deserialize,
    new_workflow,
    rebase_history,
    serialize,
    update_hub_stats,
)
from agentroute.backend import BenchmarkSpec, make_benchmark
from agentroute.baselines import KnnStore
from agentroute.harness import inject_role_interactions
from agentroute.fields import packed
from agentroute.tensor import params_from_jsonable, params_to_jsonable
from graph_equality import as_v1, graphs_equal

DIM = 4


def make_hubs(n_roles=3, n_models=2, dim=DIM):
    rng = np.random.default_rng(7)
    hubs = []
    for r in range(n_roles):
        for m in range(n_models):
            hubs.append(RoleHubNode(
                role_index=r, model_index=m,
                role_name=f"role{r}", model_name=f"model{m}",
                role_embedding=rng.normal(size=dim)))
    return HubSet(hubs, n_roles=n_roles, n_models=n_models)


def query(qid, depth=0, parent=None, family=0, **kw):
    rng = np.random.default_rng(abs(hash(qid)) % (2 ** 32))
    return QueryNode(id=qid, embedding=rng.normal(size=DIM), depth=depth,
                     parent=parent, family=family, **kw)


def response(rid, role=1, model=0, quality=0.8):
    rng = np.random.default_rng(abs(hash(rid)) % (2 ** 32))
    return ResponseNode(id=rid, embedding=rng.normal(size=DIM),
                        produced_by=(role, model), tokens_in=100,
                        tokens_out=50, quality=quality)


def small_workflow(hubs=None):
    """Root + answer + two children, one child answered."""
    g = new_workflow(query("q0"), hubs if hubs is not None else make_hubs())
    attach_subqueries(g, "q0", [query("q1", depth=1, parent="q0"),
                                query("q2", depth=1, parent="q0")])
    attach_response(g, "q1", response("r1"), answers=True)
    attach_response(g, "q0", response("r0"), answers=True)
    return g


# -- hub set -------------------------------------------------------------------


def test_hubset_requires_full_grid():
    hubs = make_hubs().hubs
    with pytest.raises(ValueError):
        HubSet(hubs[:-1], n_roles=3, n_models=2)


def test_hubset_requires_role_major_order():
    hubs = make_hubs().hubs
    hubs[0], hubs[1] = hubs[1], hubs[0]
    with pytest.raises(ValueError):
        HubSet(hubs, n_roles=3, n_models=2)


def test_hub_index_layout():
    hs = make_hubs(n_roles=3, n_models=2)
    assert hs.index(0, 0) == 0
    assert hs.index(0, 1) == 1
    assert hs.index(2, 1) == 5
    with pytest.raises(ValueError):
        hs.index(3, 0)
    with pytest.raises(ValueError):
        hs.index(0, 2)


def test_hub_features_append_stats():
    hs = make_hubs()
    hub = hs.get(1, 1)
    hub.utility_ema = 0.25
    hub.cost_ema = 3.5
    feats = hs.features()
    assert feats.shape == (6, DIM + 2)
    row = feats[hs.index(1, 1)]
    assert np.array_equal(row[:DIM], hub.role_embedding)
    assert row[-2] == 0.25 and row[-1] == 3.5


# -- construction ----------------------------------------------------------------


def test_new_workflow_counts():
    # One root query over a 3-role, 2-model grid: 6 hubs, 6 query-hub edges.
    g = new_workflow(query("q0"), make_hubs())
    assert len(g.queries) == 1
    assert len(g.hubs) == 6
    assert len(g.edges[EDGE_QUERY_HUB]) == 6
    frozen = g.freeze()
    assert (frozen.n_hubs, frozen.n_queries, frozen.n_responses) == (6, 1, 0)
    # undirected edges are stored in both directions
    assert len(frozen.edge_src) == 12


def test_new_workflow_rejects_non_root():
    with pytest.raises(ValueError):
        new_workflow(query("q0", depth=1), make_hubs())
    with pytest.raises(ValueError):
        new_workflow(query("q0", parent="zz"), make_hubs())
    for changes in ({"status": STATUS_RESOLVED}, {"answer_id": "r0"}):
        with pytest.raises(ValueError):
            new_workflow(query("q0", **changes), make_hubs())


def test_duplicate_query_rejected():
    g = new_workflow(query("q0"), make_hubs())
    with pytest.raises(ValueError):
        g.add_query(query("q0"))


def test_add_response_validates():
    g = new_workflow(query("q0"), make_hubs())
    with pytest.raises(ValueError):
        g.add_response("nope", response("r0"), answers=False)
    with pytest.raises(ValueError):
        g.add_response("q0", response("r0", role=9), answers=False)
    g.add_response("q0", response("r0"), answers=True)
    with pytest.raises(ValueError):
        g.add_response("q0", response("r0"), answers=False)  # duplicate id
    with pytest.raises(ValueError):
        g.add_response("q0", response("r2"), answers=True)  # second answer


def test_attach_subqueries_contract():
    g = new_workflow(query("q0"), make_hubs())
    ids = attach_subqueries(g, "q0", [query("a", depth=1, parent="q0"),
                                      query("b", depth=1, parent="q0")])
    assert ids == ["a", "b"]
    assert g.child_ids["q0"] == ("a", "b")
    with pytest.raises(ValueError):
        attach_subqueries(g, "q0", [])
    with pytest.raises(ValueError):
        attach_subqueries(g, "q0", [query("c", depth=2, parent="q0")])
    with pytest.raises(ValueError):
        attach_subqueries(g, "q0", [query("c", depth=1, parent="b")])
    with pytest.raises(ValueError):
        attach_subqueries(g, "q0", [query("c", depth=1, parent="q0")],
                          width_limit=2)
    with pytest.raises(ValueError):
        attach_subqueries(g, "missing", [query("c", depth=1, parent="missing")])


def test_attach_response_resolution():
    g = new_workflow(query("q0"), make_hubs())
    assert g.queries["q0"].status == STATUS_PENDING
    attach_response(g, "q0", response("r0"), answers=True)
    assert g.queries["q0"].status == STATUS_RESOLVED
    assert g.queries["q0"].answer_id == "r0"
    with pytest.raises(ValueError):
        attach_response(g, "q0", response("r1"), answers=True)
    # non-answer attachments to a resolved query are fine (summaries)
    attach_response(g, "q0", response("r1"), answers=False)
    assert g.response_ids["q0"] == ("r0", "r1")


def test_attach_subqueries_requires_pending_parent():
    g = new_workflow(query("q0"), make_hubs())
    attach_response(g, "q0", response("r0"), answers=True)
    with pytest.raises(ValueError):
        attach_subqueries(g, "q0", [query("a", depth=1, parent="q0")])


def test_summary_query_flag_required():
    g = new_workflow(query("q0"), make_hubs())
    with pytest.raises(ValueError):
        add_summary_query(g, "q0", query("s", depth=1, parent="q0"))
    add_summary_query(g, "q0", query("s", depth=1, parent="q0", is_summary=True))
    assert g.queries["s"].is_summary


def test_freeze_node_positions():
    g = new_workflow(query("q0"), make_hubs())
    attach_response(g, "q0", response("r0", role=2, model=1), answers=True)
    frozen = g.freeze()
    # global order is [hubs, queries, responses]: q0 at 6, r0 at 7
    pairs = set(zip(frozen.edge_src.tolist(), frozen.edge_dst.tolist()))
    assert (6, 7) in pairs and (7, 6) in pairs  # query-response
    assert (7, 5) in pairs  # response to hub (2, 1) = index 5
    for i in range(6):
        assert (6, i) in pairs  # query to every hub


# -- hub statistics ----------------------------------------------------------------


def test_update_hub_stats_ema():
    hub = make_hubs().get(0, 0)
    update_hub_stats(hub, 1.0, 10.0, decay=0.9)
    assert hub.utility_ema == pytest.approx(0.1, abs=1e-12)
    assert hub.cost_ema == pytest.approx(1.0, abs=1e-12)
    update_hub_stats(hub, 0.5, 0.0, decay=0.9)
    assert hub.utility_ema == pytest.approx(0.14, abs=1e-12)
    assert hub.cost_ema == pytest.approx(0.9, abs=1e-12)


def test_update_hub_stats_validation():
    hub = make_hubs().get(0, 0)
    with pytest.raises(ValueError):
        update_hub_stats(hub, 1.5, 0.0)
    with pytest.raises(ValueError):
        update_hub_stats(hub, 0.5, -1.0)
    with pytest.raises(ValueError):
        update_hub_stats(hub, 0.5, 1.0, decay=1.0)


# -- consolidation and eviction ------------------------------------------------------


def test_consolidate_renames_and_shares_hubs():
    hubs = make_hubs()
    wf = new_workflow(query("q0"), hubs)
    attach_subqueries(wf, "q0", [query("q1", depth=1, parent="q0")])
    attach_response(wf, "q1", response("r1"), answers=True)
    hist = HeteroGraph("history", hubs)
    tag = consolidate(wf, hist)
    assert tag == "ep0"
    assert set(hist.queries) == {"ep0/q0", "ep0/q1"}
    assert set(hist.responses) == {"ep0/r1"}
    assert hist.queries["ep0/q1"].parent == "ep0/q0"
    assert hist.queries["ep0/q1"].answer_id == "ep0/r1"
    assert hist.queries["ep0/q1"].status == STATUS_RESOLVED
    assert hist.hubs is hubs
    # no dedup: consolidating again appends a second copy
    assert consolidate(wf, hist) == "ep1"
    assert hist.interaction_count == 6
    assert hist.episode_order == ["ep0", "ep1"]


def test_consolidate_requires_shared_hubs():
    wf = new_workflow(query("q0"), make_hubs())
    hist = HeteroGraph("history", make_hubs())
    with pytest.raises(ValueError):
        consolidate(wf, hist)


def test_consolidate_kind_check():
    hubs = make_hubs()
    wf = new_workflow(query("q0"), hubs)
    other = new_workflow(query("p0"), hubs)
    with pytest.raises(ValueError):
        consolidate(wf, other)


def test_eviction_drops_whole_oldest_episode():
    hubs = make_hubs()
    hist = HeteroGraph("history", hubs, capacity=8)
    for i in range(3):
        wf = new_workflow(query(f"g{i}"), hubs)
        attach_subqueries(wf, f"g{i}", [query(f"g{i}c", depth=1, parent=f"g{i}")])
        attach_response(wf, f"g{i}c", response(f"g{i}r"), answers=True)
        consolidate(wf, hist)  # 3 nodes per episode
    assert hist.episode_order == ["ep1", "ep2"]
    assert hist.interaction_count == 6
    assert "ep0/g0" not in hist.queries
    # no dangling edges survive eviction
    for qid, _ in hist.edges[EDGE_QUERY_HUB]:
        assert qid in hist.queries
    for rid, _ in hist.edges[EDGE_RESPONSE_HUB]:
        assert rid in hist.responses
    for qid, rid in hist.edges[EDGE_QUERY_RESPONSE]:
        assert qid in hist.queries and rid in hist.responses


def test_eviction_truncates_single_oversized_episode():
    hubs = make_hubs()
    hist = HeteroGraph("history", hubs, capacity=4)
    wf = new_workflow(query("q0"), hubs)
    attach_subqueries(wf, "q0", [query(f"q{i}", depth=1, parent="q0")
                                 for i in range(1, 6)])
    consolidate(wf, hist)
    assert hist.interaction_count == 4
    assert hist.episode_order == ["ep0"]


def test_new_episode_tag_history_only():
    wf = new_workflow(query("q0"), make_hubs())
    with pytest.raises(ValueError):
        wf.new_episode_tag()
    hist = HeteroGraph("history", make_hubs())
    assert hist.new_episode_tag() == "ep0"
    assert hist.new_episode_tag() == "ep1"
    assert hist.episode_order == ["ep0", "ep1"]


def test_eviction_reaches_capacity_with_untagged_nodes():
    hist = HeteroGraph("history", make_hubs(), capacity=3)
    for i in range(5):
        hist.add_query(query(f"u{i}"))
    hist.enforce_capacity()
    assert list(hist.queries) == ["u2", "u3", "u4"]


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                      max_size=8),
       capacity=st.integers(min_value=2, max_value=12))
def test_capacity_invariant_holds(sizes, capacity):
    hubs = make_hubs()
    hist = HeteroGraph("history", hubs, capacity=capacity)
    for i, n_children in enumerate(sizes):
        wf = new_workflow(query(f"w{i}"), hubs)
        if n_children > 1:
            attach_subqueries(wf, f"w{i}",
                              [query(f"w{i}c{j}", depth=1, parent=f"w{i}")
                               for j in range(n_children - 1)])
        consolidate(wf, hist)
        assert hist.interaction_count <= capacity


# -- cloning and rebasing ------------------------------------------------------------


def test_clone_workflow_is_independent():
    g = small_workflow()
    c = clone_workflow(g)
    attach_response(c, "q2", response("r2"), answers=True)
    assert "r2" in c.responses and "r2" not in g.responses
    assert g.queries["q2"].status == STATUS_PENDING
    assert c.queries["q2"].status == STATUS_RESOLVED
    assert c.hubs is g.hubs


def test_clone_workflow_rejects_history():
    hist = HeteroGraph("history", make_hubs())
    with pytest.raises(ValueError):
        clone_workflow(hist)


def test_copy_hub_stats_requires_cover():
    small = make_hubs(n_roles=3, n_models=2)
    big = make_hubs(n_roles=5, n_models=2)
    small.get(1, 1).utility_ema = 0.7
    copy_hub_stats(small, big)
    assert big.get(1, 1).utility_ema == 0.7
    with pytest.raises(ValueError):
        copy_hub_stats(big, small)


def test_rebase_history_regenerates_hub_edges():
    hubs = make_hubs(n_roles=3, n_models=2)
    hist = HeteroGraph("history", hubs, capacity=50)
    wf = new_workflow(query("q0"), hubs)
    attach_response(wf, "q0", response("r0", role=2, model=1), answers=True)
    consolidate(wf, hist)
    hubs.get(2, 1).utility_ema = 0.4

    big = make_hubs(n_roles=5, n_models=2)
    out = rebase_history(hist, big)
    assert out.hubs is big
    assert big.get(2, 1).utility_ema == 0.4
    assert set(out.queries) == set(hist.queries)
    assert set(out.responses) == set(hist.responses)
    # every surviving query now touches all 10 hubs, and the response edge
    # points at the recomputed hub index under the wider grid
    assert len(out.edges[EDGE_QUERY_HUB]) == 10
    assert out.edges[EDGE_RESPONSE_HUB] == [("ep0/r0", big.index(2, 1))]
    assert out.episode_order == hist.episode_order
    assert out._episode_counter == hist._episode_counter


def test_rebase_history_rejects_workflow():
    with pytest.raises(ValueError):
        rebase_history(small_workflow(), make_hubs())


# -- persistence ------------------------------------------------------------------


def build_history_for_io():
    hubs = make_hubs()
    hist = HeteroGraph("history", hubs, capacity=64)
    for i in range(2):
        wf = new_workflow(query(f"io{i}"), hubs)
        attach_subqueries(wf, f"io{i}", [query(f"io{i}c", depth=1,
                                               parent=f"io{i}")])
        attach_response(wf, f"io{i}c", response(f"io{i}r", role=i, model=1),
                        answers=True)
        update_hub_stats(hubs.get(i, 1), 0.5 + 0.1 * i, 2.0 * i + 1.0)
        consolidate(wf, hist)
    return hist


def test_serialize_roundtrip_structural_equality():
    hist = build_history_for_io()
    clone = deserialize(serialize(hist))
    assert graphs_equal(hist, clone)
    assert clone is not hist
    # freezing both gives identical arrays
    a, b = hist.freeze(), clone.freeze()
    for name in ("hub_feats", "query_feats", "response_feats", "edge_src",
                 "edge_dst"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_serialize_is_deterministic():
    assert serialize(build_history_for_io()) == serialize(build_history_for_io())


def test_deserialize_rejects_bad_version():
    blob = json.loads(serialize(build_history_for_io()).decode())
    blob["format_version"] = 99
    with pytest.raises(ValueError):
        deserialize(json.dumps(blob).encode())


def test_deserialize_rejects_garbage():
    with pytest.raises(ValueError):
        deserialize(b"\x00\xffnot json")
    with pytest.raises(ValueError):
        deserialize(b'{"truncated": tru')


def valid_blobs():
    """One valid serialized blob per persisted format, with its loader."""
    store = KnnStore()
    store.add(np.array([0.5, -1.0]), [1, 0, 2])
    store.add(np.array([0.0, 2.0]), [3])
    params = {"a.W": np.arange(6.0).reshape(2, 3), "b": np.array([0.25]),
              "c": np.asarray(1.5)}
    return {
        "graph": (serialize(build_history_for_io()), deserialize),
        "params": (json.dumps(params_to_jsonable(params)).encode(),
                   lambda b: params_from_jsonable(json.loads(b))),
        "knn": (json.dumps(store.to_jsonable()).encode(),
                lambda b: KnnStore.from_jsonable(json.loads(b))),
    }


BLOBS = valid_blobs()
JSON_VALUES = st.sampled_from([None, True, 0, -1, 7, 1.5, 1e308, "", "x",
                               [], {}, [1, "a"], [[1.0, 2.0], [3.0]], [None],
                               {"a": 1}, [{"b": [2]}]])


def mutated(blob: bytes, data) -> bytes:
    """Truncate, flip one byte, or delete/replace one value in the JSON tree."""
    how = data.draw(st.sampled_from(["truncate", "flip", "delete", "replace"]))
    if how == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    if how == "flip":
        pos = data.draw(st.integers(0, len(blob) - 1))
        return blob[:pos] + bytes([data.draw(st.integers(0, 255))]) + blob[pos + 1:]
    root = {"root": json.loads(blob)}
    parent, key = root, "root"
    while isinstance(parent[key], (dict, list)) and parent[key] \
            and data.draw(st.integers(0, 4)) > 0:
        node = parent[key]
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(list(keys)))
    if how == "delete" and parent is not root:
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)
    return json.dumps(root["root"]).encode()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(BLOBS)), st.data())
def test_malformed_blobs_raise_only_value_error(fmt, data):
    blob, load = BLOBS[fmt]
    try:
        load(mutated(blob, data))
    except ValueError:
        pass


@pytest.mark.parametrize("fmt, path", [
    ("params", ("tensors", "b", "shape", 0)),
    ("graph", ("responses", 0, "produced_by", 0)),
    ("graph", ("n_roles",)),
    ("knn", ("records", 0, "actions", 0)),
])
def test_json_booleans_are_not_integers(fmt, path):
    blob, load = BLOBS[fmt]
    obj = json.loads(blob)
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = True
    with pytest.raises(ValueError):
        load(json.dumps(obj).encode())


def _set_produced_by(value):
    def change(blob):
        blob["responses"][0]["produced_by"] = value
    return change


@pytest.mark.parametrize("change, name", [
    (_set_produced_by([1]), "produced_by"),
    (_set_produced_by([0, 1, 2]), "produced_by"),
    (_set_produced_by([9, 9]), "produced_by"),
    (lambda blob: blob["edges"][EDGE_QUERY_HUB].append(["nope", 0]), EDGE_QUERY_HUB),
    (lambda blob: blob["edges"][EDGE_QUERY_HUB].pop(3), EDGE_QUERY_HUB),
    (lambda blob: blob["edges"][EDGE_QUERY_RESPONSE].reverse(), EDGE_QUERY_RESPONSE),
], ids=["produced_by-one", "produced_by-three", "produced_by-out-of-range",
        "dangling-query-hub", "dropped-query-hub", "swapped-query-response"])
def test_deserialize_rejects_structure_the_nodes_do_not_imply(change, name):
    blob = json.loads(serialize(build_history_for_io()))
    assert len(blob["edges"][EDGE_QUERY_RESPONSE]) == 2
    change(blob)
    with pytest.raises(ValueError, match=name):
        deserialize(json.dumps(blob, sort_keys=True).encode())


# A history written by the stored-edge-list implementation of format v1: the
# criterion-10 pool and TrainConfig(max_episodes=24, episodes_per_update=8,
# hidden=16, seed=0, history_capacity=10), then one hand-built 13-node episode
# (three children, a grandchild, a context response, a summary) consolidated
# into it, which evicts the trained episodes and truncates to its last 10
# nodes, so some responses and one child have lost their query or parent.
GOLDEN_V1 = Path(__file__).parent / "data" / "history_v1.json"
GOLDEN_V1_FROZEN_SHA256 = \
    "4a09f7b9bf443be86e4e837bb7c694b170f15315f945f459ba98080683362836"
# the same graph as the version-2 writer writes it
GOLDEN_V2_SHA256 = \
    "5a796f0c93774585589daa348fd00320c1ddd9bd6363881ae651fb483a17f287"


def test_golden_v1_history_round_trips_and_freezes_unchanged():
    blob = GOLDEN_V1.read_bytes()
    g = deserialize(blob)
    assert as_v1(serialize(g)) == blob
    assert hashlib.sha256(serialize(g)).hexdigest() == GOLDEN_V2_SHA256
    frozen = g.freeze()
    h = hashlib.sha256()
    for name in ("hub_feats", "query_feats", "response_feats", "edge_src", "edge_dst"):
        a = np.ascontiguousarray(getattr(frozen, name))
        h.update(f"{name}{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    assert h.hexdigest() == GOLDEN_V1_FROZEN_SHA256


@pytest.mark.parametrize("version, value", [
    (1, lambda values: values[:-1]), (1, lambda values: [[1.0, 2.0]]),
    (2, lambda values: packed(values[:-1])),
], ids=["v1-short", "v1-nested", "v2-short"])
@pytest.mark.parametrize("kind, key, i, where", [
    ("queries", "embedding", 2, "graph query 2"),
    ("responses", "embedding", 4, "graph response 4"),
    ("hubs", "role_embedding", 5, "graph hub 5"),
])
def test_deserialize_rejects_ragged_or_nested_embeddings(version, value, kind, key, i, where):
    """Each embedding is a flat array as long as the others of its node kind;
    otherwise hub_state and freeze would fail later, naming no field."""
    v1 = GOLDEN_V1.read_bytes()
    blob = json.loads(v1 if version == 1 else serialize(deserialize(v1)))
    blob[kind][i][key] = value(json.loads(v1)[kind][i][key])
    with pytest.raises(ValueError, match=f"{where}: field '{key}'"):
        deserialize(json.dumps(blob, sort_keys=True).encode())


# -- graph invariants under random operation sequences ---------------------------------

BENCH = make_benchmark(BenchmarkSpec(kind="uniform", families=(0, 1), queries_per_family=30,
                                     width_profile=(1, 2), seed=8), k_models=3)


def random_episode(hubs, rng, n):
    """A finished-looking workflow over `hubs`: root, 0-2 children, responses."""
    root = BENCH.train_query(n)
    wf = new_workflow(root, hubs)
    children = BENCH.decompose(root, int(rng.integers(1, 3))) if rng.uniform() < 0.6 else []
    if children:
        attach_subqueries(wf, root.id, children)
    for q in children + [root]:
        for j in range(int(rng.integers(0, 3))):
            role, model = int(rng.integers(hubs.n_roles)), int(rng.integers(hubs.n_models))
            out = BENCH.invoke(min(model, BENCH.n_models - 1), role, q, [])
            attach_response(wf, q.id, ResponseNode(f"{q.id}.r{j}", out.response_embedding,
                                                   (role, model), out.tokens_in,
                                                   out.tokens_out, out.quality),
                            answers=j == 0)
    return wf


def reference_edge_arrays(g):
    """The frozen edge arrays, restated from `edges` with one link per edge."""
    qpos = {qid: len(g.hubs) + i for i, qid in enumerate(g.queries)}
    rpos = {rid: len(g.hubs) + len(qpos) + i for i, rid in enumerate(g.responses)}
    src, dst = [], []

    def link(a, b):
        src.extend((a, b))
        dst.extend((b, a))

    edges = g.edges
    for qid, hub_idx in edges[EDGE_QUERY_HUB]:
        if qid in qpos:
            link(qpos[qid], hub_idx)
    for rid, hub_idx in edges[EDGE_RESPONSE_HUB]:
        if rid in rpos:
            link(rpos[rid], hub_idx)
    for qid, rid in edges[EDGE_QUERY_RESPONSE]:
        if qid in qpos and rid in rpos:
            link(qpos[qid], rpos[rid])
    for child, parent, _ in edges[EDGE_QUERY_PARENT]:
        if child in qpos and parent in qpos:
            link(qpos[child], qpos[parent])
    return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


def assert_graph_invariants(g, capacity):
    assert g.interaction_count <= capacity
    edges, H = g.edges, len(g.hubs)
    assert len(edges[EDGE_QUERY_HUB]) == len(g.queries) * H
    assert all(q in g.queries and 0 <= i < H for q, i in edges[EDGE_QUERY_HUB])
    assert all(r in g.responses and 0 <= i < H for r, i in edges[EDGE_RESPONSE_HUB])
    assert all(q in g.queries and r in g.responses for q, r in edges[EDGE_QUERY_RESPONSE])
    assert all(c in g.queries and p in g.queries for c, p, _ in edges[EDGE_QUERY_PARENT])
    # the surviving episodes are the most recent ones, without gaps
    tags = sorted({g.episode_of[n] for n in [*g.queries, *g.responses]},
                  key=lambda t: int(t[2:]))
    n = g._episode_counter
    assert tags == [f"ep{i}" for i in range(n - len(tags), n)] == g.episode_order
    blob = serialize(g)
    assert serialize(deserialize(blob)) == blob
    frozen = g.freeze()
    assert (frozen.n_queries, frozen.n_responses) == (len(g.queries), len(g.responses))
    src, dst = reference_edge_arrays(g)
    assert frozen.edge_src.dtype == frozen.edge_dst.dtype == np.int64
    assert np.array_equal(frozen.edge_src, src) and np.array_equal(frozen.edge_dst, dst)
    # no edge joins two hubs, so the encoder's hub-only message rule drops none
    assert not np.any((frozen.edge_src < frozen.n_hubs) & (frozen.edge_dst < frozen.n_hubs))


def scan_enforce_capacity(g):
    """`HeteroGraph.enforce_capacity` restated with a scan of `episode_of` for
    each evicted episode, as it once ran."""
    while g.interaction_count > g.capacity and len(g.episode_order) > 1:
        ep = g.episode_order.pop(0)
        g._drop_nodes({nid for nid, e in g.episode_of.items() if e == ep})
    excess = g.interaction_count - g.capacity
    if excess > 0:
        g._drop_nodes(set([*g.queries, *g.responses][:excess]))


@settings(max_examples=60, deadline=None)
@given(capacity=st.integers(1, 12),
       ops=st.lists(st.tuples(st.sampled_from(["consolidate", "inject", "enforce", "rebase"]),
                              st.integers(0, 2 ** 16)), min_size=1, max_size=8))
def test_graph_invariants_hold_under_random_operations(capacity, ops):
    hist = HeteroGraph("history", make_hubs(3, BENCH.n_models), capacity=capacity)
    for op, seed in ops:
        rng = np.random.default_rng(seed)
        if op == "consolidate":
            episode = random_episode(hist.hubs, rng, seed)
            # the indexed eviction dooms what a scan of every tag would
            twin, twin_episode = copy.deepcopy((hist, episode))  # one hub set
            with mock.patch.object(HeteroGraph, "enforce_capacity",
                                   scan_enforce_capacity):
                consolidate(twin_episode, twin)
            consolidate(episode, hist)
            assert serialize(hist) == serialize(twin)
            assert_indexes_are_a_scan(hist)
        elif op == "inject":
            inject_role_interactions(BENCH, hist, n_queries=int(rng.integers(1, 3)),
                                     query_offset=seed)
        elif op == "enforce":
            before = serialize(hist)
            hist.enforce_capacity()
            assert serialize(hist) == before  # already within capacity
        else:  # a wider hub set shifts every hub index
            hist = rebase_history(hist, make_hubs(min(5, hist.hubs.n_roles + 1),
                                                  hist.hubs.n_models + 1))
        assert_graph_invariants(hist, capacity)


# -- decision states and indexes under random operations ----------------------------------

STATE_OPS = ("children", "response", "summary", "clone", "consolidate", "inject", "ema",
             "rebase", "read", "drop", "deserialize", "deepcopy")
INDEX_OPS = ("children", "response", "summary", "clone", "consolidate", "rebase",
             "deserialize")


class RandomGraphs:
    """A capped history graph and workflows over its hub set, changed by named
    operations; query, response and hub embeddings have the widths in `dims`.
    Where queries and responses share a width the simulator can make (3 or
    more), `inject` writes `inject_role_interactions`' demonstrations, one
    episode per query, across several hub columns."""

    def __init__(self, roles, models, dims, capacity):
        self.d_q, self.d_r, self.d_hub = dims
        self.ids = iter(range(10 ** 6))
        rng = np.random.default_rng(0)
        self.hist = HeteroGraph("history", make_hubs(roles, models, self.d_hub),
                                capacity=capacity)
        self.wfs = [self.fresh_workflow(rng)]
        self.bench = (make_benchmark(BENCH.spec, k_models=models, d_q=self.d_q)
                      if self.d_q == self.d_r >= 3 else None)

    @property
    def graphs(self):
        return [self.hist, *self.wfs]

    def node(self, rng, cls, **kw):
        dim = self.d_q if cls is QueryNode else self.d_r
        return cls(id=f"n{next(self.ids)}", embedding=rng.normal(size=dim), **kw)

    def fresh_workflow(self, rng):
        return new_workflow(self.node(rng, QueryNode, depth=0, parent=None, family=0),
                            self.hist.hubs)

    def apply(self, op, seed):
        rng = np.random.default_rng(seed)
        wf = self.wfs[int(rng.integers(len(self.wfs)))]
        qs = list(wf.queries.values())
        q = qs[int(rng.integers(len(qs)))]
        if op == "children" and q.status == STATUS_PENDING and not q.is_summary:
            attach_subqueries(wf, q.id, [
                self.node(rng, QueryNode, depth=q.depth + 1, parent=q.id, family=0)
                for _ in range(int(rng.integers(1, 4)))])
        elif op == "response":
            who = (int(rng.integers(wf.hubs.n_roles)), int(rng.integers(wf.hubs.n_models)))
            attach_response(wf, q.id, self.node(rng, ResponseNode, produced_by=who,
                                                tokens_in=1, tokens_out=1, quality=0.5),
                            answers=q.status == STATUS_PENDING and rng.uniform() < 0.5)
        elif op == "summary":
            add_summary_query(wf, qs[0].id, self.node(rng, QueryNode, depth=1,
                                                      parent=qs[0].id, family=0,
                                                      is_summary=True))
        elif op == "clone":  # both copies keep changing from here
            self.wfs.append(clone_workflow(wf))
        elif op == "consolidate" and wf.hubs is self.hist.hubs:
            consolidate(wf, self.hist)
        elif op == "inject" and self.bench is not None:
            inject_role_interactions(self.bench, self.hist,
                                     n_queries=int(rng.integers(1, 3)), query_offset=seed)
        elif op == "ema":
            update_hub_stats(self.hist.hubs.hubs[int(rng.integers(len(self.hist.hubs)))],
                             float(rng.uniform()), float(rng.uniform()))
        elif op == "rebase":  # the old workflows keep the old hub set
            self.hist = rebase_history(self.hist, make_hubs(
                min(5, self.hist.hubs.n_roles + 1), self.hist.hubs.n_models, self.d_hub))
            self.wfs = [self.fresh_workflow(rng)]
        elif op == "deserialize":  # each loaded graph gets a hub set of its own
            self.wfs = [deserialize(serialize(g)) for g in self.wfs]
            self.hist = deserialize(serialize(self.hist))
            self.wfs.append(self.fresh_workflow(rng))
        elif op == "drop":  # any history nodes but the oldest: not an eviction
            if wf.hubs is self.hist.hubs:  # the history has nodes to drop
                consolidate(wf, self.hist)
            ids = [*self.hist.queries, *self.hist.responses][1:]
            self.hist._drop_nodes({i for i in ids if rng.uniform() < 0.5})
        elif op == "deepcopy":  # the copies share one hub set, as the originals did
            self.hist, self.wfs = copy.deepcopy((self.hist, self.wfs))


def assert_operands_are_a_rebuild(g):
    """A history's operand views are float64, C-contiguous and hold what a
    rebuild from its nodes gives, byte for byte; a workflow keeps none."""
    if g.kind == "workflow":
        assert g._q_rows is None and g._r_rows is None
        return
    for rows, nodes in ((g._q_rows, g.queries), (g._r_rows, g.responses)):
        view = rows.rows
        assert view.dtype == np.float64 and view.flags.c_contiguous
        assert len(view) == len(nodes)
        if nodes:
            want = np.array([n.embedding for n in nodes.values()], np.float64)
            assert view.shape == want.shape and view.tobytes() == want.tobytes()
    assert g._r_rows.cols.dtype == np.int64
    assert g._r_rows.cols.tolist() == [g.hubs.index(*r.produced_by)
                                       for r in g.responses.values()]


def assert_state_is_a_freeze(state, frozen):
    """A HubState's arrays are those of the freeze it stands for, a rebuild
    from the nodes and edges, in dtype, shape and bytes."""
    assert (state.n_hubs, state.n_queries, state.n_responses) == \
        (frozen.n_hubs, frozen.n_queries, frozen.n_responses)
    for got, want in zip(state.hub_sums, frozen.hub_sums):
        assert (got is None) == (want is None)
        if got is not None:
            assert not got.flags.writeable
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                              want.tobytes())
    if state.hub_feats is not None:
        assert state.hub_feats.tobytes() == frozen.hub_feats.tobytes()


WIDTHS = st.sampled_from([1, 2, 3, 4, 7, 65])


# no shrink phase: shrinking these op lists, each op of which may serialize,
# deep-copy or rebase every graph, took minutes to report a failure
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@settings(max_examples=80, deadline=None, phases=NO_SHRINK)
@given(roles=st.integers(1, 3), models=st.integers(1, 4),
       dims=st.one_of(st.tuples(WIDTHS, WIDTHS, WIDTHS),  # or equal, so `inject` runs
                      st.tuples(WIDTHS, WIDTHS).map(lambda w: (w[0], w[0], w[1]))),
       capacity=st.integers(1, 40),  # small enough that one episode gets truncated
       ops=st.lists(st.tuples(st.sampled_from(STATE_OPS), st.integers(0, 2 ** 16)),
                    min_size=10, max_size=60))
def test_hub_state_equals_a_fresh_freeze(roles, models, dims, capacity, ops):
    """Every read equals a freeze, then and after later writes; after each
    write the history's operand rows are a rebuild from its nodes."""
    graphs = RandomGraphs(roles, models, dims, capacity)
    reads = []  # (state, a frozen copy of the graph when it was read)
    for op, seed in ops:
        if op != "read":
            graphs.apply(op, seed)
            for g in graphs.graphs:
                assert_operands_are_a_rebuild(g)
            assert_state_is_a_freeze(graphs.hist.hub_state(), graphs.hist.freeze())
            continue
        for g in graphs.graphs:
            reads.append((g.hub_state(), g.freeze()))
            assert_state_is_a_freeze(*reads[-1])
            assert (reads[-1][0].hub_feats is None) == (g.kind == "workflow")
    for g in graphs.graphs:
        assert_state_is_a_freeze(g.hub_state(), g.freeze())
    for state, frozen in reads:  # no later write reached an earlier state
        assert_state_is_a_freeze(state, frozen)


def assert_indexes_are_a_scan(g):
    """`child_ids`, `response_ids` and `episode_nodes` hold what a scan of the
    nodes and tags finds, element for element and in insertion order, and
    nothing more."""
    children, responses, tagged = {}, {}, {}
    for q in g.queries.values():
        if q.parent is not None:
            children[q.parent] = children.get(q.parent, ()) + (q.id,)
    for rid, qid in g.query_of.items():
        responses[qid] = responses.get(qid, ()) + (rid,)
    for nid, ep in g.episode_of.items():
        tagged.setdefault(ep, []).append(nid)
    assert g.child_ids == children and g.response_ids == responses
    assert {ep: list(nodes) for ep, nodes in g.episode_nodes.items()} == tagged
    for qid in g.queries:
        assert all(c in g.queries for c in g.child_ids.get(qid, ()))
        assert all(r in g.responses for r in g.response_ids.get(qid, ()))


@settings(max_examples=80, deadline=None, phases=NO_SHRINK)
@given(capacity=st.integers(1, 64),
       ops=st.lists(st.tuples(st.sampled_from(INDEX_OPS), st.integers(0, 2 ** 16)),
                    min_size=20, max_size=80))
def test_indexes_equal_a_scan_of_the_nodes(capacity, ops):
    graphs = RandomGraphs(2, 3, (4, 4, 6), capacity)
    for op, seed in ops:
        graphs.apply(op, seed)
        for g in graphs.graphs:
            assert_indexes_are_a_scan(g)
    # eviction prunes: the history's index never outgrows its live nodes
    hist = graphs.hist
    assert sum(map(len, hist.child_ids.values())) <= len(hist.queries)
    assert sum(map(len, hist.response_ids.values())) <= len(hist.responses)


def test_eviction_prunes_the_indexes():
    # five interactions per episode: capacity 5 evicts whole episodes, 4 also
    # truncates the newest one's root while its children stay
    for capacity, keys in ((5, ["ep5/q0"]), (4, ["ep5/q0"])):
        hist = HeteroGraph("history", make_hubs(), capacity=capacity)
        for _ in range(6):
            consolidate(small_workflow(hist.hubs), hist)
            assert_indexes_are_a_scan(hist)
        assert list(hist.child_ids) == keys
        assert ("ep5/q0" in hist.queries) == (capacity == 5)


def state_arrays(state):
    return [a for a in (*state.hub_sums, state.hub_feats) if a is not None]


def test_hub_states_of_a_deep_copy_are_read_only():
    for g in (small_workflow(), build_history_for_io()):
        arrays = state_arrays(copy.deepcopy(g).hub_state())
        assert len(arrays) >= 3 and not any(a.flags.writeable for a in arrays)


def test_hub_state_reads_share_no_array():
    for g in (small_workflow(), build_history_for_io()):
        first, second = state_arrays(g.hub_state()), state_arrays(g.hub_state())
        assert len(first) == len(second) >= 3
        for a, b in zip(first, second):
            assert np.array_equal(a, b) and not np.shares_memory(a, b)
            assert not a.flags.writeable and not b.flags.writeable


class NoScan(dict):
    """A node store that fails any walk over its nodes."""

    def _walk(self, *a):
        raise AssertionError("scanned the node store")

    __iter__ = keys = values = items = _walk


def test_a_second_history_read_scans_no_node():
    g = build_history_for_io()
    first = g.hub_state()
    with mock.patch.object(HubSet, "index", side_effect=AssertionError("index")), \
            mock.patch.object(g, "queries", NoScan(g.queries)), \
            mock.patch.object(g, "responses", NoScan(g.responses)):
        second = g.hub_state()
    for a, b in zip(state_arrays(first), state_arrays(second)):
        assert a.tobytes() == b.tobytes()


def test_a_workflow_keeps_no_operands():
    wf = small_workflow()
    for g in (wf, clone_workflow(wf), deserialize(serialize(wf)), copy.deepcopy(wf)):
        assert g._q_rows is None and g._r_rows is None
        assert not any(isinstance(v, np.ndarray) for v in vars(g).values())


def test_query_nodes_are_immutable():
    g = small_workflow()
    q = g.queries["q2"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.status = STATUS_RESOLVED
    new = g.set_query("q2", status=STATUS_RESOLVED, answer_id="r1")
    assert g.queries["q2"] is new and new is not q
    assert (q.status, q.answer_id) == (STATUS_PENDING, None)
    assert (new.status, new.answer_id) == (STATUS_RESOLVED, "r1")
    assert new.embedding is q.embedding
    with pytest.raises(ValueError):
        g.set_query("q2", parent=None)


def test_graphs_equal_detects_stat_drift():
    a = build_history_for_io()
    b = deserialize(serialize(a))
    assert graphs_equal(a, b)
    b.hubs.get(0, 0).cost_ema += 1e-9
    assert not graphs_equal(a, b)


def test_workflow_roundtrip_too():
    wf = small_workflow()
    clone = deserialize(serialize(wf))
    assert graphs_equal(wf, clone)
