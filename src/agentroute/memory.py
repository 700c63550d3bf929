"""Heterogeneous workflow and history graphs with shared role hubs.

A workflow graph holds one episode's query/response tree plus a fixed set of
(role, model) hub nodes. The history graph accumulates consolidated episodes
across the run and shares the same hub objects by identity, so hub statistics
written during consolidation are visible from both graphs. Edges are not
stored: each query touches every hub, a response's links follow from its
(role, model) and the query it attached to, and a child query's from its
parent, so eviction, cloning and rebasing only touch nodes. Each graph also
indexes every query's children and responses, so walking the tree never
scans the node store. Query nodes are immutable values: `set_query` is the
one way a query changes, by replacing it, and a node's embedding, like a
hub's role embedding, never changes once it is added. Decision states read a
graph's per-hub sums through `hub_state`: a history keeps its operand rows
current as nodes come and go, a workflow keeps none and scans its nodes at
each read. `freeze` builds the full array view of `edges` for checks and
tests. Both graph kinds persist as v2 JSON: it still lists the derived
edges, and stores each embedding as `fields.packed` text. Version-1 files,
which listed the embeddings' values, still load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice

import numpy as np

from .fields import NUMBER, field, floats, items, packed

FORMAT_VERSION = 2

STATUS_PENDING = "pending"
STATUS_RESOLVED = "resolved"
STATUS_SUMMARY_PENDING = "summary-pending"

EDGE_QUERY_HUB = "query-hub"
EDGE_RESPONSE_HUB = "response-hub"
EDGE_QUERY_RESPONSE = "query-response"
EDGE_QUERY_PARENT = "query-parent"


@dataclass(frozen=True)
class QueryNode:
    id: str
    embedding: np.ndarray
    depth: int
    parent: str | None
    family: int
    status: str = STATUS_PENDING
    is_summary: bool = False
    width_hint: int = 1
    answer_id: str | None = None


@dataclass
class ResponseNode:
    id: str
    embedding: np.ndarray
    produced_by: tuple[int, int]  # (role index, model index)
    tokens_in: int
    tokens_out: int
    quality: float


@dataclass
class RoleHubNode:
    role_index: int
    model_index: int
    role_name: str
    model_name: str
    role_embedding: np.ndarray  # joint role+model text embedding, dim d_hub - 2
    utility_ema: float = 0.0
    cost_ema: float = 0.0


class HubSet:
    """All K*R role hubs, ordered by (role index, model index)."""

    def __init__(self, hubs: list[RoleHubNode], n_roles: int, n_models: int):
        if len(hubs) != n_roles * n_models:
            raise ValueError("hub set must contain exactly R*K hubs")
        for i, h in enumerate(hubs):
            want = (i // n_models, i % n_models)
            if (h.role_index, h.model_index) != want:
                raise ValueError("hubs must be ordered by (role, model)")
        self.hubs = hubs
        self.n_roles = n_roles
        self.n_models = n_models
        self._role_rows = np.array([h.role_embedding for h in hubs], np.float64)

    def __len__(self) -> int:
        return len(self.hubs)

    def index(self, role_index: int, model_index: int) -> int:
        if not (0 <= role_index < self.n_roles and 0 <= model_index < self.n_models):
            raise ValueError(f"hub index out of range: ({role_index}, {model_index})")
        return role_index * self.n_models + model_index

    def get(self, role_index: int, model_index: int) -> RoleHubNode:
        return self.hubs[self.index(role_index, model_index)]

    def features(self) -> np.ndarray:
        """One row per hub: its role embedding, then its utility and cost EMAs."""
        stats = [[h.utility_ema, h.cost_ema] for h in self.hubs]
        return np.concatenate([self._role_rows, stats], axis=1)


@dataclass
class EncoderInput:
    """Immutable array view of one graph, ready for message passing.

    Global node order is [hubs, queries, responses]; edges are undirected and
    stored as aligned (src, dst) index arrays with both directions present.
    """

    hub_feats: np.ndarray
    query_feats: np.ndarray
    response_feats: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    n_hubs: int
    n_queries: int
    n_responses: int

    @cached_property
    def hub_sums(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Edges from a query or response into each hub, summed by the kind of
        node they come from; hubs hear no other hub.

        Returns the (n_hubs,) in-degrees over those edges and the sums of the
        raw query and response features over them, (n_hubs, d_q) and
        (n_hubs, d_r), or None when the graph has no node of that kind. Sums
        of several graphs over one hub set add up. `HeteroGraph.hub_state`
        computes the same sums from the nodes, without edge arrays.
        """
        H, n = self.n_hubs, self.n_hubs + self.n_queries + self.n_responses
        into_hub = (self.edge_dst < H) & (self.edge_src >= H)
        flat = self.edge_dst[into_hub] * n + self.edge_src[into_hub]
        counts = np.bincount(flat, minlength=H * n).reshape(H, n).astype(np.float64)
        q_end = H + self.n_queries
        q_sum = counts[:, H:q_end] @ self.query_feats if self.n_queries else None
        r_sum = counts[:, q_end:] @ self.response_feats if self.n_responses else None
        return counts.sum(axis=1), q_sum, r_sum


@dataclass(frozen=True)
class HubState:
    """What the encoder reads of one graph at one moment: node counts, the
    three per-hub sums of `EncoderInput.hub_sums` (in-degree, query and
    response feature sums) and, for a history graph, the hub features. The
    arrays belong to this state alone and are marked read-only here."""
    n_hubs: int
    n_queries: int
    n_responses: int
    hub_sums: tuple[np.ndarray, np.ndarray | None, np.ndarray | None]
    hub_feats: np.ndarray | None = None

    def __post_init__(self):
        for a in (*self.hub_sums, self.hub_feats):
            if a is not None:
                a.flags.writeable = False


class _Rows:
    """One node kind's `hub_state` operands in a history, in node order: each
    node's embedding row and, for responses, its hub column. They sit in
    growable buffers between `lo` and `hi`, so evicting the oldest nodes only
    moves `lo`, and a read is a contiguous view."""

    def __init__(self):
        self.emb = np.zeros((0, 0))
        self.col = np.zeros(0, np.int64)
        self.lo = self.hi = 0

    @property
    def rows(self) -> np.ndarray:
        return self.emb[self.lo:self.hi]

    @property
    def cols(self) -> np.ndarray:
        return self.col[self.lo:self.hi]

    def append(self, embedding: np.ndarray, col: int = 0) -> None:
        n = self.hi - self.lo
        if n == 0:  # an empty store takes any width
            self.emb, self.col = np.empty((8, *np.shape(embedding))), np.empty(8, np.int64)
            self.lo = self.hi = 0
        elif self.hi == len(self.emb):
            emb, cols = np.empty((2 * n, *self.emb.shape[1:])), np.empty(2 * n, np.int64)
            emb[:n], cols[:n] = self.rows, self.cols
            self.emb, self.col, self.lo, self.hi = emb, cols, 0, n
        if np.shape(embedding) != self.emb.shape[1:]:
            raise ValueError(f"embedding has shape {np.shape(embedding)}, the history's "
                             f"others {self.emb.shape[1:]}")
        self.emb[self.hi] = embedding
        self.col[self.hi] = col
        self.hi += 1

    def drop_oldest(self, ids: dict, doomed: set[str]) -> bool:
        """Drop the rows of the doomed ids among `ids`, this kind's node store,
        if they are its oldest; False, dropping nothing, if they are not."""
        k = sum(nid in ids for nid in doomed)
        if not all(nid in doomed for nid in islice(ids, k)):
            return False
        self.lo += k
        return True


def _copy_node(node, **changes):
    """The copy `dataclasses.replace` would make, without re-running the
    dataclass __init__."""
    out = object.__new__(type(node))
    out.__dict__.update(node.__dict__, **changes)
    return out


def _link(index: dict[str, tuple[str, ...]], key: str, nid: str) -> None:
    index[key] = index.get(key, ()) + (nid,)


def _unlink(index: dict[str, tuple[str, ...]], key: str, nid: str) -> None:
    rest = tuple(x for x in index[key] if x != nid)
    if rest:
        index[key] = rest
    else:
        del index[key]


class HeteroGraph:
    """Typed node store for one workflow episode or the shared history.

    The nodes are the only record of the graph's structure. Every query
    touches every hub, a response touches the hub of its (role, model) and
    the query in `query_of`, and a child query touches its `parent`; `edges`
    and `freeze` derive those links in node insertion order and leave out a
    link whose other end was evicted. `child_ids` and `response_ids` index
    the last two links by query id, in insertion order, as immutable tuples
    that a clone shares; a key stays while one of its nodes is live, even
    after the query it names was evicted. A history also keeps `hub_state`'s
    operands, its query and response embedding rows and each response's hub
    column, in node order; every write keeps them current. A workflow keeps
    none: its `hub_state` sums node features into the hubs at each read, so
    an unread oracle branch pays nothing.
    """

    def __init__(self, kind: str, hubs: HubSet, capacity: int | None = None):
        if kind not in ("workflow", "history"):
            raise ValueError(f"unknown graph kind: {kind!r}")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive when set")
        self.kind = kind
        self.hubs = hubs
        self.capacity = capacity
        self.queries: dict[str, QueryNode] = {}
        self.responses: dict[str, ResponseNode] = {}
        # response id -> the query it attached to, which may since have been evicted
        self.query_of: dict[str, str] = {}
        # query id -> the ids of its child queries / of the responses attached to it
        self.child_ids: dict[str, tuple[str, ...]] = {}
        self.response_ids: dict[str, tuple[str, ...]] = {}
        # History bookkeeping: nodes tagged by consolidation episode, FIFO order;
        # `episode_nodes` inverts `episode_of`: tag -> its nodes' ids, in tagging order.
        self.episode_of: dict[str, str] = {}
        self.episode_nodes: dict[str, dict[str, None]] = {}
        self.episode_order: list[str] = []
        self._episode_counter = 0
        self._q_rows = self._r_rows = None
        if kind == "history":
            self._q_rows, self._r_rows = _Rows(), _Rows()

    # -- construction helpers ------------------------------------------------

    def add_query(self, q: QueryNode, episode: str | None = None) -> None:
        if q.id in self.queries:
            raise ValueError(f"duplicate query id: {q.id}")
        if self.kind == "history":
            self._q_rows.append(q.embedding)
        self.queries[q.id] = q
        if q.parent is not None:
            _link(self.child_ids, q.parent, q.id)
        if self.kind == "history" and episode is not None:
            self._tag(q.id, episode)

    def add_response(self, query_id: str, r: ResponseNode, answers: bool,
                     episode: str | None = None) -> None:
        if query_id not in self.queries:
            raise ValueError(f"unknown query id: {query_id}")
        if r.id in self.responses:
            raise ValueError(f"duplicate response id: {r.id}")
        col = self.hubs.index(*r.produced_by)  # validates range
        if answers and self.queries[query_id].answer_id is not None:
            raise ValueError(f"query {query_id} already has an answer")
        if self.kind == "history":
            self._r_rows.append(r.embedding, col)
        self.responses[r.id] = r
        self.query_of[r.id] = query_id
        _link(self.response_ids, query_id, r.id)
        if answers:
            self.set_query(query_id, status=STATUS_RESOLVED, answer_id=r.id)
        if self.kind == "history" and episode is not None:
            self._tag(r.id, episode)

    def set_query(self, query_id: str, **changes) -> QueryNode:
        """Replace a query with a copy whose `status` and `answer_id` take
        `changes`; the only way a query changes once it is in a graph."""
        if not changes.keys() <= {"status", "answer_id"}:
            raise ValueError(f"a query's other fields never change: {sorted(changes)}")
        q = self.queries[query_id] = _copy_node(self.queries[query_id], **changes)
        return q

    def _index_rows(self) -> None:
        """Rebuild a history's operand rows from its nodes."""
        self._q_rows, self._r_rows = _Rows(), _Rows()
        for q in self.queries.values():
            self._q_rows.append(q.embedding)
        for r in self.responses.values():
            self._r_rows.append(r.embedding, self.hubs.index(*r.produced_by))

    def _tag(self, nid: str, episode: str) -> None:
        self._untag(nid)
        self.episode_of[nid] = episode
        self.episode_nodes.setdefault(episode, {})[nid] = None

    def _untag(self, nid: str) -> None:
        episode = self.episode_of.pop(nid, None)
        if episode is not None:
            nodes = self.episode_nodes[episode]
            del nodes[nid]
            if not nodes:
                del self.episode_nodes[episode]

    @property
    def interaction_count(self) -> int:
        return len(self.queries) + len(self.responses)

    def new_episode_tag(self) -> str:
        """Mint the next episode tag and register it in eviction order."""
        if self.kind != "history":
            raise ValueError("episode tags only apply to history graphs")
        tag = f"ep{self._episode_counter}"
        self._episode_counter += 1
        self.episode_order.append(tag)
        return tag

    # -- derived structure -------------------------------------------------------

    @property
    def edges(self) -> dict[str, list[tuple]]:
        """The typed edge lists between live nodes, derived from the nodes in
        insertion order; a hub is named by its index."""
        hub = self.hubs.index
        return {
            EDGE_QUERY_HUB: [(q, i) for q in self.queries for i in range(len(self.hubs))],
            EDGE_RESPONSE_HUB: [(r.id, hub(*r.produced_by)) for r in self.responses.values()],
            EDGE_QUERY_RESPONSE: [(self.query_of[r], r) for r in self.responses
                                  if self.query_of.get(r) in self.queries],
            # both format versions store (child, parent, None)
            EDGE_QUERY_PARENT: [(q.id, q.parent, None) for q in self.queries.values()
                                if q.parent in self.queries],
        }

    # -- eviction --------------------------------------------------------------

    def _drop_nodes(self, doomed: set[str]) -> None:
        # eviction drops the oldest nodes of each kind; any other drop rebuilds
        oldest = self.kind == "history" and (
            self._q_rows.drop_oldest(self.queries, doomed)
            and self._r_rows.drop_oldest(self.responses, doomed))
        for nid in doomed:
            q = self.queries.pop(nid, None)
            if q is not None and q.parent is not None:
                _unlink(self.child_ids, q.parent, nid)
            self.responses.pop(nid, None)
            query_id = self.query_of.pop(nid, None)
            if query_id is not None:
                _unlink(self.response_ids, query_id, nid)
            self._untag(nid)
        if self.kind == "history" and not oldest:
            self._index_rows()

    def enforce_capacity(self) -> None:
        """Evict oldest episodes until the interaction budget is met."""
        if self.capacity is None:
            return
        # Whole oldest episodes go first; what is still over budget is then
        # truncated by dropping the oldest nodes, queries before responses.
        while self.interaction_count > self.capacity and len(self.episode_order) > 1:
            ep = self.episode_order.pop(0)
            self._drop_nodes(set(self.episode_nodes.get(ep, ())))
        excess = self.interaction_count - self.capacity
        if excess > 0:
            self._drop_nodes(set([*self.queries, *self.responses][:excess]))

    # -- decision state and freezing -------------------------------------------

    def hub_state(self) -> HubState:
        """Node counts and per-hub sums, bit for bit those of `freeze()`: the
        matmuls of `EncoderInput.hub_sums` on the same operands (a history's
        kept rows; a workflow's, stacked from its nodes), computed at each
        call, with a history graph's hub features."""
        H, nq, nr = len(self.hubs), len(self.queries), len(self.responses)
        if self.kind == "history":
            q_feats, r_feats, cols = self._q_rows.rows, self._r_rows.rows, self._r_rows.cols
        else:
            q_feats = np.array([q.embedding for q in self.queries.values()], np.float64)
            r_feats = np.array([r.embedding for r in self.responses.values()], np.float64)
            cols = [self.hubs.index(*r.produced_by) for r in self.responses.values()]
        counts = np.zeros((H, nr))
        counts[cols, np.arange(nr)] = 1.0
        return HubState(H, nq, nr, (nq + counts.sum(axis=1),
                                    np.ones((H, nq)) @ q_feats if nq else None,
                                    counts @ r_feats if nr else None),
                        self.hubs.features() if self.kind == "history" else None)

    def freeze(self) -> EncoderInput:
        """Copy the graph into aligned arrays for the encoder."""
        H, nq, nr = len(self.hubs), len(self.queries), len(self.responses)
        # a hub's global position is its index; node ids are strings
        pos = {i: i for i in range(H)}
        pos.update(zip([*self.queries, *self.responses], range(H, H + nq + nr)))

        query_feats = (np.stack([q.embedding for q in self.queries.values()])
                       if nq else np.zeros((0, 0)))
        response_feats = (np.stack([r.embedding for r in self.responses.values()])
                          if nr else np.zeros((0, 0)))

        # One row per undirected link (a, b) of `edges`, in its order;
        # flattening the rows gives a, b, ... and the reversed rows b, a, ...,
        # so each link is present in both directions.
        pairs = np.array([(pos[a], pos[b]) for links in self.edges.values()
                          for a, b, *_ in links], dtype=np.int64).reshape(-1, 2)
        return EncoderInput(
            hub_feats=self.hubs.features(),
            query_feats=query_feats,
            response_feats=response_feats,
            edge_src=pairs.reshape(-1),
            edge_dst=pairs[:, ::-1].reshape(-1),
            n_hubs=H,
            n_queries=nq,
            n_responses=nr,
        )


# -- module-level operations ---------------------------------------------------


def new_workflow(root: QueryNode, hubs: HubSet) -> HeteroGraph:
    """Fresh per-episode graph: the root query plus every role hub."""
    if len(hubs) == 0:
        raise ValueError("hub set is empty")
    if root.depth != 0 or root.parent is not None:
        raise ValueError("workflow root must have depth 0 and no parent")
    if root.status != STATUS_PENDING or root.answer_id is not None:
        raise ValueError("workflow root must be pending, with no answer")
    g = HeteroGraph("workflow", hubs)
    g.add_query(root)
    return g


def attach_subqueries(g: HeteroGraph, parent_id: str, children: list[QueryNode],
                      width_limit: int | None = None) -> list[str]:
    """Attach decomposition children under a pending parent, order preserved."""
    if parent_id not in g.queries:
        raise ValueError(f"unknown parent query: {parent_id}")
    parent = g.queries[parent_id]
    if parent.status != STATUS_PENDING:
        raise ValueError(f"parent {parent_id} is not pending")
    if not children:
        raise ValueError("attach_subqueries with an empty child list")
    existing = len(g.child_ids.get(parent_id, ()))
    if width_limit is not None and existing + len(children) > width_limit:
        raise ValueError("child count exceeds the configured width")
    ids = []
    for c in children:
        if c.depth != parent.depth + 1:
            raise ValueError("child depth must be parent depth + 1")
        if c.parent != parent_id:
            raise ValueError("child parent pointer mismatch")
        g.add_query(c)
        ids.append(c.id)
    return ids


def attach_response(g: HeteroGraph, query_id: str, r: ResponseNode, answers: bool) -> None:
    """Attach a response; when it answers a pending query the query resolves.

    Non-answer responses may attach to already-resolved queries (e.g. a
    summary hung on the root); answering twice is an error.
    """
    if answers and query_id in g.queries and g.queries[query_id].status == STATUS_RESOLVED:
        raise ValueError(f"query {query_id} is already resolved")
    g.add_response(query_id, r, answers=answers)


def add_summary_query(g: HeteroGraph, root_id: str, summary: QueryNode) -> None:
    """Attach the synthesis query created by a summarizer under the root."""
    if root_id not in g.queries:
        raise ValueError(f"unknown root query: {root_id}")
    if not summary.is_summary:
        raise ValueError("summary query must be flagged is_summary")
    g.add_query(summary)


def update_hub_stats(hub: RoleHubNode, observed_utility: float, observed_cost: float,
                     decay: float = 0.9) -> None:
    """EMA update: ema <- decay * ema + (1 - decay) * observed."""
    if not (0.0 <= decay < 1.0):
        raise ValueError("decay must lie in [0, 1)")
    if not (0.0 <= observed_utility <= 1.0):
        raise ValueError("observed utility must lie in [0, 1]")
    if observed_cost < 0.0:
        raise ValueError("observed cost must be nonnegative")
    hub.utility_ema = decay * hub.utility_ema + (1.0 - decay) * observed_utility
    hub.cost_ema = decay * hub.cost_ema + (1.0 - decay) * observed_cost


def consolidate(workflow: HeteroGraph, history: HeteroGraph) -> str:
    """Copy a finished episode's nodes into history, then evict to capacity.

    Node ids are prefixed with a fresh episode tag, so consolidating the same
    workflow twice grows history twice (no dedup). Returns the episode tag.
    """
    if workflow.kind != "workflow" or history.kind != "history":
        raise ValueError("consolidate copies a workflow into a history graph")
    if workflow.hubs is not history.hubs:
        raise ValueError("graphs must share the same hub set")
    tag = history.new_episode_tag()

    def rename(nid: str) -> str:
        return f"{tag}/{nid}"

    for q in workflow.queries.values():
        clone = _copy_node(q, id=rename(q.id),
                           parent=None if q.parent is None else rename(q.parent),
                           embedding=q.embedding.copy(),
                           answer_id=None if q.answer_id is None else rename(q.answer_id))
        history.add_query(clone, episode=tag)
    for r in workflow.responses.values():
        clone = _copy_node(r, id=rename(r.id), embedding=r.embedding.copy())
        # statuses and answer pointers were already cloned on the query side
        history.add_response(rename(workflow.query_of[r.id]), clone, answers=False,
                             episode=tag)
    history.enforce_capacity()
    return tag


def clone_workflow(g: HeteroGraph) -> HeteroGraph:
    """Copy of a workflow graph that later steps on either side leave alone.

    Queries, responses, embeddings and hubs are shared with the original: a
    query node is immutable (a step replaces it through `set_query`) and no
    step changes a response once it is attached. Used by the enumeration
    oracle to branch mid-episode without disturbing the live environment.
    """
    if g.kind != "workflow":
        raise ValueError("clone_workflow copies workflow graphs only")
    # The copy copy.copy would make, without its dispatch; the node stores
    # and indexes are copied, the nodes and index tuples shared as they are.
    out = object.__new__(HeteroGraph)
    out.__dict__.update(g.__dict__)
    out.queries = dict(g.queries)
    out.responses = dict(g.responses)
    out.query_of = dict(g.query_of)
    out.child_ids = dict(g.child_ids)
    out.response_ids = dict(g.response_ids)
    out.episode_of = {}
    out.episode_nodes = {}
    out.episode_order = []
    return out


def copy_hub_stats(src: HubSet, dst: HubSet) -> None:
    """Carry running hub statistics over to a larger or equal hub set."""
    if dst.n_roles < src.n_roles or dst.n_models < src.n_models:
        raise ValueError("destination hub set must cover the source")
    for r in range(src.n_roles):
        for m in range(src.n_models):
            dst.get(r, m).utility_ema = src.get(r, m).utility_ema
            dst.get(r, m).cost_ema = src.get(r, m).cost_ema


def rebase_history(old: HeteroGraph, new_hubs: HubSet,
                   capacity: int | None = None) -> HeteroGraph:
    """Rebuild a history graph over an extended hub set.

    Node content, parent/answer structure, and episode bookkeeping carry over
    unchanged; hub edges follow, because they are derived from each
    response's (role, model) under the new set. Running hub statistics are
    copied for every (role, model) pair the old set knew about.
    """
    if old.kind != "history":
        raise ValueError("rebase_history rebuilds history graphs only")
    copy_hub_stats(old.hubs, new_hubs)
    out = HeteroGraph("history", new_hubs,
                      capacity=old.capacity if capacity is None else capacity)
    out.queries = {q.id: replace(q, embedding=q.embedding.copy())
                   for q in old.queries.values()}
    out.responses = {r.id: replace(r, embedding=r.embedding.copy())
                     for r in old.responses.values()}
    out.query_of = dict(old.query_of)
    out.child_ids = dict(old.child_ids)
    out.response_ids = dict(old.response_ids)
    out.episode_of = dict(old.episode_of)
    out.episode_nodes = {ep: dict(nodes) for ep, nodes in old.episode_nodes.items()}
    out.episode_order = list(old.episode_order)
    out._episode_counter = old._episode_counter
    out._index_rows()
    return out


# -- persistence -----------------------------------------------------------------


def serialize(g: HeteroGraph) -> bytes:
    blob = {
        "format_version": FORMAT_VERSION,
        "kind": g.kind,
        "capacity": g.capacity,
        "n_roles": g.hubs.n_roles,
        "n_models": g.hubs.n_models,
        "episode_counter": g._episode_counter,
        "episode_order": list(g.episode_order),
        "hubs": [
            {
                "role_index": h.role_index,
                "model_index": h.model_index,
                "role_name": h.role_name,
                "model_name": h.model_name,
                "role_embedding": packed(h.role_embedding),
                "utility_ema": h.utility_ema,
                "cost_ema": h.cost_ema,
            }
            for h in g.hubs.hubs
        ],
        "queries": [
            {
                "id": q.id,
                "embedding": packed(q.embedding),
                "depth": q.depth,
                "parent": q.parent,
                "family": q.family,
                "status": q.status,
                "is_summary": q.is_summary,
                "width_hint": q.width_hint,
                "answer_id": q.answer_id,
                "episode": g.episode_of.get(q.id),
            }
            for q in g.queries.values()
        ],
        "responses": [
            {
                "id": r.id,
                "embedding": packed(r.embedding),
                "produced_by": list(r.produced_by),
                "tokens_in": r.tokens_in,
                "tokens_out": r.tokens_out,
                "quality": r.quality,
                "episode": g.episode_of.get(r.id),
            }
            for r in g.responses.values()
        ],
        "edges": {kind: [list(e) for e in edges] for kind, edges in g.edges.items()},
    }
    return json.dumps(blob, sort_keys=True).encode("utf-8")


def deserialize(data: bytes) -> HeteroGraph:
    """Graph from serialize() bytes, or from a version-1 file; a malformed
    blob raises ValueError naming the offending field."""
    try:
        blob = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"truncated or corrupt graph stream: {exc}") from exc
    version = field(blob, "format_version", int, "graph")
    if version not in (1, FORMAT_VERSION):
        raise ValueError(f"unsupported graph format version: {version!r}")
    opt_str = (str, type(None))
    sizes: dict[str, int] = {}

    def embedding(obj, key: str, where: str, kind: str) -> np.ndarray:
        """One node's embedding, as long as the first of its kind's."""
        a = floats(obj, key, where, version)
        if sizes.setdefault(kind, a.size) != a.size:
            raise ValueError(f"{where}: field {key!r} has {a.size} values, "
                             f"where the first {kind}'s has {sizes[kind]}")
        return a

    hub_list = []
    for i, h in enumerate(field(blob, "hubs", list, "graph")):
        where = f"graph hub {i}"
        hub_list.append(RoleHubNode(
            role_index=field(h, "role_index", int, where),
            model_index=field(h, "model_index", int, where),
            role_name=field(h, "role_name", str, where),
            model_name=field(h, "model_name", str, where),
            role_embedding=embedding(h, "role_embedding", where, "hub"),
            utility_ema=field(h, "utility_ema", NUMBER, where),
            cost_ema=field(h, "cost_ema", NUMBER, where),
        ))
    hubs = HubSet(hub_list, n_roles=field(blob, "n_roles", int, "graph"),
                  n_models=field(blob, "n_models", int, "graph"))
    g = HeteroGraph(field(blob, "kind", str, "graph"), hubs,
                    capacity=field(blob, "capacity", (int, type(None)), "graph"))
    g._episode_counter = field(blob, "episode_counter", int, "graph")
    g.episode_order = list(field(blob, "episode_order", list, "graph"))
    for i, q in enumerate(field(blob, "queries", list, "graph")):
        where = f"graph query {i}"
        node = QueryNode(
            id=field(q, "id", str, where),
            embedding=embedding(q, "embedding", where, "query"),
            depth=field(q, "depth", int, where),
            parent=field(q, "parent", opt_str, where),
            family=field(q, "family", int, where),
            status=field(q, "status", str, where),
            is_summary=field(q, "is_summary", bool, where),
            width_hint=field(q, "width_hint", int, where),
            answer_id=field(q, "answer_id", opt_str, where),
        )
        g.queries[node.id] = node
        if q.get("episode") is not None:
            g._tag(node.id, field(q, "episode", str, where))
    for i, r in enumerate(field(blob, "responses", list, "graph")):
        where = f"graph response {i}"
        produced_by = tuple(items(r, "produced_by", int, where))
        if len(produced_by) != 2 or not (0 <= produced_by[0] < hubs.n_roles
                                         and 0 <= produced_by[1] < hubs.n_models):
            raise ValueError(f"{where}: field 'produced_by' must be an in-range "
                             f"(role, model) pair")
        node = ResponseNode(
            id=field(r, "id", str, where),
            embedding=embedding(r, "embedding", where, "response"),
            produced_by=produced_by,
            tokens_in=field(r, "tokens_in", int, where),
            tokens_out=field(r, "tokens_out", int, where),
            quality=field(r, "quality", NUMBER, where),
        )
        g.responses[node.id] = node
        if r.get("episode") is not None:
            g._tag(node.id, field(r, "episode", str, where))
    # The stored edge lists must be exactly the ones the nodes imply, so an
    # accepted blob serializes back to the same bytes.
    edges = field(blob, "edges", dict, "graph")
    pairs = field(edges, EDGE_QUERY_RESPONSE, list, "graph edges")
    if not all(isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)
               for e in pairs):
        raise ValueError(f"graph edges: field {EDGE_QUERY_RESPONSE!r} must hold "
                         f"[query, response] id pairs")
    g.query_of = {rid: qid for qid, rid in pairs}
    for kind, derived in g.edges.items():
        if json.dumps(field(edges, kind, list, "graph edges")) != json.dumps(derived):
            raise ValueError(f"graph edges: field {kind!r} differs from the edges "
                             f"the nodes imply")
    for node in g.queries.values():
        if node.parent is not None:
            _link(g.child_ids, node.parent, node.id)
    for rid, qid in g.query_of.items():
        _link(g.response_ids, qid, rid)
    if g.kind == "history":
        g._index_rows()
    return g

