"""Dual-graph state encoder and the (role, model) policy head.

Node features are projected per type and mixed with one residual
mean-message round in which hubs hear only queries and responses. Only hub
rows are read downstream, and mean aggregation is linear, so the round
aggregates first and projects after: each hub's incoming edges are summed
over the raw features once per graph state (`HubState.hub_sums`), and every
weight then costs one matmul over all decision points of a batch. The
history graph's hub rows are injected as the workflow hub inputs (nested
encoding). Action scores are dot products between the fused query
representation and the workflow hub rows; a two-layer head on pooled hub
rows estimates the state value. Ablation variants swap this wiring for one
encoding of the union of the history and workflow graphs, with shared or
per-type projections.

`encoder` maps a stack of decision points to masked action distributions and
values on the tape; the PPO update calls it with a whole window.
`RoutingPolicy` acts on one decision point at a time, for rollouts and
evaluation, with its own plain-array forward: what depends only on the
weights and the history snapshot is computed once per snapshot, and the rest
runs `encoder`'s numpy ops on a batch of one, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .memory import EncoderInput, HubState
from .streams import det_rng
from .tensor import Tensor

VARIANTS = ("full", "homo", "hetero")
# per variant, the (W_q, W_r, W_m) that encode the graph the head scores
MESSAGE_WEIGHTS = {"full": ("loc.W_q", "loc.W_r", "loc.W_m"),
                   "homo": ("enc.W",) * 3,
                   "hetero": ("enc.W_q", "enc.W_r", "enc.W_m")}


@dataclass(frozen=True)
class EncoderDims:
    d_q: int = 64
    d_r: int = 64
    d_hub: int = 64
    hidden: int = 32


def init_params(dims: EncoderDims, variant: str = "full", seed: int = 0,
                init_scale: float = 1.0) -> dict[str, Tensor]:
    """Fresh parameter dict for one variant; shapes depend on the variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown encoder variant: {variant!r}")
    h = dims.hidden

    def w(name: str, shape: tuple[int, ...]) -> Tensor:
        fan_in = shape[0]
        data = det_rng(seed, "init", name).normal(size=shape) * init_scale / np.sqrt(fan_in)
        return Tensor(data, requires_grad=True)

    params: dict[str, Tensor] = {}
    if variant == "full":
        params["his.W_q"] = w("his.W_q", (dims.d_q, h))
        params["his.W_r"] = w("his.W_r", (dims.d_r, h))
        params["his.W_m"] = w("his.W_m", (dims.d_hub, h))
        params["loc.W_q"] = w("loc.W_q", (dims.d_q, h))
        params["loc.W_r"] = w("loc.W_r", (dims.d_r, h))
        params["loc.W_m"] = w("loc.W_m", (h, h))
    elif variant == "hetero":
        params["enc.W_q"] = w("enc.W_q", (dims.d_q, h))
        params["enc.W_r"] = w("enc.W_r", (dims.d_r, h))
        params["enc.W_m"] = w("enc.W_m", (dims.d_hub, h))
    else:  # homo: one projection for every node type
        if not (dims.d_q == dims.d_r == dims.d_hub):
            raise ValueError("homo variant needs equal raw dims for all node types")
        params["enc.W"] = w("enc.W", (dims.d_q, h))
    params["fuse.W"] = w("fuse.W", (dims.d_q, h))
    params["value.W1"] = w("value.W1", (3 * h, h))
    params["value.b1"] = Tensor(np.zeros(h), requires_grad=True)
    params["value.W2"] = w("value.W2", (h, 1))
    params["value.b2"] = Tensor(np.zeros(1), requires_grad=True)
    return params


def _stack(parts: tuple[np.ndarray | None, ...]) -> np.ndarray | None:
    """Stack per-graph sums; None (no such node) stacks as zeros, all-None as None."""
    if len(parts) == 1:
        return None if parts[0] is None else parts[0][None]
    present = [p for p in parts if p is not None]
    if not present:
        return None
    if len(present) < len(parts):
        zero = np.zeros_like(present[0])
        parts = [zero if p is None else p for p in parts]
    return np.stack(parts)


def _mean_messages(graphs: list[EncoderInput | HubState],
                   shared: EncoderInput | HubState | None,
                   beta: float) -> tuple[np.ndarray | None, tuple[bool, bool]]:
    """(N*H, d) beta-scaled means of the raw features over each hub's incoming
    edges in N graphs (`shared`'s sums add to each graph's), and which of
    (queries, responses) they stack, in that order; None when no graph has
    either kind of node."""
    N, H = len(graphs), graphs[0].n_hubs
    sums = [_stack(parts) for parts in zip(*(g.hub_sums for g in graphs))]
    if shared is not None:
        sums = [b if s is None else s if b is None else s + b
                for s, b in zip(sums, shared.hub_sums)]
    deg, q_sum, r_sum = sums
    kinds = (q_sum is not None, r_sum is not None)
    if not any(kinds):
        return None, kinds
    means = np.concatenate([np.broadcast_to(s, (N,) + s.shape) if s.ndim == 2
                            else s for s in (q_sum, r_sum) if s is not None], axis=2)
    means *= (beta / np.maximum(deg, 1.0))[:, :, None]
    return means.reshape(N * H, -1), kinds


def encode_graph(hubs: Tensor, graphs: list[EncoderInput | HubState],
                 W_q: Tensor, W_r: Tensor, W_m: Tensor, beta: float,
                 shared: EncoderInput | HubState | None = None) -> Tensor:
    """(N, H, hidden) hub rows of N graphs after one residual mean-message round.

    Every graph starts from the same (H, d) hub rows `hubs`: raw hub features,
    or rows already produced by another encoding pass. Mean aggregation is
    linear, so it runs on the raw features before the projection: graph i's
    rows are h + beta * [S_q,i | S_r,i] @ [W_q; W_r], where h = hubs @ W_m
    and S_q,i, S_r,i hold the summed query and response features of each
    hub's incoming edges, divided by the hub's in-degree; one matmul covers
    all N graphs. Hubs hear no other hub, and hubs without edges keep h.
    `shared` is encoded as part of every graph (its sums add to each
    graph's): the merged variants pass the history there. A weight whose node
    kind is absent from every graph, and every weight but W_m at beta = 0,
    stays off the tape.
    """
    H = hubs.shape[0]
    if any(g.n_hubs != H for g in [*graphs, shared] if g is not None):
        raise ValueError("hub sets differ between the graphs being encoded")
    h_hub = T.matmul(hubs, W_m)
    N, h = len(graphs), h_hub.shape[1]
    base = T.reshape(h_hub, (1, H, h))
    means, kinds = (None, ()) if beta == 0.0 else _mean_messages(graphs, shared, beta)
    if means is None:  # every hub keeps h
        return T.broadcast_to(base, (N, H, h))
    W = T.concat([W for W, kept in zip((W_q, W_r), kinds) if kept], axis=0)
    msg = T.matmul(Tensor(means), W)
    return T.add(base, T.reshape(msg, (N, H, h)))


def history_hub_rows(params: dict[str, Tensor], variant: str, beta: float,
                     hist_input: EncoderInput | HubState) -> Tensor | None:
    """(H, hidden) history-encoded hub rows (full variant); merged variants
    return None."""
    if variant == "full":
        rows = encode_graph(Tensor(hist_input.hub_feats), [hist_input],
                            params["his.W_q"], params["his.W_r"],
                            params["his.W_m"], beta)
        return T.reshape(rows, rows.shape[1:])
    if variant in ("homo", "hetero"):
        return None
    raise ValueError(f"unknown encoder variant: {variant!r}")


def encoder(params: dict[str, Tensor], variant: str, beta: float,
            hist_input: EncoderInput | HubState | None,
            wf_inputs: list[EncoderInput | HubState],
            queries: np.ndarray, masks: np.ndarray) -> tuple[Tensor, Tensor]:
    """Masked action distributions (N, R*K) and values (N,) of N decision
    points that share one history snapshot.

    Row i scores wf_inputs[i] against queries[i] under masks[i]; every weight
    is applied with one matmul whatever N is. The full variant encodes the
    history once and feeds its rows to every workflow pass as hub inputs;
    merged variants encode each workflow together with the history.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown encoder variant: {variant!r}")
    if hist_input is None:
        raise ValueError("the encoder needs the history input")
    Wq, Wr, Wm = (params[name] for name in MESSAGE_WEIGHTS[variant])
    if variant == "full":
        his_hubs = history_hub_rows(params, variant, beta, hist_input)
        score_rows = encode_graph(his_hubs, wf_inputs, Wq, Wr, Wm, beta)
        value_rows = T.reshape(his_hubs, (1,) + his_hubs.shape)
    else:
        score_rows = encode_graph(Tensor(hist_input.hub_feats), wf_inputs,
                                  Wq, Wr, Wm, beta, shared=hist_input)
        value_rows = score_rows
    return _head(params, score_rows, value_rows, queries, masks)


def _head(params: dict[str, Tensor], score_rows: Tensor, value_rows: Tensor,
          queries: np.ndarray, masks: np.ndarray) -> tuple[Tensor, Tensor]:
    """Score each point's hub rows against its fused query; a two-layer head
    on [query, pooled score rows, pooled value rows] gives the value."""
    N, H, h = score_rows.shape
    z = T.relu(T.row_normalize(T.matmul(Tensor(queries), params["fuse.W"])))
    scores = T.sum_axis(T.mul(score_rows, T.reshape(z, (N, 1, h))), axis=2)
    probs = T.masked_softmax(scores, masks)

    pooled = [T.broadcast_to(T.scale(T.sum_axis(rows, axis=1), 1.0 / H), (N, h))
              for rows in (score_rows, value_rows)]
    feat = T.concat([z] + pooled, axis=1)
    hidden = T.relu(T.add(T.matmul(feat, params["value.W1"]), params["value.b1"]))
    value = T.add(T.matmul(hidden, params["value.W2"]), params["value.b2"])
    return probs, T.reshape(value, (N,))


def entropy_of(probs: Tensor) -> Tensor:
    """Entropy summed over every row of probs."""
    return T.scale(T.total_sum(T.mul(probs, T.safe_log(probs))), -1.0)


def logprob_of(probs: Tensor, actions: np.ndarray) -> Tensor:
    """(N,) log-probability of actions[i] under row i of probs."""
    return T.log(T.pick_rows(probs, actions))


def _message_weights(W_q: np.ndarray, W_r: np.ndarray) -> dict:
    """The weights a (queries, responses) presence pair multiplies the mean
    messages by: [W_q; W_r] for both, else the one present."""
    return {(True, True): np.concatenate([W_q, W_r], axis=0),
            (True, False): W_q, (False, True): W_r}


def _rows_of_one(base: np.ndarray, graph: EncoderInput | HubState,
                 shared: EncoderInput | HubState | None, weights: dict,
                 beta: float) -> np.ndarray:
    """`encode_graph`'s (1, H, hidden) rows of one graph on plain arrays,
    from its projected hub rows `base` = hubs @ W_m and `_message_weights`."""
    H, h = base.shape
    if any(g.n_hubs != H for g in (graph, shared) if g is not None):
        raise ValueError("hub sets differ between the graphs being encoded")
    rows = base.reshape(1, H, h)
    means, kinds = (None, ()) if beta == 0.0 else _mean_messages([graph], shared, beta)
    return rows if means is None else rows + (means @ weights[kinds]).reshape(1, H, h)


class RoutingPolicy:
    """Inference-mode policy: `encoder`'s forward on one decision point, off
    the tape.

    It keeps each parameter's array as it is at construction, never a
    Tensor, so it records no tape whatever `requires_grad` says, and an
    optimizer step, which rebinds `Tensor.data`, leaves its weights as they
    were; it also stacks the message weights then. `prepare` computes once per
    history snapshot what depends only on the weights and the snapshot: the
    full variant's history hub rows, their loc.W_m projection and pooled value
    rows; a merged variant's projected history hubs (its edge sums stay cached
    on the history input). `act` runs the rest with the numpy ops `encoder`
    runs on a batch of one, in the same order and on the same shapes, so its
    probabilities and values are the tape's bit for bit.
    """

    def __init__(self, params: dict[str, Tensor], variant: str = "full",
                 beta: float = 1.0):
        if variant not in VARIANTS:
            raise ValueError(f"unknown encoder variant: {variant!r}")
        self.params = {k: p.data for k, p in params.items()}
        self.variant = variant
        self.beta = beta
        self.hist_input: EncoderInput | HubState | None = None
        W_q, W_r, self._W_m = (self.params[n] for n in MESSAGE_WEIGHTS[variant])
        self._weights = _message_weights(W_q, W_r)
        self._base: np.ndarray | None = None
        self._pooled_value: np.ndarray | None = None

    def prepare(self, hist_input: EncoderInput | HubState) -> None:
        w = self.params
        if self.variant == "full":
            his = _rows_of_one(hist_input.hub_feats @ w["his.W_m"], hist_input, None,
                               _message_weights(w["his.W_q"], w["his.W_r"]),
                               self.beta)
            self._base = his[0] @ self._W_m
            self._pooled_value = his.sum(axis=1) * (1.0 / his.shape[1])
        else:
            self._base = hist_input.hub_feats @ self._W_m
        self.hist_input = hist_input

    def act(self, wf_input: EncoderInput | HubState, query_embedding: np.ndarray,
            mask: np.ndarray, mode: str = "sample",
            rng: np.random.Generator | None = None):
        if self.hist_input is None:
            raise RuntimeError("call prepare() with a history snapshot first")
        w = self.params
        shared = None if self.variant == "full" else self.hist_input
        rows = _rows_of_one(self._base, wf_input, shared, self._weights, self.beta)
        _, H, h = rows.shape
        # `_head` on one point: T.row_normalize, then T.relu
        a = np.asarray(query_embedding, dtype=np.float64)[None, :] @ w["fuse.W"]
        a = a / (np.sqrt((a * a).sum(axis=1, keepdims=True)) + 1e-6)
        z = a * (a > 0.0)
        scores = (rows * z.reshape(1, 1, h)).sum(axis=2)
        probs = T.masked_softmax_array(scores, np.asarray(mask, dtype=bool)[None, :])[0]
        pooled = rows.sum(axis=1) * (1.0 / H)
        value_pooled = pooled if self._pooled_value is None else self._pooled_value
        feat = np.concatenate([z, pooled, value_pooled], axis=1)
        hidden = feat @ w["value.W1"] + w["value.b1"]
        value = (hidden * (hidden > 0.0)) @ w["value.W2"] + w["value.b2"]
        if mode == "greedy":
            idx = int(probs.argmax())
        else:
            if rng is None:
                raise ValueError("sampling mode needs an rng stream")
            idx = int(rng.choice(probs.shape[0], p=probs))
        return idx, float(value[0, 0])
