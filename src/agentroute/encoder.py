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
values. Rollouts call it with a batch of one and the PPO update with a whole
window, so both run the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .memory import EncoderInput, HubState
from .streams import det_rng
from .tensor import Tensor

VARIANTS = ("full", "homo", "hetero")


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
    present = [p for p in parts if p is not None]
    if not present:
        return None
    if len(parts) == 1:
        return parts[0][None]
    if len(present) < len(parts):
        zero = np.zeros_like(present[0])
        parts = [zero if p is None else p for p in parts]
    return np.stack(parts)


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
    if beta == 0.0:
        return T.broadcast_to(base, (N, H, h))
    sums = [_stack(parts) for parts in zip(*(g.hub_sums for g in graphs))]
    if shared is not None:
        sums = [b if s is None else s if b is None else s + b
                for s, b in zip(sums, shared.hub_sums)]
    deg, q_sum, r_sum = sums
    kept = [(s, W) for s, W in ((q_sum, W_q), (r_sum, W_r)) if s is not None]
    if not kept:  # no query or response: every hub keeps h
        return T.broadcast_to(base, (N, H, h))
    means = np.concatenate([np.broadcast_to(s, (N,) + s.shape) if s.ndim == 2
                            else s for s, _ in kept], axis=2)
    means *= (beta / np.maximum(deg, 1.0))[:, :, None]
    msg = T.matmul(Tensor(means.reshape(N * H, -1)),
                   T.concat([W for _, W in kept], axis=0))
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
            queries: np.ndarray, masks: np.ndarray,
            his_hubs: Tensor | None = None) -> tuple[Tensor, Tensor]:
    """Masked action distributions (N, R*K) and values (N,) of N decision
    points that share one history snapshot.

    Row i scores wf_inputs[i] against queries[i] under masks[i]. Rollouts
    pass one decision point, the update a whole window; every weight is
    applied with one matmul whatever N is. The full variant encodes the
    history once (or takes its cached rows as his_hubs) and feeds those rows
    to every workflow pass as hub inputs; merged variants encode each
    workflow together with the history.
    """
    if variant == "full":
        if his_hubs is None:
            if hist_input is None:
                raise ValueError("the full variant needs the history input")
            his_hubs = history_hub_rows(params, variant, beta, hist_input)
        score_rows = encode_graph(his_hubs, wf_inputs, params["loc.W_q"],
                                  params["loc.W_r"], params["loc.W_m"], beta)
        value_rows = T.reshape(his_hubs, (1,) + his_hubs.shape)
    elif variant in ("homo", "hetero"):
        if hist_input is None:
            raise ValueError("merged variants need the history input")
        if variant == "homo":
            Wq = Wr = Wm = params["enc.W"]
        else:
            Wq, Wr, Wm = params["enc.W_q"], params["enc.W_r"], params["enc.W_m"]
        score_rows = encode_graph(Tensor(hist_input.hub_feats), wf_inputs,
                                  Wq, Wr, Wm, beta, shared=hist_input)
        value_rows = score_rows
    else:
        raise ValueError(f"unknown encoder variant: {variant!r}")
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


class RoutingPolicy:
    """Inference-mode policy: `encoder` on a batch of one decision point.

    For the full variant the history encoding is cached once per prepare()
    call; merged variants encode the history with every workflow by
    construction (its edge sums stay cached on the history input).
    """

    def __init__(self, params: dict[str, Tensor], variant: str = "full",
                 beta: float = 1.0):
        if variant not in VARIANTS:
            raise ValueError(f"unknown encoder variant: {variant!r}")
        self.params = params
        self.variant = variant
        self.beta = beta
        self.hist_input: EncoderInput | HubState | None = None
        self._his_hubs: Tensor | None = None

    def prepare(self, hist_input: EncoderInput | HubState) -> None:
        self.hist_input = hist_input
        self._his_hubs = history_hub_rows(self.params, self.variant, self.beta,
                                          hist_input)

    def act(self, wf_input: EncoderInput | HubState, query_embedding: np.ndarray,
            mask: np.ndarray, mode: str = "sample",
            rng: np.random.Generator | None = None):
        if self.hist_input is None:
            raise RuntimeError("call prepare() with a history snapshot first")
        probs_t, value_t = encoder(self.params, self.variant, self.beta,
                                   self.hist_input, [wf_input],
                                   np.asarray(query_embedding)[None, :],
                                   np.asarray(mask, dtype=bool)[None, :],
                                   self._his_hubs)
        probs = probs_t.data[0]
        if mode == "greedy":
            idx = int(np.argmax(probs))
        else:
            if rng is None:
                raise ValueError("sampling mode needs an rng stream")
            idx = int(rng.choice(probs.shape[0], p=probs))
        return idx, float(value_t.data[0])
