"""Dual-graph state encoder and the (role, model) policy head.

Node features are projected per type and mixed with one residual
mean-message round. Only hub rows are read downstream, so the round computes
them alone, as one product with a constant row-normalised count matrix. The
history graph's hub rows are injected as the workflow hub inputs (nested
encoding). Action scores are dot products between the fused query
representation and the workflow hub rows; a two-layer head on pooled hub rows
estimates the state value. Ablation variants swap this wiring for one
encoding of the union of the history and workflow graphs, with shared or
per-type projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .memory import EncoderInput
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


def _project(feats: np.ndarray, n: int, W: Tensor) -> Tensor:
    if n == 0:
        return Tensor(np.zeros((0, W.shape[1])))
    return T.matmul(Tensor(feats), W)


def encode_graph(graphs: list[EncoderInput], W_q: Tensor, W_r: Tensor,
                 W_m: Tensor, beta: float,
                 hub_override: Tensor | None = None) -> Tensor:
    """Hub rows after one round of residual mean message passing.

    h0 projects each node by its type's matrix; each hub then adds beta times
    the mean of h0 over its incoming edges, as h_hub + beta * M @ h0 with M
    the row-normalised hub rows of the edge-count matrix. Hubs without edges
    keep h0. The graphs share one hub set and are encoded as their union:
    hub-hub counts add up, and the other nodes line up as every graph's
    queries, then every graph's responses. hub_override replaces the raw hub
    features with rows already produced by another encoding pass; W_m then
    projects those rows (hidden by hidden) instead of the raw features.
    """
    hubs = Tensor(graphs[0].hub_feats) if hub_override is None else hub_override
    H = hubs.shape[0]
    if any(g.n_hubs != H for g in graphs):
        raise ValueError("hub sets differ between the graphs being encoded")
    h_hub = T.matmul(hubs, W_m)
    if beta == 0.0:
        return h_hub
    q_end = [H + g.n_queries for g in graphs]
    counts = np.concatenate(
        [sum(g.hub_counts[:, :H] for g in graphs)]
        + [g.hub_counts[:, H:e] for g, e in zip(graphs, q_end)]
        + [g.hub_counts[:, e:] for g, e in zip(graphs, q_end)], axis=1)
    M = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0)
    h0 = T.concat([h_hub]
                  + [_project(g.query_feats, g.n_queries, W_q) for g in graphs]
                  + [_project(g.response_feats, g.n_responses, W_r)
                     for g in graphs], axis=0)
    return T.add(h_hub, T.scale(T.matmul(Tensor(M), h0), beta))


def history_hub_rows(params: dict[str, Tensor], variant: str, beta: float,
                     hist_input: EncoderInput) -> Tensor | None:
    """History-encoded hub rows (full variant); merged variants return None."""
    if variant == "full":
        return encode_graph([hist_input], params["his.W_q"], params["his.W_r"],
                            params["his.W_m"], beta)
    if variant in ("homo", "hetero"):
        return None
    raise ValueError(f"unknown encoder variant: {variant!r}")


def step_outputs(params: dict[str, Tensor], variant: str, beta: float,
                 wf_input: EncoderInput, query_embedding: np.ndarray,
                 mask: np.ndarray, his_hubs: Tensor | None,
                 hist_input: EncoderInput | None) -> tuple[Tensor, Tensor]:
    """Masked action distribution and value estimate for one decision point."""
    if variant == "full":
        if his_hubs is None:
            raise ValueError("full variant needs history hub rows")
        loc_hubs = encode_graph([wf_input], params["loc.W_q"], params["loc.W_r"],
                                params["loc.W_m"], beta, hub_override=his_hubs)
        score_hubs, value_his = loc_hubs, his_hubs
    elif variant in ("homo", "hetero"):
        if hist_input is None:
            raise ValueError("merged variants need the history input")
        if variant == "homo":
            Wq = Wr = Wm = params["enc.W"]
        else:
            Wq, Wr, Wm = params["enc.W_q"], params["enc.W_r"], params["enc.W_m"]
        hubs = encode_graph([hist_input, wf_input], Wq, Wr, Wm, beta)
        score_hubs, value_his = hubs, hubs
    else:
        raise ValueError(f"unknown encoder variant: {variant!r}")
    return act(query_embedding, score_hubs, value_his, mask, params)


def act(query_embedding: np.ndarray, score_hubs: Tensor, his_hubs: Tensor,
        mask: np.ndarray, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Score hubs against the fused query; returns (probs, value)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape[0] != score_hubs.shape[0]:
        raise ValueError("mask length does not match the hub count")
    if not mask.any():
        raise ValueError("no action is allowed by the mask")
    h = params["fuse.W"].shape[1]
    q = Tensor(query_embedding.reshape(1, -1))
    z_row = T.relu(T.row_normalize(T.matmul(q, params["fuse.W"])))
    z = T.reshape(z_row, (h,))
    scores = T.reshape(T.matmul(score_hubs, T.reshape(z, (h, 1))), (mask.shape[0],))
    probs = T.masked_softmax(scores, mask)

    feat = T.concat([z, T.row_mean(score_hubs), T.row_mean(his_hubs)])
    hidden = T.relu(T.add(T.reshape(T.matmul(T.reshape(feat, (1, 3 * h)),
                                             params["value.W1"]), (h,)),
                          params["value.b1"]))
    value = T.add(T.reshape(T.matmul(T.reshape(hidden, (1, h)),
                                     params["value.W2"]), (1,)),
                  params["value.b2"])
    return probs, T.reshape(value, ())


def entropy_of(probs: Tensor) -> Tensor:
    return T.scale(T.total_sum(T.mul(probs, T.safe_log(probs))), -1.0)


def logprob_of(probs: Tensor, action_index: int) -> Tensor:
    return T.log(T.pick(probs, action_index))


class RoutingPolicy:
    """Inference-mode policy: shared code path with the training recompute.

    For the full variant the history encoding is cached once per prepare()
    call; merged variants re-encode history at every step by construction.
    """

    def __init__(self, params: dict[str, Tensor], variant: str = "full",
                 beta: float = 1.0):
        if variant not in VARIANTS:
            raise ValueError(f"unknown encoder variant: {variant!r}")
        self.params = params
        self.variant = variant
        self.beta = beta
        self.hist_input: EncoderInput | None = None
        self._his_hubs: Tensor | None = None

    def prepare(self, hist_input: EncoderInput) -> None:
        self.hist_input = hist_input
        self._his_hubs = history_hub_rows(self.params, self.variant, self.beta,
                                          hist_input)

    def act(self, wf_input: EncoderInput, query_embedding: np.ndarray,
            mask: np.ndarray, mode: str = "sample",
            rng: np.random.Generator | None = None):
        if self.hist_input is None:
            raise RuntimeError("call prepare() with a history snapshot first")
        probs_t, value_t = step_outputs(self.params, self.variant, self.beta,
                                        wf_input, query_embedding, mask,
                                        self._his_hubs, self.hist_input)
        probs = probs_t.data
        if mode == "greedy":
            idx = int(np.argmax(probs))
        else:
            if rng is None:
                raise ValueError("sampling mode needs an rng stream")
            idx = int(rng.choice(probs.shape[0], p=probs))
        pos = probs > 0.0
        entropy = float(-(probs[pos] * np.log(probs[pos])).sum())
        logp = float(np.log(probs[idx]))
        return idx, logp, float(value_t.data), entropy
