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

`RoutingPolicy` is the encoder and the head, on plain float64 arrays: what
depends only on the weights and the history snapshot is computed once per
snapshot, `forward` runs the rest on N decision points (one for rollouts and
evaluation, a whole window for the PPO update), and `backward` maps the
update's loss gradients back to the weights by hand. The test suite keeps a
reverse-mode tape version of the same encoder (`tests/tape.py`) and pins both
passes to it bit for bit; gradient checks compare `backward` with finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .memory import EncoderInput, HubState
from .streams import det_rng

VARIANTS = ("full", "homo", "hetero")
# per variant, the (W_q, W_r, W_m) that encode the graph the head scores
MESSAGE_WEIGHTS = {"full": ("loc.W_q", "loc.W_r", "loc.W_m"),
                   "homo": ("enc.W",) * 3,
                   "hetero": ("enc.W_q", "enc.W_r", "enc.W_m")}
# (N*H, d) mean messages of N graphs, and which of (queries, responses) they
# stack; (None, ()) when there is none
Messages = tuple[np.ndarray | None, tuple[bool, ...]]


@dataclass(frozen=True)
class EncoderDims:
    d_q: int = 64
    d_r: int = 64
    d_hub: int = 64
    hidden: int = 32


def init_params(dims: EncoderDims, variant: str = "full", seed: int = 0,
                init_scale: float = 1.0) -> dict[str, np.ndarray]:
    """Fresh weights of one variant, name -> float64 array; the names and
    shapes depend on the variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown encoder variant: {variant!r}")
    h = dims.hidden

    def w(name: str, shape: tuple[int, ...]) -> np.ndarray:
        fan_in = shape[0]
        return det_rng(seed, "init", name).normal(size=shape) * init_scale / np.sqrt(fan_in)

    params: dict[str, np.ndarray] = {}
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
    params["value.b1"] = np.zeros(h)
    params["value.W2"] = w("value.W2", (h, 1))
    params["value.b2"] = np.zeros(1)
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


def _messages(graphs: list[EncoderInput | HubState],
              shared: EncoderInput | HubState | None, beta: float,
              H: int) -> Messages:
    """`_mean_messages` of graphs that must all have H hubs; none at beta = 0."""
    if any(g.n_hubs != H for g in [*graphs, shared] if g is not None):
        raise ValueError("hub sets differ between the graphs being encoded")
    return (None, ()) if beta == 0.0 else _mean_messages(graphs, shared, beta)


def _message_weights(W_q: np.ndarray, W_r: np.ndarray) -> dict:
    """The weights a (queries, responses) presence pair multiplies the mean
    messages by: [W_q; W_r] for both, else the one present."""
    return {(True, True): np.concatenate([W_q, W_r], axis=0),
            (True, False): W_q, (False, True): W_r}


def _hub_rows(base: np.ndarray, messages: Messages, weights: dict,
              n: int) -> np.ndarray:
    """(n, H, hidden) hub rows of n graphs after one residual mean-message
    round, from the projected hub rows `base` = hubs @ W_m, the graphs'
    `_messages` and `_message_weights`: base plus the messages times
    [W_q; W_r]. Every graph starts from the same hub rows, and hubs without
    edges keep them."""
    means, kinds = messages
    H, h = base.shape
    rows = base.reshape(1, H, h)
    if means is not None:
        return rows + (means @ weights[kinds]).reshape(n, H, h)
    return rows if n == 1 else np.broadcast_to(rows, (n, H, h)).copy()


class Forward(NamedTuple):
    """`RoutingPolicy.forward` on N decision points: masked action
    distributions (N, R*K) and values (N,), and what `backward` reads of the
    pass."""
    probs: np.ndarray
    values: np.ndarray
    messages: Messages   # the workflows' mean messages
    queries: np.ndarray  # (N, d_q)
    rows: np.ndarray     # (N, H, hidden) scored hub rows
    fused: np.ndarray    # (N, hidden) queries @ fuse.W
    norm: np.ndarray     # (N, 1) row norms of fused
    z: np.ndarray        # (N, hidden) fused after row_normalize and relu
    feat: np.ndarray     # (N, 3 * hidden) value head input
    hidden: np.ndarray   # (N, hidden) value head hidden layer, after relu


class RoutingPolicy:
    """The policy's forward and backward on plain arrays.

    It copies the weight dict but not the arrays, and stacks the message
    weights at construction; an optimizer step rebinds the entries of the
    dict it is handed, so a policy built before the step keeps its weights.
    `prepare` computes once per history snapshot what depends only on the
    weights and the snapshot: the full variant's history hub rows, their
    loc.W_m projection and pooled value rows; a merged variant's projected
    history hubs (its edge sums stay cached on the history input). `messages`
    computes what depends only on the workflow states, and `forward` runs the
    rest on N decision points with the numpy ops of the tape encoder the tests
    keep, in the same order and on the same shapes, so its probabilities and
    values are the tape's bit for bit. `act` is `forward` on one point; the
    PPO update runs it on a whole window and maps the loss gradients back to
    the weights with `backward`.
    """

    def __init__(self, params: dict[str, np.ndarray], variant: str = "full",
                 beta: float = 1.0):
        if variant not in VARIANTS:
            raise ValueError(f"unknown encoder variant: {variant!r}")
        self.params = dict(params)
        self.variant = variant
        self.beta = beta
        self.hist_input: EncoderInput | HubState | None = None
        W_q, W_r, self._W_m = (self.params[n] for n in MESSAGE_WEIGHTS[variant])
        self._weights = _message_weights(W_q, W_r)
        self._hubs: np.ndarray | None = None  # the rows the workflow pass starts from
        self._base: np.ndarray | None = None
        self._pooled_value: np.ndarray | None = None  # full variant only
        self._his_messages: Messages | None = None

    def prepare(self, hist_input: EncoderInput | HubState) -> None:
        w = self.params
        if self.variant == "full":
            feats = hist_input.hub_feats
            self._his_messages = _messages([hist_input], None, self.beta,
                                           feats.shape[0])
            his = _hub_rows(feats @ w["his.W_m"], self._his_messages,
                            _message_weights(w["his.W_q"], w["his.W_r"]), 1)
            self._hubs = his[0]
            self._pooled_value = his.sum(axis=1) * (1.0 / his.shape[1])
        else:
            self._hubs = hist_input.hub_feats
        self._base = self._hubs @ self._W_m
        self.hist_input = hist_input

    def messages(self, wf_inputs: list[EncoderInput | HubState]) -> Messages:
        """The mean messages into the workflow hubs of N decision points (over
        the history's edges too in a merged variant); they depend on no
        weight."""
        if self.hist_input is None:
            raise RuntimeError("call prepare() with a history snapshot first")
        shared = None if self.variant == "full" else self.hist_input
        return _messages(wf_inputs, shared, self.beta, self._base.shape[0])

    def forward(self, messages: Messages, queries: np.ndarray,
                masks: np.ndarray) -> Forward:
        """Masked action distributions (N, R*K) and values (N,) of N decision
        points under the prepared snapshot: row i scores the i-th workflow of
        `messages` against queries[i] under masks[i]."""
        w = self.params
        N = queries.shape[0]
        rows = _hub_rows(self._base, messages, self._weights, N)
        _, H, h = rows.shape
        # the fused query: row-normalized, then relu
        fused = queries @ w["fuse.W"]
        norm = np.sqrt((fused * fused).sum(axis=1, keepdims=True))
        y = fused / (norm + 1e-6)
        z = y * (y > 0.0)
        scores = (rows * z.reshape(N, 1, h)).sum(axis=2)
        probs = T.masked_softmax_array(scores, masks)
        pooled = rows.sum(axis=1) * (1.0 / H)
        value_pooled = self._pooled_value
        if value_pooled is None:
            value_pooled = pooled
        elif N > 1:
            value_pooled = np.broadcast_to(value_pooled, (N, h))
        feat = np.concatenate([z, pooled, value_pooled], axis=1)
        hidden = feat @ w["value.W1"] + w["value.b1"]
        hidden = hidden * (hidden > 0.0)
        values = (hidden @ w["value.W2"] + w["value.b2"]).reshape(N)
        return Forward(probs, values, messages, queries, rows, fused, norm, z,
                       feat, hidden)

    def backward(self, fwd: Forward, g_probs: np.ndarray,
                 g_values: np.ndarray) -> dict[str, np.ndarray | None]:
        """Each weight's gradient of a loss whose gradients with respect to
        `fwd.probs` and `fwd.values` are g_probs and g_values.

        These are the reverse-mode tape's backward rules applied to `forward`:
        the same numpy ops on the same shapes, and where three contributions
        add up, the tape's grouping (merged variants: the two pooled rows'
        before the scores'; homo: W_m's before W_q's before W_r's), so the
        bits are the tape's. A weight the tape leaves off, a message weight
        whose node kind no graph has or any message weight at beta = 0, gets
        None.
        """
        w, merged = self.params, self._pooled_value is None
        N, H, h = fwd.rows.shape
        grads: dict[str, np.ndarray | None] = dict.fromkeys(w)

        def add(name: str, g: np.ndarray) -> None:
            grads[name] = g if grads[name] is None else grads[name] + g

        # the head: the masked softmax, the scores, then the value MLP
        p = fwd.probs
        inner = (g_probs * p).sum(axis=-1, keepdims=True)
        g_scores = (p * (g_probs - inner))[:, :, None]
        g_rows = g_scores * fwd.z.reshape(N, 1, h)
        g_z = T.unbroadcast(g_scores * fwd.rows, (N, 1, h)).reshape(N, h)
        g_out = g_values.reshape(N, 1)
        grads["value.b2"] = T.unbroadcast(g_out, w["value.b2"].shape)
        grads["value.W2"] = fwd.hidden.T @ g_out
        g_pre = (g_out @ w["value.W2"].T) * (fwd.hidden > 0.0)
        grads["value.b1"] = T.unbroadcast(g_pre, w["value.b1"].shape)
        grads["value.W1"] = fwd.feat.T @ g_pre
        g_feat = g_pre @ w["value.W1"].T
        g_z = g_z + g_feat[:, :h]
        g_pooled = g_feat[:, h:2 * h] * (1.0 / H)
        g_value_pooled = (T.unbroadcast(g_feat[:, 2 * h:], (N if merged else 1, h))
                          * (1.0 / H))
        if merged:  # the value rows are the score rows
            g_rows = (g_pooled + g_value_pooled)[:, None, :] + g_rows
        else:
            g_rows = g_rows + g_pooled[:, None, :]
        # the fused query: relu, then row-normalize
        g_y = g_z * (fwd.z > 0.0)
        denom = fwd.norm + 1e-6
        dot = (g_y * fwd.fused).sum(axis=1, keepdims=True)
        g_fused = (g_y / denom
                   - fwd.fused * dot / (np.maximum(fwd.norm, 1e-30) * denom * denom))
        grads["fuse.W"] = fwd.queries.T @ g_fused
        # the workflow message round, then the full variant's history round
        W_q, W_r, W_m = MESSAGE_WEIGHTS[self.variant]
        g_base = T.unbroadcast(g_rows, (1, H, h)).reshape(H, h)
        add(W_m, self._hubs.T @ g_base)
        self._message_grads(add, (W_q, W_r), fwd.messages, g_rows.reshape(N * H, h))
        if not merged:
            g_his = g_base @ self._W_m.T + g_value_pooled
            add("his.W_m", self.hist_input.hub_feats.T @ g_his)
            self._message_grads(add, ("his.W_q", "his.W_r"), self._his_messages,
                                g_his)
        return grads

    def _message_grads(self, add, names: tuple[str, str], messages: Messages,
                       g: np.ndarray) -> None:
        """Hand (W_q, W_r) their rows of the stacked message weight's gradient."""
        means, kinds = messages
        if means is None:
            return
        g_W = means.T @ g
        lo = 0
        for name, kept in zip(names, kinds):
            if kept:
                hi = lo + self.params[name].shape[0]
                add(name, g_W[lo:hi])
                lo = hi

    def act(self, wf_input: EncoderInput | HubState, query_embedding: np.ndarray,
            mask: np.ndarray, mode: str = "sample",
            rng: np.random.Generator | None = None):
        fwd = self.forward(self.messages([wf_input]),
                           np.asarray(query_embedding, dtype=np.float64)[None, :],
                           np.asarray(mask, dtype=bool)[None, :])
        probs = fwd.probs[0]
        if mode == "greedy":
            idx = int(probs.argmax())
        else:
            if rng is None:
                raise ValueError("sampling mode needs an rng stream")
            idx = int(rng.choice(probs.shape[0], p=probs))
        return idx, float(fwd.values[0])
