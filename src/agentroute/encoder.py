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
snapshot, `forward` runs the rest on a whole window of decision points for
the PPO update, `act` on the one point of a rollout or evaluation step, and
`backward` maps the update's loss gradients back to the weights by hand. The
test suite keeps a reverse-mode tape version of the same encoder
(`tests/tape.py`) and pins both passes to it bit for bit; gradient checks
compare `backward` with finite differences.
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


def _graph_messages(graph: EncoderInput | HubState,
                    shared: EncoderInput | HubState | None, beta: float, H: int,
                    fill: tuple[np.ndarray | None, ...] = (None, None)) -> Messages:
    """(H, d) beta-scaled means of the raw features over each hub's incoming
    edges of one graph that must have H hubs (`shared`'s sums add to its
    own), and which of (queries, responses) they stack, in that order; None
    when neither kind is there, and (None, ()) at beta = 0. `fill` holds the
    sums to take for a kind the graph lacks."""
    if graph.n_hubs != H or (shared is not None and shared.n_hubs != H):
        raise ValueError("hub sets differ between the graphs being encoded")
    if beta == 0.0:
        return None, ()
    deg, q_sum, r_sum = graph.hub_sums
    q_sum = fill[0] if q_sum is None else q_sum
    r_sum = fill[1] if r_sum is None else r_sum
    if shared is not None:
        deg, q_sum, r_sum = [b if s is None else s if b is None else s + b
                             for s, b in zip((deg, q_sum, r_sum), shared.hub_sums)]
    kinds = (q_sum is not None, r_sum is not None)
    if not any(kinds):
        return None, kinds
    means = np.concatenate([s for s in (q_sum, r_sum) if s is not None], axis=1)
    means *= (beta / np.maximum(deg, 1.0))[:, None]
    return means, kinds


def _message_weights(W_q: np.ndarray, W_r: np.ndarray) -> dict:
    """The weights a (queries, responses) presence pair multiplies the mean
    messages by: [W_q; W_r] for both, else the one present."""
    return {(True, True): np.concatenate([W_q, W_r], axis=0),
            (True, False): W_q, (False, True): W_r}


def _hub_rows(base: np.ndarray, messages: Messages, weights: dict,
              n: int) -> np.ndarray:
    """(n, H, hidden) hub rows of n graphs after one residual mean-message
    round, from the projected hub rows `base` = hubs @ W_m, the graphs'
    `messages` and `_message_weights`: base plus the messages times
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
    values are the tape's bit for bit. The PPO update runs `forward` on a
    whole window and maps the loss gradients back to the weights with
    `backward`; `act` takes one decision with its own one-point pass, which
    shares `forward`'s heads and gives its bits.
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
            self._his_messages = _graph_messages(hist_input, None, self.beta,
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
        """The (N*H, d) mean messages into the workflow hubs of N decision
        points (over the history's edges too in a merged variant); they
        depend on no weight. Each point's `_graph_messages`, stacked: a point
        lacking a kind of node that another point has takes zero sums for
        it, so its rows carry zero columns scaled like its means, the bits of
        one pass over the N points' stacked sums."""
        if self.hist_input is None:
            raise RuntimeError("call prepare() with a history snapshot first")
        shared = None if self.variant == "full" else self.hist_input
        fill = tuple(next((np.zeros_like(g.hub_sums[i]) for g in wf_inputs
                           if g.hub_sums[i] is not None), None) for i in (1, 2))
        built = [_graph_messages(g, shared, self.beta, self._base.shape[0], fill)
                 for g in wf_inputs]
        if built[0][0] is None:
            return built[0]
        return np.concatenate([means for means, _ in built]), built[0][1]

    def forward(self, messages: Messages, queries: np.ndarray,
                masks: np.ndarray) -> Forward:
        """Masked action distributions (N, R*K) and values (N,) of N decision
        points under the prepared snapshot: row i scores the i-th workflow of
        `messages` against queries[i] under masks[i]."""
        rows = _hub_rows(self._base, messages, self._weights, queries.shape[0])
        probs, values, fused, norm, z, feat, hidden = self._head(rows, queries, masks)
        return Forward(probs, values, messages, queries, rows, fused, norm, z,
                       feat, hidden)

    def _head(self, rows: np.ndarray, queries: np.ndarray, masks: np.ndarray):
        """The policy and value heads on N points' (N, H, hidden) hub rows:
        (probs, values) and the intermediates `Forward` keeps for `backward`."""
        w = self.params
        N, H, h = rows.shape
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
        return probs, values, fused, norm, z, feat, hidden

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
            rng: np.random.Generator | None = None) -> tuple[int, float]:
        """One decision: (action index, value) of `forward` on this one point,
        bit for bit, the action greedy or sampled from its distribution.

        The one-point pass of sequential episodes: it builds the workflow's
        (H, d_q + d_r) mean messages straight from its hub sums (plus the
        history's in a merged variant) with `_graph_messages`, and runs
        `forward`'s ops on `forward`'s shapes, without the record `backward`
        reads."""
        if self.hist_input is None:
            raise RuntimeError("call prepare() with a history snapshot first")
        shared = None if self.variant == "full" else self.hist_input
        base = self._base
        means, kinds = _graph_messages(wf_input, shared, self.beta, base.shape[0])
        rows = base if means is None else base + means @ self._weights[kinds]
        probs, values = self._head(
            rows[None], np.asarray(query_embedding, dtype=np.float64)[None, :],
            np.asarray(mask, dtype=bool)[None, :])[:2]
        probs = probs[0]
        if mode == "greedy":
            idx = int(probs.argmax())
        else:
            if rng is None:
                raise ValueError("sampling mode needs an rng stream")
            idx = int(rng.choice(probs.shape[0], p=probs))
        return idx, float(values[0])
