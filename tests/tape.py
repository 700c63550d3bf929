"""A reverse-mode tape and the policy encoder on it: the reference that the
shipped plain-array forward and backward are pinned to.

`Tensor` records its parents on a tape, each op has a hand-written backward
rule, and `backward` accumulates gradients from a scalar loss into the
leaves' `.grad`. `encoder` maps a stack of decision points to masked action
distributions and values with those ops; `RoutingPolicy.forward` and
`RoutingPolicy.backward` run the same numpy ops on plain arrays, so tests
compare the two bit for bit, and c01 checks the tape against finite
differences. `leaves(arrays)` wraps a weight dict as tape leaves that share
the arrays.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from agentroute.encoder import MESSAGE_WEIGHTS, VARIANTS, _messages
from agentroute.memory import EncoderInput, HubState
from agentroute.tensor import masked_softmax_array, unbroadcast

Array = np.ndarray


class Tensor:
    """A dense float64 array plus an optional gradient tape entry.

    Parents are (tensor, backward_fn) pairs; backward_fn maps the output
    gradient to that parent's gradient contribution. Ops only record parents
    when some input requires grad.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: list[tuple["Tensor", Callable[[Array], Array]]] = []

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _make(data: Array, parents: list[tuple[Tensor, Callable[[Array], Array]]]) -> Tensor:
    req = any(p.requires_grad for p, _ in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = parents
    return out


def backward(loss: Tensor) -> None:
    """Reverse-mode accumulation from a scalar loss over the recorded tape.

    Visits each node exactly once in reverse topological order and skips
    constants (parents that do not require grad) altogether. Raises on a
    non-scalar loss because the seed gradient would be ambiguous.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, Array] = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and not node._parents:
            node.grad = g if node.grad is None else node.grad + g
        for parent, fn in node._parents:
            if not parent.requires_grad:
                continue  # a constant: its gradient would only be dropped
            contrib = fn(g)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib


# -- ops ---------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return _make(out, [
        (a, lambda g: unbroadcast(g, a.data.shape)),
        (b, lambda g: unbroadcast(g, b.data.shape)),
    ])


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return _make(out, [
        (a, lambda g: unbroadcast(g, a.data.shape)),
        (b, lambda g: unbroadcast(-g, b.data.shape)),
    ])


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return _make(out, [
        (a, lambda g: unbroadcast(g * b.data, a.data.shape)),
        (b, lambda g: unbroadcast(g * a.data, b.data.shape)),
    ])


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, [(a, lambda g: g * c)])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-d operands")
    out = a.data @ b.data
    return _make(out, [
        (a, lambda g: g @ b.data.T),
        (b, lambda g: a.data.T @ g),
    ])


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)
    return _make(out, [(a, lambda g: g.reshape(a.data.shape))])


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ValueError("concat of zero tensors")
    out = np.concatenate([p.data for p in parts], axis=axis)
    parents = []
    hi = 0
    for p in parts:
        lo, hi = hi, hi + p.data.shape[axis]

        def bw(g: Array, lo=lo, hi=hi) -> Array:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            return g[tuple(sl)]

        parents.append((p, bw))
    return _make(out, parents)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _make(a.data * mask, [(a, lambda g: g * mask)])


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, [(a, lambda g: g * out)])


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), [(a, lambda g: g / a.data)])


def safe_log(a: Tensor) -> Tensor:
    """log on strictly positive entries, 0 elsewhere, zero grad elsewhere."""
    pos = a.data > 0.0
    out = np.where(pos, np.log(np.where(pos, a.data, 1.0)), 0.0)
    return _make(out, [(a, lambda g: np.where(pos, g / np.where(pos, a.data, 1.0), 0.0))])


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    inside = (a.data >= lo) & (a.data <= hi)
    return _make(np.clip(a.data, lo, hi), [(a, lambda g: g * inside)])


def minimum(a: Tensor, b: Tensor) -> Tensor:
    take_a = a.data <= b.data
    out = np.where(take_a, a.data, b.data)
    return _make(out, [
        (a, lambda g: unbroadcast(g * take_a, a.data.shape)),
        (b, lambda g: unbroadcast(g * ~take_a, b.data.shape)),
    ])


def total_sum(a: Tensor) -> Tensor:
    return _make(np.asarray(a.data.sum()), [(a, lambda g: g * np.ones_like(a.data))])


def sum_axis(a: Tensor, axis: int) -> Tensor:
    """Sum over one axis; the result drops that axis."""
    out = a.data.sum(axis=axis)
    return _make(out, [(a, lambda g: np.broadcast_to(np.expand_dims(g, axis),
                                                     a.data.shape).copy())])


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Repeat a along its size-1 (or missing leading) axes up to shape."""
    if a.data.shape == tuple(shape):
        return a
    out = np.broadcast_to(a.data, shape).copy()
    return _make(out, [(a, lambda g: unbroadcast(g, a.data.shape))])


def pick_rows(a: Tensor, indices: Array) -> Tensor:
    """Entry indices[i] of row i of an (n, k) matrix; returns shape (n,)."""
    indices = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2 or indices.shape != (a.data.shape[0],):
        raise ValueError("pick_rows expects an (n, k) operand and n indices")
    rows = np.arange(indices.size)

    def bw(g: Array) -> Array:
        out = np.zeros_like(a.data)
        out[rows, indices] = g
        return out

    return _make(a.data[rows, indices], [(a, bw)])


def row_normalize(a: Tensor, eps: float = 1e-6) -> Tensor:
    """Per-row x / (||x||_2 + eps) for an (n, d) matrix."""
    if a.data.ndim != 2:
        raise ValueError("row_normalize expects a 2-d operand")
    r = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True))
    denom = r + eps
    out = a.data / denom

    def bw(g: Array) -> Array:
        # y = x / (r + eps); dy/dx = I/(r+eps) - x x^T / (r (r+eps)^2)
        gx_dot = (g * a.data).sum(axis=1, keepdims=True)
        r_safe = np.maximum(r, 1e-30)
        return g / denom - a.data * gx_dot / (r_safe * denom * denom)

    return _make(out, [(a, bw)])


def masked_softmax(scores: Tensor, mask: Array) -> Tensor:
    """`masked_softmax_array` on the tape."""
    p = masked_softmax_array(scores.data, mask)

    def bw(g: Array) -> Array:
        inner = (g * p).sum(axis=-1, keepdims=True)
        return p * (g - inner)

    return _make(p, [(scores, bw)])


# -- the policy encoder ------------------------------------------------------


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
    means, kinds = _messages(graphs, shared, beta, H)
    h_hub = matmul(hubs, W_m)
    N, h = len(graphs), h_hub.shape[1]
    base = reshape(h_hub, (1, H, h))
    if means is None:  # every hub keeps h
        return broadcast_to(base, (N, H, h))
    W = concat([W for W, kept in zip((W_q, W_r), kinds) if kept], axis=0)
    msg = matmul(Tensor(means), W)
    return add(base, reshape(msg, (N, H, h)))


def history_hub_rows(params: dict[str, Tensor], variant: str, beta: float,
                     hist_input: EncoderInput | HubState) -> Tensor | None:
    """(H, hidden) history-encoded hub rows (full variant); merged variants
    return None."""
    if variant == "full":
        rows = encode_graph(Tensor(hist_input.hub_feats), [hist_input],
                            params["his.W_q"], params["his.W_r"],
                            params["his.W_m"], beta)
        return reshape(rows, rows.shape[1:])
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
        value_rows = reshape(his_hubs, (1,) + his_hubs.shape)
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
    z = relu(row_normalize(matmul(Tensor(queries), params["fuse.W"])))
    scores = sum_axis(mul(score_rows, reshape(z, (N, 1, h))), axis=2)
    probs = masked_softmax(scores, masks)

    pooled = [broadcast_to(scale(sum_axis(rows, axis=1), 1.0 / H), (N, h))
              for rows in (score_rows, value_rows)]
    feat = concat([z] + pooled, axis=1)
    hidden = relu(add(matmul(feat, params["value.W1"]), params["value.b1"]))
    value = add(matmul(hidden, params["value.W2"]), params["value.b2"])
    return probs, reshape(value, (N,))


def entropy_of(probs: Tensor) -> Tensor:
    """Entropy summed over every row of probs."""
    return scale(total_sum(mul(probs, safe_log(probs))), -1.0)


def logprob_of(probs: Tensor, actions: np.ndarray) -> Tensor:
    """(N,) log-probability of actions[i] under row i of probs."""
    return log(pick_rows(probs, actions))


def leaves(arrays: dict[str, Array]) -> dict[str, Tensor]:
    """Each array as a leaf that requires grad; a leaf's data is its array,
    not a copy."""
    return {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
