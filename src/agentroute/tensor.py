"""Minimal dense float64 tensor engine with reverse-mode differentiation.

Everything here is just enough for the routing policy: a Tensor that records
its parents on a tape, a dozen ops with hand-written backward rules, a global
gradient-norm clip, and a bias-corrected Adam. numpy supplies the array
arithmetic; the differentiation logic lives in this file. The program keeps
its parameters in Tensors but runs no tape: `encoder.RoutingPolicy` computes
the forward and the update's backward on plain arrays, and the ops here,
through `encoder.encoder`, are the reference that gradient checks and tests
pin it to. Checkpoints are JSON holding each tensor's shape and its values
as `fields.packed` text.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .fields import field, floats, items, packed, write_atomic

Array = np.ndarray


class Tensor:
    """A dense float64 array plus an optional gradient tape entry.

    Parents are (tensor, backward_fn) pairs; backward_fn maps the output
    gradient to that parent's gradient contribution. Ops only record parents
    when some input requires grad. The program builds Tensors only to hold
    parameters; `encoder.RoutingPolicy` runs on their plain arrays.
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


# -- elementwise and structural ops -----------------------------------------


def unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


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


def masked_softmax_array(scores: Array, mask: Array) -> Array:
    """Softmax along the last axis over entries where mask is True; masked
    entries get exactly 0.

    Raises if some row allows no entry. Max-subtraction is applied over the
    allowed entries only, so each row is the plain renormalized softmax.
    """
    mask = np.asarray(mask, dtype=bool)
    if scores.ndim == 0 or mask.shape != scores.shape:
        raise ValueError("scores and mask must be aligned arrays")
    if not mask.any(axis=-1).all():
        raise ValueError("masked_softmax with an empty mask row")
    top = np.where(mask, scores, -np.inf).max(axis=-1, keepdims=True)
    e = np.where(mask, np.exp(np.where(mask, scores - top, 0.0)), 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def masked_softmax(scores: Tensor, mask: Array) -> Tensor:
    """`masked_softmax_array` on the tape."""
    p = masked_softmax_array(scores.data, mask)

    def bw(g: Array) -> Array:
        inner = (g * p).sum(axis=-1, keepdims=True)
        return p * (g - inner)

    return _make(p, [(scores, bw)])


# -- optimization ------------------------------------------------------------


def clip_global_norm(tensors: Iterable[Tensor], max_norm: float = 0.5) -> float:
    """Scale all grads jointly so the global L2 norm is at most max_norm.

    Returns the applied scale factor (1.0 when already within the bound).
    Tensors without grads contribute zero and are left untouched.
    """
    ts = [t for t in tensors if t.grad is not None]
    sq = 0.0
    for t in ts:
        sq += float((t.grad * t.grad).sum())
    norm = math.sqrt(sq)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for t in ts:
        t.grad = t.grad * factor
    return factor


class Adam:
    """Bias-corrected Adam over a name->Tensor parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[k], self.v[k]
            # in place, rounding as the out-of-place update does
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            # lr * m_hat / (sqrt(v_hat) + eps), in two buffers; p.data is
            # rebound, not written, as a RoutingPolicy may hold the old array
            den = v / b2t
            np.sqrt(den, out=den)
            den += self.eps
            num = m / b1t
            num *= self.lr
            num /= den
            p.data = p.data - num

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


# -- parameter persistence ---------------------------------------------------

# Version 2 stores each tensor's data as `fields.packed` text; version 1
# listed the values, and still loads.
PARAMS_FORMAT_VERSION = 2


def params_to_jsonable(params: dict[str, Tensor]) -> dict:
    return {
        "format_version": PARAMS_FORMAT_VERSION,
        "tensors": {
            name: {"shape": list(t.data.shape), "data": packed(t.data)}
            for name, t in params.items()
        },
    }


def params_from_jsonable(obj: dict, requires_grad: bool = True) -> dict[str, Tensor]:
    """Parameters from params_to_jsonable() output, or from a version-1 blob;
    a malformed blob raises ValueError naming the offending field."""
    version = field(obj, "format_version", int, "parameters")
    if version not in (1, PARAMS_FORMAT_VERSION):
        raise ValueError(f"unsupported parameter format version: {version!r}")
    out: dict[str, Tensor] = {}
    for name, rec in field(obj, "tensors", dict, "parameters").items():
        where = f"parameter {name!r}"
        data = floats(rec, "data", where, version)
        shape = items(rec, "shape", int, where)
        if math.prod(shape) != data.size or min(shape, default=0) < 0:
            raise ValueError(f"{where}: shape {shape} does not fit {data.size} values")
        out[name] = Tensor(data.reshape(shape), requires_grad=requires_grad)
    return out


def save_params(path: str, params: dict[str, Tensor], meta: dict | None = None) -> None:
    blob = params_to_jsonable(params)
    if meta is not None:
        blob["meta"] = meta
    write_atomic(path, json.dumps(blob, sort_keys=True))


def load_params(path: str, requires_grad: bool = True) -> tuple[dict[str, Tensor], dict]:
    with open(path) as fh:
        blob = json.load(fh)
    params = params_from_jsonable(blob, requires_grad=requires_grad)
    return params, blob.get("meta", {})
