"""Array helpers, the optimizer and parameter persistence of the policy.

The weights are a plain dict from name to float64 array, from `init_params`
to the checkpoint. `encoder.RoutingPolicy` runs the forward and the update's
backward on them by hand; this module holds the pieces those share and what
the update applies to the gradients: `unbroadcast` (the sum that undoes a
broadcast), `masked_softmax_array`, a global gradient-norm clip and a
bias-corrected Adam. Checkpoints are JSON holding each array's shape and its
values as `fields.packed` text.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .fields import field, floats, items, packed, write_atomic

Array = np.ndarray


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


# -- optimization ------------------------------------------------------------


def clip_global_norm(grads: dict[str, Array | None], max_norm: float = 0.5) -> float:
    """Scale the gradients jointly, in place in `grads`, so that their global
    L2 norm is at most max_norm; squares are summed in the dict's order.

    Returns the applied scale factor (1.0 when already within the bound).
    A None entry (a weight without a gradient) contributes zero and stays None.
    """
    sq = 0.0
    for g in grads.values():
        if g is not None:
            sq += float((g * g).sum())
    norm = math.sqrt(sq)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for k, g in grads.items():
        if g is not None:
            grads[k] = g * factor
    return factor


class Adam:
    """Bias-corrected Adam over one group of named weights: the names and
    shapes of the dict it is built from."""

    def __init__(self, params: dict[str, Array], lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, Array], grads: dict[str, Array | None]) -> None:
        """One step on the group's names in `params`; a name whose gradient
        is None keeps its weight and moments."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for k, m in self.m.items():
            g = grads[k]
            if g is None:
                continue
            v = self.v[k]
            # in place, rounding as the out-of-place update does
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            # lr * m_hat / (sqrt(v_hat) + eps), in two buffers; the weight is
            # rebound, not written, as a RoutingPolicy may hold the old array
            den = v / b2t
            np.sqrt(den, out=den)
            den += self.eps
            num = m / b1t
            num *= self.lr
            num /= den
            params[k] = params[k] - num


# -- parameter persistence ---------------------------------------------------

# Version 2 stores each array's values as `fields.packed` text; version 1
# listed the values, and still loads.
PARAMS_FORMAT_VERSION = 2


def params_to_jsonable(params: dict[str, Array]) -> dict:
    return {
        "format_version": PARAMS_FORMAT_VERSION,
        "tensors": {
            name: {"shape": list(a.shape), "data": packed(a)}
            for name, a in params.items()
        },
    }


def params_from_jsonable(obj: dict) -> dict[str, Array]:
    """Parameters from params_to_jsonable() output, or from a version-1 blob;
    a malformed blob raises ValueError naming the offending field."""
    version = field(obj, "format_version", int, "parameters")
    if version not in (1, PARAMS_FORMAT_VERSION):
        raise ValueError(f"unsupported parameter format version: {version!r}")
    out: dict[str, Array] = {}
    for name, rec in field(obj, "tensors", dict, "parameters").items():
        where = f"parameter {name!r}"
        data = floats(rec, "data", where, version)
        shape = items(rec, "shape", int, where)
        if math.prod(shape) != data.size or min(shape, default=0) < 0:
            raise ValueError(f"{where}: shape {shape} does not fit {data.size} values")
        out[name] = data.reshape(shape)
    return out


def save_params(path: str, params: dict[str, Array], meta: dict | None = None) -> None:
    blob = params_to_jsonable(params)
    if meta is not None:
        blob["meta"] = meta
    write_atomic(path, json.dumps(blob, sort_keys=True))


def load_params(path: str) -> tuple[dict[str, Array], dict]:
    with open(path) as fh:
        blob = json.load(fh)
    return params_from_jsonable(blob), blob.get("meta", {})
