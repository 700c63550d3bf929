"""Per-layer spans and counters, attached to agentroute from outside.

`Tracer.install()` replaces each layer function listed in LAYERS with a
wrapper that records one span (name, start, end, parent) per call, wherever
the program refers to the function: class attributes for methods, and every
module-level binding for functions imported by name (`from .memory import
serialize` in ppo.py is a second binding of the same object). A layer that no
longer exists is recorded as absent instead of failing the run.

Self time is a span's duration minus the time its direct child spans cover,
accumulated on a stack as calls return, so no span list has to be walked
afterwards. Spans are kept in flat arrays and written once, at the end.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# metric prefix, module, attribute path inside the module
LAYERS = (
    ("tensor.backward", "agentroute.tensor", "backward"),
    ("tensor.adam", "agentroute.tensor", "Adam.step"),
    ("tensor.clip_norm", "agentroute.tensor", "clip_global_norm"),
    ("ppo.train", "agentroute.ppo", "train"),
    ("ppo.update", "agentroute.ppo", "ppo_update"),
    ("ppo.collect", "agentroute.ppo", "collect_window"),
    ("ppo.gae", "agentroute.ppo", "compute_gae"),
    ("ppo.write_artifacts", "agentroute.ppo", "write_artifacts"),
    ("encoder.prepare", "agentroute.encoder", "RoutingPolicy.prepare"),
    ("encoder.act", "agentroute.encoder", "RoutingPolicy.act"),
    ("memory.freeze", "agentroute.memory", "HeteroGraph.freeze"),
    ("memory.absorb", "agentroute.env", "absorb_episode"),
    ("memory.serialize", "agentroute.memory", "serialize"),
    ("memory.deserialize", "agentroute.memory", "deserialize"),
    ("env.legal_mask", "agentroute.env", "RoutingEnv.legal_mask"),
    ("env.step", "agentroute.env", "RoutingEnv.step"),
    ("env.clone", "agentroute.env", "RoutingEnv.clone"),
    ("backend.invoke", "agentroute.backend", "Benchmark.invoke"),
    ("backend.decompose", "agentroute.backend", "Benchmark.decompose"),
    ("streams.det_rng", "agentroute.streams", "det_rng"),
    ("harness.evaluate", "agentroute.harness", "evaluate"),
    ("harness.trace_check", "agentroute.harness", "_cross_check_cost"),
    ("baselines.oracle", "agentroute.baselines", "oracle_route"),
)

TENSOR_CLASS = ("agentroute.tensor", "Tensor")


def _frozen_digest(inp) -> bytes:
    """Identity of what the encoder sees: every array of a frozen graph."""
    h = hashlib.sha1()
    for name in ("hub_feats", "query_feats", "response_feats",
                 "edge_src", "edge_dst"):
        value = getattr(inp, name, None)
        h.update(value.tobytes() if hasattr(value, "tobytes") else repr(value).encode())
    return h.digest()


class Tracer:
    """Span recorder; install() patches the program, uninstall() restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._eval_depth = 0
        self._oracle_depth = 0
        self._history_freezes: dict[tuple, int] = defaultdict(int)

    # -- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span called `name`."""
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self._child.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.end[idx] = t1
            dur = t1 - self.start[idx]
            self._stack.pop()
            self.self_s[name] += dur - self._child.pop()
            self.calls[name] += 1
            if self._child:
                self._child[-1] += dur

    # -- patching ---------------------------------------------------------------

    def _wrapper(self, prefix: str, orig):
        tracer = self
        if prefix == "memory.freeze":
            def freeze(graph, *a, **k):
                kind = ("history" if getattr(graph, "kind", None) == "history"
                        else "workflow")
                out = tracer.span(f"memory.freeze_{kind}", orig, graph, *a, **k)
                if kind == "history" and tracer._eval_depth:
                    tracer._history_freezes[(id(graph), _frozen_digest(out))] += 1
                return out
            return freeze
        if prefix == "harness.evaluate":
            def evaluate(*a, **k):
                tracer._eval_depth += 1
                try:
                    return tracer.span(prefix, orig, *a, **k)
                finally:
                    tracer._eval_depth -= 1
            return evaluate
        if prefix == "baselines.oracle":
            def oracle(*a, **k):
                tracer._oracle_depth += 1
                try:
                    return tracer.span(prefix, orig, *a, **k)
                finally:
                    tracer._oracle_depth -= 1
            return oracle
        if prefix == "env.clone":
            def clone(*a, **k):
                if tracer._oracle_depth:
                    tracer.counts["baselines.oracle.states"] += 1
                return tracer.span(prefix, orig, *a, **k)
            return clone

        def wrapped(*a, **k):
            return tracer.span(prefix, orig, *a, **k)
        return wrapped

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for prefix, modname, path in LAYERS:
            try:
                mod = importlib.import_module(modname)
                owner = mod
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{modname}.{path}")
                continue
            wrapper = self._wrapper(prefix, orig)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            # rebind every module-level reference to the same function object
            for name, other in list(sys.modules.items()):
                if name == "agentroute" or name.startswith("agentroute."):
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            self._set(other, key, wrapper)
        try:
            tensor_cls = getattr(importlib.import_module(TENSOR_CLASS[0]),
                                 TENSOR_CLASS[1])
            init = tensor_cls.__dict__["__init__"]
        except (ImportError, AttributeError, KeyError):
            self.absent.append(".".join(TENSOR_CLASS) + ".__init__")
        else:
            counts = self.counts

            def counted_init(obj, *a, **k):
                counts["tensor.nodes"] += 1
                init(obj, *a, **k)
            self._set(tensor_cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------------

    def freeze_history_per_state(self) -> float:
        """History freezes inside evaluate per distinct frozen history state."""
        if not self._history_freezes:
            return 0.0
        return sum(self._history_freezes.values()) / len(self._history_freezes)

    def write(self, path: Path) -> None:
        import numpy as np
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.asarray(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
