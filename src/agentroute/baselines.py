"""Non-learned routers: random, nearest-neighbor replay, exhaustive oracle.

All three expose the same act() contract as the learned policy so the
environment and the evaluation harness do not care which one is driving.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .env import RoutingEnv
from . import fields
from .memory import HubState, QueryNode

KNN_FORMAT_VERSION = 1


class RandomRouter:
    """Uniform choice over whatever the mask allows."""

    def prepare(self, hist_input) -> None:
        pass

    def act(self, wf_input: HubState, query_embedding: np.ndarray,
            mask: np.ndarray, mode: str = "sample",
            rng: np.random.Generator | None = None):
        allowed = np.flatnonzero(mask)
        if allowed.size == 0:
            raise ValueError("no action is allowed by the mask")
        if mode == "greedy" or rng is None:
            idx = int(allowed[0])
        else:
            idx = int(rng.choice(allowed))
        logp = float(-np.log(allowed.size))
        entropy = float(np.log(allowed.size))
        return idx, logp, 0.0, entropy


@dataclass
class KnnStore:
    """Past action sequences keyed by the root query embedding."""

    embeddings: list[np.ndarray] = field(default_factory=list)
    sequences: list[list[int]] = field(default_factory=list)

    def add(self, root_embedding: np.ndarray, actions: list[int]) -> None:
        self.embeddings.append(np.asarray(root_embedding, dtype=np.float64))
        self.sequences.append([int(a) for a in actions])

    def __len__(self) -> int:
        return len(self.sequences)

    def neighbors(self, root_embedding: np.ndarray, k: int) -> list[int]:
        """Indices of the k nearest stored roots; ties keep insertion order."""
        if not self.embeddings:
            return []
        dists = [float(np.linalg.norm(e - root_embedding)) for e in self.embeddings]
        order = sorted(range(len(dists)), key=lambda i: (dists[i], i))
        return order[:k]

    def to_jsonable(self) -> dict:
        return {
            "format_version": KNN_FORMAT_VERSION,
            "records": [
                {"embedding": e.tolist(), "actions": s}
                for e, s in zip(self.embeddings, self.sequences)
            ],
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "KnnStore":
        """Store from to_jsonable() output; a malformed blob raises
        ValueError naming the offending field."""
        version = fields.field(obj, "format_version", int, "kNN store")
        if version != KNN_FORMAT_VERSION:
            raise ValueError(f"unsupported store format version: {version!r}")
        store = cls()
        for i, rec in enumerate(fields.field(obj, "records", list, "kNN store")):
            where = f"kNN record {i}"
            store.add(fields.floats(rec, "embedding", where),
                      fields.items(rec, "actions", int, where))
        return store

    def save(self, path) -> None:
        with open(path, "w") as fh:
            # dumps takes the C encoder; json.dump writes the same bytes in Python
            fh.write(json.dumps(self.to_jsonable(), sort_keys=True))

    @classmethod
    def load(cls, path) -> "KnnStore":
        with open(path) as fh:
            return cls.from_jsonable(json.load(fh))


class KnnRouter:
    """Replays the per-step majority action of the k nearest past episodes.

    Neighbors are picked once per episode from the root embedding (a fresh
    workflow marks the episode start). At each step the most frequent stored
    action at that step index wins; disallowed actions fall through to the
    next most frequent, then to the first allowed index.
    """

    def __init__(self, store: KnnStore, k: int = 5):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.store = store
        self.k = k
        self._neighbor_seqs: list[list[int]] = []
        self._step = 0

    def prepare(self, hist_input) -> None:
        pass

    def act(self, wf_input: HubState, query_embedding: np.ndarray,
            mask: np.ndarray, mode: str = "sample",
            rng: np.random.Generator | None = None):
        if wf_input.n_queries == 1 and wf_input.n_responses == 0:
            picked = self.store.neighbors(query_embedding, self.k)
            self._neighbor_seqs = [self.store.sequences[i] for i in picked]
            self._step = 0
        votes = Counter(seq[self._step] for seq in self._neighbor_seqs
                        if self._step < len(seq))
        idx = None
        for action, _count in sorted(votes.items(),
                                     key=lambda kv: (-kv[1], kv[0])):
            if mask[action]:
                idx = action
                break
        if idx is None:
            allowed = np.flatnonzero(mask)
            if allowed.size == 0:
                raise ValueError("no action is allowed by the mask")
            idx = int(allowed[0])
        self._step += 1
        return idx, 0.0, 0.0, 0.0


class ScriptedPolicy:
    """Replays a fixed action-index sequence (used to execute oracle plans)."""

    def __init__(self, actions: list[int]):
        self.actions = list(actions)
        self._step = 0

    def prepare(self, hist_input) -> None:
        pass

    def act(self, wf_input, query_embedding, mask, mode="greedy", rng=None):
        if self._step >= len(self.actions):
            raise RuntimeError("scripted policy ran out of actions")
        idx = self.actions[self._step]
        if not mask[idx]:
            raise RuntimeError(f"scripted action {idx} is masked at step {self._step}")
        self._step += 1
        return idx, 0.0, 0.0, 0.0


def oracle_route(cfg, benchmark, hubs, root: QueryNode,
                 bound: int = 200_000) -> tuple[list[int], float]:
    """Exhaustive search for the reward-optimal action sequence.

    Runs on a noise-free copy of the benchmark so every branch value is the
    model's systematic quality. Depth-first in ascending action-index order
    (role-major) with strict improvement, so ties resolve to the
    lexicographically smallest sequence. The actions of a role that ends the
    episode are scored in one `RoutingEnv.leaf_rewards` pass per (state,
    role), with no clone, no step and no response embedding; the others are
    stepped on a clone, or in place for a state's last branch. Raises when
    the enumeration exceeds `bound` expanded states, terminal actions
    included.
    """
    base = RoutingEnv(cfg, benchmark.with_noise(False), hubs)
    base.reset(root)
    best_value = -np.inf
    best_actions: list[int] | None = None
    expanded = 0
    k = cfg.n_models
    action_of = [cfg.action_of(i) for i in range(cfg.n_actions)]

    def explore(env: RoutingEnv, actions: list[int], total: float) -> None:
        nonlocal best_value, best_actions, expanded
        # the mask allows a role for all of its models or for none
        mask = env.legal_mask()
        roles = [r for r in range(cfg.n_roles) if mask[r * k]]
        last = roles[-1] * k + k - 1
        for role in roles:
            leaves = env.leaf_rewards(role)
            for m in range(k):
                a = role * k + m
                expanded += 1
                if expanded > bound:
                    raise RuntimeError(
                        f"oracle enumeration exceeded {bound} states; "
                        "shrink the action space or the step cap")
                if leaves is not None:
                    if total + leaves[m] > best_value:
                        best_value = total + leaves[m]
                        best_actions = actions + [a]
                    continue
                # nothing reads `env` after its last branch, which steps it in place
                child = env if a == last else env.clone()
                reward, _, _ = child.step(action_of[a])
                explore(child, actions + [a], total + reward)

    explore(base, [], 0.0)
    if best_actions is None:
        raise RuntimeError("oracle found no terminating action sequence")
    return best_actions, float(best_value)
