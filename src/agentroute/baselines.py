"""Non-learned routers: random, nearest-neighbor replay, exhaustive oracle.

Each router's act() returns (action_index, value), as the learned policy's
does, so the environment and the evaluation harness do not care which drives.
The kNN router's store persists as JSON, each root embedding `fields.packed`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .backend import EXECUTOR, PLANNER, VERIFIER
from .env import Action, RoutingEnv
from . import fields
from .memory import HubState, QueryNode

# Version 2 stores each record's embedding as `fields.packed` text; version 1
# listed the values, and still loads.
KNN_FORMAT_VERSION = 2


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
        return idx, 0.0


@dataclass
class KnnStore:
    """Past action sequences keyed by the root query embedding."""

    # records go in only through `add`, which checks each one's shape
    embeddings: list[np.ndarray] = field(default_factory=list, init=False)
    sequences: list[list[int]] = field(default_factory=list, init=False)

    def add(self, root_embedding: np.ndarray, actions: list[int]) -> None:
        """Store one episode; every record's embedding has the first's shape."""
        emb = np.asarray(root_embedding, dtype=np.float64)
        if self.embeddings and emb.shape != self.embeddings[0].shape:
            raise ValueError(f"kNN record {len(self)}: field 'embedding' has shape "
                             f"{emb.shape}, record 0's has {self.embeddings[0].shape}")
        self.embeddings.append(emb)
        self.sequences.append([int(a) for a in actions])

    def __len__(self) -> int:
        return len(self.sequences)

    def neighbors(self, root_embedding: np.ndarray, k: int) -> list[int]:
        """Indices of the k nearest stored roots; ties keep insertion order."""
        if not self.embeddings:
            return []
        if np.shape(root_embedding) != self.embeddings[0].shape:
            raise ValueError(f"query embedding has shape {np.shape(root_embedding)}, "
                             f"the stored ones {self.embeddings[0].shape}")
        dists = [float(np.linalg.norm(e - root_embedding)) for e in self.embeddings]
        order = sorted(range(len(dists)), key=lambda i: (dists[i], i))
        return order[:k]

    def to_jsonable(self) -> dict:
        return {
            "format_version": KNN_FORMAT_VERSION,
            "records": [
                {"embedding": fields.packed(e), "actions": s}
                for e, s in zip(self.embeddings, self.sequences)
            ],
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "KnnStore":
        """Store from to_jsonable() output, or from a version-1 blob; a
        malformed blob raises ValueError naming the offending field."""
        version = fields.field(obj, "format_version", int, "kNN store")
        if version not in (1, KNN_FORMAT_VERSION):
            raise ValueError(f"unsupported store format version: {version!r}")
        store = cls()
        for i, rec in enumerate(fields.field(obj, "records", list, "kNN store")):
            where = f"kNN record {i}"
            store.add(fields.floats(rec, "embedding", where, version),
                      fields.items(rec, "actions", int, where))
        return store

    def save(self, path) -> None:
        fields.write_atomic(path, json.dumps(self.to_jsonable(), sort_keys=True))

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
        return idx, 0.0


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
        return idx, 0.0


def oracle_route(cfg, benchmark, hubs, root: QueryNode,
                 bound: int = 200_000) -> tuple[list[int], float]:
    """Exhaustive search for the reward-optimal action sequence.

    Runs on a noise-free copy of the benchmark so every branch value is the
    model's systematic quality. That pool draws no quality or response
    noise, so a query keys one hashed stream per distinct (query, role,
    model) call it scores or steps, for the token counts, and one per
    planner step, for the decomposition: 24 and 1 on the oracle-search
    workload. Nothing outlives the call; the next call draws afresh.

    Two phases. `expand` builds the search tree from env work: the models
    of a role that ends the episode are scored in one pool pass per (state,
    role), with no clone, no step and no response embedding
    (`RoutingEnv.pool`, or with a verifier `pool_rewards`, which builds no
    record). The models of a role whose response quality
    nothing downstream reads but the terminal utilities get their rewards
    from one such pass and share one child, stepped once with model 0. That
    holds for a planner, and for every role when the pool has no verifier:
    the mask, the episode end and the context bonus read only roles, counts
    and draws; the one reader of a response's quality but the utilities is
    the verifier, whose floor is the best quality in its context and which
    an executor then floors at. Without a verifier the one quality that
    still differs below a shared child is its executor answer's, read only
    by a summarized episode's final utility (the sub-answer mean) and by a
    truncated non-executor action's (the last answer). So the walk binds
    that answer's quality to model m's on the child's m-th walk, and a leaf
    whose utility reads a bound answer recomputes its rewards from the
    bound qualities (`Pool.rebound`). With a verifier every action but a
    planner's is stepped on a clone, or in place for a state's last branch.

    `expand` also gives each tree entry `top`, an upper bound on the reward
    sum of any path below it, as the largest right-to-left float sum: a
    terminal entry's largest reward; for a leaf that reads bound answers,
    its largest `Pool.rebound` reward with each read answer at the highest
    quality its shared executor's pool can bind (`rebound` is
    non-decreasing in each answer quality, so no binding scores more); for
    a shared child, the largest reward plus the child's top; for per-model
    children, the largest reward[m] plus child m's top. `oracle_search`
    walks the tree depth-first in ascending action-index order (role-major)
    with strict improvement, so ties resolve to the lexicographically
    smallest sequence, and skips an entry when `total + top + slack <
    best`, where `total` is the left-to-right reward sum of the path to it
    and `best` the best value found so far.

    The slack covers float rounding. Let u = 2**-53, n rewards lie below an
    entry with absolute sum A, and M = |total| + A. A path's value F, the
    left-to-right sum of `total` and the n rewards, is within g(n)*M of
    their real sum, g(n) = n*u / (1 - n*u) (recursive summation; Higham,
    Accuracy and Stability of Numerical Algorithms, section 4.2). Rounding
    is monotone, so `top` is at least the right-to-left float sum of those
    n rewards, which is within g(n - 1)*A of their real sum. Evaluating
    the test rounds twice more, by at most u*M each to first order. So F <=
    fl(fl(total + top) + slack) once slack >= (n + 2) * 2**-52 * M. With at
    most L rewards on a path, and every reward a path can collect (a
    rebound leaf's at any binding, which lies between its rebound at the
    lowest and at the highest bindable qualities) at most R in size, M <=
    (1 + g(L)) * L * R, so the one slack (L + 3) * L * R * 2**-52 covers
    every entry. A skipped path thus scores at most `best`, which strict
    improvement would not replace: the plan, its value bit for bit and the
    tie-break are those of the exhaustive walk, and since `expand` is
    unchanged by the bound, so are `expanded` and the `bound` error.
    Raises when the enumeration, terminal actions included and a shared
    subtree counted once per action that reaches it, exceeds `bound`
    expanded states.
    """
    base = RoutingEnv(cfg, benchmark.with_noise(False), hubs)
    base.reset(root)
    k = cfg.n_models
    # a verifier reads the quality of its context: answers, summaries, thoughts
    binds = cfg.n_roles <= VERIFIER
    shared_roles = set(range(cfg.n_roles)) if binds else {PLANNER}
    expanded = 0
    longest, largest = 0, 0.0  # most rewards on a path, largest reward size

    def expand(env: RoutingEnv, paths: int, ceilings: dict) -> tuple:
        """The state's node (top, entries); an entry is (first action
        index, per-model rewards, per-model child nodes or None if the role
        ends the episode, the `Pool` whose answer a shared executor child
        binds or whose utility reads bound answers, else None, top), one per
        legal role in ascending order. `paths` counts the actions that reach
        this state, and `ceilings` maps each answer bound on the way here to
        the lowest and the highest quality its pool binds."""
        nonlocal expanded, longest, largest
        # the mask allows a role for all of its models or for none
        mask = env.legal_mask()
        roles = [r for r in range(cfg.n_roles) if mask[r * k]]
        entries = []
        for role in roles:
            expanded += k * paths
            if expanded > bound:
                raise RuntimeError(
                    f"oracle enumeration exceeded {bound} states; "
                    "shrink the action space or the step cap")
            # nothing reads `env` after its last branch, which steps it in place
            last = role == roles[-1]
            ends = any(env.ends(role))
            if ends or role in shared_roles:
                # only without a verifier can a leaf read a bound answer
                pool = env.pool(role) if binds else None
                rewards = pool.rewards if binds else env.pool_rewards(role)
                if ends:
                    longest = max(longest, env.step_count + 1)
                    if binds and pool.reads:
                        # the walk rescores this leaf per binding; its entry
                        # holds the rewards at the highest bindable qualities
                        lows, highs = zip(*[ceilings[a] for a in pool.reads])
                        rewards = pool.rebound(highs)
                        largest = max(largest, max(map(abs, pool.rebound(lows))))
                    else:
                        pool = None
                    entries.append((role * k, rewards, None, pool, max(rewards)))
                else:
                    child = env if last else env.clone()
                    child.step(Action(role, 0))
                    if role == EXECUTOR:
                        # the walk binds this answer's quality to each model's
                        q = pool.qualities
                        node = expand(child, k * paths,
                                      {**ceilings, pool.response_id: (min(q), max(q))})
                    else:
                        pool, node = None, expand(child, k * paths, ceilings)
                    entries.append((role * k, rewards, [node] * k, pool,
                                    max(rewards) + node[0]))
            else:
                rewards, children = [], []
                for m in range(k):
                    child = env if last and m == k - 1 else env.clone()
                    reward, _, _ = child.step(Action(role, m))
                    rewards.append(reward)
                    children.append(expand(child, paths, ceilings))
                entries.append((role * k, rewards, children, None,
                                max([r + c[0] for r, c in zip(rewards, children)])))
            largest = max(largest, max(map(abs, rewards)))
        return max([e[4] for e in entries]), entries

    tree = expand(base, 1, {})
    best_actions, best_value = oracle_search(tree, longest, largest)
    if best_actions is None:
        raise RuntimeError("oracle found no terminating action sequence")
    return best_actions, float(best_value)


def oracle_search(tree: tuple, longest: int,
                  largest: float) -> tuple[list[int] | None, float]:
    """The best action sequence of an `oracle_route` search tree and its
    value, or (None, -inf) if the tree has no terminal entry.

    A path's value is the left-to-right sum of its rewards. `tree` is the
    root node, as `expand` builds it; `longest` is the most rewards on a
    path and `largest` the largest size of a reward a path can collect.
    Visits paths depth-first in ascending action order, keeps only a strict
    improvement, and skips an entry, or a child before entering it, when
    its `top` plus the rounding slack cannot beat the best value found
    (`oracle_route` derives the slack). A shared executor entry, one with
    children and a pool, binds its answer (`pool.response_id`) to
    `pool.qualities[m]` on its m-th child's walk, and a terminal entry with
    a pool rescores its rewards with `Pool.rebound` at the bound qualities
    of the answers it reads.
    """
    slack = (longest + 3) * longest * largest * 2.0 ** -52
    best_value = -np.inf
    best_actions: list[int] | None = None
    path: list[int] = []
    bound_quality: dict[str, float] = {}  # answer id -> its quality on `path`
    rebound: dict = {}  # (leaf pool id, its reads' bound qualities) -> rewards

    def search(entries: list, total: float) -> None:
        nonlocal best_value, best_actions
        for first, rewards, children, pool, top in entries:
            if total + top + slack < best_value:
                continue
            if children is None:
                if pool is not None:
                    answers = tuple([bound_quality[a] for a in pool.reads])
                    rewards = rebound.get((id(pool), answers))
                    if rewards is None:
                        rewards = rebound[id(pool), answers] = pool.rebound(answers)
                for m, reward in enumerate(rewards):
                    if total + reward > best_value:
                        best_value = total + reward
                        best_actions = path + [first + m]
                continue
            for m, reward in enumerate(rewards):
                child_top, child = children[m]
                sub = total + reward
                if sub + child_top + slack < best_value:
                    continue
                if pool is not None:
                    bound_quality[pool.response_id] = pool.qualities[m]
                path.append(first + m)
                search(child, sub)
                path.pop()

    search(tree[1], 0.0)
    return best_actions, best_value
