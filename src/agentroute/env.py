"""Workflow-generation MDP over (role, model) actions.

One episode resolves one root query. Planners decompose the current query and
requeue it behind its children (depth-first), executors resolve and advance,
the summarizer may fuse resolved children at the root into a synthesis query,
and only executor actions can terminate the episode. Rewards follow
r_t = -alpha * C_t with the task utility added on the terminal step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import memory
from .backend import Benchmark, cost_of, final_utility, mean
from .memory import (HeteroGraph, HubSet, HubState, QueryNode, ResponseNode,
                     STATUS_PENDING, STATUS_RESOLVED, STATUS_SUMMARY_PENDING)

PHASE1 = "phase1"
PHASE2 = "phase2"


@dataclass(frozen=True)
class Action:
    role: int
    model: int


@dataclass
class EnvConfig:
    n_models: int
    n_roles: int = 3              # active roles; extras appended for protocols
    p_max: int = 1
    width: int = 2
    max_steps: int = 16
    alpha: float = 0.0
    phase: str = PHASE2
    phase_depth: int = 1
    phase_width: int = 2
    utility_mode: str = "continuous"
    cost_scale: float = 1000.0

    def __post_init__(self):
        if self.n_models < 1:
            raise ValueError("need at least one model")
        if self.n_roles < 3:
            raise ValueError("the three base roles are always active")
        if self.p_max < 0:
            raise ValueError("p_max must be nonnegative")
        if self.width < 1:
            raise ValueError("width must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.phase not in (PHASE1, PHASE2):
            raise ValueError(f"unknown phase: {self.phase!r}")
        if self.phase == PHASE1 and (self.phase_depth < 0 or self.phase_width < 1):
            raise ValueError("phase1 needs depth >= 0 and width >= 1")
        if self.utility_mode not in ("continuous", "binary"):
            raise ValueError(f"unknown utility mode: {self.utility_mode!r}")
        if self.cost_scale <= 0:
            raise ValueError("cost_scale must be positive")

    @property
    def n_actions(self) -> int:
        return self.n_roles * self.n_models

    def action_index(self, a: Action) -> int:
        return a.role * self.n_models + a.model

    def action_of(self, index: int) -> Action:
        return Action(index // self.n_models, index % self.n_models)


@dataclass
class StepRecord:
    """What the policy saw and did at one step, enough to replay its logprob."""
    wf_input: HubState
    query_embedding: np.ndarray
    mask: np.ndarray
    action_index: int
    logp: float
    value: float
    entropy: float
    reward: float
    done: bool
    # bookkeeping for traces, reports, and hub updates
    step: int
    role: int
    model: int
    quality: float | None
    dollars: float
    scaled_cost: float
    tokens_in: int
    tokens_out: int
    node_id: str


@dataclass
class Episode:
    records: list[StepRecord]
    utility: float
    truncated: bool
    family: int
    workflow: HeteroGraph

    @property
    def dollars(self) -> float:
        return sum(r.dollars for r in self.records)

    @property
    def scaled_cost(self) -> float:
        return sum(r.scaled_cost for r in self.records)

    @property
    def actions(self) -> list[tuple[int, int]]:
        return [(r.role, r.model) for r in self.records]

    @property
    def total_reward(self) -> float:
        return sum(r.reward for r in self.records)

    @property
    def length(self) -> int:
        return len(self.records)


class RoutingEnv:
    """Single-episode environment around one root query."""

    def __init__(self, cfg: EnvConfig, benchmark: Benchmark, hubs: HubSet):
        if hubs.n_models != cfg.n_models or hubs.n_roles != cfg.n_roles:
            raise ValueError("hub set does not match the env config")
        if cfg.n_models != benchmark.n_models:
            raise ValueError("benchmark pool does not match the env config")
        self.cfg = cfg
        self.benchmark = benchmark
        self.hubs = hubs
        self.workflow: HeteroGraph | None = None  # set by `reset`

    # -- lifecycle -------------------------------------------------------------

    def reset(self, root: QueryNode) -> None:
        if root.depth != 0 or root.parent is not None:
            raise ValueError("episodes start from a depth-0 root query")
        # the root node is immutable, so the episode shares the caller's
        self.workflow = memory.new_workflow(root, self.hubs)
        self.root_id = root.id
        self.current_id = root.id
        self.pending: list[str] = []
        self.planner_count = 0
        self.step_count = 0
        self.finished = False
        self.truncated = False
        self.summary_used = False
        self.utility = 0.0
        self._last_answer_quality: float | None = None
        # the episode's simulator draws, shared by its clones (Benchmark.invoke)
        self._draws: dict = {}
        self._facts: dict = {}  # the current state's derived facts (`_fact`)

    def clone(self) -> "RoutingEnv":
        # The shallow copy copy.copy would make, without its dispatch cost (the
        # oracle clones tens of thousands of times per query batch); every
        # field but these two is immutable or shared with the original on
        # purpose, the episode's draw memo and the state's read-only facts
        # among them.
        out = object.__new__(RoutingEnv)
        out.__dict__.update(self.__dict__)
        out.workflow = memory.clone_workflow(self.workflow)
        out.pending = list(self.pending)
        return out

    # -- state helpers -----------------------------------------------------------

    @property
    def current(self) -> QueryNode:
        return self.workflow.queries[self.current_id]

    def _fact(self, name: str):
        """One derived fact of the current state, computed by `_compute_<name>`
        on first use and kept read-only: clones share the memo and step
        records keep the mask. `reset` and `step` start a fresh memo."""
        value = self._facts.get(name)
        if value is None:
            value = self._facts[name] = getattr(self, "_compute_" + name)()
        return value

    def _compute_answers(self) -> tuple[ResponseNode, ...]:
        """The current query's resolved non-summary child answers; only an
        executor answers a query, so none is a thinker's or a verifier's."""
        wf = self.workflow
        out = []
        for cid in wf.child_ids.get(self.current_id, ()):
            child = wf.queries[cid]
            if (not child.is_summary and child.status == STATUS_RESOLVED
                    and child.answer_id is not None):
                out.append(wf.responses[child.answer_id])
        return tuple(out)

    def _compute_context(self) -> tuple[ResponseNode, ...]:
        """The current query's attached responses but its answer, then its
        resolved child answers."""
        wf, q = self.workflow, self.current
        context = [wf.responses[r] for r in wf.response_ids.get(q.id, ())
                   if r != q.answer_id]
        if q.is_summary and q.parent is not None:
            # the synthesis produced by the summarizer grounds the final step
            parent = wf.queries[q.parent]
            if parent.answer_id is not None:
                context.insert(0, wf.responses[parent.answer_id])
        return tuple(context) + self._fact("answers")

    def _compute_summary(self) -> QueryNode:
        """The synthesis query a summarizer at the root would add."""
        sq = self.benchmark.summary_query(self.current, self._fact("answers"))
        sq.embedding.flags.writeable = False
        return sq

    def _compute_subs(self) -> tuple[float, ...]:
        return tuple(self._descendant_answer_qualities(self.root_id))

    def _descendant_answer_qualities(self, query_id: str) -> list[float]:
        """Answer qualities of the non-summary subtree below `query_id`, in
        pre-order, which fixes the order of the sum in `final_utility`."""
        wf, index = self.workflow, self.workflow.child_ids
        out: list[float] = []
        stack = list(index.get(query_id, ())[::-1])
        while stack:
            child = wf.queries[stack.pop()]
            if child.is_summary:
                continue
            if child.status == STATUS_RESOLVED and child.answer_id is not None:
                out.append(wf.responses[child.answer_id].quality)
            if child.id in index:
                stack += index[child.id][::-1]
        return out

    def _summarizer_legal(self) -> bool:
        if self.summary_used or self.current_id != self.root_id:
            return False
        if self.current.status != STATUS_PENDING or self.pending:
            return False
        return len(self._fact("answers")) >= 2

    def _template_role(self) -> int:
        """Phase-1 role for the current slot, derived from the live state."""
        cur = self.current
        if (self.planner_count < self.cfg.phase_depth and not cur.is_summary
                and cur.id not in self.workflow.child_ids
                and cur.depth == self.planner_count):
            return 0  # planner
        if self._summarizer_legal():
            return 2  # summarizer
        return 1      # executor

    def legal_mask(self) -> np.ndarray:
        """Boolean mask over the flat (role, model) action space (a fact of
        the state, so computed once and read-only); it allows a role for all
        of its models or for none."""
        if self.finished:
            raise RuntimeError("episode already finished")
        return self._fact("mask")

    def _compute_mask(self) -> np.ndarray:
        cfg = self.cfg
        mask = np.zeros(cfg.n_actions, dtype=bool)
        k = cfg.n_models
        if cfg.phase == PHASE1:
            role = self._template_role()
            mask[role * k:(role + 1) * k] = True
        else:
            mask[1 * k:2 * k] = True  # executor is always available
            cur = self.current
            if not cur.is_summary:    # synthesis resolution is executor-only
                if (self.planner_count < cfg.p_max
                        and cur.id not in self.workflow.child_ids):
                    mask[0 * k:1 * k] = True
                if self._summarizer_legal():
                    mask[2 * k:3 * k] = True
                if cfg.n_roles > 3:
                    # child answers are an executor's (`_compute_answers`), so
                    # any thinker or verifier response in the context is attached
                    context = self._fact("context")
                    t = self.benchmark.thinker_index
                    v = self.benchmark.verifier_index
                    if t is not None and t < cfg.n_roles and \
                            not any(r.produced_by[0] == t for r in context):
                        mask[t * k:(t + 1) * k] = True
                    if v is not None and v < cfg.n_roles and context and \
                            not any(r.produced_by[0] == v for r in context):
                        mask[v * k:(v + 1) * k] = True
        mask.flags.writeable = False
        return mask

    # -- transition ---------------------------------------------------------------

    def _check(self, role: int, model: int | None = None) -> None:
        """Refuse any action on a finished episode, and a (role, model)
        action, or with `model` None the role, that the mask does not allow."""
        if self.finished:
            raise RuntimeError("episode already finished")
        cfg = self.cfg
        # a model outside the pool would alias another role's action index
        if not (0 <= role < cfg.n_roles
                and (model is None or 0 <= model < cfg.n_models)
                and self._fact("mask")[role * cfg.n_models + (model or 0)]):
            what = f"role {role}" if model is None else f"action {Action(role, model)}"
            raise ValueError(f"{what} is not allowed by the mask")

    def _ends(self, role_name: str) -> tuple[bool, bool]:
        """(done, truncated) after one `role_name` action from this state: an
        executor answer at the root or the synthesis query is done, and any
        other action that takes the last allowed step truncates."""
        cur = self.current
        done = role_name == "executor" and (cur.is_summary or cur.id == self.root_id)
        return done, not done and self.step_count + 1 >= self.cfg.max_steps

    def _context(self, role_name: str) -> tuple[ResponseNode, ...]:
        """What a `role_name` call reads of this state: nothing for a planner,
        the child answers for a summarizer, the full context otherwise."""
        if role_name == "planner":
            return ()
        return self._fact("answers" if role_name == "summarizer" else "context")

    def _rewards(self, role_name: str, done: bool, truncated: bool,
                 results, models) -> list[tuple[float, float, float, float | None]]:
        """(dollars, scaled cost, reward, utility) of each `role_name` call
        from this state, one per model and its call's (quality, tokens_in,
        tokens_out); the utility is None unless the action ends the episode.
        Reads the state's facts and writes nothing."""
        bench, cfg = self.benchmark, self.cfg
        if done:
            # only an executor resolves a synthesis query, which ends a
            # summarized episode: the one utility that counts the sub-answers
            subs = self._fact("subs") if self.current.is_summary else ()
            sub_mean = float(mean(subs)) if subs else None
        out = []
        for (quality, tokens_in, tokens_out), model in zip(results, models):
            dollars = cost_of(tokens_in, tokens_out, bench.profiles[model])
            scaled = dollars * cfg.cost_scale
            reward = -cfg.alpha * scaled
            utility = None
            if done:
                utility = final_utility(quality, subs, self.summary_used,
                                        cfg.utility_mode, sub_mean)
            elif truncated:
                partial = (quality if role_name == "executor"
                           else self._last_answer_quality)
                utility = final_utility(partial if partial is not None else 0.0, [],
                                        False, cfg.utility_mode)
            out.append((dollars, scaled,
                        reward if utility is None else reward + utility, utility))
        return out

    def leaf_rewards(self, role: int) -> list[float] | None:
        """Per model m, the reward `step(Action(role, m))` would return, bit
        for bit, when a `role` action ends the episode, and None when it does
        not. Scores the whole pool in one `Benchmark.invoke_pool` pass and
        changes no state but the shared draw memo, so the oracle scores a
        state's terminal actions without a clone or a step."""
        self._check(role)
        role_name = self.benchmark.roles[role].name
        done, truncated = self._ends(role_name)
        if not (done or truncated):
            return None
        results = self.benchmark.invoke_pool(role, self.current,
                                             self._context(role_name), self._draws)
        return [r[2] for r in self._rewards(role_name, done, truncated, results,
                                            range(self.cfg.n_models))]

    def step(self, action: Action) -> tuple[float, bool, dict]:
        """Apply one (role, model) action; returns (reward, done, info)."""
        self._check(action.role, action.model)
        bench, cfg, wf, cur = self.benchmark, self.cfg, self.workflow, self.current
        role_name = bench.roles[action.role].name
        done, truncated = self._ends(role_name)
        # What the action reads of the state before it comes from the memo
        # that clones share; the state after it starts a memo of its own.
        outcome = bench.invoke(action.model, action.role, cur,
                               self._context(role_name), self._draws)
        [(dollars, scaled, reward, utility)] = self._rewards(
            role_name, done, truncated,
            [(outcome.quality, outcome.tokens_in, outcome.tokens_out)], [action.model])
        if role_name == "summarizer":
            sq = self._fact("summary")
        self._facts = {}

        if role_name == "planner":
            width = (cfg.phase_width if cfg.phase == PHASE1
                     else max(1, min(cfg.width, cur.width_hint)))
            children = bench.decompose(cur, width)
            memory.attach_subqueries(wf, cur.id, children,
                                     width_limit=max(cfg.width, width))
            self.pending = [c.id for c in children[1:]] + [cur.id] + self.pending
            self.current_id = children[0].id
            self.planner_count += 1
        else:
            # a workflow never evicts, so its size numbers the next response;
            # the summarizer is legal only at the root, so every response
            # attaches to the current query
            resp = ResponseNode(id=f"r{len(wf.responses)}",
                                embedding=outcome.response_embedding,
                                produced_by=(action.role, action.model),
                                tokens_in=outcome.tokens_in,
                                tokens_out=outcome.tokens_out,
                                quality=outcome.quality)
            memory.attach_response(wf, cur.id, resp, answers=role_name == "executor")
        if role_name == "executor":
            self._last_answer_quality = outcome.quality
            if cur.is_summary:
                wf.set_query(self.root_id, status=STATUS_RESOLVED)
            elif not done:
                self.current_id = self.pending.pop(0)
        elif role_name == "summarizer":
            wf.set_query(self.root_id, status=STATUS_SUMMARY_PENDING,
                         answer_id=resp.id)
            memory.add_summary_query(wf, self.root_id, sq)
            self.current_id = sq.id
            self.summary_used = True

        self.step_count += 1
        if utility is not None:
            self.finished = True
            self.truncated = truncated
            self.utility = utility

        info = {
            "role": action.role,
            "model": action.model,
            "quality": None if role_name == "planner" else outcome.quality,
            "dollars": dollars,
            "scaled_cost": scaled,
            "tokens_in": outcome.tokens_in,
            "tokens_out": outcome.tokens_out,
            "node_id": cur.id,
        }
        return reward, self.finished, info

    # -- rollout -------------------------------------------------------------------

    def snapshot(self) -> tuple[HubState, np.ndarray]:
        """The live workflow's `HubState` plus a copy of the current query's
        embedding; later steps leave both unchanged."""
        return self.workflow.hub_state(), self.current.embedding.copy()

    def run_episode(self, root: QueryNode, policy, mode: str = "sample",
                    rng: np.random.Generator | None = None) -> Episode:
        """Roll one episode under `policy`; returns the full trajectory.

        policy.act(wf_input, query_embedding, mask, mode, rng) must return
        (action_index, logp, value, entropy).
        """
        if mode not in ("sample", "greedy"):
            raise ValueError(f"unknown decoding mode: {mode!r}")
        self.reset(root)
        records: list[StepRecord] = []
        while not self.finished:
            wf_input, q_emb = self.snapshot()
            mask = self.legal_mask()
            action_index, logp, value, entropy = policy.act(
                wf_input, q_emb, mask, mode, rng)
            action = self.cfg.action_of(int(action_index))
            reward, done, info = self.step(action)
            records.append(StepRecord(
                wf_input=wf_input, query_embedding=q_emb, mask=mask,
                action_index=int(action_index), logp=float(logp),
                value=float(value), entropy=float(entropy), reward=reward,
                done=done, step=len(records), **info))
        return Episode(records=records, utility=self.utility,
                       truncated=self.truncated, family=root.family,
                       workflow=self.workflow)


def absorb_episode(history: HeteroGraph, episode: Episode, decay: float = 0.9) -> str:
    """Consolidate a finished episode into history and refresh hub statistics.

    Response-producing actions report their response quality; planner actions
    report the episode utility (their payoff is only visible at the end).
    Costs are recorded in scaled units.
    """
    tag = memory.consolidate(episode.workflow, history)
    for rec in episode.records:
        hub = history.hubs.get(rec.role, rec.model)
        observed = rec.quality if rec.quality is not None else episode.utility
        memory.update_hub_stats(hub, float(np.clip(observed, 0.0, 1.0)),
                                rec.scaled_cost, decay=decay)
    return tag


def trace_lines(episode: Episode) -> list[str]:
    """Line-delimited structured trace, one record per step."""
    import json
    out = []
    for rec in episode.records:
        out.append(json.dumps({
            "step": rec.step,
            "role": rec.role,
            "model": rec.model,
            "reward": rec.reward,
            "dollars": rec.dollars,
            "scaled_cost": rec.scaled_cost,
            "tokens_in": rec.tokens_in,
            "tokens_out": rec.tokens_out,
            "node_id": rec.node_id,
        }, sort_keys=True))
    return out
