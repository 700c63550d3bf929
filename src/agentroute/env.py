"""Workflow-generation MDP over (role, model) actions.

One episode resolves one root query. Planners decompose the current query and
requeue it behind its children (depth-first), executors resolve and advance,
the summarizer may fuse resolved children at the root into a synthesis query,
and only executor actions can terminate the episode. Rewards follow
r_t = -alpha * C_t with the task utility added on the terminal step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import memory
from .backend import (ALL_ROLES, BASE_ROLES, EXECUTOR, PLANNER, SUMMARIZER,
                      THINKER, VERIFIER, Benchmark, cost_of, final_utility, mean)
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
    n_roles: int = len(BASE_ROLES)  # active roles: ALL_ROLES[:n_roles]
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
        if self.n_roles < len(BASE_ROLES):
            raise ValueError("the three base roles are always active")
        if self.n_roles > len(ALL_ROLES):
            raise ValueError(f"n_roles must be at most {len(ALL_ROLES)}")
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
    """What the policy saw and did at step i, where i is its index in the episode."""
    wf_input: HubState
    query_embedding: np.ndarray
    mask: np.ndarray
    action_index: int
    value: float
    reward: float
    # bookkeeping for traces, reports, and hub updates
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


def end_utility(role: int, done: bool, summarized: bool, mode: str,
                quality: float, answers, sub_mean: float | None = None) -> float:
    """The task utility of a `role` call of `quality` that ends the episode
    from one state, given the qualities `answers` of the answers it reads
    (`RoutingEnv._reads`). A done episode scores its final answer, averaged
    with the sub-answers' mean (`sub_mean`, as in `final_utility`) if
    summarized; a truncated one scores an executor's own answer, else the
    last answer, or 0.0 before any."""
    if done:
        return final_utility(quality, answers, summarized, mode, sub_mean)
    partial = quality if role == EXECUTOR else (answers[0] if answers else 0.0)
    return final_utility(partial, [], False, mode)


class Pool(NamedTuple):
    """Every model's `role` call from one state, scored in one pass
    (`RoutingEnv.pool`)."""
    role: int
    done: bool
    summarized: bool
    mode: str
    rewards: list[float]     # per model, what `step` returns, bit for bit
    qualities: list[float]   # per model, its call's quality
    costs: list[float]       # per model, its reward less its utility
    reads: tuple[str, ...]   # ids of the answers the utility reads, in order
    response_id: str         # the id of the response a step attaches

    def rebound(self, answers) -> list[float]:
        """`rewards` of calls that end the episode, as if the answers that
        `reads` names had the qualities `answers`."""
        role, done, summarized, mode = self.role, self.done, self.summarized, self.mode
        # the sub-answer mean, once for all models, as `RoutingEnv._rewards`
        sub_mean = float(mean(answers)) if done and answers else None
        return [cost + end_utility(role, done, summarized, mode, quality, answers,
                                   sub_mean)
                for cost, quality in zip(self.costs, self.qualities)]


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
        self._last_answer: tuple[ResponseNode, ...] = ()  # or (the last answer,)
        # the episode's simulator draws, shared by its clones (Benchmark.invoke)
        self._draws: dict = {}
        self._facts: dict = {}  # the current state's derived facts (`_fact`)

    def clone(self) -> "RoutingEnv":
        # The shallow copy copy.copy would make, without its dispatch cost
        # (the oracle, its one caller, clones 16 times per query on the
        # oracle-search workload); every field but these two is immutable or
        # shared with the original on purpose, the episode's draw memo and
        # the state's read-only facts among them.
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

    def _compute_subs(self) -> tuple[ResponseNode, ...]:
        return tuple(self._descendant_answers(self.root_id))

    def _descendant_answers(self, query_id: str) -> list[ResponseNode]:
        """Answers of the non-summary subtree below `query_id`, in
        pre-order, which fixes the order of the sum in `final_utility`."""
        wf, index = self.workflow, self.workflow.child_ids
        out: list[ResponseNode] = []
        stack = list(index.get(query_id, ())[::-1])
        while stack:
            child = wf.queries[stack.pop()]
            if child.is_summary:
                continue
            if child.status == STATUS_RESOLVED and child.answer_id is not None:
                out.append(wf.responses[child.answer_id])
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
            return PLANNER
        if self._summarizer_legal():
            return SUMMARIZER
        return EXECUTOR

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
        roles = mask.reshape(cfg.n_roles, cfg.n_models)  # a view: one row per role
        if cfg.phase == PHASE1:
            roles[self._template_role()] = True
        else:
            roles[EXECUTOR] = True    # executor is always available
            cur = self.current
            if not cur.is_summary:    # synthesis resolution is executor-only
                if (self.planner_count < cfg.p_max
                        and cur.id not in self.workflow.child_ids):
                    roles[PLANNER] = True
                if self._summarizer_legal():
                    roles[SUMMARIZER] = True
                if cfg.n_roles > THINKER:
                    # child answers are an executor's (`_compute_answers`), so
                    # any thinker or verifier response in the context is attached
                    context = self._fact("context")
                    if not any(r.produced_by[0] == THINKER for r in context):
                        roles[THINKER] = True
                    if cfg.n_roles > VERIFIER and context and \
                            not any(r.produced_by[0] == VERIFIER for r in context):
                        roles[VERIFIER] = True
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

    def _ends(self, role: int) -> tuple[bool, bool]:
        cur = self.current
        done = role == EXECUTOR and (cur.is_summary or cur.id == self.root_id)
        return done, not done and self.step_count + 1 >= self.cfg.max_steps

    def ends(self, role: int) -> tuple[bool, bool]:
        """(done, truncated) after one `role` action from this state: an
        executor answer at the root or the synthesis query is done, and any
        other action that takes the last allowed step truncates. Refuses a
        role `step` refuses, with the same error."""
        self._check(role)
        return self._ends(role)

    def _context(self, role: int) -> tuple[ResponseNode, ...]:
        """What a `role` call reads of this state: nothing for a planner,
        the child answers for a summarizer, the full context otherwise."""
        if role == PLANNER:
            return ()
        return self._fact("answers" if role == SUMMARIZER else "context")

    def _reads(self, role: int, done: bool) -> tuple[ResponseNode, ...]:
        """The answers whose quality the utility of a `role` action that ends
        the episode from this state reads: the sub-answers of a summarized
        episode's final answer, and for a truncating action but an
        executor's the last answer."""
        if done:
            return self._fact("subs") if self.current.is_summary else ()
        return () if role == EXECUTOR else self._last_answer

    def _rewards(self, role: int, done: bool, truncated: bool,
                 results, models) -> list[tuple[float, float, float, float | None]]:
        """(dollars, scaled cost, reward, utility) of each `role` call
        from this state, one per model and its call's (quality, tokens_in,
        tokens_out); the utility is None unless the action ends the episode.
        Reads the state's facts and writes nothing."""
        profiles, cfg = self.benchmark.profiles, self.cfg
        scale, neg_alpha = cfg.cost_scale, -cfg.alpha
        ending = done or truncated
        if ending:
            reads = self._reads(role, done)
            answers = [r.quality for r in reads] if reads else ()
            sub_mean = float(mean(answers)) if done and answers else None
            summarized, mode = self.summary_used, cfg.utility_mode
        out = []
        for (quality, tokens_in, tokens_out), model in zip(results, models):
            dollars = cost_of(tokens_in, tokens_out, profiles[model])
            scaled = dollars * scale
            reward = neg_alpha * scaled
            if ending:
                utility = end_utility(role, done, summarized, mode, quality, answers,
                                      sub_mean)
                out.append((dollars, scaled, reward + utility, utility))
            else:
                out.append((dollars, scaled, reward, None))
        return out

    def pool_rewards(self, role: int) -> list[float]:
        """Per model m, the reward `step(Action(role, m))` would return, bit
        for bit, for any role the mask allows. Scores the whole pool in one
        `Benchmark.invoke_pool` pass and changes no state but the shared draw
        memo, so the oracle scores a state's terminal actions without a clone
        or a step, and the models of a role whose response quality nothing
        downstream reads (a planner) with one step for all of them."""
        done, truncated = self.ends(role)
        results = self.benchmark.invoke_pool(role, self.current,
                                             self._context(role), self._draws)
        return [r[2] for r in self._rewards(role, done, truncated, results,
                                            range(self.cfg.n_models))]

    def pool(self, role: int) -> Pool:
        """`pool_rewards` with what rescoring the pool under other answer
        qualities needs: per model its call's quality and its reward less
        the utility, the answers the utility reads, and the id a step's
        response takes. Without a verifier the oracle shares one child among
        all of a role's models, and binds that id's quality to each model's
        on the child's walks."""
        done, truncated = self.ends(role)
        results = self.benchmark.invoke_pool(role, self.current,
                                             self._context(role), self._draws)
        scored = self._rewards(role, done, truncated, results,
                               range(self.cfg.n_models))
        reads = self._reads(role, done) if done or truncated else ()
        neg_alpha = -self.cfg.alpha
        return Pool(role, done, self.summary_used, self.cfg.utility_mode,
                    [r[2] for r in scored], [r[0] for r in results],
                    [neg_alpha * r[1] for r in scored], tuple(r.id for r in reads),
                    self._response_id())

    def _response_id(self) -> str:
        # a workflow never evicts, so its size numbers the next response
        return f"r{len(self.workflow.responses)}"

    def step(self, action: Action) -> tuple[float, bool, dict]:
        """Apply one (role, model) action; returns (reward, done, info)."""
        self._check(action.role, action.model)
        bench, cfg, wf, cur = self.benchmark, self.cfg, self.workflow, self.current
        role = action.role
        done, truncated = self._ends(role)
        # What the action reads of the state before it comes from the memo
        # that clones share; the state after it starts a memo of its own.
        outcome = bench.invoke(action.model, role, cur, self._context(role), self._draws)
        [(dollars, scaled, reward, utility)] = self._rewards(
            role, done, truncated,
            [(outcome.quality, outcome.tokens_in, outcome.tokens_out)], [action.model])
        if role == SUMMARIZER:
            sq = self._fact("summary")
        self._facts = {}

        if role == PLANNER:
            width = (cfg.phase_width if cfg.phase == PHASE1
                     else max(1, min(cfg.width, cur.width_hint)))
            children = bench.decompose(cur, width)
            memory.attach_subqueries(wf, cur.id, children,
                                     width_limit=max(cfg.width, width))
            self.pending = [c.id for c in children[1:]] + [cur.id] + self.pending
            self.current_id = children[0].id
            self.planner_count += 1
        else:
            # the summarizer is legal only at the root, so every response
            # attaches to the current query
            resp = ResponseNode(id=self._response_id(),
                                embedding=outcome.response_embedding,
                                produced_by=(role, action.model),
                                tokens_in=outcome.tokens_in,
                                tokens_out=outcome.tokens_out,
                                quality=outcome.quality)
            memory.attach_response(wf, cur.id, resp, answers=role == EXECUTOR)
        if role == EXECUTOR:
            self._last_answer = (resp,)
            if cur.is_summary:
                wf.set_query(self.root_id, status=STATUS_RESOLVED)
            elif not done:
                self.current_id = self.pending.pop(0)
        elif role == SUMMARIZER:
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
            "role": role,
            "model": action.model,
            "quality": None if role == PLANNER else outcome.quality,
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
        (action_index, value).
        """
        if mode not in ("sample", "greedy"):
            raise ValueError(f"unknown decoding mode: {mode!r}")
        self.reset(root)
        records: list[StepRecord] = []
        while not self.finished:
            wf_input, q_emb = self.snapshot()
            mask = self.legal_mask()
            action_index, value = policy.act(wf_input, q_emb, mask, mode, rng)
            reward, _, info = self.step(self.cfg.action_of(int(action_index)))
            records.append(StepRecord(
                wf_input=wf_input, query_embedding=q_emb, mask=mask,
                action_index=int(action_index), value=float(value),
                reward=reward, **info))
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
        memory.update_hub_stats(hub, float(min(max(observed, 0.0), 1.0)),
                                rec.scaled_cost, decay=decay)
    return tag

