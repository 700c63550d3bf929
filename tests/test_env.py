"""MDP tests: masks, templates, rewards, truncation, cloning, absorption."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentroute.backend import (ALL_ROLES, EXECUTOR, PLANNER, SUMMARIZER, THINKER,
                                VERIFIER, BenchmarkSpec, final_utility, make_benchmark)
from agentroute.baselines import RandomRouter
from agentroute.env import (
    PHASE1,
    Action,
    EnvConfig,
    Pool,
    RoutingEnv,
    StepRecord,
    absorb_episode,
)
from agentroute.memory import HeteroGraph, STATUS_PENDING, STATUS_RESOLVED, serialize
from graph_equality import as_v1

K = 2  # pool size used throughout


def make_bench(families=2, seed=3, width=(2,)):
    return make_benchmark(
        BenchmarkSpec(kind="uniform",
                      families=tuple(f"fam{i}" for i in range(families)),
                      queries_per_family=10, width_profile=width, seed=seed),
        k_models=K)


def make_env(bench=None, n_roles=3, **cfg_kw):
    bench = bench if bench is not None else make_bench()
    cfg = EnvConfig(n_models=K, n_roles=n_roles, **cfg_kw)
    return RoutingEnv(cfg, bench, bench.build_hubs(n_roles)), bench


class FirstLegal:
    """Deterministic scripted policy: lowest allowed action index."""

    def act(self, wf_input, q_emb, mask, mode, rng):
        return int(np.argmax(mask)), 0.0


class PreferRole:
    def __init__(self, *roles):
        self.roles = roles

    def act(self, wf_input, q_emb, mask, mode, rng):
        for r in self.roles:
            if mask[r * K]:
                return r * K, 0.0
        return int(np.argmax(mask)), 0.0


# -- config -------------------------------------------------------------------------


def test_config_validation():
    bad = [dict(n_models=0), dict(n_models=K, n_roles=2), dict(n_models=K, n_roles=6),
           dict(n_models=K, p_max=-1), dict(n_models=K, width=0),
           dict(n_models=K, max_steps=0), dict(n_models=K, alpha=-0.1),
           dict(n_models=K, phase="phase3"),
           dict(n_models=K, phase=PHASE1, phase_width=0),
           dict(n_models=K, utility_mode="graded"),
           dict(n_models=K, cost_scale=0.0)]
    for kw in bad:
        with pytest.raises(ValueError):
            EnvConfig(**kw)


def test_action_index_roundtrip():
    cfg = EnvConfig(n_models=3, n_roles=5)
    assert cfg.n_actions == 15
    for i in range(cfg.n_actions):
        a = cfg.action_of(i)
        assert cfg.action_index(a) == i
    assert cfg.action_index(Action(role=2, model=1)) == 7


def test_env_rejects_mismatched_parts():
    bench = make_bench()
    cfg = EnvConfig(n_models=K, n_roles=3)
    with pytest.raises(ValueError):
        RoutingEnv(cfg, bench, bench.build_hubs(5))
    with pytest.raises(ValueError):
        RoutingEnv(EnvConfig(n_models=K + 1), bench, bench.build_hubs(3))


# -- masks --------------------------------------------------------------------------


def test_mask_at_step_zero():
    env, bench = make_env(p_max=1)
    env.reset(bench.generate_query(0, 0))
    mask = env.legal_mask()
    assert mask[1 * K:2 * K].all()        # executor always
    assert mask[0 * K:1 * K].all()        # planner budget available
    assert not mask[2 * K:3 * K].any()    # summarizer never on a fresh root


def test_mask_planner_budget_zero():
    env, bench = make_env(p_max=0)
    env.reset(bench.generate_query(0, 0))
    assert not env.legal_mask()[0 * K:1 * K].any()


def test_mask_planner_spent_after_decompose():
    env, bench = make_env(p_max=1, width=2)
    env.reset(bench.generate_query(0, 0))
    env.step(Action(0, 0))
    # budget exhausted for the rest of the episode
    assert not env.legal_mask()[0 * K:1 * K].any()


def test_summarizer_unlocks_and_summary_is_executor_only():
    env, bench = make_env(p_max=1, width=2)
    env.reset(bench.generate_query(0, 0))  # width_hint 2
    env.step(Action(0, 0))                 # plan into two children
    assert not env.legal_mask()[2 * K:3 * K].any()
    env.step(Action(1, 0))                 # resolve child 0
    env.step(Action(1, 0))                 # resolve child 1, back at root
    mask = env.legal_mask()
    assert mask[2 * K:3 * K].all()         # two resolved children unlock it
    env.step(Action(2, 1))                 # summarize
    mask = env.legal_mask()
    assert mask[1 * K:2 * K].all()
    assert not mask[0 * K:1 * K].any() and not mask[2 * K:3 * K].any()
    _, done, _ = env.step(Action(1, 0))    # resolve the synthesis query
    assert done and env.finished
    assert env.summary_used


def test_illegal_action_rejected():
    env, bench = make_env(p_max=0)
    env.reset(bench.generate_query(0, 0))
    for action in (Action(0, 0),   # planner masked out
                   Action(2, 0),   # summarizer masked out
                   Action(3, 0),   # no such role
                   Action(0, K)):  # no such model
        with pytest.raises(ValueError, match="not allowed by the mask"):
            env.step(action)
    # the pool scorer and the end test refuse the roles `step` refuses,
    # with the same error
    for role in (0, 2, 3, -1):
        for query in (env.pool, env.ends):
            with pytest.raises(ValueError, match="not allowed by the mask"):
                query(role)
    assert env.step_count == 0 and not env.finished


def test_finished_episode_refuses_everything():
    env, bench = make_env()
    env.reset(bench.generate_query(0, 0))
    _, done, _ = env.step(Action(1, 0))
    assert done
    with pytest.raises(RuntimeError, match="episode already finished"):
        env.step(Action(1, 0))
    for query in (env.pool, env.ends):
        with pytest.raises(RuntimeError, match="episode already finished"):
            query(1)
    with pytest.raises(RuntimeError):
        env.legal_mask()


def test_extra_role_masks():
    bench = make_bench()
    env, _ = make_env(bench=bench, n_roles=5, p_max=0)
    env.reset(bench.generate_query(0, 0))
    t, v = 3 * K, 4 * K
    mask = env.legal_mask()
    assert mask[t:t + K].all()         # thinker available on a fresh query
    assert not mask[v:v + K].any()     # verifier needs context
    env.step(Action(3, 0))
    mask = env.legal_mask()
    assert not mask[t:t + K].any()     # one thinker pass per query
    assert mask[v:v + K].all()         # the draft gives it something to check
    env.step(Action(4, 1))
    mask = env.legal_mask()
    assert not mask[v:v + K].any()     # one verify pass per query
    assert mask[1 * K:2 * K].all()


def test_four_roles_offer_the_thinker_and_never_the_verifier():
    bench = make_bench(width=(3,))
    t = THINKER * K
    offered = after_thinker = 0
    for seed in range(6):
        env, _ = make_env(bench=bench, n_roles=4, p_max=2, width=3)
        env.reset(bench.train_query(seed))
        rng = np.random.default_rng(seed)
        while not env.finished:
            mask = env.legal_mask()
            assert mask.shape == (4 * K,)
            wf = env.workflow
            thought = any(wf.responses[r].produced_by[0] == THINKER
                          for r in wf.response_ids.get(env.current_id, ()))
            # one thinker pass per query, never on the synthesis query
            assert mask[t:t + K].all() == (not thought and not env.current.is_summary)
            offered += bool(mask[t])
            if thought:
                # a five-role env would offer the verifier here
                after_thinker += 1
                with pytest.raises(ValueError):
                    env.step(Action(VERIFIER, 0))
            env.step(env.cfg.action_of(int(rng.choice(np.flatnonzero(mask)))))
    assert offered and after_thinker


# -- phase-1 templates ------------------------------------------------------------------


def roles_under_template(depth, width, max_steps=16):
    env, bench = make_env(phase=PHASE1, phase_depth=depth, phase_width=width,
                          max_steps=max_steps)
    ep = env.run_episode(bench.generate_query(0, 0), FirstLegal(), mode="greedy")
    assert not ep.truncated
    return [r.role for r in ep.records]


def test_template_depth1_width3():
    assert roles_under_template(1, 3) == [0, 1, 1, 1, 2, 1]


def test_template_depth2_width2():
    assert roles_under_template(2, 2) == [0, 0, 1, 1, 1, 1, 2, 1]


def test_template_depth0_is_direct_answer():
    assert roles_under_template(0, 2) == [1]


def test_template_mask_is_single_role():
    env, bench = make_env(phase=PHASE1, phase_depth=1, phase_width=2)
    env.reset(bench.generate_query(0, 0))
    mask = env.legal_mask()
    assert mask[0:K].all() and not mask[K:].any()


# -- rewards ------------------------------------------------------------------------


def test_reward_decomposition_single_step():
    env, bench = make_env(alpha=0.1)
    env.reset(bench.generate_query(0, 0))
    reward, done, info = env.step(Action(1, 1))
    assert done
    assert reward == pytest.approx(env.utility - 0.1 * info["scaled_cost"],
                                   abs=1e-12)
    assert info["scaled_cost"] == pytest.approx(info["dollars"] * 1000.0)


def test_episode_reward_identity():
    env, bench = make_env(alpha=0.3, p_max=1, width=2)
    ep = env.run_episode(bench.generate_query(0, 1), PreferRole(0, 2, 1))
    assert ep.total_reward == pytest.approx(
        ep.utility - 0.3 * ep.scaled_cost, abs=1e-9)
    assert ep.scaled_cost == pytest.approx(1000.0 * ep.dollars, rel=1e-12)


def test_intermediate_rewards_are_pure_cost():
    env, bench = make_env(alpha=0.2, p_max=1)
    ep = env.run_episode(bench.generate_query(0, 0), PreferRole(0, 1))
    for rec in ep.records[:-1]:
        assert rec.reward == pytest.approx(-0.2 * rec.scaled_cost, abs=1e-12)


def test_zero_alpha_reward_is_terminal_utility():
    env, bench = make_env(alpha=0.0, p_max=1)
    ep = env.run_episode(bench.generate_query(1, 0), PreferRole(0, 1))
    assert ep.total_reward == pytest.approx(ep.utility, abs=1e-12)


# -- truncation ----------------------------------------------------------------------


def test_truncation_with_no_answer_scores_zero():
    env, bench = make_env(p_max=4, width=2, max_steps=2)
    env.reset(bench.generate_query(0, 0))
    env.step(Action(0, 0))
    _, done, _ = env.step(Action(0, 0))
    assert done and env.truncated
    assert env.utility == 0.0


def test_truncation_keeps_last_answer():
    env, bench = make_env(p_max=4, width=2, max_steps=3)
    env.reset(bench.generate_query(0, 0))
    env.step(Action(0, 0))   # plan: children c0 c1
    _, _, answer = env.step(Action(1, 0))   # resolve c0
    reward, done, _ = env.step(Action(0, 1))  # plan c1, hits the step cap
    assert done and env.truncated
    assert env.utility == answer["quality"] > 0.0
    assert reward == env.utility  # alpha is 0, so only the utility is paid


def test_truncation_ignores_responses_after_the_last_answer():
    env, bench = make_env(n_roles=5, p_max=1, width=2, max_steps=4)
    env.reset(bench.generate_query(0, 0))
    env.step(Action(0, 0))   # plan: children c0 c1
    _, _, answer = env.step(Action(1, 0))   # resolve c0, move to c1
    _, _, thought = env.step(Action(3, 1))  # think on c1
    _, done, verdict = env.step(Action(4, 1))  # verify c1, hits the step cap
    assert done and env.truncated
    assert {thought["quality"], verdict["quality"]}.isdisjoint({answer["quality"]})
    assert env.utility == answer["quality"]


# -- pool scoring --------------------------------------------------------------------


def separable_env(width, n_models, **cfg_kw):
    """A noise-free env over the separable pool, as the oracle searches it."""
    bench = make_benchmark(
        BenchmarkSpec(kind="separable", families=(0, 1, 2), queries_per_family=300,
                      seed=7, width_profile=(width,)),
        k_models=n_models)
    cfg = EnvConfig(n_models=n_models, width=width, **cfg_kw)
    return RoutingEnv(cfg, bench.with_noise(False), bench.build_hubs(cfg.n_roles))


def episode_state(env):
    return (serialize(env.workflow), env.step_count, env.current_id,
            list(env.pending), env.planner_count, env.summary_used, env.finished,
            env.truncated, env.utility, [r.id for r in env._last_answer])


def assert_same_subtrees(envs):
    """Walk the subtrees below `envs` in lockstep: each state below one of
    them has the mask, the ends and the pool rewards of the same state below
    every other."""
    k = envs[0].cfg.n_models
    stack = [envs]
    while stack:
        group = stack.pop()
        mask = group[0].legal_mask()
        assert all(np.array_equal(e.legal_mask(), mask) for e in group)
        for role in np.flatnonzero(mask[::k]).tolist():
            views = [(e.ends(role), [r.hex() for r in e.pool(role).rewards])
                     for e in group]
            assert all(v == views[0] for v in views)
            if any(views[0][0]):
                continue
            for m in range(k):
                children = [e.clone() for e in group]
                for child in children:
                    child.step(Action(role, m))
                stack.append(children)


@pytest.mark.parametrize("cfg_kw, roots", [
    # the oracle benchmark's configuration
    (dict(width=2, n_models=4, n_roles=3, p_max=1, max_steps=16, alpha=0.1), 1),
    # four roles: a thinker and no verifier
    (dict(width=2, n_models=2, n_roles=4, p_max=1, max_steps=6, alpha=0.1), 1),
    # five roles, p_max 2: thinker, verifier, summarizer and depth-2 trees
    (dict(width=3, n_models=2, n_roles=5, p_max=2, max_steps=6, alpha=0.1), 1),
    # a step cap that truncates planners, thinkers and executors alike
    (dict(width=3, n_models=2, n_roles=5, p_max=2, max_steps=3, alpha=0.1,
          utility_mode="binary"), 4),
], ids=["oracle-search", "four-role", "five-role", "truncating-binary"])
def test_leaf_reward_is_the_terminal_step_reward_on_every_branch(cfg_kw, roots):
    env = separable_env(**cfg_kw)
    cfg, k = env.cfg, env.cfg.n_models
    ends, shared = set(), 0
    for i in range(roots):
        env.reset(env.benchmark.eval_query(i))
        stack = [env]
        while stack:
            e = stack.pop()
            mask = e.legal_mask()
            # the mask allows a role for all of its models or for none
            assert np.array_equal(mask, np.repeat(mask[::k], k))
            roles = [r for r in range(cfg.n_roles) if mask[r * k]]
            before = episode_state(e)
            pools = {r: e.pool(r).rewards for r in roles}
            records = {r: e.pool(r) for r in roles}
            stops = {r: e.ends(r) for r in roles}
            assert episode_state(e) == before
            for role in roles:
                assert len(pools[role]) == k
                record = records[role]
                assert [r.hex() for r in record.rewards] == [r.hex() for r in pools[role]]
                if any(stops[role]):
                    # rescored under the answers' own qualities, a pool that
                    # ends the episode is unchanged
                    answers = tuple(e.workflow.responses[i].quality for i in record.reads)
                    assert [r.hex() for r in record.rebound(answers)] == \
                        [r.hex() for r in pools[role]]
                children = []
                for m in range(k):
                    child = e.clone()
                    reward, done, info = child.step(Action(role, m))
                    # one pool pass gives every model's step reward, and the
                    # end test its step's end, terminal or not
                    assert pools[role][m].hex() == reward.hex()
                    assert stops[role] == (done and not child.truncated,
                                           child.truncated)
                    if role != PLANNER:
                        # and the quality and id of the response the step attaches
                        response = child.workflow.responses[record.response_id]
                        assert response.produced_by == (role, m)
                        assert record.qualities[m] == response.quality == info["quality"]
                    if not done:
                        children.append(child)
                        continue
                    # the step's own end, by the MDP's rules: an executor answer
                    # at the root or the synthesis query, or the step cap
                    name, cur = ALL_ROLES[role].name, e.current
                    answered = name == "executor" and (cur.is_summary
                                                       or cur.id == e.root_id)
                    assert answered or e.step_count + 1 == cfg.max_steps
                    assert child.truncated == (not answered)
                    if child.truncated:
                        partial = (info["quality"] if name == "executor"
                                   else e._last_answer[0].quality if e._last_answer
                                   else None)
                        assert child.utility == final_utility(
                            0.0 if partial is None else partial, [], False,
                            cfg.utility_mode)
                    ends.add((name, child.truncated))
                if children and ALL_ROLES[role].name == "planner":
                    # a planner's model changes only its call's cost, so the
                    # oracle searches one child for all of them
                    first = episode_state(children[0])
                    assert all(episode_state(c) == first for c in children)
                    children, shared = children[:1], shared + 1
                elif children and cfg.n_roles <= VERIFIER and \
                        ALL_ROLES[role].name in ("summarizer", "thinker"):
                    # without a verifier nothing downstream reads a summary's
                    # or a thought's quality, so the oracle searches one child
                    # for all of them too
                    assert_same_subtrees(children)
                    children, shared = children[:1], shared + 1
                stack += children
    assert ("executor", False) in ends and shared > 0
    if cfg.max_steps == 3:
        assert {("planner", True), ("executor", True), ("thinker", True)} <= ends


quality = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), summarized_done=st.booleans(),
       mode=st.sampled_from(["continuous", "binary"]), k=st.integers(1, 4))
def test_pool_rebound_is_non_decreasing_in_each_answer_quality(data, summarized_done,
                                                               mode, k):
    """The oracle bounds a leaf that reads bound answers by its rebound at
    each answer's highest bindable quality, so raising one answer's quality
    must never lower a model's reward. The leaves that read answers: a done
    episode's final answer with the sub-answers of a summary, and a truncating
    non-executor action with the last answer."""
    if summarized_done:
        role, n_reads = EXECUTOR, data.draw(st.integers(1, 4))
    else:
        role, n_reads = data.draw(st.sampled_from([PLANNER, SUMMARIZER, THINKER])), 1
    pool = Pool(role, summarized_done, summarized_done, mode, rewards=[0.0] * k,
                qualities=data.draw(st.lists(quality, min_size=k, max_size=k)),
                costs=data.draw(st.lists(st.floats(-2.0, 0.0), min_size=k, max_size=k)),
                reads=tuple(f"r{i}" for i in range(n_reads)), response_id="r9")
    answers = data.draw(st.lists(quality, min_size=n_reads, max_size=n_reads))
    i = data.draw(st.integers(0, n_reads - 1))
    raised = list(answers)
    raised[i] = data.draw(st.floats(answers[i], 1.0))
    low, high = pool.rebound(tuple(answers)), pool.rebound(tuple(raised))
    assert all(a <= b for a, b in zip(low, high)), (answers, raised, low, high)


def test_a_verifier_reads_the_quality_of_a_thought():
    """Why the oracle shares a thinker's child only without a verifier: a
    verify pass floors at its context's best quality and an executor at the
    verified draft, so the thinker's model reaches the final answer."""
    bench = make_benchmark(
        BenchmarkSpec(kind="separable", families=(0, 1, 2), queries_per_family=300,
                      seed=7, width_profile=(3,)),
        k_models=2, skill_overrides={"verifier": 0.0, "executor": 0.0})
    cfg = EnvConfig(n_models=2, n_roles=5, width=3)
    env = RoutingEnv(cfg, bench.with_noise(False), bench.build_hubs(cfg.n_roles))
    for i in range(6):
        answers = []
        for m in range(2):
            env.reset(bench.eval_query(i))
            env.step(Action(THINKER, m))
            env.step(Action(VERIFIER, 0))
            answers.append(env.pool(EXECUTOR).rewards)
        assert answers[0] != answers[1]


def test_every_step_calls_the_simulator_once_and_numbers_its_response(monkeypatch):
    env, bench = make_env(n_roles=5, p_max=1, width=2)
    calls = []
    # `call` scores one model call: a planner step calls it alone, and every
    # other step through `invoke`, which adds the response embedding
    call = bench.call
    monkeypatch.setattr(bench, "call",
                        lambda *a, **kw: calls.append(a[1]) or call(*a, **kw))
    env.reset(bench.generate_query(0, 0))
    # plan, answer c0, think and verify on c1, answer it, summarize, answer
    for a in (Action(0, 0), Action(1, 0), Action(3, 1), Action(4, 0),
              Action(1, 1), Action(2, 0), Action(1, 0)):
        _, done, _ = env.step(a)
        assert calls[-1] == a.role
    assert done and not env.truncated and len(calls) == 7
    assert list(env.workflow.responses) == [f"r{i}" for i in range(6)]
    root = env.workflow.queries[env.root_id]
    assert root.status == STATUS_RESOLVED and env.summary_used


def test_a_planner_step_keys_no_response_stream(monkeypatch):
    """A planner step attaches no response, so on a noisy pool it keys its
    call's noise and token streams and its decomposition, but no response
    noise; an executor step keys all three of its call's streams."""
    from agentroute import backend
    env, bench = make_env(p_max=1, width=2)
    assert bench.noise
    env.reset(bench.generate_query(0, 0))
    labels, det_rng = [], backend.det_rng

    def counted(*parts):
        labels.append(parts[1])
        return det_rng(*parts)

    monkeypatch.setattr(backend, "det_rng", counted)
    env.step(Action(PLANNER, 1))
    assert sorted(labels) == ["decomp", "noise", "tokens"]
    labels.clear()
    env.step(Action(EXECUTOR, 0))
    assert sorted(labels) == ["noise", "resp", "tokens"]


def test_step_info_lists_the_step_record_fields_in_order():
    """`run_episode` fills a record's bookkeeping from `step`'s info by
    position."""
    env, bench = make_env(p_max=1)
    env.reset(bench.generate_query(0, 0))
    _, _, info = env.step(Action(EXECUTOR, 0))
    names = [f.name for f in dataclasses.fields(StepRecord)]
    assert list(info) == names[names.index("role"):]


def test_config_rejects_a_non_finite_alpha_or_cost_scale():
    for key in ("alpha", "cost_scale"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{key} must be finite"):
                EnvConfig(n_models=K, **{key: value})
    EnvConfig(n_models=K, alpha=1e300, cost_scale=1e-300)  # large and small are fine


# -- cloning and reset hygiene ----------------------------------------------------------


def test_clone_runs_independently():
    env, bench = make_env(p_max=1, width=2)
    env.reset(bench.generate_query(0, 0))
    env.step(Action(0, 0))
    fork = env.clone()
    fork.step(Action(1, 0))
    assert fork.step_count == 2 and env.step_count == 1
    assert len(fork.workflow.responses) == 1
    assert len(env.workflow.responses) == 0
    assert fork.hubs is env.hubs


def test_stepping_a_clone_leaves_the_original_unchanged():
    env, bench = make_env(n_roles=5, p_max=1, width=2)
    env.reset(bench.generate_query(0, 0))
    for a in (Action(0, 0), Action(3, 1), Action(1, 0)):  # plan, think, answer
        env.step(a)
    before = serialize(env.workflow)
    fork = env.clone()
    assert fork._draws is env._draws  # one episode, one set of draws
    for q in env.workflow.queries.values():  # immutable, so shared
        assert fork.workflow.queries[q.id] is q
    for r in env.workflow.responses.values():
        assert fork.workflow.responses[r.id] is r
    while not fork.finished:
        fork.step(Action(1, 1))
    assert serialize(env.workflow) == before
    assert len(fork.workflow.responses) > len(env.workflow.responses)
    draws = env._draws
    env.reset(bench.generate_query(1, 0))
    assert env._draws == {} and fork._draws is draws


def test_reset_leaves_caller_root_untouched():
    env, bench = make_env()
    root = bench.generate_query(0, 0)
    env.run_episode(root, FirstLegal())
    assert root.status == STATUS_PENDING
    assert root.answer_id is None


def test_run_episode_mode_validation():
    env, bench = make_env()
    with pytest.raises(ValueError):
        env.run_episode(bench.generate_query(0, 0), FirstLegal(), mode="beam")


def test_episode_record_consistency():
    env, bench = make_env(p_max=1, width=2)
    ep = env.run_episode(bench.generate_query(0, 0), PreferRole(0, 2, 1))
    assert ep.length == len(ep.records)
    assert ep.actions == [(r.role, r.model) for r in ep.records]
    assert ep.dollars == pytest.approx(sum(r.dollars for r in ep.records))
    # each record's frozen view predates its action: node counts never shrink
    sizes = [r.wf_input.n_queries + r.wf_input.n_responses for r in ep.records]
    assert sizes == sorted(sizes)


# -- absorption and traces ---------------------------------------------------------------


def test_absorb_episode_updates_hubs():
    env, bench = make_env(p_max=1, width=2)
    ep = env.run_episode(bench.generate_query(0, 0), PreferRole(0, 1))
    history = HeteroGraph("history", env.hubs, capacity=256)
    tag = absorb_episode(history, ep, decay=0.9)
    assert tag == "ep0"
    assert history.interaction_count == \
        len(ep.workflow.queries) + len(ep.workflow.responses)
    # the planner hub saw the episode utility, not a response quality
    planner_hub = env.hubs.get(0, 0)
    assert planner_hub.utility_ema == pytest.approx(0.1 * ep.utility, abs=1e-12)
    touched = {(r.role, r.model) for r in ep.records}
    for (r, m) in touched:
        assert env.hubs.get(r, m).cost_ema > 0.0


# -- per-state facts and decision states ---------------------------------------------

FACTS = ("mask", "answers", "context", "summary", "subs")


def fresh_fact(env, name):
    """`name` of env's state, computed again on a clone with an empty memo."""
    fresh = env.clone()
    fresh._facts = {}
    return fresh._fact(name)


def assert_same_read_only_fact(name, got, want):
    if name == "mask":
        assert not got.flags.writeable and np.array_equal(got, want)
    elif name == "summary":
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.status = STATUS_RESOLVED
        assert not got.embedding.flags.writeable
        assert (got.id, got.parent, got.depth, got.family, got.is_summary) == \
            (want.id, want.parent, want.depth, want.family, want.is_summary)
        assert np.array_equal(got.embedding, want.embedding)
    else:  # responses, which clones share
        assert isinstance(got, tuple) and [r.id for r in got] == [r.id for r in want]


def test_cached_mask_matches_a_fresh_computation_on_every_branch():
    bench = make_bench(width=(3,))
    checked = {name: 0 for name in FACTS}
    for seed in range(8):
        env, _ = make_env(bench=bench, n_roles=5, p_max=2, width=3, max_steps=12)
        env.reset(bench.train_query(seed))
        rng = np.random.default_rng(seed)
        stack, branches = [env], 0
        while stack:
            e = stack.pop()
            while not e.finished:
                mask = e.legal_mask()
                assert not mask.flags.writeable and e.legal_mask() is mask
                assert np.array_equal(mask, fresh_fact(e, "mask"))
                legal = np.flatnonzero(mask)
                memo = e._facts
                if branches < 12 and rng.uniform() < 0.4:
                    # a clone shares the memo; stepping it leaves the
                    # original's memo and every fact in it as they were
                    twin = e.clone()
                    assert twin._facts is memo
                    kept = dict(memo)
                    twin.step(e.cfg.action_of(int(rng.choice(legal))))
                    assert twin._facts is not memo and e._facts is memo
                    assert all(memo[name] is fact for name, fact in kept.items())
                    stack.append(twin)
                    branches += 1
                pre = e.clone()  # the state before the step, for fresh facts
                e.step(e.cfg.action_of(int(rng.choice(legal))))
                assert e._facts is not memo
                # every fact handed out, the step's own reads among them
                for name, fact in memo.items():
                    assert_same_read_only_fact(name, fact, fresh_fact(pre, name))
                    checked[name] += 1
    # summarized terminal steps read the sub-answers
    assert min(checked.values()) > 0, checked


def test_step_records_keep_the_state_a_freeze_would_have_shown():
    bench = make_bench(width=(3,))
    lengths = []
    for seed in range(6):
        env, _ = make_env(bench=bench, n_roles=5, p_max=2, width=3)
        frozen, snapshot = [], env.snapshot

        def freezing_snapshot():
            frozen.append(env.workflow.freeze())
            return snapshot()

        env.snapshot = freezing_snapshot
        ep = env.run_episode(bench.train_query(seed), RandomRouter(), mode="sample",
                             rng=np.random.default_rng(seed))
        assert len(frozen) == ep.length
        lengths.append(ep.length)
        for rec, want in zip(ep.records, frozen):
            got = rec.wf_input
            assert (got.n_hubs, got.n_queries, got.n_responses) == \
                (want.n_hubs, want.n_queries, want.n_responses)
            for a, b in zip(got.hub_sums, want.hub_sums):
                assert (a is None) == (b is None)
                assert a is None or np.array_equal(a, b)
    assert max(lengths) >= 5


def scanned_descendant_answers(wf, query_id):
    """The sub-answer walk restated over a scan of the nodes: pre-order,
    children in insertion order, summary queries and their subtrees left out."""
    out = []
    for child in [q for q in wf.queries.values() if q.parent == query_id]:
        if child.is_summary:
            continue
        if child.status == STATUS_RESOLVED and child.answer_id is not None:
            out.append(child.answer_id)
        out.extend(scanned_descendant_answers(wf, child.id))
    return out


def test_sub_answers_keep_the_pre_order_of_a_node_scan():
    bench = make_bench(width=(3,))
    deep = 0
    for seed in range(30):
        env, _ = make_env(bench=bench, n_roles=5, p_max=2, width=3)
        env.run_episode(bench.train_query(seed), RandomRouter(), mode="sample",
                        rng=np.random.default_rng(seed))
        for qid in env.workflow.queries:
            got = env._descendant_answers(qid)
            assert [r.id for r in got] == scanned_descendant_answers(env.workflow, qid)
            deep += len({r.quality for r in got}) >= 3
    assert deep >= 3


# RandomRouter rollouts of held-out queries 0-39 on the five-role, p_max 2,
# width-3 configuration of the multi-step benchmark (separable pool, seed 7),
# written before the graphs indexed their children and responses. Unlike the
# oracle's golden file these reach the thinker, the verifier, the summarizer
# and depth-2 trees, so a change to the env, the simulator or the workflow
# graph that moves an action, a quality bit, a cost or a node shows up here.
# Each workflow hash is of the graph's version-1 text, which the file predates.
GOLDEN_ROLLOUTS = Path(__file__).parent / "data" / "rollouts_v1.json"


def golden_rollouts(cfg: dict, n_episodes: int) -> list[dict]:
    spec = cfg["spec"]
    bench = make_benchmark(
        BenchmarkSpec(kind=spec["kind"], families=tuple(spec["families"]),
                      queries_per_family=spec["queries_per_family"],
                      width_profile=tuple(spec["width_profile"]), seed=spec["seed"]),
        k_models=cfg["k_models"])
    env_cfg = EnvConfig(**cfg["env"])
    env = RoutingEnv(env_cfg, bench, bench.build_hubs(env_cfg.n_roles))
    out = []
    for i in range(n_episodes):
        ep = env.run_episode(bench.eval_query(i), RandomRouter(), mode="sample",
                             rng=np.random.default_rng(i))
        out.append({"eval_query": i, "actions": [list(a) for a in ep.actions],
                    "utility": ep.utility, "dollars": ep.dollars,
                    "workflow_sha256": hashlib.sha256(as_v1(serialize(ep.workflow))).hexdigest()})
    return out


def test_random_rollouts_match_the_golden_file():
    golden = json.loads(GOLDEN_ROLLOUTS.read_text())
    assert len(golden["episodes"]) == 40
    assert golden_rollouts(golden["config"], 40) == golden["episodes"]
    roles = {role for ep in golden["episodes"] for role, _ in ep["actions"]}
    assert roles == {0, 1, 2, 3, 4}
