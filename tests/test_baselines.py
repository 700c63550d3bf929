"""Baseline router tests: random, nearest-neighbor replay, exhaustive oracle."""

import dataclasses
import io
import json
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agentroute import backend
from agentroute.backend import (EXECUTOR, KINDS, PLANNER, SUMMARIZER, THINKER, VERIFIER,
                               BenchmarkSpec, make_benchmark)
from agentroute.baselines import (
    KnnRouter,
    KnnStore,
    RandomRouter,
    ScriptedPolicy,
    oracle_route,
    oracle_search,
)
from agentroute.env import Action, EnvConfig, RoutingEnv
from agentroute.memory import EncoderInput


def make_bench(kind="uniform", families=2, seed=4, k_models=2):
    return make_benchmark(
        BenchmarkSpec(kind=kind, families=tuple(f"fam{i}" for i in range(families)),
                      queries_per_family=20, width_profile=(1, 2), seed=seed),
        k_models=k_models)


def fresh_root_input(n_hubs=6):
    return EncoderInput(hub_feats=np.zeros((n_hubs, 4)),
                        query_feats=np.zeros((1, 4)),
                        response_feats=np.zeros((0, 0)),
                        edge_src=np.zeros(0, dtype=np.int64),
                        edge_dst=np.zeros(0, dtype=np.int64),
                        n_hubs=n_hubs, n_queries=1, n_responses=0)


def later_step_input(n_hubs=6):
    inp = fresh_root_input(n_hubs)
    inp.response_feats = np.zeros((1, 4))
    inp.n_responses = 1
    return inp


# -- random -------------------------------------------------------------------------


def test_random_router_respects_mask():
    router = RandomRouter()
    mask = np.array([False, True, False, True])
    rng = np.random.default_rng(0)
    for _ in range(50):
        idx, value = router.act(fresh_root_input(), np.zeros(4), mask,
                                "sample", rng)
        assert mask[idx]
        assert value == 0.0


def test_random_router_greedy_is_first_allowed():
    router = RandomRouter()
    mask = np.array([False, False, True, True])
    idx, _ = router.act(fresh_root_input(), np.zeros(4), mask, "greedy")
    assert idx == 2


def test_random_router_empty_mask():
    with pytest.raises(ValueError):
        RandomRouter().act(fresh_root_input(), np.zeros(4),
                           np.zeros(3, dtype=bool), "greedy")


# -- knn ---------------------------------------------------------------------------


def store_with(entries):
    store = KnnStore()
    for emb, seq in entries:
        store.add(np.asarray(emb, dtype=float), seq)
    return store


def test_knn_store_neighbors_by_distance():
    store = store_with([([0.0, 0.0], [1]), ([1.0, 0.0], [2]),
                        ([5.0, 0.0], [3])])
    assert store.neighbors(np.array([0.9, 0.0]), k=2) == [1, 0]
    # ties keep insertion order
    tie = store_with([([1.0], [1]), ([1.0], [2])])
    assert tie.neighbors(np.array([0.0]), k=2) == [0, 1]


def test_knn_store_empty_neighbors():
    assert KnnStore().neighbors(np.zeros(2), k=3) == []


def test_knn_router_majority_vote():
    # three neighbors vote 2-1 for action 1 at step 0
    store = store_with([([0.0], [1, 0]), ([0.1], [1, 2]), ([0.2], [3, 2])])
    router = KnnRouter(store, k=3)
    mask = np.ones(6, dtype=bool)
    idx, _ = router.act(fresh_root_input(), np.array([0.0]), mask)
    assert idx == 1
    # step advances: majority at step 1 is action 2
    idx, _ = router.act(later_step_input(), np.array([0.0]), mask)
    assert idx == 2


def test_knn_router_falls_through_masked_votes():
    store = store_with([([0.0], [4]), ([0.1], [4]), ([0.2], [1])])
    router = KnnRouter(store, k=3)
    mask = np.ones(6, dtype=bool)
    mask[4] = False
    idx, _ = router.act(fresh_root_input(), np.array([0.0]), mask)
    assert idx == 1


def test_knn_router_first_allowed_when_no_votes():
    router = KnnRouter(KnnStore(), k=3)
    mask = np.array([False, False, True, True])
    idx, _ = router.act(fresh_root_input(), np.zeros(1), mask)
    assert idx == 2


def test_knn_router_re_picks_neighbors_per_episode():
    store = store_with([([0.0], [1]), ([10.0], [2])])
    router = KnnRouter(store, k=1)
    mask = np.ones(6, dtype=bool)
    idx, _ = router.act(fresh_root_input(), np.array([0.0]), mask)
    assert idx == 1
    idx, _ = router.act(fresh_root_input(), np.array([10.0]), mask)
    assert idx == 2


def test_knn_router_validates_k():
    with pytest.raises(ValueError):
        KnnRouter(KnnStore(), k=0)


def test_knn_store_roundtrip(tmp_path):
    store = store_with([([0.5, 1.5], [1, 2, 3]), ([2.0, 0.0], [4])])
    path = tmp_path / "store.json"
    store.save(path)
    loaded = KnnStore.load(path)
    assert len(loaded) == 2
    assert loaded.sequences == store.sequences
    for a, b in zip(loaded.embeddings, store.embeddings):
        assert np.array_equal(a, b)


def test_knn_store_file_is_the_json_text_of_the_store(tmp_path):
    store = store_with([([0.1, -0.0, 1e-300], [1, 2]), ([1.0 / 3.0, 2.5e17, 7.0], [])])
    path = tmp_path / "store.json"
    store.save(path)
    streamed = io.StringIO()
    json.dump(store.to_jsonable(), streamed, sort_keys=True)
    assert path.read_text() == json.dumps(store.to_jsonable(), sort_keys=True) \
        == streamed.getvalue()


def test_knn_store_rejects_a_record_of_another_length():
    blob = {"format_version": 1, "records": [{"embedding": [5.0], "actions": [1]},
                                             {"embedding": [0.0, 0.0, 0.0], "actions": [2]}]}
    with pytest.raises(ValueError, match="kNN record 1"):
        KnnStore.from_jsonable(blob)
    store = store_with([([5.0], [1])])
    with pytest.raises(ValueError, match="kNN record 1"):
        store.add(np.zeros(3), [2])
    assert len(store) == 1


def test_knn_store_constructor_takes_no_records():
    """Records go in only through `add`: a `[5.0]` record beside `np.zeros(3)`,
    or an embedding with no sequence, cannot be given to the constructor."""
    for records in ({"embeddings": [np.array([5.0]), np.zeros(3)], "sequences": [[1], [2]]},
                    {"embeddings": [np.zeros(2)], "sequences": []}):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            KnnStore(**records)
    with pytest.raises(TypeError):
        KnnStore([np.zeros(2)], [[0]])


def test_knn_store_rejects_a_query_of_another_length():
    store = store_with([([5.0], [1]), ([0.0], [2])])
    with pytest.raises(ValueError, match="query embedding"):
        store.neighbors(np.array([5.0, 5.0, 5.0]), k=1)
    assert store.neighbors(np.array([4.0]), k=1) == [0]


def test_knn_store_version_check(tmp_path):
    path = tmp_path / "store.json"
    path.write_text(json.dumps({"format_version": 9, "records": []}))
    with pytest.raises(ValueError):
        KnnStore.load(path)


def add_episode(store, episode) -> None:
    """Store an episode's action indices under its root query embedding."""
    store.add(episode.records[0].query_embedding,
              [rec.action_index for rec in episode.records])


def test_knn_store_add_episode():
    bench = make_bench()
    env = RoutingEnv(EnvConfig(n_models=2, p_max=0), bench, bench.build_hubs(3))
    ep = env.run_episode(bench.generate_query(0, 0), RandomRouter(),
                         mode="greedy")
    store = KnnStore()
    add_episode(store, ep)
    assert store.sequences == [[rec.action_index for rec in ep.records]]


# -- scripted -----------------------------------------------------------------------


def test_scripted_policy_replays_and_guards():
    policy = ScriptedPolicy([2, 3])
    mask = np.ones(6, dtype=bool)
    assert policy.act(None, None, mask)[0] == 2
    assert policy.act(None, None, mask)[0] == 3
    with pytest.raises(RuntimeError):
        policy.act(None, None, mask)
    masked = ScriptedPolicy([2])
    bad = np.ones(6, dtype=bool)
    bad[2] = False
    with pytest.raises(RuntimeError):
        masked.act(None, None, bad)


# -- oracle -------------------------------------------------------------------------


def test_oracle_beats_every_alternative_on_tiny_instance():
    bench = make_bench(kind="separable", families=2, seed=9)
    cfg = EnvConfig(n_models=2, p_max=1, width=2, max_steps=8, alpha=0.1)
    hubs = bench.build_hubs(3)
    root = bench.generate_query(0, 0)
    actions, value = oracle_route(cfg, bench, hubs, root)

    # replaying the plan on the noise-free env reproduces the claimed value
    env = RoutingEnv(cfg, bench.with_noise(False), hubs)
    ep = env.run_episode(root, ScriptedPolicy(actions), mode="greedy")
    assert ep.total_reward == pytest.approx(value, abs=1e-12)

    # no single direct answer does better
    for m in range(2):
        env = RoutingEnv(cfg, bench.with_noise(False), hubs)
        ep = env.run_episode(root, ScriptedPolicy([2 + m]), mode="greedy")
        assert ep.total_reward <= value + 1e-12


def test_oracle_prefers_best_direct_model_when_planning_is_free_noise():
    # alpha high enough that extra calls always hurt: the oracle answers
    # directly with the single best executor
    bench = make_bench(kind="separable", families=2, seed=9)
    cfg = EnvConfig(n_models=2, p_max=1, width=2, max_steps=8, alpha=2.0)
    hubs = bench.build_hubs(3)
    actions, _ = oracle_route(cfg, bench, hubs, bench.generate_query(0, 0))
    assert len(actions) == 1
    assert actions[0] in (2, 3)  # executor row of the flat action grid


def test_oracle_ties_resolve_lexicographically():
    bench = make_bench(kind="uniform", families=2, seed=4)
    cfg = EnvConfig(n_models=2, p_max=0, width=2, max_steps=4, alpha=0.0)
    hubs = bench.build_hubs(3)
    actions, _ = oracle_route(cfg, bench, hubs, bench.generate_query(0, 0))
    # uniform pool with alpha 0: both executors tie, the first index wins
    assert actions == [2]


def test_oracle_bound_guard():
    bench = make_bench()
    cfg = EnvConfig(n_models=2, p_max=1, width=2, max_steps=8, alpha=0.0)
    hubs = bench.build_hubs(3)
    with pytest.raises(RuntimeError):
        oracle_route(cfg, bench, hubs, bench.generate_query(0, 0), bound=3)
    # the exact boundary on the oracle benchmark's configuration, whose
    # enumeration expands 1,624 states per query, the states below a shared
    # planner child counted once per planner model
    bench = make_benchmark(
        BenchmarkSpec(kind="separable", families=(0, 1, 2), queries_per_family=300,
                      seed=7, width_profile=(2,)), k_models=4)
    cfg = EnvConfig(n_models=4, n_roles=3, p_max=1, width=2, max_steps=16, alpha=0.1)
    hubs = bench.build_hubs(cfg.n_roles)
    with pytest.raises(RuntimeError, match="exceeded 1623 states"):
        oracle_route(cfg, bench, hubs, bench.eval_query(0), bound=1623)
    oracle_route(cfg, bench, hubs, bench.eval_query(0), bound=1624)


# Oracle plans and values for six held-out queries of the oracle benchmark's
# configuration (separable pool, seed 7, three roles, p_max 1, width 2),
# written by the simulator before its draws were memoised per episode. Any
# change to the simulator, the env or workflow cloning that moves a draw, a
# cost or a tie-break shows up here.
GOLDEN_ORACLE = Path(__file__).parent / "data" / "oracle_plans_v1.json"


def test_oracle_plans_match_the_golden_file():
    golden = json.loads(GOLDEN_ORACLE.read_text())
    cfg = golden["config"]
    spec = cfg["spec"]
    bench = make_benchmark(
        BenchmarkSpec(kind=spec["kind"], families=tuple(spec["families"]),
                      queries_per_family=spec["queries_per_family"],
                      width_profile=tuple(spec["width_profile"]), seed=spec["seed"]),
        k_models=cfg["k_models"])
    env_cfg = EnvConfig(**cfg["env"])
    hubs = bench.build_hubs(env_cfg.n_roles)
    assert len(golden["plans"]) == 6
    for want in golden["plans"]:
        root = bench.eval_query(want["eval_query"])
        assert root.id == want["query"]
        plan, value = oracle_route(env_cfg, bench, hubs, root)
        assert (plan, value) == (want["plan"], want["value"])


def cloning_oracle(cfg, benchmark, hubs, root):
    """`oracle_route` with a clone and a step for every branch, the last one
    and every shared model included; returns the plan, the value, the number
    of expanded states and how many of them are a shared action with a model
    other than 0 that does not end the episode, or lie below one. A shared
    action is a planner's, or without a verifier any role's: a sub-query
    executor's, a summarizer's or a thinker's too."""
    base = RoutingEnv(cfg, benchmark.with_noise(False), hubs)
    base.reset(root)
    best = (-np.inf, None)
    expanded = shared = 0
    shared_roles = ({PLANNER} if cfg.n_roles > VERIFIER
                    else {PLANNER, EXECUTOR, SUMMARIZER, THINKER})

    def explore(env, actions, total, below):
        nonlocal best, expanded, shared
        for a in np.flatnonzero(env.legal_mask()).tolist():
            action = cfg.action_of(a)
            child = env.clone()
            reward, done, _ = child.step(action)
            expanded += 1
            a_below = below or (action.role in shared_roles and action.model > 0
                                and not done)
            shared += a_below
            if not done:
                explore(child, actions + [a], total + reward, a_below)
            elif total + reward > best[0]:
                best = (total + reward, actions + [a])

    explore(base, [], 0.0, False)
    return best[1], float(best[0]), expanded, shared


# (pool, env) settings of the separable seed-7 pool, k_models = n_models
ORACLE_CONFIGS = {
    # the oracle benchmark's configuration
    "oracle-search": (dict(width_profile=(2,)),
                      dict(n_models=4, n_roles=3, p_max=1, width=2, max_steps=16,
                           alpha=0.1)),
    # four roles: a thinker shares its child too
    "four-role": (dict(width_profile=(2,)),
                  dict(n_models=2, n_roles=4, p_max=1, width=2, max_steps=8, alpha=0.1)),
    # five roles, p_max 2: thinker, verifier, summarizer and depth-2 trees
    "five-role": (dict(width_profile=(3,)),
                  dict(n_models=2, n_roles=5, p_max=2, width=3, max_steps=6, alpha=0.1)),
    # phase-1 templates: a planner as a state's only role
    "phase1": (dict(width_profile=(3,)),
               dict(n_models=3, n_roles=3, phase="phase1", phase_depth=2,
                    phase_width=2, alpha=0.1)),
    # a step cap at depth
    "truncating": (dict(width_profile=(3,)),
                   dict(n_models=2, n_roles=4, p_max=2, width=3, max_steps=5,
                        alpha=0.05)),
    # binary utility at no cost: ties everywhere, broken by action index
    "binary": (dict(width_profile=(2,)),
               dict(n_models=3, n_roles=3, p_max=2, width=2, max_steps=4, alpha=0.0,
                    utility_mode="binary")),
}


@lru_cache(maxsize=None)
def oracle_config(name):
    """The pool, env config and hubs of one `ORACLE_CONFIGS` entry."""
    spec_kw, env_kw = ORACLE_CONFIGS[name]
    bench = make_benchmark(
        BenchmarkSpec(kind="separable", families=(0, 1, 2), queries_per_family=300,
                      seed=7, **spec_kw),
        k_models=env_kw["n_models"])
    cfg = EnvConfig(**env_kw)
    return bench, cfg, bench.build_hubs(cfg.n_roles)


@pytest.mark.parametrize("name, roots, counts, reads", [
    # 1,608 of the 1,624 states per query are a planner, sub-query executor
    # or summarizer model other than 0 or lie below one; each summarized
    # final answer reads two bound sub-answers
    ("oracle-search", range(4), (1624, 1608), {"done"}),
    ("four-role", range(2), (3374, 3285), {"done"}),
    # the verifier reads its context's quality, so only planners share
    ("five-role", range(2), (13414, 8616), set()),
    # a planner as a state's only role is stepped in place
    ("phase1", range(1), (9840, 9830), {"done"}),
    # truncated leaves score a bound last answer
    ("truncating", range(2), (1898, 1766), {"truncated"}),
    ("binary", range(2), (429, 408), {"truncated"}),
], ids=["oracle-search", "four-role", "five-role", "phase1", "truncating", "binary"])
def test_stepping_the_last_branch_in_place_changes_no_plan(monkeypatch, name, roots,
                                                           counts, reads):
    bench, cfg, hubs = oracle_config(name)
    steps, leaves, scored, bound_reads = [0], [0], Counter(), set()
    memos = []  # keeps each scored state's fact memo, and so its id, alive
    step, pool_rewards, pool = RoutingEnv.step, RoutingEnv.pool_rewards, RoutingEnv.pool

    def counted_step(env, action):
        steps[0] += 1
        return step(env, action)

    def count_pass(env, role):
        leaves[0] += cfg.n_models if any(env.ends(role)) else 0
        # a state's facts memo is its own: clones share it, a step replaces it
        memos.append(env._facts)
        scored[id(env._facts), role] += 1

    def counted_pool_rewards(env, role):
        count_pass(env, role)
        return pool_rewards(env, role)

    def counted_pool(env, role):
        count_pass(env, role)
        record = pool(env, role)
        if record.reads:
            bound_reads.add("done" if record.done else "truncated")
        return record

    for i in roots:
        root = bench.eval_query(i)
        plan, value, expanded, shared = cloning_oracle(cfg, bench, hubs, root)
        monkeypatch.setattr(RoutingEnv, "step", counted_step)
        monkeypatch.setattr(RoutingEnv, "pool_rewards", counted_pool_rewards)
        monkeypatch.setattr(RoutingEnv, "pool", counted_pool)
        steps[0] = leaves[0] = 0
        scored.clear()
        got_plan, got_value = oracle_route(cfg, bench, hubs, root)
        monkeypatch.undo()
        # each expanded state is scored as a leaf or stepped once, in place
        # or on a clone, except the shared models that share model 0's
        # child; terminal actions are never stepped, and each state's role
        # is scored in at most one pass
        assert (got_plan, got_value.hex(), steps[0] + leaves[0]) == \
            (plan, value.hex(), expanded - shared)
        assert max(scored.values()) == 1
        if counts:
            assert (expanded, shared) == counts
        assert shared > 0
    # the pool passes whose utility reads an answer bound by a shared
    # executor, by how the leaf ends; with a verifier no answer is bound
    assert bound_reads == reads


@lru_cache(maxsize=None)
def small_bench(kind, n_models):
    return make_benchmark(
        BenchmarkSpec(kind=kind, families=(0, 1, 2), queries_per_family=300, seed=7,
                      width_profile=(3,)),
        k_models=n_models)


# past this many expanded states a draw is skipped: the cloning oracle steps
# every one of them
PROPERTY_BOUND = 1500


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS), n_models=st.integers(1, 3),
       n_roles=st.integers(3, 5), p_max=st.integers(0, 2), width=st.integers(1, 3),
       max_steps=st.integers(2, 8), alpha=st.sampled_from([0.0, 0.05, 0.1, 1.0]),
       utility_mode=st.sampled_from(["continuous", "binary"]),
       phase=st.sampled_from(["phase1", "phase2"]), query=st.integers(0, 5))
def test_oracle_matches_the_cloning_oracle_on_small_configs(
        kind, n_models, n_roles, p_max, width, max_steps, alpha, utility_mode, phase, query):
    bench = small_bench(kind, n_models)
    cfg = EnvConfig(n_models=n_models, n_roles=n_roles, p_max=p_max, width=width,
                    max_steps=max_steps, alpha=alpha, utility_mode=utility_mode,
                    phase=phase)
    hubs = bench.build_hubs(n_roles)
    root = bench.eval_query(query)
    try:
        plan, value = oracle_route(cfg, bench, hubs, root, bound=PROPERTY_BOUND)
    except RuntimeError as err:
        assume("exceeded" not in str(err))
        raise
    want_plan, want_value, _, _ = cloning_oracle(cfg, bench, hubs, root)
    assert (plan, value.hex()) == (want_plan, want_value.hex())


def test_an_oracle_query_draws_only_the_streams_its_plans_read(monkeypatch):
    """An oracle-search query keys one token stream per distinct (query,
    role, model) call and one decomposition stream per planner step, and no
    noise of any kind: its pool is noise-free. Two calls on one root draw
    the same streams, so nothing one call draws serves the next."""
    bench, cfg, hubs = oracle_config("oracle-search")
    root = bench.eval_query(0)
    labels, det_rng = Counter(), backend.det_rng

    def counted(*parts):
        labels[parts[1]] += 1
        return det_rng(*parts)

    monkeypatch.setattr(backend, "det_rng", counted)
    calls = []
    for _ in range(2):
        labels.clear()
        calls.append((oracle_route(cfg, bench, hubs, root), dict(labels)))
    assert calls[0] == calls[1]
    assert calls[0][1] == {"tokens": 24, "decomp": 1}


def with_other_embeddings(bench, rng):
    """`bench` with every `invoke` outcome's response embedding replaced by
    a vector drawn from `rng`."""
    invoke = bench.invoke

    def replaced(*args, **kwargs):
        out = invoke(*args, **kwargs)
        return dataclasses.replace(
            out, response_embedding=rng.normal(size=out.response_embedding.shape))

    bench.invoke = replaced
    return bench


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["oracle-search", "five-role", "phase1", "truncating"]),
       query=st.integers(0, 5), noise=st.booleans(), data=st.data())
def test_no_reward_reads_a_response_embedding(name, query, noise, data):
    """The premise of the noise-free pool's embeddings, which carry no
    response noise: an episode whose every response embedding is another
    vector takes the same masks, rewards, ends and utility, step by step,
    along random legal action sequences."""
    bench, cfg, hubs = oracle_config(name)
    root = bench.eval_query(query)
    drawn = RoutingEnv(cfg, bench.with_noise(noise), hubs)
    other = RoutingEnv(cfg, with_other_embeddings(bench.with_noise(noise),
                                                  np.random.default_rng(query)), hubs)
    drawn.reset(root)
    other.reset(root)
    while not drawn.finished:
        mask = drawn.legal_mask()
        assert np.array_equal(mask, other.legal_mask())
        action = cfg.action_of(data.draw(st.sampled_from(np.flatnonzero(mask).tolist())))
        (reward, done, info), (o_reward, o_done, o_info) = drawn.step(action), \
            other.step(action)
        assert (reward.hex(), done, drawn.truncated, drawn.utility.hex(), info) == \
            (o_reward.hex(), o_done, other.truncated, other.utility.hex(), o_info)
    assert other.finished
    # the replacement reached every response
    for rid, resp in drawn.workflow.responses.items():
        assert not np.array_equal(resp.embedding, other.workflow.responses[rid].embedding)


# -- the oracle's walk against every path ----------------------------------------------

# A tree spec is a list of entries (rewards, None) for a role that ends the
# episode or (rewards, [one child spec per model]); entry i's model m is
# action 10 * i + m.


def hand_tree(spec) -> tuple:
    """`spec` as an `oracle_search` node, each entry's top its largest
    right-to-left reward sum, as `oracle_route` builds it."""
    entries = []
    for i, (rewards, children) in enumerate(spec):
        if children is None:
            entries.append((10 * i, rewards, None, None, max(rewards)))
            continue
        nodes = [hand_tree(child) for child in children]
        entries.append((10 * i, rewards, nodes, None,
                        max(r + node[0] for r, node in zip(rewards, nodes))))
    return max(e[4] for e in entries), entries


def every_path(spec, actions=(), total=0.0):
    """(actions, left-to-right reward sum) of each path, in walk order."""
    for i, (rewards, children) in enumerate(spec):
        for m, reward in enumerate(rewards):
            if children is None:
                yield list(actions) + [10 * i + m], total + reward
            else:
                yield from every_path(children[m], actions + (10 * i + m,), total + reward)


def brute_force(spec):
    best_actions, best_value = None, -np.inf
    for actions, value in every_path(spec):
        if value > best_value:
            best_actions, best_value = actions, value
    return best_actions, best_value


def spec_rewards(spec):
    for rewards, children in spec:
        yield from rewards
        for child in children or ():
            yield from spec_rewards(child)


def walk(spec, longest=None):
    """`oracle_search` on `spec`, given its longest path unless `longest`."""
    if longest is None:
        longest = max(len(actions) for actions, _ in every_path(spec))
    return oracle_search(hand_tree(spec), longest, max(map(abs, spec_rewards(spec))))


def assert_finds_the_best_path(spec):
    plan, value = walk(spec)
    want_plan, want_value = brute_force(spec)
    assert (plan, value.hex()) == (want_plan, want_value.hex())


def chain(*rewards):
    """One path of one-model entries."""
    spec = [([rewards[-1]], None)]
    for reward in reversed(rewards[:-1]):
        spec = [([reward], [spec])]
    return spec


@pytest.mark.parametrize("spec", [
    # real sums tie at 0.3; float sums 0.30000000000000004, 0.3 and 0.30000000000000004
    [([0.1], [chain(0.2)]), ([0.3], None), ([0.2], [chain(0.1)])],
    [([0.3], None), ([0.1], [chain(0.2)]), ([0.2], [chain(0.1)])],
    [([0.2, 0.1], [chain(0.1), chain(0.2)]), ([0.3, 0.3], None)],
    # exact ties: the first path in walk order wins
    [([0.5, 0.5], None), ([0.25], [chain(0.25)])],
    [([0.25, 0.25], [chain(0.25), chain(0.25)]), ([0.5], None)],
    [([0.0], [chain(0.0, 0.0)]), ([0.0, 0.0], None)],
    # a path that ties the incumbent left to right, its top an ulp short
    [([1.0], None), ([0.1], [[([0.7], None), ([0.2], [chain(0.7)])]])],
], ids=["ulp-first", "ulp-after-exact", "ulp-per-model", "tie-terminal-first",
        "tie-chain-first", "tie-zero", "tie-under-short-top"])
def test_oracle_search_matches_every_path_on_hand_built_trees(spec):
    assert_finds_the_best_path(spec)


def test_oracle_search_slack_covers_a_right_to_left_bound_two_ulps_short():
    # left to right the chain sums to 0.9000000000000001, one ulp above the
    # incumbent 0.9; its top, summed right to left, is 0.8999999999999999
    spec = [([0.9], None), ([0.2], [chain(0.1, 0.3, 0.3)])]
    top, _ = hand_tree(spec[1:])
    assert top < 0.9 < 0.2 + 0.1 + 0.3 + 0.3
    assert walk(spec) == ([10, 0, 0, 0], 0.2 + 0.1 + 0.3 + 0.3)
    # with no slack (a zero path length) the walk would skip the winner
    assert walk(spec, longest=0) == ([0], 0.9)


REWARD = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 1.0, -0.1, -0.3])
ENTRIES, MODELS, ENDS = st.integers(1, 3), st.integers(1, 2), st.booleans()


def draw_spec(draw, depth: int):
    """A tree spec at most `depth` entries deep below its root."""
    spec = []
    for _ in range(draw(ENTRIES)):
        rewards = [draw(REWARD) for _ in range(draw(MODELS))]
        if depth == 0 or draw(ENDS):
            spec.append((rewards, None))
        else:
            spec.append((rewards, [draw_spec(draw, depth - 1) for _ in rewards]))
    return spec


tree_specs = st.composite(lambda draw: draw_spec(draw, 3))


@settings(max_examples=200, deadline=None)
@given(spec=tree_specs())
def test_oracle_search_matches_every_path_on_small_random_trees(spec):
    assert_finds_the_best_path(spec)
