"""Baseline router tests: random, nearest-neighbor replay, exhaustive oracle."""

import io
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from agentroute.backend import BenchmarkSpec, make_benchmark
from agentroute.baselines import (
    KnnRouter,
    KnnStore,
    RandomRouter,
    ScriptedPolicy,
    oracle_route,
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
        idx, logp, value, entropy = router.act(fresh_root_input(), np.zeros(4),
                                               mask, "sample", rng)
        assert mask[idx]
        assert logp == pytest.approx(-np.log(2))
        assert entropy == pytest.approx(np.log(2))
        assert value == 0.0


def test_random_router_greedy_is_first_allowed():
    router = RandomRouter()
    mask = np.array([False, False, True, True])
    idx, _, _, _ = router.act(fresh_root_input(), np.zeros(4), mask, "greedy")
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
    idx, _, _, _ = router.act(fresh_root_input(), np.array([0.0]), mask)
    assert idx == 1
    # step advances: majority at step 1 is action 2
    idx, _, _, _ = router.act(later_step_input(), np.array([0.0]), mask)
    assert idx == 2


def test_knn_router_falls_through_masked_votes():
    store = store_with([([0.0], [4]), ([0.1], [4]), ([0.2], [1])])
    router = KnnRouter(store, k=3)
    mask = np.ones(6, dtype=bool)
    mask[4] = False
    idx, _, _, _ = router.act(fresh_root_input(), np.array([0.0]), mask)
    assert idx == 1


def test_knn_router_first_allowed_when_no_votes():
    router = KnnRouter(KnnStore(), k=3)
    mask = np.array([False, False, True, True])
    idx, _, _, _ = router.act(fresh_root_input(), np.zeros(1), mask)
    assert idx == 2


def test_knn_router_re_picks_neighbors_per_episode():
    store = store_with([([0.0], [1]), ([10.0], [2])])
    router = KnnRouter(store, k=1)
    mask = np.ones(6, dtype=bool)
    idx, _, _, _ = router.act(fresh_root_input(), np.array([0.0]), mask)
    assert idx == 1
    idx, _, _, _ = router.act(fresh_root_input(), np.array([10.0]), mask)
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
    """`oracle_route` with a clone for every branch, the last one included;
    returns the plan, the value and the number of expanded states."""
    base = RoutingEnv(cfg, benchmark.with_noise(False), hubs)
    base.reset(root)
    best = (-np.inf, None)
    expanded = 0

    def explore(env, actions, total):
        nonlocal best, expanded
        for a in np.flatnonzero(env.legal_mask()).tolist():
            expanded += 1
            child = env.clone()
            reward, done, _ = child.step(cfg.action_of(a))
            if not done:
                explore(child, actions + [a], total + reward)
            elif total + reward > best[0]:
                best = (total + reward, actions + [a])

    explore(base, [], 0.0)
    return best[1], float(best[0]), expanded


@pytest.mark.parametrize("spec_kw, env_kw, roots", [
    # the oracle benchmark's configuration
    (dict(width_profile=(2,)), dict(n_models=4, n_roles=3, p_max=1, width=2,
                                    max_steps=16, alpha=0.1), range(4)),
    # five roles, p_max 2: thinker, verifier, summarizer and depth-2 trees
    (dict(width_profile=(3,)), dict(n_models=2, n_roles=5, p_max=2, width=3,
                                    max_steps=6, alpha=0.1), range(2)),
], ids=["oracle-search", "five-role"])
def test_stepping_the_last_branch_in_place_changes_no_plan(monkeypatch, spec_kw,
                                                           env_kw, roots):
    bench = make_benchmark(
        BenchmarkSpec(kind="separable", families=(0, 1, 2), queries_per_family=300,
                      seed=7, **spec_kw),
        k_models=env_kw["n_models"])
    cfg = EnvConfig(**env_kw)
    hubs = bench.build_hubs(cfg.n_roles)
    steps, leaves, scored = [0], [0], Counter()
    memos = []  # keeps each scored state's fact memo, and so its id, alive
    step, leaf_rewards = RoutingEnv.step, RoutingEnv.leaf_rewards

    def counted_step(env, action):
        steps[0] += 1
        return step(env, action)

    def counted_leaf_rewards(env, role):
        rewards = leaf_rewards(env, role)
        leaves[0] += 0 if rewards is None else len(rewards)
        # a state's facts memo is its own: clones share it, a step replaces it
        memos.append(env._facts)
        scored[id(env._facts), role] += 1
        return rewards

    for i in roots:
        root = bench.eval_query(i)
        plan, value, expanded = cloning_oracle(cfg, bench, hubs, root)
        monkeypatch.setattr(RoutingEnv, "step", counted_step)
        monkeypatch.setattr(RoutingEnv, "leaf_rewards", counted_leaf_rewards)
        steps[0] = leaves[0] = 0
        scored.clear()
        got_plan, got_value = oracle_route(cfg, bench, hubs, root)
        monkeypatch.undo()
        # each expanded state is scored as a leaf or stepped once, in place
        # or on a clone; terminal actions are never stepped, and each
        # state's role is scored in one pass
        assert (got_plan, got_value.hex(), steps[0] + leaves[0]) == \
            (plan, value.hex(), expanded)
        assert steps[0] < expanded
        assert max(scored.values()) == 1
