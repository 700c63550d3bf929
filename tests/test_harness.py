"""Harness tests: protocols, probes, injection, aggregation, CSV emission."""

import csv
import itertools

import numpy as np
import pytest

from agentroute.backend import BenchmarkSpec, EXECUTOR, make_benchmark
from agentroute.baselines import KnnRouter, KnnStore, RandomRouter, ScriptedPolicy
from agentroute import harness
from agentroute import tensor as T
from agentroute.config import RunConfig
from agentroute.encoder import EncoderDims, RoutingPolicy, init_params
from agentroute.env import EnvConfig, RoutingEnv, absorb_episode
from agentroute.harness import (
    REPORT_COLUMNS,
    SWEEP_COLUMNS,
    EvalReport,
    emit_report,
    evaluate,
    inject_role_interactions,
    new_role_eval,
    pareto_sweep,
    report_rows,
    run_ablation,
    unseen_llm_eval,
)
from agentroute.memory import HeteroGraph, serialize
from agentroute.ppo import TrainConfig, write_csv


def make_bench(kind="uniform", families=2, seed=8, k_models=2):
    return make_benchmark(
        BenchmarkSpec(kind=kind, families=tuple(f"fam{i}" for i in range(families)),
                      queries_per_family=30, width_profile=(1, 2), seed=seed),
        k_models=k_models)


def trained_like_history(bench, env_cfg, episodes=3):
    """History grown by absorbing a few scripted episodes."""
    hubs = bench.build_hubs(env_cfg.n_roles)
    history = HeteroGraph("history", hubs, capacity=256)
    for i in range(episodes):
        env = RoutingEnv(env_cfg, bench, hubs)
        ep = env.run_episode(bench.train_query(i), RandomRouter(), mode="greedy")
        absorb_episode(history, ep)
    return history


def tiny_policy(variant="full", seed=0):
    return init_params(EncoderDims(64, 64, 64, 8), variant, seed=seed)


CFG = EnvConfig(n_models=2, p_max=1)


# -- evaluate ------------------------------------------------------------------------


def test_record_dollars_sum_to_the_episode_cost():
    bench = make_bench()
    env = RoutingEnv(EnvConfig(n_models=2, p_max=1, alpha=0.1), bench, bench.build_hubs(3))
    for seed in range(20):  # an episode of several paid steps
        ep = env.run_episode(bench.train_query(1), RandomRouter(), mode="sample",
                             rng=np.random.default_rng(seed))
        if ep.length >= 3:
            break
    assert ep.length >= 3
    assert sum(rec.dollars for rec in ep.records) == ep.dollars


def test_an_empty_evaluation_is_rejected(monkeypatch):
    bench = make_bench()
    for n in (0, -2):
        with pytest.raises(ValueError, match="at least one episode"):
            evaluate(RandomRouter(), bench, CFG, n)
    # sweeps and ablations reject it before they train anything
    monkeypatch.setattr(harness, "train", None)
    tc = TrainConfig(hidden=8, episodes_per_update=4, max_episodes=8)
    with pytest.raises(ValueError, match="at least one episode"):
        pareto_sweep(bench, CFG, tc, [0.0], eval_episodes=0)
    with pytest.raises(ValueError, match="at least one episode"):
        run_ablation(bench, CFG, tc, eval_episodes=0)


def test_evaluate_validates_protocol():
    bench = make_bench()
    with pytest.raises(ValueError):
        evaluate(RandomRouter(), bench, CFG, 1, protocol="abductive")
    with pytest.raises(ValueError):
        evaluate(RandomRouter(), bench, CFG, 1, protocol="transductive")


def test_inductive_ignores_persisted_history(tmp_path):
    # a corrupt file at history_path would explode any attempt to read it
    bad = tmp_path / "history.json"
    bad.write_bytes(b"\x00 not a graph")
    bench = make_bench()
    report = evaluate(RandomRouter(), bench, CFG, 2, protocol="inductive",
                      history_path=bad)
    assert len(report.rows) == 2
    missing = tmp_path / "nowhere" / "history.json"
    report = evaluate(RandomRouter(), bench, CFG, 2, protocol="inductive",
                      history_path=missing)
    assert len(report.rows) == 2


def test_transductive_resumes_from_graph_or_file(tmp_path):
    bench = make_bench()
    history = trained_like_history(bench, CFG)
    before = serialize(history)
    r1 = evaluate(RandomRouter(), bench, CFG, 2, protocol="transductive",
                  history=history, absorb=False)
    assert serialize(history) == before
    path = tmp_path / "history.json"
    path.write_bytes(serialize(trained_like_history(bench, CFG)))
    r2 = evaluate(RandomRouter(), bench, CFG, 2, protocol="transductive",
                  history_path=path)
    assert [r["actions"] for r in r1.rows] == [r["actions"] for r in r2.rows]


def test_evaluate_hub_mismatch_rejected():
    bench = make_bench()
    history = trained_like_history(bench, CFG)
    with pytest.raises(ValueError):
        evaluate(RandomRouter(), bench, EnvConfig(n_models=2, n_roles=5), 1,
                 protocol="transductive", history=history)


def test_evaluate_rows_and_determinism():
    bench = make_bench()
    a = evaluate(RandomRouter(), bench, CFG, 4, protocol="inductive")
    b = evaluate(RandomRouter(), bench, CFG, 4, protocol="inductive")
    assert a.rows == b.rows
    for i, row in enumerate(a.rows):
        assert row["episode"] == i
        assert row["family"] == i % bench.n_families  # held-out index order
        assert 0.0 <= row["utility"] <= 1.0
        assert row["llm_calls"] == len(row["actions"])
    assert a.mean_utility == pytest.approx(
        np.mean([r["utility"] for r in a.rows]))


class RecordingRouter(RandomRouter):
    """RandomRouter that remembers the history size at every prepare()."""

    def __init__(self):
        self.seen_queries = []

    def prepare(self, hist_input) -> None:
        self.seen_queries.append(hist_input.n_queries)


def test_evaluate_absorb_grows_memory():
    # absorb grows the evaluation's own memory, never the caller's graph
    bench = make_bench()
    history = trained_like_history(bench, CFG)
    before = serialize(history)
    router = RecordingRouter()
    first = evaluate(router, bench, CFG, 3, protocol="transductive",
                     history=history, absorb=True)
    assert serialize(history) == before
    assert len(router.seen_queries) == 3
    assert router.seen_queries[0] < router.seen_queries[1] < router.seen_queries[2]
    second = evaluate(RandomRouter(), bench, CFG, 3, protocol="transductive",
                      history=history, absorb=True)
    assert first.rows == second.rows


def test_evaluate_with_learned_policy_smoke():
    bench = make_bench()
    policy = RoutingPolicy(tiny_policy(), "full")
    report = evaluate(policy, bench, CFG, 3, protocol="inductive")
    assert len(report.rows) == 3
    assert report.mean_calls >= 1.0


def test_evaluation_builds_no_stream_and_ignores_the_seed(monkeypatch):
    # greedy decoding reads no rng, so an evaluation stream would go unread
    def no_stream(*key):
        raise AssertionError(f"evaluation built a stream: {key}")

    monkeypatch.setattr(harness, "det_rng", no_stream, raising=False)
    bench = make_bench()
    history = trained_like_history(bench, CFG)
    for policy in (RandomRouter(), RoutingPolicy(tiny_policy(), "full")):
        for protocol in ("inductive", "transductive"):
            rows = [evaluate(policy, bench, CFG, 3, seed=seed, protocol=protocol,
                             history=history).rows for seed in (0, 12345)]
            assert rows[0] == rows[1]


# -- aggregation and emission -----------------------------------------------------------


def fabricated_report():
    rows = [
        {"episode": 0, "family": 0, "utility": 0.8, "dollars": 0.001,
         "scaled_cost": 1.0, "llm_calls": 2, "truncated": False,
         "actions": [(1, 0)], "roles": [1]},
        {"episode": 1, "family": 1, "utility": 0.4, "dollars": 0.003,
         "scaled_cost": 3.0, "llm_calls": 4, "truncated": False,
         "actions": [(1, 1)], "roles": [1]},
    ]
    return EvalReport(protocol="inductive", rows=rows)


def test_report_rows_aggregate_math():
    rows = report_rows(fabricated_report(), variant="full", phase="phase2",
                       alpha=0.1, seed=3)
    assert [r["family"] for r in rows] == ["all", 0, 1]
    top = rows[0]
    assert top["acc"] == pytest.approx(0.6)
    assert top["cost"] == pytest.approx(0.002)
    assert top["avg_llm_calls"] == pytest.approx(3.0)
    assert top["episodes"] == 2
    assert rows[1]["acc"] == pytest.approx(0.8)
    for r in rows:
        assert set(r) == set(REPORT_COLUMNS)


def test_emit_report_and_float_roundtrip(tmp_path):
    rows = report_rows(fabricated_report(), variant="full", phase="phase2",
                       alpha=0.1, seed=3)
    path = tmp_path / "report.csv"
    emit_report(path, rows)
    with open(path) as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == list(REPORT_COLUMNS)
    # repr-encoded floats parse back to the exact binary value
    assert float(parsed[1][6 + 1]) == rows[0]["acc"]


def test_write_csv_is_atomic_overwrite(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b"), [{"a": 1, "b": 0.1}])
    write_csv(path, ("a", "b"), [{"a": 2, "b": 0.2}])
    with open(path) as fh:
        parsed = list(csv.reader(fh))
    assert parsed == [["a", "b"], ["2", repr(0.2)]]
    assert not path.with_suffix(".csv.tmp").exists()


def test_a_failed_artifact_write_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    unserializable = np.array([object()])
    knn = KnnStore()
    knn.add(np.zeros(1), [0])
    knn.embeddings[0] = unserializable  # past add's checks
    failing = {
        "params": lambda: T.save_params(path, {"w": np.zeros(2)},
                                        meta={"x": object()}),
        "knn": lambda: knn.save(path),
        "csv": lambda: write_csv(path, ("a", "b"), [{"a": 1}]),
        "config": lambda: RunConfig.from_dict({}).dump_resolved(path),
    }
    monkeypatch.setattr(RunConfig, "resolved", lambda self: {"x": object()})
    for name, write in failing.items():
        path.write_bytes(b"old bytes")
        with pytest.raises((TypeError, KeyError)):
            write()
        assert path.read_bytes() == b"old bytes", name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"], name


def test_every_router_acts_through_the_two_value_contract():
    bench = make_bench()
    env_cfg = EnvConfig(n_models=2, p_max=1)
    hubs = bench.build_hubs(env_cfg.n_roles)
    root = bench.eval_query(0)
    plan = [r.action_index for r in RoutingEnv(env_cfg, bench, hubs)
            .run_episode(root, RandomRouter(), mode="greedy").records]
    store = KnnStore()
    store.add(root.embedding, plan)
    params = init_params(EncoderDims(64, 64, 64, 8), "full")
    routers = {
        "policy": lambda: RoutingPolicy(params, "full"),
        "random": RandomRouter,
        "knn": lambda: KnnRouter(store, k=1),
        "scripted": lambda: ScriptedPolicy(plan),
    }
    for (name, make), mode in itertools.product(routers.items(),
                                                ("greedy", "sample")):
        router, outs = make(), []

        def act(wf_input, q_emb, mask, mode, rng, inner=router.act):
            out = inner(wf_input, q_emb, mask, mode, rng)
            outs.append((out, mask))
            return out

        router.act = act
        router.prepare(HeteroGraph("history", hubs, capacity=64).hub_state())
        ep = RoutingEnv(env_cfg, bench, hubs).run_episode(
            root, router, mode, np.random.default_rng(0))
        assert ep.length == len(outs) > 0, name
        for rec, ((idx, value), mask) in zip(ep.records, outs):
            assert mask[idx] and rec.action_index == idx, name
            assert isinstance(value, float) and rec.value == value, name
            for gone in ("logp", "entropy", "step", "done"):
                assert not hasattr(rec, gone), name


# -- sweeps and ablations ----------------------------------------------------------------


def sweep_train_cfg():
    return TrainConfig(hidden=8, episodes_per_update=4, max_episodes=8,
                       epochs=2)


def test_pareto_sweep_rows_and_csv(tmp_path):
    bench = make_bench()
    out = tmp_path / "sweep.csv"
    rows = pareto_sweep(bench, CFG, sweep_train_cfg(), alphas=[0.0, 0.5],
                        seeds=(0,), eval_episodes=3, out_csv=out)
    assert [r["alpha"] for r in rows] == [0.0, 0.5]
    assert all(set(r) == set(SWEEP_COLUMNS) for r in rows)
    with open(out) as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == list(SWEEP_COLUMNS)
    assert len(parsed) == 3


def test_pareto_sweep_warns_on_duplicate_alpha():
    bench = make_bench()
    with pytest.warns(UserWarning):
        rows = pareto_sweep(bench, CFG, sweep_train_cfg(), alphas=[0.0, 0.0],
                            seeds=(0,), eval_episodes=2)
    assert len(rows) == 1


def test_run_ablation_covers_requested_variants():
    bench = make_bench()
    rows = run_ablation(bench, CFG, sweep_train_cfg(),
                        variants=("full", "no_history"), seeds=(0,),
                        eval_episodes=3)
    assert [r["variant"] for r in rows] == ["full", "no_history"]
    for r in rows:
        assert r["episodes"] == 8
        assert 0.0 <= r["acc"] <= 1.0


# -- transfer probes -----------------------------------------------------------------------


def test_inject_role_interactions_counts_and_structure():
    bench = make_bench(families=2, k_models=2)
    history = HeteroGraph("history", bench.build_hubs(5), capacity=1024)
    injected = inject_role_interactions(bench, history, n_queries=4)
    assert injected == 20  # five roles touched per scripted query
    assert len(history.queries) == 4
    assert len(history.responses) == 20
    roles_seen = {r.produced_by[0] for r in history.responses.values()}
    assert roles_seen == {0, 1, 2, 3, 4}
    # every role hub that appeared has live statistics
    for r in range(5):
        assert any(history.hubs.get(r, m).cost_ema > 0.0 for m in range(2))
    # models rotate with the query index, so both models appear
    models_seen = {r.produced_by[1] for r in history.responses.values()}
    assert models_seen == {0, 1}
    # the executor response resolves each scripted query
    for q in history.queries.values():
        assert q.answer_id is not None
        assert history.responses[q.answer_id].produced_by[0] == EXECUTOR


def test_inject_role_interactions_respects_capacity():
    bench = make_bench()
    history = HeteroGraph("history", bench.build_hubs(5), capacity=12)
    inject_role_interactions(bench, history, n_queries=5)
    assert history.interaction_count <= 12


def test_new_role_eval_requires_base_roles():
    bench = make_bench()
    history = trained_like_history(bench, CFG)
    with pytest.raises(ValueError):
        new_role_eval(tiny_policy(), "full", 1.0, bench,
                      EnvConfig(n_models=2, n_roles=5), history)


def test_new_role_eval_phases():
    bench = make_bench()
    history = trained_like_history(bench, CFG)
    out = new_role_eval(tiny_policy(), "full", 1.0, bench, CFG, history,
                        inject_queries=2, eval_episodes=3)
    assert set(out) == {"base", "zero_shot", "few_shot", "injected"}
    assert out["injected"] == 10
    assert len(out["base"].rows) == 3
    # the wider action space can only add new roles to the base three
    base_roles = {r for row in out["base"].rows for r in row["roles"]}
    assert base_roles <= {0, 1, 2}
    # the original memory is untouched by either probe phase
    assert all(not k.startswith("ep9") for k in history.queries)


def test_unseen_llm_eval_memory_free_mode():
    bench = make_bench(kind="separable", families=2)
    out = unseen_llm_eval(tiny_policy(), "full", 1.0, bench, CFG, None,
                          level=0.9, eval_episodes=3, seed=1)
    assert set(out) == {"base", "extended", "changed_fraction",
                        "utility_lift", "probe_name"}
    assert 0.0 <= out["changed_fraction"] <= 1.0
    assert len(out["extended"].rows) == 3
    # the probe joins as the last model index
    ext_models = {m for row in out["extended"].rows
                  for _, m in row["actions"]}
    assert ext_models <= {0, 1, 2}


def test_unseen_llm_eval_transductive_mode():
    bench = make_bench(kind="separable", families=2)
    history = trained_like_history(bench, CFG)
    out = unseen_llm_eval(tiny_policy(), "full", 1.0, bench, CFG, history,
                          level=0.9, eval_episodes=2, seed=1)
    assert len(out["base"].rows) == 2
    # growing the pool must not mutate the original history hub set
    assert history.hubs.n_models == 2
