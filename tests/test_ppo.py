"""Trainer tests: GAE oracle, frozen-window ratios, determinism, artifacts."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agentroute
import tape as T
from agentroute.backend import BenchmarkSpec, make_benchmark
from agentroute.encoder import EncoderDims, RoutingPolicy, init_params
from agentroute.env import Episode, EnvConfig, RoutingEnv, StepRecord, absorb_episode
from agentroute.memory import HeteroGraph
from agentroute.ppo import (
    CURVE_COLUMNS,
    TrainConfig,
    collect_window,
    compute_gae,
    load_policy,
    normalize,
    ppo_update,
    train,
    write_artifacts,
)
from agentroute.tensor import Adam, clip_global_norm
from tape import Tensor, encoder, entropy_of, leaves, logprob_of
from test_encoder import random_input


def small_bench(seed=6):
    return make_benchmark(
        BenchmarkSpec(kind="uniform", families=("a", "b"),
                      queries_per_family=50, width_profile=(1, 2), seed=seed),
        k_models=2)


def small_cfg(**kw):
    base = dict(seed=0, hidden=8, episodes_per_update=4, max_episodes=8,
                epochs=2, history_capacity=64)
    base.update(kw)
    return TrainConfig(**base)


def fake_record(reward, value):
    return StepRecord(wf_input=None, query_embedding=None, mask=None,
                      action_index=0, value=value, reward=reward, role=1, model=0,
                      quality=None, dollars=0.0, scaled_cost=0.0,
                      tokens_in=0, tokens_out=0, node_id="q")


def fake_episode(rewards, values):
    recs = [fake_record(r, v) for r, v in zip(rewards, values)]
    return Episode(records=recs, utility=0.0, truncated=False, family=0,
                   workflow=None)


# -- GAE ---------------------------------------------------------------------------


def test_gae_hand_computed():
    # gamma=0.5, lam=0.5, rewards [1, 2], values [0.5, 0.25]:
    # t1: delta = 2 - 0.25 = 1.75, adv = 1.75
    # t0: delta = 1 + 0.5*0.25 - 0.5 = 0.625, adv = 0.625 + 0.25*1.75 = 1.0625
    ep = fake_episode([1.0, 2.0], [0.5, 0.25])
    adv, ret = compute_gae([ep], gamma=0.5, lam=0.5)
    assert np.allclose(adv, [1.0625, 1.75], atol=1e-12)
    assert np.allclose(ret, [1.5625, 2.0], atol=1e-12)


def test_gae_flattens_in_episode_order():
    eps = [fake_episode([1.0], [0.0]), fake_episode([2.0, 0.0], [0.0, 0.0])]
    adv, ret = compute_gae(eps, gamma=1.0, lam=1.0)
    assert adv.shape == (3,)
    assert adv[0] == 1.0
    assert np.allclose(ret, adv)  # zero values make returns equal advantages


def test_gae_lambda_zero_is_td_error():
    ep = fake_episode([1.0, 1.0], [0.2, 0.4])
    adv, _ = compute_gae([ep], gamma=0.9, lam=0.0)
    assert adv[0] == pytest.approx(1.0 + 0.9 * 0.4 - 0.2)
    assert adv[1] == pytest.approx(1.0 - 0.4)


def test_normalize_standardizes():
    x = np.array([1.0, 2.0, 3.0, 10.0])
    out = normalize(x)
    assert out.mean() == pytest.approx(0.0, abs=1e-9)
    assert out.std() == pytest.approx(1.0, rel=1e-6)


# -- config ------------------------------------------------------------------------


def test_train_config_validation():
    inf, nan = float("inf"), float("nan")
    for key in ("beta", "init_scale", "policy_lr", "value_lr", "value_coef",
                "entropy_coef"):
        for bad in (nan, inf, -inf):
            with pytest.raises(ValueError, match=key):
                TrainConfig(**{key: bad})
    for kw in (dict(workers=0), dict(epochs=0), dict(gamma=0.0),
               dict(gamma=1.5), dict(episodes_per_update=0),
               dict(max_episodes=0), dict(hidden=0), dict(policy_lr=-1.0),
               dict(policy_lr=0.0), dict(value_lr=0.0), dict(clip_eps=0.0),
               dict(grad_clip=0.0), dict(grad_clip=float("nan")),
               dict(gae_lambda=-0.1), dict(gae_lambda=1.5),
               dict(running_decay=1.0), dict(running_decay=-0.1),
               dict(hub_decay=1.5), dict(hub_decay=1.0),
               dict(value_coef=-0.5), dict(entropy_coef=-0.01)):
        with pytest.raises(ValueError):
            TrainConfig(**kw)
    # the edges of each range are accepted
    TrainConfig(gae_lambda=0.0, running_decay=0.0, hub_decay=0.0,
                value_coef=0.0, entropy_coef=0.0)
    TrainConfig(gae_lambda=1.0)


def test_pool_mismatch_rejected():
    bench = small_bench()
    with pytest.raises(ValueError):
        train(bench, EnvConfig(n_models=3), small_cfg())


# -- frozen windows ------------------------------------------------------------------


def collected_window(beta=1.0, count=3):
    """Parameters, frozen history and one window of rollouts with them."""
    bench = small_bench()
    env_cfg = EnvConfig(n_models=2, p_max=1)
    hubs = bench.build_hubs(3)
    hist_input = HeteroGraph("history", hubs, capacity=64).freeze()
    params = init_params(EncoderDims(64, 64, 64, 8), "full", seed=1)
    policy = RoutingPolicy(params, "full", beta)
    policy.prepare(hist_input)
    episodes = collect_window(bench, env_cfg, hubs, policy, update=0,
                              first_episode=0, count=count, seed=0)
    return params, hist_input, episodes


def run_update(params, hist_input, episodes, **kw):
    cfg = small_cfg(**kw)
    advantages, returns = compute_gae(episodes, cfg.gamma, cfg.gae_lambda)
    advantages = normalize(advantages)
    policy_opt = Adam({k: p for k, p in params.items()
                       if not k.startswith("value.")}, lr=cfg.policy_lr)
    value_opt = Adam({k: p for k, p in params.items()
                      if k.startswith("value.")}, lr=cfg.value_lr)
    stats = plain_ppo_update(params, policy_opt, value_opt, episodes, advantages,
                             returns, hist_input, cfg, update=0)
    return stats, advantages


def test_first_epoch_ratios_are_exactly_one_in_the_batched_update():
    # with every ratio exactly 1 the clipped surrogate is the advantage itself
    params, hist_input, episodes = collected_window(count=4)
    assert sum(len(ep.records) for ep in episodes) > len(episodes)
    stats, advantages = run_update(params, hist_input, episodes, epochs=1)
    n = advantages.size
    assert stats["policy_loss"] == (-1.0 / n) * np.sum(advantages)


def test_beta_zero_update_leaves_message_weights_alone():
    params, hist_input, episodes = collected_window(beta=0.0)
    before = dict(params)
    run_update(params, hist_input, episodes, beta=0.0)
    for k in ("his.W_q", "his.W_r", "loc.W_q", "loc.W_r"):  # never rebound
        assert params[k] is before[k], k
    for k in ("his.W_m", "loc.W_m", "fuse.W", "value.W1"):
        assert not np.array_equal(params[k], before[k]), k


def tape_ppo_update(params, policy_opt, value_opt, episodes, advantages,
                    returns, hist_input, cfg, update):
    """The update on the tape: `encoder` on fresh leaves of the weights, the
    loss as tape ops and `T.backward`, then the shipped clip and Adam steps
    on the leaves' gradients; the reference that `ppo_update` must equal bit
    for bit."""
    records = [rec for ep in episodes for rec in ep.records]
    n = len(records)
    wf_inputs = [rec.wf_input for rec in records]
    queries = np.stack([rec.query_embedding for rec in records])
    masks = np.stack([rec.mask for rec in records])
    actions = np.asarray([rec.action_index for rec in records])
    adv = Tensor(advantages)
    ret = Tensor(returns)
    old_logp = None
    stats = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0}
    for epoch in range(cfg.epochs):
        weights = leaves(params)
        probs, values = encoder(weights, cfg.variant, cfg.beta, hist_input,
                                wf_inputs, queries, masks)
        logp = logprob_of(probs, actions)
        if old_logp is None:  # detached: first-epoch ratios are exactly 1
            old_logp = Tensor(logp.data)
        ratio = T.exp(T.sub(logp, old_logp))
        clipped = T.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
        surr = T.minimum(T.mul(ratio, adv), T.mul(clipped, adv))
        err = T.sub(values, ret)
        policy_loss = T.scale(T.total_sum(surr), -1.0 / n)
        value_loss = T.scale(T.total_sum(T.mul(err, err)), 1.0 / n)
        entropy = T.scale(entropy_of(probs), 1.0 / n)
        loss = T.add(T.add(policy_loss, T.scale(value_loss, cfg.value_coef)),
                     T.scale(entropy, -cfg.entropy_coef))
        if not np.isfinite(loss.data):
            raise RuntimeError(
                f"non-finite loss at update {update} epoch {epoch}: "
                f"policy={policy_loss.data!r} value={value_loss.data!r} "
                f"entropy={entropy.data!r} steps={n}")
        T.backward(loss)
        grads = {k: w.grad for k, w in weights.items()}
        clip_global_norm(grads, cfg.grad_clip)
        policy_opt.step(params, grads)
        value_opt.step(params, grads)
        stats = {"policy_loss": float(policy_loss.data),
                 "value_loss": float(value_loss.data),
                 "entropy": float(entropy.data)}
    return stats


def plain_ppo_update(params, policy_opt, value_opt, episodes, advantages,
                     returns, hist_input, cfg, update):
    """`ppo_update` on the tape update's arguments: handed a policy built from
    `params` and prepared on `hist_input`, as `train` hands it the one that
    collected the window."""
    policy = RoutingPolicy(params, cfg.variant, cfg.beta)
    policy.prepare(hist_input)
    return ppo_update(params, policy_opt, value_opt, episodes, advantages, returns,
                      policy, cfg, update)


def random_window(rng, d, n_hubs, filled_history, responses, n_points):
    """A history and one episode of n_points random decision points on it,
    with random advantages and returns."""
    hist = (random_input(rng, d, n_hubs, 3, 2, 14) if filled_history
            else random_input(rng, d, n_hubs, 0, 0, 0))
    records = []
    for _ in range(n_points):
        wf = random_input(rng, d, n_hubs, int(rng.integers(1, 4)),
                          int(rng.integers(1, 3)) if responses else 0,
                          int(rng.integers(0, 12)))
        mask = rng.uniform(size=n_hubs) < 0.5
        mask[rng.integers(0, n_hubs)] = True
        records.append(StepRecord(
            wf_input=wf, query_embedding=rng.normal(size=d), mask=mask,
            action_index=int(rng.choice(np.flatnonzero(mask))), value=0.0,
            reward=0.0, role=0, model=0, quality=None, dollars=0.0,
            scaled_cost=0.0, tokens_in=0, tokens_out=0, node_id="q"))
    episodes = [Episode(records=records, utility=0.0, truncated=False,
                        family=0, workflow=None)]
    return hist, episodes, rng.normal(size=n_points), rng.normal(size=n_points)


def update_bits(update, dims, hist, episodes, advantages, returns, cfg):
    """Stats, weight bytes and both Adams' moment bytes after one update
    from fresh parameters."""
    params = init_params(dims, cfg.variant, seed=3)
    groups = [{k: p for k, p in params.items() if k.startswith("value.") == v}
              for v in (False, True)]
    opts = (Adam(groups[0], lr=cfg.policy_lr), Adam(groups[1], lr=cfg.value_lr))
    stats = update(params, *opts, episodes, advantages, returns, hist, cfg, 0)
    return ({k: float(v).hex() for k, v in stats.items()},
            {k: p.tobytes() for k, p in params.items()},
            [{k: (o.m[k].tobytes(), o.v[k].tobytes()) for k in o.m} for o in opts])


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["full", "homo", "hetero"]), st.sampled_from([0.0, 0.7, 1.0]),
       st.booleans(), st.booleans(), st.integers(1, 12), st.integers(1, 4),
       st.sampled_from([(4, 6, 3), (9, 10, 17)]), st.integers(0, 2**32 - 1))
def test_update_is_the_tape_update_bit_for_bit(variant, beta, filled_history,
                                               responses, n_points, epochs,
                                               sizes, seed):
    """`ppo_update` leaves the weights, both Adams' moments and the stats the
    tape's update leaves, bit for bit."""
    d, n_hubs, hidden = sizes
    dims = EncoderDims(d_q=d, d_r=d, d_hub=d, hidden=hidden)
    window = random_window(np.random.default_rng(seed), d, n_hubs,
                           filled_history, responses, n_points)
    cfg = small_cfg(variant=variant, beta=beta, epochs=epochs, hidden=hidden,
                    policy_lr=0.05, value_lr=0.05)
    want = update_bits(tape_ppo_update, dims, *window, cfg)
    assert update_bits(plain_ppo_update, dims, *window, cfg) == want


@pytest.mark.parametrize("variant", ["full", "homo", "hetero"])
def test_update_on_collected_windows_is_the_tape_update(variant):
    """The same on rollouts of the environment over a filled history."""
    bench = small_bench()
    hubs = bench.build_hubs(3)
    history = HeteroGraph("history", hubs, capacity=64)
    dims = EncoderDims(64, 64, 64, 8)
    policy = RoutingPolicy(init_params(dims, variant, seed=1), variant, 1.0)
    policy.prepare(history.hub_state())
    for ep in collect_window(bench, EnvConfig(n_models=2, p_max=1), hubs, policy,
                             update=0, first_episode=0, count=3, seed=0):
        absorb_episode(history, ep)
    policy.prepare(history.hub_state())
    episodes = collect_window(bench, EnvConfig(n_models=2, p_max=1), hubs, policy,
                              update=1, first_episode=3, count=4, seed=0)
    cfg = small_cfg(variant=variant, epochs=4)
    advantages, returns = compute_gae(episodes, cfg.gamma, cfg.gae_lambda)
    window = (history.hub_state(), episodes, normalize(advantages), returns)
    assert update_bits(plain_ppo_update, dims, *window, cfg) == \
        update_bits(tape_ppo_update, dims, *window, cfg)


def test_first_epoch_runs_the_given_policy():
    """`ppo_update` runs the policy it is handed in its first epoch, and
    prepares one policy per later epoch, on that policy's history."""
    dims = EncoderDims(d_q=9, d_r=9, d_hub=9, hidden=17)
    window = random_window(np.random.default_rng(5), 9, 10, True, True, 7)
    cfg = small_cfg(epochs=3, hidden=17)
    prepared, prepare = [], RoutingPolicy.prepare

    def counted(policy, hist_input):
        prepared.append(hist_input)
        prepare(policy, hist_input)

    with mock.patch.object(RoutingPolicy, "prepare", counted):
        update_bits(plain_ppo_update, dims, *window, cfg)
    # the handed policy's, then one per later epoch
    assert len(prepared) == cfg.epochs and all(h is window[0] for h in prepared)


def test_non_finite_loss_error_is_the_tape_update_error():
    rng = np.random.default_rng(0)
    dims = EncoderDims(4, 4, 4, 3)
    hist, episodes, advantages, returns = random_window(rng, 4, 6, True, True, 3)
    returns[1] = np.inf
    cfg = small_cfg(hidden=3)
    messages = []
    for update in (tape_ppo_update, plain_ppo_update):
        with pytest.raises(RuntimeError, match="non-finite loss") as exc:
            update_bits(update, dims, hist, episodes, advantages, returns, cfg)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "value=array(inf)" in messages[1]


# -- training loop -------------------------------------------------------------------


def test_train_smoke():
    bench = small_bench()
    res = train(bench, EnvConfig(n_models=2, p_max=1), small_cfg())
    assert res.episodes_seen == 8
    assert len(res.curve) == 2
    for row in res.curve:
        assert set(row) == set(CURVE_COLUMNS)
    assert res.history is not None and res.history.interaction_count > 0
    assert res.meta["variant"] == "full"
    assert res.meta["models"] == [p.name for p in bench.profiles]
    assert set(res.best_params) == set(res.params)


def test_train_is_deterministic():
    bench = small_bench()
    a = train(bench, EnvConfig(n_models=2, p_max=1), small_cfg())
    b = train(bench, EnvConfig(n_models=2, p_max=1), small_cfg())
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])
    assert a.curve == b.curve


def test_train_worker_count_changes_nothing():
    bench = small_bench()
    a = train(bench, EnvConfig(n_models=2, p_max=1), small_cfg(workers=1))
    b = train(bench, EnvConfig(n_models=2, p_max=1), small_cfg(workers=4))
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])
    assert a.curve == b.curve


def test_entropy_stop_halts_training():
    bench = small_bench()
    res = train(bench, EnvConfig(n_models=2, p_max=1),
                small_cfg(entropy_stop=10.0))
    assert res.stopped_early
    assert res.episodes_seen == 4  # one window only


def test_use_history_false_leaves_memory_empty():
    bench = small_bench()
    res = train(bench, EnvConfig(n_models=2, p_max=1),
                small_cfg(use_history=False))
    assert res.history.interaction_count == 0


def test_best_params_are_a_snapshot():
    bench = small_bench()
    res = train(bench, EnvConfig(n_models=2, p_max=1), small_cfg())
    for k in res.params:
        assert res.best_params[k] is not res.params[k]


# -- artifacts ---------------------------------------------------------------------


def test_write_artifacts_and_load_policy(tmp_path):
    bench = small_bench()
    res = train(bench, EnvConfig(n_models=2, p_max=1), small_cfg(),
                out_dir=tmp_path)
    for name in ("params.json", "best_params.json", "curve.csv",
                 "history.json"):
        assert (tmp_path / name).exists()
    policy, meta = load_policy(tmp_path / "params.json")
    assert policy.variant == "full"
    assert meta["n_models"] == 2
    for k, p in policy.params.items():
        assert np.array_equal(p, res.params[k])
    with open(tmp_path / "curve.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CURVE_COLUMNS)
    assert len(rows) == 1 + len(res.curve)
    assert float(rows[1][2]) == res.curve[0]["mean_return"]


def test_load_policy_checks_its_meta(tmp_path):
    bench = small_bench()
    train(bench, EnvConfig(n_models=2, p_max=1), small_cfg(), out_dir=tmp_path)
    blob = json.loads((tmp_path / "params.json").read_text())
    for meta, key in (([1], "expected a JSON object"),
                      ({**blob["meta"], "beta": None}, "beta"),
                      ({**blob["meta"], "beta": True}, "beta"),
                      ({**blob["meta"], "beta": "1"}, "beta"),
                      ({**blob["meta"], "beta": float("nan")}, "beta"),
                      ({**blob["meta"], "variant": 3}, "variant"),
                      ({k: v for k, v in blob["meta"].items() if k != "variant"},
                       "variant")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**blob, "meta": meta}))
        with pytest.raises(ValueError, match=key):
            load_policy(path)
    path.write_text(json.dumps({**blob, "meta": {**blob["meta"], "beta": 1}}))
    policy, _ = load_policy(path)
    assert type(policy.beta) is float and policy.beta == 1.0


def test_loaded_policy_acts_without_a_tape(tmp_path):
    bench = small_bench()
    env_cfg = EnvConfig(n_models=2, p_max=1)
    res = train(bench, env_cfg, small_cfg(), out_dir=tmp_path)
    policy, _ = load_policy(tmp_path / "best_params.json")
    assert all(type(p) is np.ndarray for p in policy.params.values())
    hist = res.history.freeze()
    env = RoutingEnv(env_cfg, bench, res.history.hubs)
    env.reset(bench.eval_query(0))
    wf, q = env.snapshot()
    mask = env.legal_mask()
    policy.prepare(hist)
    idx, value = policy.act(wf, q, mask, mode="greedy")
    probs, values = encoder(leaves(res.best_params), "full", policy.beta, hist,
                            [wf], q[None, :], mask[None, :])
    assert idx == int(np.argmax(probs.data[0]))
    assert value.hex() == float(values.data[0]).hex()


def test_act_on_read_only_weights_matches():
    """A policy holds the caller's arrays, in a dict of its own, and never
    writes them: on read-only views of the weights it acts as on the weights."""
    bench = small_bench()
    env_cfg = EnvConfig(n_models=2, n_roles=3, p_max=1)
    hubs = bench.build_hubs(3)
    hist = HeteroGraph("history", hubs, capacity=64)
    params = init_params(EncoderDims(64, 64, 64, 8), "full", seed=1)
    views = {k: p.view() for k, p in params.items()}
    for v in views.values():
        v.flags.writeable = False
    for seed in range(4):
        env = RoutingEnv(env_cfg, bench, hubs)
        env.reset(bench.train_query(seed))
        while not env.finished:
            wf, q = env.snapshot()
            mask = env.legal_mask()
            outs = []
            for ps in (params, views):
                policy = RoutingPolicy(ps, "full", 1.0)
                assert policy.params is not ps
                assert all(policy.params[k] is p for k, p in ps.items())
                policy.prepare(hist.hub_state())
                outs.append(policy.act(wf, q, mask, "sample",
                                       np.random.default_rng(seed)))
            assert outs[0] == outs[1]
            env.step(env_cfg.action_of(outs[0][0]))
        absorb_episode(hist, Episode(records=[], utility=0.0, truncated=False,
                                     family=0, workflow=env.workflow))


def test_train_rolls_out_on_gradient_free_views(monkeypatch):
    seen = []

    def spy(benchmark, env_cfg, hubs, policy, *rest):
        seen.append({k: (p, p.copy()) for k, p in policy.params.items()})
        return collect_window(benchmark, env_cfg, hubs, policy, *rest)

    monkeypatch.setattr(agentroute.ppo, "collect_window", spy)
    res = train(small_bench(), EnvConfig(n_models=2, p_max=1), small_cfg())
    assert len(seen) == 2
    for window in seen:  # plain arrays, which no update writes into
        for p, at_collect in window.values():
            assert type(p) is np.ndarray and np.array_equal(p, at_collect)
    assert not np.array_equal(seen[0]["fuse.W"][0], seen[1]["fuse.W"][0])
    assert all(type(p) is np.ndarray for p in res.params.values())


def test_artifacts_identical_across_reruns(tmp_path):
    bench = small_bench()
    train(bench, EnvConfig(n_models=2, p_max=1), small_cfg(),
          out_dir=tmp_path / "a")
    train(bench, EnvConfig(n_models=2, p_max=1), small_cfg(),
          out_dir=tmp_path / "b")
    for name in ("params.json", "best_params.json", "curve.csv",
                 "history.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


# trains the criterion-10 configuration into the directory given as argv[1]
BLAS_RUN = """
import sys
from agentroute.backend import BenchmarkSpec, make_benchmark
from agentroute.env import EnvConfig
from agentroute.ppo import TrainConfig, train
bench = make_benchmark(BenchmarkSpec(kind="uniform", families=(0, 1),
                                     queries_per_family=30,
                                     width_profile=(1, 2), seed=8), k_models=2)
train(bench, EnvConfig(n_models=2, p_max=1),
      TrainConfig(max_episodes=24, episodes_per_update=8, hidden=16, seed=0),
      out_dir=sys.argv[1])
"""


def test_artifacts_identical_across_blas_thread_counts(tmp_path):
    # numpy reads the BLAS thread count once at import, hence one process each
    src = str(Path(agentroute.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(path))
        subprocess.run([sys.executable, "-c", BLAS_RUN, str(tmp_path / threads)],
                       env=env, check=True, timeout=300)
    for name in ("params.json", "best_params.json", "curve.csv",
                 "history.json"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes(), f"{name} depends on BLAS threads"
