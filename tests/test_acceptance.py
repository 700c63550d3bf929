"""Acceptance suite: one test per release criterion, run with pytest -v.

Each test asserts the criterion at its stated tolerance and time budget, so
the verbose report gives one pass/fail line per criterion. Heavy trainings
are shared through module-scoped fixtures; everything is deterministic, so
reruns reproduce these results bit for bit.
"""

import time

import numpy as np
import pytest

import tape as T
from agentroute.backend import (BenchmarkSpec, CatalogEntry, EXECUTOR,
                                make_benchmark)
from agentroute.baselines import KnnStore, RandomRouter, oracle_route
from agentroute.encoder import VARIANTS, EncoderDims, RoutingPolicy, init_params
from agentroute.env import EnvConfig, RoutingEnv
from agentroute.harness import (emit_report, evaluate, new_role_eval,
                                pareto_sweep, report_rows, unseen_llm_eval)
from agentroute.memory import (EncoderInput, HeteroGraph, HubSet, QueryNode,
                               ResponseNode, RoleHubNode, STATUS_PENDING,
                               STATUS_RESOLVED, deserialize, serialize)
from agentroute.ppo import TrainConfig, load_policy, ppo_loss, train
from agentroute.streams import det_rng
from agentroute.tensor import load_params, masked_softmax_array, save_params
from graph_equality import graphs_equal
from tape import Tensor, backward, encoder, leaves, logprob_of

FD_H = 1e-5
FD_TOL = 1e-4


# -- shared fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def separable_pool():
    """Pool where one model strictly dominates each family; oracle is unique."""
    spec = BenchmarkSpec(kind="separable", families=(0, 1, 2),
                         queries_per_family=300, width_profile=(1,), seed=7)
    bench = make_benchmark(spec, k_models=4)
    env_cfg = EnvConfig(n_models=4, n_roles=3, p_max=0, width=2,
                        max_steps=16, alpha=0.0)
    return bench, env_cfg


@pytest.fixture(scope="module")
def memdep_ablation():
    """Four encoder arms, five seeds each, on the memory-dependent pool.

    Model skills are invisible to the embeddings here, so routing quality
    measures what the cross-episode memory contributes. The full arm also
    gets a paired inductive evaluation for the inference-mode comparison.
    """
    spec = BenchmarkSpec(kind="memory-dependent", families=(0, 1, 2, 3),
                         queries_per_family=300, width_profile=(1,), seed=11)
    bench = make_benchmark(spec, k_models=4)
    env_cfg = EnvConfig(n_models=4, p_max=0, width=2, max_steps=16, alpha=0.0)
    t0 = time.monotonic()
    arms = {"full": [], "no_history": [], "hetero": [], "homo": []}
    inductive = []
    full_seed0_params = None
    for arm in arms:
        enc = "full" if arm == "no_history" else arm
        use_hist = arm != "no_history"
        for seed in range(5):
            tc = TrainConfig(max_episodes=800, seed=seed, variant=enc,
                             use_history=use_hist)
            res = train(bench, env_cfg, tc)
            policy = RoutingPolicy(res.best_params, enc, tc.beta)
            if use_hist:
                rep = evaluate(policy, bench, env_cfg, 40, seed=seed,
                               protocol="transductive", history=res.history,
                               absorb=True)
                if arm == "full":
                    rep_i = evaluate(policy, bench, env_cfg, 40, seed=seed,
                                     protocol="inductive", absorb=True)
                    inductive.append(rep_i.mean_utility)
                    if seed == 0:
                        full_seed0_params = res.best_params
            else:
                rep = evaluate(policy, bench, env_cfg, 40, seed=seed,
                               protocol="inductive", absorb=False)
            arms[arm].append(rep.mean_utility)
    return {"arms": arms, "inductive": inductive, "bench": bench,
            "env_cfg": env_cfg, "full_params": full_seed0_params,
            "duration": time.monotonic() - t0}


# -- criterion 1: gradient correctness ----------------------------------------------


def _fd_arrays(loss, arrays, grads, h=FD_H):
    """Max relative error between grads[k] (None reads as zeros) and central
    finite differences of the scalar loss() in each entry of arrays[k], which
    loss() reads."""
    worst = 0.0
    for k, a in arrays.items():
        grad = grads[k] if grads[k] is not None else np.zeros_like(a)
        gflat = np.asarray(grad, dtype=np.float64).reshape(-1).copy()
        flat = a.reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up = loss()
            flat[j] = keep - h
            dn = loss()
            flat[j] = keep
            fd = (up - dn) / (2 * h)
            rel = abs(gflat[j] - fd) / max(abs(gflat[j]), abs(fd), 1.0)
            worst = max(worst, rel)
    return worst


def _fd_worst(make_loss, leaves, h=FD_H):
    """Max relative error between the tape's reverse mode and central finite
    differences."""
    for leaf in leaves:
        leaf.zero_grad()
    backward(make_loss())
    return _fd_arrays(lambda: make_loss().data.item(), dict(enumerate(
        leaf.data for leaf in leaves)), [leaf.grad for leaf in leaves], h)


def _signed(rng, shape, lo=0.1, hi=1.0):
    mag = rng.uniform(lo, hi, size=shape)
    sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return Tensor(mag * sign, requires_grad=True)


def _positive(rng, shape, lo=0.2, hi=1.2):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _op_battery(seed):
    """Finite-difference every tape op; inputs keep a margin from any kink."""
    rng = det_rng(seed, "ops")
    worst = 0.0

    def run(make_loss, leaves):
        nonlocal worst
        worst = max(worst, _fd_worst(make_loss, leaves))

    a = _signed(rng, (3, 4))
    b = _signed(rng, (3, 4))
    brow = _signed(rng, (4,))
    w = Tensor(rng.normal(size=(3, 4)))
    run(lambda: T.total_sum(T.mul(T.add(a, b), w)), [a, b])
    run(lambda: T.total_sum(T.mul(T.add(a, brow), w)), [a, brow])  # broadcast
    run(lambda: T.total_sum(T.mul(T.sub(a, b), w)), [a, b])
    run(lambda: T.total_sum(T.mul(T.mul(a, b), w)), [a, b])
    run(lambda: T.total_sum(T.mul(T.scale(a, -1.7), w)), [a])

    m1 = _signed(rng, (3, 4))
    m2 = _signed(rng, (4, 2))
    wm = Tensor(rng.normal(size=(3, 2)))
    run(lambda: T.total_sum(T.mul(T.matmul(m1, m2), wm)), [m1, m2])

    r = _signed(rng, (2, 6))
    wr = Tensor(rng.normal(size=(3, 4)))
    run(lambda: T.total_sum(T.mul(T.reshape(r, (3, 4)), wr)), [r])
    c1 = _signed(rng, (2, 3))
    c2 = _signed(rng, (1, 3))
    wc = Tensor(rng.normal(size=(3, 3)))
    run(lambda: T.total_sum(T.mul(T.concat([c1, c2], axis=0), wc)), [c1, c2])
    c3 = _signed(rng, (2, 2))
    wc2 = Tensor(rng.normal(size=(2, 5)))
    run(lambda: T.total_sum(T.mul(T.concat([c1, c3], axis=1), wc2)), [c1, c3])

    run(lambda: T.total_sum(T.mul(T.relu(a), w)), [a])  # |entries| >= 0.1
    e = _signed(rng, (3, 4), lo=0.05, hi=0.9)
    run(lambda: T.total_sum(T.mul(T.exp(e), w)), [e])
    p1 = _positive(rng, (3, 4))
    run(lambda: T.total_sum(T.mul(T.log(p1), w)), [p1])
    p2 = _positive(rng, (3, 4))
    run(lambda: T.total_sum(T.mul(T.safe_log(p2), w)), [p2])

    # clip: spread entries to both sides of the window, away from the bounds
    inside = rng.uniform(size=(3, 4)) < 0.5
    mag = np.where(inside, rng.uniform(0.1, 0.4, size=(3, 4)),
                   rng.uniform(0.6, 1.0, size=(3, 4)))
    cl = Tensor(mag * np.where(rng.uniform(size=(3, 4)) < 0.5, -1.0, 1.0),
                requires_grad=True)
    run(lambda: T.total_sum(T.mul(T.clip(cl, -0.5, 0.5), w)), [cl])

    gap = np.where(rng.uniform(size=(3, 4)) < 0.5, -1.0, 1.0) \
        * rng.uniform(0.1, 0.5, size=(3, 4))
    mb = Tensor(a.data + gap, requires_grad=True)
    run(lambda: T.total_sum(T.mul(T.minimum(a, mb), w)), [a, mb])

    run(lambda: T.total_sum(a), [a])
    wrm = Tensor(rng.normal(size=(4,)))
    run(lambda: T.total_sum(T.mul(T.sum_axis(a, axis=0), wrm)), [a])
    wpick = Tensor(wrm.data[:3])
    run(lambda: T.total_sum(T.mul(T.pick_rows(a, [3, 0, 2]), wpick)), [a])

    rn = Tensor(rng.normal(size=(3, 4)) + np.sign(rng.normal(size=(3, 4))) * 0.5,
                requires_grad=True)
    run(lambda: T.total_sum(T.mul(T.row_normalize(rn), w)), [rn])

    sc = _signed(rng, (6,), lo=0.2, hi=1.5)
    mask = np.zeros(6, dtype=bool)
    mask[[0, 2, 5]] = True
    wsm = Tensor(rng.normal(size=(6,)))
    run(lambda: T.total_sum(T.mul(T.masked_softmax(sc, mask), wsm)), [sc])

    # row-wise softmax over a batch; a broadcast row and a 3-d axis sum
    sc2 = _signed(rng, (3, 6), lo=0.2, hi=1.5)
    mask2 = rng.uniform(size=(3, 6)) < 0.5
    mask2[:, 1] = True
    wsm2 = Tensor(rng.normal(size=(3, 6)))
    run(lambda: T.total_sum(T.mul(T.masked_softmax(sc2, mask2), wsm2)), [sc2])
    bc = _signed(rng, (1, 4))
    run(lambda: T.total_sum(T.mul(T.broadcast_to(bc, (3, 4)), w)), [bc])
    s3 = _signed(rng, (2, 3, 4))
    w24 = Tensor(wc2.data[:, :4])
    run(lambda: T.total_sum(T.mul(T.sum_axis(s3, axis=1), w24)), [s3])
    return worst


def _graph_input(rng, d_q, d_r, d_hub, n_hubs, n_queries, n_responses, n_edges):
    nodes = n_hubs + n_queries + n_responses
    src, dst = [], []
    for _ in range(n_edges):
        i = int(rng.integers(0, nodes))
        j = int(rng.integers(0, nodes))
        if i == j:
            continue
        src += [i, j]
        dst += [j, i]
    return EncoderInput(
        hub_feats=rng.normal(size=(n_hubs, d_hub)),
        query_feats=rng.normal(size=(n_queries, d_q)),
        response_feats=rng.normal(size=(n_responses, d_r)),
        edge_src=np.asarray(src, dtype=np.int64),
        edge_dst=np.asarray(dst, dtype=np.int64),
        n_hubs=n_hubs, n_queries=n_queries, n_responses=n_responses)


def _policy_fd(seed):
    """Gradcheck the tape's full nested encoder on a batch of two decision
    points, through their action logprobs and values."""
    rng = det_rng(seed, "policy-fd")
    dims = EncoderDims(d_q=6, d_r=5, d_hub=7, hidden=4)
    n_hubs = 3 * 3  # roles x models
    params = leaves(init_params(dims, "full", seed=seed))
    hist = _graph_input(rng, 6, 5, 7, n_hubs, 2, 2, 8)
    wfs = [_graph_input(rng, 6, 5, 7, n_hubs, 2, 1, 7),
           _graph_input(rng, 6, 5, 7, n_hubs, 1, 0, 4)]
    queries = rng.normal(size=(2, 6))
    masks = np.zeros((2, n_hubs), dtype=bool)
    for row in masks:
        row[rng.choice(n_hubs, size=4, replace=False)] = True
    actions = [int(rng.choice(np.flatnonzero(row))) for row in masks]
    beta = 0.7

    def fwd():
        return encoder(params, "full", beta, hist, wfs, queries, masks)

    weights = list(params.values())
    return max(_fd_worst(lambda: T.total_sum(logprob_of(fwd()[0], actions)),
                         weights),
               _fd_worst(lambda: T.total_sum(fwd()[1]), weights))


def _backward_fd(seed, variant, beta):
    """Gradcheck `RoutingPolicy.backward`, which trains, on a batch of two
    decision points. The loss is a random linear function of the forward's
    probabilities and values, so its gradients with respect to them are the
    function's coefficients; a policy is built and prepared afresh for every
    loss evaluation, as its stacked weights are copies."""
    rng = det_rng(seed, "backward-fd", variant, beta)
    d_q, d_r, d_hub = (6, 6, 6) if variant == "homo" else (6, 5, 7)
    params = init_params(EncoderDims(d_q, d_r, d_hub, hidden=4), variant,
                         seed=seed)
    n_hubs = 3 * 3
    hist = _graph_input(rng, d_q, d_r, d_hub, n_hubs, 2, 2, 8)
    wfs = [_graph_input(rng, d_q, d_r, d_hub, n_hubs, 2, 1, 7),
           _graph_input(rng, d_q, d_r, d_hub, n_hubs, 1, 0, 4)]
    queries = rng.normal(size=(2, d_q))
    masks = np.zeros((2, n_hubs), dtype=bool)
    for row in masks:
        row[rng.choice(n_hubs, size=4, replace=False)] = True
    c_probs, c_values = rng.normal(size=(2, n_hubs)), rng.normal(size=2)

    def forward():
        policy = RoutingPolicy(params, variant, beta)
        policy.prepare(hist)
        return policy, policy.forward(policy.messages(wfs), queries, masks)

    def loss():
        fwd = forward()[1]
        return float((c_probs * fwd.probs).sum() + (c_values * fwd.values).sum())

    policy, fwd = forward()
    return _fd_arrays(loss, params, policy.backward(fwd, c_probs, c_values))


def _ppo_loss_fd(seed):
    """Gradcheck the PPO loss's gradients with respect to the probabilities
    and values of six decision points, at ratios inside and outside the clip
    window, each at least 0.05 from a bound. Masked entries are exact zeros
    that the softmax's gradient never reads, so only allowed entries move."""
    rng = det_rng(seed, "ppo-loss-fd")
    n, k = 6, 9
    cfg = TrainConfig(entropy_coef=0.3)
    masks = rng.uniform(size=(n, k)) < 0.6
    masks[np.arange(n), rng.integers(0, k, size=n)] = True
    probs = masked_softmax_array(rng.normal(size=(n, k)), masks)
    picks = (np.arange(n), np.asarray([rng.choice(np.flatnonzero(row))
                                       for row in masks]))
    ratio = (np.array([0.5, 0.85, 1.25])[rng.integers(0, 3, size=n)]
             + rng.uniform(0.0, 0.25, size=n))
    old_logp = np.log(probs[picks]) - np.log(ratio)
    advantages, returns = rng.normal(size=n), rng.normal(size=n)
    allowed = probs > 0.0
    free = {"probs": probs[allowed], "values": rng.normal(size=n)}

    def run():
        p = np.zeros_like(probs)
        p[allowed] = free["probs"]
        return ppo_loss(p, free["values"], picks, old_logp, advantages, returns,
                        cfg)

    def loss():
        stats = run()[0]
        return (stats["policy_loss"] + stats["value_loss"] * cfg.value_coef
                + stats["entropy"] * -cfg.entropy_coef)

    _, g_probs, g_values = run()
    return _fd_arrays(loss, free, {"probs": g_probs[allowed], "values": g_values})


def test_c01_gradients_match_finite_differences():
    """The tape's ops and encoder, the reference the shipped passes are pinned
    to bit for bit, and the gradients that train: `RoutingPolicy.backward` in
    every variant at beta 0 and 0.7, and the PPO loss's."""
    t0 = time.monotonic()
    worst_ops = max(_op_battery(seed) for seed in range(20))
    worst_policy = max(_policy_fd(seed) for seed in range(20))
    worst_backward = max(_backward_fd(seed, variant, beta) for seed in range(20)
                         for variant in VARIANTS for beta in (0.0, 0.7))
    worst_loss = max(_ppo_loss_fd(seed) for seed in range(20))
    elapsed = time.monotonic() - t0
    assert worst_ops <= FD_TOL, f"op battery max rel err {worst_ops:.3e}"
    assert worst_policy <= FD_TOL, f"policy max rel err {worst_policy:.3e}"
    assert worst_backward <= FD_TOL, f"backward max rel err {worst_backward:.3e}"
    assert worst_loss <= FD_TOL, f"PPO loss max rel err {worst_loss:.3e}"
    assert elapsed < 30.0, f"gradcheck took {elapsed:.1f}s"
    print(f"criterion 1 PASS: ops {worst_ops:.2e}, policy {worst_policy:.2e}, "
          f"backward {worst_backward:.2e}, PPO loss {worst_loss:.2e}, "
          f"h={FD_H}, 20 seeds, {elapsed:.1f}s")


# -- criterion 2: mask soundness under fuzzing ---------------------------------------


def _summarizer_ok(env):
    """Summary legality restated from public episode state only."""
    root = env.workflow.queries[env.root_id]
    if env.summary_used or env.current_id != env.root_id:
        return False
    if root.status != STATUS_PENDING or env.pending:
        return False
    children = [env.workflow.queries[c]
                for c in env.workflow.child_ids.get(env.root_id, ())]
    resolved = [q for q in children if not q.is_summary and q.status == STATUS_RESOLVED
                and q.answer_id is not None]
    return len(resolved) >= 2


def test_c02_mask_soundness_under_fuzzing():
    benches = [
        make_benchmark(BenchmarkSpec("uniform", (0, 1), 6, (1, 2), 3),
                       k_models=1),
        make_benchmark(BenchmarkSpec("uniform", (0, 1), 6, (1, 2), 3),
                       k_models=2),
        make_benchmark(BenchmarkSpec("separable", (0, 1, 2), 6, (1,), 5),
                       k_models=3),
        make_benchmark(BenchmarkSpec("memory-dependent", (0, 1), 6, (2,), 9),
                       k_models=2),
    ]
    hubs_cache = {}
    t0 = time.monotonic()
    steps = ep = 0
    violations = []
    while steps < 10_000:
        rng = det_rng(2026, "fuzz", ep)
        bench = benches[int(rng.integers(0, len(benches)))]
        n_roles = (3, 3, 3, 5)[int(rng.integers(0, 4))]
        phase1 = rng.uniform() < 0.15
        cfg = EnvConfig(
            n_models=bench.n_models, n_roles=n_roles,
            p_max=int(rng.integers(0, 4)), width=int(rng.integers(1, 4)),
            max_steps=int(rng.integers(4, 15)),
            alpha=(0.0, 0.3)[int(rng.integers(0, 2))],
            phase="phase1" if phase1 else "phase2",
            phase_depth=int(rng.integers(0, 3)),
            phase_width=int(rng.integers(1, 3)))
        key = (id(bench), n_roles)
        if key not in hubs_cache:
            hubs_cache[key] = bench.build_hubs(n_roles)
        env = RoutingEnv(cfg, bench, hubs_cache[key])
        n_train = bench.spec.queries_per_family * len(bench.spec.families)
        env.reset(bench.train_query(ep % n_train))
        planner_cap = cfg.phase_depth if phase1 else cfg.p_max
        last_role = None
        while not env.finished:
            mask = env.legal_mask()
            k = cfg.n_models
            if not mask.any():
                violations.append((ep, "empty mask"))
                break
            if env.step_count == 0 and mask[2 * k:3 * k].any():
                violations.append((ep, "summarizer legal at episode start"))
            if mask[2 * k:3 * k].any() and not _summarizer_ok(env):
                violations.append((ep, "summarizer legal in a bad state"))
            if mask[0:k].any() and not env.planner_count < planner_cap:
                violations.append((ep, "planner legal at the cap"))
            if env.planner_count > planner_cap:
                violations.append((ep, "planner count above the cap"))
            legal = np.flatnonzero(mask)
            action = cfg.action_of(int(legal[int(rng.integers(0, legal.size))]))
            last_role = action.role
            env.step(action)
            steps += 1
            if steps >= 10_000:
                break
        if env.finished and not env.truncated:
            if last_role != EXECUTOR:
                violations.append((ep, f"terminated by role {last_role}"))
            if env.workflow.queries[env.root_id].status != STATUS_RESOLVED:
                violations.append((ep, "finished with an unresolved root"))
        if env.planner_count > planner_cap:
            violations.append((ep, "final planner count above the cap"))
        ep += 1
    elapsed = time.monotonic() - t0
    assert not violations, f"{len(violations)} violations, first: {violations[:3]}"
    assert elapsed < 10.0, f"fuzzing took {elapsed:.1f}s"
    print(f"criterion 2 PASS: {steps} steps, {ep} episodes, 0 violations, "
          f"{elapsed:.1f}s")


# -- criterion 3: reward identity and return algebra ---------------------------------


def test_c03_reward_identity_and_return_agreement():
    bench_a = make_benchmark(BenchmarkSpec("uniform", (0, 1), 6, (1, 2), 3),
                             k_models=2)
    bench_b = make_benchmark(BenchmarkSpec("separable", (0, 1, 2), 6, (1,), 5),
                             k_models=3)
    hubs = {id(bench_a): bench_a.build_hubs(3), id(bench_b): bench_b.build_hubs(3)}
    worst_identity = worst_returns = 0.0
    for ep in range(1000):
        bench = bench_a if ep % 2 == 0 else bench_b
        alpha = (0.0, 0.1, 0.9)[ep % 3]
        cfg = EnvConfig(n_models=bench.n_models, p_max=2, width=2,
                        max_steps=10, alpha=alpha)
        env = RoutingEnv(cfg, bench, hubs[id(bench)])
        n_train = bench.spec.queries_per_family * len(bench.spec.families)
        episode = env.run_episode(bench.train_query(ep % n_train),
                                  RandomRouter(), mode="sample",
                                  rng=det_rng(77, "alg", ep))
        lhs = episode.total_reward
        rhs = episode.utility - alpha * episode.scaled_cost
        worst_identity = max(worst_identity, abs(lhs - rhs))

        rewards = [r.reward for r in episode.records]
        g = TrainConfig().gamma
        backward_returns = np.zeros(len(rewards))
        acc = 0.0
        for t in range(len(rewards) - 1, -1, -1):
            acc = rewards[t] + g * acc
            backward_returns[t] = acc
        forward_returns = np.array(
            [sum(r * g ** (k - t) for k, r in enumerate(rewards) if k >= t)
             for t in range(len(rewards))])
        worst_returns = max(worst_returns, float(
            np.max(np.abs(backward_returns - forward_returns))))
    assert worst_identity <= 1e-12, f"identity error {worst_identity:.3e}"
    assert worst_returns <= 1e-9, f"return mismatch {worst_returns:.3e}"
    print(f"criterion 3 PASS: identity {worst_identity:.2e}, "
          f"returns {worst_returns:.2e}, 1000 episodes")


# -- criterion 4: learnability against the enumeration oracle ------------------------


def test_c04_separable_pool_reaches_oracle_agreement(separable_pool):
    bench, env_cfg = separable_pool
    t0 = time.monotonic()
    passing = 0
    rates = []
    for seed in range(5):
        tc = TrainConfig(max_episodes=500, seed=seed, variant="full")
        res = train(bench, env_cfg, tc)
        assert res.episodes_seen <= 500
        policy = RoutingPolicy(res.best_params, "full", tc.beta)
        hubs = res.history.hubs
        agree = 0
        n_eval = 40
        for i in range(n_eval):
            root = bench.eval_query(i)
            want, _ = oracle_route(env_cfg, bench, hubs, root)
            policy.prepare(res.history.freeze())
            env = RoutingEnv(env_cfg, bench, hubs)
            episode = env.run_episode(root, policy, mode="greedy")
            agree += [r.action_index for r in episode.records] == want
        rate = agree / n_eval
        rates.append(rate)
        passing += rate >= 0.95
    elapsed = time.monotonic() - t0
    assert passing >= 4, f"only {passing}/5 seeds reached 95%: {rates}"
    assert elapsed < 300.0, f"learnability check took {elapsed:.1f}s"
    print(f"criterion 4 PASS: {passing}/5 seeds, agreement per seed "
          f"{[f'{r:.2f}' for r in rates]}, {elapsed:.0f}s")


# -- criterion 5: cost-weight sweep orders costs -------------------------------------

SWEEP_CATALOG = [
    CatalogEntry("anchor-7b", "small", 0.20, 0.20),
    CatalogEntry("frontier-300b", "large", 5.56, 5.56),
    CatalogEntry("pro-120b", "large", 1.54, 1.54),
    CatalogEntry("mid-70b", "medium", 0.87, 0.87),
    CatalogEntry("lite-30b", "medium", 0.58, 0.58),
]


def _average_ranks(values):
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values)
    ranks = np.empty(len(values))
    ranks[order] = np.arange(1, len(values) + 1)
    for v in np.unique(values):
        tied = values == v
        if tied.sum() > 1:
            ranks[tied] = ranks[tied].mean()
    return ranks


def _spearman(x, y):
    rx, ry = _average_ranks(x), _average_ranks(y)
    return float(np.corrcoef(rx, ry)[0, 1])


def test_c05_cost_weight_sweep_orders_costs():
    spec = BenchmarkSpec(kind="separable", families=(0, 1, 2, 3, 4),
                         queries_per_family=300, width_profile=(1,), seed=23)
    bench = make_benchmark(spec, k_models=5, catalog=SWEEP_CATALOG)
    env_cfg = EnvConfig(n_models=5, n_roles=3, p_max=0, width=2,
                        max_steps=16, alpha=0.0)
    tc = TrainConfig(max_episodes=600, variant="full")
    alphas = [0.0, 0.1, 0.3, 0.5, 0.9]
    t0 = time.monotonic()
    rows = pareto_sweep(bench, env_cfg, tc, alphas, seeds=(0, 1, 2, 3, 4),
                        eval_episodes=30)
    elapsed = time.monotonic() - t0
    accs, costs = [], []
    for a in alphas:
        sub = [r for r in rows if r["alpha"] == a]
        assert len(sub) == 5
        accs.append(float(np.mean([r["acc"] for r in sub])))
        costs.append(float(np.mean([r["cost"] for r in sub])))
    rho = _spearman(alphas, costs)
    gap = max(accs) - accs[0]
    assert rho <= -0.8, f"Spearman(alpha, cost) = {rho:.3f}"
    assert gap <= 0.02, f"alpha=0 accuracy {accs[0]:.4f} trails max by {gap:.4f}"
    assert elapsed < 1500.0, f"sweep took {elapsed:.0f}s"
    print(f"criterion 5 PASS: Spearman {rho:.3f}, acc gap {gap:.4f}, "
          f"costs {[f'{c*1e6:.0f}' for c in costs]} $/M, {elapsed:.0f}s")


# -- criterion 6: history ablation margins -------------------------------------------


def test_c06_history_ablation_margins(memdep_ablation):
    arms = memdep_ablation["arms"]
    full = float(np.mean(arms["full"]))
    no_history = float(np.mean(arms["no_history"]))
    hetero = float(np.mean(arms["hetero"]))
    homo = float(np.mean(arms["homo"]))
    elapsed = memdep_ablation["duration"]
    assert full - no_history >= 0.10, \
        f"full {full:.4f} vs no_history {no_history:.4f}"
    assert hetero >= homo, f"hetero {hetero:.4f} < homo {homo:.4f}"
    assert elapsed < 900.0, f"ablation took {elapsed:.0f}s"
    print(f"criterion 6 PASS: full {full:.4f}, no_history {no_history:.4f} "
          f"(margin {full - no_history:+.4f}), hetero {hetero:.4f} >= "
          f"homo {homo:.4f}, {elapsed:.0f}s")


# -- criterion 7: inference modes and history-file isolation -------------------------


def test_c07_transductive_beats_inductive_and_file_is_untouched(
        memdep_ablation, tmp_path):
    trans = float(np.mean(memdep_ablation["arms"]["full"]))
    induct = float(np.mean(memdep_ablation["inductive"]))
    assert trans >= induct - 0.01, f"trans {trans:.4f} vs induct {induct:.4f}"

    # inductive evaluation must never open the persisted history file: a
    # poisoned file at history_path would raise on any read attempt
    bench = memdep_ablation["bench"]
    env_cfg = memdep_ablation["env_cfg"]
    policy = RoutingPolicy(memdep_ablation["full_params"], "full", 1.0)
    poisoned = tmp_path / "history.json"
    poisoned.write_bytes(b"\x00 not a graph")
    before = poisoned.read_bytes()
    rep_with = evaluate(policy, bench, env_cfg, 10, seed=3,
                        protocol="inductive", absorb=False,
                        history_path=poisoned)
    rep_without = evaluate(policy, bench, env_cfg, 10, seed=3,
                           protocol="inductive", absorb=False)
    key = lambda rep: [(r["utility"], r["dollars"], r["actions"])
                       for r in rep.rows]
    assert key(rep_with) == key(rep_without)
    assert poisoned.read_bytes() == before
    print(f"criterion 7 PASS: transductive {trans:.4f} >= inductive "
          f"{induct:.4f} - 0.01; poisoned history file ignored and untouched")


# -- criterion 8: dropping an unseen model into the pool -----------------------------


def _strong_family_adoption(report, family, probe_model):
    hits = total = 0
    for row in report.rows:
        if row["family"] != family:
            continue
        for role, model in row["actions"]:
            if role == EXECUTOR:
                total += 1
                hits += model == probe_model
    return hits / max(1, total)


def test_c08_unseen_model_zero_shot(separable_pool):
    bench, env_cfg = separable_pool
    lifts, changes, adoptions = [], [], []
    for seed in range(5):
        tc = TrainConfig(max_episodes=500, seed=seed, variant="full",
                         use_history=False)
        res = train(bench, env_cfg, tc)
        frozen = {k: v.copy() for k, v in res.best_params.items()}
        dominant = unseen_llm_eval(res.best_params, "full", tc.beta, bench,
                                   env_cfg, None, level=1.0,
                                   name="probe-dominant", strong_family=0,
                                   eval_episodes=30, seed=seed)
        dominated = unseen_llm_eval(res.best_params, "full", tc.beta, bench,
                                    env_cfg, None, level=0.3,
                                    name="probe-dominated",
                                    eval_episodes=30, seed=seed)
        # no parameter update anywhere in the protocol
        assert all(np.array_equal(frozen[k], res.best_params[k])
                   for k in frozen)
        lifts.append(dominant["utility_lift"])
        changes.append(dominated["changed_fraction"])
        adoptions.append(_strong_family_adoption(dominant["extended"], 0,
                                                 bench.n_models))
    mean_lift = float(np.mean(lifts))
    assert mean_lift >= 0.05, f"mean dominant lift {mean_lift:+.4f}"
    assert max(changes) <= 0.05, f"dominated probe changed {max(changes):.3f}"
    assert min(adoptions) > 0.5, \
        f"strong-family executor adoption {adoptions}"
    print(f"criterion 8 PASS: dominant lift {mean_lift:+.4f}, dominated "
          f"changed <= {max(changes):.3f}, adoption >= {min(adoptions):.2f}")


# -- criterion 9: growing the role set at inference time -----------------------------


def test_c09_new_role_protocols_order():
    spec = BenchmarkSpec(kind="memory-dependent", families=(0, 1, 2, 3),
                         queries_per_family=250, width_profile=(1,), seed=17)
    bench = make_benchmark(spec, k_models=4, difficulty=(0.5, 0.9),
                           skill_overrides={"verifier": 0.95})
    env_cfg = EnvConfig(n_models=4, n_roles=3, p_max=0, width=2,
                        max_steps=16, alpha=0.0)
    base_u, zero_u, few_u = [], [], []
    for seed in range(5):
        tc = TrainConfig(max_episodes=800, seed=seed, variant="full")
        res = train(bench, env_cfg, tc)
        r = new_role_eval(res.best_params, "full", tc.beta, bench, env_cfg,
                          res.history, inject_queries=10, eval_episodes=40,
                          seed=seed)
        assert r["injected"] == 50, f"injected {r['injected']} interactions"
        base_u.append(r["base"].mean_utility)
        zero_u.append(r["zero_shot"].mean_utility)
        few_u.append(r["few_shot"].mean_utility)
    base, zero, few = (float(np.mean(base_u)), float(np.mean(zero_u)),
                       float(np.mean(few_u)))
    assert zero >= base - 0.01, f"zero-shot {zero:.4f} vs base {base:.4f}"
    assert few >= zero - 0.01, f"few-shot {few:.4f} vs zero-shot {zero:.4f}"
    print(f"criterion 9 PASS: base {base:.4f} <= zero-shot {zero:.4f} "
          f"<= few-shot {few:.4f} (50 injected interactions per seed)")


# -- criterion 10: byte-identical artifacts ------------------------------------------

ARTIFACTS = ("params.json", "best_params.json", "curve.csv", "history.json",
             "report.csv")


def _train_and_report(out_dir, bench, env_cfg, workers):
    tc = TrainConfig(max_episodes=24, episodes_per_update=8, hidden=16,
                     seed=0, workers=workers)
    res = train(bench, env_cfg, tc, out_dir=out_dir)
    policy, _ = load_policy(out_dir / "best_params.json")
    report = evaluate(policy, bench, env_cfg, 6, seed=0,
                      protocol="transductive", history=res.history,
                      absorb=True)
    emit_report(out_dir / "report.csv",
                report_rows(report, variant="full", phase="phase2",
                            alpha=0.0, seed=0))
    return {name: (out_dir / name).read_bytes() for name in ARTIFACTS}


def test_c10_identical_configs_reproduce_artifacts_bytewise(tmp_path):
    bench = make_benchmark(BenchmarkSpec(kind="uniform", families=(0, 1),
                                         queries_per_family=30,
                                         width_profile=(1, 2), seed=8),
                           k_models=2)
    env_cfg = EnvConfig(n_models=2, p_max=1)
    first = _train_and_report(tmp_path / "a", bench, env_cfg, workers=1)
    rerun = _train_and_report(tmp_path / "b", bench, env_cfg, workers=1)
    pooled = _train_and_report(tmp_path / "c", bench, env_cfg, workers=4)
    for name in ARTIFACTS:
        assert first[name] == rerun[name], f"{name} differs across reruns"
        assert first[name] == pooled[name], f"{name} differs for workers=4"
    print(f"criterion 10 PASS: {len(ARTIFACTS)} artifacts byte-identical "
          f"across a rerun and across workers 1 vs 4")


# -- criterion 11: persistence round-trips -------------------------------------------


def _random_graph(rng):
    n_roles = int(rng.integers(3, 6))
    n_models = int(rng.integers(1, 4))
    d_hub = int(rng.integers(3, 9))
    d_q = int(rng.integers(3, 9))
    hubs = [RoleHubNode(r, m, f"role{r}", f"model{m}",
                        rng.normal(size=d_hub),
                        utility_ema=float(rng.uniform()),
                        cost_ema=float(rng.uniform()))
            for r in range(n_roles) for m in range(n_models)]
    kind = "history" if rng.uniform() < 0.7 else "workflow"
    capacity = None
    if kind == "history" and rng.uniform() < 0.5:
        capacity = int(rng.integers(6, 40))
    g = HeteroGraph(kind, HubSet(hubs, n_roles, n_models), capacity=capacity)
    qid = rid = 0

    def response():
        nonlocal rid
        r = ResponseNode(f"r{rid}", rng.normal(size=d_q),
                         (int(rng.integers(0, n_roles)),
                          int(rng.integers(0, n_models))),
                         int(rng.integers(1, 900)), int(rng.integers(1, 900)),
                         float(rng.uniform()))
        rid += 1
        return r

    for _ in range(int(rng.integers(1, 4))):
        tag = g.new_episode_tag() if kind == "history" else None
        root = f"q{qid}"
        qid += 1
        g.add_query(QueryNode(root, rng.normal(size=d_q), 0, None,
                              int(rng.integers(0, 3)),
                              width_hint=int(rng.integers(1, 3))), episode=tag)
        for _ in range(int(rng.integers(0, 3))):
            child = f"q{qid}"
            qid += 1
            g.add_query(QueryNode(child, rng.normal(size=d_q), 1, root,
                                  int(rng.integers(0, 3))), episode=tag)
            if rng.uniform() < 0.7:
                g.add_response(child, response(),
                               answers=bool(rng.uniform() < 0.8), episode=tag)
        if rng.uniform() < 0.5:
            g.add_response(root, response(), answers=True, episode=tag)
    return g


def _random_store(rng):
    store = KnnStore()
    dim = int(rng.integers(2, 9))
    for _ in range(int(rng.integers(0, 20))):
        store.add(rng.normal(size=dim),
                  [int(a) for a in
                   rng.integers(0, 15, size=int(rng.integers(1, 7)))])
    return store


def _random_checkpoint(rng):
    variant = ("full", "hetero", "homo")[int(rng.integers(0, 3))]
    if variant == "homo":
        d = int(rng.integers(2, 9))
        dims = EncoderDims(d, d, d, int(rng.integers(2, 9)))
    else:
        dims = EncoderDims(int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                           int(rng.integers(2, 9)), int(rng.integers(2, 9)))
    params = init_params(dims, variant, seed=int(rng.integers(0, 10_000)))
    meta = {"variant": variant, "beta": float(rng.uniform()),
            "tag": f"instance-{int(rng.integers(0, 99))}"}
    return params, meta


def _stores_equal(a, b):
    return (len(a) == len(b)
            and all(np.array_equal(x, y) and x.dtype == y.dtype
                    for x, y in zip(a.embeddings, b.embeddings))
            and a.sequences == b.sequences)


def _params_equal(a, b):
    return (set(a) == set(b)
            and all(np.array_equal(a[k], b[k]) and a[k].dtype == b[k].dtype
                    for k in a))


def test_c11_persistence_round_trips(tmp_path):
    for i in range(100):
        rng = det_rng(4242, "persist", i)

        graph = _random_graph(rng)
        blob = serialize(graph)
        restored = deserialize(blob)
        assert graphs_equal(graph, restored), f"graph instance {i}"
        assert serialize(restored) == blob, f"graph re-serialize {i}"

        store = _random_store(rng)
        store_path = tmp_path / f"store{i}.json"
        store.save(store_path)
        assert _stores_equal(store, KnnStore.load(store_path)), \
            f"store instance {i}"

        params, meta = _random_checkpoint(rng)
        ckpt_path = tmp_path / f"ckpt{i}.json"
        save_params(ckpt_path, params, meta=meta)
        loaded, loaded_meta = load_params(ckpt_path)
        assert _params_equal(params, loaded), f"checkpoint instance {i}"
        assert loaded_meta == meta, f"checkpoint meta {i}"
    print("criterion 11 PASS: 100 randomized instances of each artifact kind "
          "round-trip with structural equality")
