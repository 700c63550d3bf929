"""Evaluation protocols, transfer probes, and report emission.

Inductive evaluation starts from an empty memory and never touches any
persisted history; transductive evaluation resumes from the memory built
during training. Transfer probes grow the hub set (new model, new roles)
without touching learned weights.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .backend import (ALL_ROLES, BASE_ROLES, Benchmark, EXECUTOR, PLANNER,
                      SUMMARIZER, THINKER, VERIFIER, cost_of, make_unseen_profile)
from .encoder import RoutingPolicy
from .env import EnvConfig, RoutingEnv, absorb_episode
from .memory import (HeteroGraph, ResponseNode, deserialize, rebase_history,
                     update_hub_stats)
from .ppo import TrainConfig, train, write_csv

PROTOCOLS = ("inductive", "transductive")
REPORT_COLUMNS = ("protocol", "variant", "phase", "alpha", "family", "seed",
                  "episodes", "acc", "cost", "avg_llm_calls")
SWEEP_COLUMNS = ("alpha", "seed", "acc", "cost")


@dataclass
class EvalReport:
    protocol: str
    rows: list[dict] = field(default_factory=list)

    @property
    def mean_utility(self) -> float:
        return float(np.mean([r["utility"] for r in self.rows]))

    @property
    def mean_cost(self) -> float:
        return float(np.mean([r["dollars"] for r in self.rows]))

    @property
    def mean_calls(self) -> float:
        return float(np.mean([r["llm_calls"] for r in self.rows]))

    def action_sequences(self) -> list[list[tuple[int, int]]]:
        return [r["actions"] for r in self.rows]


def evaluate(policy, benchmark: Benchmark, env_cfg: EnvConfig,
             n_episodes: int, *, seed: int = 0, protocol: str = "inductive",
             history: HeteroGraph | None = None,
             history_path: str | Path | None = None,
             absorb: bool = True, capacity: int = 256,
             decay: float = 0.9) -> EvalReport:
    """Greedy evaluation over held-out queries under one memory protocol.

    Inductive runs build memory only from their own episodes (when absorb is
    on) and by construction never read a persisted history. Transductive
    runs resume from the training-time memory, passed either as a live graph
    or as a file path. A live graph is copied first when absorb is on, so
    absorbing episodes never changes the caller's graph or its hub
    statistics; without absorb the run only reads it. Greedy decoding draws
    nothing, so `seed` only labels the run and no episode gets a stream.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol: {protocol!r}")
    if n_episodes < 1:
        raise ValueError(f"evaluation needs at least one episode, got {n_episodes}")
    if protocol == "transductive":
        if history is None:
            if history_path is None:
                raise ValueError("transductive evaluation needs a history")
            history = deserialize(Path(history_path).read_bytes())
        elif absorb:
            history = copy.deepcopy(history)
        hubs = history.hubs
    else:
        # never opens history_path, even when one is supplied
        hubs = benchmark.build_hubs(env_cfg.n_roles)
        history = HeteroGraph("history", hubs, capacity=capacity)
    if hubs.n_models != env_cfg.n_models or hubs.n_roles != env_cfg.n_roles:
        raise ValueError("history hub set does not match the env config")

    report = EvalReport(protocol=protocol)
    for i in range(n_episodes):
        if i == 0 or absorb:
            policy.prepare(history.hub_state())
        env = RoutingEnv(env_cfg, benchmark, hubs)
        root = benchmark.eval_query(i)
        ep = env.run_episode(root, policy, mode="greedy")
        if absorb:
            absorb_episode(history, ep, decay=decay)
        report.rows.append({
            "episode": i,
            "family": ep.family,
            "utility": ep.utility,
            "dollars": ep.dollars,
            "scaled_cost": ep.scaled_cost,
            "llm_calls": ep.length,
            "truncated": ep.truncated,
            "actions": ep.actions,
            "roles": sorted({r.role for r in ep.records}),
        })
    return report


# -- cost/utility trade-off sweep -------------------------------------------------


def pareto_sweep(benchmark: Benchmark, env_cfg: EnvConfig,
                 train_cfg: TrainConfig, alphas: list[float],
                 seeds: list[int] | tuple[int, ...] = (0,), *,
                 eval_episodes: int = 30, out_csv: str | Path | None = None,
                 log=None) -> list[dict]:
    """Train and evaluate one policy per (alpha, seed); rows sort by alpha."""
    if eval_episodes < 1:
        raise ValueError(f"evaluation needs at least one episode, got {eval_episodes}")
    unique: list[float] = []
    for a in alphas:
        if a in unique:
            warnings.warn(f"duplicate alpha {a!r} ignored in sweep")
        else:
            unique.append(a)
    rows = []
    for alpha in unique:
        for seed in seeds:
            cfg_a = replace(env_cfg, alpha=alpha)
            tc = replace(train_cfg, seed=seed)
            result = train(benchmark, cfg_a, tc)
            policy = RoutingPolicy(result.best_params, tc.variant, tc.beta)
            report = evaluate(policy, benchmark, cfg_a, eval_episodes,
                              seed=seed, protocol="transductive",
                              history=result.history, absorb=True,
                              decay=tc.hub_decay)
            row = {"alpha": alpha, "seed": seed, "acc": report.mean_utility,
                   "cost": report.mean_cost}
            rows.append(row)
            if log is not None:
                log(f"alpha={alpha} seed={seed} acc={row['acc']:.4f} "
                    f"cost={row['cost']:.6f}")
    if out_csv is not None:
        write_csv(Path(out_csv), SWEEP_COLUMNS, rows)
    return rows


# -- encoder ablation --------------------------------------------------------------

ABLATION_VARIANTS = ("full", "homo", "hetero", "no_history")


def run_ablation(benchmark: Benchmark, env_cfg: EnvConfig,
                 train_cfg: TrainConfig,
                 variants: tuple[str, ...] = ABLATION_VARIANTS,
                 seeds: tuple[int, ...] = (0,), *,
                 eval_episodes: int = 30, log=None) -> list[dict]:
    """Paired-seed comparison of encoder variants under identical budgets.

    no_history keeps the full architecture but trains and evaluates with an
    empty cross-episode memory, isolating what the memory itself adds.
    """
    if eval_episodes < 1:
        raise ValueError(f"evaluation needs at least one episode, got {eval_episodes}")
    rows = []
    for variant in variants:
        for seed in seeds:
            if variant == "no_history":
                tc = replace(train_cfg, variant="full", seed=seed,
                             use_history=False)
            else:
                tc = replace(train_cfg, variant=variant, seed=seed)
            result = train(benchmark, env_cfg, tc)
            policy = RoutingPolicy(result.best_params, tc.variant, tc.beta)
            if variant == "no_history":
                report = evaluate(policy, benchmark, env_cfg, eval_episodes,
                                  seed=seed, protocol="inductive",
                                  absorb=False)
            else:
                report = evaluate(policy, benchmark, env_cfg, eval_episodes,
                                  seed=seed, protocol="transductive",
                                  history=result.history, absorb=True,
                                  decay=tc.hub_decay)
            row = {"variant": variant, "seed": seed,
                   "acc": report.mean_utility, "cost": report.mean_cost,
                   "episodes": result.episodes_seen}
            rows.append(row)
            if log is not None:
                log(f"variant={variant} seed={seed} acc={row['acc']:.4f}")
    return rows


# -- transfer probes ---------------------------------------------------------------


def unseen_llm_eval(policy_params, variant: str, beta: float,
                    benchmark: Benchmark, env_cfg: EnvConfig,
                    history: HeteroGraph | None = None, *, level: float,
                    name: str = "held-out-probe", price: float = 0.6,
                    strong_family: int | None = None,
                    eval_episodes: int = 30, seed: int = 0) -> dict:
    """Drop one new model into the pool with zero memory and no re-training.

    With history=None both phases run inductively from empty memory, which
    isolates embedding-based scoring; this is the protocol's primary mode,
    since the probe has no interaction record by definition. Returns the
    paired baseline and extended-pool reports plus the fraction of episodes
    whose (role, model) sequence changed.
    """
    policy = RoutingPolicy(policy_params, variant, beta)
    probe = make_unseen_profile(benchmark, name, level,
                                price_in=price, price_out=price,
                                strong_family=strong_family)
    extended = benchmark.extended_with([probe])
    cfg_ext = replace(env_cfg, n_models=extended.n_models)

    if history is None:
        base_report = evaluate(policy, benchmark, env_cfg, eval_episodes,
                               seed=seed, protocol="inductive", absorb=False)
        ext_report = evaluate(policy, extended, cfg_ext, eval_episodes,
                              seed=seed, protocol="inductive", absorb=False)
    else:
        base_report = evaluate(policy, benchmark, env_cfg, eval_episodes,
                               seed=seed, protocol="transductive",
                               history=history, absorb=False)
        hubs_ext = extended.build_hubs(env_cfg.n_roles)
        hist_ext = rebase_history(history, hubs_ext)
        ext_report = evaluate(policy, extended, cfg_ext, eval_episodes,
                              seed=seed, protocol="transductive",
                              history=hist_ext, absorb=False)

    base_seqs = base_report.action_sequences()
    ext_seqs = ext_report.action_sequences()
    changed = sum(1 for a, b in zip(base_seqs, ext_seqs) if a != b)
    return {
        "base": base_report,
        "extended": ext_report,
        "changed_fraction": changed / max(1, len(base_seqs)),
        "utility_lift": ext_report.mean_utility - base_report.mean_utility,
        "probe_name": name,
    }


def inject_role_interactions(benchmark: Benchmark, history: HeteroGraph, *,
                             n_queries: int = 10, cost_scale: float = 1000.0,
                             decay: float = 0.9,
                             query_offset: int = 90_000) -> int:
    """Seed memory with scripted demonstrations covering every role.

    Each scripted query is worked as one pipeline (planner, thinker,
    executor, verifier, summarizer); every role sees the earlier responses
    as context, so the record shows each role under realistic conditions.
    The executor response resolves its query. Models rotate round robin
    across queries. Hub statistics absorb each response. Returns the number
    of injected responses.
    """
    order = [r for r in (PLANNER, THINKER, EXECUTOR, VERIFIER, SUMMARIZER)
             if r < history.hubs.n_roles]
    K = benchmark.n_models
    injected = 0
    for j in range(n_queries):
        tag = history.new_episode_tag()
        root = benchmark.train_query(query_offset + j)
        history.add_query(replace(root, id=f"{tag}/{root.id}"), episode=tag)
        context: list[ResponseNode] = []
        for r in order:
            m = (j + r) % K
            outcome = benchmark.invoke(m, r, root, context)
            resp = ResponseNode(id=f"{tag}/r{r}",
                                embedding=outcome.response_embedding,
                                produced_by=(r, m),
                                tokens_in=outcome.tokens_in,
                                tokens_out=outcome.tokens_out,
                                quality=outcome.quality)
            history.add_response(f"{tag}/{root.id}", resp,
                                 answers=(r == EXECUTOR), episode=tag)
            context.append(resp)
            dollars = cost_of(outcome.tokens_in, outcome.tokens_out, benchmark.profiles[m])
            update_hub_stats(history.hubs.get(r, m), outcome.quality,
                             dollars * cost_scale, decay=decay)
            injected += 1
    history.enforce_capacity()
    return injected


def new_role_eval(policy_params, variant: str, beta: float,
                  benchmark: Benchmark, env_cfg: EnvConfig,
                  history: HeteroGraph, *, inject_queries: int = 10,
                  eval_episodes: int = 30, seed: int = 0,
                  decay: float = 0.9) -> dict:
    """Grow the action space from the base roles to all five roles.

    base: the original action space. zero_shot: extra role hubs appear with
    empty statistics and no adaptation. few_shot: scripted historical
    interactions are written straight into memory (hub statistics included)
    before evaluation. Policy weights never change in any phase.
    """
    if env_cfg.n_roles != len(BASE_ROLES):
        raise ValueError("the base configuration uses the three core roles")
    policy = RoutingPolicy(policy_params, variant, beta)

    base_report = evaluate(policy, benchmark, env_cfg, eval_episodes,
                           seed=seed, protocol="transductive",
                           history=history, absorb=False)

    cfg_all = replace(env_cfg, n_roles=len(ALL_ROLES))
    hist_zero = rebase_history(history, benchmark.build_hubs(cfg_all.n_roles))
    zero_report = evaluate(policy, benchmark, cfg_all, eval_episodes,
                           seed=seed, protocol="transductive",
                           history=hist_zero, absorb=False)

    hist_few = rebase_history(history, benchmark.build_hubs(cfg_all.n_roles))
    injected = inject_role_interactions(benchmark, hist_few,
                                        n_queries=inject_queries,
                                        cost_scale=env_cfg.cost_scale,
                                        decay=decay)
    few_report = evaluate(policy, benchmark, cfg_all, eval_episodes,
                          seed=seed, protocol="transductive",
                          history=hist_few, absorb=False)

    return {"base": base_report, "zero_shot": zero_report,
            "few_shot": few_report, "injected": injected}


# -- report emission ---------------------------------------------------------------


def report_rows(report: EvalReport, *, variant: str, phase: str, alpha: float,
                seed: int) -> list[dict]:
    """Per-family aggregate rows plus one row over all families."""
    out = []
    families = sorted({r["family"] for r in report.rows})
    groups = [("all", report.rows)]
    groups += [(f, [r for r in report.rows if r["family"] == f])
               for f in families]
    for fam, rows in groups:
        out.append({
            "protocol": report.protocol, "variant": variant, "phase": phase,
            "alpha": alpha, "family": fam, "seed": seed,
            "episodes": len(rows),
            "acc": float(np.mean([r["utility"] for r in rows])),
            "cost": float(np.mean([r["dollars"] for r in rows])),
            "avg_llm_calls": float(np.mean([r["llm_calls"] for r in rows])),
        })
    return out


def emit_report(path: str | Path, rows: list[dict]) -> None:
    write_csv(Path(path), REPORT_COLUMNS, rows)
