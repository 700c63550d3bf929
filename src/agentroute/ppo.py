"""Clipped-surrogate policy optimization over routing episodes.

Collection windows are frozen: parameters and the history snapshot taken at
the start of a window are used for every rollout in it. Rollouts and the
update share `RoutingPolicy`'s plain-array forward: one decision point per
rollout step, and one batched forward per epoch over all decision points of
the window, whose loss gradients this module computes and
`RoutingPolicy.backward` maps back to the weights, as one dict of arrays
that the gradient clip and the two Adam groups take. The weights equal, bit
for bit, those of the same update on the reverse-mode tape that the tests
keep (`tests/tape.py`). The old log-probabilities are the first epoch's
own, so the importance ratio is exactly one on the first epoch by
construction (a batch-of-one recompute can differ from the batched one in the
last bit, so the rollout's values are not reused). A window's episodes run
one after another on the calling thread, each on its own RNG stream keyed by
(seed, update, episode index). `TrainConfig.workers` is validated and
otherwise ignored: it changes neither execution nor any artifact.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import fields
from .backend import ALL_ROLES, Benchmark
from .encoder import VARIANTS, EncoderDims, RoutingPolicy, init_params
from .env import Episode, EnvConfig, RoutingEnv, absorb_episode
from .fields import write_atomic
from .memory import HeteroGraph, serialize
from .streams import det_rng
from .tensor import Adam, clip_global_norm, save_params

CURVE_COLUMNS = ("update", "episodes_seen", "mean_return", "mean_utility",
                 "mean_cost", "entropy", "policy_loss", "value_loss")


@dataclass
class TrainConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    epochs: int = 4
    policy_lr: float = 3e-4
    value_lr: float = 6e-4
    grad_clip: float = 0.5
    episodes_per_update: int = 8
    max_episodes: int = 1000
    entropy_stop: float = 0.05
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    seed: int = 0
    workers: int = 1  # validated only: rollouts always run on one thread
    history_capacity: int = 256
    use_history: bool = True
    hub_decay: float = 0.9
    beta: float = 1.0
    hidden: int = 64
    variant: str = "full"
    running_decay: float = 0.95
    init_scale: float = 1.0

    def __post_init__(self):
        for name in ("beta", "init_scale", "policy_lr", "value_lr", "value_coef",
                     "entropy_coef"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {list(VARIANTS)}, got {self.variant!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.episodes_per_update < 1 or self.max_episodes < 1:
            raise ValueError("episode counts must be positive")
        for name in ("hidden", "history_capacity", "policy_lr", "value_lr", "clip_eps",
                     "grad_clip"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must be in [0, 1]")
        for name in ("running_decay", "hub_decay"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if not (self.value_coef >= 0 and self.entropy_coef >= 0):
            raise ValueError("value_coef and entropy_coef must be nonnegative")


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    best_params: dict[str, np.ndarray]
    curve: list[dict] = field(default_factory=list)
    episodes_seen: int = 0
    stopped_early: bool = False
    history: HeteroGraph | None = None
    meta: dict = field(default_factory=dict)


def compute_gae(episodes: list[Episode], gamma: float,
                lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantages and value targets, flattened in episode order.

    Every episode ends in a terminal state (done or truncation), so the
    bootstrap value past the last step is zero. Returns are advantages plus
    the collected value estimates, computed before any normalization.
    """
    advantages: list[float] = []
    returns: list[float] = []
    for ep in episodes:
        adv = 0.0
        ep_adv = [0.0] * len(ep.records)
        for t in range(len(ep.records) - 1, -1, -1):
            rec = ep.records[t]
            next_value = 0.0 if t == len(ep.records) - 1 else ep.records[t + 1].value
            delta = rec.reward + gamma * next_value - rec.value
            adv = delta + gamma * lam * adv
            ep_adv[t] = adv
        advantages.extend(ep_adv)
        returns.extend(a + r.value for a, r in zip(ep_adv, ep.records))
    return np.asarray(advantages), np.asarray(returns)


def normalize(values: np.ndarray) -> np.ndarray:
    return (values - values.mean()) / (values.std() + 1e-8)


def _policy_group(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: p for k, p in sorted(params.items()) if not k.startswith("value.")}


def _value_group(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: p for k, p in sorted(params.items()) if k.startswith("value.")}


def collect_window(benchmark: Benchmark, env_cfg: EnvConfig, hubs,
                   policy: RoutingPolicy, update: int, first_episode: int,
                   count: int, seed: int) -> list[Episode]:
    """Roll out `count` episodes with frozen policy and history, in index
    order: episode i uses the stream (seed, "rollout", update,
    first_episode + i) and the training query at that global index.
    """
    episodes = []
    for idx in range(first_episode, first_episode + count):
        env = RoutingEnv(env_cfg, benchmark, hubs)
        rng = det_rng(seed, "rollout", update, idx)
        episodes.append(env.run_episode(benchmark.train_query(idx), policy,
                                        mode="sample", rng=rng))
    return episodes


def ppo_loss(probs: np.ndarray, values: np.ndarray, picks: tuple,
             old_logp: np.ndarray, advantages: np.ndarray, returns: np.ndarray,
             cfg: TrainConfig, at: str = "the window"
             ) -> tuple[dict[str, float], np.ndarray, np.ndarray]:
    """The clipped surrogate, value loss and entropy of n decision points,
    each a mean over the points, and the gradients of policy_loss +
    value_coef * value_loss - entropy_coef * entropy with respect to probs
    (N, R*K) and values (N,).

    `picks` indexes each point's action in probs, and old_logp holds the
    collecting policy's log-probabilities of those actions. The loss and its
    gradients are the tape's op for op: where three gradients add up at the
    probabilities the grouping is the tape's, (log-probability + entropy
    product) + safe log. A non-finite loss raises RuntimeError naming `at`.
    """
    n = values.shape[0]
    lo, hi = 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps
    picked = probs[picks]
    ratio = np.exp(np.log(picked) - old_logp)
    inside = (ratio >= lo) & (ratio <= hi)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, lo, hi) * advantages
    take = unclipped <= clipped
    err = values - returns
    pos = probs > 0.0
    log_probs = np.where(pos, np.log(np.where(pos, probs, 1.0)), 0.0)
    policy_loss = np.where(take, unclipped, clipped).sum() * (-1.0 / n)
    value_loss = (err * err).sum() * (1.0 / n)
    entropy = (probs * log_probs).sum() * -1.0 * (1.0 / n)
    loss = (policy_loss + value_loss * cfg.value_coef
            + entropy * -cfg.entropy_coef)
    if not np.isfinite(loss):
        raise RuntimeError(
            f"non-finite loss at {at}: "
            f"policy={np.asarray(policy_loss)!r} "
            f"value={np.asarray(value_loss)!r} "
            f"entropy={np.asarray(entropy)!r} steps={n}")
    g_surr = np.full(n, -1.0 / n)
    g_ratio = (g_surr * take * advantages
               + g_surr * ~take * advantages * inside)
    g_probs = np.zeros_like(probs)
    g_probs[picks] = g_ratio * ratio / picked
    g_plogp = np.full(probs.shape, -cfg.entropy_coef * (1.0 / n) * -1.0)
    g_probs = ((g_probs + g_plogp * log_probs)
               + np.where(pos, g_plogp * probs / np.where(pos, probs, 1.0), 0.0))
    g_err = np.full(n, cfg.value_coef * (1.0 / n)) * err
    stats = {"policy_loss": float(policy_loss), "value_loss": float(value_loss),
             "entropy": float(entropy)}
    return stats, g_probs, g_err + g_err


def ppo_update(params: dict[str, np.ndarray], policy_opt: Adam, value_opt: Adam,
               episodes: list[Episode], advantages: np.ndarray,
               returns: np.ndarray, policy: RoutingPolicy, cfg: TrainConfig,
               update: int) -> dict[str, float]:
    """Run cfg.epochs whole-window epochs, each one batched forward and
    backward over every decision point of the window, and rebind the updated
    weights in `params`; returns the last epoch's `ppo_loss` stats. `policy`
    is built from `params` as they are and prepared on the window's history,
    as the one that collected the window is; the first epoch runs it, and
    each later one builds a policy on the updated weights and prepares it on
    `policy.hist_input`. With `RoutingPolicy.backward`, `ppo_loss` gives the
    weights the tape would, bit for bit.
    """
    records = [rec for ep in episodes for rec in ep.records]
    queries = np.stack([rec.query_embedding for rec in records])
    masks = np.stack([rec.mask for rec in records])
    picks = (np.arange(len(records)),
             np.asarray([rec.action_index for rec in records], dtype=np.int64))
    messages = old_logp = None
    stats = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0}
    for epoch in range(cfg.epochs):
        if epoch:  # the updated weights, on the same history
            hist_input = policy.hist_input
            policy = RoutingPolicy(params, cfg.variant, cfg.beta)
            policy.prepare(hist_input)
        if messages is None:  # the window's, whatever the weights
            messages = policy.messages([rec.wf_input for rec in records])
        fwd = policy.forward(messages, queries, masks)
        if old_logp is None:  # first-epoch ratios are exactly 1
            old_logp = np.log(fwd.probs[picks])
        stats, g_probs, g_values = ppo_loss(
            fwd.probs, fwd.values, picks, old_logp, advantages, returns, cfg,
            f"update {update} epoch {epoch}")
        grads = policy.backward(fwd, g_probs, g_values)
        clip_global_norm(grads, cfg.grad_clip)
        policy_opt.step(params, grads)
        value_opt.step(params, grads)
    return stats


def _snapshot(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: p.copy() for k, p in params.items()}


def build_meta(benchmark: Benchmark, env_cfg: EnvConfig, cfg: TrainConfig,
               dims: EncoderDims) -> dict:
    train_fields = asdict(cfg)
    # changes nothing, so artifacts do not record it
    train_fields.pop("workers")
    return {
        "variant": cfg.variant,
        "beta": cfg.beta,
        "dims": asdict(dims),
        "n_models": len(benchmark.profiles),
        "n_roles": env_cfg.n_roles,
        "roles": [r.name for r in ALL_ROLES[:env_cfg.n_roles]],
        "models": [p.name for p in benchmark.profiles],
        "env": asdict(env_cfg),
        "benchmark": asdict(benchmark.spec),
        "train": train_fields,
    }


def train(benchmark: Benchmark, env_cfg: EnvConfig, cfg: TrainConfig,
          out_dir: str | Path | None = None, log=None) -> TrainResult:
    """Full training loop; optionally writes artifacts under out_dir."""
    if env_cfg.n_models != len(benchmark.profiles):
        raise ValueError("environment and benchmark disagree on the pool size")
    dims = EncoderDims(d_q=benchmark.d_q, d_r=benchmark.d_q,
                       d_hub=benchmark.d_hub, hidden=cfg.hidden)
    params = init_params(dims, cfg.variant, seed=cfg.seed,
                         init_scale=cfg.init_scale)
    policy_opt = Adam(_policy_group(params), lr=cfg.policy_lr)
    value_opt = Adam(_value_group(params), lr=cfg.value_lr)
    hubs = benchmark.build_hubs(env_cfg.n_roles)
    history = HeteroGraph("history", hubs, capacity=cfg.history_capacity)

    result = TrainResult(params=params, best_params=_snapshot(params),
                         history=history,
                         meta=build_meta(benchmark, env_cfg, cfg, dims))
    reward_ema: float | None = None
    best_ema = -np.inf
    update = 0
    while result.episodes_seen < cfg.max_episodes:
        count = min(cfg.episodes_per_update,
                    cfg.max_episodes - result.episodes_seen)
        hist_input = history.hub_state()
        policy = RoutingPolicy(params, cfg.variant, cfg.beta)
        policy.prepare(hist_input)
        episodes = collect_window(benchmark, env_cfg, hubs, policy, update,
                                  result.episodes_seen, count, cfg.seed)
        mean_return = float(np.mean([ep.total_reward for ep in episodes]))
        mean_utility = float(np.mean([ep.utility for ep in episodes]))
        mean_cost = float(np.mean([ep.dollars for ep in episodes]))

        reward_ema = (mean_return if reward_ema is None
                      else cfg.running_decay * reward_ema
                      + (1.0 - cfg.running_decay) * mean_return)
        if reward_ema >= best_ema:
            best_ema = reward_ema
            result.best_params = _snapshot(params)

        advantages, returns = compute_gae(episodes, cfg.gamma, cfg.gae_lambda)
        advantages = normalize(advantages)
        stats = ppo_update(params, policy_opt, value_opt, episodes,
                           advantages, returns, policy, cfg, update)

        # history absorbs the window only after the update that used it
        if cfg.use_history:
            for ep in episodes:
                absorb_episode(history, ep, decay=cfg.hub_decay)

        result.episodes_seen += count
        row = {"update": update, "episodes_seen": result.episodes_seen,
               "mean_return": mean_return, "mean_utility": mean_utility,
               "mean_cost": mean_cost, "entropy": stats["entropy"],
               "policy_loss": stats["policy_loss"],
               "value_loss": stats["value_loss"]}
        result.curve.append(row)
        if log is not None:
            log(f"update {update}: episodes={result.episodes_seen} "
                f"return={mean_return:.4f} entropy={stats['entropy']:.4f}")
        update += 1
        if stats["entropy"] < cfg.entropy_stop:
            result.stopped_early = True
            break

    if out_dir is not None:
        write_artifacts(Path(out_dir), result)
    return result


def write_csv(path: Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    """Atomic CSV write; floats use repr so they round-trip exactly."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(row[c]) if isinstance(row[c], float)
                         else row[c] for c in columns])
    write_atomic(path, buf.getvalue())


def write_artifacts(out_dir: Path, result: TrainResult) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    save_params(out_dir / "params.json", result.params, meta=result.meta)
    save_params(out_dir / "best_params.json", result.best_params,
                meta=result.meta)
    write_csv(out_dir / "curve.csv", CURVE_COLUMNS, result.curve)
    if result.history is not None:
        write_atomic(out_dir / "history.json", serialize(result.history))


def load_policy(checkpoint: str | Path) -> tuple[RoutingPolicy, dict]:
    """The policy a checkpoint holds; a meta that is not an object, or whose
    variant is not a string or beta not a finite number, raises ValueError."""
    from .tensor import load_params
    params, meta = load_params(checkpoint)
    where = "checkpoint meta"
    variant = fields.field(meta, "variant", str, where)
    beta = fields.field(meta, "beta", fields.NUMBER, where)
    if not math.isfinite(beta):
        raise ValueError(f"{where}: field 'beta' is not finite")
    return RoutingPolicy(params, variant, float(beta)), meta
