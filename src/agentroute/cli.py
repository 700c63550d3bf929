"""Command-line entry points for training, evaluation, and inspection."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baselines import KnnStore
from .config import RunConfig
from .fields import write_atomic
from .harness import (emit_report, evaluate, pareto_sweep, report_rows,
                      run_ablation)
from .memory import deserialize
from .ppo import load_policy, train, write_csv
from .tensor import params_from_jsonable


def _load_config(path: str | None, parser: argparse.ArgumentParser) -> RunConfig:
    if path is None:
        parser.error("--config is required for this command")
    p = Path(path)
    if not p.exists():
        parser.error(f"config file not found: {p}")
    try:
        return RunConfig.load(p)
    except (ValueError, json.JSONDecodeError) as exc:
        parser.error(f"bad config: {exc}")


def cmd_train(args, parser) -> int:
    cfg = _load_config(args.config, parser)
    benchmark = cfg.make_benchmark()
    env_cfg = cfg.make_env_cfg()
    train_cfg = cfg.make_train_cfg(seed=args.seed, workers=args.workers)
    out = Path(args.out or "runs/train")
    out.mkdir(parents=True, exist_ok=True)
    cfg.dump_resolved(out / "config.json")
    result = train(benchmark, env_cfg, train_cfg, out_dir=out,
                   log=print if args.verbose else None)
    last = result.curve[-1] if result.curve else {}
    print(f"trained {result.episodes_seen} episodes "
          f"({len(result.curve)} updates, "
          f"{'early stop' if result.stopped_early else 'budget reached'}); "
          f"final return {last.get('mean_return', float('nan')):.4f}; "
          f"artifacts in {out}")
    return 0


def cmd_eval(args, parser) -> int:
    cfg = _load_config(args.config, parser)
    benchmark = cfg.make_benchmark()
    env_cfg = cfg.make_env_cfg()
    ckpt = Path(args.checkpoint)
    if ckpt.is_dir():
        ckpt = ckpt / "best_params.json"
    if not ckpt.exists():
        parser.error(f"checkpoint not found: {ckpt}")
    policy, meta = load_policy(ckpt)
    protocol = args.protocol or cfg.setting("eval", "protocol")
    episodes = (cfg.setting("eval", "episodes") if args.episodes is None
                else args.episodes)
    seed = cfg.setting("eval", "seed") if args.seed is None else args.seed
    history_path = args.history
    if history_path is None and protocol == "transductive":
        candidate = ckpt.parent / "history.json"
        if candidate.exists():
            history_path = candidate
    report = evaluate(policy, benchmark, env_cfg, episodes, seed=seed,
                      protocol=protocol, history_path=history_path,
                      absorb=cfg.setting("eval", "absorb"),
                      capacity=cfg.setting("train", "history_capacity"),
                      decay=cfg.setting("train", "hub_decay"))
    rows = report_rows(report, variant=meta.get("variant", "full"),
                       phase=env_cfg.phase, alpha=env_cfg.alpha, seed=seed)
    if args.out:
        emit_report(args.out, rows)
        print(f"report written to {args.out}")
    print(f"{protocol}: acc={report.mean_utility:.4f} "
          f"cost=${report.mean_cost:.6f} calls={report.mean_calls:.2f}")
    return 0


def cmd_sweep(args, parser) -> int:
    cfg = _load_config(args.config, parser)
    benchmark = cfg.make_benchmark()
    env_cfg = cfg.make_env_cfg()
    train_cfg = cfg.make_train_cfg(workers=args.workers)
    alphas = [float(a) for a in args.alphas.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    out = args.out or "sweep.csv"
    rows = pareto_sweep(benchmark, env_cfg, train_cfg, alphas, seeds,
                        eval_episodes=args.episodes, out_csv=out,
                        log=print if args.verbose else None)
    print(f"{len(rows)} sweep rows written to {out}")
    return 0


def cmd_ablate(args, parser) -> int:
    cfg = _load_config(args.config, parser)
    benchmark = cfg.make_benchmark()
    env_cfg = cfg.make_env_cfg()
    train_cfg = cfg.make_train_cfg(workers=args.workers)
    variants = tuple(args.variants.split(","))
    seeds = tuple(int(s) for s in args.seeds.split(","))
    rows = run_ablation(benchmark, env_cfg, train_cfg, variants, seeds,
                        eval_episodes=args.episodes,
                        log=print if args.verbose else None)
    if args.out:
        write_csv(Path(args.out), ("variant", "seed", "acc", "cost", "episodes"),
                  rows)
        print(f"ablation written to {args.out}")
    for row in rows:
        print(f"variant={row['variant']} seed={row['seed']} "
              f"acc={row['acc']:.4f} cost=${row['cost']:.6f}")
    return 0


def cmd_genbench(args, parser) -> int:
    cfg = _load_config(args.config, parser)
    benchmark = cfg.make_benchmark()
    sample = [benchmark.train_query(i) for i in range(3)]
    blob = {
        "kind": benchmark.spec.kind,
        "families": list(benchmark.spec.families),
        "queries_per_family": benchmark.spec.queries_per_family,
        "seed": benchmark.spec.seed,
        "models": [{"name": p.name, "scale": p.scale,
                    "price_in": p.price_in, "price_out": p.price_out,
                    "skill_by_role": p.skill.tolist()} for p in benchmark.profiles],
        "sample_query_ids": [q.id for q in sample],
        "sample_difficulties": [benchmark.difficulty_of(q) for q in sample],
    }
    out = Path(args.out or "benchmark.json")
    write_atomic(out, json.dumps(blob, sort_keys=True, indent=2))
    print(f"benchmark description written to {out}")
    return 0


def cmd_inspect(args, parser) -> int:
    target = Path(args.target)
    if not target.exists():
        parser.error(f"no such file: {target}")
    if target.suffix == ".csv":
        text = target.read_text()
        print(text if len(text) < 4000 else text[:4000] + "\n...")
        return 0
    data = target.read_bytes()
    try:
        blob = json.loads(data)
    except json.JSONDecodeError:
        blob = None
    if not isinstance(blob, dict):
        parser.error(f"not a readable artifact: {target}")
    # each loader checks format_version before the summary names it
    if "tensors" in blob:
        params, meta = params_from_jsonable(blob), blob.get("meta", {})
        total = sum(p.size for p in params.values())
        print(f"checkpoint: format v{blob['format_version']}, "
              f"{len(params)} tensors, {total} parameters")
        for name in sorted(params):
            print(f"  {name}: {list(params[name].shape)}")
        if meta:
            print("meta: " + json.dumps(
                {k: meta[k] for k in sorted(meta) if k not in ("env", "train")},
                sort_keys=True))
    elif "queries" in blob:
        g = deserialize(data)
        print(f"history graph: format v{blob['format_version']}, "
              f"{len(g.queries)} queries, "
              f"{len(g.responses)} responses, "
              f"{len(g.episode_order)} episodes, "
              f"{len(g.hubs)} hubs")
        for hub in g.hubs.hubs:
            print(f"  {hub.role_name}/{hub.model_name}: "
                  f"U={hub.utility_ema:.4f} C={hub.cost_ema:.4f}")
    elif "records" in blob:
        store = KnnStore.from_jsonable(blob)
        print(f"kNN store: format v{blob['format_version']}, {len(store)} records")
    else:
        print(json.dumps(blob, indent=2, sort_keys=True)[:4000])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentroute",
        description="Train and evaluate graph-memory routing policies "
                    "over a simulated model pool.")
    parser.add_argument("--verbose", action="store_true",
                        help="per-update progress lines")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run configuration JSON")
        p.add_argument("--out", help="output path")

    p_train = sub.add_parser("train", help="train a routing policy")
    common(p_train)
    p_train.add_argument("--seed", type=int, default=None,
                         help="override the training seed")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p_eval)
    p_eval.add_argument("--seed", type=int, default=None,
                        help="override the evaluation seed (a label for the "
                             "report: greedy evaluation draws nothing)")
    p_eval.add_argument("--checkpoint", required=True,
                        help="params file or training output directory")
    p_eval.add_argument("--protocol", choices=("inductive", "transductive"))
    p_eval.add_argument("--episodes", type=int, default=None)
    p_eval.add_argument("--history", help="history graph file (transductive)")

    # no abbreviations here, so a stray --seed is not read as --seeds
    p_sweep = sub.add_parser("sweep", help="cost-weight trade-off sweep",
                             allow_abbrev=False)
    common(p_sweep)
    p_sweep.add_argument("--alphas", default="0.0,0.1,0.3,0.5,0.7,0.9")
    p_sweep.add_argument("--seeds", default="0")
    p_sweep.add_argument("--episodes", type=int, default=30)

    p_abl = sub.add_parser("ablate", help="encoder variant ablation",
                           allow_abbrev=False)
    common(p_abl)
    p_abl.add_argument("--variants", default="full,homo,hetero,no_history")
    p_abl.add_argument("--seeds", default="0")
    p_abl.add_argument("--episodes", type=int, default=30)
    for p in (p_train, p_sweep, p_abl):
        p.add_argument("--workers", type=int, default=None,
                       help="validated (at least 1), otherwise ignored")

    p_gen = sub.add_parser("genbench", help="describe the benchmark pool")
    common(p_gen)

    p_ins = sub.add_parser("inspect", help="summarize a saved artifact")
    p_ins.add_argument("target", help="checkpoint, history, kNN store or csv file")
    return parser


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "ablate": cmd_ablate,
    "genbench": cmd_genbench,
    "inspect": cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args, parser)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
