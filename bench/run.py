#!/usr/bin/env python3
"""Benchmark for agentroute: train, eval and oracle throughput per workload.

One workload, as the result line a harness reads last:

    python3 bench/run.py --workload memdep-carry --seed 0 --seconds 30 --trace 0

Every workload, each in its own process, written to one results file:

    python3 bench/run.py [--repeat 5] [--trace 1] [--out results.json]

Two results files, per workload, medians and quartiles against the bounds
in BENCHMARK.json:

    python3 bench/run.py --compare before.json after.json

The program is imported from ./src of the checkout this file sits in, never
from an installed copy. BLAS runs single-threaded and training uses one
rollout worker, so a run uses one core.
"""

from __future__ import annotations

import os

# before anything imports numpy: one BLAS thread, recorded in every run
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
SETUP_KERNELS = 10          # reference kernel samples on each side of a probe
CHILD_TIMEOUT_S = 175

# name, unit; reported by every untraced run
END_TO_END = (
    ("episodes_per_s", "episodes/s"),
    ("route_ms_p50", "ms"),
    ("route_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit; reported by every traced run, per round unless the unit says
# otherwise, 0 where a workload never calls the layer
PER_LAYER = (
    ("tensor.backward.s", "s"), ("tensor.backward.calls", "count"),
    ("tensor.adam.s", "s"), ("tensor.clip_norm.s", "s"),
    ("tensor.nodes", "count"),
    ("ppo.train.s", "s"), ("ppo.update.s", "s"), ("ppo.update.calls", "count"),
    ("ppo.collect.s", "s"), ("ppo.gae.s", "s"), ("ppo.write_artifacts.s", "s"),
    ("encoder.prepare.s", "s"), ("encoder.prepare.calls", "count"),
    ("encoder.act.s", "s"), ("encoder.act.calls", "count"),
    ("memory.freeze_history.s", "s"), ("memory.freeze_history.calls", "count"),
    ("memory.freeze_history.per_state", "freezes/state"),
    ("memory.freeze_workflow.s", "s"), ("memory.freeze_workflow.calls", "count"),
    ("memory.absorb.s", "s"), ("memory.absorb.calls", "count"),
    ("memory.serialize.s", "s"), ("memory.deserialize.s", "s"),
    ("memory.history_interactions", "count"), ("memory.history_bytes", "bytes"),
    ("env.legal_mask.s", "s"), ("env.legal_mask.calls", "count"),
    ("env.legal_mask.per_step", "calls/step"),
    ("env.step.s", "s"), ("env.step.calls", "count"),
    ("env.clone.s", "s"), ("env.clone.calls", "count"),
    ("backend.invoke.s", "s"), ("backend.invoke.calls", "count"),
    ("backend.decompose.s", "s"),
    ("streams.det_rng.s", "s"), ("streams.det_rng.calls", "count"),
    ("harness.evaluate.s", "s"), ("harness.trace_check.s", "s"),
    ("baselines.oracle.s", "s"), ("baselines.oracle.states", "states/query"),
    ("trace.overhead_pct", "%"),
)


class BenchError(Exception):
    """A run that cannot produce a result; reported without a result line."""


def import_program():
    """Put ./src first on the path and import agentroute from there only."""
    if not (SRC / "agentroute" / "__init__.py").is_file():
        raise BenchError(f"no agentroute sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import agentroute
    if Path(agentroute.__file__).resolve().parent != (SRC / "agentroute").resolve():
        raise BenchError(f"agentroute imported from {agentroute.__file__}, not {SRC}")


def meta() -> dict:
    import numpy
    files = sorted((SRC / "agentroute").glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "src_sha256": h.hexdigest(), "src_lines": lines,
            "nproc": len(os.sched_getaffinity(0)), "numpy": numpy.__version__,
            "python": sys.version.split()[0],
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}


# -- one workload ------------------------------------------------------------


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Wall time of fresh processes that import and build the pool, median
    at the reference speed and median as measured.

    Each process is timed between two sets of reference kernel samples,
    which give its host factor.
    """
    import workloads
    probe = workloads.SpeedProbe()
    scaled, measured = [], []
    for _ in range(SETUP_PROBES):
        probe.begin()
        for _ in range(SETUP_KERNELS):
            probe.sample()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", name, "--seed", str(seed)],
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        dt = perf_counter() - t0
        for _ in range(SETUP_KERNELS):
            probe.sample()
        _, factor = probe.end()
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        measured.append(dt)
        scaled.append(dt / factor)
    return statistics.median(scaled), statistics.median(measured)


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[name]
    setup_s, setup_measured_s = (None, None) if trace else measure_setup(name, seed)
    workdir = OUT / "work" / f"{name}-s{seed}-{os.getpid()}"
    probe = workloads.NoProbe() if trace else workloads.SpeedProbe()
    run = workloads.runner(wl, seed, workdir, probe)
    rounds, traced_rounds = [], []
    attempted = failed = 0
    problems: list[str] = []
    digests: set[str] = set()
    tracer = None
    t_start = perf_counter()
    try:
        while True:
            k = len(rounds) + len(traced_rounds)
            if trace and rounds and tracer is None:
                # round 0 runs untraced: the checks and the overhead baseline
                tracer = Tracer()
                tracer.install()
            t_round = perf_counter()
            try:
                r = run.round(k, check=(k == 0))
            except Exception:
                traceback.print_exc()
                attempted += run.planned
                failed += run.planned
                problems.append(f"round {k} raised")
                if perf_counter() - t_start >= seconds:
                    break
                continue
            attempted += r.attempted
            failed += r.failed
            problems += list(r.problems)
            if digests and r.digest not in digests:
                failed += r.attempted - r.failed
                problems.append(f"round {k} outputs differ from round 0")
            digests.add(r.digest)
            (traced_rounds if tracer else rounds).append(r)
            # stop where one more round like the last would end past `seconds`
            now = perf_counter()
            done = 2 * now - t_round - t_start >= seconds
            if trace:
                done = done and bool(traced_rounds)
            else:
                done = done and len(rounds) >= wl.min_rounds
            if done:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if not rounds or (trace and not traced_rounds):
        raise BenchError("no round completed")

    info = {"workload": name, "seed": seed, "trace": int(trace),
            "rounds": len(rounds) + len(traced_rounds),
            "digest": sorted(digests), "problems": problems[:20],
            "phases": workloads.phase_figures(rounds)}
    if trace:
        overhead = {
            "untraced_round_s": statistics.median(r.seconds for r in rounds),
            "traced_round_s": statistics.median(r.seconds for r in traced_rounds),
            "untraced_episodes_per_s": statistics.median(
                r.episodes / r.seconds for r in rounds),
            "traced_episodes_per_s": statistics.median(
                r.episodes / r.seconds for r in traced_rounds)}
        metrics = layer_metrics(tracer, traced_rounds, 100.0 * (
            overhead["traced_round_s"] / overhead["untraced_round_s"] - 1.0))
        path = OUT / "traces" / f"{name}-s{seed}-{os.getpid()}.npz"
        tracer.write(path)
        info.update(trace_file=str(path.relative_to(ROOT)), spans=len(tracer.start),
                    absent=tracer.absent, overhead=overhead)
    else:
        samples = workloads.reference_route_ms(rounds)
        metrics = {
            "episodes_per_s": statistics.median(r.episodes / r.reference_seconds
                                                for r in rounds),
            "route_ms_p50": workloads.percentile(samples, 50),
            "route_ms_tail": workloads.percentile(samples, wl.tail_pct),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info.update(route_samples=len(samples), tail_pct=wl.tail_pct,
                    setup_measured_s=setup_measured_s,
                    episodes_per_s_measured=statistics.median(
                        r.episodes / r.seconds for r in rounds))
    units = dict(PER_LAYER if trace else END_TO_END)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": float(metrics[n]), "unit": units[n]}
                        for n in units}}, info


def layer_metrics(tracer, traced, overhead_pct: float) -> dict:
    """Per-layer figures per traced round, from the tracer's totals."""
    n = len(traced)
    out = {}
    for name, _unit in PER_LAYER:
        prefix, _, kind = name.rpartition(".")
        if kind == "s":
            out[name] = tracer.self_s.get(prefix, 0.0) / n
        elif kind == "calls":
            out[name] = tracer.calls.get(prefix, 0) / n
    out["tensor.nodes"] = tracer.counts.get("tensor.nodes", 0) / n
    out["memory.freeze_history.per_state"] = tracer.freeze_history_per_state()
    steps = tracer.calls.get("env.step", 0)
    out["env.legal_mask.per_step"] = tracer.calls.get("env.legal_mask", 0) / steps if steps else 0.0
    queries = tracer.calls.get("baselines.oracle", 0)
    out["baselines.oracle.states"] = (tracer.counts.get("baselines.oracle.states", 0) / queries
                                      if queries else 0.0)
    out["memory.history_interactions"] = traced[-1].history_interactions
    out["memory.history_bytes"] = traced[-1].history_bytes
    out["trace.overhead_pct"] = overhead_pct
    return out


def print_result(result: dict, info: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    for name, value in info["phases"].items():
        print(f"  {name:<34} {value:>16.6g} (phase)")
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed")
    for name, value in info.get("overhead", {}).items():
        print(f"  {name:<34} {value:>16.6g} (tracing overhead)")
    for layer in info.get("absent", []):
        print(f"  absent: {layer}")
    for p in info["problems"]:
        print(f"  problem: {p}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


# -- every workload, results files, comparison -----------------------------------


def run_all(args) -> int:
    import workloads

    runs = []
    for name in workloads.WORKLOADS:
        for rep in range(args.repeat):
            seed = args.seed + rep
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            print(f"== {name} seed {seed}", flush=True)
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}, no result")
                return 1
            info = next(json.loads(l[5:]) for l in lines if l.startswith("info "))
            runs.append({"workload": name, "seed": seed, "trace": args.trace,
                         "result": json.loads(lines[-1]), "info": info})
    out = Path(args.out) if args.out else OUT / time.strftime("results-%Y%m%d-%H%M%S.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"meta": meta(), "runs": runs}, indent=1, sort_keys=True))
    print(f"results: {out}")
    # medians over the repeats, named <workload>.<metric>
    grouped: dict = {}
    for r in runs:
        for n, m in r["result"]["metrics"].items():
            grouped.setdefault(f"{r['workload']}.{n}", (m["unit"], []))[1].append(m["value"])
    print(json.dumps({"correct": all(r["result"]["correct"] for r in runs),
                      "attempted": sum(r["result"]["attempted"] for r in runs),
                      "failed": sum(r["result"]["failed"] for r in runs),
                      "metrics": {n: {"value": statistics.median(v), "unit": u}
                                  for n, (u, v) in grouped.items()}}, sort_keys=True))
    return 0


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def compare(a_path: str, b_path: str) -> int:
    """Per workload and metric: median [q1, q3] of A and B, and the verdict.

    A metric is WORSE when B's median is worse than A's by more than its
    bound, and unresolved when A's own quartile spread exceeds the bound.
    Also reports failed operations and whether runs of the same workload
    and seed produced the same output digests. Exits 1 on any WORSE.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    def load(path):
        values: dict = {}
        ops: dict = {}
        digests: dict = {}
        for run in json.loads(Path(path).read_text())["runs"]:
            w, res = run["workload"], run["result"]
            n_ok = ops.setdefault(w, [0, 0])
            n_ok[0] += res["attempted"]
            n_ok[1] += res["failed"]
            digests[(w, run["seed"])] = run["info"]["digest"]
            if run["trace"]:
                continue
            metrics = {n: m["value"] for n, m in res["metrics"].items()}
            metrics.update(run["info"]["phases"])
            for n, v in metrics.items():
                values.setdefault((w, n), []).append(v)
        return values, ops, digests

    (a, ops_a, dig_a), (b, ops_b, dig_b) = load(a_path), load(b_path)
    fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
    regressed = 0
    print(f"{'workload':<20} {'metric':<22} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B worse':>8}  bound  verdict")
    for key in sorted(set(a) & set(b)):
        w, n = key
        qa, qb = _quartiles(a[key]), _quartiles(b[key])
        lower = e2e[n]["better"] == "lower" if n in e2e else n == "history_bytes"
        worse = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1) if qa[1] else 0.0
        bound = e2e.get(n, {}).get("bound")
        if bound is None:
            verdict = "no bound"
        elif worse > bound:
            verdict, regressed = "WORSE", regressed + 1
        elif qa[1] and (qa[2] - qa[0]) / qa[1] > bound:
            verdict = "unresolved"
        else:
            verdict = "ok"
        print(f"{w:<20} {n:<22} {fmt(qa):>30} {fmt(qb):>30} {worse:>+8.1%}  "
              f"{'' if bound is None else f'{bound:.2f}':>5}  {verdict}")
    for w in sorted(set(ops_a) & set(ops_b)):
        print(f"{w}: failed {ops_a[w][1]}/{ops_a[w][0]} in A, {ops_b[w][1]}/{ops_b[w][0]} in B")
    same = [k for k in dig_a if k in dig_b]
    differ = [k for k in same if dig_a[k] != dig_b[k]]
    print(f"digests: {len(same) - len(differ)} of {len(same)} shared "
          f"(workload, seed) runs identical" + (f"; differ: {differ}" if differ else ""))
    return 1 if regressed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="one workload name, or 'all' to run each in its own process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1,
                   help="with --workload all: seeds seed..seed+repeat-1 per workload")
    p.add_argument("--out", help="with --workload all: results file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        import_program()
        if args.setup_probe:
            import workloads
            workloads.setup(workloads.WORKLOADS[args.setup_probe], args.seed)
            return 0
        if args.workload == "all":
            return run_all(args)
        import workloads
        if args.workload not in workloads.WORKLOADS:
            p.error(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")
        print("meta " + json.dumps(meta(), sort_keys=True), flush=True)
        result, info = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_result(result, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
