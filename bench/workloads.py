"""The three workloads: what each runs per round, times and checks.

A round is a fixed amount of work and a run repeats whole rounds, so every
run attempts the same operations in the same proportions. An operation is
one training window, one evaluation episode or one oracle query.

The seed picks the held-out queries a round routes; the pool and the
training run are fixed per workload. Training is what decides how long
multi-step episodes get, so letting the seed retrain would change the amount
of work from seed to seed (greedy episodes of 1.1 to 15.5 steps on the
multi-step pool across train seeds 0-5) and the spread would measure the
policy, not the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from agentroute import backend, baselines, harness, memory, ppo
from agentroute.env import Action, EnvConfig, RoutingEnv

import checks


@dataclass(frozen=True)
class TrainEval:
    """Train with artifacts, then transductive eval from history.json."""
    name: str
    why: str
    spec: backend.BenchmarkSpec
    env: EnvConfig
    train_episodes: int
    eval_episodes: int
    absorb: bool
    tail_pct: int
    # set on the c06 pool: learning must show and carried memory must beat
    # the best fixed executor by this much
    margin: float | None = None
    min_rounds: int = 1


@dataclass(frozen=True)
class OracleSearch:
    """Exhaustive oracle over held-out queries; no policy anywhere."""
    name: str
    why: str
    spec: backend.BenchmarkSpec
    env: EnvConfig
    queries: int
    tail_pct: int
    min_rounds: int


WORKLOADS = {w.name: w for w in (
    TrainEval(
        name="memdep-carry",
        why="PPO update dominates training and eval writes memory after "
            "every episode: moves with ppo_update and history writes",
        spec=backend.BenchmarkSpec(kind="memory-dependent",
                                   families=(0, 1, 2, 3),
                                   queries_per_family=300,
                                   width_profile=(1,), seed=11),
        env=EnvConfig(n_models=4, p_max=0, width=2, max_steps=16, alpha=0.0),
        train_episodes=400, eval_episodes=200, absorb=True, tail_pct=98,
        margin=0.10, min_rounds=3),
    TrainEval(
        name="multistep-readonly",
        why="long five-role episodes and read-only memory: moves with env, "
            "backend, workflow freeze and a cached history encoding",
        spec=backend.BenchmarkSpec(kind="separable", families=(0, 1, 2),
                                   queries_per_family=300,
                                   width_profile=(3,), seed=7),
        env=EnvConfig(n_models=4, n_roles=5, p_max=2, width=3,
                      max_steps=16, alpha=0.1),
        train_episodes=160, eval_episodes=100, absorb=False, tail_pct=96,
        min_rounds=3),
    OracleSearch(
        name="oracle-search",
        why="no policy, encoder or PPO: simulator, env transitions and "
            "workflow cloning do all the work",
        spec=backend.BenchmarkSpec(kind="separable", families=(0, 1, 2),
                                   queries_per_family=300,
                                   width_profile=(2,), seed=7),
        env=EnvConfig(n_models=4, n_roles=3, p_max=1, width=2,
                      max_steps=16, alpha=0.1),
        queries=20, tail_pct=90, min_rounds=5),
)}

K_MODELS = 4
TRAIN_SEED = 0
RERUN_EPISODES = 5
# the reference kernel runs at most this often inside a timed phase
PROBE_INTERVAL_S = 0.05
# fixed scale of the host factor: a little under the reference kernel's
# fastest time seen (1.8 ms on a 2-vCPU Xeon VM, Python 3.11)
REFERENCE_S = 1.6e-3


class HeldOutWindow(backend.Benchmark):
    """The same pool, with held-out query i read at index first + i."""

    def __init__(self, base: backend.Benchmark, first: int):
        self.__dict__.update(vars(base))
        self.first = first

    def eval_query(self, i: int):
        return super().eval_query(self.first + i)


@dataclass
class Round:
    seconds: float                  # timed work only, reference kernel excluded
    episodes: int                   # episodes routed in the timed work
    route_ms: list[float]
    attempted: int
    failed: int
    digest: str
    phases: dict                    # phase name -> (count, seconds, host factor)
    route_factors: list[float]      # host factor at each route_ms sample
    history_interactions: int = 0
    history_bytes: int = 0
    problems: tuple = ()

    @property
    def reference_seconds(self) -> float:
        """The timed work at the reference speed: each phase over its factor."""
        return sum(sec / f for _, sec, f in self.phases.values())


def _reference_kernel() -> int:
    """Fixed allocation-heavy Python work, slowed by the host as the program is."""
    objs = [(i, [i, i + 1], {"k": i}) for i in range(3000)]
    return sum(o[1][1] + o[2]["k"] for o in objs)


class SpeedProbe:
    """Times the reference kernel between the program's calls in a phase.

    The host's speed drifts by up to 2x for seconds to minutes, and a
    small allocation-heavy kernel slows with it about as much as the
    program does. A phase's host factor is the median kernel time over
    REFERENCE_S; a phase's time over its factor is its time at the
    reference speed. A routed episode's factor comes from the three samples
    nearest it in time. The kernel runs outside every timed span, and its
    own time inside a phase is taken out of the phase.
    """

    def __init__(self):
        self.active = False
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = 0.0

    def sample(self) -> float:
        t0 = perf_counter()
        _reference_kernel()
        self._last = perf_counter()
        dt = self._last - t0
        self.samples.append(dt)
        return dt

    def begin(self) -> None:
        """One sample just before the phase's clock starts."""
        self.samples, self.spent = [], 0.0
        self.sample()
        self.active = True

    def maybe(self) -> None:
        """A sample if the last one is PROBE_INTERVAL_S old; its time counted."""
        if self.active and perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.spent += self.sample()

    def mark(self) -> int:
        """The index of the latest sample, for an episode starting now."""
        return len(self.samples) - 1

    def end(self) -> tuple[float, float]:
        """One sample after the phase's clock stops: (time spent, factor)."""
        self.active = False
        self.sample()
        return self.spent, statistics.median(self.samples) / REFERENCE_S

    def factors(self, marks: list[int]) -> list[float]:
        """After end(): per mark, the median of the sample before it, the one
        after it and the one before that, over REFERENCE_S."""
        return [statistics.median(self.samples[max(i - 1, 0):i + 2]) / REFERENCE_S
                for i in marks]


class NoProbe:
    """Stands in for SpeedProbe in traced runs, whose spans it would pad."""

    def begin(self) -> None:
        pass

    def maybe(self) -> None:
        pass

    def mark(self) -> int:
        return 0

    def end(self) -> tuple[float, float]:
        return 0.0, 1.0

    def factors(self, marks: list[int]) -> list[float]:
        return [1.0] * len(marks)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(hashlib.sha256(p).digest())
    return h.hexdigest()


class RouteClock:
    """Times RoutingEnv.run_episode while `active`; one wrapper, no spans.

    Before each episode it also gives the speed probe its chance to sample,
    in training and in evaluation alike.
    """

    def __init__(self, probe):
        self.active = False
        self.samples: list[float] = []
        self.marks: list[int] = []
        self._orig = RoutingEnv.__dict__["run_episode"]
        clock, orig = self, self._orig

        def run_episode(env, *a, **k):
            probe.maybe()
            if not clock.active:
                return orig(env, *a, **k)
            clock.marks.append(probe.mark())
            t0 = perf_counter()
            try:
                return orig(env, *a, **k)
            finally:
                clock.samples.append((perf_counter() - t0) * 1e3)
        RoutingEnv.run_episode = run_episode

    def close(self) -> None:
        RoutingEnv.run_episode = self._orig


def setup(wl, seed: int):
    """Build the pool and hubs: what a run pays before its first timed call."""
    bench = backend.make_benchmark(wl.spec, k_models=K_MODELS)
    hubs = bench.build_hubs(wl.env.n_roles)
    if isinstance(wl, OracleSearch):
        first = seed * wl.queries
        return bench, hubs, [bench.eval_query(first + i) for i in range(wl.queries)]
    return bench, hubs, HeldOutWindow(bench, seed * wl.eval_episodes)


class TrainEvalRunner:
    def __init__(self, wl: TrainEval, seed: int, workdir: Path, probe):
        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.bench, self.hubs, self.heldout = setup(wl, seed)
        self.probe = probe
        self.clock = RouteClock(probe)
        self.cfg = ppo.TrainConfig(max_episodes=wl.train_episodes,
                                   seed=TRAIN_SEED, workers=1)
        # operations a round attempts, counted as failed if it raises
        self.planned = (math.ceil(wl.train_episodes / self.cfg.episodes_per_update)
                        + wl.eval_episodes)

    def close(self) -> None:
        self.clock.close()

    def round(self, k: int, check: bool) -> Round:
        wl = self.wl
        out = self.workdir / f"round{k}"
        self.probe.begin()
        t0 = perf_counter()
        result = ppo.train(self.bench, wl.env, self.cfg, out_dir=out)
        train_s = perf_counter() - t0
        train_probe_s, train_f = self.probe.end()
        self.clock.samples, self.clock.marks = [], []
        self.probe.begin()
        t1 = perf_counter()
        self.clock.active = True
        try:
            policy, _ = ppo.load_policy(out / "best_params.json")
            report = harness.evaluate(
                policy, self.heldout, wl.env, wl.eval_episodes, seed=self.seed,
                protocol="transductive", history_path=out / "history.json",
                absorb=wl.absorb, decay=self.cfg.hub_decay)
        finally:
            self.clock.active = False
        eval_s = perf_counter() - t1
        eval_probe_s, eval_f = self.probe.end()
        route_factors = self.probe.factors(self.clock.marks)

        files = {n: (out / n).read_bytes() for n in
                 ("curve.csv", "params.json", "best_params.json", "history.json")}
        rows = json.dumps(report.rows, sort_keys=True).encode()
        windows = len(result.curve)
        phases = {"train": (result.episodes_seen, train_s - train_probe_s, train_f),
                  "eval": (len(report.rows), eval_s - eval_probe_s, eval_f)}
        r = Round(seconds=phases["train"][1] + phases["eval"][1],
                  episodes=result.episodes_seen + len(report.rows),
                  route_ms=list(self.clock.samples),
                  attempted=windows + len(report.rows), failed=0,
                  digest=_sha(*files.values(), rows),
                  phases=phases, route_factors=route_factors,
                  history_interactions=result.history.interaction_count,
                  history_bytes=len(files["history.json"]))
        if check:
            self._check(r, out, files, policy, report, windows)
        shutil.rmtree(out, ignore_errors=True)
        return r

    def _check(self, r: Round, out: Path, files: dict, policy, report,
               windows: int) -> None:
        wl, env = self.wl, self.wl.env
        bad_windows: set[int] = set()
        bad_episodes: set[int] = set()
        problems = []

        curve = files["curve.csv"].decode()
        for i, p in checks.curve_problems(curve, env.alpha, env.cost_scale):
            bad_windows.add(i)
            problems.append(f"window {i}: {p}")
        train_level = []
        if wl.margin is not None:
            train_level += checks.learning_problems(curve)
        hist = files["history.json"]
        loaded = memory.deserialize(hist)
        train_level += [f"after training: {p}"
                        for p in checks.history_problems(hist, loaded.freeze())]
        if memory.serialize(loaded) != hist:
            train_level.append("history serialize/load/serialize is not byte-identical")
        if train_level:
            bad_windows.update(range(windows))
            problems += train_level

        for i, row in enumerate(report.rows):
            for p in checks.route_problems(
                    row, env.p_max, env.cost_scale, planner=backend.PLANNER,
                    executor=backend.EXECUTOR, summarizer=backend.SUMMARIZER):
                bad_episodes.add(i)
                problems.append(f"episode {i}: {p}")
        eval_level = []
        if wl.margin is not None:
            eval_level += checks.margin_problems(report.mean_utility,
                                                 self._best_fixed_executor(),
                                                 wl.margin)
        # the same evaluation on a live graph exposes the memory it leaves
        harness.evaluate(policy, self.heldout, env, wl.eval_episodes,
                         seed=self.seed, protocol="transductive",
                         history=loaded, absorb=wl.absorb,
                         decay=self.cfg.hub_decay)
        after = memory.serialize(loaded)
        eval_level += [f"after eval: {p}"
                       for p in checks.history_problems(after, loaded.freeze())]
        if not wl.absorb and after != hist:
            eval_level.append("read-only eval changed the loaded history")
        if (out / "history.json").read_bytes() != hist:
            eval_level.append("eval rewrote history.json")
        rerun = harness.evaluate(policy, self.heldout, env, RERUN_EPISODES,
                                 seed=self.seed, protocol="transductive",
                                 history_path=out / "history.json",
                                 absorb=wl.absorb, decay=self.cfg.hub_decay)
        if rerun.rows != report.rows[:RERUN_EPISODES]:
            eval_level.append(f"first {RERUN_EPISODES} episodes differ on a re-run")
        if eval_level:
            bad_episodes.update(range(len(report.rows)))
            problems += eval_level
        r.failed = len(bad_windows) + len(bad_episodes)
        r.problems = tuple(problems)

    def _best_fixed_executor(self) -> float:
        """Best mean utility of always sending the query to one executor."""
        env = self.wl.env
        best = -math.inf
        for m in range(env.n_models):
            action = env.action_index(Action(backend.EXECUTOR, m))
            total = 0.0
            for i in range(self.wl.eval_episodes):
                ep = RoutingEnv(env, self.heldout, self.hubs).run_episode(
                    self.heldout.eval_query(i), baselines.ScriptedPolicy([action]),
                    mode="greedy")
                total += ep.utility
            best = max(best, total / self.wl.eval_episodes)
        return best


class OracleRunner:
    def __init__(self, wl: OracleSearch, seed: int, workdir: Path, probe):
        self.wl = wl
        self.bench, self.hubs, self.roots = setup(wl, seed)
        self.probe = probe
        self.planned = wl.queries

    def close(self) -> None:
        pass

    def round(self, k: int, check: bool) -> Round:
        env = self.wl.env
        plans, times, marks = [], [], []
        self.probe.begin()
        t0 = perf_counter()
        for root in self.roots:
            self.probe.maybe()
            marks.append(self.probe.mark())
            t = perf_counter()
            plans.append(baselines.oracle_route(env, self.bench, self.hubs, root))
            times.append((perf_counter() - t) * 1e3)
        seconds = perf_counter() - t0
        probe_s, f = self.probe.end()
        seconds -= probe_s
        r = Round(seconds=seconds, episodes=len(plans), route_ms=times,
                  attempted=len(plans), failed=0,
                  digest=_sha(repr(plans).encode()),
                  phases={"oracle": (len(plans), seconds, f)},
                  route_factors=self.probe.factors(marks))
        if check:
            problems = []
            for i, (root, (plan, value)) in enumerate(zip(self.roots, plans)):
                ps = checks.oracle_problems(value, self._replay(root, plan),
                                            self._one_step(root))
                if ps:
                    r.failed += 1
                    problems += [f"query {i}: {p}" for p in ps]
            r.problems = tuple(problems)
        return r

    def _replay(self, root, plan: list[int]) -> float:
        clean = self.bench.with_noise(False)
        ep = RoutingEnv(self.wl.env, clean, self.hubs).run_episode(
            root, baselines.ScriptedPolicy(plan), mode="greedy")
        return ep.total_reward

    def _one_step(self, root) -> list[float]:
        clean = self.bench.with_noise(False)
        out = []
        for m in range(self.wl.env.n_models):
            env = RoutingEnv(self.wl.env, clean, self.hubs)
            env.reset(root)
            reward, done, _ = env.step(Action(backend.EXECUTOR, m))
            if done:
                out.append(reward)
        return out


def runner(wl, seed: int, workdir: Path, probe):
    cls = OracleRunner if isinstance(wl, OracleSearch) else TrainEvalRunner
    return cls(wl, seed, workdir, probe)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


PHASE_FIGURES = {"train": "train_episodes_per_s", "eval": "eval_episodes_per_s",
                 "oracle": "oracle_queries_per_s"}


def reference_route_ms(rounds: list[Round]) -> list[float]:
    """Every routed episode's time at the reference speed, over all rounds."""
    return [ms / f for r in rounds for ms, f in zip(r.route_ms, r.route_factors)]


def phase_figures(rounds: list[Round]) -> dict:
    """Per-phase throughputs at the reference speed and as measured, and the
    host factors (medians over rounds), and the history size."""
    out = {}
    for p in rounds[0].phases:
        name = PHASE_FIGURES[p]
        out[name] = statistics.median(n * f / sec for n, sec, f in
                                      (r.phases[p] for r in rounds))
        out[name + "_measured"] = statistics.median(n / sec for n, sec, _ in
                                                    (r.phases[p] for r in rounds))
        out[f"host_factor_{p}"] = statistics.median(r.phases[p][2] for r in rounds)
    if rounds[0].history_bytes:
        out["history_bytes"] = rounds[0].history_bytes
    return out
