"""The benchmark's own tests: every workload at its smallest run, and every
output check shown to fail on a corrupted output.

    python3 -m pytest bench/selftest.py

The file name keeps these out of the repository's default test collection;
naming the file runs them.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from agentroute import backend, baselines, memory, ppo  # noqa: E402
from agentroute.env import RoutingEnv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_with_every_check_passing(name):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(next(l for l in lines if l.startswith("info "))[5:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["problems"]
    assert result["attempted"] > 0 and info["problems"] == []
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "oracle-search", "--seed", "0", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["baselines.oracle.states"]["value"] > 1000
    assert result["metrics"]["tensor.backward.calls"]["value"] == 0


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


def test_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "memdep-carry", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_absent_layer_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (
        ("gone.fn", "agentroute.env", "no_such_function"),))
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["agentroute.env.no_such_function"]


# -- each check fails on a corrupted output -------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    wl = workloads.WORKLOADS["memdep-carry"]
    out = tmp_path_factory.mktemp("train")
    bench = backend.make_benchmark(wl.spec, k_models=workloads.K_MODELS)
    ppo.train(bench, wl.env, ppo.TrainConfig(max_episodes=48, seed=0,
                                             history_capacity=40), out_dir=out)
    return wl, (out / "curve.csv").read_text(), (out / "history.json").read_bytes()


def test_curve_check_fails_on_a_tampered_reward(trained):
    wl, curve, _ = trained
    assert checks.curve_problems(curve, wl.env.alpha, wl.env.cost_scale) == []
    lines = curve.splitlines()
    cols = lines[2].split(",")
    cols[2] = repr(float(cols[2]) + 1e-6)          # mean_return of window 1
    lines[2] = ",".join(cols)
    bad = checks.curve_problems("\n".join(lines), wl.env.alpha, wl.env.cost_scale)
    assert [i for i, _ in bad] == [1]


def test_curve_check_fails_on_utility_out_of_range():
    curve = ("update,episodes_seen,mean_return,mean_utility,mean_cost\n"
             "0,8,1.5,1.5,0.0\n")
    assert checks.curve_problems(curve, 0.0, 1000.0)


def test_learning_and_margin_checks_fail_when_nothing_is_learned():
    flat = "mean_utility\n" + "0.5\n" * 8
    assert checks.learning_problems(flat)
    assert checks.margin_problems(0.50, 0.45, 0.10)
    assert checks.margin_problems(0.60, 0.45, 0.10) == []


def _graph(blob: bytes):
    g = memory.deserialize(blob)
    return g, g.freeze()


def test_history_check_fails_on_a_dangling_edge(trained):
    _, _, hist = trained
    assert checks.history_problems(hist, _graph(hist)[1]) == []
    blob = json.loads(hist)
    blob["edges"]["query-response"].append(["ep999/gone", blob["responses"][0]["id"]])
    bad = json.dumps(blob, sort_keys=True).encode()
    assert any("dangling" in p for p in checks.history_problems(bad, _graph(bad)[1]))


def test_history_check_fails_on_a_query_cut_from_a_hub(trained):
    _, _, hist = trained
    blob = json.loads(hist)
    blob["edges"]["query-hub"].pop(0)
    bad = json.dumps(blob, sort_keys=True).encode()
    assert any("adjacent" in p for p in checks.history_problems(bad, _graph(bad)[1]))


def test_history_check_fails_on_capacity_and_tag_gaps(trained):
    _, _, hist = trained
    blob = json.loads(hist)
    blob["capacity"] = 3
    blob["episode_counter"] += 1                    # newest episode went missing
    bad = json.dumps(blob, sort_keys=True).encode()
    problems = checks.history_problems(bad, _graph(hist)[1])
    assert any("capacity" in p for p in problems)
    assert any("most recent" in p for p in problems)


def test_route_check_fails_on_malformed_routes():
    ok = {"actions": [(0, 1), (1, 2), (1, 0)], "truncated": False,
          "utility": 0.7, "dollars": 1e-4, "scaled_cost": 0.1}
    kw = dict(planner=0, executor=1, summarizer=2)
    assert checks.route_problems(ok, 1, 1000.0, **kw) == []
    assert checks.route_problems(ok, 0, 1000.0, **kw)          # planner > p_max
    assert checks.route_problems({**ok, "actions": [(1, 0), (2, 1)]}, 1, 1000.0, **kw)
    assert checks.route_problems({**ok, "actions": [(1, 0), (2, 1)],
                                  "truncated": True}, 1, 1000.0, **kw) == []
    assert checks.route_problems({**ok, "actions": [(2, 0), (2, 1), (1, 1)]},
                                 1, 1000.0, **kw)
    assert checks.route_problems({**ok, "scaled_cost": 0.1001}, 1, 1000.0, **kw)


def test_oracle_check_fails_on_a_wrong_value():
    wl = workloads.WORKLOADS["oracle-search"]
    small = replace(wl, queries=1)
    r = workloads.OracleRunner(small, seed=0, workdir=None,
                               probe=workloads.NoProbe())
    root = r.roots[0]
    plan, value = baselines.oracle_route(wl.env, r.bench, r.hubs, root)
    replayed, one_step = r._replay(root, plan), r._one_step(root)
    assert checks.oracle_problems(value, replayed, one_step) == []
    assert checks.oracle_problems(value + 1e-9, replayed, one_step)
    assert checks.oracle_problems(min(one_step) - 1e-3, replayed, one_step)


def test_held_out_window_shifts_only_eval_queries():
    wl = workloads.WORKLOADS["memdep-carry"]
    bench, _, shifted = workloads.setup(wl, seed=2)
    assert shifted.eval_query(0).id == bench.eval_query(2 * wl.eval_episodes).id
    assert shifted.train_query(5).id == bench.train_query(5).id
    env = RoutingEnv(wl.env, shifted, bench.build_hubs(wl.env.n_roles))
    env.reset(shifted.eval_query(0))


def test_speed_probe_takes_its_own_time_out_of_a_phase():
    probe = workloads.SpeedProbe()
    probe.begin()
    probe.maybe()                       # too soon after begin: no sample
    time.sleep(workloads.PROBE_INTERVAL_S)
    probe.maybe()
    spent, factor = probe.end()
    assert len(probe.samples) == 3 and spent == probe.samples[1]
    assert factor == statistics.median(probe.samples) / workloads.REFERENCE_S
    probe.samples = [1.0, 2.0, 9.0, 4.0]
    assert probe.factors([0, 1, 2, 3]) == [
        x / workloads.REFERENCE_S for x in (1.5, 2.0, 4.0, 6.5)]


def test_reference_figures_divide_each_phase_by_its_factor():
    r = workloads.Round(seconds=3.0, episodes=30, route_ms=[10.0, 20.0],
                        attempted=1, failed=0, digest="",
                        phases={"train": (20, 2.0, 2.0), "eval": (10, 1.0, 0.5)},
                        route_factors=[0.5, 2.0])
    assert r.reference_seconds == 3.0
    assert workloads.reference_route_ms([r]) == [20.0, 10.0]
    figures = workloads.phase_figures([r])
    assert figures["train_episodes_per_s"] == 20.0
    assert figures["train_episodes_per_s_measured"] == 10.0
    assert figures["host_factor_eval"] == 0.5
