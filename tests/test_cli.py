"""CLI tests: exit codes, artifact round-trips, config validation."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import agentroute
from agentroute.backend import make_benchmark
from agentroute.baselines import KnnStore
from agentroute import cli
from agentroute.cli import main
from agentroute.config import BENCHMARK_DEFAULTS, RunConfig
from agentroute.harness import emit_report, evaluate, report_rows
from agentroute.memory import deserialize, serialize
from agentroute.ppo import load_policy
from agentroute.tensor import save_params

TINY = {
    "benchmark": {"kind": "uniform", "families": 2, "queries_per_family": 10,
                  "width_profile": [1, 2], "seed": 5, "k_models": 2},
    "env": {"p_max": 1},
    "train": {"hidden": 8, "episodes_per_update": 4, "max_episodes": 8,
              "epochs": 2},
    "eval": {"episodes": 2},
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return path


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


# -- argument errors (exit code 2) ------------------------------------------------


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_train_without_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train"])
    assert exc.value.code == 2


def test_missing_config_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", "/no/such/file.json"])
    assert exc.value.code == 2


def test_unknown_config_key(tmp_path, capsys):
    bad = write_config(tmp_path, {"benchmark": {"kind": "uniform"},
                                  "mystery": {}})
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(bad)])
    assert exc.value.code == 2


def test_workers_only_on_training_commands(tiny_config, tmp_path, capsys):
    for argv in (["eval", "--checkpoint", str(tmp_path)], ["genbench"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(tiny_config), "--workers", "2"])
        assert exc.value.code == 2


def test_seed_only_on_train_and_eval(tiny_config, capsys):
    for command in ("genbench", "sweep", "ablate"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(tiny_config), "--seed", "1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("obj", [
    {"benchmark": {"k_models": "four"}},
    {"benchmark": {"difficulty": 0.3}},
    {"benchmark": {"width_profile": [1, "2"]}},
    {"env": {"p_max": "2"}},
    {"env": {"alpha": True}},
    {"train": {"epochs": "4"}},
    {"train": {"use_history": 1}},
    {"eval": {"episodes": 2.5}},
    {"env": [1]},
])
def test_wrong_json_type_is_usage_error(obj, tmp_path, capsys):
    with pytest.raises(ValueError):
        RunConfig.from_dict(obj)
    with pytest.raises(SystemExit) as exc:
        main(["genbench", "--config", str(write_config(tmp_path, obj))])
    assert exc.value.code == 2


def test_eval_missing_checkpoint(tiny_config, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", str(tiny_config),
              "--checkpoint", str(tmp_path / "nope.json")])
    assert exc.value.code == 2


def test_inspect_missing_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["inspect", "/no/such/artifact.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", ["5", "null", '"params"', "[1, 2]", "{"])
def test_inspect_non_object_json_is_usage_error(text, tmp_path, capsys):
    path = tmp_path / "artifact.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["inspect", str(path)])
    assert exc.value.code == 2
    assert "not a readable artifact" in capsys.readouterr().err


# -- runtime errors (exit code 1) ---------------------------------------------------


def test_invalid_env_value_is_runtime_error(tmp_path, capsys):
    bad = write_config(tmp_path, {**TINY, "env": {"p_max": -1}})
    assert main(["train", "--config", str(bad),
                 "--out", str(tmp_path / "run")]) == 1
    assert "error:" in capsys.readouterr().err
    # more roles than the role table holds: one line, not a traceback
    bad = write_config(tmp_path, {**TINY, "env": {"n_roles": 6}})
    assert main(["train", "--config", str(bad),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n_roles") and err.count("\n") == 1
    bad = write_config(tmp_path, {"benchmark": {"difficulty": [0.3]}})
    assert main(["genbench", "--config", str(bad),
                 "--out", str(tmp_path / "bench.json")]) == 1
    assert "difficulty" in capsys.readouterr().err
    # query widths below 3 leave no free coordinate (d_q 1 raised IndexError)
    for d_q in (1, 2):
        bad = write_config(tmp_path, {**TINY, "benchmark": {**TINY["benchmark"],
                                                            "d_q": d_q}})
        assert main(["train", "--config", str(bad),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: d_q") and err.count("\n") == 1
    # hub widths below 3 leave no room for the role/model embedding
    # (d_hub 1 printed a numpy error, d_hub 2 warned of a 0/0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d_hub in (1, 2):
            bad = write_config(tmp_path, {"benchmark": {
                "kind": "memory-dependent", "d_hub": d_hub}})
            assert main(["genbench", "--config", str(bad),
                         "--out", str(tmp_path / "bench.json")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: d_hub") and err.count("\n") == 1
    # a negative or NaN noise sigma passed genbench, and train wrote
    # config.json before numpy refused it with "high - low < 0"
    for sigma in (-1, float("nan")):
        bad = write_config(tmp_path, {"benchmark": {"noise_sigma": sigma}})
        assert main(["genbench", "--config", str(bad),
                     "--out", str(tmp_path / "bench.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: noise_sigma") and err.count("\n") == 1
        bad = write_config(tmp_path, {**TINY, "benchmark": {**TINY["benchmark"],
                                                            "noise_sigma": sigma}})
        assert main(["train", "--config", str(bad),
                     "--out", str(tmp_path / "noisy")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: noise_sigma") and err.count("\n") == 1
        assert not (tmp_path / "noisy" / "config.json").exists()
    # a catalog entry without a scale raised KeyError
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps([{"name": "a"}]))
    bad = write_config(tmp_path, {"benchmark": {"catalog": str(catalog)}})
    assert main(["genbench", "--config", str(bad),
                 "--out", str(tmp_path / "bench.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: catalog entry 0") and err.count("\n") == 1
    assert not (tmp_path / "bench.json").exists()


@pytest.mark.parametrize("key, value", [("width_profile", [0]), ("families", [0, 0]),
                                        ("margin", -5.0)])
def test_genbench_refuses_a_value_outside_its_domain(tmp_path, capsys, key, value):
    bad = write_config(tmp_path, {"benchmark": {key: value}})
    out = tmp_path / "bench.json"
    assert main(["genbench", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1
    assert not out.exists()


# a family label is a JSON integer or string; these were accepted as labels
@pytest.mark.parametrize("labels, index", [
    ([0, True], 1), ([1.5], 0), ([0.0, 1], 0), (["a", None], 1), ([[0]], 0),
    ([0, "b", {"a": 1}], 2)])
def test_family_labels_must_be_integers_or_strings(tmp_path, capsys, labels, index):
    with pytest.raises(ValueError, match=rf"^benchmark\.families: item {index} "):
        RunConfig.from_dict({"benchmark": {"families": labels}})
    # a value of the wrong JSON type is a usage error, as in
    # test_wrong_json_type_is_usage_error
    bad = write_config(tmp_path, {"benchmark": {"families": labels}})
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        main(["genbench", "--config", str(bad), "--out", str(out)])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"benchmark.families: item {index} " in errors[0]
    assert not out.exists()
    # integer and string labels, mixed, still build a pool
    spec = RunConfig.from_dict({"benchmark": {"families": [0, "b", 7]}}).make_spec()
    assert spec.families == (0, "b", 7)


def test_corrupt_history_file_is_one_line_error(tiny_config, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config),
                 "--out", str(run_dir)]) == 0
    blob = json.loads((run_dir / "history.json").read_text())
    blob["hubs"][0]["role_embedding"] = {"not": "numbers"}
    corrupt = {  # file name: (content, word the message must contain)
        "mutated.json": (json.dumps(blob), "role_embedding"),
        "truncated.json": ((run_dir / "history.json").read_text()[:100],
                           "corrupt")}
    src = str(Path(agentroute.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, (text, word) in corrupt.items():
        (tmp_path / name).write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "agentroute.cli", "eval", "--config",
             str(tiny_config), "--checkpoint", str(run_dir), "--protocol",
             "transductive", "--episodes", "2", "--history",
             str(tmp_path / name)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "Traceback" not in proc.stderr and word in lines[0]


# -- end-to-end (exit code 0) --------------------------------------------------------


def test_train_then_eval_roundtrip(tiny_config, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config),
                 "--out", str(run_dir)]) == 0
    for name in ("params.json", "best_params.json", "curve.csv",
                 "history.json", "config.json"):
        assert (run_dir / name).exists()
    out = capsys.readouterr().out
    assert "trained 8 episodes" in out

    report = tmp_path / "report.csv"
    assert main(["eval", "--config", str(tiny_config),
                 "--checkpoint", str(run_dir), "--protocol", "inductive",
                 "--episodes", "2", "--out", str(report)]) == 0
    assert report.exists()
    assert "inductive: acc=" in capsys.readouterr().out

    # transductive picks up history.json sitting next to the checkpoint
    assert main(["eval", "--config", str(tiny_config),
                 "--checkpoint", str(run_dir), "--protocol", "transductive",
                 "--episodes", "2"]) == 0
    assert "transductive: acc=" in capsys.readouterr().out


def test_eval_uses_the_run_config_memory_settings(tmp_path, monkeypatch, capsys):
    obj = {**TINY, "train": {**TINY["train"], "hub_decay": 0.5,
                             "history_capacity": 40}}
    path = write_config(tmp_path, obj)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(run_dir)]) == 0
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", spy)
    report = tmp_path / "report.csv"
    assert main(["eval", "--config", str(path), "--checkpoint", str(run_dir),
                 "--protocol", "transductive", "--out", str(report)]) == 0
    assert (calls[0]["decay"], calls[0]["capacity"]) == (0.5, 40)
    cfg = RunConfig.load(path)
    env_cfg = cfg.make_env_cfg()
    policy, meta = load_policy(run_dir / "best_params.json")
    lib = evaluate(policy, cfg.make_benchmark(), env_cfg, 2, protocol="transductive",
                   history_path=run_dir / "history.json", decay=0.5)
    emit_report(tmp_path / "lib.csv", report_rows(lib, variant=meta.get("variant", "full"),
                                                  phase=env_cfg.phase,
                                                  alpha=env_cfg.alpha, seed=0))
    assert report.read_bytes() == (tmp_path / "lib.csv").read_bytes()


def test_an_empty_evaluation_is_a_one_line_error(tiny_config, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config), "--out", str(run_dir)]) == 0
    capsys.readouterr()
    for command in (["eval", "--checkpoint", str(run_dir)], ["sweep"], ["ablate"]):
        for n in ("0", "-2"):
            assert main([*command, "--config", str(tiny_config), "--episodes", n]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: evaluation needs at least one episode")
            assert err.count("\n") == 1


def test_sweep_command(tiny_config, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(tiny_config), "--alphas", "0.0,0.5",
                 "--seeds", "0", "--episodes", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,seed,acc,cost"
    assert len(lines) == 3


def test_ablate_command(tiny_config, tmp_path, capsys):
    out = tmp_path / "ablation.csv"
    assert main(["ablate", "--config", str(tiny_config),
                 "--variants", "full,no_history", "--seeds", "0",
                 "--episodes", "2", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "variant=full" in text and "variant=no_history" in text
    assert out.exists()


def test_genbench_command(tiny_config, tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["genbench", "--config", str(tiny_config),
                 "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["kind"] == "uniform"
    assert len(blob["models"]) == 2
    assert len(blob["sample_query_ids"]) == 3


def test_inspect_artifacts(tiny_config, tmp_path, capsys):
    run_dir = tmp_path / "run"
    main(["train", "--config", str(tiny_config), "--out", str(run_dir)])
    capsys.readouterr()

    assert main(["inspect", str(run_dir / "params.json")]) == 0
    out = capsys.readouterr().out
    assert "checkpoint:" in out and "fuse.W" in out

    assert main(["inspect", str(run_dir / "history.json")]) == 0
    out = capsys.readouterr().out
    assert "history graph:" in out

    assert main(["inspect", str(run_dir / "curve.csv")]) == 0
    out = capsys.readouterr().out
    assert "mean_return" in out


GOLDEN_HISTORY_V1 = Path(__file__).parent / "data" / "history_v1.json"
V1_FILES = {
    "checkpoint": json.dumps({"format_version": 1, "tensors": {
        "w": {"data": [0.5, -1.0, 2.0], "shape": [1, 3]}}}),
    "history": GOLDEN_HISTORY_V1.read_text(),
    "knn": json.dumps({"format_version": 1, "records": [
        {"actions": [1, 0], "embedding": [0.5, -1.0]}]}),
}


def write_v2(kind: str, path: Path) -> None:
    if kind == "checkpoint":
        save_params(path, {"w": np.array([[0.5, -1.0, 2.0]])})
    elif kind == "history":
        path.write_bytes(serialize(deserialize(GOLDEN_HISTORY_V1.read_bytes())))
    else:
        store = KnnStore()
        store.add(np.array([0.5, -1.0]), [1, 0])
        store.save(path)


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("kind, summary", [
    ("checkpoint", "checkpoint: format v{}, 1 tensors, 3 parameters"),
    ("history", "history graph: format v{}, 3 queries, 7 responses"),
    ("knn", "kNN store: format v{}, 1 records"),
])
def test_inspect_names_the_format_version(kind, summary, version, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    if version == 1:
        path.write_text(V1_FILES[kind])
    else:
        write_v2(kind, path)
    assert json.loads(path.read_text())["format_version"] == version
    assert main(["inspect", str(path)]) == 0
    assert capsys.readouterr().out.startswith(summary.format(version))


# -- config object ---------------------------------------------------------------------


def test_runconfig_rejects_unknown_sections():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"bench": {}})
    with pytest.raises(ValueError):
        RunConfig.from_dict({"benchmark": {"kind": "uniform", "pool": 3}})
    with pytest.raises(ValueError):
        RunConfig.from_dict({"env": {"n_models": 4}})  # derived, not settable
    with pytest.raises(ValueError):
        RunConfig.from_dict({"env": {"gamma": 0.9}})  # the discount is train.gamma
    with pytest.raises(ValueError):
        RunConfig.from_dict({"benchmark": {"kind": "magic"}})


def test_benchmark_defaults_match_make_benchmark():
    params = inspect.signature(make_benchmark).parameters
    shared = set(params) & set(BENCHMARK_DEFAULTS)
    assert shared == {"k_models", "d_q", "d_hub", "catalog", "difficulty",
                      "noise_sigma", "margin", "skill_overrides"}
    for key in shared:
        assert BENCHMARK_DEFAULTS[key] == params[key].default, key


def test_runconfig_family_count_expansion():
    cfg = RunConfig.from_dict({"benchmark": {"families": 4}})
    assert cfg.make_spec().families == (0, 1, 2, 3)


def test_runconfig_resolved_is_stable(tmp_path):
    cfg = RunConfig.from_dict(TINY)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cfg.dump_resolved(a)
    cfg.dump_resolved(b)
    assert a.read_bytes() == b.read_bytes()
    blob = json.loads(a.read_text())
    assert blob["benchmark"]["k_models"] == 2
    assert blob["train"]["hidden"] == 8
    assert blob["eval"]["episodes"] == 2
    # the defaults' resolved config, pinned byte for byte
    RunConfig.from_dict({}).dump_resolved(a)
    assert hashlib.sha256(a.read_bytes()).hexdigest() == \
        "7c7729561c47c80ab14492d54f39565c8bab08aad3fdd48aaa7ef75512caeda0"
