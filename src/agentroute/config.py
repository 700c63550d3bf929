"""Run configuration: one JSON file describing benchmark, env, and training.

Unknown keys and values of the wrong JSON type are rejected everywhere, so
typos fail loudly instead of silently running defaults. The resolved
configuration (every default made explicit) is written next to training
artifacts for reproducibility.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .backend import (Benchmark, BenchmarkSpec, KINDS, load_catalog,
                      make_benchmark)
from .env import EnvConfig
from .fields import NUMBER, field as checked_field, items, write_atomic
from .ppo import TrainConfig

BENCHMARK_DEFAULTS = {
    "kind": "separable", "families": 3, "queries_per_family": 100,
    "width_profile": (2, 3), "seed": 0, "k_models": 4, "d_q": 64, "d_hub": 64,
    "difficulty": (0.1, 0.5), "noise_sigma": 0.05, "margin": 0.2,
    "skill_overrides": None, "catalog": None,  # catalog: a catalog file's path
}
EVAL_DEFAULTS = {"protocol": "inductive", "episodes": 30, "seed": 0, "absorb": True}
# each section's settable keys and their defaults; env's n_models is k_models
SECTIONS = {
    "benchmark": BENCHMARK_DEFAULTS,
    "env": {f.name: f.default for f in fields(EnvConfig) if f.name != "n_models"},
    "train": {f.name: f.default for f in fields(TrainConfig)},
    "eval": EVAL_DEFAULTS,
}
# JSON types a benchmark value may have besides its default's
EXTRA_TYPES = {"families": (list,), "skill_overrides": (dict,), "catalog": (str,)}


def _json_types(default, key: str | None = None) -> tuple:
    """The JSON types of a value with this default: a float also takes an
    integer, a tuple is a list, and a JSON bool is no number."""
    own = (NUMBER if isinstance(default, float) else
           (list,) if isinstance(default, tuple) else (type(default),))
    return own + EXTRA_TYPES.get(key, ())


def _checked(obj: dict, defaults: dict, where: str) -> dict:
    """A copy of a config or config section, after checking its keys and that
    each value (and each item of a list standing for a tuple) has its type."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(defaults))
    if unknown:
        raise ValueError(f"unknown keys in {where}: {unknown}")
    for key in obj:
        checked_field(obj, key, _json_types(defaults[key], key), where)
        if isinstance(defaults[key], tuple):
            items(obj, key, _json_types(defaults[key][0]), where)
    return dict(obj)


@dataclass
class RunConfig:
    benchmark: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    eval: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        obj = _checked(obj, SECTIONS, "config")
        cfg = cls(**{name: _checked(obj.get(name, {}), defaults, name)
                     for name, defaults in SECTIONS.items()})
        if cfg.setting("benchmark", "kind") not in KINDS:
            raise ValueError(f"unknown benchmark kind: {cfg.benchmark['kind']!r}")
        families = cfg.setting("benchmark", "families")
        for i, label in enumerate(families if isinstance(families, list) else ()):
            # bool subclasses int, but a JSON true/false is no label
            if isinstance(label, bool) or not isinstance(label, (int, str)):
                raise ValueError(f"benchmark.families: item {i} must be a JSON "
                                 f"integer or string, got {json.dumps(label)}")
        return cfg

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def setting(self, section: str, key: str):
        """A section's value as given, or its default."""
        return getattr(self, section).get(key, SECTIONS[section][key])

    # -- builders -----------------------------------------------------------------

    def make_spec(self) -> BenchmarkSpec:
        families = self.setting("benchmark", "families")
        if isinstance(families, int):
            families = range(families)
        return BenchmarkSpec(
            kind=self.setting("benchmark", "kind"),
            families=tuple(families),
            queries_per_family=self.setting("benchmark", "queries_per_family"),
            width_profile=tuple(self.setting("benchmark", "width_profile")),
            seed=self.setting("benchmark", "seed"),
        )

    def make_benchmark(self) -> Benchmark:
        catalog = self.setting("benchmark", "catalog")
        return make_benchmark(
            self.make_spec(),
            catalog=load_catalog(catalog) if catalog else None,
            difficulty=tuple(self.setting("benchmark", "difficulty")),
            **{k: self.setting("benchmark", k) for k in
               ("k_models", "d_q", "d_hub", "noise_sigma", "margin",
                "skill_overrides")},
        )

    def make_env_cfg(self) -> EnvConfig:
        return EnvConfig(n_models=self.setting("benchmark", "k_models"), **self.env)

    def make_train_cfg(self, seed: int | None = None,
                       workers: int | None = None) -> TrainConfig:
        kw = dict(self.train)
        if seed is not None:
            kw["seed"] = seed
        if workers is not None:
            kw["workers"] = workers
        return TrainConfig(**kw)

    def resolved(self) -> dict:
        """Every default made explicit; stable across identical inputs."""
        return {
            "benchmark": {**{k: self.setting("benchmark", k) for k in BENCHMARK_DEFAULTS},
                          **asdict(self.make_spec())},
            "env": asdict(self.make_env_cfg()),
            "train": asdict(self.make_train_cfg()),
            "eval": {k: self.setting("eval", k) for k in EVAL_DEFAULTS},
        }

    def dump_resolved(self, path: str | Path) -> None:
        write_atomic(path, json.dumps(self.resolved(), sort_keys=True, indent=2))
