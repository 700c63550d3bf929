"""Deterministic LLM-pool simulator and synthetic benchmark generator.

No network calls anywhere: model behavior is a fixed skill table plus hashed
noise streams, so any (seed, query, action) triple replays bit-identically.
Query embeddings reserve coordinate 0 for a difficulty scalar and coordinate 1
for a draft-role marker; family content lives in the remaining coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import fields
from .memory import QueryNode, ResponseNode, RoleHubNode, HubSet
from .streams import det_rng

# -- roles -------------------------------------------------------------------


@dataclass(frozen=True)
class RoleSpec:
    name: str
    description: str
    tokens_in_mu: float   # lognormal location for prompt tokens
    tokens_out_mu: float  # lognormal location for completion tokens


# Descriptions are this package's own one-line summaries; they only feed the
# hashed text embeddings and the CLI inspect output.
BASE_ROLES: list[RoleSpec] = [
    RoleSpec("planner", "splits a query into smaller sub-queries", math.log(150.0), math.log(90.0)),
    RoleSpec("executor", "answers the current query directly", math.log(240.0), math.log(180.0)),
    RoleSpec("summarizer", "fuses resolved sub-answers into one synthesis", math.log(380.0), math.log(260.0)),
]

EXTRA_ROLES: list[RoleSpec] = [
    RoleSpec("thinker", "drafts intermediate analysis before execution", math.log(240.0), math.log(220.0)),
    RoleSpec("verifier", "checks an existing draft and repairs its answer", math.log(200.0), math.log(120.0)),
]

ALL_ROLES: list[RoleSpec] = BASE_ROLES + EXTRA_ROLES

# a role is its index into ALL_ROLES everywhere; an env with n_roles active
# roles offers ALL_ROLES[:n_roles]
PLANNER, EXECUTOR, SUMMARIZER, THINKER, VERIFIER = range(5)

TOKEN_SIGMA = 0.25

# -- model catalog -------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    scale: str        # small | medium | large
    price_in: float   # dollars per 1M prompt tokens
    price_out: float  # dollars per 1M completion tokens


DEFAULT_CATALOG: list[CatalogEntry] = [
    CatalogEntry("Qwen2.5 (7B)", "small", 0.20, 0.20),
    CatalogEntry("CodeGemma (7B)", "small", 0.20, 0.20),
    CatalogEntry("Mistral (7B)", "small", 0.20, 0.20),
    CatalogEntry("LLaMA-3.1 (8B)", "small", 0.20, 0.20),
    CatalogEntry("LLaMA-3 ChatQA (8B)", "small", 0.20, 0.20),
    CatalogEntry("Gemma-2 (9B)", "small", 0.20, 0.20),
    CatalogEntry("Mistral-Nemo (12B)", "small", 0.30, 0.30),
    CatalogEntry("LLaMA-3.3 Nemotron Super (49B)", "medium", 0.90, 0.90),
    CatalogEntry("LLaMA-3.1 Nemotron (51B)", "medium", 0.90, 0.90),
    CatalogEntry("Mixtral (8x7B)", "medium", 0.60, 0.60),
    CatalogEntry("LLaMA-3 ChatQA (70B)", "medium", 0.90, 0.90),
    CatalogEntry("Mixtral (8x22B)", "large", 1.20, 1.20),
]


def load_catalog(path: str) -> list[CatalogEntry]:
    """Entries of a JSON list of models; a malformed one is a ValueError."""
    with open(path) as fh:
        rows = json.load(fh)
    if not isinstance(rows, list):
        raise ValueError(f"catalog: expected a JSON list, got {type(rows).__name__}")
    out = []
    for i, r in enumerate(rows):
        where = f"catalog entry {i}"
        out.append(CatalogEntry(
            fields.field(r, "name", str, where), fields.field(r, "scale", str, where),
            float(fields.field(r, "price_in", fields.NUMBER, where)),
            float(fields.field(r, "price_out", fields.NUMBER, where))))
    return out


@dataclass
class LLMProfile:
    name: str
    scale: str
    price_in: float
    price_out: float
    skill: np.ndarray      # (n_roles_total, n_families) in [0, 1]
    embedding: np.ndarray  # (d_hub - 2,)


@dataclass
class ActionOutcome:
    response_embedding: np.ndarray
    quality: float
    tokens_in: int
    tokens_out: int


@dataclass(frozen=True)
class BenchmarkSpec:
    kind: str                      # separable | memory-dependent | uniform
    families: tuple[str, ...]
    queries_per_family: int
    width_profile: tuple[int, ...]
    seed: int


KINDS = ("separable", "memory-dependent", "uniform")

EVAL_INDEX_OFFSET = 100_000


def _hashed_text_embedding(text: str, dim: int) -> np.ndarray:
    # norm sqrt(dim): coordinates stay O(1) so learned projections see a
    # usable signal scale at any embedding width
    v = det_rng("text-embed", text).normal(size=dim)
    return v / np.linalg.norm(v) * np.sqrt(dim)


def _call_draws(seed: int, query_id: str, role_index: int, model_name: str,
               noise_sigma: float | None) -> tuple[float, int, int]:
    """The hashed draws of one (query, role, model) call, independent of
    context: the quality noise (0.0 when `noise_sigma` is None) and the prompt
    and completion token counts."""
    role = ALL_ROLES[role_index]
    noise_term = 0.0
    if noise_sigma is not None:
        noise_rng = det_rng(seed, "noise", query_id, role.name, model_name)
        noise_term = noise_rng.uniform(-noise_sigma, noise_sigma)
    # the same two standard normals `normal()` twice would draw; its 0.0 +
    # 1.0 * z turns only a -0.0 into +0.0, which mu + sigma * z hides
    z_in, z_out = det_rng(seed, "tokens", query_id, role.name,
                          model_name).standard_normal(2).tolist()
    t_in = 1 + int(round(math.exp(role.tokens_in_mu + TOKEN_SIGMA * z_in)))
    t_out = 1 + int(round(math.exp(role.tokens_out_mu + TOKEN_SIGMA * z_out)))
    return noise_term, t_in, t_out


def _response_noise(seed: int, query_id: str, role_index: int, model_name: str,
                    d_q: int) -> np.ndarray:
    """The response-embedding noise term of one call: the hashed noise with
    its two reserved coordinates zeroed, times 0.15; read-only, so a memoised
    copy stays put."""
    role = ALL_ROLES[role_index]
    noise_vec = det_rng(seed, "resp", query_id, role.name, model_name).normal(size=d_q)
    noise_vec[0] = 0.0
    noise_vec[1] = 0.0
    noise_vec = 0.15 * noise_vec
    noise_vec.flags.writeable = False
    return noise_vec


def _memoised(draws: dict | None, key: tuple, draw):
    """`draw(*key[1:])`, read through the memo `draws` when one is given;
    key[0] names the kind of draw."""
    if draws is None:
        return draw(*key[1:])
    out = draws.get(key)
    if out is None:
        out = draws[key] = draw(*key[1:])
    return out


def cost_of(tokens_in: int, tokens_out: int, profile: LLMProfile) -> float:
    """Dollar cost of one invocation, linear in both token counts."""
    return (tokens_in / 1e6) * profile.price_in + (tokens_out / 1e6) * profile.price_out


class Benchmark:
    """A frozen task distribution plus the simulated model pool serving it."""

    def __init__(self, spec: BenchmarkSpec, profiles: list[LLMProfile],
                 family_dirs: np.ndarray, d_q: int,
                 difficulty: tuple[float, float], noise_sigma: float,
                 noise: bool = True):
        self.spec = spec
        self.profiles = profiles
        self.family_dirs = family_dirs
        self.d_q = d_q
        self.difficulty = difficulty
        self.noise_sigma = noise_sigma
        self.noise = noise

    # -- basic accessors ------------------------------------------------------

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def n_models(self) -> int:
        return len(self.profiles)

    @property
    def n_families(self) -> int:
        return len(self.spec.families)

    @property
    def d_hub(self) -> int:
        # hub features are the role/model embedding plus the two running stats
        return self.profiles[0].embedding.shape[0] + 2

    def with_noise(self, flag: bool) -> "Benchmark":
        """This pool with its noise on or off. A noise-free pool draws no
        quality noise, so every call's quality is the model's systematic
        one, and no response noise (`invoke`); its token counts are the
        noisy pool's."""
        return Benchmark(self.spec, self.profiles, self.family_dirs, self.d_q,
                         self.difficulty, self.noise_sigma, noise=flag)

    def extended_with(self, extra: list[LLMProfile]) -> "Benchmark":
        return Benchmark(self.spec, self.profiles + list(extra), self.family_dirs,
                         self.d_q, self.difficulty, self.noise_sigma, noise=self.noise)

    # -- queries ---------------------------------------------------------------

    def generate_query(self, family: int, index: int) -> QueryNode:
        if not (0 <= family < self.n_families):
            raise ValueError(f"unknown family index: {family}")
        if index < 0:
            raise ValueError("query index must be nonnegative")
        rng = det_rng(self.seed, "query", family, index)
        lo, hi = self.difficulty
        diff = lo + (hi - lo) * rng.uniform()
        emb = np.zeros(self.d_q)
        emb[0] = diff
        content = self.family_dirs[family] + 0.30 * self._content_noise(rng)
        emb += content
        profile = self.spec.width_profile
        hint = profile[index % len(profile)] if profile else 1
        return QueryNode(id=f"f{family}q{index}", embedding=emb, depth=0,
                         parent=None, family=family, width_hint=int(hint))

    def _content_noise(self, rng: np.random.Generator) -> np.ndarray:
        v = rng.normal(size=self.d_q)
        v[0] = 0.0
        v[1] = 0.0
        return v / np.linalg.norm(v) * np.sqrt(self.d_q)

    def train_query(self, i: int) -> QueryNode:
        return self.generate_query(i % self.n_families, i // self.n_families)

    def eval_query(self, i: int) -> QueryNode:
        return self.generate_query(i % self.n_families,
                                   EVAL_INDEX_OFFSET + i // self.n_families)

    @staticmethod
    def difficulty_of(query: QueryNode) -> float:
        return min(max(float(query.embedding[0]), 0.0), 1.0)

    @staticmethod
    def content_of(embedding: np.ndarray) -> np.ndarray:
        c = embedding.copy()
        c[0] = 0.0
        c[1] = 0.0
        return c

    # -- model behavior ----------------------------------------------------------

    def _context_bonus(self, context: list[ResponseNode]) -> float:
        if not context:
            return 0.0
        thinker = sum(1 for c in context if c.produced_by[0] == THINKER)
        return min(0.15, 0.05 * (len(context) - thinker)) + (0.15 if thinker else 0.0)

    def _calls(self, role_index: int, query: QueryNode, context: list[ResponseNode],
               draws: dict | None, models) -> list[tuple[float, tuple]]:
        """(quality, hashed draws) of a `role_index` call on `query` with
        `context` by each model of `models`; the context bonus, the difficulty
        and the context's quality floor are computed once for all of them.
        `draws`, when given, memoises the draws (`_call_draws`) across calls."""
        if not (0 <= role_index < len(ALL_ROLES)):
            raise ValueError(f"unknown role index: {role_index}")
        bonus = self._context_bonus(context)
        diff = self.difficulty_of(query)
        # A verify pass returns the best draft, never below the verifier's
        # own level; an executor never answers below a verified draft.
        verify = role_index == VERIFIER and bool(context)
        if verify:
            floor = max(c.quality for c in context)
        elif role_index == EXECUTOR:
            floor = max((c.quality for c in context
                         if c.produced_by[0] == VERIFIER), default=None)
        else:
            floor = None
        out = []
        for m in models:
            profile = self.profiles[m]
            drawn = _memoised(draws, ("call", self.seed, query.id, role_index,
                                      profile.name,
                                      self.noise_sigma if self.noise else None),
                              _call_draws)
            skill = float(profile.skill[role_index, query.family])
            quality = min(max(skill + bonus - 0.5 * diff + drawn[0], 0.0), 1.0)
            if floor is not None:
                quality = max(quality, floor, skill) if verify else max(quality, floor)
            out.append((quality, drawn))
        return out

    def invoke(self, model_index: int, role_index: int, query: QueryNode,
               context: list[ResponseNode], draws: dict | None = None) -> ActionOutcome:
        """Simulate one model call; bitwise deterministic per (seed, inputs).

        The response embedding is (2q - 1) times the query's content, plus
        hashed response noise that only a noisy pool draws. No reward, mask
        or episode end reads a response embedding.

        `draws`, when given, memoises the call's hashed draws (see
        `_call_draws` and `_response_noise`) across calls; one episode and its
        clones share one. `invoke_pool` reads the same quality and token
        counts for every model at once, without the response embedding; the
        oracle scores its terminal and its shared roles with it, one pass per
        (state, role).
        """
        if not (0 <= model_index < self.n_models):
            raise ValueError(f"unknown model index: {model_index}")
        [(quality, (_, t_in, t_out))] = self._calls(
            role_index, query, context, draws, (model_index,))
        emb = (2.0 * quality - 1.0) * query.embedding
        if self.noise:
            # the noise is 0 at both reserved coordinates, which are set below
            emb += _memoised(draws, ("resp", self.seed, query.id, role_index,
                                     self.profiles[model_index].name, self.d_q),
                             _response_noise)
        emb[0] = 0.0
        emb[1] = 1.0 if role_index == THINKER else 0.0

        return ActionOutcome(response_embedding=emb, quality=quality,
                             tokens_in=t_in, tokens_out=t_out)

    def invoke_pool(self, role_index: int, query: QueryNode,
                    context: list[ResponseNode],
                    draws: dict | None = None) -> list[tuple[float, int, int]]:
        """(quality, tokens_in, tokens_out) of `invoke(m, role_index, query,
        context, draws)` for every model m of the pool, bit for bit, in one
        pass that reads the draws through the same memo and key and builds no
        response embedding."""
        return [(quality, drawn[1], drawn[2]) for quality, drawn
                in self._calls(role_index, query, context, draws, range(self.n_models))]

    def decompose(self, query: QueryNode, width: int) -> list[QueryNode]:
        """Split a query into exactly `width` easier children."""
        if width < 1:
            raise ValueError("decompose width must be >= 1")
        rng = det_rng(self.seed, "decomp", query.id)
        parent_diff = self.difficulty_of(query)
        parent_content = self.content_of(query.embedding)
        out = []
        for i in range(width):
            factor = 0.45 + 0.10 * rng.uniform()
            child_diff = parent_diff * factor
            perturb = rng.normal(size=self.d_q)
            perturb[0] = 0.0
            perturb[1] = 0.0
            perturb *= np.sqrt(self.d_q) / np.linalg.norm(perturb)
            emb = parent_content + 0.25 * perturb
            emb[0] = child_diff
            out.append(QueryNode(
                id=f"{query.id}.{i}", embedding=emb, depth=query.depth + 1,
                parent=query.id, family=query.family,
                width_hint=max(1, query.width_hint - 1)))
        return out

    def summary_query(self, root: QueryNode, child_answers: list[ResponseNode]) -> QueryNode:
        """Synthesis query whose resolution finishes a summarized episode."""
        emb = self.content_of(root.embedding)
        if child_answers:
            emb = emb + 0.2 * mean([self.content_of(c.embedding) for c in child_answers])
        emb[0] = 0.3 * self.difficulty_of(root)
        return QueryNode(id=f"{root.id}.s", embedding=emb, depth=root.depth + 1,
                         parent=root.id, family=root.family, is_summary=True,
                         width_hint=1)

    # -- hubs -----------------------------------------------------------------

    def role_text_embedding(self, role_index: int) -> np.ndarray:
        role = ALL_ROLES[role_index]
        return _hashed_text_embedding(f"role: {role.name}: {role.description}",
                                      self.profiles[0].embedding.shape[0])

    def hub_embedding(self, role_index: int, model_index: int) -> np.ndarray:
        """The role embedding build_hubs gives hub (role, model)."""
        return 0.5 * (self.role_text_embedding(role_index)
                      + self.profiles[model_index].embedding)

    def build_hubs(self, n_roles: int) -> HubSet:
        """Fresh zero-statistics hub set over the first n_roles roles."""
        hubs = []
        for r in range(n_roles):
            # hub_embedding(r, m), drawing the role's text embedding once
            text = self.role_text_embedding(r)
            for m in range(self.n_models):
                hubs.append(RoleHubNode(
                    role_index=r, model_index=m,
                    role_name=ALL_ROLES[r].name,
                    model_name=self.profiles[m].name,
                    role_embedding=0.5 * (text + self.profiles[m].embedding)))
        return HubSet(hubs, n_roles=n_roles, n_models=self.n_models)


def mean(xs: list):
    """`np.mean(xs, axis=0)` bit for bit, for a non-empty list of floats or of
    equal-length float vectors: the same `np.add.reduce` divided by the same
    count, without np.mean's dispatch, which costs three times the sum on a
    list of two or three floats."""
    return np.add.reduce(xs) / len(xs)


def final_utility(answer_quality: float, sub_qualities: list[float],
                  summarized: bool, mode: str = "continuous",
                  sub_mean: float | None = None) -> float:
    """Task utility of a finished episode.

    The final answer quality stands alone unless a summarizer was used, in
    which case it is averaged with the mean resolved sub-answer quality
    (`sub_mean` when the caller has computed it as `float(mean(sub_qualities))`).
    Binary mode thresholds at 0.5.
    """
    if mode not in ("continuous", "binary"):
        raise ValueError(f"unknown utility mode: {mode!r}")
    u = float(answer_quality)
    if summarized:
        if not sub_qualities:
            raise ValueError("summarized episode without resolved sub-answers")
        if sub_mean is None:
            sub_mean = float(mean(sub_qualities))
        u = 0.5 * (u + sub_mean)
    if mode == "binary":
        return 1.0 if u >= 0.5 else 0.0
    return u


# -- pool construction -----------------------------------------------------------


def _skill_anchor_dirs(seed: int, n_families: int, dim: int) -> np.ndarray:
    dirs = np.stack([det_rng(seed, "skill-anchor", f).normal(size=dim)
                     for f in range(n_families)])
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * np.sqrt(dim)


def skill_correlated_embedding(seed: int, skill: np.ndarray, name: str,
                               n_families: int, dim: int,
                               executor_row: int = EXECUTOR) -> np.ndarray:
    """Profile embedding whose direction encodes the executor skill vector."""
    anchors = _skill_anchor_dirs(seed, n_families, dim)
    base = skill[executor_row] @ anchors
    jitter = det_rng(seed, "embed-jitter", name).normal(size=dim)
    return base + 0.15 * jitter * np.sqrt(dim) / np.linalg.norm(jitter)


def _fill_extra_roles(t: np.ndarray) -> None:
    """Set a skill table's thinker and verifier rows from its executor row."""
    t[THINKER] = np.clip(t[EXECUTOR] - 0.1, 0.0, 1.0)
    t[VERIFIER] = t[EXECUTOR].copy()


def _build_skills(kind: str, seed: int, n_models: int, n_families: int,
                  margin: float, overrides: dict[str, float] | None) -> list[np.ndarray]:
    """Per-model (n_roles_total, n_families) skill tables for one benchmark kind."""
    row_of = {r.name: i for i, r in enumerate(ALL_ROLES)}
    tables = []
    for m in range(n_models):
        t = np.zeros((len(ALL_ROLES), n_families))
        for f in range(n_families):
            if kind == "separable":
                # top level 0.75 leaves headroom for stronger held-out probes
                dominant = f % n_models == m
                if dominant:
                    base = 0.75
                else:
                    u = det_rng(seed, "skill-jitter", m, f).uniform()
                    base = 0.75 - margin - 0.05 * u
                for r in (PLANNER, EXECUTOR, SUMMARIZER):
                    t[r, f] = base
            elif kind == "memory-dependent":
                specialist = f % n_models == m
                t[EXECUTOR, f] = 0.9 if specialist else 0.5
                t[PLANNER, f] = 0.6
                t[SUMMARIZER, f] = 0.65
            elif kind == "uniform":
                for r in (PLANNER, EXECUTOR, SUMMARIZER):
                    t[r, f] = 0.7
            else:
                raise ValueError(f"unknown benchmark kind: {kind!r}")
        _fill_extra_roles(t)
        if overrides:
            for role_name, val in overrides.items():
                if role_name not in row_of:
                    raise ValueError(f"unknown role in skill override: {role_name!r}")
                t[row_of[role_name], :] = val
        tables.append(np.clip(t, 0.0, 1.0))
    return tables


def make_benchmark(spec: BenchmarkSpec, k_models: int = 4,
                   d_q: int = 64, d_hub: int = 64,
                   catalog: list[CatalogEntry] | None = None,
                   difficulty: tuple[float, float] = (0.1, 0.5),
                   noise_sigma: float = 0.05, margin: float = 0.2,
                   skill_overrides: dict[str, float] | None = None) -> Benchmark:
    """Build the benchmark instance and its simulated model pool.

    Models are drawn evenly across the catalog so the pool spans the price
    range. Separable and uniform pools get skill-correlated embeddings;
    memory-dependent pools mask skills from the embeddings entirely.
    """
    if spec.kind not in KINDS:
        raise ValueError(f"unknown benchmark kind: {spec.kind!r}")
    if k_models < 1:
        raise ValueError("pool needs at least one model")
    if d_q < 3:
        raise ValueError("d_q must be at least 3: query coordinates 0 and 1 are reserved")
    if d_hub < 3:
        raise ValueError("d_hub must be at least 3: two hub features are running stats")
    if not noise_sigma >= 0:  # written so that NaN fails too
        raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
    if spec.queries_per_family < 1:
        raise ValueError("queries_per_family must be positive")
    if not spec.families:
        raise ValueError("at least one family is required")
    # compared with ==, so labels from a JSON config need not be hashable
    if any(f in spec.families[:i] for i, f in enumerate(spec.families)):
        raise ValueError(f"families must not repeat a label, got {list(spec.families)}")
    if any(w < 1 for w in spec.width_profile):
        raise ValueError("width_profile entries must be at least 1, "
                         f"got {list(spec.width_profile)}")
    if not margin >= 0:  # written so that NaN fails too
        raise ValueError(f"margin must be non-negative, got {margin}")
    if len(difficulty) != 2 or not (0.0 < difficulty[0] <= difficulty[1] <= 1.0):
        raise ValueError("difficulty must be a range (lo, hi) with 0 < lo <= hi <= 1")
    catalog = catalog if catalog is not None else DEFAULT_CATALOG
    if k_models > len(catalog):
        raise ValueError("pool size exceeds the catalog")

    if k_models == 1:
        picks = [0]
    else:
        picks = [round(j * (len(catalog) - 1) / (k_models - 1)) for j in range(k_models)]
    entries = [catalog[i] for i in picks]

    n_families = len(spec.families)
    skills = _build_skills(spec.kind, spec.seed, k_models, n_families, margin,
                           skill_overrides)
    d_embed = d_hub - 2
    profiles = []
    if spec.kind == "memory-dependent":
        # one shared embedding and one flat price for the whole pool: the
        # models are then interchangeable to any fixed weight matrix, and
        # the specialist assignment is identifiable only through the
        # accumulated interaction record
        shared = det_rng(spec.seed, "model-embed-shared").normal(size=d_embed)
        shared *= np.sqrt(d_embed) / np.linalg.norm(shared)
    for m, entry in enumerate(entries):
        if spec.kind == "memory-dependent":
            emb = shared.copy()
            price_in = price_out = 0.4
        else:
            emb = skill_correlated_embedding(spec.seed, skills[m], entry.name,
                                             n_families, d_embed)
            price_in, price_out = entry.price_in, entry.price_out
        profiles.append(LLMProfile(name=entry.name, scale=entry.scale,
                                   price_in=price_in, price_out=price_out,
                                   skill=skills[m], embedding=emb))

    fam_dirs = np.zeros((n_families, d_q))
    for f in range(n_families):
        v = det_rng(spec.seed, "family-dir", f).normal(size=d_q)
        v[0] = 0.0
        v[1] = 0.0
        fam_dirs[f] = v / np.linalg.norm(v) * np.sqrt(d_q)

    return Benchmark(spec, profiles, fam_dirs, d_q, difficulty, noise_sigma)


def make_unseen_profile(bench: Benchmark, name: str, level: float,
                        price_in: float = 0.6, price_out: float = 0.6,
                        scale: str = "medium",
                        strong_family: int | None = None,
                        off_level: float | None = None) -> LLMProfile:
    """A held-out model whose embedding is correlated with its skill vector.

    With strong_family set, the probe is a specialist: `level` on that family
    and `off_level` elsewhere (defaulting to an unremarkable mid level), so
    its embedding differs from an incumbent specialist's along exactly one
    anchor. Otherwise the skill is flat at `level` across families.
    """
    n_families = bench.n_families
    if strong_family is not None and not (0 <= strong_family < n_families):
        raise ValueError(f"strong_family out of range: {strong_family}")
    t = np.zeros((len(ALL_ROLES), n_families))
    for r in (PLANNER, EXECUTOR, SUMMARIZER):
        if strong_family is None:
            t[r, :] = level
        else:
            t[r, :] = off_level if off_level is not None else 0.52
            t[r, strong_family] = level
    _fill_extra_roles(t)
    t = np.clip(t, 0.0, 1.0)
    emb = skill_correlated_embedding(bench.seed, t, name, n_families,
                                     bench.profiles[0].embedding.shape[0])
    return LLMProfile(name=name, scale=scale, price_in=price_in,
                      price_out=price_out, skill=t, embedding=emb)
