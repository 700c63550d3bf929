"""Simulator tests: pricing, skills, query generation, invoke semantics."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentroute import backend
from agentroute.backend import (
    ALL_ROLES,
    DEFAULT_CATALOG,
    EXECUTOR,
    PLANNER,
    SUMMARIZER,
    THINKER,
    VERIFIER,
    BenchmarkSpec,
    cost_of,
    final_utility,
    load_catalog,
    make_benchmark,
    make_unseen_profile,
    mean,
    skill_correlated_embedding,
)
from agentroute.config import RunConfig
from agentroute.memory import ResponseNode


def spec(kind="separable", families=3, qpf=10, width=(1, 2), seed=11):
    return BenchmarkSpec(kind=kind, families=tuple(f"fam{i}" for i in range(families)),
                         queries_per_family=qpf, width_profile=width, seed=seed)


def bench(kind="separable", **kw):
    families = kw.pop("families", 3)
    seed = kw.pop("seed", 11)
    return make_benchmark(spec(kind=kind, families=families, seed=seed), **kw)


def ctx_node(role, quality, rid="c0"):
    return ResponseNode(id=rid, embedding=np.zeros(64), produced_by=(role, 0),
                        tokens_in=10, tokens_out=10, quality=quality)


# -- pricing ----------------------------------------------------------------------


def test_cost_frozen_values():
    b = bench(k_models=4)
    # picks over the 12-entry catalog at K=4 are indices [0, 4, 7, 11]
    assert [p.name for p in b.profiles] == [
        "Qwen2.5 (7B)", "LLaMA-3 ChatQA (8B)",
        "LLaMA-3.3 Nemotron Super (49B)", "Mixtral (8x22B)"]
    qwen, mixtral = b.profiles[0], b.profiles[3]
    # 1M prompt + 1M completion tokens at $0.20/$0.20
    assert cost_of(1_000_000, 1_000_000, qwen) == pytest.approx(0.40, abs=1e-12)
    # 0.5M + 0.5M at $1.20/$1.20
    assert cost_of(500_000, 500_000, mixtral) == pytest.approx(1.20, abs=1e-12)


def test_cost_is_linear_in_tokens():
    b = bench()
    p = b.profiles[0]
    assert cost_of(200, 400, p) == pytest.approx(2.0 * cost_of(100, 200, p), rel=1e-12)


def save_catalog(path: str, catalog) -> None:
    rows = [{"name": c.name, "scale": c.scale, "price_in": c.price_in,
             "price_out": c.price_out} for c in catalog]
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)


def test_catalog_roundtrip(tmp_path):
    path = str(tmp_path / "catalog.json")
    save_catalog(path, DEFAULT_CATALOG)
    assert load_catalog(path) == DEFAULT_CATALOG


@pytest.mark.parametrize("blob, words", [
    ([{"name": "a"}], ("catalog entry 0", "'scale'")),
    ([{"name": "a", "scale": "small", "price_in": 1, "price_out": 1}, 5],
     ("catalog entry 1", "JSON object")),
    ([{"name": 7, "scale": "small", "price_in": 1, "price_out": 1}],
     ("catalog entry 0", "'name'")),
    ([{"name": "a", "scale": "small", "price_in": "1", "price_out": 1}],
     ("catalog entry 0", "'price_in'")),
    ([{"name": "a", "scale": "small", "price_in": 1, "price_out": True}],
     ("catalog entry 0", "'price_out'")),
    ({"name": "a"}, ("catalog", "list")),
    (5, ("catalog", "list")),
])
def test_malformed_catalog_names_the_entry_and_field(tmp_path, blob, words):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError) as exc:
        load_catalog(str(path))
    assert all(w in str(exc.value) for w in words), str(exc.value)


# -- utility -----------------------------------------------------------------------


def test_final_utility_summary_average():
    # answer 0.8 averaged with mean(0.6, 1.0) = 0.8 stays 0.8
    assert final_utility(0.8, [0.6, 1.0], summarized=True) == pytest.approx(0.8)
    # without a summarizer the sub-answers are ignored
    assert final_utility(0.8, [0.1], summarized=False) == 0.8
    assert final_utility(0.6, [0.2], summarized=True) == pytest.approx(0.4)


def test_final_utility_binary_threshold():
    assert final_utility(0.49, [], summarized=False, mode="binary") == 0.0
    assert final_utility(0.50, [], summarized=False, mode="binary") == 1.0


def test_final_utility_validation():
    with pytest.raises(ValueError):
        final_utility(0.8, [], summarized=True)
    with pytest.raises(ValueError):
        final_utility(0.8, [], summarized=False, mode="triple")


FLOATS = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-0.0, 0.0, 1e-310, 0.1, 1.0]))


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(FLOATS, min_size=1, max_size=20))
def test_mean_is_np_mean_bit_for_bit(xs):
    got = mean(xs)
    assert np.float64(got).tobytes() == np.mean(xs).tobytes()
    assert np.float64(float(got)).tobytes() == np.float64(float(np.mean(xs))).tobytes()


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 20).flatmap(lambda n: st.lists(
    st.lists(FLOATS, min_size=3, max_size=3), min_size=n, max_size=n)))
def test_mean_of_vectors_is_np_mean_over_rows_bit_for_bit(rows):
    vectors = [np.array(r) for r in rows]
    assert mean(vectors).tobytes() == np.mean(vectors, axis=0).tobytes()


def test_mean_keeps_the_sign_of_zero():
    for xs in ([-0.0], [-0.0, -0.0], [-0.0] * 9, [0.0, -0.0]):
        assert np.float64(mean(xs)).tobytes() == np.mean(xs).tobytes()


# -- skill tables ------------------------------------------------------------------


def test_separable_skill_structure():
    b = bench("separable", k_models=3, families=3)
    for m, p in enumerate(b.profiles):
        for f in range(3):
            dominant = f % 3 == m
            for r in (PLANNER, EXECUTOR, SUMMARIZER):
                if dominant:
                    assert p.skill[r, f] == 0.75
                else:
                    # trailing jitter keeps non-dominant levels inside a band
                    assert 0.50 <= p.skill[r, f] <= 0.55
        assert np.allclose(p.skill[THINKER], np.clip(p.skill[EXECUTOR] - 0.1, 0, 1))
        assert np.array_equal(p.skill[VERIFIER], p.skill[EXECUTOR])


def test_memory_dependent_pool_is_symmetric():
    b = bench("memory-dependent", k_models=4, families=4)
    first = b.profiles[0]
    for m, p in enumerate(b.profiles):
        # flat price and a shared embedding: nothing but the interaction
        # record can tell the specialists apart
        assert p.price_in == 0.4 and p.price_out == 0.4
        assert np.array_equal(p.embedding, first.embedding)
        for f in range(4):
            assert p.skill[EXECUTOR, f] == (0.9 if f % 4 == m else 0.5)
            assert p.skill[PLANNER, f] == 0.6
            assert p.skill[SUMMARIZER, f] == 0.65


def test_uniform_pool_flat_skill():
    b = bench("uniform", k_models=2)
    for p in b.profiles:
        for r in (PLANNER, EXECUTOR, SUMMARIZER):
            assert np.all(p.skill[r] == 0.7)


def test_skill_overrides_apply_last():
    b = make_benchmark(spec("memory-dependent"), k_models=2,
                       skill_overrides={"verifier": 0.95})
    for p in b.profiles:
        assert np.all(p.skill[VERIFIER] == 0.95)
        assert np.any(p.skill[EXECUTOR] != 0.95)


def test_unknown_override_role_rejected():
    with pytest.raises(ValueError):
        make_benchmark(spec(), skill_overrides={"critic": 0.5})


def test_make_benchmark_validation():
    with pytest.raises(ValueError):
        make_benchmark(spec(kind="adversarial"))
    with pytest.raises(ValueError):
        make_benchmark(spec(), k_models=0)
    with pytest.raises(ValueError):
        make_benchmark(spec(), k_models=99)
    with pytest.raises(ValueError):
        make_benchmark(spec(qpf=0))
    with pytest.raises(ValueError):
        make_benchmark(spec(families=0))
    with pytest.raises(ValueError):
        make_benchmark(spec(), difficulty=(0.0, 0.5))
    with pytest.raises(ValueError):
        make_benchmark(spec(), difficulty=(0.6, 0.5))
    for d_q in (1, 2):  # coordinates 0 and 1 are reserved
        with pytest.raises(ValueError, match="d_q"):
            make_benchmark(spec(), d_q=d_q)
    # a negative sigma failed only at the first draw, naming no key
    for sigma in (-1.0, -1e-9, float("nan")):
        with pytest.raises(ValueError, match="noise_sigma"):
            make_benchmark(spec(), noise_sigma=sigma)
    make_benchmark(spec(), noise_sigma=0.0)
    # two hub features are running stats: d_hub 1 raised a numpy error
    # naming no key, and d_hub 2 built a memory-dependent pool through 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("uniform", "memory-dependent"):
            for d_hub in (1, 2):
                with pytest.raises(ValueError, match="d_hub"):
                    make_benchmark(spec(kind=kind), d_hub=d_hub)
            assert make_benchmark(spec(kind=kind), d_hub=3).d_hub == 3


@pytest.mark.parametrize("key, value", [
    ("width_profile", [0]), ("width_profile", [2, -1]),
    ("families", [0, 0]), ("families", ["a", "b", "a"]),
    ("margin", -5.0), ("margin", -1e-9), ("margin", float("nan")),
])
def test_benchmark_config_values_outside_their_domain_name_the_key(key, value):
    # each was accepted: the env reads a width hint below 1 as 1, a repeated
    # label adds a family, and a negative margin puts a separable family's
    # other models above its dominant one
    cfg = RunConfig.from_dict({"benchmark": {key: value}})
    with pytest.raises(ValueError, match=f"^{key} "):
        cfg.make_benchmark()


def test_benchmark_config_domain_edges_are_accepted():
    RunConfig.from_dict({"benchmark": {"width_profile": [1], "families": [0, 1],
                                       "margin": 0.0}}).make_benchmark()


# -- queries -----------------------------------------------------------------------


def test_query_embedding_layout():
    b = bench(difficulty=(0.2, 0.6))
    q = b.generate_query(1, 5)
    assert q.id == "f1q5"
    assert q.family == 1 and q.depth == 0 and q.parent is None
    assert 0.2 <= q.embedding[0] <= 0.6
    assert b.difficulty_of(q) == q.embedding[0]
    content = b.content_of(q.embedding)
    assert content[0] == 0.0 and content[1] == 0.0
    # content correlates with its own family direction, not the others
    sims = [float(content @ b.family_dirs[f]) for f in range(b.n_families)]
    assert np.argmax(sims) == 1


def test_query_determinism_and_split():
    b = bench()
    a1, a2 = b.generate_query(0, 3), b.generate_query(0, 3)
    assert np.array_equal(a1.embedding, a2.embedding)
    train_ids = {b.train_query(i).id for i in range(60)}
    eval_ids = {b.eval_query(i).id for i in range(60)}
    assert not train_ids & eval_ids
    assert b.eval_query(0).family == 0 and b.eval_query(1).family == 1


def test_query_width_hint_cycles():
    b = make_benchmark(spec(width=(1, 3, 2)))
    hints = [b.generate_query(0, i).width_hint for i in range(6)]
    assert hints == [1, 3, 2, 1, 3, 2]


def test_generate_query_validation():
    b = bench()
    with pytest.raises(ValueError):
        b.generate_query(99, 0)
    with pytest.raises(ValueError):
        b.generate_query(0, -1)


# -- invoke -------------------------------------------------------------------------


def test_invoke_noise_free_quality_formula():
    b = bench("memory-dependent", k_models=2, families=2).with_noise(False)
    q = b.generate_query(0, 0)
    diff = b.difficulty_of(q)
    out = b.invoke(0, EXECUTOR, q, [])
    want = np.clip(b.profiles[0].skill[EXECUTOR, 0] - 0.5 * diff, 0.0, 1.0)
    assert out.quality == pytest.approx(float(want), abs=1e-12)


def test_invoke_bitwise_deterministic():
    b = bench()
    q = b.generate_query(0, 0)
    a = b.invoke(1, EXECUTOR, q, [])
    c = b.invoke(1, EXECUTOR, q, [])
    assert a.quality == c.quality
    assert (a.tokens_in, a.tokens_out) == (c.tokens_in, c.tokens_out)
    assert np.array_equal(a.response_embedding, c.response_embedding)


def test_invoke_validates_indices():
    b = bench(k_models=2)
    q = b.generate_query(0, 0)
    with pytest.raises(ValueError):
        b.invoke(5, EXECUTOR, q, [])
    with pytest.raises(ValueError):
        b.invoke(0, 9, q, [])


def test_context_bonus_schedule():
    b = bench().with_noise(False)
    q = b.generate_query(0, 0)
    base = b.invoke(0, EXECUTOR, q, []).quality
    one = b.invoke(0, EXECUTOR, q, [ctx_node(PLANNER, 0.0)]).quality
    assert one == pytest.approx(base + 0.05, abs=1e-12)
    four = b.invoke(0, EXECUTOR, q, [ctx_node(PLANNER, 0.0, f"c{i}")
                                     for i in range(4)]).quality
    assert four == pytest.approx(base + 0.15, abs=1e-12)  # plain bonus caps
    think = b.invoke(0, EXECUTOR, q, [ctx_node(THINKER, 0.0)]).quality
    assert think == pytest.approx(base + 0.15, abs=1e-12)


def test_verifier_floors_at_draft_and_own_skill():
    b = bench("memory-dependent", k_models=2, families=2).with_noise(False)
    q = b.generate_query(0, 0)
    draft = ctx_node(EXECUTOR, 0.97)
    out = b.invoke(0, VERIFIER, q, [draft])
    assert out.quality >= 0.97
    weak_draft = ctx_node(EXECUTOR, 0.05)
    out = b.invoke(0, VERIFIER, q, [weak_draft])
    assert out.quality >= float(b.profiles[0].skill[VERIFIER, 0])


def test_executor_floors_at_verifier_context():
    b = bench().with_noise(False)
    q = b.generate_query(0, 0)
    checked = ctx_node(VERIFIER, 0.93)
    out = b.invoke(0, EXECUTOR, q, [checked])
    assert out.quality >= 0.93


def test_response_embedding_marks_thinker():
    b = bench()
    q = b.generate_query(0, 0)
    think = b.invoke(0, THINKER, q, [])
    plain = b.invoke(0, EXECUTOR, q, [])
    assert think.response_embedding[1] == 1.0
    assert plain.response_embedding[1] == 0.0


@settings(max_examples=25, deadline=None)
@given(model=st.integers(0, 3), role=st.integers(0, 4),
       family=st.integers(0, 2), index=st.integers(0, 50))
def test_invoke_quality_bounded(model, role, family, index):
    b = _SHARED_BENCH
    out = b.invoke(model, role, b.generate_query(family, index), [])
    assert 0.0 <= out.quality <= 1.0
    assert out.tokens_in >= 1 and out.tokens_out >= 1


_SHARED_BENCH = bench(k_models=4)


def _outcome_bytes(out):
    return (out.response_embedding.tobytes(), out.quality, out.tokens_in,
            out.tokens_out)


def _row_bits(quality, tokens_in, tokens_out):
    return (quality.hex(), tokens_in, tokens_out)


@settings(max_examples=60, deadline=None)
@given(noise=st.booleans(), family=st.integers(0, 2), index=st.integers(0, 20),
       node=st.sampled_from(["root", "child0", "child1", "summary"]),
       role=st.integers(0, 4), model=st.integers(0, 3),
       context=st.sampled_from(["none", "draft", "thinker", "verifier", "all"]))
def test_invoke_memo_is_bit_identical_to_fresh_draws(noise, family, index, node,
                                                      role, model, context):
    b = _SHARED_BENCH.with_noise(noise)
    root = b.generate_query(family, index)
    children = b.decompose(root, 2)
    drafts = [ctx_node(EXECUTOR, 0.4, "d0"), ctx_node(PLANNER, 0.7, "d1")]
    query = {"root": root, "child0": children[0], "child1": children[1],
             "summary": b.summary_query(root, drafts)}[node]
    contexts = {"none": [], "draft": drafts[:1], "thinker": [ctx_node(THINKER, 0.6, "t")],
                "verifier": [ctx_node(VERIFIER, 0.9, "v")],
                "all": drafts + [ctx_node(THINKER, 0.6, "t"), ctx_node(VERIFIER, 0.9, "v")]}
    ctx = contexts[context]

    fresh = b.invoke(model, role, query, ctx)
    cold = b.invoke(model, role, query, ctx, {})
    # warmed by the same call under the other noise setting before its own
    # first use, then under another context, and by the neighbouring calls
    warm: dict = {}
    b.with_noise(not noise).invoke(model, role, query, ctx, warm)
    b.invoke(model, role, query, [], warm)
    for other in range(b.n_models):
        b.invoke(other, role, query, drafts, warm)
    hit = b.invoke(model, role, query, ctx, warm)
    assert _outcome_bytes(fresh) == _outcome_bytes(cold) == _outcome_bytes(hit)
    # keys of plain values only: a dataclass in a key would run its
    # generated __hash__ on every lookup
    assert all(type(v) in (str, int, float, type(None)) for key in warm for v in key)

    # the pool reader's rows are invoke's, bit for bit, for every model,
    # role, context kind and noise setting, with no memo and through one
    # memo that both noise settings fill
    for nb in (b.with_noise(False), b.with_noise(True)):
        for r in range(len(ALL_ROLES)):
            for c in contexts.values():
                outcomes = [nb.invoke(m, r, query, c) for m in range(nb.n_models)]
                want = [_row_bits(o.quality, o.tokens_in, o.tokens_out) for o in outcomes]
                assert [_row_bits(*row) for row in nb.invoke_pool(r, query, c)] == \
                    [_row_bits(*row) for row in nb.invoke_pool(r, query, c, warm)] == want


def test_memoised_noise_vector_is_read_only():
    b = bench()
    q = b.generate_query(0, 0)
    draws: dict = {}
    first = b.invoke(1, EXECUTOR, q, [], draws)
    [noise_vec] = [v for k, v in draws.items() if k[0] == "resp"]
    with pytest.raises(ValueError):
        noise_vec[2] = 0.0
    # the outcome owns its embedding, and the memo stays as drawn
    first.response_embedding[2] = 99.0
    again = b.invoke(1, EXECUTOR, q, [], draws)
    assert again.response_embedding[2] != 99.0
    assert _outcome_bytes(again) == _outcome_bytes(b.invoke(1, EXECUTOR, q, []))


def test_pool_pass_draws_no_response_noise():
    b = bench()
    q = b.generate_query(0, 0)
    draws: dict = {}
    pool = b.invoke_pool(EXECUTOR, q, [], draws)
    assert sorted(k[0] for k in draws) == ["call"] * b.n_models
    out = b.invoke(1, EXECUTOR, q, [], draws)
    assert sorted(k[0] for k in draws) == ["call"] * b.n_models + ["resp"]
    assert (out.quality, out.tokens_in, out.tokens_out) == pool[1]
    assert _outcome_bytes(out) == _outcome_bytes(b.invoke(1, EXECUTOR, q, []))


# -- decompose and summary -----------------------------------------------------------


def test_decompose_children():
    b = bench()
    q = b.generate_query(2, 0)
    kids = b.decompose(q, 3)
    assert [k.id for k in kids] == ["f2q0.0", "f2q0.1", "f2q0.2"]
    for k in kids:
        assert k.parent == q.id and k.depth == 1 and k.family == 2
        # children land strictly easier, near half the parent difficulty
        ratio = b.difficulty_of(k) / b.difficulty_of(q)
        assert 0.45 <= ratio <= 0.55
        assert k.width_hint == max(1, q.width_hint - 1)
    with pytest.raises(ValueError):
        b.decompose(q, 0)


def test_summary_query_shape():
    b = bench()
    q = b.generate_query(0, 0)
    ans = [ctx_node(EXECUTOR, 0.8)]
    s = b.summary_query(q, ans)
    assert s.is_summary and s.parent == q.id and s.depth == 1
    assert b.difficulty_of(s) == pytest.approx(0.3 * b.difficulty_of(q))


# -- hubs and profiles ----------------------------------------------------------------


def test_build_hubs_layout():
    b = bench(k_models=3)
    hubs = b.build_hubs(5)
    assert len(hubs) == 15
    h = hubs.get(1, 2)
    assert h.role_name == "executor"
    assert h.model_name == b.profiles[2].name
    assert h.utility_ema == 0.0 and h.cost_ema == 0.0
    want = 0.5 * (b.role_text_embedding(1) + b.profiles[2].embedding)
    assert np.allclose(h.role_embedding, want)
    assert b.d_hub == 64


def test_build_hubs_draws_each_role_text_once(monkeypatch):
    b = bench(k_models=3)
    keys = []
    real = backend.det_rng

    def counting(*parts):
        keys.append(parts)
        return real(*parts)

    monkeypatch.setattr(backend, "det_rng", counting)
    hubs = b.build_hubs(5)
    assert len(keys) == 5 and all(k[0] == "text-embed" for k in keys)
    for r in range(5):
        for m in range(3):
            assert hubs.get(r, m).role_embedding.tobytes() == b.hub_embedding(r, m).tobytes()


def test_skill_correlated_embedding_tracks_executor_row():
    b = bench("separable", k_models=3, families=3)
    # same skill + same name reproduce bitwise; different names only jitter
    e1 = skill_correlated_embedding(b.seed, b.profiles[0].skill, "x", 3, 62)
    e2 = skill_correlated_embedding(b.seed, b.profiles[0].skill, "x", 3, 62)
    assert np.array_equal(e1, e2)
    other = skill_correlated_embedding(b.seed, b.profiles[1].skill, "x", 3, 62)
    assert not np.allclose(e1, other)


def test_make_unseen_profile_flat():
    b = bench()
    p = make_unseen_profile(b, "probe", level=0.9)
    assert np.all(p.skill[EXECUTOR] == 0.9)
    assert np.all(p.skill[PLANNER] == 0.9)
    assert np.allclose(p.skill[THINKER], 0.8)
    assert np.array_equal(p.skill[VERIFIER], p.skill[EXECUTOR])
    assert p.embedding.shape == b.profiles[0].embedding.shape


def test_make_unseen_profile_specialist():
    b = bench(families=3)
    p = make_unseen_profile(b, "probe", level=1.0, strong_family=0)
    assert p.skill[EXECUTOR, 0] == 1.0
    assert np.all(p.skill[EXECUTOR, 1:] == 0.52)
    q = make_unseen_profile(b, "probe2", level=1.0, strong_family=1,
                            off_level=0.3)
    assert q.skill[EXECUTOR, 1] == 1.0 and q.skill[EXECUTOR, 0] == 0.3
    with pytest.raises(ValueError):
        make_unseen_profile(b, "probe3", level=1.0, strong_family=7)


def test_extended_with_leaves_original_alone():
    b = bench(k_models=2)
    probe = make_unseen_profile(b, "probe", level=0.9)
    wider = b.extended_with([probe])
    assert wider.n_models == 3 and b.n_models == 2
    assert wider.profiles[2].name == "probe"
    # same queries on both pools
    assert np.array_equal(wider.generate_query(0, 0).embedding,
                          b.generate_query(0, 0).embedding)
