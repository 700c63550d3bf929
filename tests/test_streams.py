"""RNG stream tests: keyed determinism, stream independence, numpy-exact
seeding, and the rule that every random source is a det_rng stream."""

import ast
import copy
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentroute.streams import StreamSeed, det_rng, stream_seed


def test_stream_seed_frozen_values():
    # hashed keys must never drift: artifacts replay across versions
    assert stream_seed("a") == 14608863320967583690
    assert stream_seed(0, "rollout", 3, 17) == 777076766301366124


def test_streams_keyed_by_label_not_call_order():
    a1 = det_rng(0, "noise", "q1").uniform()
    _ = det_rng(0, "noise", "q2").uniform()
    a2 = det_rng(0, "noise", "q1").uniform()
    assert a1 == a2


def test_distinct_labels_give_distinct_streams():
    draws = {det_rng(0, "noise", i).uniform() for i in range(50)}
    assert len(draws) == 50


def test_parts_stringify():
    # 1 (int) and "1" (str) key the same stream by design; position matters
    assert stream_seed(1, "x") == stream_seed("1", "x")
    assert stream_seed("a", "b") != stream_seed("b", "a")


def test_det_rng_reproduces_sequences():
    a = det_rng(7, "tokens").normal(size=5)
    b = det_rng(7, "tokens").normal(size=5)
    assert np.array_equal(a, b)


# -- seeding: the exact PCG64 state numpy's default_rng gives ---------------------

EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
seeds = st.integers(0, 2 ** 64 - 1)
keys = st.lists(st.one_of(st.integers(-2 ** 70, 2 ** 70), st.text()),
                min_size=1, max_size=5)


def assert_same_stream(a: np.random.Generator, b: np.random.Generator) -> None:
    assert a.bit_generator.state == b.bit_generator.state
    assert a.normal(size=3).tobytes() == b.normal(size=3).tobytes()
    assert a.integers(0, 2 ** 63, size=3).tobytes() == b.integers(0, 2 ** 63, size=3).tobytes()


@settings(max_examples=300, deadline=None)
@given(keys)
def test_det_rng_is_default_rng_of_the_stream_seed(key):
    assert_same_stream(det_rng(*key), np.random.default_rng(stream_seed(*key)))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_seed_words_match_seed_sequence_at_the_edges(seed):
    # the entropy word count changes at 2**32: [lo] below, [lo, hi] from there
    want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    got = StreamSeed(seed).generate_state(4, np.uint64)
    assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()
    assert_same_stream(np.random.Generator(np.random.PCG64(StreamSeed(seed))),
                       np.random.default_rng(seed))


@settings(max_examples=500, deadline=None)
@given(seeds)
def test_seed_words_match_seed_sequence(seed):
    want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert StreamSeed(seed).generate_state(4, np.uint64).tobytes() == want.tobytes()


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint64),
                                             (3, np.uint32), (4, "uint64")])
def test_other_state_requests_are_seed_sequences(n_words, dtype):
    for seed in EDGE_SEEDS:
        want = np.random.SeedSequence(seed).generate_state(n_words, dtype)
        got = StreamSeed(seed).generate_state(n_words, dtype)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("copy_of", [copy.deepcopy,
                                     lambda g: pickle.loads(pickle.dumps(g))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_half_used_stream_continues_identically(copy_of):
    rng = det_rng(3, "rollout", 2, 7)
    rng.normal(size=5)
    rng.integers(0, 10)                # leaves a buffered 32-bit half word
    twin = copy_of(rng)
    assert twin.bit_generator.seed_seq.seed == rng.bit_generator.seed_seq.seed
    assert_same_stream(twin, rng)


def test_streams_do_not_spawn():
    with pytest.raises(TypeError):
        det_rng(0, "x").spawn(1)


def test_simulator_draws_frozen_values():
    # one draw of each per-call stream, as backend makes them, pinned to the bit
    call = ("f0q0", "executor", "Qwen2.5 (7B)")
    assert det_rng(11, "noise", *call).uniform(-0.1, 0.1).hex() == "-0x1.2059e58955a87p-4"
    assert det_rng(11, "tokens", *call).normal().hex() == "-0x1.0f22b7a96bf05p+0"
    assert det_rng(11, "resp", *call).normal(size=3)[2].hex() == "-0x1.55ba1781012cep+0"


# -- every draw comes from det_rng -------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "agentroute"
SOURCE_NAMES = {"default_rng", "PCG64", "SeedSequence", "RandomState"}


def random_sources(source: str) -> list[str]:
    """Where source builds its own random source rather than calling
    det_rng: numpy's seeding names, a Generator(...) call, any other use of
    numpy.random than the Generator type, or stdlib random."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{a.name}" for a in node.names] + [node.module or ""]
        else:
            modules = []
        found += [f"line {node.lineno}: import {m}" for m in modules
                  if m.split(".")[0] == "random" or m.startswith("numpy.random")]
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", getattr(f, "attr", None)) == "Generator":
                found.append(f"line {node.lineno}: Generator(...)")
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in SOURCE_NAMES:
                found.append(f"line {node.lineno}: {name}")
        if (isinstance(node, ast.Attribute) and node.attr != "Generator"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "random"):
            found.append(f"line {node.lineno}: random.{node.attr}")
    return found


@pytest.mark.parametrize("source", [
    "import random", "from random import choice", "import numpy.random as npr",
    "from numpy import random", "from numpy.random import default_rng",
    "np.random.default_rng(1)", "rng = np.random.Generator(bg)",
    "g = Generator(PCG64(1))", "np.random.seed(0)", "x = np.random.normal()",
    "np.random.RandomState(0)", "s = SeedSequence(5)",
])
def test_the_guard_sees_every_way_to_make_a_random_source(source):
    assert random_sources(source)


def test_the_guard_passes_det_rng_and_generator_annotations():
    assert random_sources(
        "from .streams import det_rng\n"
        "def f(rng: np.random.Generator | None = None) -> np.random.Generator:\n"
        "    '''draws like default_rng'''\n"
        "    return det_rng(0, 'random')  # not np.random.default_rng\n") == []


def test_only_streams_makes_random_sources():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "streams.py" in modules and len(modules) > 5
    assert random_sources((SRC / "streams.py").read_text())
    offenders = {p.name: random_sources(p.read_text())
                 for p in modules if p.name != "streams.py"}
    assert {name: found for name, found in offenders.items() if found} == {}
