"""Encoder tests: projections, message round, variants, policy head."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tape as T
from agentroute import tensor
from agentroute.backend import ALL_ROLES, BenchmarkSpec, make_benchmark
from agentroute.encoder import VARIANTS, EncoderDims, RoutingPolicy, init_params
from agentroute.env import Episode, EnvConfig, RoutingEnv, absorb_episode
from agentroute.memory import EncoderInput, HeteroGraph, new_workflow
from tape import (Tensor, encode_graph, encoder, entropy_of, history_hub_rows,
                  leaves, logprob_of)

DIMS = EncoderDims(d_q=64, d_r=64, d_hub=64, hidden=8)


def small_bench(seed=5):
    return make_benchmark(
        BenchmarkSpec(kind="uniform", families=("a", "b"),
                      queries_per_family=4, width_profile=(1,), seed=seed),
        k_models=2)


def workflow_and_history(seed=5):
    """One-query workflow with a response, plus an empty shared history."""
    bench = small_bench(seed)
    hubs = bench.build_hubs(3)
    wf = new_workflow(bench.generate_query(0, 0), hubs)
    out = bench.invoke(0, 1, bench.generate_query(0, 0), [])
    from agentroute.memory import ResponseNode
    wf.add_response("f0q0", ResponseNode(
        id="r0", embedding=out.response_embedding, produced_by=(1, 0),
        tokens_in=out.tokens_in, tokens_out=out.tokens_out,
        quality=out.quality), answers=True)
    hist = HeteroGraph("history", hubs, capacity=64)
    return bench, wf.freeze(), hist.freeze()


def hub_rows(graphs, W_q, W_r, W_m, beta, shared=None):
    """Hub rows of each graph, starting from the first graph's raw hubs."""
    first = graphs[0] if shared is None else shared
    return encode_graph(Tensor(first.hub_feats), graphs, W_q, W_r, W_m, beta,
                        shared=shared).data


def one_point(params, variant, beta, hist, wf, q, mask):
    """Tape encoder outputs, (1, R*K) probs and (1,) value, of one decision
    point under the weights `params`."""
    return encoder(leaves(params), variant, beta, hist, [wf], q[None, :],
                   mask[None, :])


def raw_input(hub_feats, query_feats, response_feats, edges):
    src, dst = [], []
    for a, b in edges:
        src += [a, b]
        dst += [b, a]
    return EncoderInput(
        hub_feats=np.asarray(hub_feats, dtype=float),
        query_feats=np.asarray(query_feats, dtype=float),
        response_feats=np.asarray(response_feats, dtype=float),
        edge_src=np.asarray(src, dtype=np.int64),
        edge_dst=np.asarray(dst, dtype=np.int64),
        n_hubs=len(hub_feats),
        n_queries=len(query_feats),
        n_responses=len(response_feats),
    )


# -- parameters ------------------------------------------------------------------


def test_init_params_shapes_by_variant():
    full = init_params(DIMS, "full")
    assert set(full) == {"his.W_q", "his.W_r", "his.W_m", "loc.W_q", "loc.W_r",
                         "loc.W_m", "fuse.W", "value.W1", "value.b1",
                         "value.W2", "value.b2"}
    assert full["loc.W_m"].shape == (8, 8)     # projects already-hidden rows
    assert full["his.W_m"].shape == (64, 8)
    hetero = init_params(DIMS, "hetero")
    assert set(hetero) == {"enc.W_q", "enc.W_r", "enc.W_m", "fuse.W",
                           "value.W1", "value.b1", "value.W2", "value.b2"}
    homo = init_params(DIMS, "homo")
    assert set(homo) == {"enc.W", "fuse.W", "value.W1", "value.b1", "value.W2",
                         "value.b2"}
    assert full["value.W1"].shape == (24, 8)
    for p in full.values():
        assert type(p) is np.ndarray and p.dtype == np.float64


def test_init_params_validation():
    with pytest.raises(ValueError):
        init_params(DIMS, "mega")
    with pytest.raises(ValueError):
        init_params(EncoderDims(d_q=8, d_r=8, d_hub=16, hidden=4), "homo")


def test_init_params_deterministic():
    a = init_params(DIMS, "full", seed=3)
    b = init_params(DIMS, "full", seed=3)
    c = init_params(DIMS, "full", seed=4)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a["fuse.W"], c["fuse.W"])


# -- message round -----------------------------------------------------------------


def test_encode_graph_frozen_values():
    # 2 hubs, 1 query, identity projection, beta 0.5:
    # hub 0 <- mean of {query}, hub 1 isolated
    inp = raw_input(hub_feats=[[1.0, 0.0], [0.0, 1.0]],
                    query_feats=[[2.0, 2.0]],
                    response_feats=np.zeros((0, 0)),
                    edges=[(2, 0)])
    eye = Tensor(np.eye(2))
    rows = hub_rows([inp], eye, eye, eye, beta=0.5)[0]
    assert rows.shape == (2, 2)
    assert np.allclose(rows[0], [2.0, 1.0])
    assert np.allclose(rows[1], [0.0, 1.0])


def test_encode_graph_beta_zero_is_projection_only():
    inp = raw_input([[1.0, 0.0]], [[3.0, 4.0]], np.zeros((0, 0)), [(1, 0)])
    eye = Tensor(np.eye(2))
    rows = hub_rows([inp, inp], eye, eye, eye, beta=0.0)
    assert rows.shape == (2, 1, 2)
    assert np.allclose(rows, [[1.0, 0.0]])


def test_encode_graph_mean_over_multiple_neighbors():
    inp = raw_input(hub_feats=[[0.0, 0.0]],
                    query_feats=[[2.0, 0.0], [0.0, 4.0]],
                    response_feats=np.zeros((0, 0)),
                    edges=[(1, 0), (2, 0)])
    eye = Tensor(np.eye(2))
    rows = hub_rows([inp], eye, eye, eye, beta=1.0)[0]
    assert np.allclose(rows, [[1.0, 2.0]])  # mean of the two queries


# -- graph unions ------------------------------------------------------------------


def test_encode_graph_union_matches_merged_graph():
    # hub 0 hears a's query, hub 1 hears b's query and a's response
    a = raw_input([[1.0], [2.0]], [[3.0]], [[4.0]], [(2, 3), (2, 0), (3, 1)])
    b = raw_input([[1.0], [2.0]], [[5.0]], np.zeros((0, 0)), [(2, 1)])
    # merged layout: hubs 0-1, a query 2, b query 3, a response 4
    merged = raw_input([[1.0], [2.0]], [[3.0], [5.0]], [[4.0]],
                       [(2, 4), (2, 0), (4, 1), (3, 1)])
    one = Tensor(np.eye(1))
    rows = hub_rows([b], one, one, one, beta=1.0, shared=a)[0]
    assert np.allclose(rows, [[1.0 + 3.0], [2.0 + 9.0 / 2.0]])
    assert np.allclose(rows, hub_rows([merged], one, one, one, 1.0)[0],
                       rtol=0.0, atol=1e-12)


def test_encode_graph_hub_mismatch():
    a = raw_input([[1.0]], np.zeros((0, 0)), np.zeros((0, 0)), [])
    b = raw_input([[1.0], [2.0]], np.zeros((0, 0)), np.zeros((0, 0)), [])
    one = Tensor(np.eye(1))
    with pytest.raises(ValueError):
        hub_rows([a, b], one, one, one, 1.0)
    with pytest.raises(ValueError):
        hub_rows([b], one, one, one, 1.0, shared=a)
    with pytest.raises(ValueError):
        encode_graph(Tensor(np.ones((1, 1))), [b], one, one, one, 1.0)


def dense_reference(graphs, W_q, W_r, W_m, beta):
    """Every node's h0 + beta * mean of h0 over incoming edges, on the merged
    layout [hubs, all queries, all responses]; returns the hub rows. Hubs
    hear no other hub, so hub-hub edges are skipped."""
    H = graphs[0].n_hubs
    nq = [g.n_queries for g in graphs]
    q_off = H + np.concatenate([[0], np.cumsum(nq)])
    r_off = H + sum(nq) + np.concatenate(
        [[0], np.cumsum([g.n_responses for g in graphs])])
    rows = [graphs[0].hub_feats @ W_m]
    rows += [g.query_feats @ W_q for g in graphs if g.n_queries]
    rows += [g.response_feats @ W_r for g in graphs if g.n_responses]
    h0 = np.concatenate(rows, axis=0)
    sums = np.zeros_like(h0)
    counts = np.zeros(h0.shape[0])
    for k, g in enumerate(graphs):
        def place(i):
            if i < H:
                return i
            if i < H + g.n_queries:
                return q_off[k] + i - H
            return r_off[k] + i - H - g.n_queries
        for s, d in zip(g.edge_src.tolist(), g.edge_dst.tolist()):
            if s < H and d < H:
                continue
            sums[place(d)] += h0[place(s)]
            counts[place(d)] += 1
    out = h0 + beta * sums / np.maximum(counts, 1.0)[:, None]
    return out[:H]


@st.composite
def hub_graph_lists(draw):
    """One or two graphs over one hub set: empty graphs, duplicate edges and
    hub-hub edges included."""
    n_hubs = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graphs = []
    for _ in range(draw(st.integers(1, 2))):
        nq, nr = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        n = n_hubs + nq + nr
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=12))
        if draw(st.booleans()):
            edges = edges + edges
        src = np.asarray([e[0] for e in edges], dtype=np.int64)
        dst = np.asarray([e[1] for e in edges], dtype=np.int64)
        graphs.append(EncoderInput(
            hub_feats=rng.normal(size=(n_hubs, 3)),
            query_feats=rng.normal(size=(nq, 3)) if nq else np.zeros((0, 0)),
            response_feats=rng.normal(size=(nr, 3)) if nr else np.zeros((0, 0)),
            edge_src=src, edge_dst=dst,
            n_hubs=n_hubs, n_queries=nq, n_responses=nr))
    weights = [rng.normal(size=(3, 2)) for _ in range(3)]
    return graphs, weights


@settings(max_examples=200, deadline=None)
@given(hub_graph_lists(), st.sampled_from([0.0, 0.7, 1.0]))
def test_encode_graph_matches_dense_reference(case, beta):
    graphs, (W_q, W_r, W_m) = case
    shared = graphs[0] if len(graphs) == 2 else None
    got = hub_rows(graphs[-1:], Tensor(W_q), Tensor(W_r), Tensor(W_m), beta,
                   shared=shared)[0]
    want = dense_reference(graphs, W_q, W_r, W_m, beta)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# -- action head -------------------------------------------------------------------


def test_zero_params_give_uniform_over_allowed():
    params = init_params(DIMS, "full")
    for p in params.values():
        p[...] = 0.0
    _, wf, hist = workflow_and_history()
    mask = np.zeros(6, dtype=bool)
    mask[[1, 3, 4]] = True
    probs, value = one_point(params, "full", 1.0, hist, wf, np.ones(64), mask)
    want = np.where(mask, 1.0 / 3.0, 0.0)
    assert np.allclose(probs.data[0], want)
    assert value.data[0] == pytest.approx(0.0)


def test_act_validates_mask():
    policy = RoutingPolicy(init_params(DIMS, "full"), "full")
    _, wf, hist = workflow_and_history()
    policy.prepare(hist)
    with pytest.raises(ValueError):
        policy.act(wf, np.ones(64), np.zeros(6, dtype=bool), mode="greedy")
    with pytest.raises(ValueError):
        policy.act(wf, np.ones(64), np.ones(4, dtype=bool), mode="greedy")


def test_masked_actions_have_zero_probability():
    params = init_params(DIMS, "full", seed=9)
    _, wf, hist = workflow_and_history()
    mask = np.array([True, False, True, False, True, False])
    probs, _ = one_point(params, "full", 1.0, hist, wf, np.ones(64), mask)
    assert np.all(probs.data[0][~mask] == 0.0)
    assert probs.data.sum() == pytest.approx(1.0)


def test_entropy_and_logprob_helpers():
    probs = Tensor(np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]]))
    assert entropy_of(probs).data == pytest.approx(np.log(2.0))
    np.testing.assert_allclose(logprob_of(probs, [0, 1]).data,
                               [np.log(0.5), 0.0])


# -- variant equivalences -------------------------------------------------------------


def correspondence_params(seed=11):
    """Full-variant parameters that mirror a hetero parameter set."""
    het = init_params(DIMS, "hetero", seed=seed)
    full = {"his.W_q": het["enc.W_q"].copy(), "his.W_r": het["enc.W_r"].copy(),
            "his.W_m": het["enc.W_m"].copy(), "loc.W_q": het["enc.W_q"].copy(),
            "loc.W_r": het["enc.W_r"].copy(), "loc.W_m": np.eye(DIMS.hidden)}
    for k in ("fuse.W", "value.W1", "value.b1", "value.W2", "value.b2"):
        full[k] = het[k].copy()
    return full, het


def test_full_matches_hetero_on_empty_history():
    # With an empty history, nested encoding reduces to re-projecting raw hub
    # features; mapping loc.W_m to the identity makes the two variants score
    # identically. The value pooling sees pre-message hub rows in the nested
    # wiring, so full output equality needs the message round off.
    full, het = correspondence_params()
    _, wf, hist = workflow_and_history()
    q = np.ones(64)
    mask = np.array([True, True, True, True, False, False])

    p_full, _ = one_point(full, "full", 1.0, hist, wf, q, mask)
    p_het, _ = one_point(het, "hetero", 1.0, hist, wf, q, mask)
    assert np.allclose(p_full.data, p_het.data, atol=1e-12)

    p_full0, v_full0 = one_point(full, "full", 0.0, hist, wf, q, mask)
    p_het0, v_het0 = one_point(het, "hetero", 0.0, hist, wf, q, mask)
    assert np.allclose(p_full0.data, p_het0.data, atol=1e-12)
    assert v_full0.data[0] == pytest.approx(float(v_het0.data[0]), abs=1e-12)


def test_encoder_validation():
    params = leaves(init_params(DIMS, "full"))
    _, wf, hist = workflow_and_history()
    q, mask = np.ones((1, 64)), np.ones((1, 6), dtype=bool)
    with pytest.raises(ValueError):
        encoder(params, "full", 1.0, None, [wf], q, mask)
    het = leaves(init_params(DIMS, "hetero"))
    with pytest.raises(ValueError):
        encoder(het, "hetero", 1.0, None, [wf], q, mask)
    with pytest.raises(ValueError):
        encoder(params, "mega", 1.0, hist, [wf], q, mask)
    with pytest.raises(ValueError):  # one mask row for two decision points
        encoder(params, "full", 1.0, hist, [wf, wf], np.ones((2, 64)), mask)


def test_history_hub_rows_by_variant():
    params = leaves(init_params(DIMS, "full"))
    _, _, hist = workflow_and_history()
    rows = history_hub_rows(params, "full", 1.0, hist)
    assert rows.shape == (6, 8)
    assert history_hub_rows(leaves(init_params(DIMS, "hetero")), "hetero", 1.0,
                            hist) is None


def random_input(rng, d, n_hubs, n_queries, n_responses, n_edges, d_r=None):
    """Random features, d wide (responses d_r), and random edges."""
    n = n_hubs + n_queries + n_responses
    pairs = [tuple(int(x) for x in rng.integers(0, n, size=2))
             for _ in range(n_edges)]
    return raw_input(rng.normal(size=(n_hubs, d)),
                     rng.normal(size=(n_queries, d)),
                     rng.normal(size=(n_responses, d if d_r is None else d_r)),
                     [(i, j) for i, j in pairs if i != j])


def fd_worst(make_loss, leaves, h=1e-5):
    """Max relative error between reverse-mode and central differences."""
    for leaf in leaves:
        leaf.zero_grad()
    T.backward(make_loss())
    worst = 0.0
    for leaf in leaves:
        grad = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad
        flat = leaf.data.reshape(-1)
        for j, g in enumerate(grad.reshape(-1)):
            keep = flat[j]
            flat[j] = keep + h
            up = float(make_loss().data)
            flat[j] = keep - h
            dn = float(make_loss().data)
            flat[j] = keep
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(g - fd) / max(abs(g), abs(fd), 1.0))
    return worst


@pytest.mark.parametrize("variant", ["hetero", "homo"])
def test_merged_variant_gradients_match_finite_differences(variant):
    dims = EncoderDims(d_q=5, d_r=5, d_hub=5, hidden=4)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        params = leaves(init_params(dims, variant, seed=seed))
        hist = random_input(rng, 5, 6, 2, 2, 8)
        wf = random_input(rng, 5, 6, 2, 1, 7)
        wf2 = random_input(rng, 5, 6, 3, 0, 5)
        q = rng.normal(size=(2, 5))
        masks = np.array([[True, False, True, True, False, True],
                          [True, True, False, False, False, True]])

        def loss():
            probs, values = encoder(params, variant, 0.7, hist, [wf, wf2], q,
                                    masks)
            return T.add(T.total_sum(logprob_of(probs, [2, 0])),
                         T.total_sum(values))

        assert fd_worst(loss, list(params.values())) <= 1e-4


# -- batching --------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["full", "hetero", "homo"]), st.sampled_from([0.0, 0.7, 1.0]),
       st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
def test_batched_rows_match_batch_of_one(variant, beta, n_points, responses,
                                         seed):
    rng = np.random.default_rng(seed)
    d, n_hubs = 4, 6
    dims = EncoderDims(d_q=d, d_r=d, d_hub=d, hidden=3)
    params = init_params(dims, variant, seed=seed % 7)
    hist = random_input(rng, d, n_hubs, int(rng.integers(0, 4)),
                        int(rng.integers(0, 4)), int(rng.integers(0, 12)))
    wfs = [random_input(rng, d, n_hubs, int(rng.integers(1, 4)),
                        int(rng.integers(0, 3)) if responses else 0,
                        int(rng.integers(0, 10)))
           for _ in range(n_points)]
    queries = rng.normal(size=(n_points, d))
    masks = rng.uniform(size=(n_points, n_hubs)) < 0.5
    masks[np.arange(n_points), rng.integers(0, n_hubs, size=n_points)] = True
    probs, values = encoder(leaves(params), variant, beta, hist, wfs, queries,
                            masks)
    assert probs.shape == (n_points, n_hubs) and values.shape == (n_points,)
    for i, wf in enumerate(wfs):
        p1, v1 = one_point(params, variant, beta, hist, wf, queries[i], masks[i])
        np.testing.assert_allclose(probs.data[i], p1.data[0], rtol=1e-12,
                                   atol=1e-12)
        np.testing.assert_allclose(values.data[i], v1.data[0], rtol=1e-12,
                                   atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VARIANTS), st.sampled_from([0.0, 0.7]),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1,
                max_size=5),
       st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(0, 2**32 - 1))
# a point with responses only beside one with queries only
@example("full", 0.7, [(0, 2), (1, 0)], (0, 0), 0)
# a merged variant whose history has responses and no workflow does
@example("hetero", 0.7, [(1, 0), (2, 0)], (1, 2), 0)
def test_messages_are_the_tape_batch_bit_for_bit(variant, beta, counts, hist_counts,
                                                 seed):
    """`messages` stacks the points' own mean messages, and equals the
    tape's batched builder bit for bit on windows that mix points with and
    without queries or responses, the history's edges included in a merged
    variant; at beta = 0 there are none."""
    rng = np.random.default_rng(seed)
    d_q, d_r = (3, 3) if variant == "homo" else (3, 2)
    params = init_params(EncoderDims(d_q=d_q, d_r=d_r, d_hub=d_q, hidden=2),
                         variant, seed=seed % 5)
    H = 4
    hist = random_input(rng, d_q, H, *hist_counts, 12, d_r=d_r)
    wfs = [random_input(rng, d_q, H, nq, nr, 10, d_r=d_r) for nq, nr in counts]
    policy = RoutingPolicy(params, variant, beta)
    policy.prepare(hist)
    means, kinds = policy.messages(wfs)
    want, want_kinds = T.mean_messages(wfs, None if variant == "full" else hist,
                                       beta, H)
    assert kinds == want_kinds
    if beta == 0.0:
        assert (means, kinds) == (None, ())
    elif want is None:
        assert means is None and kinds == (False, False)
    else:
        assert means.shape == want.shape and means.tobytes() == want.tobytes()


def backward_visiting_every_parent(loss):
    """Reverse-mode reference that also runs every constant's closure."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p, _ in node._parents
                         if id(p) not in seen)
    grads = {id(loss): np.ones(())}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and not node._parents:
            node.grad = g if node.grad is None else node.grad + g
        for parent, fn in node._parents:
            c = fn(g)
            grads[id(parent)] = grads[id(parent)] + c if id(parent) in grads else c


@pytest.mark.parametrize("variant", ["full", "hetero"])
def test_skipping_constants_leaves_gradients_bit_identical(variant):
    rng = np.random.default_rng(3)
    dims = EncoderDims(d_q=5, d_r=5, d_hub=5, hidden=4)
    params = leaves(init_params(dims, variant, seed=3))
    hist = random_input(rng, 5, 6, 3, 2, 9)
    wfs = [random_input(rng, 5, 6, 2, 1, 7), random_input(rng, 5, 6, 1, 0, 3)]
    queries = rng.normal(size=(2, 5))
    masks = np.array([[True, False, True, True, False, True],
                      [True, True, False, False, False, True]])

    def grads(run_backward):
        for p in params.values():
            p.zero_grad()
        probs, values = encoder(params, variant, 0.7, hist, wfs, queries, masks)
        run_backward(T.add(T.total_sum(logprob_of(probs, [3, 1])),
                           T.total_sum(T.mul(values, values))))
        return {k: p.grad for k, p in params.items()}

    want = grads(backward_visiting_every_parent)
    got = grads(T.backward)
    assert set(got) == set(want)
    for k in want:
        assert np.array_equal(got[k], want[k]), k


# -- policy wrapper --------------------------------------------------------------------


def test_policy_requires_prepare():
    policy = RoutingPolicy(init_params(DIMS, "full"), "full")
    _, wf, _ = workflow_and_history()
    with pytest.raises(RuntimeError):
        policy.act(wf, np.ones(64), np.ones(6, dtype=bool))


def test_policy_greedy_is_argmax_and_deterministic():
    params = init_params(DIMS, "full", seed=2)
    policy = RoutingPolicy(params, "full")
    _, wf, hist = workflow_and_history()
    policy.prepare(hist)
    mask = np.ones(6, dtype=bool)
    idx, value = policy.act(wf, np.ones(64), mask, mode="greedy")
    assert policy.act(wf, np.ones(64), mask, mode="greedy") == (idx, value)
    probs, values = one_point(params, "full", 1.0, hist, wf, np.ones(64), mask)
    assert idx == int(np.argmax(probs.data[0]))
    assert value == float(values.data[0])


# the env pools `env_point` draws from: (EnvConfig keywords, benchmark width
# profile); the five-role one is multistep-readonly's action space on two
# models, so thinker and verifier responses, second-level children and
# summary queries reach the encoder
ENV_POOLS = {"three-role": (dict(n_roles=3, p_max=1), (1,)),
             "five-role": (dict(n_roles=5, p_max=2, width=3), (3,))}


def env_walk(rng, pool, n_hist, steps):
    """A history after `n_hist` random episodes on the pool named `pool`,
    and the env after `steps` random steps of a fresh episode (at its root
    when 0)."""
    cfg_kw, widths = ENV_POOLS[pool]
    bench = make_benchmark(
        BenchmarkSpec(kind="uniform", families=("a", "b"), queries_per_family=4,
                      width_profile=widths, seed=5), k_models=2)
    env_cfg = EnvConfig(n_models=2, **cfg_kw)
    hubs = bench.build_hubs(env_cfg.n_roles)
    hist = HeteroGraph("history", hubs, capacity=64)

    def walk(query, n):
        env = RoutingEnv(env_cfg, bench, hubs)
        env.reset(query)
        for _ in range(n):
            if env.finished:
                break
            legal = np.flatnonzero(env.legal_mask())
            env.step(env_cfg.action_of(int(rng.choice(legal))))
        return env

    for i in range(n_hist):
        env = walk(bench.train_query(i), 16)
        absorb_episode(hist, Episode(records=[], utility=0.0, truncated=False,
                                     family=0, workflow=env.workflow))
    return hist, walk(bench.eval_query(int(rng.integers(0, 8))), steps)


def env_point(rng, pool, n_hist, steps):
    """`env_walk`'s history state, and its episode's workflow state and query."""
    hist, env = env_walk(rng, pool, n_hist, steps)
    wf, q = env.snapshot()
    return hist.hub_state(), wf, q


def test_the_five_role_env_points_reach_every_node_kind():
    """Random walks of the five-role pool reach thinker and verifier
    responses, second-level children and summary queries."""
    seen = set()
    for seed in range(40):
        _, env = env_walk(np.random.default_rng(seed), "five-role", 0, 12)
        wf = env.workflow
        seen |= {ALL_ROLES[r.produced_by[0]].name for r in wf.responses.values()}
        seen |= {f"depth {q.depth}" for q in wf.queries.values()}
        seen |= {"summary" for q in wf.queries.values() if q.is_summary}
    assert {"thinker", "verifier", "summarizer", "depth 2", "summary"} <= seen


@settings(max_examples=225, deadline=None)
@given(st.sampled_from(VARIANTS), st.sampled_from([0.0, 1.0]),
       st.sampled_from([*ENV_POOLS, "random"]), st.integers(0, 3), st.integers(0, 6),
       st.sampled_from(["greedy", "sample"]), st.integers(0, 2**32 - 1))
def test_act_is_the_tape_forward_bit_for_bit(variant, beta, source, n_hist, steps,
                                             mode, seed):
    """`act` gives the tape `encoder`'s probabilities and value on one point,
    bit for bit, and the action greedy or sampled decoding of those takes;
    like `forward`, it refuses a mask that allows nothing."""
    rng = np.random.default_rng(seed)
    if source in ENV_POOLS:
        dims = DIMS
        # five-role episodes run longer: walk twice as far into them
        hist, wf, q = env_point(rng, source, n_hist,
                                2 * steps if source == "five-role" else steps)
    else:  # arbitrary edges: hubs with no edge, responses with no query
        dims = EncoderDims(d_q=4, d_r=4, d_hub=4, hidden=3)
        hist = random_input(rng, 4, 6, n_hist, int(rng.integers(0, 3)),
                            int(rng.integers(0, 12)))
        wf = random_input(rng, 4, 6, int(rng.integers(0, 3)), steps // 2,
                          int(rng.integers(0, 12)))
        q = rng.normal(size=4)
    params = init_params(dims, variant, seed=seed % 5)
    H = hist.n_hubs
    mask = rng.uniform(size=H) < 0.5
    mask[rng.integers(0, H)] = True

    softmaxes = []
    softmax = tensor.masked_softmax_array

    def spy_softmax(scores, m):
        softmaxes.append(softmax(scores, m))
        return softmaxes[-1]

    policy = RoutingPolicy(params, variant, beta)
    with mock.patch.object(tensor, "masked_softmax_array", spy_softmax):
        policy.prepare(hist)
        idx, value = policy.act(wf, q, mask, mode, np.random.default_rng(seed))
    probs, values = one_point(params, variant, beta, hist, wf, q, mask)
    [act_probs] = softmaxes
    assert act_probs.tobytes() == probs.data.tobytes()
    assert value.hex() == float(values.data[0]).hex()
    p = probs.data[0]
    assert idx == (int(np.argmax(p)) if mode == "greedy" else
                   int(np.random.default_rng(seed).choice(p.shape[0], p=p)))
    nothing = np.zeros_like(mask)
    with pytest.raises(ValueError):
        policy.forward(policy.messages([wf]), q[None, :], nothing[None, :])
    with pytest.raises(ValueError):
        policy.act(wf, q, nothing, mode, np.random.default_rng(seed))


def test_policy_sampling_needs_rng():
    policy = RoutingPolicy(init_params(DIMS, "full"), "full")
    _, wf, hist = workflow_and_history()
    policy.prepare(hist)
    with pytest.raises(ValueError):
        policy.act(wf, np.ones(64), np.ones(6, dtype=bool), mode="sample")
    rng = np.random.default_rng(0)
    idx, _ = policy.act(wf, np.ones(64), np.ones(6, dtype=bool),
                        mode="sample", rng=rng)
    assert 0 <= idx < 6


def test_policy_sampling_reproducible_per_stream():
    params = init_params(DIMS, "full", seed=2)
    _, wf, hist = workflow_and_history()
    draws = []
    for _ in range(2):
        policy = RoutingPolicy(params, "full")
        policy.prepare(hist)
        rng = np.random.default_rng(123)
        draws.append([policy.act(wf, np.ones(64), np.ones(6, dtype=bool),
                                 mode="sample", rng=rng)[0] for _ in range(10)])
    assert draws[0] == draws[1]
