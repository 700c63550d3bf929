"""Autodiff engine: op semantics, gradients, optimizer, persistence."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentroute import tensor as T
from agentroute.tensor import Adam, Tensor, clip_global_norm


def grad_of(build, *arrays):
    """Reverse-mode gradients of a scalar-valued builder."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*ts)
    T.backward(loss)
    return [t.grad for t in ts]


def fd_grad(build, arrays, h=1e-6):
    """Central finite differences, one array at a time."""
    grads = []
    for k, a in enumerate(arrays):
        g = np.zeros_like(a, dtype=np.float64)
        flat = g.reshape(-1)
        for i in range(a.size):
            bumped = [x.astype(np.float64).copy() for x in arrays]
            bumped[k].reshape(-1)[i] += h
            up = build(*[Tensor(x) for x in bumped]).data
            bumped[k].reshape(-1)[i] -= 2 * h
            dn = build(*[Tensor(x) for x in bumped]).data
            flat[i] = (up - dn) / (2 * h)
        grads.append(g)
    return grads


def check_op(build, *arrays, tol=1e-6):
    got = grad_of(build, *arrays)
    want = fd_grad(build, list(arrays))
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=tol, atol=tol)


# -- forward semantics -------------------------------------------------------------


def test_add_broadcasts():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.arange(3.0))
    out = T.add(a, b)
    np.testing.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])


def test_matmul_is_2d_only():
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_masked_softmax_frozen_values():
    scores = Tensor(np.array([1.0, 2.0, 3.0]))
    mask = np.array([True, True, False])
    out = T.masked_softmax(scores, mask)
    np.testing.assert_allclose(out.data, [0.26894142, 0.73105858, 0.0],
                               atol=1e-8)
    assert out.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_masked_softmax_requires_an_allowed_entry():
    with pytest.raises(ValueError):
        T.masked_softmax(Tensor(np.zeros(3)), np.zeros(3, dtype=bool))


def test_masked_softmax_normalises_each_row():
    scores = Tensor(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
    mask = np.array([[True, True, False], [False, False, True]])
    out = T.masked_softmax(scores, mask).data
    np.testing.assert_allclose(out[0], [0.26894142, 0.73105858, 0.0], atol=1e-8)
    np.testing.assert_array_equal(out[1], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        T.masked_softmax(scores, np.array([[True, False, False],
                                           [False, False, False]]))


def test_sum_axis_of_empty_is_zeros():
    out = T.sum_axis(Tensor(np.zeros((0, 4))), axis=0)
    np.testing.assert_array_equal(out.data, np.zeros(4))


def test_pick_rows_and_broadcast_to_values():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(T.pick_rows(a, [2, 0]).data, [2.0, 3.0])
    with pytest.raises(ValueError):
        T.pick_rows(a, [0])
    row = Tensor(np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(T.broadcast_to(row, (3, 2)).data,
                                  [[1.0, 2.0]] * 3)
    assert T.broadcast_to(row, (1, 2)) is row


def test_safe_log_zero_is_silent():
    out = T.safe_log(Tensor(np.array([0.0, 1.0])))
    assert out.data[0] == 0.0 and out.data[1] == 0.0


def test_clip_global_norm_frozen_scale():
    t = Tensor(np.zeros(2), requires_grad=True)
    t.grad = np.array([2.0, 0.0])  # norm 2.0 against a 0.5 ceiling
    scale = clip_global_norm([t], 0.5)
    assert scale == pytest.approx(0.25)
    np.testing.assert_allclose(t.grad, [0.5, 0.0])


def test_clip_global_norm_within_bound_is_identity():
    t = Tensor(np.zeros(2), requires_grad=True)
    t.grad = np.array([0.1, 0.0])
    assert clip_global_norm([t], 0.5) == 1.0
    np.testing.assert_array_equal(t.grad, [0.1, 0.0])


def test_no_grad_inputs_build_no_tape():
    a = Tensor(np.ones(3))
    out = T.relu(T.add(a, a))
    assert out._parents == [] and not out.requires_grad


def test_backward_rejects_non_scalar():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        T.backward(T.relu(a))


def test_backward_never_calls_a_constant_parents_closure():
    def boom(g):
        raise AssertionError("gradient of a constant was computed")

    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    c = Tensor(np.array([3.0, 4.0]))
    out = T._make(x.data * c.data, [(c, boom), (x, lambda g: g * c.data)])
    T.backward(T.total_sum(out))
    np.testing.assert_array_equal(x.grad, [3.0, 4.0])
    assert c.grad is None


# -- gradients against finite differences ------------------------------------------


def test_grad_add_mul_broadcast():
    rng = np.random.default_rng(0)
    check_op(lambda a, b: T.total_sum(T.mul(T.add(a, b), a)),
             rng.normal(size=(3, 4)), rng.normal(size=(4,)))


def test_grad_matmul_chain():
    rng = np.random.default_rng(1)
    check_op(lambda a, b: T.total_sum(T.matmul(a, b)),
             rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))


def test_grad_concat_reshape():
    rng = np.random.default_rng(2)
    check_op(lambda a, b: T.total_sum(T.reshape(T.concat([a, b], axis=0), (10,))),
             rng.normal(size=(3, 2)), rng.normal(size=(2, 2)))


def test_grad_relu_exp_log():
    rng = np.random.default_rng(3)
    check_op(lambda a: T.total_sum(T.exp(T.relu(a))), rng.normal(size=(5,)))
    check_op(lambda a: T.total_sum(T.log(a)), rng.uniform(0.5, 2.0, size=(5,)))


def test_grad_clip_and_minimum():
    rng = np.random.default_rng(4)
    check_op(lambda a: T.total_sum(T.clip(a, -0.5, 0.5)),
             rng.normal(size=(6,)) * 2)
    check_op(lambda a, b: T.total_sum(T.minimum(a, b)),
             rng.normal(size=(6,)), rng.normal(size=(6,)))


def test_grad_row_normalize():
    rng = np.random.default_rng(6)
    check_op(lambda a: T.total_sum(T.mul(T.row_normalize(a), a)),
             rng.normal(size=(3, 5)))


def test_grad_masked_softmax_pick():
    rng = np.random.default_rng(7)
    mask = np.array([[True, False, True, True], [False, True, True, False]])
    check_op(lambda a: T.total_sum(T.pick_rows(T.masked_softmax(a, mask),
                                               [2, 1])),
             rng.normal(size=(2, 4)))


def test_grad_sum_axis_broadcast():
    rng = np.random.default_rng(8)
    check_op(lambda a, b: T.total_sum(T.mul(T.sum_axis(a, axis=1), b)),
             rng.normal(size=(4, 3, 2)), rng.normal(size=(4, 2)))
    check_op(lambda a, b: T.total_sum(T.mul(T.broadcast_to(a, (4, 3)), b)),
             rng.normal(size=(1, 3)), rng.normal(size=(4, 3)))


def test_grad_accumulates_across_uses():
    a = Tensor(np.array([2.0]), requires_grad=True)
    loss = T.total_sum(T.add(T.mul(a, a), a))  # d/da (a^2 + a) = 2a + 1
    T.backward(loss)
    np.testing.assert_allclose(a.grad, [5.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_masked_softmax_is_a_distribution(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    scores = rng.normal(size=n) * 5
    mask = rng.uniform(size=n) < 0.6
    if not mask.any():
        mask[int(rng.integers(0, n))] = True
    p = T.masked_softmax(Tensor(scores), mask).data
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert (p[~mask] == 0.0).all() and (p[mask] > 0.0).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_unbroadcast_inverts_broadcast(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    got = grad_of(lambda x, y: T.total_sum(T.mul(x, y)), a, b)
    np.testing.assert_allclose(got[1], a.sum(axis=0), atol=1e-9)


# -- optimizer ----------------------------------------------------------------------


def test_adam_first_step_magnitude():
    # with bias correction the first step has magnitude lr regardless of g
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([123.0])
    Adam({"p": p}, lr=0.01).step()
    np.testing.assert_allclose(p.data, [1.0 - 0.01], atol=1e-9)


def test_adam_skips_gradless_params():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.5)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0])


def test_adam_step_is_the_textbook_step_bit_for_bit():
    rng = np.random.default_rng(7)
    shapes = {"w": (6, 5), "b": (5,), "idle": (3,)}
    params = {k: Tensor(rng.normal(size=s), requires_grad=True)
              for k, s in shapes.items()}
    opt = Adam(params, lr=3e-3)
    want = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    b1, b2, lr, eps = 0.9, 0.999, 3e-3, 1e-8
    for t in range(1, 9):
        grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-6, 2)
                 for k, s in shapes.items() if k != "idle"}
        held = {k: (p.data, p.data.copy()) for k, p in params.items()}
        for k, p in params.items():
            p.grad = grads.get(k)
        opt.step()
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
            m_hat = m[k] / (1.0 - b1 ** t)
            v_hat = v[k] / (1.0 - b2 ** t)
            want[k] = want[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for k, p in params.items():
            assert p.data.tobytes() == want[k].tobytes(), (k, t)
            assert opt.m[k].tobytes() == m[k].tobytes(), (k, t)
            assert opt.v[k].tobytes() == v[k].tobytes(), (k, t)
            # rebound, not written: whoever holds the old array keeps its values
            assert np.array_equal(*held[k]), (k, t)
    assert not opt.m["idle"].any() and not opt.v["idle"].any()


def test_adam_descends_quadratic():
    p = Tensor(np.array([3.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        loss = T.total_sum(T.mul(p, p))
        T.backward(loss)
        opt.step()
    assert abs(p.data.item()) < 0.1


# -- persistence --------------------------------------------------------------------


def test_params_round_trip(tmp_path):
    params = {"a.W": Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True),
              "b": Tensor(np.array([0.1, -0.2]), requires_grad=True)}
    path = tmp_path / "p.json"
    T.save_params(path, params, meta={"note": 1})
    loaded, meta = T.load_params(path)
    assert meta == {"note": 1}
    assert set(loaded) == {"a.W", "b"}
    for k in params:
        np.testing.assert_array_equal(loaded[k].data, params[k].data)


def test_params_file_is_the_json_text_of_the_blob(tmp_path):
    params = {"w": Tensor(np.array([[0.1, -0.0], [1e-300, 1.0 / 3.0]])),
              "b": Tensor(np.array([2.5e17, -7.0]))}
    meta = {"variant": "full", "note": "caf\u00e9", "n": 3}
    path = tmp_path / "p.json"
    T.save_params(path, params, meta=meta)
    blob = dict(T.params_to_jsonable(params), meta=meta)
    streamed = io.StringIO()
    json.dump(blob, streamed, sort_keys=True)
    assert path.read_text() == json.dumps(blob, sort_keys=True) == streamed.getvalue()


def test_params_version_check(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"format_version": 99, "tensors": {}}))
    with pytest.raises(ValueError):
        T.load_params(path)


def test_params_reject_malformed():
    with pytest.raises(ValueError):
        T.params_from_jsonable({"nope": 1})
