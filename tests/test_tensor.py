"""The reference tape's ops and gradients, the shipped gradient clip and
optimizer, parameter persistence, and the rule that no program module uses
the tape."""

import ast
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape as T
from agentroute.tensor import (Adam, clip_global_norm, load_params,
                               masked_softmax_array, params_from_jsonable,
                               params_to_jsonable, save_params)
from tape import Tensor


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
    scores = np.array([1.0, 2.0, 3.0])
    mask = np.array([True, True, False])
    out = masked_softmax_array(scores, mask)
    np.testing.assert_allclose(out, [0.26894142, 0.73105858, 0.0], atol=1e-8)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert T.masked_softmax(Tensor(scores), mask).data.tobytes() == out.tobytes()


def test_masked_softmax_requires_an_allowed_entry():
    with pytest.raises(ValueError):
        masked_softmax_array(np.zeros(3), np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        masked_softmax_array(np.zeros(3), np.ones(4, dtype=bool))


def test_masked_softmax_normalises_each_row():
    scores = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    mask = np.array([[True, True, False], [False, False, True]])
    out = masked_softmax_array(scores, mask)
    np.testing.assert_allclose(out[0], [0.26894142, 0.73105858, 0.0], atol=1e-8)
    np.testing.assert_array_equal(out[1], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        masked_softmax_array(scores, np.array([[True, False, False],
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
    # norm 2.0 against a 0.5 ceiling; a weight without a gradient stays None
    grads = {"a": np.array([1.2, 0.0]), "idle": None, "b": np.array([1.6])}
    held = grads["a"]
    scale = clip_global_norm(grads, 0.5)
    assert scale == pytest.approx(0.25)
    np.testing.assert_allclose(grads["a"], [0.3, 0.0])
    np.testing.assert_allclose(grads["b"], [0.4])
    assert grads["idle"] is None
    np.testing.assert_array_equal(held, [1.2, 0.0])  # rebound, not written


def test_clip_global_norm_within_bound_is_identity():
    g = np.array([0.1, 0.0])
    grads = {"t": g, "idle": None}
    assert clip_global_norm(grads, 0.5) == 1.0
    assert grads == {"t": g, "idle": None} and grads["t"] is g


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
    p = masked_softmax_array(scores, mask)
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
    params = {"p": np.array([1.0])}
    Adam(params, lr=0.01).step(params, {"p": np.array([123.0])})
    np.testing.assert_allclose(params["p"], [1.0 - 0.01], atol=1e-9)


def test_adam_skips_gradless_params():
    params = {"p": np.array([1.0])}
    held = params["p"]
    opt = Adam(params, lr=0.5)
    opt.step(params, {"p": None})
    assert params["p"] is held and not opt.m["p"].any()
    np.testing.assert_array_equal(params["p"], [1.0])


def test_adam_step_is_the_textbook_step_bit_for_bit():
    rng = np.random.default_rng(7)
    shapes = {"w": (6, 5), "b": (5,), "idle": (3,)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    params["other"] = rng.normal(size=4)  # in the dict, not in the group
    other = params["other"]
    opt = Adam({k: params[k] for k in shapes}, lr=3e-3)
    want = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    b1, b2, lr, eps = 0.9, 0.999, 3e-3, 1e-8
    for t in range(1, 9):
        grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-6, 2)
                 for k, s in shapes.items() if k != "idle"}
        held = {k: (p, p.copy()) for k, p in params.items()}
        opt.step(params, {**grads, "idle": None, "other": np.ones(4)})
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
            m_hat = m[k] / (1.0 - b1 ** t)
            v_hat = v[k] / (1.0 - b2 ** t)
            want[k] = want[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for k in shapes:
            assert params[k].tobytes() == want[k].tobytes(), (k, t)
            assert opt.m[k].tobytes() == m[k].tobytes(), (k, t)
            assert opt.v[k].tobytes() == v[k].tobytes(), (k, t)
        for k, p in params.items():
            # rebound, not written: whoever holds the old array keeps its values
            assert np.array_equal(*held[k]), (k, t)
    assert not opt.m["idle"].any() and not opt.v["idle"].any()
    assert set(opt.m) == set(shapes) and params["other"] is other


def test_adam_descends_quadratic():
    params = {"p": np.array([3.0])}
    opt = Adam(params, lr=0.1)
    for _ in range(200):
        opt.step(params, {"p": 2.0 * params["p"]})  # the gradient of p^2
    assert abs(params["p"].item()) < 0.1


# -- persistence --------------------------------------------------------------------


def test_params_round_trip(tmp_path):
    params = {"a.W": np.arange(6.0).reshape(2, 3), "b": np.array([0.1, -0.2])}
    path = tmp_path / "p.json"
    save_params(path, params, meta={"note": 1})
    loaded, meta = load_params(path)
    assert meta == {"note": 1}
    assert set(loaded) == {"a.W", "b"}
    for k in params:
        assert type(loaded[k]) is np.ndarray and loaded[k].dtype == np.float64
        np.testing.assert_array_equal(loaded[k], params[k])


def test_params_file_is_the_json_text_of_the_blob(tmp_path):
    params = {"w": np.array([[0.1, -0.0], [1e-300, 1.0 / 3.0]]),
              "b": np.array([2.5e17, -7.0])}
    meta = {"variant": "full", "note": "caf\u00e9", "n": 3}
    path = tmp_path / "p.json"
    save_params(path, params, meta=meta)
    blob = dict(params_to_jsonable(params), meta=meta)
    streamed = io.StringIO()
    json.dump(blob, streamed, sort_keys=True)
    assert path.read_text() == json.dumps(blob, sort_keys=True) == streamed.getvalue()


def test_params_version_check(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"format_version": 99, "tensors": {}}))
    with pytest.raises(ValueError):
        load_params(path)


def test_params_reject_malformed():
    with pytest.raises(ValueError):
        params_from_jsonable({"nope": 1})

# -- no program module uses the tape -------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "agentroute"
TAPE_NAMES = {"Tensor", "requires_grad", "zero_grad"}


def tape_uses(source: str) -> list[str]:
    """Where source names the tape: `Tensor`, `requires_grad` or `zero_grad`
    as a name, attribute, import, definition, argument, keyword or string
    annotation, or any `.grad` attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "grad":
            found.append(f"line {node.lineno}: .grad")
        names = [getattr(node, f, None) for f in ("id", "attr", "name", "asname", "arg")]
        if isinstance(node, ast.alias):  # `import tape.Tensor`
            names.append(node.name.rsplit(".", 1)[-1])
        if isinstance(node, ast.Constant):  # a string annotation
            names.append(node.value)
        found += [f"line {node.lineno}: {name}" for name in names
                  if name in TAPE_NAMES]
    return found


@pytest.mark.parametrize("source", [
    "from .tensor import Tensor", "from tape import leaves as Tensor",
    "import tape.Tensor", "x = Tensor(a)", "x = T.Tensor(a)",
    "def f(p: 'Tensor'): pass", "class Tensor: pass", "p.grad = g",
    "g = params[k].grad", "opt.zero_grad()", "def zero_grad(self): pass",
    "w = f(a, requires_grad=True)", "def f(requires_grad=False): pass",
    "if p.requires_grad: pass",
])
def test_the_tape_guard_sees_every_use_of_the_tape(source):
    assert tape_uses(source)


def test_the_tape_guard_passes_the_gradient_dict():
    assert tape_uses(
        "grads = policy.backward(fwd, g_probs, g_values)  # not a Tensor's .grad\n"
        "clip_global_norm(grads, cfg.grad_clip)\n"
        "policy_opt.step(params, grads)\n"
        "def f(grad, g_grad=None):\n"
        "    '''no requires_grad, no zero_grad, no Tensor'''\n"
        "    return x.grads, x.gradient, {'grad': grad}\n") == []


def test_no_program_module_uses_the_tape():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "tensor.py" in modules and len(modules) > 5
    assert tape_uses(Path(T.__file__).read_text())
    offenders = {p.name: tape_uses(p.read_text()) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}
