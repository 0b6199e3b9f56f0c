"""Dense numeric kernels: activations, softmax, init, ADAM."""

import numpy as np
import pytest

from locktime.numerics import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    NonFiniteError,
    adam_step,
    check_finite,
    init_adam,
    init_params,
    params_from_doc,
    params_to_doc,
    relu_grad,
    softmax,
    zeros_like,
)


def test_check_finite_reports_location():
    with pytest.raises(NonFiniteError, match="conv0") as excinfo:
        check_finite("conv0", np.array([1.0, np.nan]))
    assert str(excinfo.value) == "non-finite values in conv0"
    # clean arrays pass through unchanged
    a = np.array([1.0, 2.0])
    assert check_finite("ok", a) is a


# --- relu gradient ---

def test_relu_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 3))
    x[np.abs(x) < 1e-3] += 0.1  # keep away from the kink
    up = rng.normal(size=(4, 3))
    h = 1e-7
    fd = (np.maximum(x + h, 0.0) - np.maximum(x - h, 0.0)) / (2 * h)  # elementwise d relu/dx
    assert np.allclose(relu_grad(x, up), fd * up, atol=1e-6)


def test_relu_grad_zero_on_negative_side():
    x = np.array([[-1.0, 2.0]])
    up = np.array([[5.0, 5.0]])
    assert relu_grad(x, up).tolist() == [[0.0, 5.0]]
    with pytest.raises(ValueError):
        relu_grad(np.ones((2, 2)), np.ones((2, 3)))


def test_relu_grad_equals_where_on_special_values():
    finite = np.array([0.0, -0.0, 1.5, -1.5, 5e-324, -5e-324, 1e308, -1e308])
    special = np.concatenate([finite, [np.inf, -np.inf, np.nan]])
    for x_vals, up_vals in ((special, finite), (finite, special), (special, special)):
        x, up = np.meshgrid(x_vals, up_vals)
        assert np.array_equal(relu_grad(x, up), np.where(x > 0, up, 0.0), equal_nan=True)
    # one non-finite upstream entry where the mask is zero, among random ones
    rng = np.random.default_rng(9)
    x, up = rng.normal(size=(50, 8)), rng.normal(size=(50, 8))
    x[3, 2], up[3, 2] = -1.0, np.inf
    x[7, 1], up[7, 1] = -0.0, np.nan
    got = relu_grad(x, up)
    assert np.array_equal(got, np.where(x > 0, up, 0.0), equal_nan=True)
    assert np.isfinite(got).all()


# --- softmax ---

def test_softmax_uniform():
    out = softmax(np.zeros(4))
    assert np.allclose(out, 0.25)
    assert np.isclose(out.sum(), 1.0)


def test_softmax_hand_example():
    out = softmax(np.array([0.0, np.log(3.0)]))
    assert np.allclose(out, [0.25, 0.75])


def test_softmax_shift_invariance():
    v = np.array([0.3, -1.2, 2.5, 0.0])
    assert np.allclose(softmax(v), softmax(v + 123.456), atol=1e-12)


def test_softmax_large_magnitudes_stable():
    out = softmax(np.array([1e3, 1e3 - 1.0, -1e3]))
    assert np.all(np.isfinite(out))
    assert np.isclose(out.sum(), 1.0)
    assert out[2] < 1e-300 or out[2] == 0.0
    e = np.exp(-1.0)
    assert np.isclose(out[1] / out[0], e)


def test_softmax_rejects_matrices_and_nan():
    with pytest.raises(ValueError):
        softmax(np.zeros((2, 2)))
    with pytest.raises(NonFiniteError):
        softmax(np.array([0.0, np.nan]))


def test_softmax_rejects_every_nonfinite_entry():
    # -inf too, though exp would quietly give it weight 0
    for bad in (np.nan, np.inf, -np.inf):
        for v in ([0.0, bad], [bad, 1.0, -1.0], [bad]):
            with pytest.raises(NonFiniteError, match="softmax input"):
                softmax(np.array(v))


# --- initialization ---

def test_init_params_shapes_and_determinism():
    p1 = init_params(11, (32, 16), seed=3)
    p2 = init_params(11, (32, 16), seed=3)
    assert list(p1) == ["conv0", "conv1", "feat", "gate"]
    assert p1["conv0"].shape == (11, 32)
    assert p1["conv1"].shape == (32, 16)
    assert p1["feat"].shape == (16,)
    assert p1["gate"].shape == (1,)
    for k in p1:
        assert np.array_equal(p1[k], p2[k])
    p3 = init_params(11, (32, 16), seed=4)
    assert not np.array_equal(p1["conv0"], p3["conv0"])


def test_glorot_bound_respected():
    p = init_params(11, (32, 16), seed=0)
    bound = np.sqrt(6.0 / (11 + 32))
    assert np.all(np.abs(p["conv0"]) <= bound)
    assert np.max(np.abs(p["conv0"])) > 0.5 * bound  # actually spreads out


def test_param_store_copy_and_shape_checks():
    # parameters are plain dicts: zeros_like and adam_step hand back fresh
    # arrays, and adam_step checks the gradients' names, order and shapes
    p = init_params(3, (4,), seed=0)
    before = {k: v.copy() for k, v in p.items()}
    z = zeros_like(p)
    assert list(z) == list(p)
    assert all(np.all(z[k] == 0) and z[k].shape == p[k].shape for k in z)
    z["conv0"][0, 0] += 1.0
    assert p["conv0"][0, 0] == before["conv0"][0, 0]
    st = init_adam(p, lr=0.1)
    newp, _ = adam_step(p, z, st)
    newp["conv0"][0, 0] += 1.0
    assert all(np.array_equal(p[k], before[k]) for k in p)
    with pytest.raises(ValueError, match="shape mismatch for 'conv0'"):
        adam_step(p, {**zeros_like(p), "conv0": np.zeros((3, 5))}, st)
    z = zeros_like(p)
    for grads in ({"other": np.zeros(1)}, {"conv0": z["conv0"], "feat": z["feat"]},
                  {"feat": z["feat"], "conv0": z["conv0"], "gate": z["gate"]}):
        with pytest.raises(ValueError, match="names differ"):
            adam_step(p, grads, st)


# --- ADAM ---

def _scalar_store(**vals):
    return {k: np.asarray([v], dtype=float) for k, v in vals.items()}


def test_adam_zero_gradient_keeps_params():
    p = _scalar_store(w=1.5)
    st = init_adam(p, lr=0.1)
    newp, newst = adam_step(p, zeros_like(p), st)
    assert newp["w"][0] == 1.5
    assert newst.t == 1


def test_adam_first_step_magnitude_is_lr():
    # bias-corrected first step is lr * g / (|g| + eps) ~= lr * sign(g)
    p = _scalar_store(w=0.0)
    st = init_adam(p, lr=1e-3)
    grads = _scalar_store(w=7.3)
    newp, _ = adam_step(p, grads, st)
    assert np.isclose(newp["w"][0], -1e-3, rtol=1e-6)
    grads = _scalar_store(w=-0.002)
    newp, _ = adam_step(p, grads, st)
    assert np.isclose(newp["w"][0], 1e-3, rtol=1e-5)


def test_adam_minimizes_quadratic_bowl():
    # f(w) = (w0 - 3)^2 + 2 (w1 + 1)^2 down to < 1e-6 within 2000 steps
    p = _scalar_store(w0=0.0, w1=0.0)
    st = init_adam(p, lr=0.05)
    loss = None
    for step in range(2000):
        g = _scalar_store(w0=2 * (p["w0"][0] - 3.0), w1=4 * (p["w1"][0] + 1.0))
        p, st = adam_step(p, g, st)
        loss = (p["w0"][0] - 3.0) ** 2 + 2 * (p["w1"][0] + 1.0) ** 2
        if loss < 1e-6:
            break
    assert loss < 1e-6, f"final loss {loss}"
    assert st.t <= 2000


def test_adam_trajectory_bit_identical():
    def run():
        p = _scalar_store(a=0.3, b=-0.2)
        st = init_adam(p, lr=0.01)
        out = []
        for i in range(50):
            g = _scalar_store(a=np.sin(i) * p["a"][0] + 1, b=p["b"][0] ** 2 - 0.5)
            p, st = adam_step(p, g, st)
            out.append((p["a"][0], p["b"][0]))
        return out

    assert run() == run()


def test_adam_skips_nonfinite_gradient():
    p = _scalar_store(w=2.0)
    st = init_adam(p, lr=0.1)
    bad = _scalar_store(w=np.nan)
    with pytest.warns(RuntimeWarning, match="non-finite gradient"):
        newp, newst = adam_step(p, bad, st)
    assert newp["w"][0] == 2.0
    assert newst.t == 0
    assert np.all(newst.m["w"] == 0.0)
    # a following clean step proceeds normally from the untouched state
    newp, newst = adam_step(newp, _scalar_store(w=1.0), newst)
    assert newst.t == 1
    assert newp["w"][0] < 2.0


def test_adam_shape_mismatch_rejected():
    p = _scalar_store(w=1.0)
    st = init_adam(p)
    with pytest.raises(ValueError):
        adam_step(p, {"w": np.zeros(2)}, st)


def test_adam_state_defaults():
    st = init_adam(_scalar_store(w=0.0))
    assert isinstance(st, AdamState)
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
    assert st.lr == 1e-3 and st.t == 0
    p = init_params(3, (4,), seed=0)
    st = init_adam(p)
    for moments in (st.m, st.v):
        assert list(moments) == list(p)
        assert all(np.array_equal(moments[k], np.zeros_like(p[k])) for k in p)


# --- serialization ---

def test_params_doc_round_trip():
    p = init_params(7, (5, 3), seed=42)
    doc = params_to_doc(p)
    assert doc["conv0"]["shape"] == [7, 5]
    q = params_from_doc(doc)
    assert list(q) == list(p)
    for k in p:
        assert np.array_equal(p[k], q[k])
