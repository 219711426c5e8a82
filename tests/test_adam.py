import numpy as np
import pytest

from facegen.adam import AdamState, adam_step
from facegen.errors import ShapeMismatch


def test_zero_gradient_leaves_parameters():
    state = AdamState()
    params = {"x": np.array([1.0, -2.0, 3.0])}
    out = adam_step(state, params, {"x": np.zeros(3)}, lr=0.1)
    assert np.array_equal(out["x"], params["x"])


def test_first_step_hand_value():
    # scalar g=1, lr=0.1: bias-corrected update is -0.1 / (1 + 1e-8)
    state = AdamState()
    out = adam_step(state, {"x": np.array([0.0])}, {"x": np.array([1.0])}, lr=0.1)
    expect = -0.1 * (1.0 / (1.0 + 1e-8))
    assert out["x"][0] == pytest.approx(expect, abs=1e-15)
    assert out["x"][0] == pytest.approx(-0.09999999, abs=1e-7)


def test_two_steps_match_scalar_reference():
    # textbook Adam evaluated step by step with plain floats
    b1, b2, eps, lr, g = 0.9, 0.999, 1e-8, 0.05, 2.0
    m = v = 0.0
    x_ref = 0.3
    trace = []
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        x_ref -= lr * mh / (np.sqrt(vh) + eps)
        trace.append(x_ref)

    state = AdamState()
    params = {"x": np.array([0.3])}
    for expect in trace:
        params = adam_step(state, params, {"x": np.array([g])}, lr=lr)
        assert params["x"][0] == pytest.approx(expect, abs=1e-15)


def test_zero_lr_is_bit_identical():
    state = AdamState()
    params = {"x": np.array([0.1, 0.2])}
    out = adam_step(state, params, {"x": np.array([3.0, -4.0])}, lr=0.0)
    assert np.array_equal(out["x"], params["x"])


def test_deterministic():
    def run():
        state = AdamState()
        params = {"x": np.linspace(0, 1, 5)}
        for i in range(10):
            g = np.sin(np.arange(5) + i)
            params = adam_step(state, params, {"x": g}, lr=0.01)
        return params["x"]

    assert np.array_equal(run(), run())


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        adam_step(AdamState(), {"x": np.zeros(3)}, {"x": np.zeros(4)}, lr=0.1)


def test_blocks_without_gradient_pass_through():
    state = AdamState()
    params = {"x": np.ones(2), "y": np.ones(2)}
    out = adam_step(state, params, {"x": np.ones(2)}, lr=0.1)
    assert out["y"] is params["y"]
    assert not np.array_equal(out["x"], params["x"])


def _textbook_step(state, params, grads, lr, beta1, beta2, eps):
    """adam_step written as the formulas read, each moment a new array."""
    state.step += 1
    bc1, bc2 = 1.0 - beta1 ** state.step, 1.0 - beta2 ** state.step
    out = dict(params)
    for name, g in grads.items():
        p = params[name]
        m = state.m.get(name, np.zeros_like(p))
        v = state.v.get(name, np.zeros_like(p))
        state.m[name] = m = beta1 * m + (1.0 - beta1) * g
        state.v[name] = v = beta2 * v + (1.0 - beta2) * g * g
        out[name] = p - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return out


def test_in_place_moments_are_the_textbook_bits(rng):
    params = {"a": rng.standard_normal((5, 3)), "b": rng.standard_normal(7),
              "c": np.zeros(4)}
    ref_params, ref_state, state = dict(params), AdamState(), AdamState()
    for step in range(6):
        grads = {"a": rng.standard_normal((5, 3)) * 10.0 ** (step - 3),
                 "b": np.where(rng.random(7) < 0.3, 0.0, rng.standard_normal(7))}
        if step % 2:
            grads["c"] = -np.zeros(4)
        params = adam_step(state, params, grads, 0.03, 0.8, 0.99, 1e-7)
        ref_params = _textbook_step(ref_state, ref_params, grads, 0.03, 0.8, 0.99, 1e-7)
        for name in ref_params:
            assert params[name].tobytes() == ref_params[name].tobytes(), (step, name)
        for name in ref_state.m:
            assert state.m[name].tobytes() == ref_state.m[name].tobytes(), (step, name)
            assert state.v[name].tobytes() == ref_state.v[name].tobytes(), (step, name)
