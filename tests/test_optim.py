"""AdamW update rule: hand-checked first step, decay behavior, and failure guards."""

import dataclasses

import numpy as np
import pytest

from emord import optim
from emord.net import ModelConfig, init_params
from emord.optim import AdamWConfig, AdamWState, OptimizerError, adamw_step


def small_setup(dtype="float64"):
    cfg = ModelConfig(
        vocab_size=7,
        output_width=3,
        head_mode="softmax",
        embed_dim=3,
        conv_channels=(2, 2),
        kernel_sizes=(6, 4),
        ffnn_hidden=(3, 3),
        dtype=dtype,
    )
    params = init_params(cfg, seed=0)
    return cfg, params


def grads_like(params, fill=0.5):
    g = params.copy()
    for _, arr in g.named():
        arr[...] = fill
    return g


def test_config_validation():
    with pytest.raises(ValueError, match="^learning_rate must be positive, got 0.0$"):
        AdamWConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match=r"^beta1 must be in \[0, 1\), got 1.0$"):
        AdamWConfig(beta1=1.0)
    with pytest.raises(ValueError, match=r"^beta2 must be in \[0, 1\), got -0.5$"):
        AdamWConfig(beta2=-0.5)
    with pytest.raises(ValueError, match="^eps must be positive, got 0$"):
        AdamWConfig(eps=0)
    with pytest.raises(ValueError, match="^weight_decay must be non-negative, got -0.1$"):
        AdamWConfig(weight_decay=-0.1)
    with pytest.raises(ValueError, match="^learning_rate must be finite, got nan$"):
        AdamWConfig(learning_rate=float("nan"), eps=float("inf"))
    with pytest.raises(ValueError, match="^eps must be finite, got inf$"):
        AdamWConfig(eps=float("inf"))


def test_first_step_matches_hand_computation():
    _, params = small_setup()
    opt = AdamWConfig(learning_rate=0.01, weight_decay=0.0)
    state = AdamWState.initial(params)
    grads = grads_like(params, fill=0.5)
    before = {name: arr.copy() for name, arr in params.named()}
    adamw_step(params, grads, state, opt)
    # with m=v=0 and a constant gradient g: m_hat = g, v_hat = g^2,
    # update = lr * g / (|g| + eps) = lr * sign(g) (up to eps)
    expected_delta = -0.01 * 0.5 / (0.5 + 1e-8)
    for name, arr in params.named():
        assert np.allclose(arr - before[name], expected_delta, atol=1e-10), name
    assert state.step == 1


def test_weight_decay_is_decoupled():
    _, params = small_setup()
    opt = AdamWConfig(learning_rate=0.1, weight_decay=0.5)
    state = AdamWState.initial(params)
    grads = grads_like(params, fill=0.0)
    grads.fc1_w[...] = 0.0
    before = params.fc1_w.copy()
    adamw_step(params, grads, state, opt)
    # zero gradient: the only movement is the decay term lr * wd * param
    assert np.allclose(params.fc1_w, before * (1 - 0.1 * 0.5))


def test_nonfinite_gradient_aborts_without_mutation():
    _, params = small_setup()
    opt = AdamWConfig()
    state = AdamWState.initial(params)
    grads = grads_like(params, fill=0.1)
    grads.fc2_w[0, 0] = np.nan
    before = {name: arr.copy() for name, arr in params.named()}
    m_before = {name: arr.copy() for name, arr in state.m.named()}
    with pytest.raises(OptimizerError, match="fc2_w"):
        adamw_step(params, grads, state, opt)
    for name, arr in params.named():
        assert np.array_equal(arr, before[name])
    for name, arr in state.m.named():
        assert np.array_equal(arr, m_before[name])
    assert state.step == 0


def test_two_steps_track_moments():
    _, params = small_setup()
    opt = AdamWConfig(learning_rate=0.01, weight_decay=0.0)
    state = AdamWState.initial(params)

    # replicate the published update rule directly on one scalar entry
    g1, g2 = 0.5, -0.25
    m = v = 0.0
    x = float(params.fc3_b[1])
    for t, g in ((1, g1), (2, g2)):
        m = opt.beta1 * m + (1 - opt.beta1) * g
        v = opt.beta2 * v + (1 - opt.beta2) * g * g
        m_hat = m / (1 - opt.beta1**t)
        v_hat = v / (1 - opt.beta2**t)
        x -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.eps)

    for fill in (g1, g2):
        grads = grads_like(params, fill=fill)
        adamw_step(params, grads, state, opt)
    assert params.fc3_b[1] == pytest.approx(x, rel=1e-12)
    assert state.step == 2


def test_state_shapes_follow_params():
    _, params = small_setup()
    state = AdamWState.initial(params)
    for name, arr in params.named():
        assert getattr(state.m, name).shape == arr.shape
        assert getattr(state.v, name).shape == arr.shape
        assert np.all(getattr(state.m, name) == 0.0)


def test_moments_are_fixed_views_into_arenas():
    _, params = small_setup()
    state = AdamWState.initial(params)
    assert not np.shares_memory(state.m.arena, state.v.arena)
    for moments in (state.m, state.v):
        assert [name for name, _ in moments.named()] == [name for name, _ in params.named()]
        assert all(arr.base is moments.arena for _, arr in moments.named())
        with pytest.raises(dataclasses.FrozenInstanceError):
            moments.fc1_w = np.zeros_like(params.fc1_w)
    twin = state.copy()
    twin.m.fc1_w[...] = 1.0
    assert twin.step == state.step
    assert not np.shares_memory(twin.m.arena, state.m.arena)
    assert np.all(state.m.fc1_w == 0.0)


def reference_adamw(params, grads, m, v, t, opt):
    # the update rule written as one expression per parameter
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t
    for name, param in params.items():
        grad = grads[name]
        m[name] *= opt.beta1
        m[name] += (1.0 - opt.beta1) * grad
        v[name] *= opt.beta2
        v[name] += (1.0 - opt.beta2) * np.square(grad)
        param -= opt.learning_rate * (
            m[name] / bc1 / (np.sqrt(v[name] / bc2) + opt.eps)
            + opt.weight_decay * param
        )


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_steps_equal_the_rule_term_for_term(dtype):
    _, params = small_setup(dtype)
    opt = AdamWConfig(learning_rate=0.02, weight_decay=0.1)
    state = AdamWState.initial(params)
    ref = {name: arr.copy() for name, arr in params.named()}
    ref_m = {name: np.zeros_like(arr) for name, arr in params.named()}
    ref_v = {name: np.zeros_like(arr) for name, arr in params.named()}
    rng = np.random.default_rng(11)
    for t in range(1, 6):
        grads = grads_like(params)
        for _, arr in grads.named():
            arr[...] = rng.standard_normal(arr.shape)
        adamw_step(params, grads, state, opt)
        reference_adamw(ref, dict(grads.named()), ref_m, ref_v, t, opt)
    for name, arr in params.named():
        assert arr.dtype == np.dtype(dtype)
        assert np.array_equal(arr, ref[name]), name
        assert np.array_equal(getattr(state.m, name), ref_m[name]), name
        assert np.array_equal(getattr(state.v, name), ref_v[name]), name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_blocked_pass_equals_the_rule(monkeypatch, dtype):
    # blocks of 7 elements split arrays mid-way and leave a short last block
    monkeypatch.setattr(optim, "_BLOCK", 7)
    _, params = small_setup(dtype)
    opt = AdamWConfig(learning_rate=0.02, weight_decay=0.1)
    state = AdamWState.initial(params)
    ref = {name: arr.copy() for name, arr in params.named()}
    ref_m = {name: np.zeros_like(arr) for name, arr in params.named()}
    ref_v = {name: np.zeros_like(arr) for name, arr in params.named()}
    rng = np.random.default_rng(12)
    for t in range(1, 4):
        grads = grads_like(params)
        grads.arena[...] = rng.standard_normal(grads.arena.shape)
        adamw_step(params, grads, state, opt)
        reference_adamw(ref, dict(grads.named()), ref_m, ref_v, t, opt)
    assert params.arena.size % 7 != 0
    for name, arr in params.named():
        assert np.array_equal(arr, ref[name]), name
        assert np.array_equal(getattr(state.m, name), ref_m[name]), name
        assert np.array_equal(getattr(state.v, name), ref_v[name]), name
    # a non-finite entry in the last block still aborts before any block moves
    grads.fc3_b[-1] = np.inf
    before = params.arena.copy()
    with pytest.raises(OptimizerError, match="fc3_b"):
        adamw_step(params, grads, state, opt)
    assert np.array_equal(params.arena, before)
    assert state.step == 3
