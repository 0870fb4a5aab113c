"""Forward-pass semantics: shapes, padding behavior, pooling, and guards."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import emord.net as net
from emord.net import (
    PARAM_FIELDS,
    ModelConfig,
    ModelParams,
    NetError,
    _block_rows,
    _conv1d,
    _conv1d_backward,
    _softmax,
    _sigmoid,
    backward,
    forward,
    init_params,
)
from emord.trainer import PRESETS

WIDTH_FIELDS = ("embed_dim", "conv_channels", "kernel_sizes", "ffnn_hidden")


def tiny_config(**overrides):
    base = dict(
        vocab_size=11,
        output_width=5,
        head_mode="softmax",
        embed_dim=4,
        conv_channels=(3, 4),
        kernel_sizes=(6, 4),
        ffnn_hidden=(6, 5),
        dtype="float64",
    )
    base.update(overrides)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(NetError):
        tiny_config(head_mode="argmax")
    with pytest.raises(NetError):
        tiny_config(dtype="float16")
    with pytest.raises(NetError):
        tiny_config(output_width=0)
    with pytest.raises(NetError):
        # two stacked heads need an even total width
        tiny_config(head_mode="ordinal-2d", output_width=7)
    assert tiny_config().min_seq_length == 9


@pytest.mark.parametrize(
    "widths", [{"embed_dim": 10**23}, {"conv_channels": (4 * 10**9, 4 * 10**9)}]
)
def test_widths_no_array_can_hold_are_a_net_error(widths):
    with pytest.raises(NetError, match=r"^\d+ parameters are more than one array can hold: ModelConfig\(vocab_size="):
        tiny_config(**widths)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_the_largest_arena_a_config_accepts_is_the_largest_array_numpy_indexes(dtype):
    # only configs are built here, never their arenas
    itemsize = np.dtype(dtype).itemsize
    rest = tiny_config(vocab_size=3, embed_dim=1, dtype=dtype).param_count - 3
    largest = np.iinfo(np.intp).max // itemsize - rest  # the vocab_size whose arena just fits
    assert tiny_config(vocab_size=largest, embed_dim=1, dtype=dtype).param_count == largest + rest
    with pytest.raises(NetError, match=f"^{largest + 1 + rest} parameters are more than"):
        tiny_config(vocab_size=largest + 1, embed_dim=1, dtype=dtype)


def preset_model(preset, vocab_size, output_width, head_mode, **overrides):
    """A ModelConfig at the widths trainer.PRESETS gives `preset`."""
    widths = {name: PRESETS[preset][name] for name in WIDTH_FIELDS}
    return ModelConfig(vocab_size, output_width, head_mode, **{**widths, **overrides})


def test_presets():
    desk = preset_model("desk", 100, 7, "softmax")
    assert desk.embed_dim == 32
    assert desk.conv_channels == (32, 64)
    assert desk.ffnn_hidden == (64, 32)
    assert desk.kernel_sizes == (6, 4)
    paper = preset_model("paper", 100, 7, "softmax")
    assert paper.embed_dim == 768
    assert paper.conv_channels == (1024, 2048)
    assert paper.ffnn_hidden == (2048, 768)
    assert paper.kernel_sizes == (6, 4)


def test_init_params_shapes_and_rules():
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    assert params.embedding.shape == (11, 4)
    assert params.conv1_w.shape == (6, 4, 3)  # tap-major: (k1, E, C1)
    assert params.conv2_w.shape == (4, 3, 4)  # (k2, C1, C2)
    assert params.fc1_w.shape == (4, 6)
    assert params.fc2_w.shape == (6, 5)
    assert params.fc3_w.shape == (5, 5)
    # padding row zero, every bias zero, weights inside their uniform bounds
    assert np.all(params.embedding[0] == 0.0)
    assert np.abs(params.embedding[1:]).max() <= 0.05
    for name in ("conv1_b", "conv2_b", "fc1_b", "fc2_b", "fc3_b"):
        assert np.all(getattr(params, name) == 0.0)
    assert np.abs(params.conv1_w).max() <= np.sqrt(1.0 / (4 * 6))
    assert [name for name, _ in params.named()] == list(PARAM_FIELDS)


def test_params_are_views_into_one_arena():
    params = init_params(tiny_config(), seed=0)
    arena = params.arena
    assert arena.ndim == 1 and arena.flags.c_contiguous
    assert arena.size == sum(arr.size for _, arr in params.named())
    offset = 0
    for name, arr in params.named():
        assert arr.base is arena, name
        assert np.shares_memory(arr, arena[offset : offset + arr.size]), name
        offset += arr.size
    # a copy is one fresh arena that shares no memory with the original
    twin = params.copy()
    assert not np.shares_memory(twin.arena, arena)
    assert np.array_equal(twin.arena, arena)
    for (name, a), (_, b) in zip(params.named(), twin.named()):
        assert b.base is twin.arena and np.array_equal(a, b), name


def test_params_fields_cannot_be_rebound():
    params = init_params(tiny_config(), seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.fc1_w = np.zeros_like(params.fc1_w)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.arena = params.arena.copy()
    # writes through a field still reach the arena
    params.fc1_w[...] = 7.0
    assert np.count_nonzero(params.arena == 7.0) == params.fc1_w.size
    # over(config, arena), zeros(config) and like(arena) are the only constructors
    with pytest.raises(TypeError):
        ModelParams(**dict(params.named()))


def test_params_over_an_arena_take_no_copy_and_check_it():
    cfg = tiny_config()
    arena = np.arange(cfg.param_count, dtype=np.float64)
    params = ModelParams.over(cfg, arena)
    assert params.arena is arena
    assert all(arr.base is arena for _, arr in params.named())
    assert [arr.shape for _, arr in params.named()] == list(cfg.param_shapes().values())
    for bad in (arena[:-1], arena.astype(np.float32), arena.reshape(1, -1)):
        with pytest.raises(NetError, match="arena of shape"):
            ModelParams.over(cfg, bad)


def test_init_is_seed_deterministic():
    cfg = tiny_config()
    a = init_params(cfg, seed=3)
    b = init_params(cfg, seed=3)
    c = init_params(cfg, seed=4)
    for name, arr in a.named():
        assert np.array_equal(arr, getattr(b, name))
    assert not np.array_equal(a.embedding, c.embedding)


def test_forward_shapes_and_probabilities():
    cfg = tiny_config()
    params = init_params(cfg, 0)
    rng = np.random.default_rng(0)
    ids = rng.integers(1, 11, size=(4, 12))
    out, cache = forward(params, cfg, ids)
    assert out.shape == (4, 5)
    assert cache.a1.shape == (4, 7, 3)  # 12 - 6 + 1
    assert cache.a2.shape == (4, 4, 4)  # 7 - 4 + 1
    assert np.allclose(out.sum(axis=1), 1.0)
    assert np.all(out > 0)


def test_forward_sigmoid_head():
    cfg = tiny_config(head_mode="ordinal-1d", output_width=4)
    params = init_params(cfg, 0)
    ids = np.full((2, 12), 3, dtype=np.int64)
    out, _ = forward(params, cfg, ids)
    assert out.shape == (2, 4)
    assert np.all((out > 0) & (out < 1))


def test_forward_input_guards():
    cfg = tiny_config()
    params = init_params(cfg, 0)
    with pytest.raises(NetError, match="token id outside"):
        forward(params, cfg, np.full((1, 12), 11))
    with pytest.raises(NetError, match="integers"):
        forward(params, cfg, np.ones((1, 12)))
    with pytest.raises(NetError, match=r"\(B, T\)"):
        forward(params, cfg, np.ones(12, dtype=np.int64))
    with pytest.raises(NetError, match="shorter"):
        forward(params, cfg, np.ones((1, 8), dtype=np.int64))
    with pytest.raises(NetError, match="all-padding"):
        forward(params, cfg, np.zeros((1, 12), dtype=np.int64))
    with pytest.raises(NetError, match=r"empty batch: token_ids of shape \(0, 12\) has no rows"):
        forward(params, cfg, np.zeros((0, 12), dtype=np.int64))


def test_padding_embedding_is_inert():
    # scribbling on the stored padding row must not change any output
    cfg = tiny_config()
    params = init_params(cfg, 0)
    ids = np.array([[1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0, 0]])
    out_before, _ = forward(params, cfg, ids)
    params.embedding[0] = 123.0
    out_after, _ = forward(params, cfg, ids)
    assert np.array_equal(out_before, out_after)


def test_trailing_padding_does_not_dilute_short_texts():
    # same real tokens, more trailing padding: pooled features identical
    # (holds whenever the real-token count caps pooling in both layouts)
    cfg = tiny_config()
    params = init_params(cfg, 0)
    real = [3, 7, 2, 9]
    short = np.array([real + [0] * 8])
    long = np.array([real + [0] * 12])
    out_short, cache_short = forward(params, cfg, short)
    out_long, cache_long = forward(params, cfg, long)
    assert np.allclose(cache_short.pooled, cache_long.pooled)
    assert np.allclose(out_short, out_long)


def test_pool_counts_and_mask():
    cfg = tiny_config()
    params = init_params(cfg, 0)
    ids = np.array(
        [
            [1] * 12,  # 12 real -> all 4 conv positions pooled
            [2] * 2 + [0] * 10,  # 2 real -> positions 0..1 pooled
        ]
    )
    _, cache = forward(params, cfg, ids)
    assert cache.pool_counts.tolist() == [4.0, 2.0]
    assert cache.pool_mask.tolist() == [[1, 1, 1, 1], [1, 1, 0, 0]]


def test_forward_batch_consistency():
    # each row of a batch is computed exactly as it would be alone
    cfg = tiny_config()
    params = init_params(cfg, 1)
    rng = np.random.default_rng(5)
    ids = rng.integers(1, 11, size=(5, 12))
    ids[2, 8:] = 0
    batch_out, _ = forward(params, cfg, ids)
    for i in range(5):
        solo_out, _ = forward(params, cfg, ids[i : i + 1])
        assert np.allclose(batch_out[i], solo_out[0], atol=1e-12)


def test_backward_shape_guard():
    cfg = tiny_config()
    params = init_params(cfg, 0)
    ids = np.full((2, 12), 3, dtype=np.int64)
    _, cache = forward(params, cfg, ids)
    with pytest.raises(NetError, match="d_logits"):
        backward(params, cfg, cache, np.zeros((2, 4)))


def test_backward_returns_all_gradients():
    cfg = tiny_config()
    params = init_params(cfg, 0)
    ids = np.array([[1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 0, 0]])
    out, cache = forward(params, cfg, ids)
    grads = backward(params, cfg, cache, np.ones_like(out))
    for name, arr in grads.named():
        assert arr.shape == getattr(params, name).shape
        assert arr.base is grads.arena, name
        assert np.all(np.isfinite(arr))
    assert np.all(grads.embedding[0] == 0.0)  # padding row never trains
    # ids never used get no embedding gradient
    assert np.all(grads.embedding[10] == 0.0)


def test_float32_pipeline_dtype():
    cfg = tiny_config(dtype="float32")
    params = init_params(cfg, 0)
    ids = np.full((2, 12), 3, dtype=np.int64)
    out, cache = forward(params, cfg, ids)
    assert out.dtype == np.float32
    assert cache.pooled.dtype == np.float32
    grads = backward(params, cfg, cache, out.copy())
    assert grads.conv1_w.dtype == np.float32


# ------------------------------------------------- conv kernels vs plain loops


def loop_conv1d(x, w, b):
    # z[i, s, o] = b[o] + sum over j, c of x[i, s + j, c] * w[j, c, o]
    batch, t, _ = x.shape
    k, _, c_out = w.shape
    z = np.zeros((batch, t - k + 1, c_out))
    for i in range(batch):
        for s in range(t - k + 1):
            for o in range(c_out):
                z[i, s, o] = b[o] + np.sum(x[i, s : s + k, :] * w[:, :, o])
    return z


def loop_conv1d_backward(x, w, d_out):
    batch, t_out, c_out = d_out.shape
    k = w.shape[0]
    d_x = np.zeros_like(x)
    d_w = np.zeros_like(w)
    d_b = np.zeros(c_out)
    for i in range(batch):
        for s in range(t_out):
            for o in range(c_out):
                g = d_out[i, s, o]
                d_x[i, s : s + k, :] += g * w[:, :, o]
                d_w[:, :, o] += g * x[i, s : s + k, :]
                d_b[o] += g
    return d_x, d_w, d_b


def assert_close_relative(got, ref, tol=1e-12):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "batch, t, c_in, c_out, k",
    [
        (1, 7, 3, 2, 3),  # a single example
        (2, 4, 3, 5, 4),  # T = k: one output position
        (3, 6, 2, 4, 1),  # k = 1: a per-position linear map
        (2, 9, 5, 3, 4),  # Cin != Cout, several taps and positions
    ],
)
def test_conv_kernels_match_loop_oracle(batch, t, c_in, c_out, k):
    rng = np.random.default_rng([batch, t, c_in, c_out, k])
    x = rng.standard_normal((batch, t, c_in))
    w = rng.standard_normal((k, c_in, c_out))
    b = rng.standard_normal(c_out)
    d_out = rng.standard_normal((batch, t - k + 1, c_out))
    assert_close_relative(_conv1d(x, w, b), loop_conv1d(x, w, b))
    d_w = np.empty_like(w)
    d_b = np.empty_like(b)
    d_x = _conv1d_backward(x, w, d_out, d_w, d_b)
    for got, ref in zip((d_x, d_w, d_b), loop_conv1d_backward(x, w, d_out)):
        assert_close_relative(got, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_rows_are_exact_at_every_batch_size(dtype):
    # desk widths: a row's outputs and input gradient are bit-identical
    # whether its tap products hold 9 rows or 2304
    rng = np.random.default_rng(7)
    x = rng.standard_normal((256, 12, 32)).astype(dtype)
    w = rng.standard_normal((4, 32, 64)).astype(dtype)
    b = rng.standard_normal(64).astype(dtype)
    d_out = rng.standard_normal((256, 9, 64)).astype(dtype)
    z = _conv1d(x, w, b)
    d_x = _conv1d_backward(x, w, d_out, np.empty_like(w), np.empty_like(b))
    for n in (1, 2, 3, 7, 64):
        assert np.array_equal(_conv1d(x[:n], w, b), z[:n])
        d_x_n = _conv1d_backward(x[:n], w, d_out[:n], np.empty_like(w), np.empty_like(b))
        assert np.array_equal(d_x_n, d_x[:n])


def test_embedding_gradient_matches_loop_scatter(monkeypatch):
    # repeated ids (id 4 more than 16 times), trailing padding and one
    # padding gap inside a text: the embedding gradient is the per-position
    # input gradient of conv1 summed into each real token's row, in
    # row-major order, and nothing else
    seen = []

    def recording(x, w, d_out, d_w, d_b):
        d_x = _conv1d_backward(x, w, d_out, d_w, d_b)
        seen.append(d_x)
        return d_x

    monkeypatch.setattr(net, "_conv1d_backward", recording)
    cfg = tiny_config()
    params = init_params(cfg, 2)
    ids = np.array(
        [
            [3, 3, 5, 3, 0, 7, 5, 5, 3, 2, 0, 0],
            [7, 7, 7, 7, 7, 7, 7, 7, 7, 0, 0, 0],
            [2, 3, 5, 7, 2, 3, 5, 7, 2, 3, 5, 7],
            [4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4],
            [4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0],
        ]
    )
    out, cache = forward(params, cfg, ids)
    grads = backward(params, cfg, cache, out - 0.25)
    d_emb = seen[-1]  # conv1 runs last in the backward pass
    assert np.any(d_emb[ids == 0] != 0)  # padding positions do get a gradient ...
    expected = np.zeros_like(params.embedding)
    for i in range(ids.shape[0]):
        for s in range(ids.shape[1]):
            if ids[i, s] != 0:
                expected[ids[i, s]] += d_emb[i, s]
    assert np.array_equal(grads.embedding, expected)
    assert np.all(grads.embedding[0] == 0.0)  # ... that never reaches row 0


# --------------------------------------- forward against the two-branch form


def two_branch_sigmoid(x):
    # the head transform before it was made branch-free: each half gathered
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_bitwise_the_two_branch_form(dtype):
    edges = [0.0, 1e-45, 88.7, 745.0, 1e4, 0.5, 1.0, 36.0, 100.0]
    values = np.array(edges + [-v for v in edges], dtype=dtype)
    values = np.concatenate([values, np.random.default_rng(0).normal(0, 20, 4000).astype(dtype)])
    for x in (values, values.reshape(-1, 2)):
        got = _sigmoid(x)
        assert got.dtype == dtype and got.shape == x.shape
        # compare bit patterns: equal values with unequal signs or payloads fail
        assert np.array_equal(got.view(np.uint8), two_branch_sigmoid(x).view(np.uint8))


def reference_forward(params, config, token_ids):
    # forward's arithmetic as first written: a float mask multiplied in,
    # the pool masked by a float mask, and the two-branch sigmoid
    dt = config.np_dtype
    n_real = (token_ids != 0).sum(axis=1)
    emb = params.embedding[token_ids] * (token_ids != 0).astype(dt)[:, :, None]
    a1 = np.maximum(_conv1d(emb, params.conv1_w, params.conv1_b), 0)
    a2 = np.maximum(_conv1d(a1, params.conv2_w, params.conv2_b), 0)
    t2 = a2.shape[1]
    pool_counts = np.minimum(n_real, t2).astype(dt)
    pool_mask = (np.arange(t2)[None, :] < pool_counts[:, None]).astype(dt)
    pooled = (a2 * pool_mask[:, :, None]).sum(axis=1) / pool_counts[:, None]
    h1 = np.maximum(pooled @ params.fc1_w + params.fc1_b, 0)
    h2 = np.maximum(h1 @ params.fc2_w + params.fc2_b, 0)
    logits = h2 @ params.fc3_w + params.fc3_b
    head = _softmax if config.head_mode == "softmax" else two_branch_sigmoid
    return head(logits)


HEADS = [("softmax", 7), ("ordinal-1d", 6), ("ordinal-2d", 8)]


def scaled_desk_model(mode, width, dtype="float32"):
    """Desk widths over 40 ids, initial weights times 4 so that the outputs
    spread over (0, 1) and a last-bit change in a sum reaches them."""
    config = preset_model("desk", 40, width, mode, dtype=dtype)
    params = init_params(config, seed=3)
    params.arena[...] *= 4
    return config, params


def padded_rows(rng, n, t, lengths):
    """n id rows of lengths drawn from `lengths`, every other row with inner padding."""
    ids = np.zeros((n, t), dtype=np.int64)
    for i, length in enumerate(rng.choice(lengths, size=n)):
        ids[i, :length] = rng.integers(1, 40, size=length)
        if i % 2 == 0 and length > 2:
            # zeros inside the text; its last column stays a real token
            ids[i, rng.integers(0, length - 1, size=length // 3)] = 0
    return ids


@pytest.mark.parametrize("mode, width", HEADS)
@pytest.mark.parametrize("batch", [1, 7, 256])
def test_forward_outputs_equal_the_reference_forward(mode, width, batch):
    config, params = scaled_desk_model(mode, width)
    params.embedding[0] = 0.5  # so that only the mask zeros the padding
    rng = np.random.default_rng(batch)
    ids = np.zeros((batch, 32), dtype=np.int64)
    for i, length in enumerate(rng.integers(1, 33, size=batch)):
        ids[i, :length] = rng.integers(1, 40, size=length)
        ids[i, rng.integers(0, length, size=length // 4)] = 0  # inner padding
        ids[i, 0] = max(ids[i, 0], 1)  # no all-padding row
    outputs, cache = forward(params, config, ids)
    expected = reference_forward(params, config, ids)
    assert outputs.dtype == expected.dtype == np.float32
    assert np.array_equal(outputs, expected)
    assert not cache.emb[cache.token_ids == 0].any()  # backward reads the masked embedding


# ------------------------------------------------- trailing padding cut away


def test_forward_cuts_every_batch_at_the_last_real_column():
    # k1 + k2 - 1 = 9 columns from the last real one on: the last column
    # the pool reads is last + 8, whatever the batch size
    config, params = scaled_desk_model("softmax", 7)
    ids = np.zeros((256, 32), dtype=np.int64)
    ids[:, :3] = 5
    ids[7, 11] = 9  # the last real column decides, not the token count
    for rows, width in ((256, 20), (52, 20), (51, 20), (8, 20), (7, 11), (1, 11)):
        _, cache = forward(params, config, ids[:rows])
        assert cache.token_ids.shape == (rows, width)
        assert cache.emb.shape[1] == width and cache.a2.shape[1] == width - 8
    ids[3, 24] = 9  # past T - 8: nothing is cut
    assert forward(params, config, ids)[1].token_ids.shape == (256, 32)
    one = np.zeros((1, 9), dtype=np.int64)
    one[0, 0] = 2  # the shortest axis the convolutions take is never cut
    assert forward(params, config, one)[1].token_ids.shape == (1, 9)


@pytest.mark.parametrize("mode, width", HEADS)
@pytest.mark.parametrize("batch", [1, 7, 256])
def test_cut_forward_equals_the_uncut_reference(mode, width, batch):
    # rows under T - 8 let forward cut the batch, rows at and over it keep
    # all T columns; the reference runs every column
    config, params = scaled_desk_model(mode, width)
    t = 32
    rng = np.random.default_rng(batch)
    short = [1, 2, 5, t - 12, t - 9]
    for lengths in ([1, 2, 5], short, short + [t - 8], short + [t - 7, t]):
        ids = padded_rows(rng, batch, t, lengths)
        outputs, cache = forward(params, config, ids)
        last = np.flatnonzero(ids.any(axis=0))[-1]
        assert cache.token_ids.shape == (batch, min(t, last + 9))
        assert np.array_equal(outputs, reference_forward(params, config, ids))


def conv_returns(monkeypatch):
    """A copy of every _conv1d return from now on: the pre-ReLU values,
    which forward's in-place ReLU overwrites."""
    returns = []

    def recording(x, taps, b):
        z = _conv1d(x, taps, b)
        returns.append(z.copy())
        return z

    monkeypatch.setattr(net, "_conv1d", recording)
    return returns


@pytest.mark.parametrize("batch", [2, 7, 256])
def test_each_row_alone_equals_it_inside_a_batch(batch, monkeypatch):
    # each row of a conv product sums alike whatever the number of rows, so
    # a text forwarded alone (cut to its own length) gets the pre-activations
    # it gets inside any batch, one-text prediction included
    config, params = scaled_desk_model("ordinal-2d", 8)
    ids = padded_rows(np.random.default_rng(batch), batch, 32, [1, 3, 9, 17, 23, 32])
    returns = conv_returns(monkeypatch)
    _, cache = forward(params, config, ids)
    z1, z2 = returns
    for i in range(batch):
        del returns[:]
        _, alone = forward(params, config, ids[i : i + 1])
        alone_z1, alone_z2 = returns
        t1, t2 = alone_z1.shape[1], alone_z2.shape[1]
        assert np.array_equal(alone_z1[0], z1[i, :t1])
        assert np.array_equal(alone_z2[0], z2[i, :t2])
        assert np.array_equal(alone.pooled[0], cache.pooled[i])


# ------------------------------------- backward against its out-of-place form


def reference_backward(params, config, cache, d_logits):
    # backward's formula with every ReLU mask taken from the pre-activation,
    # recomputed here as forward computed it, and every product out of place
    rows = len(cache.h2)
    z1 = _conv1d(cache.emb, params.conv1_w, params.conv1_b)
    z2 = _conv1d(cache.a1, params.conv2_w, params.conv2_b)
    h1_pre = net._product(rows, params.fc1_w)(cache.pooled, params.fc1_w) + params.fc1_b
    h2_pre = net._product(rows, params.fc2_w)(cache.h1, params.fc2_w) + params.fc2_b
    grads = params.like(np.empty_like(params.arena))
    np.matmul(cache.h2.T, d_logits, out=grads.fc3_w)
    d_logits.sum(axis=0, out=grads.fc3_b)
    d_h2_pre = (d_logits @ params.fc3_w.T) * (h2_pre > 0)
    np.matmul(cache.h1.T, d_h2_pre, out=grads.fc2_w)
    d_h2_pre.sum(axis=0, out=grads.fc2_b)
    d_h1_pre = (d_h2_pre @ params.fc2_w.T) * (h1_pre > 0)
    np.matmul(cache.pooled.T, d_h1_pre, out=grads.fc1_w)
    d_h1_pre.sum(axis=0, out=grads.fc1_b)
    d_pooled = d_h1_pre @ params.fc1_w.T
    d_a2 = cache.pool_mask[:, :, None] * d_pooled[:, None, :] / cache.pool_counts[:, None, None]
    d_z2 = d_a2 * (z2 > 0)
    d_a1 = _conv1d_backward(cache.a1, params.conv2_w, d_z2, grads.conv2_w, grads.conv2_b)
    d_z1 = d_a1 * (z1 > 0)
    d_emb = _conv1d_backward(cache.emb, params.conv1_w, d_z1, grads.conv1_w, grads.conv1_b)
    real = cache.token_ids != 0
    embed_dim = grads.embedding.shape[1]
    flat_index = (cache.token_ids[real][:, None] * embed_dim + np.arange(embed_dim)).reshape(-1)
    grads.embedding.fill(0)
    np.add.at(grads.embedding.reshape(-1), flat_index, d_emb[real].reshape(-1))
    return grads


@pytest.mark.parametrize("mode, width", HEADS)
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_backward_equals_the_out_of_place_reference(mode, width, dtype):
    # masks from the activations, written in place, give the gradients that
    # masks from the pre-activations give, bit for bit
    config, params = scaled_desk_model(mode, width, dtype)
    rng = np.random.default_rng([width, len(dtype)])
    one = np.zeros((1, 32), dtype=np.int64)
    one[0, 0] = 7  # cut to 9 columns, one conv2 position
    for ids in (one, padded_rows(rng, 7, 32, range(1, 33)), padded_rows(rng, 16, 32, range(1, 33))):
        outputs, cache = forward(params, config, ids)
        d_logits = rng.standard_normal(outputs.shape).astype(dtype)
        grads = backward(params, config, cache, d_logits)
        expected = reference_backward(params, config, cache, d_logits)
        assert grads.arena.dtype == np.dtype(dtype)
        for (name, got), (_, want) in zip(grads.named(), expected.named()):
            assert np.array_equal(got, want), (name, ids.shape)
        if len(ids) == 1:
            assert cache.a2.shape[1] == 1


# ------------------------------------------- cache-free forward in row blocks


def conv1_row_counts(monkeypatch):
    """Rows of every conv1 call forward makes from now on (conv1 has 6 taps, conv2 4)."""
    counts = []

    def recording(x, taps, b):
        if len(taps) == 6:
            counts.append(x.shape[0])
        return _conv1d(x, taps, b)

    monkeypatch.setattr(net, "_conv1d", recording)
    return counts


@pytest.mark.parametrize("mode, width", HEADS)
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_cache_free_forward_equals_the_cached_and_the_reference(mode, width, dtype, monkeypatch):
    config = preset_model("desk", 40, width, mode, dtype=dtype)
    params = init_params(config, seed=3)
    params.arena[...] *= 4
    params.embedding[0] = 0.5  # so that only the mask zeros the padding
    rng = np.random.default_rng([width, len(dtype)])
    ids = padded_rows(rng, 257, 32, range(1, 33))
    ids[0, 31] = 5  # no cut: every batch below keeps all 32 columns
    r = _block_rows(config, 32)
    assert 1 < r < 64
    counts = conv1_row_counts(monkeypatch)
    for batch in (1, r - 1, r, r + 1, 2 * r + 1, 255, 256, 257):
        cached, _ = forward(params, config, ids[:batch])
        del counts[:]
        outputs, none = forward(params, config, ids[:batch], cache=False)
        assert none is None
        blocks = [r] * (batch // r) + ([batch % r] if batch % r else [])
        assert counts == blocks
        assert outputs.dtype == config.np_dtype
        assert np.array_equal(outputs, cached)
        assert np.array_equal(outputs, reference_forward(params, config, ids[:batch]))


def test_conv_weights_over_the_budget_make_one_block(monkeypatch):
    # conv weights of 608 KiB against 16 KiB rows: a block under 38 rows
    # would read more weight than activation, so 38 rows at most make one
    config = preset_model("desk", 40, 7, "softmax", conv_channels=(128, 256))
    assert _block_rows(config, 16) == 38
    params = init_params(config, seed=3)
    params.arena[...] *= 4
    ids = padded_rows(np.random.default_rng(5), 38, 16, range(1, 17))
    ids[0, 15] = 5
    counts = conv1_row_counts(monkeypatch)
    for batch in (1, 37, 38):
        del counts[:]
        outputs, _ = forward(params, config, ids[:batch], cache=False)
        assert counts == [batch]
        assert np.array_equal(outputs, forward(params, config, ids[:batch])[0])
        assert np.array_equal(outputs, reference_forward(params, config, ids[:batch]))
    # at paper widths the conv weights alone are 52 MB, so a 16-row batch
    # of 200 ids is one block
    assert _block_rows(preset_model("paper", 40, 7, "softmax"), 200) >= 16


def test_cache_free_forward_holds_under_half_the_memory():
    config, params = scaled_desk_model("softmax", 7)
    ids = padded_rows(np.random.default_rng(2), 256, 32, range(1, 33))
    ids[0, 31] = 5
    peaks = {}
    for cache in (True, False):
        tracemalloc.start()
        try:
            kept = forward(params, config, ids, cache=cache)
            peaks[cache] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del kept
    assert peaks[False] < peaks[True] / 2


# ------------------------------------------------------ frozen parameters


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dot_multiplies_bit_for_bit_as_matmul(dtype):
    # forward multiplies a product of up to _DOT_MACS multiply-adds with
    # ndarray.dot, which costs less per call than @, and a larger one with
    # @; a numpy or BLAS build that routes the two differently fails here
    # instead of moving forward's bits.  The right operands are desk-width
    # conv taps (E -> C1, C1 -> C2) and FFNN and head weights, also as views
    # at an odd offset into a flat buffer, as in an arena; the row counts
    # run past the last one that takes dot.
    rng = np.random.default_rng(11)
    shapes = [(32, 32), (32, 64), (64, 64), (64, 32), (32, 7), (32, 6), (32, 8), (32, 23)]
    for k, n in shapes:
        flat = rng.uniform(-1, 1, size=k * n + 1).astype(dtype)
        last = net._DOT_MACS // (k * n)
        assert net._product(last, flat[: k * n]) is np.ndarray.dot
        assert net._product(last + 1, flat[: k * n]) is np.matmul
        for right in (flat[:-1].reshape(k, n), flat[1:].reshape(k, n)):
            for m in [*range(1, last + 2), 1024]:
                left = rng.uniform(-1, 1, size=(m, k)).astype(dtype)
                assert np.array_equal(left.dot(right), left @ right), (m, k, n)


def test_frozen_params_refuse_writes():
    _, params = scaled_desk_model("softmax", 7)
    frozen = params.frozen_copy()
    assert not frozen.arena.flags.writeable and params.arena.flags.writeable
    for name, arr in frozen.named():
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    assert np.array_equal(frozen.arena, params.arena)
    assert frozen.copy().arena.flags.writeable  # a copy is writable again


@pytest.mark.parametrize("mode, width", HEADS)
@pytest.mark.parametrize("batch", [1, 7, 256])
def test_frozen_params_give_the_writable_params_outputs(mode, width, batch):
    config, params = scaled_desk_model(mode, width)  # scaled x4 before freezing
    frozen = params.frozen_copy()
    ids = padded_rows(np.random.default_rng(batch), batch, 32, range(1, 33))
    for cache in (False, True, False):
        got = forward(frozen, config, ids, cache=cache)[0]
        assert np.array_equal(got, forward(params, config, ids, cache=cache)[0])


@pytest.mark.parametrize("name", ["conv1_w", "conv2_w"])
def test_writable_params_changed_in_place_give_new_outputs(name):
    config, params = scaled_desk_model("ordinal-2d", 8)
    ids = padded_rows(np.random.default_rng(9), 7, 32, range(1, 33))
    before = forward(params, config, ids, cache=False)[0]
    getattr(params, name)[...] *= -1
    after = forward(params, config, ids, cache=False)[0]
    assert not np.array_equal(after, before)
    assert np.array_equal(after, forward(params.frozen_copy(), config, ids, cache=False)[0])
