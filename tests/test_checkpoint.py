"""Checkpoint container: bit-exact round trips and tamper detection."""

import json

import numpy as np
import pytest

from emord.checkpoint import (
    CONTAINER_VERSION,
    MAGIC,
    Checkpoint,
    CheckpointError,
    OptimizerSnapshot,
    load_checkpoint,
    save_checkpoint,
    taxonomy_fingerprint,
    vocab_fingerprint,
)
from emord.data import LabeledCorpus, build_vocab
from emord.hashing import canonical_json, sha256_file
from emord.net import ModelConfig, init_params
from emord.optim import AdamWConfig, AdamWState, adamw_step
from emord.taxonomy import builtin_taxonomy


def make_checkpoint(with_optimizer=False, dtype="float32") -> Checkpoint:
    taxonomy = builtin_taxonomy("isear-valence")
    vocab = build_vocab(LabeledCorpus((("red green blue cue0 cue1", "joy"),)))
    config = ModelConfig(
        vocab_size=vocab.size,
        output_width=7,
        head_mode="softmax",
        embed_dim=4,
        conv_channels=(3, 3),
        kernel_sizes=(6, 4),
        ffnn_hidden=(5, 4),
        dtype=dtype,
    )
    params = init_params(config, seed=5)
    optimizer = None
    if with_optimizer:
        adamw = AdamWConfig(learning_rate=0.01)
        state = AdamWState.initial(params)
        grads = params.copy()
        adamw_step(params, grads, state, adamw)
        optimizer = OptimizerSnapshot(adamw=adamw, state=state)
    return Checkpoint(
        config=config,
        params=params,
        taxonomy=taxonomy,
        vocab=vocab,
        max_seq_length=24,
        seed=5,
        loss_weights=(1.0, 0.5),
        epochs_completed=3,
        optimizer=optimizer,
    )


def assert_params_equal(a, b):
    for (name, arr_a), (_, arr_b) in zip(a.named(), b.named()):
        assert arr_a.dtype == arr_b.dtype, name
        assert np.array_equal(arr_a, arr_b), name


def test_roundtrip_inference_checkpoint(tmp_path):
    ck = make_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(ck, path)
    loaded = load_checkpoint(path)
    assert loaded.config == ck.config
    assert loaded.taxonomy == ck.taxonomy
    assert loaded.vocab.tokens == ck.vocab.tokens
    assert loaded.vocab.min_freq == ck.vocab.min_freq
    assert loaded.max_seq_length == 24
    assert loaded.seed == 5
    assert loaded.loss_weights == (1.0, 0.5)
    assert loaded.epochs_completed == 3
    assert loaded.optimizer is None
    assert_params_equal(loaded.params, ck.params)


def test_roundtrip_optimizer_state(tmp_path):
    ck = make_checkpoint(with_optimizer=True)
    path = tmp_path / "resume.ckpt"
    save_checkpoint(ck, path)
    loaded = load_checkpoint(path)
    assert loaded.optimizer is not None
    assert loaded.optimizer.adamw == ck.optimizer.adamw
    assert loaded.optimizer.state.step == 1
    for name, arr in ck.optimizer.state.m.items():
        assert np.array_equal(loaded.optimizer.state.m[name], arr)
        assert np.array_equal(loaded.optimizer.state.v[name], ck.optimizer.state.v[name])


def test_resave_is_byte_identical(tmp_path):
    ck = make_checkpoint(with_optimizer=True)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(ck, first)
    save_checkpoint(load_checkpoint(first), second)
    assert sha256_file(first) == sha256_file(second)
    assert first.read_bytes() == second.read_bytes()


def test_float64_params_roundtrip(tmp_path):
    ck = make_checkpoint(dtype="float64")
    path = tmp_path / "f64.ckpt"
    save_checkpoint(ck, path)
    loaded = load_checkpoint(path)
    assert loaded.params.embedding.dtype == np.float64
    assert_params_equal(loaded.params, ck.params)


def test_magic_and_corruption_detection(tmp_path):
    ck = make_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(ck, path)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"ZZZZ" + bytes(raw[4:]))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(bytes(raw[: len(raw) - 16]))
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)

    not_a_file = tmp_path / "tiny.ckpt"
    not_a_file.write_bytes(b"EM")
    with pytest.raises(CheckpointError):
        load_checkpoint(not_a_file)


def test_fingerprints_are_stable_and_discriminating():
    ck = make_checkpoint()
    v1 = vocab_fingerprint(ck.vocab)
    assert v1 == vocab_fingerprint(ck.vocab)
    other_vocab = build_vocab(LabeledCorpus((("totally different words", "joy"),)))
    assert v1 != vocab_fingerprint(other_vocab)
    t1 = taxonomy_fingerprint(ck.taxonomy)
    assert t1 == taxonomy_fingerprint(builtin_taxonomy("isear-valence"))
    assert t1 != taxonomy_fingerprint(builtin_taxonomy("goemotions-grid-5x5"))


def test_save_does_not_leave_temp_files(tmp_path):
    ck = make_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(ck, path)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def rewrite_checkpoint(src, dst, edit):
    """Copy `src` to `dst` after edit(header, arrays) changed it in place."""
    raw = src.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    payload = raw[16 + header_len :]
    arrays = {
        e["name"]: np.frombuffer(
            payload[e["offset"] : e["offset"] + e["nbytes"]], dtype=e["dtype"]
        ).reshape(e["shape"])
        for e in header["arrays"]
    }
    edit(header, arrays)
    if "arrays" in header:
        entries, offset = [], 0
        for name, arr in arrays.items():
            entries.append(
                {
                    "name": name,
                    "shape": list(arr.shape),
                    "dtype": arr.dtype.str,
                    "offset": offset,
                    "nbytes": arr.nbytes,
                }
            )
            offset += arr.nbytes
        header["arrays"] = entries
    header_bytes = canonical_json(header).encode("utf-8")
    dst.write_bytes(
        MAGIC
        + CONTAINER_VERSION.to_bytes(4, "little")
        + len(header_bytes).to_bytes(8, "little")
        + header_bytes
        + b"".join(np.ascontiguousarray(arr).tobytes() for arr in arrays.values())
    )


def tampered(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(with_optimizer=True), path)
    bad = tmp_path / "bad.ckpt"
    rewrite_checkpoint(path, bad, edit)
    return bad


@pytest.mark.parametrize("name", ["fc3_w", "m/fc3_w", "v/conv1_w"])
def test_rejects_array_shape_not_in_model_config(tmp_path, name):
    # a transposed array has the right byte count but the wrong shape
    def transpose(header, arrays):
        arrays[name] = arrays[name].T

    with pytest.raises(CheckpointError, match=f"'{name}' has shape"):
        load_checkpoint(tampered(tmp_path, transpose))


@pytest.mark.parametrize("name", ["fc1_b", "v/fc1_b"])
def test_rejects_array_dtype_not_in_model_config(tmp_path, name):
    def widen(header, arrays):
        arrays[name] = arrays[name].astype("<f8")

    with pytest.raises(CheckpointError, match=f"'{name}' has dtype '<f8'"):
        load_checkpoint(tampered(tmp_path, widen))


@pytest.mark.parametrize("key", ["model_config", "arrays"])
def test_missing_header_key_is_a_checkpoint_error(tmp_path, key):
    def drop(header, arrays):
        del header[key]

    with pytest.raises(CheckpointError, match=f"missing key '{key}'"):
        load_checkpoint(tampered(tmp_path, drop))


@pytest.mark.parametrize("offset", [-4, "end"])
def test_rejects_array_bytes_outside_the_payload(tmp_path, offset):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(), path)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    payload = raw[16 + header_len :]
    entry = header["arrays"][-1]
    entry["offset"] = len(payload) - entry["nbytes"] // 2 if offset == "end" else offset
    header_bytes = canonical_json(header).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:8] + len(header_bytes).to_bytes(8, "little") + header_bytes + payload)
    with pytest.raises(CheckpointError, match="byte range"):
        load_checkpoint(bad)


def test_loaded_arrays_live_in_arenas(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(with_optimizer=True), path)
    loaded = load_checkpoint(path)
    state = loaded.optimizer.state
    for arena, arrays in (
        (loaded.params.arena, dict(loaded.params.named())),
        (state.m_arena, state.m),
        (state.v_arena, state.v),
    ):
        assert arena.flags.writeable and arena.flags.c_contiguous
        assert all(arr.base is arena for arr in arrays.values())
