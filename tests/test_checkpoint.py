"""Checkpoint container: bit-exact round trips and tamper detection."""

import hashlib
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emord.checkpoint import (
    CONTAINER_VERSION,
    HEADER_FORMAT,
    HEADER_FORMAT_1,
    MAGIC,
    Checkpoint,
    CheckpointError,
    OptimizerSnapshot,
    load_checkpoint,
    save_checkpoint,
    taxonomy_fingerprint,
    vocab_fingerprint,
)
from emord.data import LabeledCorpus, Vocabulary, build_vocab
from emord.hashing import canonical_json, sha256_file
from emord.net import ModelConfig, init_params
from emord.optim import AdamWConfig, AdamWState, adamw_step
from emord.taxonomy import builtin_taxonomy, taxonomy_to_document
from test_net import preset_model

#: make_checkpoint(with_optimizer=True) as save_checkpoint writes it (format
#: 2); reader and writer change together, so this file pins the bytes on disk.
PINNED = Path(__file__).parent / "data" / "checkpoint_v2_fixture.ckpt"
#: The same checkpoint in format 1, written by an earlier writer: conv
#: weights stored (Cout, Cin, k), and no payload hash.
PINNED_V1 = Path(__file__).parent / "data" / "checkpoint_v1_fixture.ckpt"


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
    for name, arr in ck.optimizer.state.m.named():
        assert np.array_equal(getattr(loaded.optimizer.state.m, name), arr)
        assert np.array_equal(getattr(loaded.optimizer.state.v, name), getattr(ck.optimizer.state.v, name))


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
    # the parameters are read-only, the moments writable
    for arena, arrays, writeable in (
        (loaded.params.arena, dict(loaded.params.named()), False),
        (state.m.arena, dict(state.m.named()), True),
        (state.v.arena, dict(state.v.named()), True),
    ):
        assert arena.flags.writeable == writeable and arena.flags.c_contiguous
        assert all(arr.base is arena for arr in arrays.values())
        assert all(arr.flags.writeable == writeable for arr in arrays.values())


def test_loaded_params_are_frozen(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(), path)
    params = load_checkpoint(path).params
    assert not params.arena.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        params.fc3_b[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        params.arena[0] = 1.0
    assert params.copy().arena.flags.writeable


def test_load_holds_little_beyond_the_arenas(tmp_path):
    # a desk-width resumable checkpoint: three arenas of about 110 kB each
    vocab = build_vocab(LabeledCorpus(((" ".join(f"w{i}" for i in range(200)), "joy"),)))
    config = preset_model("desk", vocab.size, 7, "softmax")
    params = init_params(config, seed=0)
    state = AdamWState.initial(params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(
        Checkpoint(
            config=config,
            params=params,
            taxonomy=builtin_taxonomy("isear-valence"),
            vocab=vocab,
            max_seq_length=32,
            optimizer=OptimizerSnapshot(adamw=AdamWConfig(learning_rate=0.01), state=state),
        ),
        path,
    )
    arena_bytes = 3 * params.arena.nbytes
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_params_equal(loaded.params, params)
    # a copy of the file, or of any arena, would take the peak past 1.5x
    assert peak < 1.5 * arena_bytes, (peak, arena_bytes)


def test_file_that_shrinks_while_loading_is_a_checkpoint_error(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(with_optimizer=True), path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-16])
    # fstat still reports the size the header expects, as if the file
    # shrank after it was taken
    monkeypatch.setattr("emord.checkpoint.os.fstat", lambda fd: SimpleNamespace(st_size=size))
    with pytest.raises(CheckpointError, match="truncated checkpoint while reading the arrays"):
        load_checkpoint(path)


def header_of(raw: bytes) -> dict:
    return json.loads(raw[16 : 16 + int.from_bytes(raw[8:16], "little")])


def assert_is_the_fixture_checkpoint(loaded):
    fresh = make_checkpoint(with_optimizer=True)
    assert loaded.config == fresh.config
    assert loaded.taxonomy == fresh.taxonomy
    assert loaded.vocab.tokens == fresh.vocab.tokens
    assert (loaded.max_seq_length, loaded.seed, loaded.loss_weights, loaded.epochs_completed) == (
        24, 5, (1.0, 0.5), 3
    )
    assert loaded.optimizer.adamw == fresh.optimizer.adamw
    assert loaded.optimizer.state.step == fresh.optimizer.state.step == 1
    assert_params_equal(loaded.params, fresh.params)
    assert_params_equal(loaded.optimizer.state.m, fresh.optimizer.state.m)
    assert_params_equal(loaded.optimizer.state.v, fresh.optimizer.state.v)
    return fresh


def test_pinned_file_loads_and_resaves_byte_for_byte(tmp_path):
    loaded = load_checkpoint(PINNED)
    fresh = assert_is_the_fixture_checkpoint(loaded)
    for ck in (loaded, fresh):
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(ck, resaved)
        assert resaved.read_bytes() == PINNED.read_bytes()


def test_format_1_file_loads_with_tap_major_conv_weights():
    raw = PINNED_V1.read_bytes()
    header = header_of(raw)
    assert header["format"] == HEADER_FORMAT_1 and "payload" not in header["hashes"]
    loaded = load_checkpoint(PINNED_V1)
    assert_is_the_fixture_checkpoint(loaded)
    # each conv weight is the stored (Cout, Cin, k) array, transposed
    payload = raw[16 + int.from_bytes(raw[8:16], "little") :]
    arrays = {"": loaded.params, "m": loaded.optimizer.state.m, "v": loaded.optimizer.state.v}
    for entry in header["arrays"]:
        prefix, _, name = entry["name"].rpartition("/")
        stored = np.frombuffer(
            payload[entry["offset"] : entry["offset"] + entry["nbytes"]], dtype=entry["dtype"]
        ).reshape(entry["shape"])
        if name in ("conv1_w", "conv2_w"):
            stored = stored.transpose(2, 1, 0)
        assert np.array_equal(getattr(arrays[prefix], name), stored), entry["name"]


def test_format_1_file_resaves_as_format_2(tmp_path):
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(load_checkpoint(PINNED_V1), resaved)
    raw = resaved.read_bytes()
    header = header_of(raw)
    assert header["format"] == HEADER_FORMAT == "emord.checkpoint/2"
    payload = raw[16 + int.from_bytes(raw[8:16], "little") :]
    assert header["hashes"]["payload"] == hashlib.sha256(payload).hexdigest()
    assert_is_the_fixture_checkpoint(load_checkpoint(resaved))
    assert raw == PINNED.read_bytes()


def test_payload_hash_covers_every_arena(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(with_optimizer=True), path)
    raw = path.read_bytes()
    payload_start = 16 + int.from_bytes(raw[8:16], "little")
    for at in (payload_start, (payload_start + len(raw)) // 2, len(raw) - 1):
        case = bytearray(raw)
        case[at] ^= 1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(case))
        with pytest.raises(CheckpointError, match="payload hash mismatch"):
            load_checkpoint(bad)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda header: header["hashes"].pop("payload"), "missing key 'hashes.payload'"),
        (lambda header: set_key(header, "format", HEADER_FORMAT_1), "unknown key 'hashes.payload'"),
        (
            lambda header: (set_key(header, "format", HEADER_FORMAT_1), header["hashes"].pop("payload")),
            r"array 'conv1_w' has shape \[6, 4, 3\], model_config needs \[3, 4, 6\]",
        ),
    ],
    ids=["format-2-without-payload-hash", "format-1-with-payload-hash", "format-1-with-format-2-table"],
)
def test_rejects_header_of_the_other_format(tmp_path, edit, match):
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(rewrite_header(tmp_path, edit))


def rewrite_header(tmp_path, edit):
    """A saved resumable checkpoint after edit(header) changed only its header."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(with_optimizer=True), path)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    edit(header)
    header_bytes = canonical_json(header).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(
        raw[:8] + len(header_bytes).to_bytes(8, "little") + header_bytes + raw[16 + header_len :]
    )
    return bad


def set_key(header, dotted, value):
    *parents, last = dotted.split(".")
    for key in parents:
        header = header[key]
    header[last] = value


def alias_moment_to_weight(header):
    # m/fc3_b read from fc3_b's bytes: same byte count, so the sizes add up
    entries = {entry["name"]: entry for entry in header["arrays"]}
    entries["m/fc3_b"]["offset"] = entries["fc3_b"]["offset"]


def add_junk_array(header, arrays):
    arrays["junk"] = np.zeros(3, dtype="<f4")


def drop_optimizer_keep_moments(header, arrays):
    header["optimizer"] = None


@pytest.mark.parametrize(
    "edit, match",
    [
        (alias_moment_to_weight, "'m/fc3_b' byte range"),
        (add_junk_array, "lists 34 arrays"),
        (drop_optimizer_keep_moments, "lists 33 arrays, model_config and the optimizer field need 11"),
    ],
    ids=["aliased-offset", "extra-entry", "moments-without-optimizer"],
)
def test_rejects_array_table_not_derived_from_model_config(tmp_path, edit, match):
    if edit is alias_moment_to_weight:
        bad = rewrite_header(tmp_path, edit)
    else:
        bad = tampered(tmp_path, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(bad)


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("loss_weights", 5, "'loss_weights' must be a list of two finite numbers"),
        ("max_seq_length", "24", "'max_seq_length' must be a non-negative integer"),
        ("model_config.vocab_size", "9", "'model_config.vocab_size' must be"),
        ("optimizer.adamw.momentum", 0.9, "unknown key 'optimizer.adamw.momentum'"),
        ("optimizer.step", "1", "'optimizer.step' must be"),
        ("epochs_completed", "3", "'epochs_completed' must be"),
        ("seed", True, "'seed' must be a non-negative integer, got True"),
        ("vocab.min_freq", "1", "'vocab.min_freq' must be"),
        ("taxonomy", ["1d"], "'taxonomy' must be an object"),
        ("taxonomy.mode", "3d", "invalid taxonomy"),
        ("optimizer.adamw.learning_rate", 0.0, "invalid optimizer.adamw"),
    ],
)
def test_rejects_header_value_of_wrong_type(tmp_path, key, value, match):
    bad = rewrite_header(tmp_path, lambda header: set_key(header, key, value))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(bad)


def test_rejects_vocab_size_not_matching_the_tokens(tmp_path):
    def drop_last_token(header):
        vocab = header["vocab"]
        vocab["tokens"] = vocab["tokens"][:-1]
        short = Vocabulary(tokens=tuple(vocab["tokens"]), min_freq=vocab["min_freq"])
        header["hashes"]["vocab"] = vocab_fingerprint(short)

    with pytest.raises(CheckpointError, match="vocab_size is 7, the vocabulary needs 6"):
        load_checkpoint(rewrite_header(tmp_path, drop_last_token))


@pytest.mark.parametrize(
    "token, match",
    [("blue", r"invalid vocabulary \(vocabulary tokens must be distinct; repeated: \['blue'\]\)"),
     ("Hello!", r"invalid vocabulary \(vocabulary tokens must be their own tokenization; not: \['Hello!'\]\)")],
)
def test_rejects_vocab_tokens_that_tokenization_cannot_yield(tmp_path, token, match):
    # the hash is recomputed, so only the vocabulary rule can catch it
    def replace_last_token(header):
        vocab = header["vocab"]
        assert vocab["tokens"][0] == "blue"
        vocab["tokens"][-1] = token
        header["hashes"]["vocab"] = vocab_fingerprint(SimpleNamespace(**vocab))

    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(rewrite_header(tmp_path, replace_last_token))


@pytest.mark.parametrize(
    "head_mode, match",
    [("softmax", "output_width is 7, a softmax head over the taxonomy needs 23"),
     ("ordinal-1d", "ordinal-1d head requires a 1d taxonomy")],
)
def test_rejects_output_width_not_matching_the_taxonomy(tmp_path, head_mode, match):
    grid = builtin_taxonomy("goemotions-grid-5x5")

    def use_grid(header):
        header["model_config"]["head_mode"] = head_mode
        header["taxonomy"] = taxonomy_to_document(grid)
        header["hashes"]["taxonomy"] = taxonomy_fingerprint(grid)

    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(rewrite_header(tmp_path, use_grid))


def test_rejects_max_seq_length_below_the_conv_minimum(tmp_path):
    bad = rewrite_header(tmp_path, lambda header: set_key(header, "max_seq_length", 3))
    with pytest.raises(CheckpointError, match="max_seq_length 3 is shorter than the 9 tokens"):
        load_checkpoint(bad)


# ------------------------------------------------------------------ fuzzing


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(make_checkpoint(with_optimizer=True), path)
    return path.parent


def loads_or_rejects(path, raw):
    # the one acceptable failure is CheckpointError; anything else propagates
    path.write_bytes(raw)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


def header_paths(node, prefix=()):
    """Every key path into the header: object members and list items."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from header_paths(value, prefix + (key,))


def json_type(value):
    return type(value).__name__ if value is not None else "null"


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=1 << 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(min_value=0, max_value=9), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(min_value=0, max_value=9), max_size=2),
)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(choice=st.integers(min_value=0), value=JSON_VALUES)
def test_fuzz_header_values_of_another_type(fuzz_dir, choice, value):
    raw = (fuzz_dir / "model.ckpt").read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    paths = list(header_paths(header))
    *parents, last = paths[choice % len(paths)]
    node = header
    for key in parents:
        node = node[key]
    assume(json_type(value) != json_type(node[last]))
    node[last] = value
    header_bytes = canonical_json(header).encode("utf-8")
    loads_or_rejects(
        fuzz_dir / "case.ckpt",
        raw[:8] + len(header_bytes).to_bytes(8, "little") + header_bytes + raw[16 + header_len :],
    )


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_fuzz_truncated_and_flipped_bytes(fuzz_dir, data):
    # a flipped header byte may still give a valid header; a truncated file
    # or a flipped payload byte never loads
    raw = (fuzz_dir / "model.ckpt").read_bytes()
    payload_start = 16 + int.from_bytes(raw[8:16], "little")
    at = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    truncate = data.draw(st.booleans())
    if truncate:
        case = raw[:at]
    else:
        case = bytearray(raw)
        case[at] ^= data.draw(st.integers(min_value=1, max_value=255))
    path = fuzz_dir / "case.ckpt"
    if truncate or at >= payload_start:
        path.write_bytes(bytes(case))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
    else:
        loads_or_rejects(path, bytes(case))
