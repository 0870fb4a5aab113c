"""Checkpoint container: bit-exact round trips and tamper detection."""

import dataclasses
import hashlib
import json
import re
import tracemalloc
import typing
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emord.checkpoint import (
    HEADER_FORMAT,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from emord.cli import EXIT_INVALID, main, taxonomy_fingerprint
from emord.data import LabeledCorpus, build_vocab
from emord.hashing import canonical_json, sha256_file
from emord.net import init_params
from emord.optim import AdamWState, adamw_step
from emord.recipe import _CONFIG_KINDS, TrainConfig, TrainerError
from emord.taxonomy import builtin_taxonomy, taxonomy_to_document

#: make_checkpoint(with_optimizer=True) as save_checkpoint writes it (format
#: 6); reader and writer change together, so this file pins the bytes on disk.
PINNED = Path(__file__).parent / "data" / "checkpoint_v6_fixture.ckpt"
#: The same checkpoint as formats 3, 4 and 5 wrote it, which are no longer read.
FORMAT_3 = Path(__file__).parent / "data" / "checkpoint_v3_fixture.ckpt"
FORMAT_4 = Path(__file__).parent / "data" / "checkpoint_v4_fixture.ckpt"
FORMAT_5 = Path(__file__).parent / "data" / "checkpoint_v5_fixture.ckpt"

RECIPE = TrainConfig(
    mode="softmax",
    taxonomy="isear-valence",
    learning_rate=0.01,
    max_seq_length=24,
    seed=5,
    loss_weights=(1.0, 0.5),
    embed_dim=4,
    conv_channels=(3, 3),
    kernel_sizes=(6, 4),
    ffnn_hidden=(5, 4),
)


def make_checkpoint(with_optimizer=False, dtype="float32") -> Checkpoint:
    taxonomy = builtin_taxonomy("isear-valence")
    vocab = build_vocab(LabeledCorpus((("red green blue cue0 cue1", "joy"),)))
    config = RECIPE.model_config(vocab.size, taxonomy, dtype)
    params = init_params(config, seed=5)
    optimizer = None
    if with_optimizer:
        optimizer = AdamWState.initial(params)
        adamw_step(params, params.copy(), optimizer, RECIPE)
    return Checkpoint(params, taxonomy, vocab, RECIPE, epochs_completed=3, optimizer=optimizer)


def header_of(raw: bytes) -> dict:
    return json.loads(raw[16 : 16 + int.from_bytes(raw[8:16], "little")])


def with_header(raw: bytes, header: dict) -> bytes:
    """A saved file's bytes with `header` in place of its own, checksum recomputed."""
    header_bytes = canonical_json(header).encode("utf-8")
    body = (
        raw[:8]
        + len(header_bytes).to_bytes(8, "little")
        + header_bytes
        + raw[16 + int.from_bytes(raw[8:16], "little") : -32]
    )
    return body + hashlib.sha256(body).digest()


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
    assert loaded.recipe == ck.recipe == RECIPE
    assert loaded.epochs_completed == 3
    assert loaded.optimizer is None
    assert_params_equal(loaded.params, ck.params)


def test_roundtrip_optimizer_state(tmp_path):
    ck = make_checkpoint(with_optimizer=True)
    path = tmp_path / "resume.ckpt"
    save_checkpoint(ck, path)
    loaded = load_checkpoint(path)
    assert loaded.optimizer is not None
    assert loaded.recipe == ck.recipe
    assert loaded.optimizer.step == 1
    assert_params_equal(loaded.optimizer.m, ck.optimizer.m)
    assert_params_equal(loaded.optimizer.v, ck.optimizer.v)


def test_resave_is_byte_identical(tmp_path):
    ck = make_checkpoint(with_optimizer=True)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(ck, first)
    save_checkpoint(load_checkpoint(first), second)
    assert sha256_file(first) == sha256_file(second)
    assert first.read_bytes() == second.read_bytes()


def test_bytes_do_not_depend_on_where_the_data_lived(tmp_path):
    ck = make_checkpoint(with_optimizer=True)
    save_checkpoint(ck, tmp_path / "plain.ckpt")
    elsewhere = {
        "corpus": {"corpus": str(tmp_path / "a" / "train.tsv")},
        "synthetic": {"synthetic": str(tmp_path / "b" / "spec.json")},
    }
    for name, location in elsewhere.items():
        ck.recipe = dataclasses.replace(RECIPE, **location)
        save_checkpoint(ck, tmp_path / f"{name}.ckpt")
        assert (tmp_path / f"{name}.ckpt").read_bytes() == (tmp_path / "plain.ckpt").read_bytes()
    # a taxonomy file is recorded by its file name, the same from any directory
    for directory in ("a", "b/nested"):
        ck.recipe = dataclasses.replace(RECIPE, taxonomy=str(tmp_path / directory / "mine.json"))
        save_checkpoint(ck, tmp_path / "file.ckpt")
        loaded = load_checkpoint(tmp_path / "file.ckpt")
        assert loaded.recipe == dataclasses.replace(RECIPE, taxonomy="mine.json")
        assert loaded.recipe.corpus is None and loaded.recipe.synthetic is None


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
    t1 = taxonomy_fingerprint(ck.taxonomy)
    assert t1 == taxonomy_fingerprint(builtin_taxonomy("isear-valence"))
    assert t1 != taxonomy_fingerprint(builtin_taxonomy("goemotions-grid-5x5"))


def test_save_does_not_leave_temp_files(tmp_path):
    ck = make_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(ck, path)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_derives_its_model_config_from_the_recipe():
    ck = make_checkpoint(dtype="float64")
    assert ck.config == RECIPE.model_config(ck.vocab.size, ck.taxonomy, "float64")
    with pytest.raises(TypeError):
        Checkpoint(ck.params, ck.taxonomy, ck.vocab, RECIPE, config=ck.config)
    # a recipe whose model does not fit builds no Checkpoint to save
    short = dataclasses.replace(RECIPE, max_seq_length=8)
    with pytest.raises(TrainerError, match="max_seq_length 8 is shorter than the 9 tokens"):
        dataclasses.replace(ck, recipe=short)


def test_checkpoints_compare_by_value_and_are_unhashable():
    first, second = load_checkpoint(PINNED), load_checkpoint(PINNED)
    assert first == second and not first != second
    assert first.params == second.params and first.optimizer == second.optimizer
    assert first != first.params and first.params != first.optimizer
    # one bit of one weight, and of one first moment
    arena = second.params.arena.copy()
    arena.view(np.uint32)[arena.size // 2] ^= 1
    flipped = dataclasses.replace(second, params=second.params.like(arena))
    assert first != flipped and first.params != flipped.params
    moments = second.optimizer.copy()
    moments.m.arena.view(np.uint32)[0] ^= 1
    assert first.optimizer != moments
    assert first != dataclasses.replace(second, optimizer=moments)
    for value in (first, first.params, first.optimizer):
        with pytest.raises(TypeError, match=f"unhashable type: '{type(value).__name__}'"):
            hash(value)


def header_keys(document, where=""):
    """Every key of a saved header, nested ones dotted; the taxonomy document's
    members are parse_taxonomy's to check."""
    for key, value in document.items():
        yield where + key
        if type(value) is dict and key != "taxonomy":
            yield from header_keys(value, where + key + ".")


def drop_key(header, dotted):
    *parents, last = dotted.split(".")
    for key in parents:
        header = header[key]
    del header[last]


#: How a message names what holds a member, by the member's parent.
READ_AS = {"": "", "recipe": "invalid recipe ("}


@pytest.mark.parametrize("key", [key for key in header_keys(header_of(PINNED.read_bytes())) if key != "format"])
def test_missing_header_key_is_a_checkpoint_error(tmp_path, key):
    parent, _, name = key.rpartition(".")
    match = re.escape(f": {READ_AS[parent]}missing fields ['{name}']")
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(rewrite_header(tmp_path, lambda header: drop_key(header, key)))


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda raw: raw + bytes(4), "payload is 2656 bytes, header expects 2652"),
        (lambda raw: raw[:-4], "payload is 2648 bytes, header expects 2652"),
    ],
    ids=["extra-bytes", "short"],
)
def test_rejects_payload_of_another_size(tmp_path, edit, match):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(with_optimizer=True), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_rejects_moments_without_an_optimizer_step(tmp_path):
    bad = rewrite_header(tmp_path, lambda header: set_key(header, "optimizer_step", None))
    with pytest.raises(CheckpointError, match="payload is 2652 bytes, header expects 884"):
        load_checkpoint(bad)


def test_loaded_arrays_live_in_arenas(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(with_optimizer=True), path)
    loaded = load_checkpoint(path)
    state = loaded.optimizer
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
    recipe = TrainConfig(learning_rate=0.01)
    config = recipe.model_config(vocab.size, builtin_taxonomy("isear-valence"))
    params = init_params(config, seed=0)
    state = AdamWState.initial(params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(
        Checkpoint(params, builtin_taxonomy("isear-valence"), vocab, recipe, optimizer=state),
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
    path.write_bytes(path.read_bytes()[: -32 - 16])  # the trailer and part of the last arena
    # fstat still reports the size the header expects, as if the file
    # shrank after it was taken
    monkeypatch.setattr("emord.checkpoint.os.fstat", lambda fd: SimpleNamespace(st_size=size))
    with pytest.raises(CheckpointError, match="truncated checkpoint while reading the arrays"):
        load_checkpoint(path)


def assert_is_the_fixture_checkpoint(loaded):
    fresh = make_checkpoint(with_optimizer=True)
    assert loaded.config == fresh.config
    assert loaded.taxonomy == fresh.taxonomy
    assert loaded.vocab.tokens == fresh.vocab.tokens
    assert (loaded.recipe, loaded.epochs_completed) == (RECIPE, 3)
    assert loaded.optimizer.step == fresh.optimizer.step == 1
    assert_params_equal(loaded.params, fresh.params)
    assert_params_equal(loaded.optimizer.m, fresh.optimizer.m)
    assert_params_equal(loaded.optimizer.v, fresh.optimizer.v)
    return fresh


def test_pinned_file_loads_and_resaves_byte_for_byte(tmp_path):
    header = header_of(PINNED.read_bytes())
    assert header["format"] == HEADER_FORMAT == "emord.checkpoint/6"
    assert set(header) == {
        "format", "recipe", "dtype", "taxonomy", "vocab", "epochs_completed", "optimizer_step"
    }
    assert header["recipe"] == RECIPE.to_document()
    assert header["vocab"] == ["blue", "cue0", "cue1", "green", "red"]
    loaded = load_checkpoint(PINNED)
    fresh = assert_is_the_fixture_checkpoint(loaded)
    for ck in (loaded, fresh):
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(ck, resaved)
        assert resaved.read_bytes() == PINNED.read_bytes()


def assert_commands_reject(tmp_path, path):
    out = str(tmp_path / "out")
    assert main(["predict", "--checkpoint", str(path), "--text", "red green"]) == EXIT_INVALID
    assert main(["eval", "--checkpoint", str(path), "--corpus", str(path), "--out", out]) == EXIT_INVALID


@pytest.mark.parametrize("fmt", ["emord.checkpoint/1", "emord.checkpoint/2"])
def test_rejects_an_earlier_format_by_name(tmp_path, fmt):
    bad = rewrite_header(tmp_path, lambda header: set_key(header, "format", fmt))
    match = f"unsupported header format '{fmt}'; this version reads 'emord.checkpoint/6'"
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(bad)
    assert_commands_reject(tmp_path, bad)


def test_format_3_file_is_rejected_by_name(tmp_path):
    # a real format-3 file: three fingerprints in its header, no trailer
    assert set(header_of(FORMAT_3.read_bytes())["hashes"]) == {"taxonomy", "vocab", "payload"}
    match = "unsupported header format 'emord.checkpoint/3'; this version reads 'emord.checkpoint/6'"
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(FORMAT_3)
    assert_commands_reject(tmp_path, FORMAT_3)


def test_format_4_file_is_rejected_by_name(tmp_path):
    # a real format-4 file: its vocabulary an object that repeats min_freq
    assert header_of(FORMAT_4.read_bytes())["vocab"]["min_freq"] == 1
    match = "unsupported header format 'emord.checkpoint/4'; this version reads 'emord.checkpoint/6'"
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(FORMAT_4)
    assert_commands_reject(tmp_path, FORMAT_4)


def test_format_5_file_is_rejected_by_name(tmp_path):
    # a real format-5 file: its recipe holds AdamW's moment constants and min_freq
    recipe = header_of(FORMAT_5.read_bytes())["recipe"]
    assert (recipe["beta1"], recipe["beta2"], recipe["eps"], recipe["min_freq"]) == (0.9, 0.999, 1e-8, 1)
    match = "unsupported header format 'emord.checkpoint/5'; this version reads 'emord.checkpoint/6'"
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(FORMAT_5)
    assert_commands_reject(tmp_path, FORMAT_5)


def test_checksum_covers_header_arenas_and_trailer(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(with_optimizer=True), path)
    raw = path.read_bytes()
    arena_bytes = (len(raw) - 32 - (16 + int.from_bytes(raw[8:16], "little"))) // 3
    # the last byte of each text below: recipe.seed 5 -> 4, epochs_completed
    # 3 -> 2 and the token "red" -> "ree" each still give a valid header
    places = [raw.index(text) + len(text) - 1 for text in (b'"seed":5', b'"epochs_completed":3', b'"red')]
    # the first and last byte of each arena, and of the trailer
    for end in range(len(raw) - 32, 0, -arena_bytes)[:3]:
        places += [end - arena_bytes, end - 1]
    places += [len(raw) - 32, len(raw) - 1]
    for at in places:
        case = bytearray(raw)
        case[at] ^= 1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(case))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(bad)


@pytest.mark.parametrize(
    "old, new",
    [
        (b'"seed":5', b'"seed":7'),
        (b'"learning_rate":0.01', b'"learning_rate":0.07'),
        (b'"epochs_completed":3', b'"epochs_completed":9'),
        (b'"optimizer_step":1', b'"optimizer_step":9'),
    ],
    ids=["recipe.seed", "recipe.learning_rate", "epochs_completed", "optimizer_step"],
)
def test_same_length_header_edit_is_rejected(tmp_path, old, new):
    # a valid header of the same length, which only the checksum can catch
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(with_optimizer=True), path)
    raw = path.read_bytes()
    assert raw.count(old) == 1
    bad = tmp_path / "edited.ckpt"
    bad.write_bytes(raw.replace(old, new))
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(bad)
    assert_commands_reject(tmp_path, bad)


def rewrite_header(tmp_path, edit):
    """A saved resumable checkpoint after edit(header) changed its header,
    with the checksum recomputed, so only the header checks can reject it."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(with_optimizer=True), path)
    raw = path.read_bytes()
    header = header_of(raw)
    edit(header)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(with_header(raw, header))
    return bad


def set_key(header, dotted, value):
    *parents, last = dotted.split(".")
    for key in parents:
        header = header[key]
    header[last] = value


@pytest.mark.parametrize(
    "key, value, match",
    [
        pytest.param("recipe", ["softmax"], ": recipe must be an object$", id="recipe-list"),
        pytest.param("recipe.format", "emord.train/2",
                     r"invalid recipe \(unsupported format tag 'emord.train/2'\)", id="recipe.format"),
        pytest.param("recipe.momentum", 0.9, r"invalid recipe \(unknown fields \['momentum'\]\)",
                     id="recipe.momentum"),
        # a format-5 recipe's field
        pytest.param("recipe.beta1", 0.9, r"invalid recipe \(unknown fields \['beta1'\]\)", id="recipe.beta1"),
        pytest.param("recipe.batch_size", 2.0, r"invalid recipe \(batch_size must be an integer\)",
                     id="recipe.batch_size-float"),
        pytest.param("recipe.learning_rate", 0.0,
                     r"invalid recipe \(learning_rate must be positive, got 0.0\)", id="recipe.learning_rate-zero"),
        pytest.param("recipe.mode", "ordinal-3d", "invalid recipe .*unknown head mode 'ordinal-3d'",
                     id="recipe.mode-unknown"),
        pytest.param("dtype", "float16", r"invalid model \(dtype must be float32 or float64, got 'float16'\)",
                     id="dtype-float16"),
        pytest.param("optimizer_step", "1", ": optimizer_step must be an integer$", id="optimizer_step-string"),
        pytest.param("taxonomy", ["1d"], ": taxonomy must be an object$", id="taxonomy-list"),
        pytest.param("epochs_completed", "3", ": epochs_completed must be an integer$",
                     id="epochs_completed-string"),
        # format 4's vocabulary object
        pytest.param("vocab", {"tokens": ["blue", "cue0", "cue1", "green", "red"], "min_freq": 1},
                     ": vocab must be a list$", id="vocab-object"),
        pytest.param("taxonomy.mode", "3d", "invalid taxonomy", id="taxonomy.mode-unknown"),
    ],
)
def test_rejects_header_value_of_wrong_type(tmp_path, key, value, match):
    bad = rewrite_header(tmp_path, lambda header: set_key(header, key, value))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(bad)


@pytest.mark.parametrize("key", ["epochs_completed", "optimizer_step"])
def test_rejects_a_negative_count(tmp_path, key):
    bad = rewrite_header(tmp_path, lambda header: set_key(header, key, -1))
    with pytest.raises(CheckpointError, match=f": {re.escape(key)} must not be negative, got -1$"):
        load_checkpoint(bad)
    assert_commands_reject(tmp_path, bad)


def test_rejects_vocab_size_not_matching_the_tokens(tmp_path):
    # one token fewer gives a smaller embedding than the payload holds
    def drop_last_token(header):
        header["vocab"] = header["vocab"][:-1]

    with pytest.raises(CheckpointError, match="payload is 2652 bytes, header expects 2604"):
        load_checkpoint(rewrite_header(tmp_path, drop_last_token))


@pytest.mark.parametrize(
    "token, match",
    [pytest.param("blue", r"invalid vocabulary \(vocabulary tokens must be distinct; repeated: \['blue'\]\)",
                  id="repeated"),
     pytest.param("Hello!",
                  r"invalid vocabulary \(vocabulary tokens must be their own tokenization; not: \['Hello!'\]\)",
                  id="untokenizable")],
)
def test_rejects_vocab_tokens_that_tokenization_cannot_yield(tmp_path, token, match):
    # the checksum is recomputed, so only the vocabulary rule can catch it
    def replace_last_token(header):
        assert header["vocab"][0] == "blue"
        header["vocab"][-1] = token

    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(rewrite_header(tmp_path, replace_last_token))


@pytest.mark.parametrize(
    "head_mode, match",
    [pytest.param("softmax", "payload is 2652 bytes, header expects 3612", id="softmax"),
     pytest.param("ordinal-1d", "ordinal-1d head requires a 1d taxonomy", id="ordinal-1d")],
)
def test_rejects_output_width_not_matching_the_taxonomy(tmp_path, head_mode, match):
    grid = builtin_taxonomy("goemotions-grid-5x5")

    def use_grid(header):
        header["recipe"]["mode"] = head_mode
        header["taxonomy"] = taxonomy_to_document(grid)

    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(rewrite_header(tmp_path, use_grid))


def test_rejects_max_seq_length_below_the_conv_minimum(tmp_path):
    bad = rewrite_header(tmp_path, lambda header: set_key(header, "recipe.max_seq_length", 3))
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
    header = header_of(raw)
    paths = list(header_paths(header))
    *parents, last = paths[choice % len(paths)]
    node = header
    for key in parents:
        node = node[key]
    assume(json_type(value) != json_type(node[last]))
    node[last] = value
    # the checksum is recomputed, so the header checks must reject the value
    loads_or_rejects(fuzz_dir / "case.ckpt", with_header(raw, header))


#: A value of each JSON type, for the recipe, dtype and optimizer_step below.
ANOTHER_TYPE = (None, True, 7, 1.5, "text", [1], {"a": 1})


def fits(kind, value) -> bool:
    """Whether a config document may hold `value` in a member of `kind`."""
    args = typing.get_args(kind)
    if type(None) in args:  # X | None
        return value is None or fits(args[0], value)
    if kind is float:
        return type(value) in (int, float)
    return type(value) is kind  # never for a tuple kind, which needs 2 or 3 items


@pytest.mark.parametrize("key", [f"recipe.{name}" for name in _CONFIG_KINDS] + ["dtype", "optimizer_step"])
def test_recipe_dtype_and_step_of_another_type_are_rejected(tmp_path, key):
    # no value below is a dtype ("text" names none), and a null step
    # disowns the saved moments
    kind = _CONFIG_KINDS.get(key.removeprefix("recipe."), int if key == "optimizer_step" else None)
    for value in ANOTHER_TYPE:
        if kind is not None and fits(kind, value):
            continue
        bad = rewrite_header(tmp_path, lambda header: set_key(header, key, value))
        with pytest.raises(CheckpointError, match=f": {key} must|invalid (recipe|model)|payload is"):
            load_checkpoint(bad)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_fuzz_truncated_and_flipped_bytes(fuzz_dir, data):
    # no truncated file and no flipped byte, wherever it lands, loads
    raw = (fuzz_dir / "model.ckpt").read_bytes()
    at = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    truncate = data.draw(st.booleans())
    if truncate:
        case = raw[:at]
    else:
        case = bytearray(raw)
        case[at] ^= data.draw(st.integers(min_value=1, max_value=255))
    path = fuzz_dir / "case.ckpt"
    path.write_bytes(bytes(case))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
