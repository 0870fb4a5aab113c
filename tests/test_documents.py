"""The document reader, and fuzzing the readers of JSON documents: train
configs, synth specs, taxonomies and checkpoint headers.

Each fuzz example edits a valid document: it replaces values, adds members
(known, unknown or "format") and drops members or list entries, anywhere
inside it.  The one acceptable failure is the reading module's ValueError
subclass; any other exception propagates and fails the test.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emord.checkpoint import CheckpointError, load_checkpoint
from emord.cli import taxonomy_fingerprint
from emord.codec import target_width
from emord.data import DataError, load_synthetic_spec
from emord.documents import parse_document
from emord.gradcheck import tiny_taxonomy
from emord.taxonomy import (
    TaxonomyError,
    label_distance,
    parse_taxonomy,
    save_taxonomy,
    taxonomy_to_document,
)
from emord.trainer import TrainerError, load_train_config_file, resolve_train_config
from test_checkpoint import PINNED, header_of, with_header

#: Strings that mean something to some reader; "tax.json" is a taxonomy
#: file beside each document, "doc.json" the document itself.
NAMES = (
    "softmax", "ordinal-1d", "ordinal-2d", "desk", "paper", "tsv", "csv", "1d", "2d",
    "isear-valence", "goemotions-grid-5x5", "tax.json", "doc.json", "float32", "float64",
    "emord.train/1", "emord.synth/1", "emord.taxonomy/1", "emord.checkpoint/5",
)
#: One JSON value: null, bools, small ints, ints beyond the float range,
#: floats with NaN and ±Infinity, strings, and lists and objects of these.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=64),
    st.integers(min_value=2**1024, max_value=10**400).map(lambda n: n * (-1) ** (n % 2)),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(NAMES),
)
JSON_VALUES = SCALARS | st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

TRAIN_CONFIG = {
    "format": "emord.train/1", "mode": "ordinal-1d", "taxonomy": "isear-valence",
    "corpus": "train.tsv", "corpus_format": "tsv", "preset": "desk", "epochs": 2,
    "batch_size": 8, "learning_rate": 0.01, "max_seq_length": 12, "seed": 3,
    "split": [0.8, 0.1, 0.1], "min_freq": 1, "weight_decay": 0, "beta1": 0.9,
    "beta2": 0.999, "eps": 1e-8, "loss_weights": [1, 2.5], "embed_dim": 8,
    "conv_channels": [8, 8], "kernel_sizes": [6, 4], "ffnn_hidden": [12, 8],
}
SYNTH_SPEC = {
    "format": "emord.synth/1", "taxonomy": "tax.json", "examples_per_class": 4,
    "p_signal": 0.5, "p_confuse": 0.1, "sequence_length": 6, "seed": 2, "filler_tokens": 3,
}
TAXONOMIES = (
    {
        "format": "emord.taxonomy/1",
        "mode": "1d",
        "labels": [{"name": f"level{k}", "rank": k} for k in range(3)],
    },
    {
        "format": "emord.taxonomy/1",
        "mode": "2d",
        "grid_size": 3,
        "labels": [
            {"name": "low", "valence": 0, "arousal": 0},
            {"name": "mid", "valence": 1, "arousal": 2},
            {"name": "high", "valence": 2, "arousal": 1},
        ],
    },
)


#: A resumable checkpoint's bytes, whose header the last fuzz test edits.
CHECKPOINT = PINNED.read_bytes()
#: Member names an edit adds: every document's, and the header's.
MEMBERS = sorted({
    *TRAIN_CONFIG, *SYNTH_SPEC, "grid_size", "labels", "name", "rank", "valence", "arousal",
    *header_of(CHECKPOINT),
})


def json_paths(node, prefix=()):
    """Every key path into a document: object members and list items."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, prefix + (key,))


def edited(data, document: dict) -> dict:
    """`document` after one to three edits drawn from `data`."""
    document = copy.deepcopy(document)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        edit = data.draw(st.sampled_from(("replace", "add", "drop")))
        paths = list(json_paths(document))
        objects = [()] + [path for path in paths if type(at(document, path)) is dict]
        if edit == "replace" and paths:
            *parents, last = data.draw(st.sampled_from(paths))
            at(document, parents)[last] = data.draw(JSON_VALUES)
        elif edit == "add":
            name = data.draw(st.sampled_from(MEMBERS) | st.text(max_size=4))
            at(document, data.draw(st.sampled_from(objects)))[name] = data.draw(JSON_VALUES)
        elif paths:
            *parents, last = data.draw(st.sampled_from(paths))
            del at(document, parents)[last]
    return document


def at(document, path):
    """The value at a key path into `document`."""
    for key in path:
        document = document[key]
    return document


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("documents")
    save_taxonomy(tiny_taxonomy("ordinal-2d"), path / "tax.json")
    return path


def write(fuzz_dir, document):
    path = fuzz_dir / "doc.json"
    path.write_text(json.dumps(document), encoding="utf-8")  # NaN and Infinity as Python writes them
    return path


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_fuzz_train_config(fuzz_dir, data):
    path = write(fuzz_dir, edited(data, TRAIN_CONFIG))
    try:
        resolve_train_config(load_train_config_file(path), {})
    except TrainerError:
        pass


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_fuzz_synthetic_spec(fuzz_dir, data):
    path = write(fuzz_dir, edited(data, SYNTH_SPEC))
    try:
        load_synthetic_spec(path)
    except (DataError, TaxonomyError):  # a taxonomy file is the taxonomy module's to reject
        pass


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data(), document=st.sampled_from(TAXONOMIES))
def test_fuzz_taxonomy_document(data, document):
    try:
        taxonomy = parse_taxonomy(edited(data, document))
    except TaxonomyError:
        return
    taxonomy.label_at
    # squared distance between two labels' codes is their L1 distance
    codes = taxonomy.codes
    assert target_width(f"ordinal-{taxonomy.mode}", taxonomy) == codes.shape[1]
    squared = ((codes[:, None, :] - codes[None, :, :]) ** 2).sum(axis=2)
    every = np.arange(taxonomy.num_labels)
    assert np.array_equal(squared, label_distance(taxonomy, every[:, None], every))
    # every accepted document round-trips, to an equal taxonomy and hash
    again = parse_taxonomy(taxonomy_to_document(taxonomy))
    assert again == taxonomy
    assert hash(again) == hash(taxonomy)
    assert taxonomy_fingerprint(again) == taxonomy_fingerprint(taxonomy)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_fuzz_checkpoint_header(fuzz_dir, data):
    path = fuzz_dir / "case.ckpt"
    # the checksum is recomputed, so the header checks alone must reject
    path.write_bytes(with_header(CHECKPOINT, edited(data, header_of(CHECKPOINT))))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


# ------------------------------------------------------------------ the reader


def test_a_dict_member_is_a_json_object_handed_back():
    kinds = {"inner": dict}
    assert parse_document({"inner": {"x": [1]}}, None, kinds, ValueError) == {"inner": {"x": [1]}}
    for value in ([], "{}", 1):
        with pytest.raises(ValueError, match="^doc: inner must be an object$"):
            parse_document({"inner": value}, None, kinds, ValueError, "doc: ")


def test_a_variadic_tuple_takes_any_length_and_checks_each_entry():
    kinds = {"texts": tuple[str, ...], "ints": tuple[int, ...], "floats": tuple[float, ...]}
    document = {"texts": ["a", "b", "c"], "ints": [], "floats": [1, 2.5]}
    assert parse_document(document, None, kinds, ValueError) == {
        "texts": ("a", "b", "c"), "ints": (), "floats": (1.0, 2.5)
    }
    for name, value, match in [
        ("texts", ["a", True], "^texts entry must be a string$"),
        ("texts", ["a", None], "^texts entry must not be null$"),
        ("ints", [1, True], "^ints entry must be an integer$"),
        ("floats", [1.5, False], "^floats entry must be a number$"),
        ("texts", "ab", "^texts must be a list$"),
        ("ints", {"0": 1}, "^ints must be a list$"),
    ]:
        with pytest.raises(ValueError, match=match):
            parse_document({name: value}, None, kinds, ValueError)


def test_required_names_the_missing_member():
    kinds = {"a": int, "b": int}
    assert parse_document({"a": 1}, None, kinds, ValueError) == {"a": 1}
    with pytest.raises(ValueError, match=r"^doc: missing fields \['b'\]$"):
        parse_document({"a": 1}, None, kinds, ValueError, "doc: ", required=kinds)
    # "format" can be required too, and is still checked and left out
    assert parse_document({"format": "x/1", "a": 1}, "x/1", kinds, ValueError, required=("format",)) == {"a": 1}
    with pytest.raises(ValueError, match=r"^missing fields \['format'\]$"):
        parse_document({"a": 1}, "x/1", kinds, ValueError, required=("format",))


def test_a_document_without_a_format_takes_no_format_member():
    kinds = {"a": int}
    assert parse_document({"a": 1}, None, kinds, ValueError) == {"a": 1}
    for tag in ("x/1", None):
        with pytest.raises(ValueError, match=r"^unknown fields \['format'\]$"):
            parse_document({"format": tag, "a": 1}, None, kinds, ValueError)
