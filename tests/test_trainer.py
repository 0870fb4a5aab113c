"""Training loop: config layering, determinism, resume, and failure paths."""

import json
import math
import re
import typing
import warnings

import numpy as np
import pytest

from emord.checkpoint import load_checkpoint, save_checkpoint
from emord.data import LabeledCorpus, SyntheticSpec, generate_synthetic, save_corpus_tsv
from emord.documents import parse_document
from emord.hashing import canonical_json
from emord.taxonomy import EmotionTaxonomy, builtin_taxonomy, save_taxonomy
from emord.trainer import (
    _CONFIG_KINDS,
    CONFIG_FORMAT,
    PRESETS,
    TrainConfig,
    Trainer,
    TrainerError,
    TrainingDivergedError,
    load_train_config_file,
    resolve_train_config,
    write_history,
)

ISEAR = builtin_taxonomy("isear-valence")


def tiny_corpus(per_class=12, seed=0) -> LabeledCorpus:
    spec = SyntheticSpec(
        taxonomy=ISEAR,
        examples_per_class=per_class,
        p_signal=0.8,
        sequence_length=12,
        seed=seed,
    )
    return generate_synthetic(spec)


def tiny_config(**overrides) -> TrainConfig:
    base = dict(
        mode="softmax",
        taxonomy="isear-valence",
        epochs=2,
        batch_size=8,
        learning_rate=1e-2,
        max_seq_length=12,
        seed=0,
        embed_dim=8,
        conv_channels=(8, 8),
        kernel_sizes=(6, 4),
        ffnn_hidden=(12, 8),
    )
    base.update(overrides)
    return TrainConfig(**base)


# ------------------------------------------------------------ configuration


def test_config_validation():
    with pytest.raises(TrainerError, match="head mode"):
        tiny_config(mode="linear")
    with pytest.raises(TrainerError, match="preset"):
        tiny_config(preset="datacenter")
    with pytest.raises(TrainerError, match="not both"):
        tiny_config(corpus="a.tsv", synthetic="b.json")
    with pytest.raises(TrainerError, match="sum to 1"):
        tiny_config(split=(0.5, 0.4, 0.2))
    with pytest.raises(TrainerError, match="learning_rate"):
        tiny_config(learning_rate=0.0)
    # the AdamW hyperparameters are AdamWConfig's to check, reported as ours
    with pytest.raises(TrainerError, match=r"^beta1 must be in \[0, 1\), got 1.5$"):
        tiny_config(beta1=1.5)
    with pytest.raises(TrainerError, match=r"^eps must be positive, got 0\.0$"):
        tiny_config(eps=0)
    assert tiny_config().adamw.learning_rate == 1e-2


# float, float | None and tuple[float, ...] fields alike
FLOAT_FIELDS = [
    name
    for name, hint in typing.get_type_hints(TrainConfig).items()
    if float in (hint, *typing.get_args(hint))
]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_rejects_non_finite_floats(name, value):
    default = getattr(tiny_config(), name)
    bad = (value, *default[1:]) if isinstance(default, tuple) else value
    with pytest.raises(TrainerError, match=f"{name} must be finite"):
        tiny_config(**{name: bad})


def test_resolve_precedence_flags_beat_file_beat_preset():
    # preset desk supplies lr 1e-3 / max_seq 32; the file overrides one of
    # them; an explicit flag overrides the file
    file_values = {"learning_rate": 5e-4, "epochs": 7}
    overrides = {"learning_rate": 2e-3, "batch_size": None}  # None = not given
    config = resolve_train_config(file_values, overrides)
    assert config.learning_rate == 2e-3  # flag wins
    assert config.epochs == 7  # file wins over default
    assert config.max_seq_length == 32  # preset default survives
    assert config.batch_size == 16  # dataclass default; None ignored


def test_resolve_paper_preset():
    config = resolve_train_config({"preset": "paper"}, {})
    assert config.preset == "paper"
    assert config.max_seq_length == 200
    assert config.learning_rate == pytest.approx(0.6e-5)
    assert set(PRESETS) == {"desk", "paper"}


def test_train_config_applies_its_preset(tmp_path):
    paper = TrainConfig(preset="paper")
    assert paper.max_seq_length == 200
    assert paper.learning_rate == pytest.approx(0.6e-5)
    desk = TrainConfig()
    assert (desk.max_seq_length, desk.learning_rate) == (32, 1e-3)
    explicit = TrainConfig(preset="paper", max_seq_length=64, learning_rate=1e-4)
    assert (explicit.max_seq_length, explicit.learning_rate) == (64, 1e-4)
    # a width given keeps its value, and the preset fills the others
    narrow = TrainConfig(preset="paper", embed_dim=64)
    assert narrow.embed_dim == 64
    for name in ("conv_channels", "kernel_sizes", "ffnn_hidden", "max_seq_length"):
        assert getattr(narrow, name) == PRESETS["paper"][name]
    # a config file leaves a preset value to the preset by omitting it, not by null
    path = tmp_path / "train.json"
    for name in ("learning_rate", "embed_dim"):
        path.write_text(json.dumps({name: None}), encoding="utf-8")
        with pytest.raises(TrainerError, match="must not be null"):
            load_train_config_file(path)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_field_resolves_from_the_table(preset):
    config = TrainConfig(preset=preset)
    assert {name: getattr(config, name) for name in PRESETS[preset]} == PRESETS[preset]
    unset = [name for name, value in vars(config).items() if value is None]
    assert unset == ["corpus", "synthetic"]


def test_resolve_rejects_unknown_fields():
    with pytest.raises(TrainerError, match="lern_rate"):
        resolve_train_config({"lern_rate": 1e-3}, {})
    with pytest.raises(TrainerError, match="momentum"):
        resolve_train_config({}, {"momentum": 0.9})
    # an unknown name is rejected even when its value reads as "not given"
    with pytest.raises(TrainerError, match="bogus"):
        resolve_train_config({}, {"bogus": None})


def test_config_file_loading(tmp_path):
    path = tmp_path / "train.json"
    path.write_text(
        json.dumps({"format": "emord.train/1", "mode": "ordinal-1d", "epochs": 3}),
        encoding="utf-8",
    )
    values = load_train_config_file(path)
    assert values == {"mode": "ordinal-1d", "epochs": 3}
    config = resolve_train_config(values, {})
    assert config.mode == "ordinal-1d" and config.epochs == 3

    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(TrainerError):
        load_train_config_file(path)
    path.write_bytes(b'{"epochs": 3}\xff')
    with pytest.raises(TrainerError, match=f"^{re.escape(str(path))}: .*utf-8"):
        load_train_config_file(path)
    path.write_text(json.dumps({"epochs": "three"}), encoding="utf-8")
    with pytest.raises(TrainerError, match="epochs"):
        resolve_train_config(load_train_config_file(path), {})


HUGE = 10**400  # a JSON integer too large for a float


@pytest.mark.parametrize(
    "name, value, match",
    [("learning_rate", HUGE, "learning_rate is too large"),
     ("split", [HUGE, 0, 0], "split entry is too large")],
    ids=["learning_rate", "split"],
)
def test_config_file_rejects_numbers_too_large_for_a_float(tmp_path, name, value, match):
    path = tmp_path / "train.json"
    path.write_text(json.dumps({name: value}), encoding="utf-8")
    with pytest.raises(TrainerError, match=f"^{re.escape(str(path))}: {match} for a float$"):
        load_train_config_file(path)


def test_config_rejects_negative_seed():
    with pytest.raises(TrainerError, match="seed must be non-negative, got -1"):
        tiny_config(seed=-1)
    assert tiny_config(seed=0).seed == 0


def test_float_fields_hold_floats():
    # equal configs must give equal documents, and so equal manifests and
    # checkpoint bytes, whether a float was written as an integer or not
    ints = tiny_config(learning_rate=1, weight_decay=0, loss_weights=(1, 0.5), split=(1, 0, 0))
    floats = tiny_config(
        learning_rate=1.0, weight_decay=0.0, loss_weights=(1.0, 0.5), split=(1.0, 0.0, 0.0)
    )
    assert ints == floats
    assert canonical_json(ints.to_document()) == canonical_json(floats.to_document())
    for name in FLOAT_FIELDS:
        value = getattr(ints, name)
        assert all(type(x) is float for x in (value if isinstance(value, tuple) else (value,)))
    with pytest.raises(TrainerError, match="^weight_decay must be a number$"):
        tiny_config(weight_decay="0.1")


def fields_of_kind(*kinds):
    return [name for name, kind in _CONFIG_KINDS.items() if kind in kinds]


@pytest.mark.parametrize("value", [1.0, 2.5, True], ids=["float", "fraction", "bool"])
@pytest.mark.parametrize("name", fields_of_kind(int))
def test_an_int_field_takes_only_an_int(name, value):
    with pytest.raises(TrainerError, match=f"^{name} must be an integer$"):
        tiny_config(**{name: value})


@pytest.mark.parametrize("name", fields_of_kind(str, str | None))
def test_a_str_field_takes_only_a_string(name):
    with pytest.raises(TrainerError, match=f"^{name} must be a string$"):
        tiny_config(**{name: 1})


@pytest.mark.parametrize(
    "name", [name for name, kind in _CONFIG_KINDS.items() if typing.get_origin(kind) is tuple]
)
def test_a_tuple_field_takes_exactly_its_length(name):
    length = len(typing.get_args(_CONFIG_KINDS[name]))
    for value in ((1,) * (length - 1), (1,) * (length + 1), [1] * (length + 1), 1):
        with pytest.raises(TrainerError, match=f"^{name} must be a list of {length} values$"):
            tiny_config(**{name: value})


def test_tuple_entries_take_their_kind():
    with pytest.raises(TrainerError, match="^conv_channels entry must be an integer$"):
        tiny_config(conv_channels=(8.0, 8))
    with pytest.raises(TrainerError, match="^split entry must be a number$"):
        tiny_config(split=(1, 0, "0"))


@pytest.mark.parametrize(
    "values",
    [
        dict(learning_rate=1, weight_decay=0, beta1=0, eps=1),
        dict(split=[1, 0, 0], loss_weights=[2, 1], conv_channels=[5, 6], kernel_sizes=[3, 2]),
        dict(split=(0.5, 0.25, 0.25), loss_weights=(2, 1.5), ffnn_hidden=(7, 5)),
    ],
    ids=["ints-as-floats", "lists", "tuples"],
)
def test_every_config_reads_back_from_its_document(values):
    config = tiny_config(**values)
    document = config.to_document()
    read = parse_document(document, CONFIG_FORMAT, _CONFIG_KINDS, TrainerError)
    assert TrainConfig(**read) == config
    assert TrainConfig(**read).to_document() == document


def test_config_document_roundtrip():
    config = tiny_config(mode="ordinal-1d", learning_rate=3e-3)
    doc = config.to_document()
    assert doc["format"] == "emord.train/1"
    values = {k: v for k, v in doc.items() if k != "format"}
    rebuilt = resolve_train_config(values, {})
    assert rebuilt == config


# ----------------------------------------------------------------- training


def test_training_runs_and_improves():
    result = Trainer(tiny_config(epochs=4), tiny_corpus(per_class=20)).run()
    assert len(result.history) == 4
    assert result.final.epochs_completed == 4
    assert result.final.optimizer is not None
    assert result.best.optimizer is None
    assert 1 <= result.best_epoch <= 4
    # the separable toy corpus is learnable: loss must drop materially
    assert result.history[-1].train_loss < result.history[0].train_loss * 0.9


def test_training_is_deterministic():
    corpus = tiny_corpus()
    a = Trainer(tiny_config(), corpus).run()
    b = Trainer(tiny_config(), corpus).run()
    for (name, arr_a), (_, arr_b) in zip(a.final.params.named(), b.final.params.named()):
        assert np.array_equal(arr_a, arr_b), name
    assert [s.train_loss for s in a.history] == [s.train_loss for s in b.history]
    c = Trainer(tiny_config(seed=1), corpus).run()
    assert not np.array_equal(a.final.params.fc3_w, c.final.params.fc3_w)


def test_resume_matches_uninterrupted_run():
    corpus = tiny_corpus()
    straight = Trainer(tiny_config(epochs=4), corpus).run()

    half = Trainer(tiny_config(epochs=2), corpus)
    half_result = half.run()
    resumed = Trainer.resume(tiny_config(epochs=4), half_result.final, corpus)
    assert resumed.epochs_done == 2
    resumed_result = resumed.run()

    for (name, arr_a), (_, arr_b) in zip(
        straight.final.params.named(), resumed_result.final.params.named()
    ):
        assert np.array_equal(arr_a, arr_b), name
    assert resumed_result.final.optimizer.step == straight.final.optimizer.step


def test_resume_from_disk_is_byte_identical(tmp_path):
    # the saved checkpoint is unpacked into fresh parameter and moment
    # arenas on load; training on from it must match the straight run bit
    # for bit, down to the bytes of the final checkpoint
    corpus = tiny_corpus()
    straight = Trainer(tiny_config(epochs=4), corpus).run()
    save_checkpoint(Trainer(tiny_config(epochs=2), corpus).run().final, tmp_path / "half.ckpt")
    half = load_checkpoint(tmp_path / "half.ckpt")
    assert not half.params.arena.flags.writeable
    resumed = Trainer.resume(tiny_config(epochs=4), half, corpus)
    assert resumed.params.arena.flags.writeable  # trains on a writable copy
    resumed_result = resumed.run()
    save_checkpoint(straight.final, tmp_path / "straight.ckpt")
    save_checkpoint(resumed_result.final, tmp_path / "resumed.ckpt")
    assert (tmp_path / "resumed.ckpt").read_bytes() == (tmp_path / "straight.ckpt").read_bytes()
    assert [s.train_loss for s in resumed_result.history] == [
        s.train_loss for s in straight.history[2:]
    ]


def test_snapshots_have_frozen_params_and_writable_moments():
    trainer = Trainer(tiny_config(), tiny_corpus())
    snapshot = trainer.checkpoint(with_optimizer=True)
    assert not snapshot.params.arena.flags.writeable and trainer.params.arena.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        snapshot.params.fc1_w[0, 0] = 1.0
    state = snapshot.optimizer
    assert state.m.arena.flags.writeable and state.v.arena.flags.writeable
    kept = snapshot.params.arena.copy()
    trainer.run_epoch()
    assert np.array_equal(snapshot.params.arena, kept)


def test_resume_requires_optimizer_state():
    corpus = tiny_corpus()
    result = Trainer(tiny_config(), corpus).run()
    with pytest.raises(TrainerError, match="optimizer"):
        Trainer.resume(tiny_config(epochs=4), result.best, corpus)


def test_resume_rejects_mismatched_data(tmp_path):
    corpus = tiny_corpus(seed=0)
    result = Trainer(tiny_config(), corpus).run()
    other = tiny_corpus(per_class=13, seed=5)
    with pytest.raises(TrainerError, match="vocabulary"):
        Trainer.resume(tiny_config(epochs=4), result.final, other)
    # the same labels and head width, on a reversed scale
    reversed_scale = EmotionTaxonomy(ISEAR.labels, ISEAR.points[::-1], ISEAR.levels)
    save_taxonomy(reversed_scale, tmp_path / "reversed.json")
    config = tiny_config(epochs=4, taxonomy=str(tmp_path / "reversed.json"))
    with pytest.raises(TrainerError, match="^checkpoint taxonomy does not match the config$"):
        Trainer.resume(config, result.final, corpus)


@pytest.mark.parametrize(
    "name, value",
    [("max_seq_length", 20), ("learning_rate", 0.5), ("loss_weights", (1.0, 2.0)),
     ("beta1", 0.8), ("beta2", 0.99), ("eps", 1e-6), ("weight_decay", 0.0), ("seed", 1),
     ("batch_size", 4), ("split", (0.7, 0.2, 0.1)), ("min_freq", 2), ("preset", "paper")],
)
def test_resume_rejects_a_config_the_run_did_not_use(name, value):
    corpus = tiny_corpus()
    result = Trainer(tiny_config(), corpus).run()
    with pytest.raises(TrainerError, match=f"^checkpoint has {name}="):
        Trainer.resume(tiny_config(epochs=4, **{name: value}), result.final, corpus)


def test_resume_accepts_other_epochs_corpus_path_and_taxonomy_spelling(tmp_path):
    # the same data under another path, and the same taxonomy as a JSON
    # file instead of its builtin name
    corpus = tiny_corpus()
    save_corpus_tsv(corpus, tmp_path / "a.tsv")
    save_corpus_tsv(corpus, tmp_path / "b.tsv")
    save_taxonomy(ISEAR, tmp_path / "isear.json")
    result = Trainer(tiny_config(corpus=str(tmp_path / "a.tsv"))).run()
    config = tiny_config(
        epochs=3, corpus=str(tmp_path / "b.tsv"), taxonomy=str(tmp_path / "isear.json")
    )
    resumed = Trainer.resume(config, result.final)
    assert resumed.epochs_done == 2
    assert resumed.run().final.epochs_completed == 3


def test_resume_with_nothing_left_to_do():
    corpus = tiny_corpus()
    result = Trainer(tiny_config(epochs=2), corpus).run()
    resumed = Trainer.resume(tiny_config(epochs=2), result.final, corpus)
    with pytest.raises(TrainerError, match="nothing to train"):
        resumed.run()


def test_divergence_reports_location():
    corpus = tiny_corpus()
    config = tiny_config(learning_rate=1e30, epochs=1)  # guaranteed blow-up
    with pytest.raises(TrainingDivergedError) as err:
        Trainer(config, corpus).run()
    assert err.value.epoch == 1
    assert err.value.batch_index >= 0


def test_divergence_raises_no_numpy_warnings():
    # the overflow on the way to divergence must not surface as a warning,
    # nor, when warnings are errors, replace the divergence error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrainingDivergedError):
            Trainer(tiny_config(learning_rate=1e30, epochs=1), tiny_corpus()).run()


def test_empty_validation_falls_back_to_train(caplog):
    corpus = tiny_corpus(per_class=4)
    config = tiny_config(split=(0.9, 0.0, 0.1), epochs=1)
    with caplog.at_level("WARNING"):
        trainer = Trainer(config, corpus)
    assert any("validation split is empty" in rec.message for rec in caplog.records)
    assert trainer.val_split is trainer.train_split
    trainer.run()  # still trains and selects a best checkpoint


def test_max_seq_length_too_short_for_convs():
    with pytest.raises(TrainerError, match="convolutions"):
        Trainer(tiny_config(max_seq_length=8, kernel_sizes=None), tiny_corpus())


def test_best_selection_softmax_uses_macro_f1():
    corpus = tiny_corpus(per_class=20)
    trainer = Trainer(tiny_config(epochs=3), corpus)
    result = trainer.run()
    scores = [s.val_macro_f1 for s in result.history]
    assert scores[result.best_epoch - 1] == max(scores)


def test_best_selection_ordinal_uses_mean_distance():
    corpus = tiny_corpus(per_class=20)
    trainer = Trainer(tiny_config(mode="ordinal-1d", epochs=3), corpus)
    result = trainer.run()
    dists = [s.val_mean_distance for s in result.history]
    assert dists[result.best_epoch - 1] == min(dists)


def test_mode_taxonomy_compatibility():
    with pytest.raises(Exception, match="2d|grid"):
        Trainer(tiny_config(mode="ordinal-2d"), tiny_corpus())


def test_write_history(tmp_path):
    result = Trainer(tiny_config(epochs=2), tiny_corpus()).run()
    path = tmp_path / "history.jsonl"
    write_history(result.history, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["epoch"] == 1
    assert set(first) == {
        "epoch", "train_loss", "val_accuracy", "val_macro_f1", "val_mean_distance", "val_mean_error_distance",
    }  # every EpochStats field but the wall-clock `seconds`
