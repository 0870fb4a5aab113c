"""The training recipe: one TrainConfig names every choice a run can vary.

A recipe is the head mode, the taxonomy, the data source, the preset and its
widths, the learning rate and weight decay and the sequence length.  What no
run varies is a constant, not a field: AdamW's moment constants are
`optim.BETA1`, `BETA2` and `EPS`, and the vocabulary keeps every token of
the train split.  A recipe is read from a config file (`emord train
--config`), from flags, or from a checkpoint, which stores the resolved
recipe whole; `TrainConfig.model_config` builds the network a recipe trains,
so the trainer and the checkpoint loader build it the same way.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass
from pathlib import Path

from .codec import HEAD_MODES, MODE_SOFTMAX, target_width
from .data import CORPUS_FORMATS
from .documents import coerce_member, read_document
from .net import ModelConfig
from .taxonomy import EmotionTaxonomy

CONFIG_FORMAT = "emord.train/1"

#: The value of every preset field, by preset: "desk" trains in seconds on
#: a laptop, "paper" has the paper's widths.  A TrainConfig field named here
#: and left as None takes its preset's value; every other field is the same
#: in both presets.
PRESETS = {
    "desk": {
        "learning_rate": 1e-3,
        "max_seq_length": 32,
        "embed_dim": 32,
        "conv_channels": (32, 64),
        "kernel_sizes": (6, 4),
        "ffnn_hidden": (64, 32),
    },
    "paper": {
        "learning_rate": 0.6e-5,
        "max_seq_length": 200,
        "embed_dim": 768,
        "conv_channels": (1024, 2048),
        "kernel_sizes": (6, 4),
        "ffnn_hidden": (2048, 768),
    },
}


class TrainerError(ValueError):
    """Invalid training configuration or data/config mismatch."""


@dataclass(frozen=True)
class TrainConfig:
    """Fully resolved training recipe.

    The preset fields (the keys of PRESETS: `learning_rate`,
    `max_seq_length` and the four widths) left as None take the preset's
    values on construction, so afterwards only `corpus` and `synthetic` can
    be None.  Then every field is checked under its `_CONFIG_KINDS` kind as
    a config file's member is: an int field holds an int, a float field a
    float (an int becomes the equal float, tuple entries included) and a
    tuple field exactly its length, so `to_document()` always reads back.
    Exactly one data source — `corpus` or `synthetic` — should be set
    unless the corpus is handed to the trainer directly.
    """

    mode: str = MODE_SOFTMAX
    taxonomy: str = "isear-valence"
    corpus: str | None = None
    corpus_format: str = "tsv"
    synthetic: str | None = None
    preset: str = "desk"
    epochs: int = 10
    batch_size: int = 16
    learning_rate: float | None = None
    max_seq_length: int | None = None
    seed: int = 0
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    weight_decay: float = 0.01
    loss_weights: tuple[float, float] = (1.0, 1.0)
    embed_dim: int | None = None
    conv_channels: tuple[int, int] | None = None
    kernel_sizes: tuple[int, int] | None = None
    ffnn_hidden: tuple[int, int] | None = None

    def __post_init__(self):
        preset = coerce_member(self.preset, str, "preset", TrainerError)
        if preset not in PRESETS:
            raise TrainerError(f"unknown preset {preset!r}; choose from {tuple(PRESETS)}")
        for name, kind in _CONFIG_KINDS.items():
            value = getattr(self, name)
            if value is None:
                value = PRESETS[preset].get(name)
            value = coerce_member(value, kind, name, TrainerError)
            object.__setattr__(self, name, value)
            entries = value if isinstance(value, tuple) else (value,)
            if any(isinstance(x, float) and not math.isfinite(x) for x in entries):
                raise TrainerError(f"{name} must be finite, got {value!r}")
        if self.mode not in HEAD_MODES:
            raise TrainerError(f"unknown head mode {self.mode!r}; choose from {HEAD_MODES}")
        if self.corpus_format not in CORPUS_FORMATS:
            raise TrainerError(f"unknown corpus format {self.corpus_format!r}")
        if self.corpus is not None and self.synthetic is not None:
            raise TrainerError("set corpus or synthetic, not both")
        for name in ("epochs", "batch_size", "max_seq_length"):
            if getattr(self, name) < 1:
                raise TrainerError(f"{name} must be at least 1")
        if self.seed < 0:
            raise TrainerError(f"seed must be non-negative, got {self.seed}")
        if self.learning_rate <= 0:
            raise TrainerError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if self.weight_decay < 0:
            raise TrainerError(f"weight_decay must be non-negative, got {self.weight_decay!r}")
        if any(r < 0 for r in self.split):
            raise TrainerError("split must be three non-negative ratios")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise TrainerError(f"split ratios must sum to 1, got {sum(self.split)}")
        if any(w <= 0 for w in self.loss_weights):
            raise TrainerError("loss_weights must be two positive numbers")

    def model_config(
        self, vocab_size: int, taxonomy: EmotionTaxonomy, dtype: str = "float32"
    ) -> ModelConfig:
        """The network this recipe trains over a vocabulary and a taxonomy.

        Raises a ValueError if the head mode does not fit the taxonomy, or if
        `max_seq_length` is shorter than the two convolutions need.
        """
        config = ModelConfig(
            vocab_size=vocab_size,
            output_width=target_width(self.mode, taxonomy),
            head_mode=self.mode,
            embed_dim=self.embed_dim,
            conv_channels=self.conv_channels,
            kernel_sizes=self.kernel_sizes,
            ffnn_hidden=self.ffnn_hidden,
            dtype=dtype,
        )
        if self.max_seq_length < config.min_seq_length:
            raise TrainerError(
                f"max_seq_length {self.max_seq_length} is shorter than the "
                f"{config.min_seq_length} tokens the convolutions need"
            )
        return config

    def portable(self) -> "TrainConfig":
        """This recipe without the directories its data was read from.

        `corpus` and `synthetic` become None and a taxonomy file is named by
        its file name (a builtin name stays as it is), so a checkpoint that
        stores this recipe has the same bytes wherever the run's data lived.
        """
        return dataclasses.replace(
            self, corpus=None, synthetic=None, taxonomy=Path(self.taxonomy).name
        )

    def to_document(self) -> dict:
        """JSON-ready snapshot of every resolved value (manifest and checkpoint)."""
        doc: dict = {"format": CONFIG_FORMAT}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = list(value)
            doc[field.name] = value
        return doc


#: The kind of each TrainConfig field, in a config file and on construction,
#: and the type and arity of its `emord train` flag.  None in a preset
#: field stands for "the preset's value"; a document asks for that by leaving
#: the field out, never by writing null, so `float | None` reads as float and
#: `tuple[int, int] | None` as `tuple[int, int]`.  Only a data source may be
#: null.
_CONFIG_KINDS = {
    name: typing.get_args(hint)[0] if name in PRESETS["desk"] else hint
    for name, hint in typing.get_type_hints(TrainConfig).items()
}


def load_train_config_file(path: str | Path) -> dict:
    """Strictly parse a training-config JSON file into a field dict."""
    return read_document(path, CONFIG_FORMAT, _CONFIG_KINDS, TrainerError)


def resolve_train_config(
    file_values: dict | None = None, overrides: dict | None = None
) -> TrainConfig:
    """Layer defaults, preset, config file, then explicit overrides.

    Precedence (low to high): dataclass defaults, preset defaults (applied
    by TrainConfig), config file values, overrides (CLI flags).  Overrides
    that are None are treated as "not given"; an unknown name is rejected
    whatever its value.
    """
    file_values, overrides = file_values or {}, overrides or {}
    unknown = (file_values.keys() | overrides.keys()) - _CONFIG_KINDS.keys()
    if unknown:
        raise TrainerError(f"unknown config fields {sorted(unknown)}")
    given = {name: value for name, value in overrides.items() if value is not None}
    return TrainConfig(**{**file_values, **given})
