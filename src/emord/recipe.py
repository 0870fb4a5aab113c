"""The training recipe: one TrainConfig names every choice a run makes.

A recipe is the head mode, the taxonomy, the data source, the preset and its
widths, the optimiser and the sequence length.  It is read from a config
file (`emord train --config`), from flags, or from a checkpoint, which
stores the resolved recipe whole; `TrainConfig.model_config` builds the
network a recipe trains, so the trainer and the checkpoint loader build it
the same way.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .codec import HEAD_MODES, MODE_SOFTMAX, target_width
from .data import CORPUS_FORMATS
from .documents import read_document
from .net import ModelConfig
from .optim import AdamWConfig
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
    be None.  Every float field holds floats, tuple entries included, so
    equal recipes give equal documents.  Exactly one data source — `corpus`
    or `synthetic` — should be set unless the corpus is handed to the
    trainer directly.
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
    min_freq: int = 1
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    loss_weights: tuple[float, float] = (1.0, 1.0)
    embed_dim: int | None = None
    conv_channels: tuple[int, int] | None = None
    kernel_sizes: tuple[int, int] | None = None
    ffnn_hidden: tuple[int, int] | None = None

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            # a list (as JSON carries a tuple) becomes a tuple, and an integer
            # in a float field the equal float, so equality, unpacking and
            # to_document never depend on which door a config came in
            if isinstance(value, list):
                value = tuple(value)
            entries = value if isinstance(value, tuple) else (value,)
            kind = _CONFIG_KINDS[field.name]
            if value is not None and float in (kind, *typing.get_args(kind)):
                if not all(isinstance(x, numbers.Real) for x in entries):
                    raise TrainerError(f"{field.name} must be numeric, got {value!r}")
                try:
                    entries = tuple(map(float, entries))
                except OverflowError:
                    raise TrainerError(f"{field.name} is too large for a float") from None
                value = entries if isinstance(value, tuple) else entries[0]
            object.__setattr__(self, field.name, value)
            if any(isinstance(x, float) and not math.isfinite(x) for x in entries):
                raise TrainerError(f"{field.name} must be finite, got {value!r}")
        if self.mode not in HEAD_MODES:
            raise TrainerError(f"unknown head mode {self.mode!r}; choose from {HEAD_MODES}")
        if self.preset not in PRESETS:
            raise TrainerError(f"unknown preset {self.preset!r}; choose from {tuple(PRESETS)}")
        for name, value in PRESETS[self.preset].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if self.corpus_format not in CORPUS_FORMATS:
            raise TrainerError(f"unknown corpus format {self.corpus_format!r}")
        if self.corpus is not None and self.synthetic is not None:
            raise TrainerError("set corpus or synthetic, not both")
        for name in ("epochs", "batch_size", "max_seq_length", "min_freq"):
            if getattr(self, name) < 1:
                raise TrainerError(f"{name} must be at least 1")
        if self.seed < 0:
            raise TrainerError(f"seed must be non-negative, got {self.seed}")
        try:
            self.adamw  # built and checked once, here
        except ValueError as exc:
            raise TrainerError(str(exc)) from None
        if len(self.split) != 3 or any(r < 0 for r in self.split):
            raise TrainerError("split must be three non-negative ratios")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise TrainerError(f"split ratios must sum to 1, got {sum(self.split)}")
        if len(self.loss_weights) != 2 or any(w <= 0 for w in self.loss_weights):
            raise TrainerError("loss_weights must be two positive numbers")

    @cached_property
    def adamw(self) -> AdamWConfig:
        """The AdamW hyperparameters of this recipe."""
        return AdamWConfig(
            learning_rate=self.learning_rate,
            beta1=self.beta1,
            beta2=self.beta2,
            eps=self.eps,
            weight_decay=self.weight_decay,
        )

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


#: The kind of each TrainConfig field in a config file.  None in a preset
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
    that are None are treated as "not given".
    """
    file_values = dict(file_values or {})
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    unknown = (set(file_values) | set(overrides)) - _CONFIG_KINDS.keys()
    if unknown:
        raise TrainerError(f"unknown config fields {sorted(unknown)}")
    return TrainConfig(**{**file_values, **overrides})
