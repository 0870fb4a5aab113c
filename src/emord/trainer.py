"""Training loop: deterministic data preparation, AdamW epochs, validation
tracking, and checkpoint selection.

Determinism contract: a fully resolved TrainConfig (plus the corpus it names)
fixes every random draw.  Initialization, splitting, and per-epoch shuffles
each use their own seed stream, and the shuffle stream is keyed by epoch
number, so resuming from a mid-run checkpoint replays the exact batches a
straight run would have seen.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import time
import typing
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .checkpoint import (
    Checkpoint,
    OptimizerSnapshot,
    taxonomy_fingerprint,
    vocab_fingerprint,
)
from .codec import (
    HEAD_MODES,
    MODE_SOFTMAX,
    check_mode_compatible,
    target_for,
    target_width,
)
from .data import (
    CORPUS_FORMATS,
    LabeledCorpus,
    build_vocab,
    encode_corpus,
    generate_synthetic,
    load_corpus,
    load_synthetic_spec,
    resolve_taxonomy,
    split_corpus,
)
from .documents import read_document
from .losses import logit_gradient, loss_value
from .metrics import MetricsReport, evaluate
from .net import ModelConfig, NetError, backward, forward, init_params
from .optim import AdamWConfig, AdamWState, OptimizerError, adamw_step
from .taxonomy import EmotionTaxonomy

logger = logging.getLogger(__name__)

_SHUFFLE_STREAM = 303

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


class TrainingDivergedError(RuntimeError):
    """Loss or gradients went non-finite; carries where it happened."""

    def __init__(self, epoch: int, batch_index: int, detail: str):
        super().__init__(
            f"training diverged at epoch {epoch}, batch {batch_index}: {detail}"
        )
        self.epoch = epoch
        self.batch_index = batch_index


@dataclass(frozen=True)
class TrainConfig:
    """Fully resolved training recipe.

    The preset fields (the keys of PRESETS: `learning_rate`,
    `max_seq_length` and the four widths) left as None take the preset's
    values on construction, so afterwards only `corpus` and `synthetic` can
    be None.  Exactly one data source — `corpus` or `synthetic` — should be
    set unless the corpus is handed to the trainer directly.
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
            # a list (as JSON carries a tuple) becomes a tuple, so equality
            # and unpacking never depend on which door a config came in
            if isinstance(value, list):
                value = tuple(value)
                object.__setattr__(self, field.name, value)
            entries = value if isinstance(value, tuple) else (value,)
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

    def to_document(self) -> dict:
        """JSON-ready snapshot of every resolved value (manifest embedding)."""
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


@dataclass(frozen=True)
class EpochStats:
    """One history line; `seconds` is wall clock and excluded from hashing claims."""

    epoch: int
    train_loss: float
    val_accuracy: float
    val_macro_f1: float
    val_mean_distance: float
    val_mean_error_distance: float
    seconds: float

    def to_dict(self) -> dict:
        # `seconds` stays out on purpose: written artifacts must hash
        # identically across reruns of the same configuration
        return {name: value for name, value in vars(self).items() if name != "seconds"}


@dataclass
class TrainResult:
    final: Checkpoint  # last epoch, with optimizer state (resumable)
    best: Checkpoint  # selected epoch, inference-only
    best_epoch: int
    history: list[EpochStats]


def load_configured_corpus(config: TrainConfig, taxonomy: EmotionTaxonomy) -> LabeledCorpus:
    """Materialize the data source a config names, over its resolved taxonomy."""
    if config.synthetic is not None:
        spec = load_synthetic_spec(config.synthetic)
        if spec.taxonomy != taxonomy:
            raise TrainerError(
                f"{config.synthetic}: the spec's taxonomy is not the config's "
                f"taxonomy {config.taxonomy!r}"
            )
        return generate_synthetic(spec)
    if config.corpus is not None:
        return load_corpus(config.corpus, config.corpus_format, taxonomy)
    raise TrainerError("config names no data source (corpus or synthetic)")


class Trainer:
    """Owns the model state across epochs; one instance per training run."""

    def __init__(self, config: TrainConfig, corpus: LabeledCorpus | None = None):
        self.config = config
        self.taxonomy = resolve_taxonomy(config.taxonomy)
        check_mode_compatible(config.mode, self.taxonomy)
        if corpus is None:
            corpus = load_configured_corpus(config, self.taxonomy)
        self.train_split, self.val_split, self.test_split = split_corpus(
            corpus, config.split, config.seed
        )
        if len(self.train_split) == 0:
            raise TrainerError("train split is empty")
        if len(self.val_split) == 0:
            logger.warning("validation split is empty; validating on the train split")
            self.val_split = self.train_split
        self.vocab = build_vocab(self.train_split, config.min_freq)
        self.model_config = ModelConfig(
            vocab_size=self.vocab.size,
            output_width=target_width(config.mode, self.taxonomy),
            head_mode=config.mode,
            embed_dim=config.embed_dim,
            conv_channels=config.conv_channels,
            kernel_sizes=config.kernel_sizes,
            ffnn_hidden=config.ffnn_hidden,
        )
        if config.max_seq_length < self.model_config.min_seq_length:
            raise TrainerError(
                f"max_seq_length {config.max_seq_length} is shorter than the "
                f"convolutions need ({self.model_config.min_seq_length})"
            )
        self.train_ids, train_labels = encode_corpus(
            self.train_split, self.vocab, config.max_seq_length
        )
        dt = self.model_config.np_dtype
        self.train_targets = np.stack(
            [
                target_for(self.taxonomy, label, config.mode, dtype=dt)
                for label in train_labels
            ]
        )
        self.params = init_params(self.model_config, config.seed)
        self.opt_state = AdamWState.initial(self.params)
        self.epochs_done = 0
        self.history: list[EpochStats] = []
        self._best: tuple[float, int, Checkpoint] | None = None

    @classmethod
    def resume(
        cls, config: TrainConfig, ck: Checkpoint, corpus: LabeledCorpus | None = None
    ) -> "Trainer":
        """Continue a run from a checkpoint that carries optimizer state.

        The config must match what the checkpoint records of the run, so that
        the resumed epochs replay the straight run's.
        """
        if ck.optimizer is None:
            raise TrainerError("checkpoint has no optimizer state; cannot resume")
        recorded = {
            "seed": ck.seed,
            "max_seq_length": ck.max_seq_length,
            "loss_weights": ck.loss_weights,
            **dataclasses.asdict(ck.optimizer.adamw),
        }
        for name, value in recorded.items():
            if getattr(config, name) != value:
                raise TrainerError(
                    f"checkpoint has {name}={value!r} but the config has {getattr(config, name)!r}"
                )
        trainer = cls(config, corpus)
        if vocab_fingerprint(trainer.vocab) != vocab_fingerprint(ck.vocab):
            raise TrainerError("checkpoint vocabulary does not match the configured data")
        if taxonomy_fingerprint(trainer.taxonomy) != taxonomy_fingerprint(ck.taxonomy):
            raise TrainerError("checkpoint taxonomy does not match the config")
        if trainer.model_config != ck.config:
            raise TrainerError("checkpoint model widths do not match the config")
        trainer.params = ck.params.copy()
        trainer.opt_state = ck.optimizer.state.copy()
        trainer.epochs_done = ck.epochs_completed
        return trainer

    def checkpoint(self, with_optimizer: bool = False) -> Checkpoint:
        """Deep snapshot of the current model (and optionally optimizer) state.

        Its params are a read-only copy (ModelParams.frozen_copy); its moments
        are writable.
        """
        optimizer = None
        if with_optimizer:
            optimizer = OptimizerSnapshot(adamw=self.config.adamw, state=self.opt_state.copy())
        return Checkpoint(
            config=self.model_config,
            params=self.params.frozen_copy(),
            taxonomy=self.taxonomy,
            vocab=self.vocab,
            max_seq_length=self.config.max_seq_length,
            seed=self.config.seed,
            loss_weights=self.config.loss_weights,
            epochs_completed=self.epochs_done,
            optimizer=optimizer,
        )

    # A diverging step overflows before the NetError, loss and OptimizerError
    # checks below catch it; numpy's floating-point warnings would only reach
    # stderr first, or escape in place of the divergence error when warnings
    # are errors.
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def run_epoch(self) -> EpochStats:
        """One pass over the train split followed by a validation pass."""
        config = self.config
        epoch = self.epochs_done + 1
        started = time.perf_counter()
        n = self.train_ids.shape[0]
        order = np.random.default_rng(
            [config.seed, _SHUFFLE_STREAM, epoch]
        ).permutation(n)
        total_loss = 0.0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            picked = order[start : start + config.batch_size]
            ids = self.train_ids[picked]
            targets = self.train_targets[picked]
            try:
                outputs, cache = forward(self.params, self.model_config, ids)
            except NetError as exc:
                # inputs were validated up front, so a failure here means the
                # parameters themselves have gone non-finite
                raise TrainingDivergedError(epoch, batch_index, str(exc)) from exc
            batch_loss = loss_value(outputs, targets, config.mode, config.loss_weights)
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(epoch, batch_index, f"loss={batch_loss!r}")
            grads = backward(
                self.params,
                self.model_config,
                cache,
                logit_gradient(outputs, targets, config.mode, config.loss_weights),
            )
            try:
                adamw_step(self.params, grads, self.opt_state, config.adamw)
            except OptimizerError as exc:
                raise TrainingDivergedError(epoch, batch_index, str(exc)) from exc
            total_loss += batch_loss * len(picked)
        self.epochs_done = epoch

        snapshot = self.checkpoint()
        val = evaluate(snapshot, self.val_split).report
        stats = EpochStats(
            epoch=epoch,
            train_loss=total_loss / n,
            val_accuracy=val.accuracy,
            val_macro_f1=val.macro_f1,
            val_mean_distance=val.mean_distance,
            val_mean_error_distance=val.mean_error_distance,
            seconds=time.perf_counter() - started,
        )
        self.history.append(stats)
        self._consider_best(val, snapshot)
        return stats

    def _consider_best(self, val: MetricsReport, snapshot: Checkpoint) -> None:
        # softmax selects on validation macro-F1 (higher wins); the ordinal
        # modes select on mean scale distance over all examples (lower wins).
        if self.config.mode == MODE_SOFTMAX:
            score = val.macro_f1
            better = self._best is None or score > self._best[0]
        else:
            score = val.mean_distance
            better = self._best is None or score < self._best[0]
        if better:
            self._best = (score, self.epochs_done, snapshot)

    def run(self) -> TrainResult:
        if self.epochs_done >= self.config.epochs:
            raise TrainerError(
                f"nothing to train: {self.epochs_done} epochs already completed"
            )
        while self.epochs_done < self.config.epochs:
            stats = self.run_epoch()
            logger.info(
                "epoch %d/%d train_loss=%.4f val_acc=%.3f val_f1=%.3f val_dist=%.3f",
                stats.epoch,
                self.config.epochs,
                stats.train_loss,
                stats.val_accuracy,
                stats.val_macro_f1,
                stats.val_mean_distance,
            )
        assert self._best is not None
        return TrainResult(
            final=self.checkpoint(with_optimizer=True),
            best=self._best[2],
            best_epoch=self._best[1],
            history=list(self.history),
        )


def train(config: TrainConfig, corpus: LabeledCorpus | None = None) -> TrainResult:
    """Train a model end to end from a resolved config."""
    return Trainer(config, corpus).run()


def write_history(history: list[EpochStats], path: str | Path) -> None:
    """Write JSONL, one object per epoch, replacing any earlier file."""
    with atomic_write(path, encoding="utf-8") as fh:
        for stats in history:
            fh.write(json.dumps(stats.to_dict(), sort_keys=True) + "\n")
