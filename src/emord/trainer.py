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
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .checkpoint import Checkpoint
from .codec import MODE_SOFTMAX, check_mode_compatible, target_for
from .data import (
    LabeledCorpus,
    build_vocab,
    encode_corpus,
    generate_synthetic,
    load_corpus,
    load_synthetic_spec,
    resolve_taxonomy,
    split_corpus,
)
from .losses import logit_gradient, loss_value
from .metrics import MetricsReport, evaluate
from .net import NetError, backward, forward, init_params
from .optim import AdamWState, OptimizerError, adamw_step
from .recipe import (  # noqa: F401  (the recipe's names are served from here too)
    CONFIG_FORMAT,
    PRESETS,
    TrainConfig,
    TrainerError,
    _CONFIG_KINDS,
    load_train_config_file,
    resolve_train_config,
)
from .taxonomy import EmotionTaxonomy

logger = logging.getLogger(__name__)

_SHUFFLE_STREAM = 303

#: The TrainConfig fields a resumed run may change: how long to train, and
#: where the data comes from.  The data itself is checked by comparing the
#: vocabulary and the taxonomy; every other field shapes the trajectory, so
#: Trainer.resume requires the checkpoint's value.
_RESUME_FREE = frozenset({"epochs", "corpus", "synthetic", "corpus_format", "taxonomy"})


class TrainingDivergedError(RuntimeError):
    """Loss or gradients went non-finite; carries where it happened."""

    def __init__(self, epoch: int, batch_index: int, detail: str):
        super().__init__(
            f"training diverged at epoch {epoch}, batch {batch_index}: {detail}"
        )
        self.epoch = epoch
        self.batch_index = batch_index


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
        self.model_config = config.model_config(self.vocab.size, self.taxonomy)
        self.train_ids = encode_corpus(self.train_split, self.vocab, config.max_seq_length)
        dt = self.model_config.np_dtype
        self.train_targets = np.stack(
            [
                target_for(self.taxonomy, label, config.mode, dtype=dt)
                for label in self.train_split.labels()
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
        for field in dataclasses.fields(TrainConfig):
            recorded, given = getattr(ck.recipe, field.name), getattr(config, field.name)
            if field.name not in _RESUME_FREE and recorded != given:
                raise TrainerError(
                    f"checkpoint has {field.name}={recorded!r} but the config has {given!r}"
                )
        trainer = cls(config, corpus)
        if trainer.vocab != ck.vocab:
            raise TrainerError("checkpoint vocabulary does not match the configured data")
        if trainer.taxonomy != ck.taxonomy:
            raise TrainerError("checkpoint taxonomy does not match the config")
        if trainer.model_config != ck.config:
            raise TrainerError("checkpoint model does not match the config")
        trainer.params = ck.params.copy()
        trainer.opt_state = ck.optimizer.copy()
        trainer.epochs_done = ck.epochs_completed
        return trainer

    def checkpoint(self, with_optimizer: bool = False) -> Checkpoint:
        """Deep snapshot of the current model (and optionally optimizer) state.

        Its params are a read-only copy (ModelParams.frozen_copy); its moments
        are writable.
        """
        return Checkpoint(
            params=self.params.frozen_copy(),
            taxonomy=self.taxonomy,
            vocab=self.vocab,
            recipe=self.config,
            epochs_completed=self.epochs_done,
            optimizer=self.opt_state.copy() if with_optimizer else None,
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


def write_history(history: list[EpochStats], path: str | Path) -> None:
    """Write JSONL, one object per epoch, replacing any earlier file."""
    with atomic_write(path, encoding="utf-8") as fh:
        for stats in history:
            fh.write(json.dumps(stats.to_dict(), sort_keys=True) + "\n")
