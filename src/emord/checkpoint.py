"""Self-contained model checkpoints with bit-exact round trips.

A checkpoint bundles everything inference needs — weights, vocabulary,
taxonomy and the recipe that trained them — plus, optionally, the AdamW
moments so training can resume mid-run.

The container is deliberately home-grown rather than an .npz: zip archives
embed member timestamps, which would break "same manifest, same file hash"
reproducibility.  Layout:

    bytes 0:4    magic  b"EMOC"
    bytes 4:8    container version, little-endian uint32
    bytes 8:16   header length in bytes, little-endian uint64
    header       canonical JSON (sorted keys, no whitespace)
    payload      the parameter arena, then (resumable checkpoints only) the
                 AdamW m and v arenas, raw little-endian, back to back
    trailer      the 32-byte sha256 of every byte before it

The header states each fact once: the resolved TrainConfig as its config
document (`recipe`, without the directories the data was read from, so the
bytes do not depend on them), the parameter dtype, the taxonomy document, the
vocabulary, the epochs completed and the AdamW step (null without moments).
The model's widths, the arrays' shapes and byte ranges and the payload size
all follow from the recipe, the vocabulary size and the taxonomy through
TrainConfig.model_config, which the trainer builds its model with and a
Checkpoint derives its `config` with.  load_checkpoint reads the header, its
vocabulary and its recipe with documents.parse_document, the reader config
files go through, so every member is required and of its JSON kind; the
taxonomy document goes through parse_taxonomy, and the rest is derived.  A
crafted file can carry a valid checksum, so the header is checked as outside
input.  The trailer is compared last, so any changed byte that still
gives a valid header ends in a checksum mismatch.

Saves and loads are format 4 (HEADER_FORMAT) only; a file of an earlier
format is rejected by name.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .data import Vocabulary
from .documents import parse_document
from .hashing import canonical_json
from .net import ModelConfig, ModelParams, fields_equal
from .optim import AdamWState
from .recipe import CONFIG_FORMAT, TrainConfig, TrainerError, _CONFIG_KINDS
from .taxonomy import EmotionTaxonomy, parse_taxonomy, taxonomy_to_document

MAGIC = b"EMOC"
CONTAINER_VERSION = 1
HEADER_FORMAT = "emord.checkpoint/4"

_DTYPE_TAGS = {"float32": "<f4", "float64": "<f8"}
_CHECKSUM_SIZE = 32  # the sha256 trailer


class CheckpointError(ValueError):
    """Unreadable, corrupt, or internally inconsistent checkpoint file."""


@dataclass(eq=False)
class Checkpoint:
    """Everything needed to run (and optionally resume training) a model.

    `config` is derived once, on construction, as `recipe.model_config(
    vocab.size, taxonomy, params.arena.dtype.name)`, so it is always the
    model the recipe builds.  `optimizer` holds the AdamW moments of a
    resumable checkpoint; the AdamW hyperparameters are `recipe.adamw`.
    save_checkpoint stores `recipe.portable()`, so a loaded recipe names no
    data directory.
    """

    params: ModelParams
    taxonomy: EmotionTaxonomy
    vocab: Vocabulary
    recipe: TrainConfig
    epochs_completed: int = 0
    optimizer: AdamWState | None = None
    # stored, not a property: inference reads it several times per text
    config: ModelConfig = field(init=False, compare=False)

    __eq__ = fields_equal

    def __post_init__(self):
        self.config = self.recipe.model_config(
            self.vocab.size, self.taxonomy, self.params.arena.dtype.name
        )


#: The kind of every header member but "format", which load_checkpoint reads
#: first, and of the vocabulary's; every member is required.  The recipe is the
#: config reader's to read and the taxonomy document parse_taxonomy's.
_HEADER = {
    "recipe": dict,
    "dtype": str,
    "taxonomy": dict,
    "vocab": dict,
    "epochs_completed": int,
    "optimizer_step": int | None,
}
_VOCAB = {"tokens": tuple[str, ...], "min_freq": int}


def save_checkpoint(ck: Checkpoint, path: str | Path) -> None:
    """Write atomically in format 4; identical Checkpoint contents give identical bytes."""
    path = Path(path)
    cfg = ck.config
    arenas = [ck.params]
    if ck.optimizer is not None:
        arenas += [ck.optimizer.m, ck.optimizer.v]
    shapes = list(cfg.param_shapes().values())
    for params in arenas:
        if params.arena.dtype != cfg.np_dtype or [a.shape for _, a in params.named()] != shapes:
            raise CheckpointError(f"{path}: arrays do not match the checkpoint's model config")
    tag = _DTYPE_TAGS[cfg.dtype]
    # no copy for a contiguous little-endian arena
    payload = [np.ascontiguousarray(params.arena, dtype=tag) for params in arenas]

    header = {
        "format": HEADER_FORMAT,
        "recipe": ck.recipe.portable().to_document(),
        "dtype": cfg.dtype,
        "taxonomy": taxonomy_to_document(ck.taxonomy),
        "vocab": {"tokens": list(ck.vocab.tokens), "min_freq": ck.vocab.min_freq},
        "epochs_completed": ck.epochs_completed,
        "optimizer_step": None if ck.optimizer is None else ck.optimizer.step,
    }
    header_bytes = canonical_json(header).encode("utf-8")
    preamble = MAGIC + CONTAINER_VERSION.to_bytes(4, "little") + len(header_bytes).to_bytes(8, "little")
    checksum = hashlib.sha256()
    with atomic_write(path, "wb") as fh:
        for part in (preamble, header_bytes, *payload):
            checksum.update(part)
            fh.write(part)
        fh.write(checksum.digest())


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and verify a checkpoint; arrays come back bit-identical.

    The preamble and header are read and checked first, and the file's size
    against the arenas the header's model needs; then each arena is read
    straight into the array it is returned in, so loading holds little
    beyond the arenas.  Every byte is hashed as it is read, and the digest
    is compared with the trailer last.  The parameters come back read-only,
    the moments writable.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(16)
        if preamble[:4] != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        if len(preamble) < 16:
            raise CheckpointError(f"{path}: truncated checkpoint while reading the preamble")
        version = int.from_bytes(preamble[4:8], "little")
        if version != CONTAINER_VERSION:
            raise CheckpointError(f"{path}: unsupported container version {version}")
        header_end = 16 + int.from_bytes(preamble[8:16], "little")
        if header_end + _CHECKSUM_SIZE > size:
            raise CheckpointError(f"{path}: truncated checkpoint while reading header")
        header_bytes = fh.read(header_end - 16)
        checksum = hashlib.sha256(preamble + header_bytes)
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
            raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
        fmt = header.get("format") if type(header) is dict else None
        if fmt != HEADER_FORMAT:
            raise CheckpointError(
                f"{path}: unsupported header format {fmt!r}; this version reads {HEADER_FORMAT!r}"
            )
        return _from_header(path, header, fh, size - header_end - _CHECKSUM_SIZE, checksum)


def _parse(path: Path, what: str, build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid {what} ({exc})") from exc


def _from_header(path: Path, header: dict, fh, payload_size: int, checksum) -> Checkpoint:
    members = parse_document(
        header, HEADER_FORMAT, _HEADER, CheckpointError, f"{path}: ", required=_HEADER
    )
    vocab_fields = _parse(
        path, "vocabulary", parse_document, members["vocab"], None, _VOCAB, ValueError, required=_VOCAB
    )
    step = members["optimizer_step"]
    counts = (members["epochs_completed"], step or 0, vocab_fields["min_freq"])
    for name, count in zip(("epochs_completed", "optimizer_step", "vocab.min_freq"), counts):
        if count < 0:
            raise CheckpointError(f"{path}: {name} must not be negative, got {count}")
    values = _parse(
        path,
        "recipe",
        parse_document,
        members["recipe"],
        CONFIG_FORMAT,
        _CONFIG_KINDS,
        TrainerError,
        required=("format", *_CONFIG_KINDS),
    )
    recipe = _parse(path, "recipe", TrainConfig, **values)
    taxonomy = _parse(path, "taxonomy", parse_taxonomy, members["taxonomy"])
    vocab = _parse(path, "vocabulary", Vocabulary, **vocab_fields)
    config = _parse(path, "model", recipe.model_config, vocab.size, taxonomy, members["dtype"])
    arena_count = 1 if step is None else 3
    expected = arena_count * config.param_count * np.dtype(config.np_dtype).itemsize
    if payload_size != expected:
        raise CheckpointError(f"{path}: payload is {payload_size} bytes, header expects {expected}")

    # each arena is read into its own native array, back to back, and hashed as read
    arenas = []
    for _ in range(arena_count):
        arena = np.empty(config.param_count, dtype=config.np_dtype)
        if fh.readinto(arena) != arena.nbytes:  # the file shrank since fstat
            raise CheckpointError(f"{path}: truncated checkpoint while reading the arrays")
        checksum.update(arena)
        if sys.byteorder == "big":
            arena.byteswap(inplace=True)  # stored little-endian
        if not arenas:  # the parameters' arena is read-only, the moments' stay writable
            arena.setflags(write=False)
        arenas.append(ModelParams.over(config, arena))
    if fh.read(_CHECKSUM_SIZE) != checksum.digest():
        raise CheckpointError(f"{path}: checksum mismatch")
    params, *moments = arenas

    return Checkpoint(
        params=params,
        taxonomy=taxonomy,
        vocab=vocab,
        recipe=recipe,
        epochs_completed=members["epochs_completed"],
        optimizer=None if step is None else AdamWState(step, *moments),
    )
