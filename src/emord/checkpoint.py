"""Self-contained model checkpoints with bit-exact round trips.

A checkpoint bundles everything inference needs — weights, model widths,
vocabulary, taxonomy, sequence length — plus, optionally, the optimizer
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

The header carries the embedded documents, their hashes, the sha256 of the
payload bytes, and an array table (name, shape, dtype, offset, nbytes of
every array in every arena, in PARAM_FIELDS order).  The table is fixed by
the header's model_config and whether optimizer state is present, so
load_checkpoint requires it to equal the one it derives, checks every
header field's JSON type, re-verifies the hashes, and checks that the
vocabulary, taxonomy, head mode and sequence length agree with
model_config.

Saves write format 2 (HEADER_FORMAT).  Format 1 is still read: its header
has no payload hash, and it stores each conv weight as (Cout, Cin, k), so
the loader puts those arrays in the arena's tap-major (k, Cin, Cout) layout
after reading it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import reprlib
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .codec import target_width
from .data import Vocabulary
from .hashing import canonical_json, sha256_json, sha256_text
from .net import ModelConfig, ModelParams
from .optim import AdamWConfig, AdamWState
from .taxonomy import EmotionTaxonomy, parse_taxonomy, taxonomy_to_document

MAGIC = b"EMOC"
CONTAINER_VERSION = 1
HEADER_FORMAT = "emord.checkpoint/2"
#: The earlier format: conv weights stored (Cout, Cin, k), no payload hash.
HEADER_FORMAT_1 = "emord.checkpoint/1"

_DTYPE_TAGS = {"float32": "<f4", "float64": "<f8"}


class CheckpointError(ValueError):
    """Unreadable, corrupt, or internally inconsistent checkpoint file."""


@dataclass
class OptimizerSnapshot:
    """AdamW hyperparameters and moments, carried only by resumable checkpoints."""

    adamw: AdamWConfig
    state: AdamWState


@dataclass
class Checkpoint:
    """Everything needed to run (and optionally resume training) a model."""

    config: ModelConfig
    params: ModelParams
    taxonomy: EmotionTaxonomy
    vocab: Vocabulary
    max_seq_length: int
    seed: int = 0
    loss_weights: tuple[float, float] = (1.0, 1.0)
    epochs_completed: int = 0
    optimizer: OptimizerSnapshot | None = None


def vocab_fingerprint(vocab: Vocabulary) -> str:
    return sha256_text("\n".join(vocab.tokens) + f"\nmin_freq={vocab.min_freq}")


def taxonomy_fingerprint(taxonomy: EmotionTaxonomy) -> str:
    return sha256_json(taxonomy_to_document(taxonomy))


def _is_count(value) -> bool:
    return type(value) is int and value >= 0  # a bool is not an int here


def _is_number(value) -> bool:
    return type(value) is int or (type(value) is float and math.isfinite(value))


#: JSON kinds of header values: (description, test).
_COUNT = ("a non-negative integer", _is_count)
_NUMBER = ("a finite number", _is_number)
_TEXT = ("a string", lambda value: type(value) is str)
_OBJECT = ("an object", lambda value: type(value) is dict)
_LIST = ("a list", lambda value: type(value) is list)
_TEXTS = ("a list of strings", lambda value: _LIST[1](value) and all(map(_TEXT[1], value)))
_COUNT_PAIR = (
    "a list of two non-negative integers",
    lambda value: _LIST[1](value) and len(value) == 2 and all(map(_is_count, value)),
)
_NUMBER_PAIR = (
    "a list of two finite numbers",
    lambda value: _LIST[1](value) and len(value) == 2 and all(map(_is_number, value)),
)

_HINT_KINDS = {int: _COUNT, float: _NUMBER, str: _TEXT, tuple[int, int]: _COUNT_PAIR}


def _fields_of(cls) -> dict:
    """Header kinds of a dataclass written as the object of its fields."""
    return {name: _HINT_KINDS[hint] for name, hint in typing.get_type_hints(cls).items()}


#: Every header field and its kind; nested dicts are objects with exactly
#: these keys.  The taxonomy document is parse_taxonomy's to check, the
#: array table is compared whole with _array_table's.
_HEADER = {
    "format": _TEXT,
    "model_config": _fields_of(ModelConfig),
    "taxonomy": _OBJECT,
    "vocab": {"tokens": _TEXTS, "min_freq": _COUNT},
    "max_seq_length": _COUNT,
    "seed": _COUNT,
    "loss_weights": _NUMBER_PAIR,
    "epochs_completed": _COUNT,
    "hashes": {"taxonomy": _TEXT, "vocab": _TEXT, "payload": _TEXT},
    "arrays": _LIST,
    "optimizer": {
        "step": _COUNT,
        "adamw": _fields_of(AdamWConfig),
    },
}
_HEADER_1 = {**_HEADER, "hashes": {"taxonomy": _TEXT, "vocab": _TEXT}}
_NULLABLE = {"optimizer"}


def _check_fields(path: Path, document: dict, schema: dict, where: str = "") -> None:
    unknown = sorted(set(document) - set(schema))
    if unknown:
        raise CheckpointError(f"{path}: header has unknown key {where + unknown[0]!r}")
    for key, kind in schema.items():
        name = where + key
        if key not in document:
            raise CheckpointError(f"{path}: header is missing key {name!r}")
        value = document[key]
        if isinstance(kind, dict):
            if type(value) is dict:
                _check_fields(path, value, kind, name + ".")
            elif not (value is None and name in _NULLABLE):
                nullable = " or null" if name in _NULLABLE else ""
                raise CheckpointError(
                    f"{path}: header key {name!r} must be an object{nullable}, "
                    f"got {reprlib.repr(value)}"
                )
        elif not kind[1](value):
            raise CheckpointError(
                f"{path}: header key {name!r} must be {kind[0]}, got {reprlib.repr(value)}"
            )


def _stored_shapes(config: ModelConfig, header_format: str) -> dict[str, tuple[int, ...]]:
    """Each array's shape in a file of `header_format`: format 1 reverses the conv weights'."""
    shapes = config.param_shapes()
    if header_format == HEADER_FORMAT_1:
        return {name: shape[::-1] if len(shape) == 3 else shape for name, shape in shapes.items()}
    return shapes


def _array_table(
    config: ModelConfig, with_optimizer: bool, header_format: str = HEADER_FORMAT
) -> list[dict]:
    """The header's array table: the parameter arena, then the m and v arenas."""
    tag = _DTYPE_TAGS[config.dtype]
    itemsize = np.dtype(tag).itemsize
    table, offset = [], 0
    for prefix in ("", "m/", "v/") if with_optimizer else ("",):
        for name, shape in _stored_shapes(config, header_format).items():
            nbytes = math.prod(shape) * itemsize
            table.append(
                {
                    "name": prefix + name,
                    "shape": list(shape),
                    "dtype": tag,
                    "offset": offset,
                    "nbytes": nbytes,
                }
            )
            offset += nbytes
    return table


def _check_table(path: Path, table: list, expected: list[dict]) -> None:
    # canonical JSON compares types too: 0 and false, 4 and 4.0 differ
    if canonical_json(table) == canonical_json(expected):
        return
    for got, want in zip(table, expected):
        if canonical_json(got) == canonical_json(want):
            continue
        name, got = want["name"], got if type(got) is dict else {}
        for key in ("name", "shape", "dtype"):
            if canonical_json(got.get(key)) != canonical_json(want[key]):
                raise CheckpointError(
                    f"{path}: array {name!r} has {key} {got.get(key)!r}, "
                    f"model_config needs {want[key]!r}"
                )
        raise CheckpointError(
            f"{path}: array {name!r} byte range (offset {got.get('offset')!r}, "
            f"nbytes {got.get('nbytes')!r}) is not model_config's "
            f"(offset {want['offset']}, nbytes {want['nbytes']})"
        )
    raise CheckpointError(
        f"{path}: header lists {len(table)} arrays, "
        f"model_config and the optimizer field need {len(expected)}"
    )


def save_checkpoint(ck: Checkpoint, path: str | Path) -> None:
    """Write atomically in format 2; identical Checkpoint contents give identical bytes."""
    path = Path(path)
    cfg = ck.config
    arenas = [ck.params]
    if ck.optimizer is not None:
        arenas += [ck.optimizer.state.m, ck.optimizer.state.v]
    shapes = list(cfg.param_shapes().values())
    for params in arenas:
        if params.arena.dtype != cfg.np_dtype or [a.shape for _, a in params.named()] != shapes:
            raise CheckpointError(f"{path}: arrays do not match the checkpoint's model_config")
    tag = _DTYPE_TAGS[cfg.dtype]
    # no copy for a contiguous little-endian arena
    payload = [np.ascontiguousarray(params.arena, dtype=tag) for params in arenas]
    payload_hash = hashlib.sha256()
    for arena in payload:
        payload_hash.update(arena)

    header: dict = {
        "format": HEADER_FORMAT,
        "model_config": dataclasses.asdict(cfg),  # tuples are written as lists
        "taxonomy": taxonomy_to_document(ck.taxonomy),
        "vocab": {"tokens": list(ck.vocab.tokens), "min_freq": ck.vocab.min_freq},
        "max_seq_length": ck.max_seq_length,
        "seed": ck.seed,
        "loss_weights": list(ck.loss_weights),
        "epochs_completed": ck.epochs_completed,
        "hashes": {
            "taxonomy": taxonomy_fingerprint(ck.taxonomy),
            "vocab": vocab_fingerprint(ck.vocab),
            "payload": payload_hash.hexdigest(),
        },
        "arrays": _array_table(cfg, ck.optimizer is not None),
        "optimizer": None,
    }
    if ck.optimizer is not None:
        header["optimizer"] = {
            "step": ck.optimizer.state.step,
            "adamw": dataclasses.asdict(ck.optimizer.adamw),
        }

    header_bytes = canonical_json(header).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(int(CONTAINER_VERSION).to_bytes(4, "little"))
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        for arena in payload:
            fh.write(arena)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and verify a checkpoint; arrays come back bit-identical.

    The preamble and header are read and checked first, and the file's size
    against the header's array table; then each arena is read straight into
    the array it is returned in, so loading holds little beyond the arenas,
    and the arenas are hashed in place against the header's payload hash.
    The parameters come back read-only, the moments writable.
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
        if header_end > size:
            raise CheckpointError(f"{path}: truncated checkpoint while reading header")
        try:
            header = json.loads(fh.read(header_end - 16).decode("utf-8"))
        except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
            raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
        fmt = header.get("format") if type(header) is dict else None
        if fmt not in (HEADER_FORMAT, HEADER_FORMAT_1):
            raise CheckpointError(f"{path}: unsupported header format {fmt!r}")
        return _from_header(path, header, fmt, fh, size - header_end)


def _conv_weights_to_tap_major(config: ModelConfig, arena: np.ndarray) -> None:
    """Reorder, in place, each conv weight of a format-1 arena from (Cout, Cin, k) to (k, Cin, Cout)."""
    offset = 0
    for shape in _stored_shapes(config, HEADER_FORMAT_1).values():
        size = math.prod(shape)
        if len(shape) == 3:
            stored = arena[offset : offset + size]
            stored[...] = stored.reshape(shape).transpose(2, 1, 0).reshape(-1)
        offset += size


def _parse(path: Path, what: str, build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid {what} ({exc})") from exc


def _from_header(path: Path, header: dict, fmt: str, fh, payload_size: int) -> Checkpoint:
    _check_fields(path, header, _HEADER if fmt == HEADER_FORMAT else _HEADER_1)
    mc = header["model_config"]
    config = _parse(
        path,
        "model_config",
        ModelConfig,
        **{key: tuple(value) if type(value) is list else value for key, value in mc.items()},
    )
    opt = header["optimizer"]
    table = _array_table(config, opt is not None, fmt)
    _check_table(path, header["arrays"], table)
    expected = table[-1]["offset"] + table[-1]["nbytes"]
    if payload_size != expected:
        raise CheckpointError(f"{path}: payload is {payload_size} bytes, header expects {expected}")

    taxonomy = _parse(path, "taxonomy", parse_taxonomy, header["taxonomy"])
    vocab = _parse(
        path,
        "vocabulary",
        Vocabulary,
        tokens=tuple(header["vocab"]["tokens"]),
        min_freq=header["vocab"]["min_freq"],
    )
    hashes = header["hashes"]
    if hashes["taxonomy"] != taxonomy_fingerprint(taxonomy):
        raise CheckpointError(f"{path}: taxonomy hash mismatch")
    if hashes["vocab"] != vocab_fingerprint(vocab):
        raise CheckpointError(f"{path}: vocabulary hash mismatch")
    if config.vocab_size != vocab.size:
        raise CheckpointError(
            f"{path}: model_config.vocab_size is {config.vocab_size}, "
            f"the vocabulary needs {vocab.size}"
        )
    width = _parse(path, "head mode for the taxonomy", target_width, config.head_mode, taxonomy)
    if config.output_width != width:
        raise CheckpointError(
            f"{path}: model_config.output_width is {config.output_width}, "
            f"a {config.head_mode} head over the taxonomy needs {width}"
        )
    if header["max_seq_length"] < config.min_seq_length:
        raise CheckpointError(
            f"{path}: max_seq_length {header['max_seq_length']} is shorter than the "
            f"{config.min_seq_length} tokens the convolutions need"
        )

    # each arena is read into its own native array, back to back; format 2
    # hashes it as read, format 1 reorders its conv weights
    arenas = []
    payload_hash = hashlib.sha256()
    for _ in range(1 if opt is None else 3):
        arena = np.empty(config.param_count, dtype=config.np_dtype)
        if fh.readinto(arena) != arena.nbytes:  # the file shrank since fstat
            raise CheckpointError(f"{path}: truncated checkpoint while reading the arrays")
        if fmt == HEADER_FORMAT:
            payload_hash.update(arena)
        if sys.byteorder == "big":
            arena.byteswap(inplace=True)  # stored little-endian
        if fmt == HEADER_FORMAT_1:
            _conv_weights_to_tap_major(config, arena)
        if not arenas:  # the parameters' arena is read-only, the moments' stay writable
            arena.setflags(write=False)
        arenas.append(ModelParams.over(config, arena))
    if fmt == HEADER_FORMAT and hashes["payload"] != payload_hash.hexdigest():
        raise CheckpointError(f"{path}: payload hash mismatch")
    params, *moments = arenas

    optimizer = None
    if opt is not None:
        m, v = moments
        optimizer = OptimizerSnapshot(
            adamw=_parse(path, "optimizer.adamw", AdamWConfig, **opt["adamw"]),
            state=AdamWState(step=opt["step"], m=m, v=v),
        )

    return Checkpoint(
        config=config,
        params=params,
        taxonomy=taxonomy,
        vocab=vocab,
        max_seq_length=header["max_seq_length"],
        seed=header["seed"],
        loss_weights=tuple(header["loss_weights"]),
        epochs_completed=header["epochs_completed"],
        optimizer=optimizer,
    )
