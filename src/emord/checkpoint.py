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
    buffers      raw little-endian C-order array bytes, back to back

The header carries the array table (name, shape, dtype, offset) and the
embedded documents, plus their hashes, which load_checkpoint re-verifies.
It also checks every parameter and moment array's shape and dtype against
the header's model_config, and unpacks them into fresh arenas.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Vocabulary
from .hashing import canonical_json, sha256_json, sha256_text
from .net import PARAM_FIELDS, ModelConfig, ModelParams, NetError
from .optim import AdamWConfig, AdamWState
from .taxonomy import EmotionTaxonomy, parse_taxonomy, taxonomy_to_document

MAGIC = b"EMOC"
CONTAINER_VERSION = 1
HEADER_FORMAT = "emord.checkpoint/1"

_DTYPE_TAGS = {"float32": "<f4", "float64": "<f8"}
_TAG_DTYPES = {tag: np.dtype(tag) for tag in _DTYPE_TAGS.values()}


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


def _array_entries(arrays: list[tuple[str, np.ndarray]], start: int):
    entries = []
    offset = start
    for name, arr in arrays:
        tag = _DTYPE_TAGS.get(str(arr.dtype))
        if tag is None:
            raise CheckpointError(f"array {name!r} has unsupported dtype {arr.dtype}")
        nbytes = arr.size * arr.itemsize
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": tag,
                "offset": offset,
                "nbytes": nbytes,
            }
        )
        offset += nbytes
    return entries, offset


def save_checkpoint(ck: Checkpoint, path: str | Path) -> None:
    """Write atomically; identical Checkpoint contents give identical bytes."""
    path = Path(path)
    cfg = ck.config
    arrays = list(ck.params.named())
    if ck.optimizer is not None:
        for name, arr in ck.optimizer.state.m.items():
            arrays.append((f"m/{name}", arr))
        for name, arr in ck.optimizer.state.v.items():
            arrays.append((f"v/{name}", arr))
    entries, total = _array_entries(arrays, 0)

    header: dict = {
        "format": HEADER_FORMAT,
        "model_config": {
            "vocab_size": cfg.vocab_size,
            "output_width": cfg.output_width,
            "head_mode": cfg.head_mode,
            "embed_dim": cfg.embed_dim,
            "conv_channels": list(cfg.conv_channels),
            "kernel_sizes": list(cfg.kernel_sizes),
            "ffnn_hidden": list(cfg.ffnn_hidden),
            "dtype": cfg.dtype,
        },
        "taxonomy": taxonomy_to_document(ck.taxonomy),
        "vocab": {"tokens": list(ck.vocab.tokens), "min_freq": ck.vocab.min_freq},
        "max_seq_length": ck.max_seq_length,
        "seed": ck.seed,
        "loss_weights": list(ck.loss_weights),
        "epochs_completed": ck.epochs_completed,
        "hashes": {
            "taxonomy": taxonomy_fingerprint(ck.taxonomy),
            "vocab": vocab_fingerprint(ck.vocab),
        },
        "arrays": entries,
        "optimizer": None,
    }
    if ck.optimizer is not None:
        adamw = ck.optimizer.adamw
        header["optimizer"] = {
            "step": ck.optimizer.state.step,
            "adamw": {
                "learning_rate": adamw.learning_rate,
                "beta1": adamw.beta1,
                "beta2": adamw.beta2,
                "eps": adamw.eps,
                "weight_decay": adamw.weight_decay,
            },
        }

    header_bytes = canonical_json(header).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(int(CONTAINER_VERSION).to_bytes(4, "little"))
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())
    os.replace(tmp, path)
    assert total == sum(e["nbytes"] for e in entries)


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and verify a checkpoint; arrays come back bit-identical."""
    path = Path(path)
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        version = int.from_bytes(_read_exact(fh, 4, "version"), "little")
        if version != CONTAINER_VERSION:
            raise CheckpointError(f"{path}: unsupported container version {version}")
        header_len = int.from_bytes(_read_exact(fh, 8, "header length"), "little")
        try:
            header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
        if header.get("format") != HEADER_FORMAT:
            raise CheckpointError(f"{path}: unsupported header format {header.get('format')!r}")
        payload = fh.read()

    try:
        return _from_header(path, header, payload)
    except KeyError as exc:
        raise CheckpointError(f"{path}: header is missing key {exc.args[0]!r}") from exc


def _model_config(path: Path, mc: dict) -> ModelConfig:
    try:
        return ModelConfig(
            vocab_size=mc["vocab_size"],
            output_width=mc["output_width"],
            head_mode=mc["head_mode"],
            embed_dim=mc["embed_dim"],
            conv_channels=tuple(mc["conv_channels"]),
            kernel_sizes=tuple(mc["kernel_sizes"]),
            ffnn_hidden=tuple(mc["ffnn_hidden"]),
            dtype=mc["dtype"],
        )
    except NetError as exc:
        raise CheckpointError(f"{path}: invalid model_config ({exc})") from exc


def _read_arrays(path: Path, header: dict, payload: bytes, config: ModelConfig):
    """Read-only views of the payload, each checked against `model_config`.

    Returns the parameter arrays, plus the moment arrays under "m/<name>"
    and "v/<name>" when the header carries optimizer state.
    """
    table = header["arrays"]
    entries = {entry["name"]: entry for entry in table}
    expected = sum(entry["nbytes"] for entry in table)
    if len(payload) != expected:
        raise CheckpointError(
            f"{path}: payload is {len(payload)} bytes, header expects {expected}"
        )
    prefixes = ("", "m/", "v/") if header.get("optimizer") is not None else ("",)
    tag = _DTYPE_TAGS[config.dtype]
    dtype = _TAG_DTYPES[tag]
    arrays: dict[str, np.ndarray] = {}
    missing = []
    for prefix in prefixes:
        for name, shape in config.param_shapes().items():
            key = prefix + name
            entry = entries.get(key)
            if entry is None:
                missing.append(key)
                continue
            if tuple(entry["shape"]) != shape:
                raise CheckpointError(
                    f"{path}: array {key!r} has shape {entry['shape']}, "
                    f"model_config needs {list(shape)}"
                )
            if entry["dtype"] != tag:
                raise CheckpointError(
                    f"{path}: array {key!r} has dtype {entry['dtype']!r}, "
                    f"model_config needs {tag!r} ({config.dtype})"
                )
            start, nbytes, count = entry["offset"], entry["nbytes"], math.prod(shape)
            if start < 0 or start + nbytes > len(payload) or nbytes != count * dtype.itemsize:
                raise CheckpointError(f"{path}: array {key!r} byte range does not fit its shape")
            # a view of the payload, not a bytes slice: no copy before packing
            arr = np.frombuffer(payload, dtype=dtype, count=count, offset=start).reshape(shape)
            arrays[key] = arr.astype(arr.dtype.newbyteorder("="), copy=False)
    if missing:
        raise CheckpointError(f"{path}: missing arrays {missing}")
    return arrays


def _from_header(path: Path, header: dict, payload: bytes) -> Checkpoint:
    config = _model_config(path, header["model_config"])
    arrays = _read_arrays(path, header, payload, config)
    # ModelParams and AdamWState pack these views into fresh arenas
    params = ModelParams(**{name: arrays[name] for name in PARAM_FIELDS})

    taxonomy = parse_taxonomy(header["taxonomy"])
    vocab = Vocabulary(
        tokens=tuple(header["vocab"]["tokens"]), min_freq=header["vocab"]["min_freq"]
    )
    hashes = header.get("hashes", {})
    if hashes.get("taxonomy") != taxonomy_fingerprint(taxonomy):
        raise CheckpointError(f"{path}: taxonomy hash mismatch")
    if hashes.get("vocab") != vocab_fingerprint(vocab):
        raise CheckpointError(f"{path}: vocabulary hash mismatch")

    optimizer = None
    if header.get("optimizer") is not None:
        opt = header["optimizer"]
        optimizer = OptimizerSnapshot(
            adamw=AdamWConfig(**opt["adamw"]),
            state=AdamWState(
                step=opt["step"],
                m={name: arrays[f"m/{name}"] for name in PARAM_FIELDS},
                v={name: arrays[f"v/{name}"] for name in PARAM_FIELDS},
            ),
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
