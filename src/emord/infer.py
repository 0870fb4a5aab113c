"""Turning trained-model outputs into label predictions.

Softmax decodes by argmax.  An ordinal head decodes by nearest codeword,
one per axis, to a coordinate: a rank (1d) or a (valence, arousal) cell
(2d).  A decoded cell that no label occupies is resolved to the nearest
labeled cell (L1, ties toward lower valence then lower arousal) and
flagged `off_grid`; the raw decoded cell is kept, since its distance to
the gold cell is exactly what the proximity metrics measure.  A block of
outputs decodes into one `Decoded` record of arrays by lookups in the
taxonomy's tables, and `decoded[i]` is row i as a `Prediction`.  The
record holds label indices: `evaluate` scores them as they are, and a
name is looked up only for a `Prediction`.

`predict_ids` runs the model on chunks of rows; validation and `evaluate`
run through it, and `forward` cuts each chunk's trailing padding and, with
`cache=False`, keeps no activations for a backward pass.  The
one-text path (`predict_text` -> `predict_ids` -> `forward` ->
`decode_outputs`, once per text) is dominated by per-call overhead, so
each step does one call where it can.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .checkpoint import Checkpoint
from .codec import MODE_SOFTMAX, CodecError, decode_thermometer_batch, target_width
from .data import DataError, encode_text
from .net import fields_equal, forward
from .taxonomy import EmotionTaxonomy


@dataclass(frozen=True)
class Prediction:
    """One decoded model output.

    `cell` is the raw decoded grid cell in 2d mode (which may be unlabeled
    when `off_grid` is set); `label` is always a taxonomy label.
    """

    label: str
    mode: str
    rank: int | None = None
    cell: tuple[int, int] | None = None
    off_grid: bool = False
    # the raw head outputs; left out of ==, hash and `in`, which an array breaks
    outputs: np.ndarray | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        out: dict = {"label": self.label, "mode": self.mode, "off_grid": self.off_grid}
        if self.rank is not None:
            out["rank"] = self.rank
        if self.cell is not None:
            out["cell"] = list(self.cell)
        if self.outputs is not None:
            out["outputs"] = self.outputs.tolist()  # Python floats, as float(x) gives
        return out


@dataclass(frozen=True, eq=False)
class Decoded(Sequence):
    """Decoded rows as arrays; `coords`, the raw decoded coordinates, is None for softmax.

    `decoded[i]` is row i as a Prediction; `decoded[a:b]` is a Decoded of
    those rows, every array column sliced alike.
    """

    taxonomy: EmotionTaxonomy
    mode: str
    indices: np.ndarray  # (N,) into taxonomy.labels
    off_grid: np.ndarray  # (N,) bool
    outputs: np.ndarray  # (N, width)
    coords: np.ndarray | None = None  # (N, D)

    __eq__ = fields_equal

    def __len__(self) -> int:
        return len(self.indices)

    def _columns(self) -> dict[str, np.ndarray]:
        """The per-row arrays by field name; `coords` is left out when None."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if isinstance(getattr(self, f.name), np.ndarray)
        }

    def __getitem__(self, i: int | slice) -> Prediction | Decoded:
        if isinstance(i, slice):
            return replace(self, **{name: rows[i] for name, rows in self._columns().items()})
        index = self.indices[i]
        if self.coords is None:
            point = self.taxonomy.points[index]
        else:  # the raw decoded point, which in 2d may be an unlabeled cell
            point = tuple(self.coords[i].tolist())
        rank, cell = (point[0], None) if len(point) == 1 else (None, point)
        label = self.taxonomy.labels[index]
        return Prediction(label, self.mode, rank, cell, bool(self.off_grid[i]), self.outputs[i])


def decode_outputs(taxonomy: EmotionTaxonomy, mode: str, outputs: np.ndarray) -> Decoded:
    """Decode a (N, width) block of head outputs.

    An ordinal head's D codewords decode in one call, as the rows of the
    (N*D, width/D) view: decoding works row by row, so each axis gets the
    level it would get on its own.
    """
    outputs = np.asarray(outputs)
    width = target_width(mode, taxonomy)
    if outputs.ndim != 2 or outputs.shape[1] != width:
        raise CodecError(f"{mode} outputs must be (N, {width}), got shape {outputs.shape}")
    if mode == MODE_SOFTMAX:
        indices = np.argmax(outputs, axis=1)
        return Decoded(taxonomy, mode, indices, np.zeros(len(indices), dtype=bool), outputs)
    d, levels = taxonomy.coords.shape[1], taxonomy.levels
    coords = decode_thermometer_batch(outputs.reshape(-1, levels - 1)).reshape(-1, d)
    # each row's row-major position in the flat tables (Horner's rule), which
    # is cheaper than indexing them with a tuple of D arrays
    flat = coords[:, 0]
    for axis in range(1, d):
        flat = flat * levels + coords[:, axis]
    return Decoded(taxonomy, mode, taxonomy.label_at[flat], ~taxonomy.occupied[flat], outputs, coords)


def predict_ids(ck: Checkpoint, token_ids: np.ndarray, batch_size: int = 256) -> Decoded:
    """Predictions for a (N, T) id matrix, running the model in chunks."""
    mode = ck.config.head_mode
    parts = []
    for start in range(0, len(token_ids), batch_size):
        chunk = token_ids[start : start + batch_size]
        outputs, _ = forward(ck.params, ck.config, chunk, cache=False)
        parts.append(decode_outputs(ck.taxonomy, mode, outputs))
    if not parts:
        return decode_outputs(ck.taxonomy, mode, np.zeros((0, ck.config.output_width)))
    if len(parts) == 1:
        return parts[0]
    columns = [p._columns() for p in parts]
    return replace(
        parts[0], **{name: np.concatenate([c[name] for c in columns]) for name in columns[0]}
    )


def predict_text(ck: Checkpoint, text: str) -> Prediction:
    """Predict one raw text with a trained checkpoint."""
    row = encode_text(text, ck.vocab, ck.recipe.max_seq_length)
    if row[0] == 0:
        raise DataError(f"no tokens survive normalization: {text!r}")
    return predict_ids(ck, row[None, :])[0]
