"""Turning trained-model outputs into label predictions.

Softmax decodes by argmax.  The ordinal heads decode by nearest codeword,
which yields a rank (1d) or a (valence, arousal) cell (2d).  A decoded 2d
cell that no label occupies is resolved to the nearest labeled cell (L1,
ties toward lower valence then lower arousal) and flagged `off_grid`; the
raw decoded cell is kept, since its distance to the gold cell is exactly
what the proximity metrics measure.  A block of outputs decodes into one
`Decoded` record of arrays by lookups in the taxonomy's tables, and
`decoded[i]` is row i as a `Prediction`.  Both ordinal-2d heads decode in
one nearest-codeword call.

`predict_ids` runs the model on chunks of rows; validation and `evaluate`
run through it, and `forward` cuts each chunk's trailing padding.  The
one-text path (`predict_text` -> `predict_ids` -> `forward` ->
`decode_outputs`, once per text) is dominated by per-call overhead, so
each step does one call where it can.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .checkpoint import Checkpoint
from .codec import MODE_ORDINAL_1D, MODE_ORDINAL_2D, CodecError, decode_thermometer_batch
from .data import DataError, encode_text
from .net import forward
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


@dataclass(frozen=True)
class Decoded(Sequence):
    """Decoded rows as arrays; the raw cells (`valences`, `arousals`) are ordinal-2d only."""

    taxonomy: EmotionTaxonomy
    mode: str
    indices: np.ndarray  # (N,) into taxonomy.labels
    off_grid: np.ndarray  # (N,) bool
    outputs: np.ndarray  # (N, width)
    valences: np.ndarray | None = None
    arousals: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i: int) -> Prediction:
        label = self.taxonomy.labels[self.indices[i]]
        if self.valences is None:
            # a 1d taxonomy has no cells and a 2d one no ranks, so .get() yields None
            cell = self.taxonomy.cells.get(label)
        else:
            cell = (int(self.valences[i]), int(self.arousals[i]))
        rank = self.taxonomy.ranks.get(label)
        return Prediction(label, self.mode, rank, cell, bool(self.off_grid[i]), self.outputs[i])


def decode_outputs(taxonomy: EmotionTaxonomy, mode: str, outputs: np.ndarray) -> Decoded:
    """Decode a (N, width) block of head outputs.

    The two ordinal-2d heads decode in one call, as the rows of the
    (2N, width/2) view: decoding works row by row, so each half gets the
    level it would get on its own.
    """
    outputs = np.asarray(outputs)
    if mode == MODE_ORDINAL_2D:
        if outputs.ndim != 2 or outputs.shape[1] < 2 or outputs.shape[1] % 2:
            raise CodecError(
                f"ordinal-2d outputs must be (N, 2L) with L >= 1, got shape {outputs.shape}"
            )
        levels = decode_thermometer_batch(outputs.reshape(-1, outputs.shape[1] // 2))
        v, a = levels[0::2], levels[1::2]
        off_grid = ~taxonomy.cell_occupied[v, a]
        return Decoded(taxonomy, mode, taxonomy.cell_labels[v, a], off_grid, outputs, v, a)
    if mode == MODE_ORDINAL_1D:
        indices = taxonomy.rank_labels[decode_thermometer_batch(outputs)]
    else:
        indices = np.argmax(outputs, axis=1)
    return Decoded(taxonomy, mode, indices, np.zeros(len(indices), dtype=bool), outputs)


def predict_ids(ck: Checkpoint, token_ids: np.ndarray, batch_size: int = 256) -> Decoded:
    """Predictions for a (N, T) id matrix, running the model in chunks."""
    mode = ck.config.head_mode
    parts = []
    for start in range(0, len(token_ids), batch_size):
        outputs, _ = forward(ck.params, ck.config, token_ids[start : start + batch_size])
        parts.append(decode_outputs(ck.taxonomy, mode, outputs))
    if not parts:
        return decode_outputs(ck.taxonomy, mode, np.zeros((0, ck.config.output_width)))
    if len(parts) == 1:
        return parts[0]
    columns = {
        f.name: np.concatenate([getattr(p, f.name) for p in parts])
        for f in fields(Decoded)
        if isinstance(getattr(parts[0], f.name), np.ndarray)
    }
    return replace(parts[0], **columns)


def predict_text(ck: Checkpoint, text: str) -> Prediction:
    """Predict one raw text with a trained checkpoint."""
    row = encode_text(text, ck.vocab, ck.max_seq_length)
    if row[0] == 0:
        raise DataError(f"no tokens survive normalization: {text!r}")
    return predict_ids(ck, row[None, :])[0]
