"""Turning trained-model outputs into label predictions.

Softmax decodes by argmax.  The ordinal heads decode by nearest codeword,
which yields a rank (1d) or a (valence, arousal) cell (2d).  A decoded 2d
cell that no label occupies is resolved to the nearest labeled cell (L1,
ties toward lower valence then lower arousal) and flagged `off_grid`; the
prediction keeps the raw decoded cell, since its distance to the gold cell
is exactly what the proximity metrics measure.

Labels, ranks, cells and the off-grid flag are lookups in the taxonomy's
tables (`rank_labels`, `cell_labels`, `cell_occupied`), whose off-grid
resolution is built in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .codec import MODE_ORDINAL_1D, MODE_ORDINAL_2D, decode_thermometer_batch
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
    outputs: np.ndarray | None = None

    def to_dict(self) -> dict:
        out: dict = {"label": self.label, "mode": self.mode, "off_grid": self.off_grid}
        if self.rank is not None:
            out["rank"] = self.rank
        if self.cell is not None:
            out["cell"] = list(self.cell)
        if self.outputs is not None:
            out["outputs"] = [float(x) for x in self.outputs]
        return out


def decode_outputs(taxonomy: EmotionTaxonomy, mode: str, outputs: np.ndarray) -> list[Prediction]:
    """Decode a (N, width) block of head outputs into predictions."""
    outputs = np.asarray(outputs)
    cells = None
    if mode == MODE_ORDINAL_2D:
        half = outputs.shape[1] // 2
        valences = decode_thermometer_batch(outputs[:, :half])
        arousals = decode_thermometer_batch(outputs[:, half:])
        indices = taxonomy.cell_labels[valences, arousals]
        cells = list(zip(valences.tolist(), arousals.tolist()))
        off_grid = (~taxonomy.cell_occupied[valences, arousals]).tolist()
    elif mode == MODE_ORDINAL_1D:
        indices = taxonomy.rank_labels[decode_thermometer_batch(outputs)]
    else:
        indices = np.argmax(outputs, axis=1)
    labels = [taxonomy.labels[i] for i in indices.tolist()]
    if cells is None:
        # a 1d taxonomy has no cells and a 2d one no ranks, so .get() yields None
        cells = [taxonomy.cells.get(label) for label in labels]
        off_grid = [False] * len(labels)
    return [
        Prediction(
            label=label,
            mode=mode,
            rank=taxonomy.ranks.get(label),
            cell=cell,
            off_grid=off,
            outputs=row,
        )
        for label, cell, off, row in zip(labels, cells, off_grid, outputs)
    ]


def predict_ids(ck: Checkpoint, token_ids: np.ndarray, batch_size: int = 256) -> list[Prediction]:
    """Predictions for a (N, T) id matrix, running the model in chunks."""
    preds: list[Prediction] = []
    for start in range(0, token_ids.shape[0], batch_size):
        outputs, _ = forward(ck.params, ck.config, token_ids[start : start + batch_size])
        preds.extend(decode_outputs(ck.taxonomy, ck.config.head_mode, outputs))
    return preds


def predict_text(ck: Checkpoint, text: str) -> Prediction:
    """Predict one raw text with a trained checkpoint."""
    row = encode_text(text, ck.vocab, ck.max_seq_length)
    if row[0] == 0:
        raise DataError(f"no tokens survive normalization: {text!r}")
    return predict_ids(ck, row[None, :])[0]
