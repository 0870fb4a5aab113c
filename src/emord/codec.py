"""Training-target codecs: one-hot vectors and thermometer ordinal codes.

Level k among N levels is encoded as a length N-1 binary vector whose first k
entries are 1, the cumulative target encoding of ordinal regression.  Squared
Euclidean distance between two such codewords equals the level gap |i-j|
exactly, so a squared-error loss on these targets charges a misclassification
in proportion to how far up or down the scale it lands.  `codewords` is the
one codeword table: built once per level count, cached and read-only.  Each
taxonomy gathers its labels' codes from it once (`EmotionTaxonomy.codes`), and
`decode_thermometer_batch` decodes against it.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .taxonomy import EmotionTaxonomy

MODE_SOFTMAX = "softmax"
MODE_ORDINAL_1D = "ordinal-1d"
MODE_ORDINAL_2D = "ordinal-2d"
HEAD_MODES = (MODE_SOFTMAX, MODE_ORDINAL_1D, MODE_ORDINAL_2D)


class CodecError(ValueError):
    """Invalid encode/decode arguments."""


@functools.lru_cache(maxsize=64)
def codewords(levels: int) -> np.ndarray:
    """All valid codewords as a float64 (levels, levels-1) matrix, row k = level k.

    Built once per level count and shared by every caller, so it is
    read-only: `.copy()` it to write.
    """
    if levels < 2:
        raise CodecError(f"need at least 2 levels, got {levels}")
    codes = np.tri(levels, levels - 1, k=-1)  # ones where column < row
    codes.setflags(write=False)
    return codes


def decode_thermometer_batch(values: np.ndarray) -> np.ndarray:
    """Nearest-codeword decode of each row of an (N, L) array to a level in [0, L].

    Picks the level whose codeword minimizes squared distance to the row;
    exact ties resolve to the smaller level.  Defined for any finite rows,
    so non-monotone model outputs decode deterministically.  Decode one
    vector as `decode_thermometer_batch(values[None])[0]`.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] < 1:
        raise CodecError(f"expected (N, L>=1) array, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise CodecError("non-finite entries in code vector")
    codes = codewords(values.shape[1] + 1)
    dists = np.square(values[:, None, :] - codes).sum(axis=2)
    return dists.argmin(axis=1)  # first minimum wins: low-level tie-break


def check_mode_compatible(mode: str, taxonomy: EmotionTaxonomy) -> None:
    """Reject head modes that cannot be trained against the taxonomy."""
    if mode not in HEAD_MODES:
        raise CodecError(f"unknown head mode {mode!r}; choose from {HEAD_MODES}")
    if mode == MODE_ORDINAL_1D and taxonomy.mode != "1d":
        raise CodecError("ordinal-1d head requires a 1d taxonomy")
    if mode == MODE_ORDINAL_2D and taxonomy.mode != "2d":
        raise CodecError("ordinal-2d head requires a 2d taxonomy")


def target_for(
    taxonomy: EmotionTaxonomy, label: str, mode: str, dtype=np.float64
) -> np.ndarray:
    """Training target for `label`: the vector the matching head is trained against.

    A fresh length-K one-hot (softmax), or a fresh copy of the label's row of
    `taxonomy.codes`: the codewords of its coordinates concatenated, its
    rank's (ordinal-1d) or its valence's then its arousal's (ordinal-2d),
    matching the model's head output layout.  Either is in `dtype`.
    """
    check_mode_compatible(mode, taxonomy)
    i = taxonomy.index(label)
    if mode == MODE_SOFTMAX:
        target = np.zeros(taxonomy.num_labels, dtype=dtype)
        target[i] = 1
        return target
    return taxonomy.codes[i].astype(dtype)


def target_width(mode: str, taxonomy: EmotionTaxonomy) -> int:
    """Length of the target vector (= model head output width) for a mode."""
    check_mode_compatible(mode, taxonomy)
    if mode == MODE_SOFTMAX:
        return taxonomy.num_labels
    return taxonomy.codes.shape[1]
