"""Training-target codecs: one-hot vectors and thermometer ordinal codes.

Level k among N levels is encoded as a length N-1 binary vector whose first k
entries are 1.  Squared Euclidean distance between two such codewords equals
the level gap |i-j| exactly, so a squared-error loss on these targets charges
a misclassification in proportion to how far up or down the scale it lands.
All functions here are pure.
"""

from __future__ import annotations

import functools

import numpy as np

from .taxonomy import EmotionTaxonomy, max_distance

MODE_SOFTMAX = "softmax"
MODE_ORDINAL_1D = "ordinal-1d"
MODE_ORDINAL_2D = "ordinal-2d"
HEAD_MODES = (MODE_SOFTMAX, MODE_ORDINAL_1D, MODE_ORDINAL_2D)


class CodecError(ValueError):
    """Invalid encode/decode arguments."""


def encode_thermometer(k: int, levels: int) -> np.ndarray:
    """float64 codeword for level k among `levels` levels: k ones then zeros, length levels-1."""
    codes = codewords(levels)
    if not 0 <= k < levels:
        raise CodecError(f"level {k} outside [0, {levels - 1}]")
    return codes[k].copy()


def codewords(levels: int) -> np.ndarray:
    """All valid codewords as a float64 (levels, levels-1) matrix, row k = level k."""
    if levels < 2:
        raise CodecError(f"need at least 2 levels, got {levels}")
    return np.tri(levels, levels - 1, k=-1)  # ones where column < row


@functools.lru_cache(maxsize=64)
def _codeword_table(levels: int) -> np.ndarray:
    """Read-only float64 codewords(levels), built once per level count."""
    codes = codewords(levels)
    codes.setflags(write=False)
    return codes


def decode_thermometer(values: np.ndarray) -> int:
    """Nearest-codeword decode of a single length-L vector to a level in [0, L].

    Picks the level whose codeword minimizes squared distance to `values`;
    exact ties resolve to the smaller level.  Defined for any finite vector,
    so non-monotone model outputs decode deterministically.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise CodecError(f"expected a vector, got shape {values.shape}")
    return int(decode_thermometer_batch(values[None, :])[0])


def decode_thermometer_batch(values: np.ndarray) -> np.ndarray:
    """Vectorized decode_thermometer over rows of an (N, L) array."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] < 1:
        raise CodecError(f"expected (N, L>=1) array, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise CodecError("non-finite entries in code vector")
    codes = _codeword_table(values.shape[1] + 1)
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


@functools.lru_cache(maxsize=64)
def _onehot_table(num_classes: int) -> np.ndarray:
    """Read-only float64 one-hot rows, row k = class k, built once per class count."""
    table = np.eye(num_classes)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=1024)
def _ordinal_code(levels: int, point: tuple[int, ...]) -> np.ndarray:
    """Read-only float64 codewords of each coordinate of `point`, concatenated."""
    code = _codeword_table(levels)[list(point)].reshape(-1)
    code.setflags(write=False)
    return code


def target_for(
    taxonomy: EmotionTaxonomy, label: str, mode: str, dtype=np.float64
) -> np.ndarray:
    """Training target for `label`: the vector the matching head is trained against.

    A length-K one-hot (softmax), or the codewords of the label's coordinates
    concatenated: its rank's (ordinal-1d), its valence's then its arousal's
    (ordinal-2d), matching the model's head output layout.  It is a fresh
    copy, in `dtype`, of a cached read-only row.
    """
    check_mode_compatible(mode, taxonomy)
    i = taxonomy.index(label)
    if mode == MODE_SOFTMAX:
        row = _onehot_table(taxonomy.num_labels)[i]
    else:
        row = _ordinal_code(taxonomy.levels, taxonomy.points[i])
    return row.astype(dtype)


def target_width(mode: str, taxonomy: EmotionTaxonomy) -> int:
    """Length of the target vector (= model head output width) for a mode."""
    check_mode_compatible(mode, taxonomy)
    if mode == MODE_SOFTMAX:
        return taxonomy.num_labels
    # a codeword entry per unit of distance: squared gaps are level gaps
    return max_distance(taxonomy)
