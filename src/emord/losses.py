"""Loss values and their derivatives with respect to the pre-head logits.

Softmax uses mean cross-entropy.  The ordinal heads use mean squared error
against thermometer codewords; because squared distance between codewords
equals rank distance, MSE charges a rank-5 mistake five times a rank-1
mistake, which is the whole point of the ordinal heads.

The derivative is fused through the head activation (softmax or per-entry
logistic), so net.backward() only ever sees d(loss)/d(logits).
"""

from __future__ import annotations

import numpy as np

from .codec import MODE_SOFTMAX, MODE_ORDINAL_1D, MODE_ORDINAL_2D, HEAD_MODES

_LOG_FLOOR = 1e-12  # guards log() only; never active at sane probabilities


class LossError(ValueError):
    """Mismatched shapes or unknown mode passed to a loss routine."""


def _check(outputs: np.ndarray, targets: np.ndarray, mode: str) -> None:
    if mode not in HEAD_MODES:
        raise LossError(f"unknown head mode {mode!r}")
    if outputs.ndim != 2 or targets.shape != outputs.shape:
        raise LossError(
            f"outputs {outputs.shape} and targets {targets.shape} must be matching (B, L)"
        )
    if mode == MODE_ORDINAL_2D and outputs.shape[1] % 2 != 0:
        raise LossError("ordinal-2d rows must split into two equal halves")


def loss_value(
    outputs: np.ndarray,
    targets: np.ndarray,
    mode: str,
    loss_weights: tuple[float, float] = (1.0, 1.0),
) -> float:
    """Scalar loss for a batch of post-activation head outputs.

    softmax: mean over the batch of -log(probability of the target class).
    ordinal-1d: MSE over all B*L entries.
    ordinal-2d: weighted sum of the two heads' MSEs (valence, arousal).
    """
    _check(outputs, targets, mode)
    out64 = outputs.astype(np.float64)
    tgt64 = targets.astype(np.float64)
    if mode == MODE_SOFTMAX:
        p_true = (out64 * tgt64).sum(axis=1)
        return float(-np.log(np.maximum(p_true, _LOG_FLOOR)).mean())
    if mode == MODE_ORDINAL_1D:
        return float(np.mean((out64 - tgt64) ** 2))
    half = outputs.shape[1] // 2
    wv, wa = loss_weights
    mse_v = np.mean((out64[:, :half] - tgt64[:, :half]) ** 2)
    mse_a = np.mean((out64[:, half:] - tgt64[:, half:]) ** 2)
    return float(wv * mse_v + wa * mse_a)


def logit_gradient(
    outputs: np.ndarray,
    targets: np.ndarray,
    mode: str,
    loss_weights: tuple[float, float] = (1.0, 1.0),
) -> np.ndarray:
    """d(loss)/d(logits), fused through the head activation.

    For the logistic heads the chain rule contributes s*(1-s), computable
    from the cached outputs alone.
    """
    _check(outputs, targets, mode)
    batch, width = outputs.shape
    if mode == MODE_SOFTMAX:
        grad = (outputs - targets) / batch
    elif mode == MODE_ORDINAL_1D:
        grad = 2.0 * (outputs - targets) * outputs * (1.0 - outputs) / (batch * width)
    else:
        half = width // 2
        grad = 2.0 * (outputs - targets) * outputs * (1.0 - outputs)
        grad[:, :half] *= loss_weights[0] / (batch * half)
        grad[:, half:] *= loss_weights[1] / (batch * half)
    return grad.astype(outputs.dtype, copy=False)
