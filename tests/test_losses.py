"""Loss values and fused head+loss gradients, checked against finite differences."""

import numpy as np
import pytest

from emord.codec import codewords
from emord.losses import LossError, logit_gradient, loss_value


def fd_gradient(fn, logits, step=1e-6):
    grad = np.zeros_like(logits, dtype=np.float64)
    flat = grad.reshape(-1)
    work = logits.astype(np.float64).copy()
    for i in range(work.size):
        orig = work.reshape(-1)[i]
        work.reshape(-1)[i] = orig + step
        hi = fn(work)
        work.reshape(-1)[i] = orig - step
        lo = fn(work)
        work.reshape(-1)[i] = orig
        flat[i] = (hi - lo) / (2 * step)
    return grad


def softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def test_uniform_softmax_loss_is_log_k():
    k = 7
    outputs = np.full((3, k), 1.0 / k)
    targets = np.eye(k)[[0, 3, 6]]
    assert loss_value(outputs, targets, "softmax") == pytest.approx(np.log(k), rel=1e-12)


def test_perfect_softmax_loss_is_zero():
    targets = np.eye(4)[[1, 2]]
    assert loss_value(targets.astype(np.float64), targets, "softmax") == pytest.approx(
        0.0, abs=1e-9
    )


def test_thermometer_mse_counts_rank_gap():
    # predicting codeword j when the target is codeword i costs |i - j| / (K - 1)
    k = 6
    for i in range(k):
        for j in range(k):
            out = codewords(k)[j][None, :]
            tgt = codewords(k)[i][None, :]
            expected = abs(i - j) / (k - 1)
            assert loss_value(out, tgt, "ordinal-1d") == pytest.approx(expected, rel=1e-12)


def test_ordinal_2d_loss_weights():
    g = 5
    val_out = codewords(g)[0]
    aro_out = codewords(g)[0]
    out = np.concatenate([val_out, aro_out])[None, :]
    val_tgt = codewords(g)[2]  # distance 2 on valence half
    aro_tgt = codewords(g)[1]  # distance 1 on arousal half
    tgt = np.concatenate([val_tgt, aro_tgt])[None, :]
    base = loss_value(out, tgt, "ordinal-2d", loss_weights=(1.0, 1.0))
    assert base == pytest.approx(2.0 / 4 + 1.0 / 4, rel=1e-12)
    tilted = loss_value(out, tgt, "ordinal-2d", loss_weights=(2.0, 0.5))
    assert tilted == pytest.approx(2.0 * 2.0 / 4 + 0.5 * 1.0 / 4, rel=1e-12)


def test_loss_input_guards():
    out = np.zeros((2, 4))
    with pytest.raises(LossError):
        loss_value(out, np.zeros((3, 4)), "softmax")
    with pytest.raises(LossError):
        loss_value(out, np.zeros((2, 4)), "valence")
    with pytest.raises(LossError):
        loss_value(np.zeros((2, 5)), np.zeros((2, 5)), "ordinal-2d")  # odd width


@pytest.mark.parametrize("mode", ["softmax", "ordinal-1d", "ordinal-2d"])
def test_logit_gradient_matches_finite_differences(mode):
    rng = np.random.default_rng(9)
    width = 6
    batch = 4
    logits = rng.normal(size=(batch, width))
    if mode == "softmax":
        targets = np.eye(width)[np.arange(batch) % width]
    elif mode == "ordinal-1d":
        targets = np.stack([codewords(width + 1)[i % (width + 1)] for i in range(batch)])
    else:
        half = width // 2
        targets = np.stack(
            [
                np.concatenate(
                    [
                        codewords(half + 1)[i % (half + 1)],
                        codewords(half + 1)[(i + 1) % (half + 1)],
                    ]
                )
                for i in range(batch)
            ]
        )
    weights = (1.3, 0.7)

    def total_loss(z):
        out = softmax(z) if mode == "softmax" else sigmoid(z)
        return loss_value(out, targets, mode, loss_weights=weights)

    outputs = softmax(logits) if mode == "softmax" else sigmoid(logits)
    analytic = logit_gradient(outputs, targets, mode, loss_weights=weights)
    numeric = fd_gradient(total_loss, logits)
    assert np.allclose(analytic, numeric, atol=1e-8)


def test_softmax_gradient_closed_form():
    p = np.array([[0.2, 0.5, 0.3]])
    y = np.array([[0.0, 1.0, 0.0]])
    grad = logit_gradient(p, y, "softmax")
    assert np.allclose(grad, (p - y) / 1)
