"""Central finite-difference verification of the analytic gradients.

Runs a tiny float64 model (every width <= 8, batch 3, sequence 12) so the
full parameter set can be perturbed one entry at a time in well under a
second per mode.  The comparison is a symmetric relative error with an
absolute floor, so entries whose true gradient is zero (e.g. the padding
embedding row) compare cleanly.

`corrupt=True` deliberately damages one analytic gradient entry before the
comparison; it must make the check fail, which guards the checker itself
against ever passing vacuously.  For the same reason a tolerance outside
(0, 1) is a `GradCheckError`: the relative error is at most 1, so at a
tolerance of 1 or more no gradient can fail.  So is a negative seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import MODE_ORDINAL_2D, MODE_SOFTMAX, target_for
from .losses import logit_gradient, loss_value
from .net import ModelConfig, ModelParams, backward, forward, init_params
from .recipe import TrainConfig
from .taxonomy import EmotionTaxonomy, parse_taxonomy

_DATA_STREAM = 202  # seed-stream tag for the probe batch

DEFAULT_TOLERANCE = 1e-4
#: The finite-difference step, printed in every report.
STEP = 1e-5

#: Real-token counts of the three probe rows; the short rows exercise the
#: padding mask and the truncated mean-pool denominator.
_ROW_LENGTHS = (12, 10, 2)
_SEQ_LEN = 12


def tiny_taxonomy(head_mode: str) -> EmotionTaxonomy:
    """Small fixed taxonomy matching a head mode (5 labels; grid 4x4 for 2d)."""
    if head_mode == MODE_ORDINAL_2D:
        return parse_taxonomy(
            {
                "mode": "2d",
                "grid_size": 4,
                "labels": [
                    {"name": "gloom", "valence": 0, "arousal": 0},
                    {"name": "alarm", "valence": 0, "arousal": 2},
                    {"name": "calm", "valence": 2, "arousal": 1},
                    {"name": "spark", "valence": 1, "arousal": 3},
                    {"name": "glee", "valence": 3, "arousal": 3},
                ],
            }
        )
    return parse_taxonomy(
        {
            "mode": "1d",
            "labels": [{"name": f"level{k}", "rank": k} for k in range(5)],
        }
    )


def tiny_config(head_mode: str, taxonomy: EmotionTaxonomy | None = None) -> ModelConfig:
    """float64 probe model: production kernel sizes, toy widths."""
    recipe = TrainConfig(mode=head_mode, embed_dim=5, conv_channels=(6, 7), ffnn_hidden=(8, 6))
    return recipe.model_config(13, taxonomy or tiny_taxonomy(head_mode), "float64")


class GradCheckError(ValueError):
    """A gradient check that could not fail, or could not run."""


@dataclass(frozen=True)
class LayerCheck:
    name: str
    max_rel_error: float


@dataclass(frozen=True)
class GradCheckReport:
    mode: str
    seed: int
    tolerance: float
    corrupted: bool
    layers: tuple[LayerCheck, ...]

    @property
    def worst(self) -> float:
        return max(layer.max_rel_error for layer in self.layers)

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def format_text(self) -> str:
        head = (
            f"gradient check: mode={self.mode} seed={self.seed}"
            f" step={STEP:g} tolerance={self.tolerance:g}"
        )
        if self.corrupted:
            head += " (corrupted fixture)"
        lines = [head]
        for layer in self.layers:
            lines.append(f"  {layer.name:<12} max_rel_err {layer.max_rel_error:.3e}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"  result: {verdict} (worst {self.worst:.3e})")
        return "\n".join(lines)


def _probe_batch(rng: np.random.Generator, taxonomy: EmotionTaxonomy, vocab_size: int):
    ids = np.zeros((len(_ROW_LENGTHS), _SEQ_LEN), dtype=np.int64)
    for row, n_real in enumerate(_ROW_LENGTHS):
        ids[row, :n_real] = rng.integers(1, vocab_size, size=n_real)
    labels = [taxonomy.labels[i] for i in rng.integers(0, taxonomy.num_labels, size=ids.shape[0])]
    return ids, labels


def check_gradients(
    mode: str = MODE_SOFTMAX,
    seed: int = 0,
    corrupt: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GradCheckReport:
    """Compare analytic and central finite-difference gradients layer by layer.

    Each entry moves by STEP, with the loss at its default weights.
    Reported per parameter array: max over entries of
    |analytic - numeric| / max(1e-6, |analytic| + |numeric|).
    """
    if not 0 < tolerance < 1:  # nan and inf included
        raise GradCheckError(f"tolerance must be in (0, 1), got {tolerance!r}")
    if seed < 0:
        raise GradCheckError(f"seed must be non-negative, got {seed!r}")
    taxonomy = tiny_taxonomy(mode)
    config = tiny_config(mode, taxonomy)
    rng = np.random.default_rng([seed, _DATA_STREAM])
    token_ids, labels = _probe_batch(rng, taxonomy, config.vocab_size)
    targets = np.stack([target_for(taxonomy, lab, mode) for lab in labels])

    params = init_params(config, seed)
    # Freshly initialized biases are zero, which parks the conv windows that
    # cover only padding exactly on the ReLU kink: z = conv(zeros) + b = 0,
    # where finite differences see a one-sided slope the analytic subgradient
    # (zero) cannot match.  The comparison is only meaningful at a
    # differentiable point, so nudge every bias to a magnitude safely above
    # the probe step before checking.
    for name, arr in params.named():
        if name.endswith("_b"):
            signs = rng.integers(0, 2, size=arr.shape) * 2 - 1
            arr += signs * rng.uniform(0.02, 0.1, size=arr.shape)
    outputs, cache = forward(params, config, token_ids)
    analytic = backward(params, config, cache, logit_gradient(outputs, targets, mode))
    if corrupt:
        analytic.conv2_w.flat[0] += 1e-2

    def loss_at() -> float:
        out, _ = forward(params, config, token_ids, cache=False)
        return loss_value(out, targets, mode)

    layers = []
    for name, arr in params.named():
        grad = getattr(analytic, name)
        numeric = np.zeros_like(arr)
        flat = arr.reshape(-1)
        numeric_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            loss_plus = loss_at()
            flat[i] = orig - STEP
            loss_minus = loss_at()
            flat[i] = orig
            numeric_flat[i] = (loss_plus - loss_minus) / (2.0 * STEP)
        rel = np.abs(grad - numeric) / np.maximum(1e-6, np.abs(grad) + np.abs(numeric))
        layers.append(LayerCheck(name=name, max_rel_error=float(rel.max())))
    return GradCheckReport(
        mode=mode,
        seed=seed,
        tolerance=tolerance,
        corrupted=corrupt,
        layers=tuple(layers),
    )
