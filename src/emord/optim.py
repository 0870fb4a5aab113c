"""AdamW with decoupled weight decay, operating on ModelParams in place.

Decay is applied directly to the parameter (not folded into the gradient),
so moment estimates track the loss gradient alone.  A non-finite gradient
entry aborts the step before touching any parameter, which is how training
divergence surfaces as a hard error instead of silent NaN spread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .net import ModelParams


class OptimizerError(RuntimeError):
    """Raised when a step cannot be applied (non-finite gradients)."""


@dataclass(frozen=True)
class AdamWConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


@dataclass
class AdamWState:
    """First/second moment estimates per parameter plus the step counter."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def initial(cls, params: ModelParams) -> "AdamWState":
        return cls(
            step=0,
            m={name: np.zeros_like(arr) for name, arr in params.named()},
            v={name: np.zeros_like(arr) for name, arr in params.named()},
        )


def adamw_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamWState,
    config: AdamWConfig,
) -> None:
    """Apply one update in place to `params` and `state`.

    update = lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * param)
    """
    for name, grad in grads.named():
        if not np.all(np.isfinite(grad)):
            raise OptimizerError(f"non-finite gradient in {name}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - config.beta1**t
    bc2 = 1.0 - config.beta2**t
    for name, param in params.named():
        grad = getattr(grads, name)
        m = state.m[name]
        v = state.v[name]
        # the rule above, one ufunc at a time into two scratch buffers; each
        # step rounds exactly as the whole expression would
        s1 = np.empty_like(param)
        s2 = np.empty_like(param)
        m *= config.beta1
        m += np.multiply(grad, 1.0 - config.beta1, out=s1)
        v *= config.beta2
        v += np.multiply(np.square(grad, out=s1), 1.0 - config.beta2, out=s1)
        denom = np.sqrt(np.divide(v, bc2, out=s1), out=s1)  # sqrt(v_hat)
        denom += config.eps
        update = np.divide(np.divide(m, bc1, out=s2), denom, out=s2)  # m_hat / denom
        update += np.multiply(param, config.weight_decay, out=s1)
        param -= np.multiply(update, config.learning_rate, out=update)
