"""AdamW with decoupled weight decay, operating on ModelParams arenas in place.

Decay is applied directly to the parameter (not folded into the gradient),
so moment estimates track the loss gradient alone.  A non-finite gradient
entry aborts the step before touching any parameter, which is how training
divergence surfaces as a hard error instead of silent NaN spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps!r}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay!r}")


@dataclass
class AdamWState:
    """First/second moment estimates plus the step counter.

    `m` and `v` are laid out as the parameters, each in its own arena.
    """

    step: int
    m: ModelParams
    v: ModelParams

    @classmethod
    def initial(cls, params: ModelParams) -> "AdamWState":
        # np.zeros maps its pages lazily; the first step touches them
        def zeros():
            return params.like(np.zeros(params.arena.shape, dtype=params.arena.dtype))

        return cls(step=0, m=zeros(), v=zeros())

    def copy(self) -> "AdamWState":
        return AdamWState(step=self.step, m=self.m.copy(), v=self.v.copy())


#: Elements per block of the AdamW pass.  The six block-sized streams
#: (param, grad, m, v and two scratch buffers) stay in a core's L2 cache,
#: where arena-wide ufuncs at paper widths would each stream about 90 MB
#: through memory and fault in fresh scratch pages every step.  A desk-width
#: arena is one block.
_BLOCK = 1 << 15


def adamw_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamWState,
    config: AdamWConfig,
) -> None:
    """Apply one update in place to `params` and `state`.

    update = lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * param)
    """
    blocks = [slice(start, start + _BLOCK) for start in range(0, params.arena.size, _BLOCK)]
    if not all(np.isfinite(grads.arena[block]).all() for block in blocks):
        name = next(name for name, grad in grads.named() if not np.isfinite(grad).all())
        raise OptimizerError(f"non-finite gradient in {name}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - config.beta1**t
    bc2 = 1.0 - config.beta2**t
    scratch1 = np.empty(min(_BLOCK, params.arena.size), dtype=params.arena.dtype)
    scratch2 = np.empty_like(scratch1)
    for block in blocks:
        param = params.arena[block]
        grad = grads.arena[block]
        m = state.m.arena[block]
        v = state.v.arena[block]
        s1 = scratch1[: param.size]
        s2 = scratch2[: param.size]
        # the rule above, one ufunc at a time over the block into the two
        # scratch buffers; each element rounds exactly as the expression would
        m *= config.beta1
        m += np.multiply(grad, 1.0 - config.beta1, out=s1)
        v *= config.beta2
        v += np.multiply(np.square(grad, out=s1), 1.0 - config.beta2, out=s1)
        denom = np.sqrt(np.divide(v, bc2, out=s1), out=s1)  # sqrt(v_hat)
        denom += config.eps
        update = np.divide(np.divide(m, bc1, out=s2), denom, out=s2)  # m_hat / denom
        update += np.multiply(param, config.weight_decay, out=s1)
        param -= np.multiply(update, config.learning_rate, out=update)
