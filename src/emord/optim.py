"""AdamW with decoupled weight decay, operating on ModelParams arenas in place.

Decay is applied directly to the parameter (not folded into the gradient),
so moment estimates track the loss gradient alone.  A non-finite gradient
entry aborts the step before touching any parameter, which is how training
divergence surfaces as a hard error instead of silent NaN spread.  A step
reads the learning rate and weight decay from the TrainConfig it is given,
which checked them on construction; the moment constants BETA1, BETA2 and
EPS are fixed, the same for every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .net import ModelParams, fields_equal

if TYPE_CHECKING:  # for the annotation only: optim needs nothing above net to run
    from .recipe import TrainConfig


#: AdamW's moment decay rates and the denominator's guard, the same for every run.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class OptimizerError(RuntimeError):
    """Raised when a step cannot be applied (non-finite gradients)."""


@dataclass(eq=False)
class AdamWState:
    """First/second moment estimates plus the step counter.

    `m` and `v` are laid out as the parameters, each in its own arena.
    """

    step: int
    m: ModelParams
    v: ModelParams

    __eq__ = fields_equal

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
    config: TrainConfig,
) -> None:
    """Apply one update in place to `params` and `state`.

    update = lr * (m_hat / (sqrt(v_hat) + EPS) + weight_decay * param)
    """
    blocks = [slice(start, start + _BLOCK) for start in range(0, params.arena.size, _BLOCK)]
    if not all(np.isfinite(grads.arena[block]).all() for block in blocks):
        name = next(name for name, grad in grads.named() if not np.isfinite(grad).all())
        raise OptimizerError(f"non-finite gradient in {name}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
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
        m *= BETA1
        m += np.multiply(grad, 1.0 - BETA1, out=s1)
        v *= BETA2
        v += np.multiply(np.square(grad, out=s1), 1.0 - BETA2, out=s1)
        denom = np.sqrt(np.divide(v, bc2, out=s1), out=s1)  # sqrt(v_hat)
        denom += EPS
        update = np.divide(np.divide(m, bc1, out=s2), denom, out=s2)  # m_hat / denom
        update += np.multiply(param, config.weight_decay, out=s1)
        param -= np.multiply(update, config.learning_rate, out=update)
