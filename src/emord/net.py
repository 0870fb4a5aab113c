"""Dense numeric core of the text classifier.

Architecture: embedding -> conv(k1) -> ReLU -> conv(k2) -> ReLU -> masked
mean-pool over time -> 3-layer FFNN -> head (softmax, or per-entry logistic
for the ordinal heads).  Convolutions are valid (no padding), stride 1, so
each conv shortens the time axis by kernel-1.

Everything is plain numpy, and each convolution runs as one GEMM per kernel
tap, forward and backward.  forward() multiplies each tap by the flat
(B*T, Cin) rows and adds tap j's product shifted up by j rows, in one
contiguous add per tap: output t of a text takes input row t+j, and a row
past the text's last output takes the next text's taps and is cut away.
Each kept row sums the same products in the same order as a strided add
over a (B, T-k+1) view would, so the values are bit-identical to it; only
the memory the adds walk changes.  backward() returns exact reverse-mode
gradients for every parameter and is verified against central finite
differences in gradcheck.py.  float32 is the training dtype, float64 the
gradient-checking dtype.

Each conv weight is stored tap-major, conv1_w as (k1, E, C1) and conv2_w
as (k2, C1, C2), so each tap is one contiguous matrix of the arena and
forward() multiplies by it in place: no copy is made or kept.  A strided
tap view is not a BLAS operand, so numpy would multiply it by its own loop
below some product size, and that loop sums a row differently from the
BLAS kernel; with contiguous taps every row of a tap product is
bit-identical whatever the number of rows.  That lets forward() cut every
batch (training, validation, evaluation and one-text prediction alike)
after the last column a pooled output reads.  The FFNN products still
depend on the batch size, and not only for one row: at desk widths, with
initial weights x4 and T=32, softmax and ordinal-1d outputs differ in the
last bits from the same rows in a 256-row batch at about 25-32 of the batch
sizes 1-39, 100, 129 and 255 (never at a multiple of 4), ordinal-2d outputs
at batch size 1 only.  ROADMAP item 3 is to make them batch-invariant.

Each hidden activation exists once, in every forward: a conv ReLU writes
the compact activation out of the conv's flat buffer, which is then
dropped, and an FFNN ReLU overwrites its input.  The ForwardCache a
training forward returns holds activations only: the masked embedding, a1,
a2, the pool's mask, counts and output, h1 and h2.  backward() takes each
ReLU's mask from its output (a > 0 exactly where the pre-activation is
> 0) and writes each ReLU's input gradient over its output gradient.

A forward that keeps no cache (forward(..., cache=False): every caller
but the training step) runs embedding -> conv1 -> ReLU -> conv2 -> ReLU ->
masked pool over blocks of rows, then the FFNN and head once over the
whole pooled matrix.  A block holds
max(128 KiB // row, ceil(conv weight bytes / row), 1) rows, where row is
T * max(E, C1, C2) * itemsize at the cut width T, so a block's widest
activation stays in a core's L2 cache unless that would make the block
smaller than the conv weights it reads: 16-18 rows at desk widths, a whole
16-row batch at paper widths and T=200.  The outputs are bit-identical to
the cached forward's, which runs the same code as one block of all B rows:
each step up to the pool works row by row, each conv row is the same at
any row count, and the FFNN sees the same pooled matrix.

At desk widths a batched forward is bound by the conv GEMMs, but a one-row
forward (one text served by predict_text) is bound by numpy's per-call
overhead.  So forward() derives the padding mask once, for the all-padding
check, the trim, the embedding and the pool, gathers the embedding with
embedding.take(ids, axis=0) (the method: np.take's wrapper costs about
0.9 us more per call) and masks it in place by the mask in the model's
dtype (x * 1.0 and x * 0.0 give the bits a bool mask gives, -0.0
included), multiplies small products with ndarray.dot (see _DOT_MACS), and
applies the logistic head without gathering its two halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .codec import MODE_SOFTMAX, MODE_ORDINAL_2D, HEAD_MODES

_INIT_STREAM = 101  # seed-stream tag separating init draws from other consumers
_BLOCK_BYTES = 128 * 1024  # widest activation of one cache-free forward block
#: A product of at most this many multiply-adds runs as ndarray.dot, a
#: larger one as @.  The two give the same bits (tests/test_net.py pins it);
#: dot costs about 0.6 us less per call, but ran about 10 % slower from
#: about 0.5M multiply-adds, as (512, 32) x (32, 64) (OpenBLAS 0.3.31, one
#: thread).  One text's products at desk widths are small, a batch's conv
#: products are not.
_DOT_MACS = 1 << 17

#: Parameter arrays in canonical order (checkpoints, optimizer slots, reports).
PARAM_FIELDS = (
    "embedding",
    "conv1_w",
    "conv1_b",
    "conv2_w",
    "conv2_b",
    "fc1_w",
    "fc1_b",
    "fc2_w",
    "fc2_b",
    "fc3_w",
    "fc3_b",
)


class NetError(ValueError):
    """Invalid model configuration or forward-pass input."""


def fields_equal(self, other) -> bool:
    """`__eq__` for a dataclass with array fields: each compared field whole,
    an array by np.array_equal.

    The generated __eq__ compares the fields as tuples, which asks numpy
    for the truth value of an elementwise array comparison and raises.  A
    class that takes this `__eq__` is declared with eq=False, so it is
    unhashable (`hash()` names the class) rather than hashing its arrays.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        if not f.compare:
            continue
        a, b = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
            return False
    return True


@dataclass(frozen=True)
class ModelConfig:
    """Widths and head mode of the classifier.

    `output_width` must match the head mode: K for softmax, K-1 for
    ordinal-1d, 2*(G-1) for ordinal-2d (two stacked heads of width G-1).
    The widths have no defaults: TrainConfig.model_config builds the
    config a recipe trains, and the recipe's preset table (recipe.PRESETS)
    holds the desk and paper widths.
    """

    vocab_size: int
    output_width: int
    head_mode: str
    embed_dim: int
    conv_channels: tuple[int, int]
    kernel_sizes: tuple[int, int]
    ffnn_hidden: tuple[int, int]
    dtype: str = "float32"

    def __post_init__(self):
        if self.head_mode not in HEAD_MODES:
            raise NetError(f"unknown head mode {self.head_mode!r}")
        if self.vocab_size < 3:
            raise NetError("vocab_size must cover padding, unknown and one real token")
        if self.output_width < 1:
            raise NetError("output_width must be positive")
        if self.head_mode == MODE_ORDINAL_2D and self.output_width % 2 != 0:
            raise NetError("ordinal-2d output width must be even (two equal heads)")
        for name in ("embed_dim",):
            if getattr(self, name) < 1:
                raise NetError(f"{name} must be positive")
        if min(self.conv_channels) < 1 or min(self.ffnn_hidden) < 1:
            raise NetError("layer widths must be positive")
        if min(self.kernel_sizes) < 1:
            raise NetError("kernel sizes must be positive")
        if self.dtype not in ("float32", "float64"):
            raise NetError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.param_count * np.dtype(self.dtype).itemsize > np.iinfo(np.intp).max:
            raise NetError(f"{self.param_count} parameters are more than one array can hold: {self}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    @property
    def min_seq_length(self) -> int:
        """Shortest time axis the two valid convolutions can consume."""
        return sum(self.kernel_sizes) - len(self.kernel_sizes) + 1

    @property
    def param_count(self) -> int:
        """Entries in one parameter arena."""
        return sum(map(math.prod, self.param_shapes().values()))

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of each parameter array, in PARAM_FIELDS order."""
        e = self.embed_dim
        c1, c2 = self.conv_channels
        k1, k2 = self.kernel_sizes
        h1, h2 = self.ffnn_hidden
        return {
            "embedding": (self.vocab_size, e),
            "conv1_w": (k1, e, c1),
            "conv1_b": (c1,),
            "conv2_w": (k2, c1, c2),
            "conv2_b": (c2,),
            "fc1_w": (c2, h1),
            "fc1_b": (h1,),
            "fc2_w": (h1, h2),
            "fc2_b": (h2,),
            "fc3_w": (h2, self.output_width),
            "fc3_b": (self.output_width,),
        }


@dataclass(frozen=True, init=False, eq=False)
class ModelParams:
    """All trainable arrays; also used as the container for gradients and
    for each AdamW moment.

    The eleven arrays are views, in PARAM_FIELDS order, into one contiguous
    1-D buffer, `arena`, so a whole-model operation (the AdamW update, the
    finiteness check, a snapshot, a checkpoint write) runs once over it.
    `over(config, arena)`, `zeros(config)` and `like(arena)` are the only
    constructors; the fields are frozen, so no array can be rebound away
    from its arena.  Each array is stored in the layout forward() and
    backward() read, the conv weights tap-major, so no pass copies or keeps
    a reordered weight.  A loaded checkpoint's and a Trainer snapshot's
    arena is read-only (`frozen_copy`), so nothing can write them.

    embedding row 0 is the padding slot: initialized to zeros, masked out of
    the forward pass, and never receives gradient, so it stays zero.
    """

    embedding: np.ndarray  # (V, E)
    conv1_w: np.ndarray  # (k1, E, C1)
    conv1_b: np.ndarray  # (C1,)
    conv2_w: np.ndarray  # (k2, C1, C2)
    conv2_b: np.ndarray  # (C2,)
    fc1_w: np.ndarray  # (C2, H1)
    fc1_b: np.ndarray  # (H1,)
    fc2_w: np.ndarray  # (H1, H2)
    fc2_b: np.ndarray  # (H2,)
    fc3_w: np.ndarray  # (H2, out)
    fc3_b: np.ndarray  # (out,)
    arena: np.ndarray = field(repr=False, compare=False)

    __eq__ = fields_equal

    def _bind(self, arena: np.ndarray, shapes) -> None:
        offset = 0
        for name, shape in zip(PARAM_FIELDS, shapes):
            size = math.prod(shape)
            object.__setattr__(self, name, arena[offset : offset + size].reshape(shape))
            offset += size
        object.__setattr__(self, "arena", arena)

    @classmethod
    def over(cls, config: ModelConfig, arena: np.ndarray) -> "ModelParams":
        """`config`'s arrays as views of `arena` (no copy), 1-D in its dtype."""
        if arena.shape != (config.param_count,) or arena.dtype != config.np_dtype:
            raise NetError(
                f"arena of shape {arena.shape} and dtype {arena.dtype}, "
                f"need ({config.param_count},) and {config.dtype}"
            )
        params = object.__new__(cls)
        params._bind(arena, config.param_shapes().values())
        return params

    @classmethod
    def zeros(cls, config: ModelConfig) -> "ModelParams":
        """All-zero arrays of `config`'s shapes, in one fresh arena."""
        return cls.over(config, np.zeros(config.param_count, dtype=config.np_dtype))

    def like(self, arena: np.ndarray) -> "ModelParams":
        """A ModelParams over `arena` (no copy), laid out as this one."""
        if arena.shape != self.arena.shape:
            raise NetError(f"arena of shape {arena.shape}, need {self.arena.shape}")
        other = object.__new__(ModelParams)
        other._bind(arena, [arr.shape for _, arr in self.named()])
        return other

    def named(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in PARAM_FIELDS]

    def copy(self) -> "ModelParams":
        """A writable copy."""
        return self.like(self.arena.copy())

    def frozen_copy(self) -> "ModelParams":
        """A read-only copy: its arena and every view refuse writes."""
        arena = self.arena.copy()
        arena.setflags(write=False)
        return self.like(arena)


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Seeded init: embedding U(-0.05, 0.05), weights U(+-sqrt(1/fan_in)), zero biases."""
    rng = np.random.default_rng([seed, _INIT_STREAM])
    e = config.embed_dim
    c1, c2 = config.conv_channels
    k1, k2 = config.kernel_sizes
    h1, h2 = config.ffnn_hidden
    bounds = {
        "embedding": 0.05,
        "conv1_w": np.sqrt(1.0 / (e * k1)),
        "conv2_w": np.sqrt(1.0 / (c1 * k2)),
        "fc1_w": np.sqrt(1.0 / c2),
        "fc2_w": np.sqrt(1.0 / h1),
        "fc3_w": np.sqrt(1.0 / h2),
    }
    params = ModelParams.zeros(config)  # biases stay zero
    for name, bound in bounds.items():  # draws in PARAM_FIELDS order
        view = getattr(params, name)
        if view.ndim == 3:  # a conv weight, drawn as (Cout, Cin, k)
            view[...] = rng.uniform(-bound, bound, size=view.shape[::-1]).transpose(2, 1, 0)
        else:
            view[...] = rng.uniform(-bound, bound, size=view.shape)
    params.embedding[0] = 0.0
    return params


@dataclass
class ForwardCache:
    """What backward() reads of a training forward: activations only.

    forward() keeps no pre-activation; backward() takes each ReLU's mask
    from its output, as a > 0 holds exactly where the pre-activation is > 0
    (also for -0.0 and NaN).
    """

    token_ids: np.ndarray  # (B, T) int, cut
    emb: np.ndarray  # (B, T, E), padding positions zeroed
    a1: np.ndarray  # (B, T1, C1)
    a2: np.ndarray  # (B, T2, C2)
    pool_mask: np.ndarray  # (B, T2) dtype 0/1
    pool_counts: np.ndarray  # (B,) dtype
    pooled: np.ndarray  # (B, C2)
    h1: np.ndarray  # (B, H1)
    h2: np.ndarray  # (B, H2)


def _product(rows: int, right: np.ndarray):
    """The function that multiplies `rows` rows by `right`: dot or matmul."""
    return np.ndarray.dot if rows * right.size <= _DOT_MACS else np.matmul


def _relu(x: np.ndarray) -> np.ndarray:
    """ReLU in place: `x` is overwritten and returned."""
    return np.maximum(x, 0, out=x)


def _conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # x (B, T, Cin), w (k, Cin, Cout) -> (B, T-k+1, Cout), a view of a
    # (B*T, Cout) buffer.  Output t takes input row t+j through tap j, so
    # tap j's product is added shifted up j flat rows; a kept row sums
    # ((P0 + bias) + P1[t+1]) + ..., as a strided add would.
    batch, t, c_in = x.shape
    k = w.shape[0]
    n = batch * t
    flat = x.reshape(n, c_in)
    mul = _product(n, w[0])
    out = mul(flat, w[0])
    out += b
    for j in range(1, k):
        out[: n - j] += mul(flat, w[j])[j:]
    return out.reshape(batch, t, -1)[:, : t - k + 1]


def _block_rows(config: ModelConfig, length: int) -> int:
    """Rows per block of a cache-free forward over ids cut to `length` columns.

    A block's widest activation fills at most _BLOCK_BYTES, so its tap
    products stay in a core's L2 cache, unless that is fewer rows than the
    conv weights fill: each block reads every conv weight once, and a block
    smaller than the weights would read more weight than activation.
    """
    e, (c1, c2), (k1, k2) = config.embed_dim, config.conv_channels, config.kernel_sizes
    itemsize = 4 if config.dtype == "float32" else 8
    row_bytes = length * max(e, c1, c2) * itemsize
    weight_bytes = (c1 * e * k1 + c2 * c1 * k2) * itemsize
    return max(_BLOCK_BYTES // row_bytes, -(-weight_bytes // row_bytes), 1)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows.  It equals exp(-x) where x >= 0 and exp(x)
    # where x < 0, so each entry takes the same operations as in the split
    # form 1/(1+exp(-x)) | exp(x)/(1+exp(x)), without gathering the halves.
    ex = np.abs(x)
    np.exp(np.negative(ex, out=ex), out=ex)
    return np.where(x >= 0, 1.0, ex) / (ex + 1.0)


def forward(
    params: ModelParams, config: ModelConfig, token_ids: np.ndarray, *, cache: bool = True
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the full pipeline on a (B, T) batch of token ids.

    Padding (id 0) embeds to an exact zero vector.  The mean-pool averages
    only conv-output positions whose window starts on a real token, dividing
    by that count rather than by the full time axis, so trailing padding
    never dilutes short texts.  Columns past the last real token's receptive
    field are cut before the embedding; the cache holds the cut ids.

    With `cache=False` the conv stack runs in blocks of rows and no
    activation is kept: the second return value is None.  The outputs are
    bit-identical either way.
    """
    token_ids = np.asarray(token_ids)
    if token_ids.ndim != 2:
        raise NetError(f"token_ids must be (B, T), got shape {token_ids.shape}")
    if token_ids.dtype.kind not in "iu":
        raise NetError("token_ids must be integers")
    if token_ids.min(initial=0) < 0 or token_ids.max(initial=0) >= config.vocab_size:
        raise NetError(f"token id outside [0, {config.vocab_size - 1}]")
    b, t = token_ids.shape
    k1, k2 = config.kernel_sizes
    if b == 0:
        raise NetError(f"empty batch: token_ids of shape {token_ids.shape} has no rows")
    if t < config.min_seq_length:
        raise NetError(
            f"sequence length {t} shorter than the convolutions need ({config.min_seq_length})"
        )
    real = token_ids != 0
    n_real = real.sum(axis=1)
    if not n_real.all():
        rows = np.flatnonzero(n_real == 0).tolist()
        raise NetError(f"all-padding rows not allowed (rows {rows})")

    # The pool reads the first n_real positions of the second convolution,
    # and position p reads columns p .. p + k1 + k2 - 2.  n_real is at most
    # one past `last`, the last column holding a non-zero id (a position,
    # not a count, so inner padding stays), so later columns reach no
    # output.  Cutting them leaves every output bit-identical, because each
    # row of a tap product sums alike whatever the number of rows.
    last = t - 1 - int(real.any(axis=0)[::-1].argmax())
    end = min(t, last + k1 + k2 - 1)
    if end < t:
        token_ids, real, t = token_ids[:, :end], real[:, :end], end

    dt = config.np_dtype
    t2 = t - k1 - k2 + 2
    pool_counts = np.minimum(n_real, t2).astype(dt)
    pool_mask = (np.arange(t2)[None, :] < pool_counts[:, None]).astype(dt)

    # The same arithmetic for one block of all B rows (the cached forward)
    # or for blocks of _block_rows rows: every step from the embedding to
    # the pool works row by row, and each row of a tap product is the same
    # at any row count, so each pooled row is bit-identical either way.
    rows = b if cache else _block_rows(config, t)
    realf = real.astype(dt)  # x * 1.0 and x * 0.0 give a bool mask's bits
    blocks = []
    for start in range(0, b, rows):
        stop = start + rows
        emb = params.embedding.take(token_ids[start:stop], axis=0)
        emb *= realf[start:stop, :, None]
        # out of place: compact activations, and the flat buffers are dropped
        a1 = np.maximum(_conv1d(emb, params.conv1_w, params.conv1_b), 0)
        a2 = np.maximum(_conv1d(a1, params.conv2_w, params.conv2_b), 0)
        # a fresh product: numpy runs an in-place product with a broadcast
        # operand about 4x slower
        masked = a2 * pool_mask[start:stop, :, None]
        blocks.append(masked.sum(axis=1) / pool_counts[start:stop, None])
    pooled = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    h1 = _relu(_product(b, params.fc1_w)(pooled, params.fc1_w) + params.fc1_b)
    h2 = _relu(_product(b, params.fc2_w)(h1, params.fc2_w) + params.fc2_b)
    logits = _product(b, params.fc3_w)(h2, params.fc3_w) + params.fc3_b

    if config.head_mode == MODE_SOFTMAX:
        outputs = _softmax(logits)
    else:
        outputs = _sigmoid(logits)
    if not np.isfinite(outputs).all():
        raise NetError("non-finite head outputs")
    if not cache:
        return outputs, None
    return outputs, ForwardCache(
        token_ids=token_ids,
        emb=emb,
        a1=a1,
        a2=a2,
        pool_mask=pool_mask,
        pool_counts=pool_counts,
        pooled=pooled,
        h1=h1,
        h2=h2,
    )


def _conv1d_backward(x, w, d_out, d_w, d_b):
    # returns d_x for z = conv1d(x, w, b), one pair of GEMMs per tap, and
    # writes the weight and bias gradients into d_w and d_b, all (k, Cin, Cout).
    # The transposed taps are copied: on a one-row batch the product with a
    # transposed view of w[j] differs from this one in the last bits.
    batch, t_out, _ = d_out.shape
    c_in = x.shape[2]
    d_flat = d_out.reshape(batch * t_out, -1)
    taps = w.transpose(0, 2, 1).copy()  # (k, Cout, Cin)
    d_x = np.zeros_like(x)
    for j in range(w.shape[0]):
        d_w[j] = (d_flat.T @ x[:, j : j + t_out].reshape(-1, c_in)).T
        d_x[:, j : j + t_out] += (d_flat @ taps[j]).reshape(batch, t_out, c_in)
    d_out.sum(axis=(0, 1), out=d_b)
    return d_x


def backward(
    params: ModelParams,
    config: ModelConfig,
    cache: ForwardCache,
    d_logits: np.ndarray,
) -> ModelParams:
    """Exact gradients of the scalar loss whose d(loss)/d(logits) is `d_logits`.

    The head-plus-loss derivative is computed by the loss module (fused with
    the softmax/logistic transform); everything from the logits down is
    differentiated here.  Returns a ModelParams holding the gradients, each
    written straight into its view of one fresh arena.
    """
    logits_shape = (len(cache.h2), params.fc3_b.size)
    if d_logits.shape != logits_shape:
        raise NetError(f"d_logits shape {d_logits.shape} does not match logits {logits_shape}")
    grads = params.like(np.empty_like(params.arena))
    np.matmul(cache.h2.T, d_logits, out=grads.fc3_w)
    d_logits.sum(axis=0, out=grads.fc3_b)
    # each ReLU's input gradient is written over its output gradient, with
    # the mask taken from the ReLU's output
    d_h2 = d_logits @ params.fc3_w.T
    np.multiply(d_h2, cache.h2 > 0, out=d_h2)
    np.matmul(cache.h1.T, d_h2, out=grads.fc2_w)
    d_h2.sum(axis=0, out=grads.fc2_b)

    d_h1 = d_h2 @ params.fc2_w.T
    np.multiply(d_h1, cache.h1 > 0, out=d_h1)
    np.matmul(cache.pooled.T, d_h1, out=grads.fc1_w)
    d_h1.sum(axis=0, out=grads.fc1_b)
    d_pooled = d_h1 @ params.fc1_w.T

    # the mask holds 0 and 1 and the counts are positive, so dividing each
    # row once first gives the bits of (mask * d) / count
    d_a2 = cache.pool_mask[:, :, None] * (d_pooled / cache.pool_counts[:, None])[:, None, :]
    np.multiply(d_a2, cache.a2 > 0, out=d_a2)
    d_a1 = _conv1d_backward(cache.a1, params.conv2_w, d_a2, grads.conv2_w, grads.conv2_b)

    np.multiply(d_a1, cache.a1 > 0, out=d_a1)
    d_emb = _conv1d_backward(cache.emb, params.conv1_w, d_a1, grads.conv1_w, grads.conv1_b)

    # padding is masked out of the forward pass, so only real positions
    # scatter, and the padding row's gradient stays exactly zero.  The
    # scatter takes 1-D element indices into the flat embedding gradient,
    # numpy's fast np.add.at path; each element still sums its positions in
    # row-major order, as a row scatter would.
    real = cache.token_ids != 0
    embed_dim = grads.embedding.shape[1]
    rows = cache.token_ids[real].astype(np.intp)
    flat_index = (rows[:, None] * embed_dim + np.arange(embed_dim)).reshape(-1)
    grads.embedding.fill(0)
    np.add.at(grads.embedding.reshape(-1), flat_index, d_emb[real].reshape(-1))
    return grads
