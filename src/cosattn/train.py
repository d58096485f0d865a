"""Single-block toy model and copy-task trainer.

The task: sequences [t_1 .. t_L, DELIM, t_1 .. t_L] with L = 16 tokens
over 16 symbols. The model reads the first 2L = 32 tokens and is trained,
next-token style, only on the L predictions in the copied half, which
takes routing content across a fixed positional offset. The block
(d_model = 32, d_ff = 64) is one head of the configured attention with a
residual join, then a two-layer relu feedforward with its own, and no
normalization; a fixed sinusoidal code is added to the token embeddings.
All in float64 and deterministic for a seed. A step runs attention once
forward and once backward over the whole (32, n, d) stack, the backward
from the forward's record, and the feedforward and head on the loss rows.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass

import numpy as np

from .core import AttentionConfig, require_matrix
from .errors import ConfigurationError, DimensionError
# cosformer_attention and cosformer_backward are not called here; the
# benchmark's trace wraps them as attributes of this module, so they stay
# importable until the benchmark drops them.
from .grad import _backward, cosformer_backward  # noqa: F401
from .linear import _forward, cosformer_attention  # noqa: F401


# Copy-task sizes; the model's own sizes are init_toy_params's defaults.
_BATCH = 32
_COPY_LEN = 16
_EVAL_SEQUENCES = 256
_TARGET_ACCURACY = 0.99


def sinusoidal_encoding(n: int, d: int) -> np.ndarray:
    """Fixed sin/cos positional code, (n, d), interleaved by frequency."""
    if d % 2 != 0:
        raise ConfigurationError(f"encoding width must be even, got {d}")
    pos = np.arange(n, dtype=np.float64)[:, None]
    # Frequencies from 1 down to 1/40: the customary base of 1e4 leaves most
    # channels near-constant over the 32-token window, and the kernel
    # variants cannot sharpen peaks the way softmax does.
    freqs = 1.0 / (40.0 ** (np.arange(d // 2, dtype=np.float64) * 2.0 / d))
    angles = pos * freqs[None, :]
    pe = np.zeros((n, d))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


@dataclass
class BlockParams:
    """Parameters of the toy model: one attention block plus heads. w_v
    maps back to d_model, for the residual join."""

    embedding: np.ndarray    # (n_embed, d_model)
    w_q: np.ndarray          # (d_model, d_head)
    w_k: np.ndarray          # (d_model, d_head)
    w_v: np.ndarray          # (d_model, d_model)
    w_ff1: np.ndarray        # (d_model, d_ff)
    w_ff2: np.ndarray        # (d_ff, d_model)
    output_proj: np.ndarray  # (d_model, n_out)

    def validate(self):
        for name in ("embedding", "w_q", "w_k", "w_v", "w_ff1", "w_ff2",
                     "output_proj"):
            require_matrix(getattr(self, name), name)
        d_model = self.embedding.shape[1]
        if self.w_q.shape != self.w_k.shape or self.w_q.shape[0] != d_model:
            raise DimensionError("w_q and w_k must be d_model x d_head")
        if self.w_v.shape != (d_model, d_model):
            raise DimensionError(
                "w_v must be d_model x d_model so the residual join typechecks")
        if self.w_ff1.shape[0] != d_model or self.w_ff2.shape != \
                (self.w_ff1.shape[1], d_model):
            raise DimensionError("feedforward shapes must chain d_model -> d_ff -> d_model")
        if self.output_proj.shape[0] != d_model:
            raise DimensionError("output_proj must have d_model rows")

    @property
    def d_model(self) -> int:
        return self.embedding.shape[1]


def _attention(e, params: BlockParams, config: AttentionConfig):
    """h = e + attention on embedded sequences e (batch, n, d_model),
    run once over the whole stack, and the record _backward takes."""
    batch, n, d_model = e.shape
    flat = e.reshape(batch * n, d_model)
    q = (flat @ params.w_q).reshape(batch, n, -1)
    k = (flat @ params.w_k).reshape(batch, n, -1)
    v = (flat @ params.w_v).reshape(batch, n, -1)
    att, record = _forward(q, k, v, config)
    return e + att, record


def _feedforward(h, params: BlockParams):
    """The relu feedforward and its residual on rows h (..., d_model):
    the output y and the cache (f1, r) the backward needs."""
    f1 = h.reshape(-1, h.shape[-1]) @ params.w_ff1
    r = np.maximum(f1, 0.0)
    return h + (r @ params.w_ff2).reshape(h.shape), f1, r


def _block(e, params: BlockParams, config: AttentionConfig):
    """The block's output at every row of embedded sequences e
    (batch, n, d_model)."""
    return _feedforward(_attention(e, params, config)[0], params)[0]


def transformer_block_forward(x, params: BlockParams,
                              config: AttentionConfig) -> np.ndarray:
    """One attention block on pre-embedded rows x (n, d_model). With
    all-zero parameters it is the identity on x: only the residuals stay."""
    params.validate()
    x = require_matrix(x, "x")
    if x.shape[1] != params.d_model:
        raise DimensionError(
            f"x width {x.shape[1]} does not match d_model {params.d_model}")
    x = np.asarray(x, dtype=np.float64)
    return _block(x[None], params, config)[0]


@dataclass
class TrainReport:
    """Outcome of one copy-task run."""

    variant: str
    seed: int
    steps: int
    final_loss: float
    token_accuracy: float
    loss_curve: list

    def summary(self) -> str:
        return (f"variant={self.variant} seed={self.seed} steps={self.steps} "
                f"final_loss={self.final_loss:.6f} "
                f"token_accuracy={self.token_accuracy:.4f}")


class _Adam:
    """Adam with the trainer's fixed step size and moment decays."""

    lr, beta1, beta2, eps = 1e-3, 0.9, 0.98, 1e-8

    def __init__(self, params: dict):
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def update(self, params: dict, grads: dict):
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for key, g in grads.items():
            self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * g * g
            params[key] -= self.lr * (self.m[key] / bc1) / (
                np.sqrt(self.v[key] / bc2) + self.eps)


def variant_name(config: AttentionConfig) -> str:
    if config.use_softmax:
        return "softmax"
    if config.reweight.kind == "cosine":
        return "cosformer"
    return f"linear_{config.feature_map.name}"


def _make_sequences(rng, count: int, copy_len: int, n_symbols: int):
    tokens = rng.integers(0, n_symbols, size=(count, copy_len))
    delim = np.full((count, 1), n_symbols)
    # model input is the full sequence minus its last token
    inputs = np.concatenate([tokens, delim, tokens[:, :-1]], axis=1)
    return inputs, tokens


def _forward_batch(inputs, params: BlockParams, config: AttentionConfig,
                   pe, loss_pos):
    """Logits at the loss positions plus the caches backward needs, the
    attention record among them; [0] alone lets the caches go. Attention
    runs over every row, the feedforward and head over the loss rows."""
    e = params.embedding[inputs] + pe[None, :, :]
    h, record = _attention(e, params, config)
    h = h[:, loss_pos, :]
    y, f1, r = _feedforward(h, params)
    return y @ params.output_proj, (e, h, f1, r, y, record)


def _loss_and_dlogits(logits, targets):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expl = np.exp(shifted)
    probs = expl / expl.sum(axis=-1, keepdims=True)
    batch, length = targets.shape
    picked = probs[np.arange(batch)[:, None], np.arange(length)[None, :], targets]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    d_logits = probs.copy()
    d_logits[np.arange(batch)[:, None], np.arange(length)[None, :], targets] -= 1.0
    d_logits /= batch * length
    return loss, d_logits


def _train_step(inputs, targets, params: BlockParams, config: AttentionConfig,
                pe, loss_pos):
    """Loss and gradients of one batch; each cache dies after its last
    reader, so the attention backward runs beside e, record and d_h."""
    logits, (e, h, f1, r, y, record) = _forward_batch(
        inputs, params, config, pe, loss_pos)
    loss, d_logits = _loss_and_dlogits(logits, targets)
    del logits
    batch, n, d_model = e.shape

    # One 2-D product: an einsum over (batch, position) is much slower.
    d_output_proj = (y.reshape(-1, d_model).T
                     @ d_logits.reshape(-1, d_logits.shape[-1]))
    d_y = (d_logits @ params.output_proj.T).reshape(-1, d_model)
    del y, d_logits

    d_w_ff2 = r.T @ d_y
    d_f1 = (d_y @ params.w_ff2.T) * (f1 > 0.0)
    del r, f1
    d_w_ff1 = h.reshape(-1, d_model).T @ d_f1
    del h
    d_h = np.zeros_like(e)
    d_h[:, loss_pos, :] = (d_y + d_f1 @ params.w_ff1.T).reshape(batch, -1, d_model)
    del d_y, d_f1

    d_q, d_k, d_v = _backward(record, d_h)
    del record
    d_q, d_k, d_v = (d.reshape(batch * n, -1) for d in (d_q, d_k, d_v))
    flat_e = e.reshape(batch * n, d_model)
    grads = {
        "output_proj": d_output_proj,
        "w_ff1": d_w_ff1,
        "w_ff2": d_w_ff2,
        "w_q": flat_e.T @ d_q,
        "w_k": flat_e.T @ d_k,
        "w_v": flat_e.T @ d_v,
    }
    # d_e is a new array, not d_h updated in place: the d_out handed to
    # _backward is left as it was.
    d_e = d_h.reshape(batch * n, d_model) + d_q @ params.w_q.T
    d_e += d_k @ params.w_k.T
    d_e += d_v @ params.w_v.T
    # Scatter-add of d_e rows by token as a one-hot product: the same sums
    # as np.add.at, and faster.
    one_hot = np.arange(params.embedding.shape[0]) == inputs.reshape(-1, 1)
    grads["embedding"] = one_hot.T @ d_e
    return loss, grads


def _accuracy(inputs, targets, params, config, pe, loss_pos):
    """Token accuracy, one training batch per forward call. Only the
    logits are bound, so each batch's record dies before the next's."""
    hits = 0
    for start in range(0, inputs.shape[0], _BATCH):
        logits = _forward_batch(inputs[start:start + _BATCH], params, config,
                                pe, loss_pos)[0]
        hits += int(np.sum(logits.argmax(axis=-1) == targets[start:start + _BATCH]))
    return hits / targets.size


# glibc mallopt parameters, and the values they are pinned to: the ceiling
# glibc's own dynamic mmap threshold rises to on 64-bit, and twice that for
# trimming, as glibc's dynamic rule sets it.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 2**20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _glibc_mallopt():
    """glibc's mallopt; None off glibc, or when the environment already
    sets the trim or the mmap threshold."""
    env = os.environ
    if ({"MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"} & env.keys()
            or "threshold" in env.get("GLIBC_TUNABLES", "")):
        return None
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
    except (AttributeError, ValueError, OSError):
        return None
    return ctypes.CDLL(None).mallopt


def _pin_heap():
    """Keep the trainer's freed arrays in the process heap, on glibc.

    A batched step allocates and frees a few MiB of arrays. With glibc's
    dynamic thresholds the trim threshold is twice the largest mapped
    array freed so far, less than a step frees, so the freed top of the
    heap goes back to the kernel after every step and the next step
    page-faults its working set in again. This pins both thresholds for
    the rest of the process."""
    mallopt = _glibc_mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def init_toy_params(rng, n_symbols: int = 16, d_model: int = 32,
                    d_ff: int = 64) -> BlockParams:
    """Seeded toy-model initialization; delimiter gets the extra embedding row."""
    if min(n_symbols, d_model, d_ff) < 1:
        raise ConfigurationError(
            f"need n_symbols, d_model, d_ff >= 1, got {n_symbols}, {d_model}, {d_ff}")
    scale = 1.0 / np.sqrt(d_model)
    return BlockParams(
        embedding=rng.standard_normal((n_symbols + 1, d_model)),
        w_q=rng.standard_normal((d_model, d_model)) * scale,
        w_k=rng.standard_normal((d_model, d_model)) * scale,
        w_v=rng.standard_normal((d_model, d_model)) * scale,
        w_ff1=rng.standard_normal((d_model, d_ff)) * scale,
        w_ff2=rng.standard_normal((d_ff, d_model)) * (1.0 / np.sqrt(d_ff)),
        output_proj=rng.standard_normal((d_model, n_symbols)) * 0.02,
    )


def train_copy_task(attention_variant: AttentionConfig, seed: int,
                    max_steps: int = 2000, eval_every: int = 25) -> TrainReport:
    """Train the toy block on the delimiter-copy task.

    The sizes are fixed: batches of 32 sequences that copy 16 tokens over
    16 symbols (n = 32), the init_toy_params model, Adam at step size
    1e-3, and 256 held-out sequences. Stops once held-out token accuracy
    on the copied half reaches 99 %; deterministic for a seed. Raises
    ConfigurationError on a non-causal config or a max_steps or
    eval_every below 1. On glibc it pins the process's malloc trim and
    mmap thresholds, unless the environment sets either (_pin_heap)."""
    if not attention_variant.causal:
        raise ConfigurationError("the copy task trains a causal block")
    for name, value in (("max_steps", max_steps), ("eval_every", eval_every)):
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")
    _pin_heap()
    init_rng, batch_rng, eval_rng = np.random.default_rng(seed).spawn(3)

    params = init_toy_params(init_rng)
    n_symbols = params.output_proj.shape[1]
    loss_pos = np.arange(_COPY_LEN, 2 * _COPY_LEN)
    # Boosting the amplitude lets position terms compete with the
    # unit-variance token embeddings.
    pe = 2.5 * sinusoidal_encoding(2 * _COPY_LEN, params.d_model)
    param_dict = vars(params)  # the live arrays, which Adam updates in place
    opt = _Adam(param_dict)
    eval_inputs, eval_targets = _make_sequences(eval_rng, _EVAL_SEQUENCES,
                                                _COPY_LEN, n_symbols)

    curve = []
    accuracy = 0.0
    for step in range(1, max_steps + 1):
        inputs, targets = _make_sequences(batch_rng, _BATCH, _COPY_LEN,
                                          n_symbols)
        loss, grads = _train_step(inputs, targets, params, attention_variant,
                                  pe, loss_pos)
        opt.update(param_dict, grads)
        curve.append((step, loss))
        if step % eval_every == 0 or step == max_steps:
            accuracy = _accuracy(eval_inputs, eval_targets, params,
                                 attention_variant, pe, loss_pos)
            if accuracy >= _TARGET_ACCURACY:
                break
    return TrainReport(
        variant=variant_name(attention_variant),
        seed=seed,
        steps=len(curve),
        final_loss=curve[-1][1],
        token_accuracy=accuracy,
        loss_curve=curve,
    )
