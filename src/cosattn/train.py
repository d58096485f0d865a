"""Single-block toy model and copy-task trainer.

The task: sequences of the form [t_1 .. t_L, DELIM, t_1 .. t_L]. The model
reads the first 2L tokens and is trained, next-token style, only on the L
predictions that land in the copied half, so the untrainable random first
half never pollutes the loss. Solving it requires routing content across a
fixed positional offset, which is exactly what the attention mechanism is
supposed to provide.

The block is one head of the configured attention between two residual
joins, followed by a two-layer relu feedforward with its own residual. No
normalization layers. A fixed sinusoidal positional encoding is added to
the token embeddings; it is not a parameter. Everything runs in float64
and is deterministic for a fixed seed.

A training step makes one attend and one attend_backward call over the
whole (batch, n, d) stack of its sequences, so the config alone picks
softmax, plain linear or cosformer attention; held-out accuracy is
evaluated batch_size sequences per forward call. On glibc, training pins
the allocator's trim and mmap thresholds (see _pin_heap), so each step
reuses the heap pages the step before it freed.
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
from .grad import attend_backward, cosformer_backward  # noqa: F401
from .linear import attend, cosformer_attention  # noqa: F401


def sinusoidal_encoding(n: int, d: int, base: float = 10000.0) -> np.ndarray:
    """Fixed sin/cos positional code, (n, d), interleaved by frequency.

    The geometric frequency ladder runs from 1 down to 1/base; pick a base
    so that a useful part of the ladder completes a cycle within n.
    """
    if d % 2 != 0:
        raise ConfigurationError(f"encoding width must be even, got {d}")
    if base <= 1.0:
        raise ConfigurationError(f"encoding base must be > 1, got {base}")
    pos = np.arange(n, dtype=np.float64)[:, None]
    freqs = 1.0 / (base ** (np.arange(d // 2, dtype=np.float64) * 2.0 / d))
    angles = pos * freqs[None, :]
    pe = np.zeros((n, d))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


@dataclass
class BlockParams:
    """Parameters of the toy model: one attention block plus heads.

    The attention output feeds a residual join with the block input, so
    the value projection must map back to d_model.
    """

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


def _block(e, params: BlockParams, config: AttentionConfig):
    """The block on a batch of embedded sequences e (batch, n, d_model).

    Returns the output y and the cache (q, k, v, h, f1, r) the backward
    needs. Attention runs once over the whole (batch, n, d) stack.
    """
    batch, n, d_model = e.shape
    flat = e.reshape(batch * n, d_model)
    q = (flat @ params.w_q).reshape(batch, n, -1)
    k = (flat @ params.w_k).reshape(batch, n, -1)
    v = (flat @ params.w_v).reshape(batch, n, -1)
    h = e + attend(q, k, v, config)
    f1 = h.reshape(batch * n, -1) @ params.w_ff1
    r = np.maximum(f1, 0.0)
    y = h + (r @ params.w_ff2).reshape(batch, n, d_model)
    return y, (q, k, v, h, f1, r)


def transformer_block_forward(x, params: BlockParams,
                              config: AttentionConfig) -> np.ndarray:
    """One attention block on pre-embedded rows x (n, d_model).

    With all-zero parameters this is the identity map on x: zero
    projections give zero attention output and a zero feedforward, leaving
    only the residuals.
    """
    params.validate()
    x = require_matrix(x, "x")
    if x.shape[1] != params.d_model:
        raise DimensionError(
            f"x width {x.shape[1]} does not match d_model {params.d_model}")
    x = np.asarray(x, dtype=np.float64)
    y, _ = _block(x[None], params, config)
    return y[0]


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

    def to_csv(self, path):
        """Write (step, loss) rows plus a one-line summary comment."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("step,loss\n")
            for step, loss in self.loss_curve:
                fh.write(f"{step},{loss:.10g}\n")
            fh.write(f"# {self.summary()}\n")


class _Adam:
    """Adam with the run's fixed step size and moment decays."""

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.98, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
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
    """Logits at the loss positions plus the caches backward needs."""
    e = params.embedding[inputs] + pe[None, :, :]
    y, (q, k, v, h, f1, r) = _block(e, params, config)
    logits = y[:, loss_pos, :] @ params.output_proj
    return logits, (e, q, k, v, h, f1, r, y)


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
    logits, cache = _forward_batch(inputs, params, config, pe, loss_pos)
    e, q, k, v, h, f1, r, y = cache
    loss, d_logits = _loss_and_dlogits(logits, targets)
    batch, n, d_model = e.shape

    y_at = y[:, loss_pos, :]
    d_output_proj = np.einsum("ble,blo->eo", y_at, d_logits)
    d_y = np.zeros_like(y)
    d_y[:, loss_pos, :] = d_logits @ params.output_proj.T

    d_h = d_y.copy()
    d_y_flat = d_y.reshape(batch * n, d_model)
    d_w_ff2 = r.T @ d_y_flat
    d_f1 = (d_y_flat @ params.w_ff2.T) * (f1 > 0.0)
    d_w_ff1 = h.reshape(batch * n, -1).T @ d_f1
    d_h += (d_f1 @ params.w_ff1.T).reshape(batch, n, d_model)

    d_e = d_h.copy()
    d_q, d_k, d_v = attend_backward(q, k, v, config, d_h)
    flat_e = e.reshape(batch * n, d_model)
    grads = {
        "output_proj": d_output_proj,
        "w_ff1": d_w_ff1,
        "w_ff2": d_w_ff2,
        "w_q": flat_e.T @ d_q.reshape(batch * n, -1),
        "w_k": flat_e.T @ d_k.reshape(batch * n, -1),
        "w_v": flat_e.T @ d_v.reshape(batch * n, -1),
    }
    d_e += (d_q.reshape(batch * n, -1) @ params.w_q.T).reshape(batch, n, d_model)
    d_e += (d_k.reshape(batch * n, -1) @ params.w_k.T).reshape(batch, n, d_model)
    d_e += (d_v.reshape(batch * n, -1) @ params.w_v.T).reshape(batch, n, d_model)
    # Scatter-add of d_e rows by token as a one-hot product: the same sums
    # as np.add.at, 8x faster at batch = n = d_model = 32 on one thread.
    one_hot = np.arange(params.embedding.shape[0]) == inputs.reshape(-1, 1)
    grads["embedding"] = one_hot.T @ d_e.reshape(batch * n, d_model)
    return loss, grads


def _accuracy(inputs, targets, params, config, pe, loss_pos, chunk):
    """Token accuracy, evaluated chunk sequences per forward call."""
    hits = 0
    for start in range(0, inputs.shape[0], chunk):
        logits, _ = _forward_batch(inputs[start:start + chunk], params, config,
                                   pe, loss_pos)
        hits += int(np.sum(logits.argmax(axis=-1) == targets[start:start + chunk]))
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

    A batched step allocates and frees a few MiB of arrays (at the
    defaults its peak is about 7 MiB). With glibc's dynamic thresholds the
    trim threshold follows the largest array freed so far, about 1 MiB
    here, so the freed top of the heap goes back to the kernel after every
    step and the next step page-faults its working set in again: about
    1500 faults a step, a quarter of the run spent in the kernel. This
    pins both thresholds for the rest of the process.
    """
    mallopt = _glibc_mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def init_toy_params(rng, n_symbols: int = 16, d_model: int = 32,
                    d_ff: int = 64) -> BlockParams:
    """Seeded toy-model initialization; delimiter gets the extra embedding row."""
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
                    max_steps: int = 2000, batch_size: int = 32,
                    copy_len: int = 16, n_symbols: int = 16,
                    d_model: int = 32, d_ff: int = 64, lr: float = 1e-3,
                    eval_sequences: int = 256, eval_every: int = 25,
                    target_accuracy: float = 0.99) -> TrainReport:
    """Train the toy block on the delimiter-copy task.

    Stops early once held-out token accuracy on the copied half reaches
    target_accuracy. Fully deterministic for a fixed seed and variant.
    On glibc it pins the process's malloc trim and mmap thresholds, unless
    the environment sets either (see _pin_heap).
    """
    if not attention_variant.causal:
        raise ConfigurationError("the copy task trains a causal block")
    for name, value in (("max_steps", max_steps), ("batch_size", batch_size),
                        ("copy_len", copy_len), ("eval_sequences", eval_sequences),
                        ("eval_every", eval_every)):
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")
    _pin_heap()
    init_rng, batch_rng, eval_rng = np.random.default_rng(seed).spawn(3)

    n = 2 * copy_len
    loss_pos = np.arange(copy_len, 2 * copy_len)
    # The default 1e4 base leaves most channels near-constant over a
    # 32-token window; a small base spreads the ladder across the window,
    # and boosting the amplitude lets position terms compete with the
    # unit-variance token embeddings. Both matter for the kernel variants,
    # whose attention cannot sharpen peaks the way softmax does.
    pe = 2.5 * sinusoidal_encoding(n, d_model, base=40.0)
    params = init_toy_params(init_rng, n_symbols, d_model, d_ff)
    params.validate()
    param_dict = {k: getattr(params, k) for k in
                  ("embedding", "w_q", "w_k", "w_v", "w_ff1", "w_ff2",
                   "output_proj")}
    opt = _Adam(param_dict, lr=lr)
    eval_inputs, eval_targets = _make_sequences(eval_rng, eval_sequences,
                                                copy_len, n_symbols)

    curve = []
    accuracy = 0.0
    steps_run = 0
    for step in range(1, max_steps + 1):
        inputs, targets = _make_sequences(batch_rng, batch_size, copy_len,
                                          n_symbols)
        loss, grads = _train_step(inputs, targets, params, attention_variant,
                                  pe, loss_pos)
        opt.update(param_dict, grads)
        curve.append((step, loss))
        steps_run = step
        if step % eval_every == 0 or step == max_steps:
            accuracy = _accuracy(eval_inputs, eval_targets, params,
                                 attention_variant, pe, loss_pos, batch_size)
            if accuracy >= target_accuracy:
                break
    return TrainReport(
        variant=variant_name(attention_variant),
        seed=seed,
        steps=steps_run,
        final_loss=curve[-1][1],
        token_accuracy=accuracy,
        loss_curve=curve,
    )
