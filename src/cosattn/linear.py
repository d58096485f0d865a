"""Linear-time kernel attention and its streaming causal form.

:func:`attend` is the forward for every variant: it picks the softmax
reference or the kernel path from its AttentionConfig, and
linear_attention and cosformer_attention are one-line wrappers around
it. The kernel path computes exactly the same quantity as the quadratic
references in :mod:`cosattn.core`, but by reassociating the sums:

    O_i = sum_j qf_i kf_j^T V_j / max(sum_j qf_i kf_j^T, eps)

is evaluated through a key-value sum instead of an n_q x n_k weight
matrix. For plain kernels qf, kf are phi(Q), phi(K); for the cosine
re-weight they are the 2d-wide cos/sin-scaled rows of
:func:`cosattn.reweight.decompose`, whose inner products carry the
re-weight exactly. Either way one scan over one feature pair does the
work: it scans [V | 1], so the numerator and the denominator come out
of one (feature width) x (d_v + 1) sum, whose ones column is the key
total. The analytic backward in :mod:`cosattn.grad` runs the same scan.
Cost is Theta(n * d_k * d_v); peak transient allocation is
Theta(n * d + d^2) (the causal path scans in fixed-size blocks) and never
Theta(n^2). Accumulation is float64 throughout.

Q (..., n_q, d_k), K (..., n_k, d_k) and V (..., n_k, d_v) may carry
any leading (batch, head, ...) axes, shared by all three; every slice is
attended on its own, in one call, with the arithmetic of a 2-D call on
that slice. The streaming :class:`CausalState` decodes one 2-D sequence.

Checks run once, at the public boundary: attend validates Q, K and V,
then :func:`cosattn.reweight.decompose` checks the horizon;
causal_state_step checks its rows and position. _scan checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    AttentionConfig,
    AttentionDims,
    FeatureMapKind,
    RELU,
    _require_kernel_config,
    _require_eps,
    _storage_dtype,
    _wide,
    apply_feature_map,
    require_matrix,
    softmax_attention,
)
from .errors import ConfigurationError, DimensionError
from .reweight import _require_horizon, decompose

# Causal chunk size. Any fixed value gives the same chunk boundaries on
# every call, which keeps prefix rows bit-identical under suffix edits.
_BLOCK = 128


@lru_cache(maxsize=None)
def _causal_drop(rows: int) -> np.ndarray:
    """Boolean (rows, rows) mask of the entries j > i within one chunk."""
    drop = np.triu(np.ones((rows, rows), dtype=bool), 1)
    drop.setflags(write=False)
    return drop


def _scan(qf, kf, v, causal: bool, suffix: bool = False):
    """Rows sum_j (qf_i . kf_j) v_j over the keys each query admits, float64.

    qf and kf are kernel feature rows: phi(Q), phi(K) for plain kernels,
    the 2d-wide cos/sin-scaled rows for the cosine decomposition. All
    three are (..., n, width) stacks sharing their leading axes, and
    every slice is scanned on its own. The causal path admits keys
    j <= i (j >= i with suffix) and walks fixed-size chunks, last to
    first for a suffix: the triangular part inside a chunk is a masked
    product, and the chunks already walked enter through one running
    (feature width) x d_v key-value sum per slice, so transient buffers
    stay constant-size in n. Scanning a ones column of v gives the
    denominator sum_j qf_i . kf_j.
    """
    if not causal:
        return qf @ (kf.swapaxes(-1, -2) @ v)
    n_q = qf.shape[-2]
    out = np.empty(qf.shape[:-1] + (v.shape[-1],))
    state = None
    walk = range(0, n_q, _BLOCK)
    if suffix:
        walk = walk[::-1]
    for start in walk:
        stop = min(start + _BLOCK, n_q)
        qc = qf[..., start:stop, :]
        kc = kf[..., start:stop, :]
        vc = v[..., start:stop, :]
        sim = qc @ kc.swapaxes(-1, -2)
        drop = _causal_drop(stop - start)
        # copyto broadcasts the mask over the leading axes as fast as a
        # 2-D boolean index; sim[..., drop] = 0 is about 10x slower.
        np.copyto(sim, 0.0, where=drop.T if suffix else drop)
        out[..., start:stop, :] = sim @ vc
        # The state is zero in the first chunk walked and unread after
        # the last, so a one-chunk scan is two products, not four, and
        # allocates no state.
        if state is not None:
            out[..., start:stop, :] += qc @ state
        if start != walk[-1]:
            kv = kc.swapaxes(-1, -2) @ vc
            if state is None:
                state = kv
            else:
                state += kv
    return out


def _with_ones(V) -> np.ndarray:
    """[V | 1] in float64: one scan of it gives the numerator and, in its
    last column, the denominator."""
    out = np.empty(V.shape[:-1] + (V.shape[-1] + 1,))
    out[..., :-1] = V
    out[..., -1] = 1.0
    return out


def _finalize(num: np.ndarray, den: np.ndarray, eps: float) -> np.ndarray:
    """Divide num by the floored denominator, in place."""
    num /= np.maximum(den, eps)[..., None]
    return num


def attend(Q, K, V, config: AttentionConfig) -> np.ndarray:
    """Attention under config: the one forward every variant runs through.

    Q, K and V are (..., n, d) stacks sharing their leading axes; the
    result is (..., n_q, d_v) in the inputs' storage dtype. A softmax
    config runs core.softmax_attention; any other config runs the
    linear-time kernel scan, on cosformer's 2d-wide rows when the
    reweight scheme is cosine.
    """
    if config.use_softmax:
        return softmax_attention(Q, K, V, config.causal, config.softmax_scale)
    Q = require_matrix(Q, "Q", stack=True)
    K = require_matrix(K, "K", stack=True)
    V = require_matrix(V, "V", stack=True)
    AttentionDims.from_qkv(Q, K, V, config.causal)
    qf, kf = (apply_feature_map(_wide(X), config.feature_map) for X in (Q, K))
    if config.reweight.kind == "cosine":
        qf, kf = decompose(qf, kf, config.reweight.m)
    num = _scan(qf, kf, _with_ones(V), config.causal)
    out = _finalize(num[..., :-1], num[..., -1], config.eps)
    return out.astype(_storage_dtype(Q, K, V), copy=False)


def linear_attention(Q, K, V, feature_map: FeatureMapKind = RELU,
                     causal: bool = False, eps: float = 1e-6) -> np.ndarray:
    """Kernel attention without positional re-weighting, in linear time.

    Q, K and V are (..., n, d) stacks sharing their leading axes; the
    result is (..., n_q, d_v). Each slice agrees with
    kernel_attention_quadratic under a reweight-free config up to
    accumulation order.
    """
    return attend(Q, K, V, AttentionConfig.linear(feature_map, causal, eps))


def _require_cosine_config(config: AttentionConfig, op: str) -> None:
    _require_kernel_config(config)
    if config.reweight.kind != "cosine":
        raise ConfigurationError(f"{op} requires a cosine reweight scheme")


def cosformer_attention(Q, K, V, config: AttentionConfig) -> np.ndarray:
    """Cosine-reweighted linear attention.

    Feature rows are widened to 2d cos/sin-scaled rows (see
    :mod:`cosattn.reweight`), after which the re-weighted similarity is
    one plain kernel product and streams like any linear attention.
    Q, K and V are (..., n, d) stacks sharing their leading axes, as in
    linear_attention. Requires a cosine reweight scheme with horizon
    m >= max(n_q, n_k) and a non-negative feature map.
    """
    _require_cosine_config(config, "cosformer_attention")
    return attend(Q, K, V, config)


@dataclass
class CausalState:
    """Carry of a causal cosformer decode of one sequence, one row at a time.

    ``s`` (2 d_k x d_v) sums kf_j v_j^T and ``z`` (2 d_k) sums kf_j over
    the t positions seen so far, kf_j being key j's cos/sin-scaled
    feature row: the value columns and the ones column of what the batch
    causal scan carries between chunks.

    Single-owner: step one position at a time; the state may move between
    execution contexts between steps but must not be stepped concurrently.
    """

    s: np.ndarray
    z: np.ndarray
    t: int = field(default=0)

    @property
    def d_k(self) -> int:
        return self.s.shape[0] // 2

    @property
    def d_v(self) -> int:
        return self.s.shape[1]


def causal_state_init(d_k: int, d_v: int) -> CausalState:
    """Fresh all-zero state for a decode with the given key/value widths."""
    if d_k < 1 or d_v < 1:
        raise DimensionError(f"need d_k, d_v >= 1, got {d_k}, {d_v}")
    return CausalState(s=np.zeros((2 * d_k, d_v)), z=np.zeros(2 * d_k))


def causal_state_step(state: CausalState, q_t, k_t, v_t, m: int,
                      eps: float = 1e-6):
    """Advance one position and return (state, output row).

    Rows are feature-mapped internally with relu. The state is updated in
    place and returned; per-step cost is Theta(d_k * d_v) independent of
    how many steps came before. Raises if the next position would exceed
    the horizon m.
    """
    _require_eps(eps)
    q_t = np.asarray(q_t, dtype=np.float64)
    k_t = np.asarray(k_t, dtype=np.float64)
    v_t = np.asarray(v_t, dtype=np.float64)
    d = state.d_k
    if q_t.shape != (d,) or k_t.shape != (d,):
        raise DimensionError(
            f"q_t and k_t must have shape ({d},), got "
            f"{q_t.shape} and {k_t.shape}")
    if v_t.shape != (state.d_v,):
        raise DimensionError(f"v_t must have shape ({state.d_v},), got {v_t.shape}")
    if not (np.isfinite(q_t).all() and np.isfinite(k_t).all() and np.isfinite(v_t).all()):
        raise ValueError("step rows contain non-finite entries")
    pos = state.t + 1
    _require_horizon(pos, m)

    angle = (np.pi * pos) / (2.0 * m)
    cos_sin = np.array([[np.cos(angle)], [np.sin(angle)]])
    qf = (cos_sin * np.maximum(q_t, 0.0)).ravel()
    kf = (cos_sin * np.maximum(k_t, 0.0)).ravel()
    # One d_k x d_v outer product per half keeps the step's transient at
    # d_k x d_v; a single 2d_k x d_v outer product would double it.
    state.s[:d] += np.outer(kf[:d], v_t)
    state.s[d:] += np.outer(kf[d:], v_t)
    state.z += kf
    state.t = pos
    return state, (qf @ state.s) / max(qf @ state.z, eps)
