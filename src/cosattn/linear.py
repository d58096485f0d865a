"""Linear-time kernel attention and its streaming causal decode.

attend is the forward of every variant, chosen by its AttentionConfig.
The kernel path computes what the quadratic references in cosattn.core
do, reassociated,

    O_i = sum_j qf_i kf_j^T V_j / max(sum_j qf_i kf_j^T, eps),

through a key-value sum instead of an n_q x n_k weight matrix, in
Theta(n * d_k * d_v) time and, beyond the output, Theta(_PANEL * d + d^2)
transient memory for a causal call (Theta(n * d + d^2) for a full one).
Owners: _scan the forward's walk, _splits which walks split their rows
by cos/sin, _record the record the backward reads, _forward the compute
dtype, CausalState the decode. The backward (cosattn.grad) walks its own
chunks through the same seams: _carry_read, _carry_update,
_reweight_chunk and _masked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    AttentionConfig,
    DEFAULT_EPS,
    FeatureMapKind,
    RELU,
    _require_kernel_config,
    _require_qkv,
    _storage_dtype,
    _softmax_weights,
    _wide,
    apply_feature_map,
    require_matrix,
)
from .errors import ConfigurationError, DimensionError
from .reweight import _require_horizon, build_reweight_matrix, decompose

# Causal chunk size C. The in-chunk masked products cost n * C * (w + d_v)
# multiply-adds for feature width w, the carry 2 * n * w * d_v whatever C
# is; 32 balances them at d = 64. Fixed, never a function of n, so a
# suffix edit leaves causal prefix rows bit-identical; and >= 32, so the
# toy trainer's n = 32 walks one chunk (see _splits).
_BLOCK = 32


# Rows per chunk of the backward's two walks (cosattn.grad). They make
# three times the forward's carry products per row and pay a larger fixed
# cost of NumPy calls per chunk, so fewer, larger chunks suit them. Fixed
# like _BLOCK.
_BACKWARD_BLOCK = 2 * _BLOCK


@lru_cache(maxsize=None)
def _causal_drop(rows: int) -> np.ndarray:
    """Boolean (rows, rows) mask of the entries j > i within one chunk."""
    drop = np.triu(np.ones((rows, rows), dtype=bool), 1)
    drop.setflags(write=False)
    return drop


@lru_cache(maxsize=16)
def _reweight_chunk(m, dtype: np.dtype) -> np.ndarray:
    """cos(pi (i - j) / 2m) over the first min(m, _BACKWARD_BLOCK)
    positions, in dtype, rounded once from float64. Its leading n x n
    block serves any chunk of n rows at horizon m: the forward's one-chunk
    walk and every backward chunk. A real m sizes it by its whole part,
    the most rows a call at m may have. Cached, since building it costs
    far more than a lookup and a training step asks for it in its forward
    and its backward, always at the run's one horizon."""
    rows = int(min(m, _BACKWARD_BLOCK))
    weight = build_reweight_matrix(rows, rows, m).astype(dtype)
    weight.setflags(write=False)
    return weight


def _splits(config: AttentionConfig, n: int, block: int) -> bool:
    """Whether a kernel walk of n rows in block-row chunks splits its
    feature rows by cos/sin under config.

    The split exists to carry the re-weight across chunks (see
    cosattn.reweight). A causal cosine walk of one chunk (n <= block) has
    no carry, so it walks d-wide phi rows and multiplies the (n, n)
    re-weight matrix (_reweight_chunk) into each masked product, as
    RetNet's chunkwise form does inside a chunk; a plain kernel never
    splits. The forward walks _BLOCK-row chunks and the backward
    _BACKWARD_BLOCK-row ones, so between the two sizes only the forward
    splits. A prefix row rounds alike at every n on its side of block.
    """
    return config.reweight.kind == "cosine" and (not config.causal or n > block)


# Rows per panel of a causal walk, each mapped as the walk reaches it, so
# no n-row feature array exists. Larger panels hold more rows at once;
# smaller ones pay a panel's fixed cost of NumPy calls more often. A whole
# number of chunks, and fixed like _BLOCK, so a walk's chunks, and so its
# sums, do not depend on the panels.
_PANEL = 4 * _BLOCK


def _scan(x, y, v, causal: bool, rows, weight=None):
    """Rows sum_j (xf_i . yf_j) vf_j over the keys each query admits,
    yielded panel by panel as (p0, p1, block), block being rows p0:p1.

    rows(x, y, v, first) maps raw rows, whose row 0 sits at the 1-based
    position first, to the (..., rows, width) rows (xf, yf, vf) the scan
    multiplies: feature rows and [v | 1], so a block's last column is the
    denominator. Each slice of the shared leading axes is scanned on its
    own, in the dtype np.result_type(xf, vf) of the first mapped panel.
    Each causal block is a view of one panel-sized buffer that the next
    panel overwrites.

    A full scan maps all rows at once and yields one product. A causal
    one admits keys j <= i and walks fixed _BLOCK-row chunks in
    _PANEL-row panels, each mapped as the walk reaches it and dropped as
    it leaves it. Each chunk takes three steps, looked up by name in this
    module, so a defect swapped for one reaches every walk that takes it:

    - _chunk_product, the masked product of the chunk's own rows, times
      weight if given (the one-chunk re-weight, see _splits);
    - _carry_read, qc @ carry over the chunks already walked; the first
      chunk's carry is None and is not read;
    - _carry_update, the carry with the chunk's kc^T vc summed in, told
      the row where the walk leaves the chunk, so a defect can act at
      panel boundaries. The last chunk walked updates nothing; the decode
      folds through it too (CausalState).

    The carry is one (feature width) x width(vf) sum per slice.
    """
    if not causal:
        xf, yf, vf = rows(x, y, v, 1)
        block = xf @ (yf.swapaxes(-1, -2) @ vf)
        del xf, yf, vf
        yield 0, x.shape[-2], block
        return
    n = x.shape[-2]
    buf = carry = None
    last = (n - 1) // _BLOCK * _BLOCK  # last chunk walked
    for p0 in range(0, n, _PANEL):
        p1 = min(p0 + _PANEL, n)
        xp, yp, vp = rows(x[..., p0:p1, :], y[..., p0:p1, :], v[..., p0:p1, :],
                          p0 + 1)
        if buf is None:
            buf = np.empty(x.shape[:-2] + (min(n, _PANEL),) + vp.shape[-1:],
                           np.result_type(xp, vp))
        block = buf[..., :p1 - p0, :]
        for start in range(0, p1 - p0, _BLOCK):
            stop = min(start + _BLOCK, p1 - p0)
            qc = xp[..., start:stop, :]
            kc = yp[..., start:stop, :]
            vc = vp[..., start:stop, :]
            dst = block[..., start:stop, :]
            _chunk_product(qc, kc, vc, dst, weight)
            _carry_read(dst, qc, carry)
            if p0 + start != last:
                carry = _carry_update(carry, kc, vc, p0 + stop)
        # The chunk views hold the mapped rows too: all of them go before
        # the caller reads the block and before the next panel is mapped.
        del xp, yp, vp, qc, kc, vc
        yield p0, p1, block


def _chunk_product(qc, kc, vc, dst, weight) -> None:
    """Write the masked product of one chunk into dst: each query's sum
    over the chunk's keys it admits (see _scan)."""
    sim = qc @ kc.swapaxes(-1, -2)
    _masked(sim, weight)
    np.matmul(sim, vc, out=dst)


def _masked(sim, weight) -> None:
    """Zero the entries j > i of one chunk's (..., rows, rows) products in
    place, then multiply in weight, a (rows, rows) re-weight, if given."""
    # copyto broadcasts the mask over the leading axes as fast as a 2-D
    # boolean index; sim[..., drop] = 0 is much slower.
    np.copyto(sim, 0.0, where=_causal_drop(sim.shape[-1]))
    if weight is not None:
        # After the mask, and every weight is positive: an overflow the
        # mask drops stays 0, not 0 * inf = NaN; one it keeps, inf.
        sim *= weight


def _carry_read(dst, qc, carry) -> None:
    """Add the chunks already walked to dst (see _scan); a None carry
    adds nothing."""
    if carry is not None:
        dst += qc @ carry


def _carry_update(carry, kc, vc, edge: int):
    """The carry with one more chunk summed in, in place unless carry is
    the empty carry None (see _scan). The shipped step ignores edge."""
    if carry is None:
        return kc.swapaxes(-1, -2) @ vc
    carry += kc.swapaxes(-1, -2) @ vc
    return carry


def _with_ones(V, dtype) -> np.ndarray:
    """[V | 1] in dtype, the scan's compute dtype: one scan of it gives the
    numerator and, in its last column, the denominator."""
    out = np.empty(V.shape[:-1] + (V.shape[-1] + 1,), dtype)
    out[..., :-1] = V
    out[..., -1] = 1.0
    return out


def _finalize(num: np.ndarray, eps: float, out: np.ndarray) -> None:
    """Divide a scanned block of [num | den] by its floored den into out,
    a (..., rows, d_v) array of num's dtype."""
    np.divide(num[..., :-1], np.maximum(num[..., -1], eps)[..., None], out=out)


_F32_TINY = float(np.finfo(np.float32).tiny)
_F32_MAX = float(np.finfo(np.float32).max)


def _kernel_scan(Q, K, V, config: AttentionConfig, dtype):
    """The output of a kernel config computed in dtype (see _forward), each
    scanned [num | den] panel divided into out as the walk leaves it."""
    n = Q.shape[-2]
    decomposed = _splits(config, n, _BLOCK)
    weight = None
    if config.reweight.kind == "cosine" and not decomposed:
        weight = _reweight_chunk(config.reweight.m, np.dtype(dtype))[:n, :n]

    def rows(q, k, v, first):
        q = apply_feature_map(q, config.feature_map)
        k = apply_feature_map(k, config.feature_map)
        if decomposed:
            q, k = decompose(q, k, config.reweight.m, first=first)
        return q, k, _with_ones(v, dtype)
    out = None
    for p0, p1, block in _scan(np.asarray(Q, dtype), np.asarray(K, dtype), V,
                               config.causal, rows, weight=weight):
        if out is None:  # after the first panel is mapped
            out = np.empty(Q.shape[:-1] + V.shape[-1:], dtype)
        _finalize(block, config.eps, out[..., p0:p1, :])
    return out


def _record(Q, K, V, config: AttentionConfig) -> dict:
    """The record of one call: the config and Q, K and V, checked as attend
    checks them (see _forward)."""
    Q = require_matrix(Q, "Q", stack=True)
    K = require_matrix(K, "K", stack=True)
    V = require_matrix(V, "V", stack=True)
    _require_qkv(Q, K, V, config.causal)
    if not config.use_softmax and config.reweight.kind == "cosine":
        _require_horizon(max(Q.shape[-2], K.shape[-2]), config.reweight.m)
    return dict(config=config, Q=Q, K=K, V=V)


def _forward(Q, K, V, config: AttentionConfig):
    """attend's output and the call's record: (out, record).

    The record holds what cosattn.grad._backward reads, the config and
    the validated Q, K and V; the backward recomputes the rest.

    The compute dtype is chosen once, before the walk: float32 for float32
    storage under a non-negative map (relu, elu_plus_one) with eps a
    normal float32 (else eps rounds to 0 or inf) and n_k * A * B *
    max(1, max|V|) below half the float32 maximum, A and B being
    max(1, sqrt(d_k) * phi(max X)) for X = Q and K (phi rises, so that is
    the largest feature entry); else float64, since a sign-indefinite map
    may cancel in its denominators. Features and cos/sin factors are
    non-negative, so no sum the walk forms exceeds that product
    (Cauchy-Schwarz; a max with 1 covers the carry, which has no query
    factor, and the denominators) and a float32 scan cannot overflow.
    The bound reads the whole call: a suffix edit can move it to float64.
    """
    record = _record(Q, K, V, config)
    Q, K, V = record["Q"], record["K"], record["V"]
    if config.use_softmax:
        out = _softmax_weights(Q, K, config.causal) @ _wide(V)
    else:
        dtype = np.float64
        if _storage_dtype(Q, K, V) == np.float32 and config.feature_map.nonnegative \
                and _F32_TINY <= config.eps <= _F32_MAX:
            A, B = (max(1.0, math.sqrt(X.shape[-1]) * float(apply_feature_map(
                np.float64(X.max()), config.feature_map))) for X in (Q, K))
            if K.shape[-2] * A * B * max(1.0, float(V.max()), -float(V.min())) \
                    < _F32_MAX / 2:
                dtype = np.float32
        out = _kernel_scan(Q, K, V, config, dtype)
    return out.astype(_storage_dtype(Q, K, V), copy=False), record


def attend(Q, K, V, config: AttentionConfig) -> np.ndarray:
    """Attention under config: the one forward every variant runs through.

    Q (..., n_q, d_k), K (..., n_k, d_k) and V (..., n_k, d_v) share
    their leading axes, and each slice is attended on its own; returns
    (..., n_q, d_v) in the inputs' storage dtype. A softmax config runs
    the scaled dot-product reference, any other the kernel scan. Raises
    DimensionError on mismatched shapes, ValueError on complex or
    non-finite inputs, ConfigurationError on a horizon below n.
    """
    return _forward(Q, K, V, config)[0]


def linear_attention(Q, K, V, feature_map: FeatureMapKind = RELU,
                     causal: bool = False, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Kernel attention without positional re-weighting, as attend."""
    return attend(Q, K, V, AttentionConfig.linear(feature_map, causal, eps))


def _require_cosine_config(config: AttentionConfig, op: str) -> None:
    _require_kernel_config(config)
    if config.reweight.kind != "cosine":
        raise ConfigurationError(f"{op} requires a cosine reweight scheme")


def cosformer_attention(Q, K, V, config: AttentionConfig) -> np.ndarray:
    """Cosine-reweighted linear attention, as attend (the identity is in
    cosattn.reweight). Requires a cosine reweight scheme, whose horizon m
    must be >= max(n_q, n_k), and a non-negative feature map."""
    _require_cosine_config(config, "cosformer_attention")
    return attend(Q, K, V, config)


@dataclass
class CausalState:
    """State of a causal cosformer decode of one 2-D sequence.

    It is what the batch scan holds inside a chunk: carry
    (2 d_k x (d_v + 1)), the sum over the whole chunks before the current
    one; keys (_BLOCK x 2 d_k) and vals (_BLOCK x (d_v + 1), ones in the
    last column), the current chunk's rows, position t in row
    (t - 1) % _BLOCK. A step writes its rows and returns
    qf @ carry + (keys qf) @ vals, Theta(_BLOCK * (d_k + d_v) + d_k * d_v);
    the first step of each later chunk folds the full chunk into carry
    through _scan's _carry_update, so the chunks are the batch scan's.
    config, the decode's cosformer config, is fixed from m and eps by the
    first accepted step, since the rows summed were scaled at that horizon.

    Single-owner: step one position at a time; the state may move between
    execution contexts between steps but must not be stepped concurrently.
    """

    carry: np.ndarray
    keys: np.ndarray
    vals: np.ndarray
    t: int = field(default=0)
    config: AttentionConfig | None = field(default=None, init=False)

    @property
    def d_k(self) -> int:
        return self.carry.shape[0] // 2

    @property
    def d_v(self) -> int:
        return self.carry.shape[1] - 1


def causal_state_init(d_k: int, d_v: int) -> CausalState:
    """Fresh all-zero state for a decode with the given key/value widths."""
    if d_k < 1 or d_v < 1:
        raise DimensionError(f"need d_k, d_v >= 1, got {d_k}, {d_v}")
    vals = np.zeros((_BLOCK, d_v + 1))
    vals[:, -1] = 1.0
    return CausalState(carry=np.zeros((2 * d_k, d_v + 1)),
                       keys=np.zeros((_BLOCK, 2 * d_k)), vals=vals)


def causal_state_step(state: CausalState, q_t, k_t, v_t, m: int,
                      eps: float = DEFAULT_EPS):
    """Advance the decode one position and return (state, output row).

    q_t, k_t (d_k,) and v_t (d_v,) are relu-mapped here; the output row
    is (d_v,) float64, and the state is updated in place. Raises
    DimensionError on a wrong shape, ValueError on a complex or non-finite
    row, ConfigurationError on a position past m, an invalid m or eps, or
    one other than the first step's; a refused step changes nothing.
    """
    config = state.config
    if config is None:
        config = AttentionConfig.cosformer(m, causal=True, eps=eps)
    elif m != config.reweight.m or eps != config.eps:
        raise ConfigurationError(
            f"this decode runs at m={config.reweight.m}, eps={config.eps!r}; "
            f"got m={m}, eps={eps!r}")
    q_t, k_t, v_t = np.asarray(q_t), np.asarray(k_t), np.asarray(v_t)
    d = state.d_k
    if q_t.shape != (d,) or k_t.shape != (d,):
        raise DimensionError(
            f"q_t and k_t must have shape ({d},), got "
            f"{q_t.shape} and {k_t.shape}")
    if v_t.shape != (state.d_v,):
        raise DimensionError(f"v_t must have shape ({state.d_v},), got {v_t.shape}")
    if "c" in (q_t.dtype.kind, k_t.dtype.kind, v_t.dtype.kind):
        raise ValueError("step rows must be real, not complex")
    # The cast np.asarray(x, np.float64) makes; complex was refused above.
    row = np.concatenate((q_t, k_t, v_t), dtype=np.float64, casting="unsafe")
    if not np.isfinite(row).all():
        raise ValueError("step rows contain non-finite entries")
    pos = state.t + 1
    _require_horizon(pos, m)

    state.config = config
    r = state.t % _BLOCK
    if r == 0 and state.t:
        state.carry = _carry_update(state.carry, state.keys, state.vals, state.t)
    angle = (np.pi * pos) / (2.0 * m)
    # Row 0 is [q cos | q sin], row 1 [k cos | k sin], of the relu rows.
    feats = (np.maximum(row[:2 * d], 0.0).reshape(2, 1, d)
             * np.array([[math.cos(angle)], [math.sin(angle)]])).reshape(2, 2 * d)
    qf = feats[0]
    state.keys[r] = feats[1]
    state.vals[r, :-1] = row[2 * d:]
    state.t = pos
    r += 1
    out = qf @ state.carry + (state.keys[:r] @ qf) @ state.vals[:r]
    return state, out[:-1] / max(out[-1], eps)
