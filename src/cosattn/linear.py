"""Linear-time kernel attention and its streaming causal form.

:func:`attend` is the forward for every variant: it picks the softmax
reference or the kernel path from its AttentionConfig, and
linear_attention, cosformer_attention and core.softmax_attention are
one-line wrappers around it. The kernel path computes exactly what the
quadratic references in :mod:`cosattn.core` do, reassociating the sums:

    O_i = sum_j qf_i kf_j^T V_j / max(sum_j qf_i kf_j^T, eps)

is evaluated through a key-value sum instead of an n_q x n_k weight
matrix. For plain kernels qf, kf are phi(Q), phi(K); for the cosine
re-weight they are the 2d-wide cos/sin-scaled rows of
:func:`cosattn.reweight.decompose`, whose inner products carry the
re-weight exactly (except in a causal walk of one chunk, see
_one_chunk_weight). One scan of [V | 1] gives the numerator and, in its
last column, the denominator. :func:`_scan` owns the walk: its chunks,
its panels, the carry between chunks and the three steps that build
it. The analytic backward in :mod:`cosattn.grad` runs the same scan
with mappings of its own, from the record the private _forward keeps
of the forward: attend is that forward with its record dropped, and
_forward owns the compute-dtype rule. The streaming :class:`CausalState`
decodes one 2-D sequence with the scan's carry and its update step.

Cost is Theta(n * d_k * d_v). The forward divides each panel the scan
hands back into the output as the walk leaves it, so beyond the output
and an n-vector of denominators a causal forward's transient allocation
is Theta(_PANEL * d + d^2) whatever n is, a non-causal one's
Theta(n * d + d^2), and never Theta(n^2).

Q (..., n_q, d_k), K (..., n_k, d_k) and V (..., n_k, d_v) may carry
any leading (batch, head, ...) axes, shared by all three; every slice is
attended on its own, in one call, with the arithmetic of a 2-D call on
that slice.

Checks run once, at the public boundary: _forward, under attend and
attend_backward alike, validates Q, K and V, through
:func:`cosattn.core._require_qkv` their shapes, and a cosine config's
horizon, all before any work; causal_state_step checks its rows and
position, and that m and eps are the ones its state's first step fixed,
before it changes its state. _scan checks nothing, but the forward
walk's :func:`cosattn.reweight.decompose` checks each panel again.
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

# Causal chunk size C. Per scan the in-chunk masked products cost about
# n * C * (w + d_v) multiply-adds for feature width w, and the carried
# state about 2 * n * w * d_v whatever C is. At cosformer's w = 128,
# d_v + 1 = 65 (d = 64) and n = 4096, on one BLAS thread, C = 128 made
# the masked products about as costly as the carry; C = 32 took a third
# off the causal forward and backward, and beat 16, 24, 48 and 64 there.
# It stays one fixed value: C never depends on n, because fixed
# boundaries keep causal prefix rows bit-identical under suffix edits,
# and it stays >= 32 so the toy trainer's n = 32 is one chunk, which
# skips the cos/sin decomposition (see _one_chunk_weight): about 40 % off
# one forward+backward on the toy's (32, 32, 32) stack. Other widths
# have other optima (C = 48 to 64 at d = 16, C = 16 to 24 at d = 128);
# no benchmark workload runs them, so no width-dependent choice is made.
_BLOCK = 32


@lru_cache(maxsize=None)
def _causal_drop(rows: int) -> np.ndarray:
    """Boolean (rows, rows) mask of the entries j > i within one chunk."""
    drop = np.triu(np.ones((rows, rows), dtype=bool), 1)
    drop.setflags(write=False)
    return drop


@lru_cache(maxsize=16)
def _reweight_chunk(m: int, dtype: np.dtype) -> np.ndarray:
    """cos(pi (i - j) / 2m) over the first min(m, _BLOCK) positions, in
    dtype (rounded once from float64). It depends on i - j alone, so its
    leading n x n block serves any one-chunk walk at horizon m, and it is
    symmetric, so a suffix walk reads it as it is. Cached: building the
    32 x 32 matrix takes about 19 us against 1 us for a hit (one BLAS
    thread), and a toy forward+backward of about 2.1 ms asks for it twice;
    a training run uses one horizon, so a few entries suffice."""
    rows = min(m, _BLOCK)
    weight = build_reweight_matrix(rows, rows, m).astype(dtype)
    weight.setflags(write=False)
    return weight


def _one_chunk_weight(config: AttentionConfig, n: int, dtype):
    """(weight, decomposed) for a walk of n rows under config, weight the
    (n, n) re-weight it multiplies into its masked product or None, and
    decomposed whether it maps its feature rows through decompose. Only a
    causal cosine walk of one chunk takes the weight: with no carry to
    ride, the re-weight needs no cos/sin decomposition, so the walk scans
    d-wide phi rows. Every other cosine walk decomposes, and a plain
    kernel does neither. The forward and every backward walk ask here, so
    they all take the same path."""
    if config.reweight.kind != "cosine":
        return None, False
    if config.causal and n <= _BLOCK:
        return _reweight_chunk(config.reweight.m, np.dtype(dtype))[:n, :n], False
    return None, True


# Rows per panel of the causal walk: each panel's rows are feature-mapped,
# position-scaled and given their ones column inside the walk, so no
# n-row feature array is ever built. At n = 4096, d = 64 (causal float32
# cosformer, one BLAS thread) the forward peaks under tracemalloc at
# 1.28 MiB, 1 MiB of it the output, against 6.13 MiB for whole-length
# features; 64-, 256-, 512- and 1024-row panels peak at 1.18, 1.50, 1.94
# and 2.83 MiB. Each panel pays a fixed cost of about thirty NumPy calls
# (two feature maps, decompose's checks, its cos/sin table and its two
# one-call scalings, [V | 1], the overflow check and the divide), about
# 30 us on a 2-vCPU shared host: in one process, 128-row panels ran about
# 10 % slower than 256-row ones, and 64-row ones about 20 % slower again. Against the
# two-multiply scaling at 256 rows they ran no slower in the benchmark's
# prefill_long (paired fresh-process runs). A whole number of chunks, and
# fixed like _BLOCK, never a function of n: the chunks of a walk, and so
# its sums, do not depend on the panels.
_PANEL = 4 * _BLOCK


def _scan(x, y, v, causal: bool, rows, suffix: bool = False, out=None,
          weight=None):
    """Rows sum_j (xf_i . yf_j) vf_j over the keys each query admits,
    yielded panel by panel as (p0, p1, block), block being rows p0:p1.

    rows(x, y, v, first) maps raw rows, whose row 0 sits at the 1-based
    position first, to the rows (xf, yf, vf) the scan multiplies. A
    forward's maps x, y to feature rows and v to [v | 1] (_kernel_scan),
    so a block's last column is the denominator sum_j xf_i . yf_j; the
    backward's build its gradients' rows (see grad._backward). All
    three are (..., n, width) stacks sharing their leading axes, and every
    slice is scanned on its own. The sums take their width from vf and
    their dtype, np.result_type(xf, vf), from the first mapped panel:
    float32 for the forward's float32 path, float64 everywhere else.
    With out, a (..., n, width(vf)) array of that dtype, each block is
    out[..., p0:p1, :] and the scan fills out; without it, each causal
    block is a view of one panel-sized buffer that the next panel
    overwrites, so the caller reads a block before it asks for the next.

    The non-causal path maps all rows at once and is one product, yielded
    as one block. The causal path admits keys j <= i (j >= i with suffix)
    and walks fixed _BLOCK-row chunks, last to first for a suffix, in
    _PANEL-row panels, each mapped as the walk reaches it and yielded,
    its mapped rows dropped, as the walk leaves it; a walk over at most
    _PANEL rows yields one block. Each chunk takes three steps, looked up
    by name in this module, so a defect swapped for one of them breaks
    the forward and every backward walk alike:

    - _chunk_product, the masked product of the chunk's own rows (the
      weight, if any, multiplied in after the mask). Swapping it breaks
      every causal walk.
    - _carry_read, the chunks already walked: qc @ carry, with no read
      for the empty carry (None) of the first chunk. Swapping it breaks
      every walk past one chunk.
    - _carry_update, the carry after the chunk: kc^T vc, summed into the
      carry after the first chunk; the last chunk walked updates nothing.
      It is told the row where the walk leaves the chunk, so a defect
      can act at panel boundaries. Swapping it breaks every walk past
      one chunk and, since CausalState folds its chunks through it too,
      the decode past _BLOCK tokens.

    The carry is one (feature width) x width(vf) sum per slice. _BLOCK is
    fixed, so a suffix edit at fixed n leaves every prefix row
    bit-identical, and a prefix row rounds alike at every n on the same
    side of _BLOCK (a causal cosine walk of one chunk is weighted, not
    decomposed; see _one_chunk_weight).

    weight, an (n, n) array of the scan's dtype or None, is the re-weight
    of a causal walk of one chunk (n <= _BLOCK; see _one_chunk_weight).
    It is symmetric, so a suffix walk reads it unchanged.
    """
    if not causal:
        xf, yf, vf = rows(x, y, v, 1)
        block = np.matmul(xf, yf.swapaxes(-1, -2) @ vf, out=out)
        del xf, yf, vf
        yield 0, x.shape[-2], block
        return
    n = x.shape[-2]
    buf = carry = None
    last = 0 if suffix else (n - 1) // _BLOCK * _BLOCK  # last chunk walked
    panels = range(0, n, _PANEL)
    for p0 in panels[::-1] if suffix else panels:
        p1 = min(p0 + _PANEL, n)
        xp, yp, vp = rows(x[..., p0:p1, :], y[..., p0:p1, :], v[..., p0:p1, :],
                          p0 + 1)
        if out is None and buf is None:
            buf = np.empty(x.shape[:-2] + (min(n, _PANEL),) + vp.shape[-1:],
                           np.result_type(xp, vp))
        block = buf[..., :p1 - p0, :] if out is None else out[..., p0:p1, :]
        chunks = range(0, p1 - p0, _BLOCK)
        for start in chunks[::-1] if suffix else chunks:
            stop = min(start + _BLOCK, p1 - p0)
            qc = xp[..., start:stop, :]
            kc = yp[..., start:stop, :]
            vc = vp[..., start:stop, :]
            dst = block[..., start:stop, :]
            _chunk_product(qc, kc, vc, dst, suffix, weight)
            _carry_read(dst, qc, carry)
            if p0 + start != last:
                carry = _carry_update(carry, kc, vc, p0 + (start if suffix else stop))
        # The chunk views hold the mapped rows too: all of them go before
        # the caller reads the block and before the next panel is mapped.
        del xp, yp, vp, qc, kc, vc
        yield p0, p1, block


def _chunk_product(qc, kc, vc, dst, suffix: bool, weight) -> None:
    """Write the masked product of one chunk into dst: each query's sum
    over the chunk's keys it admits (see _scan)."""
    sim = qc @ kc.swapaxes(-1, -2)
    drop = _causal_drop(qc.shape[-2])
    # copyto broadcasts the mask over the leading axes as fast as a 2-D
    # boolean index; sim[..., drop] = 0 is about 10x slower.
    np.copyto(sim, 0.0, where=drop.T if suffix else drop)
    if weight is not None:
        # After the mask, and every weight is positive: an overflow the
        # mask drops stays 0, not 0 * inf = NaN; one it keeps, inf.
        sim *= weight
    np.matmul(sim, vc, out=dst)


def _carry_read(dst, qc, carry) -> None:
    """Add the chunks already walked to dst (see _scan)."""
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
    """(out, den) of a kernel config, computed in dtype: each panel maps to
    phi(q), phi(k) (decomposed for a cosine config, unless a causal walk of
    one chunk takes the re-weight matrix instead) and [v | 1], and each
    scanned [num | den] block is divided into out, and its den column
    copied into den, as the walk leaves it. None from a float32 scan once a
    block is not finite, before the rest is scanned."""
    weight, decomposed = _one_chunk_weight(config, Q.shape[-2], dtype)

    def rows(q, k, v, first):
        q = apply_feature_map(q, config.feature_map)
        k = apply_feature_map(k, config.feature_map)
        if decomposed:
            q, k = decompose(q, k, config.reweight.m, first=first)
        return q, k, _with_ones(v, dtype)
    out = den = None
    for p0, p1, block in _scan(np.asarray(Q, dtype), np.asarray(K, dtype), V,
                               config.causal, rows, weight=weight):
        if dtype == np.float32 and not np.isfinite(block).all():
            return None
        if out is None:  # after the first panel is mapped
            out = np.empty(Q.shape[:-1] + V.shape[-1:], dtype)
            den = np.empty(Q.shape[:-1], dtype)
        _finalize(block, config.eps, out[..., p0:p1, :])
        den[..., p0:p1] = block[..., -1]
    return out, den


def _forward(Q, K, V, config: AttentionConfig):
    """attend's output plus what the backward needs of it: (out, record).

    The record is a dict for :func:`cosattn.grad._backward`, which takes
    its arrays out as it goes, so one record serves one backward. It has
    one shape per config: the config and the validated Q, K and V, then
    for softmax the weight matrix W, and for a kernel the output ``out``
    and the unfloored denominator ``den`` (n scalars per slice), both in
    the compute dtype. No n-row [num | den] exists: the scan hands each
    panel's over as it leaves it (see _kernel_scan). out is a fresh
    array, and when the compute dtype is the storage dtype the returned
    out is the record's out, so it must not be edited in place while the
    record lives. No feature rows and no [V | 1] are kept: the backward
    maps Q and K again in the compute dtype, bit-identically.

    A kernel forward scans float32 storage in float32 under a non-negative
    map (relu, elu_plus_one) with eps a normal float32 (else eps rounds to
    0 or inf), and all else in float64, since a sign-indefinite map may
    cancel in its denominators. With finite inputs and non-negative finite
    features a float32 scan fails only by overflowing, and the scanned
    [num | den] shows it: an inf in an unmasked similarity, in the carry
    or in a product arrives there as inf or NaN (0 * inf is NaN); one in a
    masked similarity is zeroed and affects nothing. At the first panel
    that shows it the whole call is scanned again in float64; num is
    checked, not out, as an overflowed den over a finite num divides to a
    finite 0. So a suffix edit that overflows, or one such slice of a
    stack, moves the whole call to float64.
    """
    Q = require_matrix(Q, "Q", stack=True)
    K = require_matrix(K, "K", stack=True)
    V = require_matrix(V, "V", stack=True)
    _require_qkv(Q, K, V, config.causal)
    record = dict(config=config, Q=Q, K=K, V=V)
    if config.use_softmax:
        record["W"] = _softmax_weights(Q, K, config.causal)
        out = record["W"] @ _wide(V)
    else:
        if config.reweight.kind == "cosine":
            _require_horizon(max(Q.shape[-2], K.shape[-2]), config.reweight.m)
        scanned = None
        if _storage_dtype(Q, K, V) == np.float32 and config.feature_map.nonnegative \
                and _F32_TINY <= config.eps <= _F32_MAX:
            with np.errstate(over="ignore", invalid="ignore"):  # num shows overflow
                scanned = _kernel_scan(Q, K, V, config, np.float32)
        if scanned is None:
            scanned = _kernel_scan(Q, K, V, config, np.float64)
        out, den = scanned
        record.update(out=out, den=den)
    return out.astype(_storage_dtype(Q, K, V), copy=False), record


def attend(Q, K, V, config: AttentionConfig) -> np.ndarray:
    """Attention under config: the one forward every variant runs through.

    Q, K and V are (..., n, d) stacks sharing their leading axes; the
    result is (..., n_q, d_v) in the inputs' storage dtype. A softmax
    config runs the scaled dot-product softmax reference; any other
    config runs the linear-time kernel scan, on cosformer's 2d-wide rows
    when the reweight scheme is cosine. It keeps no record for a
    backward; a training step calls _forward instead.
    """
    return _forward(Q, K, V, config)[0]


def linear_attention(Q, K, V, feature_map: FeatureMapKind = RELU,
                     causal: bool = False, eps: float = DEFAULT_EPS) -> np.ndarray:
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

    The state is what the batch causal scan holds inside a chunk (see
    _scan): ``carry`` (2 d_k x (d_v + 1)), zero until the first fold,
    is the scan's carry over every whole chunk before the current one,
    folded by the scan's own _carry_update, and ``keys`` (_BLOCK x 2 d_k)
    and ``vals`` (_BLOCK x (d_v + 1), ones in the last column) hold the
    current chunk's rows: position t sits in row (t - 1) % _BLOCK, and
    the rows after it hold the previous chunk until overwritten. ``config``
    is the cosformer config of the decode, set by the first accepted step
    from its m and eps; every later step must pass the same two, since the
    rows already summed were scaled at that horizon.

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
    """Advance one position and return (state, output row).

    Rows are feature-mapped internally with relu. Every check runs before
    the state changes, so a refused step leaves it as it was. The state is
    updated in place and returned. The new key and value rows go into the
    chunk buffer, and the output is qf @ carry plus the in-chunk part
    (keys qf) @ vals: a step costs Theta(_BLOCK * (d_k + d_v)) plus one
    Theta(d_k * d_v) read of the carry, and once every _BLOCK steps a
    Theta(_BLOCK * d_k * d_v) fold of the full chunk into the carry,
    however many steps came before. Chunk boundaries are the batch scan's.
    Raises if the next position would exceed the horizon m, or if m or eps
    differ from the first step's.
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
