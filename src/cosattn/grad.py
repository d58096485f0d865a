"""Analytic backward passes and finite-difference checking.

attend_backward is the backward of every variant. It checks its inputs
as attend does (cosattn.linear._record) and hands that record to
_backward, running no forward; the toy trainer, which needs the output
too, hands _backward the record its forward returned. The kernel
backward is two walks over fixed chunks, a prefix walk that recomputes
each chunk's output beside dQ and a suffix walk that finishes dK and dV
(see _backward), so it builds no n x n matrix and costs
Theta(n * d_k * d_v). The relu gate takes subgradient 0 at exactly 0
(leaky its negative-side slope), and a denominator at or below eps is a
constant, contributing zero gradient."""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AttentionConfig,
    DEFAULT_EPS,
    FeatureMapKind,
    RELU,
    _softmax_weights,
    _wide,
    apply_feature_map,
    require_matrix,
)
from .errors import ConfigurationError, DimensionError
from . import linear as _linear
from .linear import (
    _BACKWARD_BLOCK,
    _record,
    _require_cosine_config,
    _splits,
    _with_ones,
)
from .reweight import _position_scaled, position_factors


def feature_map_derivative(x: np.ndarray, kind: FeatureMapKind) -> np.ndarray:
    """Elementwise derivative of the feature map at x, float64."""
    x = np.asarray(x, dtype=np.float64)
    if kind.name == "identity":
        return np.ones_like(x)
    if kind.name == "relu":
        return (x > 0.0).astype(np.float64)
    if kind.name == "leaky_relu":
        return np.where(x > 0.0, 1.0, kind.slope)
    return np.where(x < 0.0, np.exp(np.minimum(x, 0.0)), 1.0)


def _check_d_out(d_out, shape: tuple) -> np.ndarray:
    """d_out must have the forward output's shape, leading axes and all,
    so a mis-batched d_out cannot broadcast."""
    d_out = require_matrix(d_out, "d_out", stack=True)
    if d_out.shape != shape:
        raise DimensionError(f"d_out must have shape {shape}, got {d_out.shape}")
    return d_out


def _backward(record: dict, d_out):
    """Gradients (dQ, dK, dV) of sum(d_out * out) for the call whose
    record cosattn.linear._record made. Checks only d_out. Arrays leave
    the record as they are read, so it serves one call.

    A softmax config recomputes its weight matrix. A kernel config runs
    two walks over _BACKWARD_BLOCK-row chunks, in float64 from the
    widened inputs, so float32 inputs get the float64 gradients of the
    same values; it keeps no n-row array beyond the gradients, dhat, -w
    and the cos/sin table. With S_ij = (qf_i . kf_j) W_ij, W the masked
    re-weight (1 for a plain kernel), b = [V | 1], num_i = sum_j S_ij b_j
    and its last column, den, floored at eps to dhat, the loss's
    derivative by num_i is a_i = [u_i | -w_i], u = d_out / dhat and
    w = (d_out . out) / dhat (0 on a floored row, whose denominator is a
    constant), and by S_ij it is a_i . b_j. So

        dV_j = sum_i S_ij u_i,
        dqf_i = sum_j (a_i . b_j) W_ij kf_j,  dkf_j = sum_i (a_i . b_j) W_ij qf_i,

    and dQ and dK are dqf and dkf times the feature map's derivative.
    _prefix_walk recomputes num beside dQ, and _suffix_walk finishes dK
    and dV; the identity that splits W across chunks is theirs.
    """
    config = record.pop("config")
    Q, K, V = (record.pop(k) for k in "QKV")
    # A d_out no wider than float64 stays in its own dtype, with no n-row
    # float64 copy: every reader of g meets a float64 operand. A longdouble
    # one is narrowed once, or the gradients would come out in longdouble.
    g = _check_d_out(d_out, Q.shape[:-1] + V.shape[-1:])
    if g.dtype.itemsize > 8:
        g = _wide(g)

    if config.use_softmax:
        W = _softmax_weights(Q, K, config.causal)
        Qw, Kw, Vw = (_wide(X) for X in (Q, K, V))
        alpha = 1.0 / math.sqrt(Qw.shape[-1])
        dV = W.swapaxes(-1, -2) @ g
        dW = g @ Vw.swapaxes(-1, -2)
        dS = W * (dW - np.einsum("...ij,...ij->...i", dW, W)[..., None])
        dQ = (dS @ Kw) * alpha
        dK = (dS.swapaxes(-1, -2) @ Qw) * alpha
        return dQ, dK, dV

    # The cos/sin table splits the re-weight across chunks; a causal call
    # of one chunk carries nothing, and its walks rotate nothing.
    table = None
    if _splits(config, Q.shape[-2], _BACKWARD_BLOCK):
        table = position_factors(max(Q.shape[-2], K.shape[-2]),
                                 config.reweight.m).T
    # A full call adds every term to zeros; a causal one writes its
    # in-chunk terms first.
    alloc = np.empty if config.causal else np.zeros
    dQ, dK, dV = (alloc(X.shape) for X in (Q, K, V))
    dhat, neg_w = _prefix_walk(Q, K, V, g, config, table, dQ, dK, dV)
    _suffix_walk(Q, K, V, g, config, table, dhat, neg_w, dK, dV)
    return dQ, dK, dV


def _chunks(n: int):
    """(c0, c1) of each _BACKWARD_BLOCK-row chunk of n rows, first to last."""
    return [(c0, min(c0 + _BACKWARD_BLOCK, n))
            for c0 in range(0, n, _BACKWARD_BLOCK)]


def _mapped(X, c0, c1, fm):
    """Rows c0:c1 of X, widened, and their feature rows."""
    x = _wide(X[..., c0:c1, :])
    return x, apply_feature_map(x, fm)


def _rotated(F, table, offset: int):
    """[F cos | F sin], each row scaled at its own position offset + i,
    or F itself when there is no table: a plain kernel, whose walks carry
    plain sums, or a causal call of one chunk, which carries nothing."""
    return F if table is None else _position_scaled(F, table, offset)


def _flipped(carry, branches: int):
    """carry (..., branches * p, q) with each branch's p x q block
    transposed: (..., branches * q, p), a copy unless branches is 1."""
    *lead, rows, cols = carry.shape
    blocks = carry.reshape(*lead, branches, rows // branches, cols)
    return blocks.swapaxes(-1, -2).reshape(*lead, branches * cols, rows // branches)


def _a_rows(g, dhat, neg_w, a):
    """Write a = [u | -w], u = g / dhat, into the (..., rows, d_v + 1)
    buffer a and return it. einsum writes the strided u columns of a
    float64 g with no scratch, where a broadcast divide allocates its own."""
    np.einsum("...ij,...i->...ij", g, 1.0 / dhat, out=a[..., :-1])
    a[..., -1] = neg_w
    return a


def _prefix_walk(Q, K, V, g, config, table, dQ, dK, dV):
    """Walk the chunks first to last: recompute each chunk's num, then
    write its dQ and the in-chunk terms of dK and dV. Returns the n-row
    (dhat, -w) the suffix walk rebuilds a from.

    The carry G sums rot(kf_j)^T b_j over the chunks already walked,
    rot(x) = [x cos | x sin] at x's position (x under a plain kernel), a
    (2d, d_v + 1) array per slice. Since cos(t_i - t_j) =
    cos t_i cos t_j + sin t_i sin t_j, a query row reads its num as
    rot(qf_i) G and its dqf as rot(a_i) G', G' being G with each branch's
    d x (d_v + 1) block transposed; within a chunk the re-weight is one
    Toeplitz matrix (linear._reweight_chunk), multiplied in after the
    causal mask (linear._masked). A full call reads G summed over every
    key and has no in-chunk term.
    """
    fm, eps, causal = config.feature_map, config.eps, config.causal
    branches = 1 if table is None else 2
    dhat, neg_w = np.empty(Q.shape[:-1]), np.empty(Q.shape[:-1])
    carry = weight = None
    if causal:
        if config.reweight.kind == "cosine":
            weight = _linear._reweight_chunk(config.reweight.m, np.dtype(np.float64))
    else:
        # A full call's d_out rows, widened a chunk at a time: dV may have
        # fewer rows than Q, and its rows are summed into.
        g_rows = np.empty(g.shape[:-2] + (min(Q.shape[-2], _BACKWARD_BLOCK),
                                          g.shape[-1]))
        for c0, c1 in _chunks(K.shape[-2]):
            carry = _linear._carry_update(
                carry, _rotated(_mapped(K, c0, c1, fm)[1], table, c0),
                _with_ones(V[..., c0:c1, :], np.float64), c1)
    flipped = None if carry is None else _flipped(carry, branches)
    for c0, c1 in _chunks(Q.shape[-2]):
        q, qf = _mapped(Q, c0, c1, fm)
        rq = None if carry is None else _rotated(qf, table, c0)
        if causal:
            kf = _mapped(K, c0, c1, fm)[1]
            b = _with_ones(V[..., c0:c1, :], np.float64)
            w = None if weight is None else weight[:c1 - c0, :c1 - c0]
            sim = qf @ kf.swapaxes(-1, -2)
            # dK maps qf again: a chunk holds one row block fewer while
            # the weighting's broadcast scratch, num and a live.
            del qf
            _linear._masked(sim, w)
            num = sim @ b
        else:
            num = np.zeros(q.shape[:-1] + (V.shape[-1] + 1,))
        _linear._carry_read(num, rq, carry)
        del rq
        den = num[..., -1]
        dh, nw = dhat[..., c0:c1], neg_w[..., c0:c1]
        np.maximum(den, eps, out=dh)
        # d_out's rows in float64, which both einsums read with no
        # casting scratch: in a causal call, dV's rows of this chunk, until
        # the in-chunk term overwrites them.
        gc = dV[..., c0:c1, :] if causal else g_rows[..., :c1 - c0, :]
        np.copyto(gc, g[..., c0:c1, :])
        np.einsum("...ij,...ij->...i", gc, num[..., :-1], out=nw)
        nw /= dh * -dh
        np.copyto(nw, 0.0, where=den <= eps)
        a = _a_rows(gc, dh, nw, num)  # over num, now read
        del gc
        ra = None if carry is None else _rotated(a, table, c0)
        del num, den
        dq = dQ[..., c0:c1, :]
        if causal:
            np.matmul(sim.swapaxes(-1, -2), a[..., :-1], out=dV[..., c0:c1, :])
            P = np.matmul(a, b.swapaxes(-1, -2), out=sim)
            del sim, a  # before the weighting, whose broadcast allocates
            _linear._masked(P, w)
            np.matmul(P, kf, out=dq)
        _linear._carry_read(dq, ra, flipped)
        del ra
        if causal:
            if c1 < Q.shape[-2]:
                carry = _linear._carry_update(carry, _rotated(kf, table, c0), b, c1)
                flipped = None if carry is None else _flipped(carry, branches)
            del kf, b
            np.matmul(P.swapaxes(-1, -2), _mapped(Q, c0, c1, fm)[1],
                      out=dK[..., c0:c1, :])
            del P
        dq *= feature_map_derivative(q, fm)
    return dhat, neg_w


def _suffix_walk(Q, K, V, g, config, table, dhat, neg_w, dK, dV):
    """Walk the chunks last to first, adding the carried terms of dK and
    dV and multiplying dK by the feature map's derivative.

    The carry T sums qf_i^T rot(a_i) over the chunks already walked, a
    (d, 2 (d_v + 1)) array per slice, each row of a rebuilt from dhat and
    -w. A key row reads its dkf as rot(b_j) T^T and its dV as rot(kf_j)
    times T's u columns, each branch's transposed. The walk has no
    in-chunk products: the prefix walk wrote them. A full call reads T
    summed over every query.
    """
    fm, causal = config.feature_map, config.causal
    branches = 1 if table is None else 2

    def a_rotated(c0, c1):
        a = np.empty(g.shape[:-2] + (c1 - c0, g.shape[-1] + 1))
        a = _a_rows(_wide(g[..., c0:c1, :]), dhat[..., c0:c1], neg_w[..., c0:c1], a)
        return _rotated(a, table, c0)

    carry = None
    if not causal:
        for c0, c1 in _chunks(Q.shape[-2]):
            carry = _linear._carry_update(carry, _mapped(Q, c0, c1, fm)[1],
                                          a_rotated(c0, c1), c0)
    for c0, c1 in _chunks(K.shape[-2])[::-1]:
        k, kf = _mapped(K, c0, c1, fm)
        if carry is not None:
            u_cols = _flipped(carry.swapaxes(-1, -2), branches)[..., :-1]
            _linear._carry_read(dV[..., c0:c1, :], _rotated(kf, table, c0), u_cols)
            _linear._carry_read(
                dK[..., c0:c1, :],
                _rotated(_with_ones(V[..., c0:c1, :], np.float64), table, c0),
                carry.swapaxes(-1, -2))
        del kf
        dK[..., c0:c1, :] *= feature_map_derivative(k, fm)
        if causal and c0:
            carry = _linear._carry_update(carry, _mapped(Q, c0, c1, fm)[1],
                                          a_rotated(c0, c1), c0)


def attend_backward(Q, K, V, config: AttentionConfig, d_out):
    """Gradients (dQ, dK, dV) of sum(d_out * attend(Q, K, V, config)).

    Takes Q, K and V as attend does, and a d_out of exactly the output's
    shape (..., n_q, d_v), which is never broadcast; returns float64
    gradients shaped like Q, K and V. Raises what attend raises, and
    DimensionError or ValueError on a bad d_out.
    """
    return _backward(_record(Q, K, V, config), d_out)


def linear_attention_backward(Q, K, V, d_out, feature_map: FeatureMapKind = RELU,
                              causal: bool = False, eps: float = DEFAULT_EPS):
    """Gradients of sum(d_out * linear_attention(Q, K, V)), as attend_backward."""
    return attend_backward(Q, K, V, AttentionConfig.linear(feature_map, causal, eps),
                           d_out)


def cosformer_backward(Q, K, V, config: AttentionConfig, d_out):
    """Gradients of sum(d_out * cosformer_attention(...)), as attend_backward."""
    _require_cosine_config(config, "cosformer_backward")
    return attend_backward(Q, K, V, config, d_out)


def softmax_attention_backward(Q, K, V, d_out, causal: bool = False):
    """Gradients of sum(d_out * softmax_attention(Q, K, V)), as attend_backward."""
    return attend_backward(Q, K, V, AttentionConfig.softmax(causal), d_out)


def finite_diff_grad(f, X, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function f of a matrix X,
    from f(X +- h e_k) in float64. f must not keep the array it is handed,
    which is reused. Raises ConfigurationError unless 0 < h < inf."""
    X = np.array(X, dtype=np.float64)
    if not 0.0 < h < math.inf:
        raise ConfigurationError(f"h must be finite and > 0, got {h!r}")
    grad = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = X[idx]
        X[idx] = orig + h
        f_plus = f(X)
        X[idx] = orig - h
        f_minus = f(X)
        X[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad
