"""Analytic backward passes and finite-difference checking.

attend_backward is the backward of every variant: it runs the forward
once, keeping its record (cosattn.linear._forward), and _backward takes
it from there; a caller that needs the forward's output too, such as the
toy trainer, runs _forward itself. The kernel backward is three more runs
of the forward's scan (see _backward), so it builds no n x n matrix and
costs Theta(n * d_k * d_v). The relu gate takes subgradient 0 at exactly
0 (leaky its negative-side slope), and a denominator at or below eps is
a constant, contributing zero gradient.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AttentionConfig,
    DEFAULT_EPS,
    FeatureMapKind,
    RELU,
    _wide,
    apply_feature_map,
    require_matrix,
)
from .errors import ConfigurationError, DimensionError
from .linear import (
    _PANEL,
    _forward,
    _one_chunk_weight,
    _require_cosine_config,
    _scan,
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
    """Gradients (dQ, dK, dV) of sum(d_out * out), for the forward call of
    cosattn.linear._forward that returned (out, record). Checks only
    d_out. Arrays leave the record as they are read, so it serves one call.

    Kernel gradient: each gradient is a kernel numerator, so each is one
    more _scan. With den floored at eps to dhat, u = d_out / dhat and
    w = (d_out . out) / dhat, the loss's derivative by the similarity
    qf_i . kf_j is u_i . v_j - w_i = a_i . b_j, for a = [u | -w] and
    b = [V | 1]. dV sums (qf_i . kf_j) u_i over the queries i that key j
    reaches, on the forward's feature rows. dQ and dK scan the
    position-scaled pair (a, b) over the feature-mapped rows Kp and Qp:
    the pair's inner products are a_i . b_j times the re-weight of
    (i, j), the derivative by Qp_i . Kp_j, so both come out d wide. Each
    walk maps its rows panel by panel, so beyond the gradients, dhat, -w
    and the cos/sin table a causal backward holds constant-size buffers.

    A float32 record is widened as it is read, so only the forward's
    float32 rounding of its feature rows, out and den carries over. On a
    query row whose only relu feature is small, dQ's error from it grows
    like 1 / phi(q_i), as the denominator's share, built from the rounded
    out, cancels the numerator's: in 2000 random float32 cases it reached
    1.3e-4 of the largest float64 gradient entry.
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
        W = record.pop("W")
        Qw, Kw, Vw = (_wide(X) for X in (Q, K, V))
        alpha = 1.0 / math.sqrt(Qw.shape[-1])
        dV = W.swapaxes(-1, -2) @ g
        dW = g @ Vw.swapaxes(-1, -2)
        dS = W * (dW - np.einsum("...ij,...ij->...i", dW, W)[..., None])
        dQ = (dS @ Kw) * alpha
        dK = (dS.swapaxes(-1, -2) @ Qw) * alpha
        return dQ, dK, dV

    causal, fm = config.causal, config.feature_map
    weight, decomposed = _one_chunk_weight(config, Q.shape[-2], np.float64)
    # Q and K are mapped again, panel by panel, in the forward's compute
    # dtype, so their feature rows are the ones the forward scanned.
    dtype = record["den"].dtype
    out, den = (_wide(record.pop(k)) for k in ("out", "den"))
    dhat = np.maximum(den, config.eps)
    # -w, the last column of a = [u | -w]. A row at or below the floor
    # sees a constant denominator, so its w, the denominator's share, is 0.
    neg_w = np.where(den > config.eps,
                     -np.einsum("...ij,...ij->...i", g, out) / dhat, 0.0)
    del out, den
    if decomposed:
        # The (n, 2) cos/sin table, once in float64 for the pair and once
        # in the forward's compute dtype for its feature rows.
        table = position_factors(max(Q.shape[-2], K.shape[-2]),
                                 config.reweight.m).T
        tables = {table.dtype: table, dtype: table.astype(dtype, copy=False)}

    def scaled(F, first):
        return _position_scaled(F, tables[F.dtype], first - 1) if decomposed else F

    def phi(X):  # the forward's feature rows, in its compute dtype
        return apply_feature_map(np.asarray(X, dtype), fm)

    def a_rows(g_p, first):  # a = [u | -w] on g_p's rows
        i = slice(first - 1, first - 1 + g_p.shape[-2])
        a = np.empty(g_p.shape[:-1] + (g_p.shape[-1] + 1,))
        np.divide(g_p, dhat[..., i, None], out=a[..., :-1])
        a[..., -1] = neg_w[..., i]
        return a

    kept = {}  # dQ's last scaled (a, b) pair, by the position of its row 0

    def pair(g_p, V_p, first, keep):
        ab = kept.pop(first, None) or (scaled(a_rows(g_p, first), first),
                                       scaled(_with_ones(V_p, np.float64), first))
        kept.clear()
        if keep:
            kept[first] = ab
        return ab

    def gradient(X, x, y, v, rows, suffix=False, derivative=True):
        """One walk's gradient, shaped like X: written in place over several
        panels, or the one block, allocated after its rows are mapped. A
        block of dQ or dK is multiplied by phi' as the walk leaves it."""
        dX = np.empty(X.shape) if causal and X.shape[-2] > _PANEL else None
        for p0, p1, block in _scan(x, y, v, causal, rows, suffix=suffix, out=dX,
                                   weight=weight):
            if derivative:
                X_b = X[..., p0:p1, :]
                for r in range(0, p1 - p0, _PANEL):
                    block[..., r:r + _PANEL, :] *= feature_map_derivative(
                        X_b[..., r:r + _PANEL, :], fm)
        return block if dX is None else dX

    # dV scans u as a view of a: at d_v = 1 a contiguous u column rounds
    # differently.
    dV = gradient(V, K, Q, g, lambda k, q, g_p, first: (
        _wide(scaled(phi(k), first)), _wide(scaled(phi(q), first)),
        a_rows(g_p, first)[..., :-1]), suffix=True, derivative=False)
    dQ = gradient(Q, g, V, K, lambda g_p, V_p, k, first: (
        *pair(g_p, V_p, first, True), _wide(phi(k))))
    # The suffix walk starts at the panel where dQ's walk ended and takes
    # that panel's pair out of kept, so the panel is mapped once, not twice;
    # in a one-panel walk, such as the toy trainer's, that is the whole pair.
    dK = gradient(K, V, g, Q, lambda V_p, g_p, q, first: (
        *pair(g_p, V_p, first, False)[::-1], _wide(phi(q))), suffix=True)
    return dQ, dK, dV


def attend_backward(Q, K, V, config: AttentionConfig, d_out):
    """Gradients (dQ, dK, dV) of sum(d_out * attend(Q, K, V, config)).

    Takes Q, K and V as attend does, and a d_out of exactly the output's
    shape (..., n_q, d_v), which is never broadcast; returns float64
    gradients shaped like Q, K and V. Raises what attend raises, and
    DimensionError or ValueError on a bad d_out.
    """
    return _backward(_forward(Q, K, V, config)[1], d_out)


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
