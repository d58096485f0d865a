"""Analytic backward passes and finite-difference checking.

:func:`attend_backward` is the backward for every variant: it picks the
softmax gradient or the kernel gradient from its AttentionConfig, and
the three public per-variant backwards are one-line wrappers around it.
The kernel backward never materializes an n x n matrix: after re-running
the forward's scan it is three more runs of it, because every gradient
of kernel attention is itself a kernel numerator. The dQ scan admits
keys j <= i as the forward does; the dK and dV scans are suffix scans,
in which key j sees the queries i >= j. Cost stays
Theta(n * d_k * d_v). Conventions at the non-smooth points: the relu
gate takes subgradient 0 at exactly 0 (leaky takes its negative-side
slope there), and a denominator at or below the floor eps is treated as
a constant, contributing zero gradient.

Every backward takes the forward's (..., n, d) stacks, leading axes
shared by Q, K and V, and a d_out of exactly the forward output's shape
(..., n_q, d_v); a d_out that would only broadcast is refused. All
gradients are computed and returned in float64, shaped like Q, K and V.

attend_backward checks Q, K, V, d_out and the horizon once, at its
boundary; both feature pairs, (Qp, Kp) and (a, [V | 1]), are then
position-scaled unchecked.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AttentionConfig,
    AttentionDims,
    DEFAULT_EPS,
    FeatureMapKind,
    RELU,
    _softmax_rows,
    _wide,
    apply_feature_map,
    require_matrix,
)
from .errors import ConfigurationError, DimensionError
from .linear import _require_cosine_config, _scan, _with_ones
from .reweight import _position_scaled, _require_horizon
# Not called here; the benchmark's trace wraps this module attribute, so
# it stays importable until the benchmark drops it.
from .reweight import position_factors  # noqa: F401


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


def _features(Qp, Kp, config: AttentionConfig):
    """Cosformer's 2d-wide position-scaled pair, or the rows themselves."""
    if config.reweight.kind != "cosine":
        return Qp, Kp
    return _position_scaled(Qp, config.reweight.m), \
        _position_scaled(Kp, config.reweight.m)


def _check_d_out(d_out, dims: AttentionDims) -> np.ndarray:
    """d_out must be shaped like the forward's output, leading axes and
    all, so a mis-batched d_out cannot broadcast."""
    d_out = require_matrix(d_out, "d_out", stack=True)
    want = dims.lead + (dims.n_q, dims.d_v)
    if d_out.shape != want:
        raise DimensionError(f"d_out must have shape {want}, got {d_out.shape}")
    return d_out


def attend_backward(Q, K, V, config: AttentionConfig, d_out):
    """Gradients (dQ, dK, dV) of sum(d_out * attend(Q, K, V, config)).

    The one backward every variant runs through: inputs and horizon are
    validated once, then a softmax config runs the softmax gradient and
    any other config the kernel gradient. Takes (..., n, d) stacks as
    attend does; d_out is shaped like its output.

    Kernel gradient: every gradient is a kernel numerator, so each is one
    more _scan. With den floored at eps, u = d_out / den and
    w = (d_out . num) / den^2, the loss's derivative by the similarity
    qf_i . kf_j is u_i . v_j - w_i = a_i . b_j, for a = [u | -w] and
    b = [V | 1]. dV sums (qf_i . kf_j) u_i over the queries i that key j
    reaches. dQ and dK scan the feature pair of (a, b) over the
    feature-mapped rows Kp and Qp: the pair's inner products are
    a_i . b_j times the re-weight of (i, j), the derivative by
    Qp_i . Kp_j, so both come out d columns wide. Leading axes of the
    (..., n, d) inputs ride along in every step.
    """
    Q = require_matrix(Q, "Q", stack=True)
    K = require_matrix(K, "K", stack=True)
    V = require_matrix(V, "V", stack=True)
    dims = AttentionDims.from_qkv(Q, K, V, config.causal)
    d_out = _check_d_out(d_out, dims)
    if config.reweight.kind == "cosine":
        _require_horizon(max(dims.n_q, dims.n_k), config.reweight.m)

    if config.use_softmax:
        Qw, Kw, Vw, g = _wide(Q), _wide(K), _wide(V), _wide(d_out)
        alpha = 1.0 / math.sqrt(dims.d_k)
        W = _softmax_rows((Qw @ Kw.swapaxes(-1, -2)) * alpha, config.causal)

        dV = W.swapaxes(-1, -2) @ g
        dW = g @ Vw.swapaxes(-1, -2)
        dS = W * (dW - np.einsum("...ij,...ij->...i", dW, W)[..., None])
        dQ = (dS @ Kw) * alpha
        dK = (dS.swapaxes(-1, -2) @ Qw) * alpha
        return dQ, dK, dV

    causal = config.causal
    Qw, Kw = _wide(Q), _wide(K)
    Qp = apply_feature_map(Qw, config.feature_map)
    Kp = apply_feature_map(Kw, config.feature_map)
    qf, kf = _features(Qp, Kp, config)
    b = _with_ones(V)
    num = _scan(qf, kf, b, causal)
    num, den = num[..., :-1], num[..., -1]

    g = _wide(d_out)
    dhat = np.maximum(den, config.eps)
    # a = [u | -w], u = g / den. A row at or below the floor sees a
    # constant denominator, so its w, the denominator's share, is 0.
    a = np.empty(dims.lead + (dims.n_q, dims.d_v + 1))
    u = np.divide(g, dhat[..., None], out=a[..., :-1])
    a[..., -1] = np.where(den > config.eps,
                          -np.einsum("...ij,...ij->...i", g, num) / (dhat * dhat),
                          0.0)
    del num, den

    # Each buffer goes right after its last use (u is a view of a): at
    # n = 4096, d = 64 a float64 call then peaks at 18.5 MiB under
    # tracemalloc, against 32.5 MiB with every buffer kept to the end.
    dV = _scan(kf, qf, u, causal, suffix=True)
    del qf, kf, u
    fa, fb = _features(a, b, config)
    del a, b
    dQ = _scan(fa, fb, Kp, causal)
    dK = _scan(fb, fa, Qp, causal, suffix=True)
    del fa, fb, Qp, Kp
    dQ *= feature_map_derivative(Qw, config.feature_map)
    dK *= feature_map_derivative(Kw, config.feature_map)
    return dQ, dK, dV


def linear_attention_backward(Q, K, V, d_out, feature_map: FeatureMapKind = RELU,
                              causal: bool = False, eps: float = DEFAULT_EPS):
    """Gradients (dQ, dK, dV) of sum(d_out * linear_attention(Q, K, V)).

    Takes (..., n, d) stacks as the forward does; d_out is shaped like
    the forward's output.
    """
    return attend_backward(Q, K, V, AttentionConfig.linear(feature_map, causal, eps),
                           d_out)


def cosformer_backward(Q, K, V, config: AttentionConfig, d_out):
    """Gradients (dQ, dK, dV) of sum(d_out * cosformer_attention(Q, K, V, config)).

    Takes (..., n, d) stacks as the forward does; d_out is shaped like
    the forward's output.
    """
    _require_cosine_config(config, "cosformer_backward")
    return attend_backward(Q, K, V, config, d_out)


def softmax_attention_backward(Q, K, V, d_out, causal: bool = False):
    """Gradients (dQ, dK, dV) of sum(d_out * softmax_attention(Q, K, V)).

    Takes (..., n, d) stacks as the forward does; d_out is shaped like
    the forward's output.
    """
    return attend_backward(Q, K, V, AttentionConfig.softmax(causal), d_out)


def finite_diff_grad(f, X, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix.

    Evaluates f at X +- h e_k for every coordinate, in float64. The
    callable must not retain the array it is handed; it is reused.
    """
    X = np.array(X, dtype=np.float64)
    if not (h > 0.0):
        raise ConfigurationError(f"h must be > 0, got {h!r}")
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
