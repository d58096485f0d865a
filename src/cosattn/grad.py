"""Analytic backward passes and finite-difference checking.

The kernel backward never materializes an n x n matrix: query gradients
ride the same prefix scan as the forward, over the same (qf, kf) feature
pair (2d-wide cos/sin-scaled rows under the cosine re-weight), and
key/value gradients use a mirrored suffix scan, so cost stays
Theta(n * d_k * d_v). Conventions at the non-smooth points: the relu gate
takes subgradient 0 at exactly 0 (leaky takes its negative-side slope
there), and a denominator at or below the floor eps is treated as a
constant, contributing zero gradient.

All gradients are computed and returned in float64.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AttentionConfig,
    AttentionDims,
    FeatureMapKind,
    RELU,
    _wide,
    apply_feature_map,
    require_matrix,
)
from .errors import ConfigurationError, DimensionError
from .linear import (
    _BLOCK,
    _causal_drop,
    _features,
    _require_cosine_config,
    _scan,
)
from .reweight import position_factors


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


def _check_d_out(d_out, n_q: int, d_v: int) -> np.ndarray:
    d_out = require_matrix(d_out, "d_out")
    if d_out.shape != (n_q, d_v):
        raise DimensionError(
            f"d_out must have shape ({n_q}, {d_v}), got {d_out.shape}")
    return d_out


def _fold(G: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Map a gradient on fused feature rows back to the d feature columns.

    weights holds each row's per-half scales: (cos, sin) for the cosine
    decomposition, a single 1 for a plain kernel, so row i of the result
    is sum_h weights[i, h] * G[i, h*d:(h+1)*d].
    """
    rows, halves = weights.shape
    return np.einsum("rh,rhd->rd", weights, G.reshape(rows, halves, -1))


def _row_weights(n: int, config: AttentionConfig) -> np.ndarray:
    """Per-row half scales of config's feature rows, (n, halves)."""
    if config.reweight.kind == "cosine":
        return np.column_stack(position_factors(n, config.reweight.m))
    return np.ones((n, 1))


def _kernel_backward(Q, K, V, d_out, config: AttentionConfig):
    """Gradients of sum(d_out * forward) for the kernel forward under config.

    One prefix scan (dQ) and one suffix scan (dK, dV) run over the same
    (qf, kf) pair as the forward; each chunk's gradient on the fused rows
    is folded back to d columns right away, so no n x 2d gradient exists.
    The cos/sin position factors are constants of the positions, so they
    pass through the chain rule as fixed per-row scales.
    """
    Q = require_matrix(Q, "Q")
    K = require_matrix(K, "K")
    V = require_matrix(V, "V")
    dims = AttentionDims.from_qkv(Q, K, V, config.causal)
    d_out = _check_d_out(d_out, dims.n_q, dims.d_v)

    Qw, Kw, Vw = _wide(Q), _wide(K), _wide(V)
    g = _wide(d_out)
    qf, kf = _features(apply_feature_map(Qw, config.feature_map),
                       apply_feature_map(Kw, config.feature_map), config)
    q_weights = _row_weights(dims.n_q, config)
    k_weights = _row_weights(dims.n_k, config)
    num, den = _scan(qf, kf, Vw, config.causal)

    dhat = np.maximum(den, config.eps)
    u = g / dhat[:, None]
    # Rows at or below the floor see a constant denominator: no gradient.
    active = (den > config.eps).astype(np.float64)
    w = active * (g * num).sum(axis=1) / (dhat * dhat)

    if not config.causal:
        P = qf.T @ u
        dQp = _fold(u @ (kf.T @ Vw).T - np.outer(w, kf.sum(axis=0)), q_weights)
        dKp = _fold(Vw @ P.T - (qf.T @ w)[None, :], k_weights)
        dV = kf @ P
    else:
        dQp = np.empty((dims.n_q, dims.d_k))
        dKp = np.empty((dims.n_k, dims.d_k))
        dV = np.empty_like(Vw)
        width = qf.shape[1]
        # Prefix chunks for dQ: within a chunk the j <= i part is a masked
        # product, earlier chunks enter through the carried sums. Entry
        # (i, j) of the masked matrix is u_i . v_j - w_i.
        state = np.zeros((width, dims.d_v))
        total = np.zeros(width)
        for start in range(0, dims.n_q, _BLOCK):
            stop = min(start + _BLOCK, dims.n_q)
            kc, vc = kf[start:stop], Vw[start:stop]
            uc, wc = u[start:stop], w[start:stop]
            a = uc @ vc.T - wc[:, None]
            a[_causal_drop(stop - start)] = 0.0
            dQp[start:stop] = _fold(a @ kc + uc @ state.T - np.outer(wc, total),
                                    q_weights[start:stop])
            state += kc.T @ vc
            total += kc.sum(axis=0)
        # Suffix chunks for dK and dV: entry (j, i) of each masked product
        # pairs key row j with query rows i >= j; in b it is v_j . u_i - w_i.
        suf_P = np.zeros((width, dims.d_v))
        suf_p = np.zeros(width)
        for start in reversed(range(0, dims.n_q, _BLOCK)):
            stop = min(start + _BLOCK, dims.n_q)
            qc, kc, vc = qf[start:stop], kf[start:stop], Vw[start:stop]
            uc, wc = u[start:stop], w[start:stop]
            earlier = _causal_drop(stop - start).T
            b = vc @ uc.T - wc[None, :]
            b[earlier] = 0.0
            dKp[start:stop] = _fold(b @ qc + vc @ suf_P.T - suf_p,
                                    k_weights[start:stop])
            kq = kc @ qc.T
            kq[earlier] = 0.0
            dV[start:stop] = kq @ uc + kc @ suf_P
            suf_P += qc.T @ uc
            suf_p += qc.T @ wc

    dQ = dQp * feature_map_derivative(Qw, config.feature_map)
    dK = dKp * feature_map_derivative(Kw, config.feature_map)
    return dQ, dK, dV


def linear_attention_backward(Q, K, V, d_out, feature_map: FeatureMapKind = RELU,
                              causal: bool = False, eps: float = 1e-6):
    """Gradients of sum(d_out * linear_attention(Q, K, V))."""
    return _kernel_backward(Q, K, V, d_out,
                            AttentionConfig.linear(feature_map, causal, eps))


def cosformer_backward(Q, K, V, config: AttentionConfig, d_out):
    """Gradients of sum(d_out * cosformer_attention(Q, K, V, config))."""
    _require_cosine_config(config, "cosformer_backward")
    return _kernel_backward(Q, K, V, d_out, config)


def softmax_attention_backward(Q, K, V, d_out, causal: bool = False,
                               scale: bool = True):
    """Gradients of sum(d_out * softmax_attention(Q, K, V))."""
    Q = require_matrix(Q, "Q")
    K = require_matrix(K, "K")
    V = require_matrix(V, "V")
    dims = AttentionDims.from_qkv(Q, K, V, causal)
    d_out = _check_d_out(d_out, dims.n_q, dims.d_v)

    Qw, Kw, Vw, g = _wide(Q), _wide(K), _wide(V), _wide(d_out)
    alpha = 1.0 / math.sqrt(dims.d_k) if scale else 1.0
    S = (Qw @ Kw.T) * alpha
    if causal:
        S[np.triu(np.ones(S.shape, dtype=bool), 1)] = -np.inf
    S -= S.max(axis=1, keepdims=True)
    np.exp(S, out=S)
    W = S / S.sum(axis=1, keepdims=True)

    dV = W.T @ g
    dW = g @ Vw.T
    dS = W * (dW - np.einsum("ij,ij->i", dW, W)[:, None])
    dQ = (dS @ Kw) * alpha
    dK = (dS.T @ Qw) * alpha
    return dQ, dK, dV


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
