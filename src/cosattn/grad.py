"""Analytic backward passes and finite-difference checking.

:func:`attend_backward` is the backward for every variant: it runs the
forward once, keeping its record, and hands that to _backward, which
picks the softmax gradient or the kernel gradient from the record's
AttentionConfig; the three public per-variant backwards are one-line
wrappers around it. A caller that needs the forward's output as well
runs :func:`cosattn.linear._forward` itself and passes its record to
_backward, so the forward runs once, not twice; the toy trainer is the
one such caller. The kernel backward never materializes an n x n matrix:
it is three runs of the forward's scan, :func:`cosattn.linear._scan`,
because every gradient of kernel attention is itself a kernel numerator
(see _backward). Its walks take the scan's steps from linear's module,
so a defect swapped into one of them breaks the backward as it breaks
the forward. Cost stays Theta(n * d_k * d_v).
Conventions at the non-smooth points: the relu gate takes subgradient 0
at exactly 0 (leaky takes its negative-side slope there), and a
denominator at or below the floor eps is treated as a constant,
contributing zero gradient.

Every backward takes the forward's (..., n, d) stacks, leading axes
shared by Q, K and V, and a d_out of exactly the forward output's shape
(..., n_q, d_v); a d_out that would only broadcast is refused. All
gradients are computed and returned in float64, shaped like Q, K and V.
d_out is read at its own dtype, each use widening it where it reads it,
so a float32 d_out costs no whole-length float64 copy; only a d_out
wider than float64 (longdouble) is narrowed to it first.
A float32 kernel forward's record is widened to float64 as the backward
reads it, so its arithmetic is the float64 backward's; only the
forward's float32 rounding of its feature rows, out and den carries
over.
On a query row whose only relu feature is small, dQ's error from that
rounding grows like 1 / phi(q_i): the denominator's share, built from
the rounded out, cancels the numerator's. In 2000 random float32 cases
it reached 1.3e-4 of the largest float64 gradient entry.

The forward checks Q, K, V and the horizon; _backward checks d_out and
nothing else, so its scaling and scans run unchecked.
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
    :func:`cosattn.linear._forward` that returned (out, record).

    Checks d_out against the output's shape; the record's inputs were
    checked by the forward. Arrays are taken out of the record as they
    are read and each buffer goes right after its last use, so the
    record is spent after one call.

    Kernel gradient: every gradient is a kernel numerator, so each is one
    more _scan. With den floored at eps to dhat, u = d_out / dhat and
    w = (d_out . out) / dhat, the loss's derivative by the similarity
    qf_i . kf_j is u_i . v_j - w_i = a_i . b_j, for a = [u | -w] and
    b = [V | 1]. dV sums (qf_i . kf_j) u_i over the queries i that key j
    reaches, on the forward's feature rows qf and kf. dQ and dK scan the
    position-scaled pair of (a, b) over the feature-mapped rows Kp and
    Qp: the pair's inner products are a_i . b_j times the re-weight of
    (i, j), the derivative by Qp_i . Kp_j, so both come out d columns
    wide. A causal cosine call of one chunk scans the pair, and dV's
    feature rows, unscaled, and its walks multiply the re-weight matrix
    into their masked products instead (see linear._one_chunk_weight).
    Each walk maps its rows panel by panel (see _scan), so past the
    gradients, the n-row dhat and -w and the cos/sin table, a causal
    backward's buffers are constant-size in n. Leading axes of the
    (..., n, d) inputs ride along in every step.
    """
    config = record.pop("config")
    Q, K, V = (record.pop(k) for k in "QKV")
    # A d_out no wider than float64 stays in its own dtype: every reader of
    # g meets a float64 operand and so computes in float64. A longdouble
    # one is narrowed once, or the products would run, and the softmax
    # gradients come out, in longdouble.
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
    # A float32 forward's out and den are widened once, here. Q and K are
    # mapped again, panel by panel, in the forward's compute dtype, so
    # their feature rows are bit-identical to the ones the forward scanned.
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

    # At n = 4096, d = 64 a causal call peaks at 6.58 MiB under
    # tracemalloc from a float64 record and at 6.61 MiB from a float32 one,
    # its gradients 6 MiB of that, whatever the dtype of d_out.
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
        """One walk's gradient, shaped like X. A walk of several panels
        writes it in place; a walk of one block (non-causal, or at most
        _PANEL rows) returns that block, allocated after the rows are
        mapped, so no gradient adds to the mapping's peak. dQ and dK are
        derivatives by phi(Q) and phi(K) until each block, as the walk
        leaves it, is multiplied by phi', _PANEL rows at a time, so a
        non-causal block takes no n-row phi'."""
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
    # The suffix walk starts at the panel where dQ's walk ended, so it
    # takes that panel's pair out of kept: one panel is mapped once, not
    # twice (in a walk of one panel, such as the toy trainer's, that is
    # the whole pair), and no pair is held while dK's blocks are
    # multiplied by phi'.
    dK = gradient(K, V, g, Q, lambda V_p, g_p, q, first: (
        *pair(g_p, V_p, first, False)[::-1], _wide(phi(q))), suffix=True)
    return dQ, dK, dV


def attend_backward(Q, K, V, config: AttentionConfig, d_out):
    """Gradients (dQ, dK, dV) of sum(d_out * attend(Q, K, V, config)).

    The one backward every variant runs through: the forward runs once,
    keeping its record, and _backward takes it from there. Takes
    (..., n, d) stacks as attend does; d_out is shaped like its output.
    A caller that also needs the forward's output should run
    cosattn.linear._forward itself and pass its record to _backward, as
    the toy trainer does, rather than run the forward twice.
    """
    return _backward(_forward(Q, K, V, config)[1], d_out)


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
