"""Domain types, feature maps, and quadratic-form reference attentions.

The quadratic references build the full n_q x n_k weight matrix in
float64 and are the exact oracles of cosattn.linear's linear-time paths.
Results come back in the inputs' storage dtype, float32 or float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError

_FEATURE_MAP_NAMES = ("identity", "relu", "leaky_relu", "elu_plus_one")

# Maps whose outputs are >= 0 everywhere; only these are admissible under
# cosine re-weighting, where the decomposed denominator must stay sign-safe.
NONNEGATIVE_FEATURE_MAPS = ("relu", "elu_plus_one")

# Floor of every kernel attention denominator, unless a config sets its own.
DEFAULT_EPS = 1e-6


def _wide(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _storage_dtype(*arrays: np.ndarray) -> np.dtype:
    dtype = np.result_type(*arrays)
    if dtype == np.float32:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def require_matrix(x, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """x as an ndarray, checked to be a finite, non-empty real matrix or,
    with stack=True, a (..., rows, cols) stack of them. Raises DimensionError
    on a wrong ndim or size, ValueError on complex or non-finite entries."""
    arr = np.asarray(x)
    if arr.ndim != 2 and not (stack and arr.ndim > 2):
        want = "at least 2-D" if stack else "2-D"
        raise DimensionError(f"{name} must be {want}, got ndim={arr.ndim}")
    if arr.size == 0:
        raise DimensionError(f"{name} must be non-empty, got shape {arr.shape}")
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got dtype {arr.dtype}")
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _require_qkv(Q: np.ndarray, K: np.ndarray, V: np.ndarray,
                 causal: bool) -> None:
    """Shape rules of one attention call on checked (..., n, d) stacks:
    Q, K and V share their leading axes, Q and K their width, K and V
    their row count, and a causal call has n_q == n_k."""
    lead = Q.shape[:-2]
    if K.shape[:-2] != lead or V.shape[:-2] != lead:
        raise DimensionError(
            "Q, K and V must share their leading axes, got "
            f"{Q.shape}, {K.shape} and {V.shape}")
    if Q.shape[-1] != K.shape[-1]:
        raise DimensionError(
            f"Q and K must share the key width, got {Q.shape} vs {K.shape}")
    if K.shape[-2] != V.shape[-2]:
        raise DimensionError(
            f"K and V must share the row count, got {K.shape} vs {V.shape}")
    if causal and Q.shape[-2] != K.shape[-2]:
        raise DimensionError(
            "causal attention requires n_q == n_k, got "
            f"{Q.shape[-2]} vs {K.shape[-2]}")


@dataclass(frozen=True)
class FeatureMapKind:
    """Elementwise feature map applied to Q and K before the kernel product."""

    name: str
    slope: float | None = None

    def __post_init__(self):
        if self.name not in _FEATURE_MAP_NAMES:
            raise ConfigurationError(f"unknown feature map {self.name!r}")
        if self.name == "leaky_relu":
            if self.slope is None or not (0.0 < self.slope < 1.0):
                raise ConfigurationError(
                    "leaky_relu needs a slope in (0, 1), got "
                    f"{self.slope!r}")
        elif self.slope is not None:
            raise ConfigurationError(f"{self.name} takes no slope")

    @property
    def nonnegative(self) -> bool:
        return self.name in NONNEGATIVE_FEATURE_MAPS


IDENTITY = FeatureMapKind("identity")
RELU = FeatureMapKind("relu")
ELU_PLUS_ONE = FeatureMapKind("elu_plus_one")


def leaky_relu(slope: float = 0.01) -> FeatureMapKind:
    return FeatureMapKind("leaky_relu", slope)


def apply_feature_map(x: np.ndarray, kind: FeatureMapKind) -> np.ndarray:
    """Apply the feature map elementwise; shape and dtype are preserved."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    if kind.name == "identity":
        return x.copy()
    if kind.name == "relu":
        return np.maximum(x, 0.0)
    if kind.name == "leaky_relu":
        return np.where(x < 0.0, kind.slope * x, x)
    # elu_plus_one: exp(v) below zero, v + 1 above; continuous at 0, always > 0
    return np.where(x < 0.0, np.exp(np.minimum(x, 0.0)), x + 1.0)


@dataclass(frozen=True)
class ReweightScheme:
    """Positional re-weighting applied to the kernel similarity."""

    kind: str
    m: int | None = None

    def __post_init__(self):
        if self.kind not in ("none", "cosine"):
            raise ConfigurationError(f"unknown reweight scheme {self.kind!r}")
        if self.kind == "cosine":
            if self.m is None or not self.m >= 1:
                raise ConfigurationError(
                    f"cosine reweighting needs a horizon m >= 1, got {self.m!r}")
        elif self.m is not None:
            raise ConfigurationError("reweight 'none' takes no horizon")


NO_REWEIGHT = ReweightScheme("none")


def cosine_reweight(m: int) -> ReweightScheme:
    return ReweightScheme("cosine", m)


@dataclass(frozen=True)
class AttentionConfig:
    """Which attention to run: feature map, reweight, causality and eps floor.

    use_softmax runs the quadratic softmax reference, always scaled by
    1/sqrt(d_k), instead of a kernel; the kernel-only fields must then
    keep their defaults. Raises ConfigurationError on an invalid mix."""

    feature_map: FeatureMapKind = RELU
    reweight: ReweightScheme = NO_REWEIGHT
    causal: bool = False
    eps: float = DEFAULT_EPS
    use_softmax: bool = False

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise ConfigurationError(f"eps must be finite and > 0, got {self.eps!r}")
        if self.use_softmax and (self.reweight, self.feature_map, self.eps) \
                != (NO_REWEIGHT, RELU, DEFAULT_EPS):
            raise ConfigurationError(
                "a softmax config takes no reweight scheme, feature map or eps")
        if self.reweight.kind == "cosine" and not self.feature_map.nonnegative:
            raise ConfigurationError(
                "cosine reweighting requires a non-negative feature map "
                f"(relu or elu_plus_one), got {self.feature_map.name!r}")

    @classmethod
    def softmax(cls, causal: bool = False) -> "AttentionConfig":
        return cls(causal=causal, use_softmax=True)

    @classmethod
    def cosformer(cls, m: int, causal: bool = False,
                  feature_map: FeatureMapKind = RELU,
                  eps: float = DEFAULT_EPS) -> "AttentionConfig":
        return cls(feature_map=feature_map, reweight=cosine_reweight(m),
                   causal=causal, eps=eps)

    @classmethod
    def linear(cls, feature_map: FeatureMapKind = RELU, causal: bool = False,
               eps: float = DEFAULT_EPS) -> "AttentionConfig":
        return cls(feature_map=feature_map, causal=causal, eps=eps)


def _require_kernel_config(config: AttentionConfig):
    if config.use_softmax:
        raise ConfigurationError("kernel-path operation called with a softmax config")


def _drop_future(S: np.ndarray, value: float) -> None:
    """Set the entries j > i of each (n, n) slice of S to value, in place."""
    np.copyto(S, value, where=np.triu(np.ones(S.shape[-2:], dtype=bool), 1))


def _softmax_weights(Q: np.ndarray, K: np.ndarray, causal: bool) -> np.ndarray:
    """Float64 weights softmax(Q K^T / sqrt(d_k)) of checked (..., n, d)
    stacks; entries j > i of each slice are masked out first when causal."""
    S = _wide(Q) @ _wide(K).swapaxes(-1, -2)
    S /= math.sqrt(Q.shape[-1])
    if causal:
        _drop_future(S, -np.inf)
    S -= S.max(axis=-1, keepdims=True)
    np.exp(S, out=S)
    S /= S.sum(axis=-1, keepdims=True)
    return S


def softmax_attention(Q, K, V, causal: bool = False) -> np.ndarray:
    """Quadratic scaled dot-product softmax attention, the classical
    reference: row i is softmax(Q_i K^T / sqrt(d_k)) V, with keys j > i
    masked out when causal. Takes and returns what linear.attend does."""
    from .linear import attend  # linear imports this module
    return attend(Q, K, V, AttentionConfig.softmax(causal))


def _weights_quadratic_wide(Q: np.ndarray, K: np.ndarray,
                            config: AttentionConfig) -> np.ndarray:
    """Float64 kernel weight matrix; shared by the public quadratic ops."""
    S = apply_feature_map(_wide(Q), config.feature_map) \
        @ apply_feature_map(_wide(K), config.feature_map).T
    if config.causal:
        # Before the re-weight: a dropped product that overflowed stays
        # 0, not 0 * inf = NaN.
        _drop_future(S, 0.0)
    if config.reweight.kind == "cosine":
        from .reweight import build_reweight_matrix  # reweight imports this module
        S *= build_reweight_matrix(Q.shape[0], K.shape[0], config.reweight.m)
    den = S.sum(axis=1)
    return S / np.maximum(den, config.eps)[:, None]


def attention_weights_quadratic(Q, K, config: AttentionConfig) -> np.ndarray:
    """Explicit normalized kernel attention weights (n_q x n_k): entry
    (i, j) is phi(Q_i) phi(K_j)^T, times the re-weight when configured,
    with j > i zeroed when causal, over max(row sum, eps)."""
    _require_kernel_config(config)
    Q = require_matrix(Q, "Q")
    K = require_matrix(K, "K")
    _require_qkv(Q, K, K, config.causal)  # K stands in for V
    W = _weights_quadratic_wide(Q, K, config)
    return W.astype(_storage_dtype(Q, K), copy=False)


def kernel_attention_quadratic(Q, K, V, config: AttentionConfig) -> np.ndarray:
    """Kernel attention the quadratic way, explicit weights times V: the
    exact oracle of the linear-time path, on 2-D Q, K and V."""
    _require_kernel_config(config)
    Q = require_matrix(Q, "Q")
    K = require_matrix(K, "K")
    V = require_matrix(V, "V")
    _require_qkv(Q, K, V, config.causal)
    out = _weights_quadratic_wide(Q, K, config) @ _wide(V)
    return out.astype(_storage_dtype(Q, K, V), copy=False)
