"""Domain types, feature maps, and quadratic-form reference attentions.

The quadratic implementations here materialize the full n_q x n_k weight
matrix and serve as exact oracles for the linear-time implementations in
:mod:`cosattn.linear`. Element storage may be float32 ("standard") or
float64 ("wide"); internal reductions always run in float64 and results
are cast back to the storage dtype of the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .reweight import build_reweight_matrix

_FEATURE_MAP_NAMES = ("identity", "relu", "leaky_relu", "elu_plus_one")

# Maps whose outputs are >= 0 everywhere; only these are admissible under
# cosine re-weighting, where the decomposed denominator must stay sign-safe.
NONNEGATIVE_FEATURE_MAPS = ("relu", "elu_plus_one")


def _wide(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _storage_dtype(*arrays: np.ndarray) -> np.dtype:
    dtype = np.result_type(*arrays)
    if dtype == np.float32:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def require_matrix(x, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Validate x as a finite, non-empty float matrix and return it as an ndarray.

    With stack=True x may also be a stack (..., rows, cols) of matrices
    with any leading axes; otherwise it must be exactly 2-D.
    """
    arr = np.asarray(x)
    if arr.ndim != 2 and not (stack and arr.ndim > 2):
        want = "at least 2-D" if stack else "2-D"
        raise DimensionError(f"{name} must be {want}, got ndim={arr.ndim}")
    if arr.size == 0:
        raise DimensionError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class AttentionDims:
    """Validated shape bundle for one attention call.

    ``lead`` holds the leading (batch, head, ...) axes that Q, K and V
    share; it is empty for a single sequence.
    """

    n_q: int
    n_k: int
    d_k: int
    d_v: int
    lead: tuple[int, ...] = ()

    def __post_init__(self):
        for field in ("n_q", "n_k", "d_k", "d_v"):
            if getattr(self, field) < 1:
                raise DimensionError(f"{field} must be >= 1")

    @classmethod
    def from_qkv(cls, Q: np.ndarray, K: np.ndarray, V: np.ndarray,
                 causal: bool = False) -> "AttentionDims":
        """Dims of (..., n, d) inputs; Q, K and V share their leading axes."""
        lead = Q.shape[:-2]
        if K.shape[:-2] != lead or V.shape[:-2] != lead:
            raise DimensionError(
                "Q, K and V must share their leading axes, got "
                f"{Q.shape}, {K.shape} and {V.shape}")
        (n_q, d_k), (n_k, d_k_key), (n_v, d_v) = \
            Q.shape[-2:], K.shape[-2:], V.shape[-2:]
        if d_k != d_k_key:
            raise DimensionError(
                f"Q and K must share the key width, got {Q.shape} vs {K.shape}")
        if n_k != n_v:
            raise DimensionError(
                f"K and V must share the row count, got {K.shape} vs {V.shape}")
        if causal and n_q != n_k:
            raise DimensionError(
                f"causal attention requires n_q == n_k, got {n_q} vs {n_k}")
        return cls(n_q, n_k, d_k, d_v, lead)


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
    if not np.issubdtype(x.dtype, np.floating):
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
            if self.m is None or self.m < 1:
                raise ConfigurationError(
                    f"cosine reweighting needs a horizon m >= 1, got {self.m!r}")
        elif self.m is not None:
            raise ConfigurationError("reweight 'none' takes no horizon")


NO_REWEIGHT = ReweightScheme("none")


def cosine_reweight(m: int) -> ReweightScheme:
    return ReweightScheme("cosine", m)


@dataclass(frozen=True)
class AttentionConfig:
    """Bundle of knobs shared by the quadratic and linear attention paths.

    ``softmax_scale`` applies 1/sqrt(d_k) inside the softmax reference only;
    kernel paths never scale. ``use_softmax`` makes :func:`cosattn.linear.attend`
    and :func:`cosattn.grad.attend_backward` run the quadratic softmax
    reference instead of a kernel attention, and refuses a reweight.
    """

    feature_map: FeatureMapKind = RELU
    reweight: ReweightScheme = NO_REWEIGHT
    causal: bool = False
    eps: float = 1e-6
    softmax_scale: bool = True
    use_softmax: bool = False

    def __post_init__(self):
        _require_eps(self.eps)
        if self.use_softmax and self.reweight.kind != "none":
            raise ConfigurationError("a softmax config takes no reweight scheme")
        if self.reweight.kind == "cosine" and not self.feature_map.nonnegative:
            raise ConfigurationError(
                "cosine reweighting requires a non-negative feature map "
                f"(relu or elu_plus_one), got {self.feature_map.name!r}")

    @classmethod
    def softmax(cls, causal: bool = False, scale: bool = True) -> "AttentionConfig":
        return cls(causal=causal, softmax_scale=scale, use_softmax=True)

    @classmethod
    def cosformer(cls, m: int, causal: bool = False,
                  feature_map: FeatureMapKind = RELU,
                  eps: float = 1e-6) -> "AttentionConfig":
        return cls(feature_map=feature_map, reweight=cosine_reweight(m),
                   causal=causal, eps=eps)

    @classmethod
    def linear(cls, feature_map: FeatureMapKind = RELU, causal: bool = False,
               eps: float = 1e-6) -> "AttentionConfig":
        return cls(feature_map=feature_map, causal=causal, eps=eps)


def _require_eps(eps: float) -> None:
    if not (eps > 0.0):
        raise ConfigurationError(f"eps must be > 0, got {eps!r}")


def _require_kernel_config(config: AttentionConfig):
    if config.use_softmax:
        raise ConfigurationError("kernel-path operation called with a softmax config")


def _softmax_rows(S: np.ndarray, causal: bool) -> np.ndarray:
    """Row-softmax of the scores S over the last axis, in place; entries
    j > i of each slice are masked out first when causal."""
    if causal:
        np.copyto(S, -np.inf,
                  where=np.triu(np.ones(S.shape[-2:], dtype=bool), 1))
    S -= S.max(axis=-1, keepdims=True)
    np.exp(S, out=S)
    S /= S.sum(axis=-1, keepdims=True)
    return S


def softmax_attention(Q, K, V, causal: bool = False, scale: bool = True) -> np.ndarray:
    """Quadratic softmax attention, the classical reference.

    Q (..., n_q, d_k), K (..., n_k, d_k) and V (..., n_k, d_v) share any
    leading axes; each slice is attended on its own. Row i of the result
    is softmax(Q_i K^T [/ sqrt(d_k)]) V, with key positions j > i masked
    out before the softmax when causal.
    """
    Q = require_matrix(Q, "Q", stack=True)
    K = require_matrix(K, "K", stack=True)
    V = require_matrix(V, "V", stack=True)
    dims = AttentionDims.from_qkv(Q, K, V, causal)
    out_dtype = _storage_dtype(Q, K, V)

    S = _wide(Q) @ _wide(K).swapaxes(-1, -2)
    if scale:
        S /= math.sqrt(dims.d_k)
    out = _softmax_rows(S, causal) @ _wide(V)
    return out.astype(out_dtype, copy=False)


def _weights_quadratic_wide(Q: np.ndarray, K: np.ndarray,
                            config: AttentionConfig) -> np.ndarray:
    """Float64 kernel weight matrix; shared by the public quadratic ops."""
    S = apply_feature_map(_wide(Q), config.feature_map) \
        @ apply_feature_map(_wide(K), config.feature_map).T
    if config.reweight.kind == "cosine":
        S *= build_reweight_matrix(Q.shape[0], K.shape[0], config.reweight.m)
    if config.causal:
        S *= np.tril(np.ones(S.shape))
    den = S.sum(axis=1)
    return S / np.maximum(den, config.eps)[:, None]


def attention_weights_quadratic(Q, K, config: AttentionConfig) -> np.ndarray:
    """Explicit normalized kernel attention weights (n_q x n_k).

    Entry (i, j) is phi(Q_i) phi(K_j)^T, times the positional re-weight when
    configured, divided by max(row sum, eps). Causal masking zeroes j > i
    before the row sum, so the normalizer only sees admissible keys.
    """
    _require_kernel_config(config)
    Q = require_matrix(Q, "Q")
    K = require_matrix(K, "K")
    AttentionDims.from_qkv(Q, K, K, config.causal)  # K stands in for V
    W = _weights_quadratic_wide(Q, K, config)
    return W.astype(_storage_dtype(Q, K), copy=False)


def kernel_attention_quadratic(Q, K, V, config: AttentionConfig) -> np.ndarray:
    """Kernel attention computed the quadratic way: explicit weights times V.

    This is the exact oracle the linear-time path is checked against.
    """
    _require_kernel_config(config)
    Q = require_matrix(Q, "Q")
    K = require_matrix(K, "K")
    V = require_matrix(V, "V")
    AttentionDims.from_qkv(Q, K, V, config.causal)
    out = _weights_quadratic_wide(Q, K, config) @ _wide(V)
    return out.astype(_storage_dtype(Q, K, V), copy=False)
