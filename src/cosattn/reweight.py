"""Cosine positional re-weighting and its exact decomposition.

The re-weight for query position i and key position j (both 1-based) is
cos(pi/2 * (i - j) / m), where the horizon m must be at least as large as
the longest sequence in play. Because cos(a - b) = cos a cos b + sin a sin b,
the weighted similarity phi(Q_i) phi(K_j)^T * w(i, j) is exactly one plain
inner product of 2d-wide feature rows [phi(x) cos | phi(x) sin], so the
re-weighted kernel is ordinary linear attention on those rows, which is
what the linear-time path exploits.

Angles are computed per position as (pi * pos) / (2 * m) in float64.

The horizon rule m >= longest sequence has one owner, _require_horizon,
run by build_reweight_matrix, decompose (which also validates its rows),
causal_state_step and the kernel backward. _position_scaled checks nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DimensionError


def cos_weight(i: int, j: int, m: int) -> float:
    """Re-weight between query position i and key position j, horizon m."""
    return float(np.cos((np.pi * (i - j)) / (2.0 * m)))


def position_angles(n: int, m: int) -> np.ndarray:
    """Angles (pi * pos) / (2m) for 1-based positions 1..n, float64."""
    pos = np.arange(1, n + 1, dtype=np.float64)
    return (np.pi * pos) / (2.0 * m)


def position_factors(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the position angles for 1-based positions 1..n.

    For positions within the horizon both vectors lie in [0, 1], which keeps
    the decomposed factors non-negative whenever the features are.
    """
    angles = position_angles(n, m)
    return np.cos(angles), np.sin(angles)


def _require_horizon(longest: int, m: int) -> None:
    """m must cover the longest sequence, or some re-weights turn negative."""
    if m < longest:
        raise ConfigurationError(
            f"cosine horizon m={m} is smaller than the longest sequence "
            f"({longest})")


def build_reweight_matrix(n_q: int, n_k: int, m: int) -> np.ndarray:
    """Dense n_q x n_k matrix of cos_weight(i, j, m) values.

    Requires m >= max(n_q, n_k); every entry is then in (0, 1] because all
    position differences stay strictly inside the quarter period.
    """
    if n_q < 1 or n_k < 1:
        raise DimensionError(f"need n_q, n_k >= 1, got {n_q}, {n_k}")
    _require_horizon(max(n_q, n_k), m)
    i = np.arange(1, n_q + 1, dtype=np.float64)[:, None]
    j = np.arange(1, n_k + 1, dtype=np.float64)[None, :]
    return np.cos((np.pi * (i - j)) / (2.0 * m))


def _position_scaled(F: np.ndarray, m: int) -> np.ndarray:
    """[F cos | F sin] with each row scaled by its own position's factors.

    F is (..., n, d); positions run along axis -2 of every slice. The
    result is float64. No check is made: callers have checked F and m >= n.
    """
    d = F.shape[-1]
    cos, sin = position_factors(F.shape[-2], m)
    out = np.empty(F.shape[:-1] + (2 * d,))
    np.multiply(F, cos[:, None], out=out[..., :d])
    np.multiply(F, sin[:, None], out=out[..., d:])
    return out


def decompose(Q_feat, K_feat, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Position-scaled 2d-wide feature rows (q, k) of the cosine decomposition.

    Q_feat and K_feat are (..., n, d) feature rows. Row i of every slice
    of q is [Q_feat_i cos(pi i / (2m)) | Q_feat_i sin(pi i / (2m))] and
    likewise for k, so that, slice by slice,

        q @ k.T == (Q_feat @ K_feat.T) * reweight matrix

    holds exactly in real arithmetic.
    """
    from .core import require_matrix  # core imports this module
    Qf = require_matrix(Q_feat, "Q_feat", stack=True)
    Kf = require_matrix(K_feat, "K_feat", stack=True)
    if Qf.shape[-1] != Kf.shape[-1]:
        raise DimensionError(
            f"feature widths differ: {Qf.shape[-1]} vs {Kf.shape[-1]}")
    _require_horizon(max(Qf.shape[-2], Kf.shape[-2]), m)
    return _position_scaled(Qf, m), _position_scaled(Kf, m)
