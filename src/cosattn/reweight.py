"""Cosine positional re-weighting and its exact decomposition.

The re-weight for query position i and key position j (both 1-based) is
cos(pi/2 * (i - j) / m), where the horizon m must be at least as large as
the longest sequence in play. Because cos(a - b) = cos a cos b + sin a sin b,
the weighted similarity phi(Q_i) phi(K_j)^T * w(i, j) is exactly one plain
inner product of 2d-wide feature rows [phi(x) cos | phi(x) sin], so the
re-weighted kernel is ordinary linear attention on those rows, which is
what the linear-time path exploits. The split is needed only where the
re-weight must ride a carried sum: a causal call of one chunk
(cosattn.linear._BLOCK rows or fewer) multiplies build_reweight_matrix's
values into its one masked product instead, and never decomposes.

Angles and their cos/sin factors are computed per position as
(pi * pos) / (2 * m) in float64; float32 feature rows are scaled by the
factors rounded once to float32.

The horizon rule m >= last position has one owner, _require_horizon, run
by build_reweight_matrix, decompose (which also validates its rows and
first position), causal_state_step and, before any work, every cosine
kernel forward. _position_scaled checks nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DimensionError


def cos_weight(i: int, j: int, m: int) -> float:
    """Re-weight between query position i and key position j, horizon m."""
    return float(np.cos((np.pi * (i - j)) / (2.0 * m)))


def position_angles(n: int, m: int, first: int = 1) -> np.ndarray:
    """Angles (pi * pos) / (2m) for the n 1-based positions from first,
    float64."""
    pos = np.arange(first, first + n, dtype=np.float64)
    return (np.pi * pos) / (2.0 * m)


def position_factors(n: int, m: int,
                     first: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the position angles for the n 1-based positions
    from first.

    For positions within the horizon both vectors lie in [0, 1], which keeps
    the decomposed factors non-negative whenever the features are.
    """
    angles = position_angles(n, m, first)
    return np.cos(angles), np.sin(angles)


def _require_horizon(last: int, m: int) -> None:
    """m must cover the last position, or some re-weights turn negative."""
    if m < last:
        raise ConfigurationError(
            f"cosine horizon m={m} is smaller than the last position ({last})")


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


def _position_scaled(F: np.ndarray, factors, offset: int = 0) -> np.ndarray:
    """[F cos | F sin] with each row scaled by its own position's factors.

    F is (..., n, d); factors is the (cos, sin) pair of position_factors
    for at least offset + n positions, row i of every slice taking entry
    offset + i. The result has F's dtype: for float32 F the float64
    factors are rounded once to float32, and float64 F is scaled in
    float64. No check is made: callers have checked F and the positions
    against the horizon.
    """
    n, d = F.shape[-2:]
    cos, sin = (c[offset:offset + n].astype(F.dtype, copy=False)
                for c in factors)
    out = np.empty(F.shape[:-1] + (2 * d,), F.dtype)
    np.multiply(F, cos[:, None], out=out[..., :d])
    np.multiply(F, sin[:, None], out=out[..., d:])
    return out


def decompose(Q_feat, K_feat, m: int,
              first: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Position-scaled 2d-wide feature rows (q, k) of the cosine decomposition.

    Q_feat and K_feat are (..., n, d) feature rows, whose row 0 sits at
    the 1-based position first. The row at position i of every slice of
    q is [Q_feat_i cos(pi i / (2m)) | Q_feat_i sin(pi i / (2m))] and
    likewise for k, so that, slice by slice and for first = 1,

        q @ k.T == (Q_feat @ K_feat.T) * reweight matrix

    holds exactly in real arithmetic. Each factor depends on its own
    position alone, so rows decomposed from a later first (the causal
    forward decomposes one panel at a time) equal the matching rows of a
    whole decomposition bit for bit. Refuses a first that is not an
    integer >= 1, and a last position first - 1 + rows beyond m.
    """
    from .core import require_matrix  # core imports this module
    Qf = require_matrix(Q_feat, "Q_feat", stack=True)
    Kf = require_matrix(K_feat, "K_feat", stack=True)
    if Qf.shape[-1] != Kf.shape[-1]:
        raise DimensionError(
            f"feature widths differ: {Qf.shape[-1]} vs {Kf.shape[-1]}")
    if not isinstance(first, (int, np.integer)) or first < 1:
        raise ConfigurationError(f"first must be an integer >= 1, got {first!r}")
    rows = max(Qf.shape[-2], Kf.shape[-2])
    _require_horizon(first - 1 + rows, m)
    factors = position_factors(rows, m, first)
    return _position_scaled(Qf, factors), _position_scaled(Kf, factors)
