"""Cosine positional re-weighting and its exact decomposition.

The re-weight of query position i and key position j (both 1-based) is
cos(pi (i - j) / 2m); a horizon m that covers the last position keeps it
in (0, 1]. Since cos(a - b) = cos a cos b + sin a sin b, the weighted
similarity phi(q_i) . phi(k_j) w(i, j) is exactly the inner product of
the 2d-wide rows [phi(x) cos | phi(x) sin], each scaled at its own angle
pi pos / 2m, computed in float64. So the re-weighted kernel is linear
attention on those rows, and a causal scan carries it across chunks like
any kernel sum; within a chunk the weight is one matrix
(linear._reweight_chunk), which needs no split.
"""

from __future__ import annotations

import numpy as np

from .core import require_matrix
from .errors import ConfigurationError, DimensionError


def cos_weight(i: int, j: int, m: int) -> float:
    """Re-weight between query position i and key position j, horizon m."""
    return float(np.cos((np.pi * (i - j)) / (2.0 * m)))


def position_angles(n: int, m: int, first: int = 1) -> np.ndarray:
    """Angles (pi * pos) / (2m) for the n 1-based positions from first,
    float64. Refuses an m that is NaN or below 1."""
    if not m >= 1:
        raise ConfigurationError(f"need a horizon m >= 1, got {m!r}")
    angles = np.arange(first, first + n, dtype=np.float64)
    angles *= np.pi
    angles /= 2.0 * m
    return angles


def position_factors(n: int, m: int, first: int = 1) -> np.ndarray:
    """cos and sin of position_angles as the two rows of one (2, n)
    float64 array: it unpacks as (cos, sin), and its transpose is the
    table _position_scaled reads. Within the horizon both lie in [0, 1].
    Refuses an m that is NaN or below 1."""
    angles = position_angles(n, m, first)
    factors = np.empty((2, n))
    np.cos(angles, out=factors[0])
    np.sin(angles, out=factors[1])
    return factors


def _require_horizon(last: int, m: int) -> None:
    """m must cover the last position, or some re-weights turn negative."""
    if not m >= last:  # a NaN m is refused too
        raise ConfigurationError(
            f"cosine horizon m={m} is smaller than the last position ({last})")


def build_reweight_matrix(n_q: int, n_k: int, m: int) -> np.ndarray:
    """Dense n_q x n_k matrix of cos_weight(i, j, m) values, each of the
    n_q + n_k - 1 distinct ones computed once, as cos_weight has it.
    Requires m >= max(n_q, n_k), so every entry lies in (0, 1]."""
    if n_q < 1 or n_k < 1:
        raise DimensionError(f"need n_q, n_k >= 1, got {n_q}, {n_k}")
    _require_horizon(max(n_q, n_k), m)
    # diagonal[t] is the weight of i - j = t - (n_k - 1)
    diagonal = np.cos((np.pi * np.arange(1 - n_k, n_q, dtype=np.float64))
                      / (2.0 * m))
    return np.lib.stride_tricks.sliding_window_view(diagonal, n_k)[:, ::-1].copy()


def _position_scaled(F: np.ndarray, table: np.ndarray, offset: int = 0) -> np.ndarray:
    """[F cos | F sin] with each row scaled by its own position's factors.

    F is (..., n, d) and table an (offset + n or more, 2) table of
    (cos, sin) rows in F's dtype; row i of every slice takes table row
    offset + i. One einsum writes a contiguous (..., n, 2d) array and
    allocates nothing else, where a broadcast multiply allocates scratch.
    Bit-identical to scaling each half apart, except that a -0.0 product
    reads +0.0. Checks nothing."""
    n, d = F.shape[-2:]
    out = np.einsum("...nd,nc->...ncd", F, table[offset:offset + n], order="C")
    return out.reshape(F.shape[:-1] + (2 * d,))


def decompose(Q_feat, K_feat, m: int,
              first: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Position-scaled 2d-wide feature rows (q, k) of the decomposition.

    Q_feat and K_feat are (..., n, d) feature rows whose row 0 sits at
    the 1-based position first. Row i of q is
    [Q_feat_i cos(pi i / (2m)) | Q_feat_i sin(pi i / (2m))], likewise for
    k, so for first = 1, slice by slice and in real arithmetic,

        q @ k.T == (Q_feat @ K_feat.T) * reweight matrix.

    Rows decomposed from a later first equal the matching rows of a whole
    decomposition bit for bit. Raises as require_matrix does, and
    DimensionError on differing widths and ConfigurationError on a first
    that is not an integer >= 1 or a last position beyond m."""
    Qf = require_matrix(Q_feat, "Q_feat", stack=True)
    Kf = require_matrix(K_feat, "K_feat", stack=True)
    if Qf.shape[-1] != Kf.shape[-1]:
        raise DimensionError(
            f"feature widths differ: {Qf.shape[-1]} vs {Kf.shape[-1]}")
    if not isinstance(first, (int, np.integer)) or first < 1:
        raise ConfigurationError(f"first must be an integer >= 1, got {first!r}")
    rows = max(Qf.shape[-2], Kf.shape[-2])
    _require_horizon(first - 1 + rows, m)
    # One (rows, 2) table, rounded once to each operand's dtype.
    table = position_factors(rows, m, first).T
    tq = table.astype(Qf.dtype, copy=False)
    tk = tq if Kf.dtype == Qf.dtype else table.astype(Kf.dtype, copy=False)
    return _position_scaled(Qf, tq), _position_scaled(Kf, tk)
