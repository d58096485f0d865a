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
(pi * pos) / (2 * m) in float64, into one (2, n) array whose transpose
is the (n, 2) table _position_scaled reads: one call writes a row's
[F cos | F sin] into a contiguous buffer, allocating nothing else.
decompose builds one table per call and rounds it once to each
operand's dtype, so float32 feature rows are scaled by float32-rounded
factors; the backward builds one whole-length table per call.

The horizon rule m >= last position has one owner, _require_horizon, run
by build_reweight_matrix, decompose (which also validates its rows and
first position), causal_state_step and, before any work, every cosine
kernel forward. _position_scaled checks nothing.
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
    float64."""
    angles = np.arange(first, first + n, dtype=np.float64)
    angles *= np.pi
    angles /= 2.0 * m
    return angles


def position_factors(n: int, m: int, first: int = 1) -> np.ndarray:
    """cos and sin of the position angles for the n 1-based positions
    from first, as the two rows of one (2, n) float64 array: it unpacks
    as (cos, sin), and its transpose is the (n, 2) table that
    _position_scaled reads.

    For positions within the horizon both rows lie in [0, 1], which keeps
    the decomposed factors non-negative whenever the features are.
    """
    angles = position_angles(n, m, first)
    factors = np.empty((2, n))
    np.cos(angles, out=factors[0])
    np.sin(angles, out=factors[1])
    return factors


def _require_horizon(last: int, m: int) -> None:
    """m must cover the last position, or some re-weights turn negative."""
    if m < last:
        raise ConfigurationError(
            f"cosine horizon m={m} is smaller than the last position ({last})")


def build_reweight_matrix(n_q: int, n_k: int, m: int) -> np.ndarray:
    """Dense n_q x n_k matrix of cos_weight(i, j, m) values.

    Requires m >= max(n_q, n_k); every entry is then in (0, 1] because all
    position differences stay strictly inside the quarter period. An
    entry depends on i - j alone, so the n_q + n_k - 1 distinct values
    are computed once, each exactly as cos_weight's formula has it, and
    laid out along the diagonals.
    """
    if n_q < 1 or n_k < 1:
        raise DimensionError(f"need n_q, n_k >= 1, got {n_q}, {n_k}")
    _require_horizon(max(n_q, n_k), m)
    # diagonal[t] is the weight of i - j = t - (n_k - 1)
    diagonal = np.cos((np.pi * np.arange(1 - n_k, n_q, dtype=np.float64))
                      / (2.0 * m))
    return np.lib.stride_tricks.sliding_window_view(diagonal, n_k)[:, ::-1].copy()


def _position_scaled(F: np.ndarray, table: np.ndarray, offset: int = 0) -> np.ndarray:
    """[F cos | F sin] with each row scaled by its own position's factors.

    F is (..., n, d); table is an (at least offset + n, 2) table of
    (cos, sin) rows (position_factors' transpose) in F's dtype, row i of
    every slice taking table row offset + i. One einsum writes both
    halves into a contiguous (..., n, 2, d) array, read as (..., n, 2d)
    without a copy; each entry is the one product that multiplying each
    half apart computes, so the rows are bit-identical to that form,
    except that a -0.0 product reads +0.0. A broadcast np.multiply would
    keep the sign but allocates iterator scratch about the size of its
    output; einsum allocates nothing but the output. No check is made:
    callers have checked F and the positions against the horizon, and
    rounded the float64 table to F's dtype.
    """
    n, d = F.shape[-2:]
    out = np.einsum("...nd,nc->...ncd", F, table[offset:offset + n], order="C")
    return out.reshape(F.shape[:-1] + (2 * d,))


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
