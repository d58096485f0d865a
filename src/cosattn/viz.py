"""Where does an attention matrix actually look? Coverage maps.

Each row of a row-stochastic attention matrix is visited in descending
order (ties by ascending column) and marked until the running mass first
exceeds the threshold, the crossing entry included. Marks are averaged
over the matrices: a map of which key columns carry each query row's
weight. Rows must sum to 1 up to rounding, or the marking means nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import require_matrix
from .errors import ConfigurationError, DimensionError

# Row sums may drift from exact 1 by accumulated rounding, nothing more.
_ROW_SUM_TOL = 1e-6


def _require_threshold(threshold: float) -> None:
    if not (0.0 <= threshold <= 1.0):
        raise ConfigurationError(f"threshold must be in [0, 1], got {threshold}")


def _require_unit_values(values: np.ndarray) -> None:
    if values.min() < 0.0 or values.max() > 1.0:
        raise ValueError("coverage values must lie in [0, 1]")


@dataclass(frozen=True)
class CoverageMatrix:
    """Averaged 0/1 marks over n_matrices inputs, values in [0, 1]."""

    values: np.ndarray
    threshold: float
    n_matrices: int

    def validate(self) -> None:
        require_matrix(self.values, "coverage values")
        if self.values.shape[0] != self.values.shape[1]:
            raise DimensionError("coverage matrix must be square")
        _require_threshold(self.threshold)
        if self.n_matrices < 1:
            raise ConfigurationError("n_matrices must be >= 1")
        _require_unit_values(self.values)
        # Every value is an average of 0/1 marks over n_matrices inputs.
        counts = self.values * self.n_matrices
        if not np.allclose(counts, np.rint(counts), atol=1e-9):
            raise ValueError(
                "coverage values must be multiples of 1/n_matrices")


def _require_stochastic(m: np.ndarray, name: str) -> None:
    if m.min() < 0.0:
        raise ValueError(f"{name} has negative entries; rows must be stochastic")
    sums = m.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > _ROW_SUM_TOL:
        raise ValueError(f"{name} rows must sum to 1 (tolerance {_ROW_SUM_TOL})")


def _mark_row(row: np.ndarray, threshold: float, marks: np.ndarray) -> None:
    # argsort of the negated row is descending, and the stable sort keeps
    # ties in ascending column order.
    order = np.argsort(-row, kind="stable")
    running = np.cumsum(row[order])
    crossed = running > threshold
    count = int(np.argmax(crossed)) + 1 if crossed.any() else row.shape[0]
    marks[order[:count]] += 1.0


def visualize_attention(matrices, threshold: float) -> CoverageMatrix:
    """Average per-row threshold-coverage marks over the given matrices.
    A threshold of 1.0 marks every column, as a stochastic row never
    strictly exceeds it; 0.0 marks exactly the top entry of each row."""
    matrices = list(matrices)
    if not matrices:
        raise ConfigurationError("need at least one attention matrix")
    _require_threshold(threshold)
    checked = []
    for idx, m in enumerate(matrices):
        m = require_matrix(m, f"matrices[{idx}]")
        if m.shape[0] != m.shape[1]:
            raise DimensionError(
                f"matrices[{idx}] must be square, got {m.shape[0]}x{m.shape[1]}")
        checked.append(np.asarray(m, dtype=np.float64))
    d = checked[0].shape[0]
    for idx, m in enumerate(checked):
        if m.shape[0] != d:
            raise DimensionError(
                f"matrices[{idx}] is {m.shape[0]}x{m.shape[0]}, expected {d}x{d}")
        _require_stochastic(m, f"matrices[{idx}]")
    counts = np.zeros((d, d))
    for m in checked:
        for i in range(d):
            _mark_row(m[i], threshold, counts[i])
    cov = CoverageMatrix(
        values=counts / len(checked),
        threshold=threshold,
        n_matrices=len(checked),
    )
    cov.validate()
    return cov
