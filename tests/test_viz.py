"""Coverage-map semantics, checked against hand-traced rows."""

import numpy as np
import pytest

from cosattn.core import AttentionConfig, attention_weights_quadratic
from cosattn.errors import ConfigurationError, DimensionError
from cosattn.viz import CoverageMatrix, visualize_attention


def test_hand_traced_single_matrix():
    m = np.array([
        [0.7, 0.2, 0.1],
        [0.1, 0.1, 0.8],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    ])
    cov = visualize_attention([m], threshold=0.75)
    # row 0: 0.7 then 0.2 crosses 0.75 -> first two columns
    # row 1: 0.8 crosses alone -> column 2
    # row 2: ties scan ascending, 2/3 then 1.0 crosses -> all three
    expected = np.array([
        [1.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 1.0],
    ])
    np.testing.assert_array_equal(cov.values, expected)
    assert cov.n_matrices == 1 and cov.threshold == 0.75


def test_tie_break_prefers_earlier_column():
    m = np.array([[0.4, 0.4, 0.2]] * 3)
    cov = visualize_attention([m], threshold=0.3)
    # 0.4 at column 0 already exceeds 0.3; the tied column 1 stays unmarked
    np.testing.assert_array_equal(cov.values[0], [1.0, 0.0, 0.0])


def test_threshold_edges():
    m = np.array([[0.5, 0.3, 0.2]] * 3)
    top_only = visualize_attention([m], threshold=0.0)
    np.testing.assert_array_equal(top_only.values[0], [1.0, 0.0, 0.0])
    everything = visualize_attention([m], threshold=1.0)
    # a stochastic row can never strictly exceed 1, so all columns mark
    np.testing.assert_array_equal(everything.values, np.ones((3, 3)))


def test_average_over_matrices_quantized():
    a = np.array([[0.9, 0.1], [0.1, 0.9]])
    b = np.array([[0.1, 0.9], [0.9, 0.1]])
    cov = visualize_attention([a, b], threshold=0.5)
    # each matrix marks only its own heavy column; averages are halves
    np.testing.assert_array_equal(cov.values, np.full((2, 2), 0.5))
    counts = cov.values * cov.n_matrices
    np.testing.assert_array_equal(counts, np.rint(counts))


def test_identity_rows_mark_diagonal():
    cov = visualize_attention([np.eye(4)], threshold=0.9)
    np.testing.assert_array_equal(cov.values, np.eye(4))


def test_accepts_real_attention_weights():
    rng = np.random.default_rng(31)
    config = AttentionConfig.cosformer(m=12)
    mats = []
    for _ in range(3):
        # positive entries keep every feature row active, so the weights
        # are genuinely row-stochastic rather than floored to zero
        Q = rng.uniform(0.1, 1.0, (12, 6))
        K = rng.uniform(0.1, 1.0, (12, 6))
        mats.append(attention_weights_quadratic(Q, K, config))
    cov = visualize_attention(mats, threshold=0.9)
    cov.validate()
    assert cov.values.shape == (12, 12)
    # at threshold 0.9 every row marks at least one column
    assert (cov.values.sum(axis=1) >= 1.0).all()


def test_input_validation():
    good = np.full((2, 2), 0.5)
    with pytest.raises(ConfigurationError):
        visualize_attention([], threshold=0.5)
    with pytest.raises(ConfigurationError):
        visualize_attention([good], threshold=1.5)
    with pytest.raises(ConfigurationError):
        visualize_attention([good], threshold=-0.1)
    with pytest.raises(DimensionError):
        visualize_attention([np.full((2, 3), 0.5)], threshold=0.5)
    with pytest.raises(DimensionError):
        visualize_attention([good, np.full((3, 3), 1.0 / 3.0)], threshold=0.5)
    with pytest.raises(ValueError):
        visualize_attention([np.array([[0.9, 0.2], [0.5, 0.5]])], threshold=0.5)
    with pytest.raises(ValueError):
        visualize_attention([np.array([[1.5, -0.5], [0.5, 0.5]])], threshold=0.5)


def test_coverage_matrix_validation():
    CoverageMatrix(np.eye(2), 0.5, 1).validate()
    with pytest.raises(DimensionError):
        CoverageMatrix(np.ones((2, 3)), 0.5, 1).validate()
    with pytest.raises(ConfigurationError):
        CoverageMatrix(np.eye(2), 1.5, 1).validate()
    with pytest.raises(ConfigurationError):
        CoverageMatrix(np.eye(2), 0.5, 0).validate()
    with pytest.raises(ValueError):
        CoverageMatrix(np.eye(2) * 2.0, 0.5, 1).validate()
    with pytest.raises(ValueError):
        CoverageMatrix(np.full((2, 2), 0.3), 0.5, 2).validate()
