"""Cosine re-weighting values and the exactness of the decomposition."""

import numpy as np
import pytest

from cosattn.core import RELU, apply_feature_map
from cosattn.errors import ConfigurationError, DimensionError
from cosattn.reweight import (
    build_reweight_matrix,
    cos_weight,
    decompose,
    position_angles,
    position_factors,
)

import oracles


def test_cos_weight_scalar_values():
    assert cos_weight(1, 1, 8) == 1.0
    assert cos_weight(3, 1, 8) == cos_weight(1, 3, 8)  # even in (i - j)
    np.testing.assert_allclose(cos_weight(9, 1, 8), np.cos(np.pi / 2.0),
                               atol=1e-15)
    for i in range(1, 9):
        for j in range(1, 9):
            assert cos_weight(i, j, 8) == oracles.cos_weight(i, j, 8)


def test_matrix_agrees_with_scalar():
    W = build_reweight_matrix(5, 7, 12)
    for i in range(5):
        for j in range(7):
            assert W[i, j] == cos_weight(i + 1, j + 1, 12)


def test_reweight_entries_positive_within_horizon():
    W = build_reweight_matrix(9, 9, 9)
    assert (W > 0.0).all() and (W <= 1.0).all()
    assert np.allclose(np.diag(W), 1.0)


def test_reweight_matrix_validation():
    with pytest.raises(ConfigurationError):
        build_reweight_matrix(5, 3, 4)
    with pytest.raises(DimensionError):
        build_reweight_matrix(0, 3, 4)


def test_angle_difference_identity_residual():
    # cos(a - b) == cos a cos b + sin a sin b, evaluated the decomposed way,
    # must agree with the direct evaluation to a few eps.
    eps = np.finfo(np.float64).eps
    for m in (512, 1024):
        a = position_angles(512, m)
        direct = np.cos(a[:, None] - a[None, :])
        split = (np.cos(a)[:, None] * np.cos(a)[None, :]
                 + np.sin(a)[:, None] * np.sin(a)[None, :])
        assert np.max(np.abs(direct - split)) <= 4.0 * eps


def test_position_factors_range():
    c, s = position_factors(16, 16)
    assert (c >= 0.0).all() and (c <= 1.0).all()
    assert (s >= 0.0).all() and (s <= 1.0).all()
    np.testing.assert_allclose(c * c + s * s, 1.0, atol=1e-15)


def test_decompose_reconstructs_reweighted_similarity():
    rng = np.random.default_rng(21)
    Qf = apply_feature_map(rng.standard_normal((6, 4)), RELU)
    Kf = apply_feature_map(rng.standard_normal((9, 4)), RELU)
    q, k = decompose(Qf, Kf, 9)
    direct = (Qf @ Kf.T) * build_reweight_matrix(6, 9, 9)
    np.testing.assert_allclose(q @ k.T, direct, atol=1e-13)
    # cos-scaled rows on the left, sin-scaled rows on the right
    for fused, feat in ((q, Qf), (k, Kf)):
        cos, sin = position_factors(feat.shape[0], 9)
        assert fused.shape == (feat.shape[0], 8)
        np.testing.assert_array_equal(fused[:, :4], feat * cos[:, None])
        np.testing.assert_array_equal(fused[:, 4:], feat * sin[:, None])
    # factors inherit non-negativity from the features
    assert (q >= 0.0).all() and (k >= 0.0).all()


def test_decompose_validation():
    with pytest.raises(DimensionError):
        decompose(np.ones((2, 3)), np.ones((2, 4)), 8)
    with pytest.raises(ConfigurationError):
        decompose(np.ones((5, 3)), np.ones((2, 3)), 4)
    with pytest.raises(ValueError):
        decompose(np.array([[np.inf]]), np.ones((1, 1)), 2)
