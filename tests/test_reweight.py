"""Cosine re-weighting values and the exactness of the decomposition."""

import numpy as np
import pytest

from cosattn.core import RELU, apply_feature_map
from cosattn.errors import ConfigurationError, DimensionError
from cosattn.reweight import (
    _position_scaled,
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
    for n_q, n_k in ((5, 7), (9, 4), (1, 6), (6, 1)):
        W = build_reweight_matrix(n_q, n_k, 12)
        assert W.shape == (n_q, n_k) and W.flags.c_contiguous
        for i in range(n_q):
            for j in range(n_k):
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



def test_reweight_matrix_refuses_a_nan_horizon():
    with pytest.raises(ConfigurationError):
        build_reweight_matrix(3, 3, float("nan"))


@pytest.mark.parametrize("m", [float("nan"), 0, 0.5, -3])
@pytest.mark.parametrize("positions", [position_angles, position_factors])
def test_positions_refuse_a_nan_or_sub_one_horizon(positions, m):
    with pytest.raises(ConfigurationError):
        positions(4, m)

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
    # a fractional first would scale rows at positions 1.5, 2.5, ...
    for first in (0, 1.5, np.float64(2.0)):
        with pytest.raises(ConfigurationError, match="first must"):
            decompose(np.ones((2, 3)), np.ones((2, 3)), 8, first=first)
    whole = decompose(np.ones((2, 3)), np.ones((2, 3)), 8, first=2)
    for first in (np.int32(2), np.int64(2)):
        for got, want in zip(decompose(np.ones((2, 3)), np.ones((2, 3)), 8,
                                       first=first), whole):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_decompose_from_a_later_first_position_is_a_slice(dtype):
    # The causal walk decomposes one panel at a time from its own first
    # position; its rows must be the whole decomposition's, bit for bit.
    rng = np.random.default_rng(22)
    Qf, Kf = (apply_feature_map(rng.standard_normal((2, 600, 5)), RELU).astype(dtype)
              for _ in range(2))
    m = 601
    q, k = decompose(Qf, Kf, m)
    for a, b in ((0, 600), (3, 17), (256, 512), (511, 600), (599, 600)):
        qa, ka = decompose(Qf[..., a:b, :], Kf[..., a:b, :], m, first=a + 1)
        assert qa.dtype == ka.dtype == dtype
        assert np.array_equal(qa, q[..., a:b, :]), (a, b)
        assert np.array_equal(ka, k[..., a:b, :]), (a, b)


def test_decompose_refuses_positions_outside_the_horizon():
    F = np.ones((10, 3))
    decompose(F, F, 50, first=41)  # last position 50 = m
    with pytest.raises(ConfigurationError):
        decompose(F, F, 50, first=42)
    with pytest.raises(ConfigurationError):
        decompose(F, F, 50, first=0)
    with pytest.raises(ConfigurationError):
        decompose(F[:1], F[:1], 1, first=-1)


def _two_multiply_scaled(F, factors, offset=0):
    """The two-half form the one-call scaling replaced: each half
    multiplied by its factors, rounded to F's dtype per call."""
    n, d = F.shape[-2:]
    cos, sin = (c[offset:offset + n].astype(F.dtype, copy=False)
                for c in factors)
    out = np.empty(F.shape[:-1] + (2 * d,), F.dtype)
    np.multiply(F, cos[:, None], out=out[..., :d])
    np.multiply(F, sin[:, None], out=out[..., d:])
    return out


@pytest.mark.parametrize("offset", [0, 9])
@pytest.mark.parametrize("shape", [(7, 1), (40, 5), (2, 3, 33, 4), (3, 129, 1)],
                         ids=str)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_position_scaled_is_the_two_multiply_form_bit_for_bit(dtype, shape, offset):
    rng = np.random.default_rng(23)
    F = rng.standard_normal(shape).astype(dtype)
    F[..., ::4, :] = 0.0
    n = shape[-2]
    factors = position_factors(offset + n + 5, 2 * (offset + n))
    got = _position_scaled(F, factors.T.astype(dtype), offset)
    want = _two_multiply_scaled(F, factors, offset)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_position_scaled_reads_a_negative_zero_product_as_zero():
    # The one call accumulates each product into a zeroed output, so a
    # -0.0 product comes out +0.0; as a value it is the same product.
    F = np.array([[-0.0, -1.0, 2.0]])
    table = np.array([[0.5, 0.25]])
    got = _position_scaled(F, table)
    assert np.array_equal(got, _two_multiply_scaled(F, table.T))
    assert not np.signbit(got[0, 0]) and not np.signbit(got[0, 3])


def test_position_factors_unpack_and_transpose_to_the_table():
    factors = position_factors(5, 11, first=3)
    assert factors.shape == (2, 5) and factors.dtype == np.float64
    cos, sin = factors
    angles = position_angles(5, 11, first=3)
    assert np.array_equal(cos, np.cos(angles)) and np.array_equal(sin, np.sin(angles))
    assert np.array_equal(factors.T, np.stack([cos, sin], axis=-1))


@pytest.mark.parametrize("first", [1, 6])
def test_mixed_dtype_decompose_rounds_each_operands_factors_to_its_own_dtype(first):
    rng = np.random.default_rng(24)
    Qf = apply_feature_map(rng.standard_normal((2, 9, 3)), RELU)
    Kf = apply_feature_map(rng.standard_normal((2, 6, 3)), RELU)
    m = first + 9
    factors = position_factors(9, m, first)
    for q_dtype, k_dtype in ((np.float32, np.float64), (np.float64, np.float32)):
        q, k = decompose(Qf.astype(q_dtype), Kf.astype(k_dtype), m, first=first)
        assert q.dtype == q_dtype and k.dtype == k_dtype
        for got, F, dtype in ((q, Qf, q_dtype), (k, Kf, k_dtype)):
            want = _two_multiply_scaled(F.astype(dtype), factors)
            assert got.tobytes() == want.tobytes()
    # Scaling in float64 and rounding after gives other float32 rows here,
    # so the checks above tell the two roundings apart.
    q32 = decompose(Qf.astype(np.float32), Kf, m, first=first)[0]
    wide = (Qf.astype(np.float32).astype(np.float64)[..., None, :]
            * factors.T[:, :, None]).reshape(q32.shape).astype(np.float32)
    assert not np.array_equal(q32, wide)
