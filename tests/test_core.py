"""Feature maps, configs, and the quadratic reference attentions."""

import numpy as np
import pytest

from cosattn.core import (
    ELU_PLUS_ONE,
    IDENTITY,
    RELU,
    AttentionConfig,
    FeatureMapKind,
    ReweightScheme,
    _require_qkv,
    apply_feature_map,
    attention_weights_quadratic,
    cosine_reweight,
    kernel_attention_quadratic,
    leaky_relu,
    require_matrix,
    softmax_attention,
)
from cosattn.errors import ConfigurationError, DimensionError
from cosattn.linear import _BLOCK
from cosattn.matio import write_matrix
from cosattn.train import init_toy_params
from cosattn.viz import CoverageMatrix

import oracles


def test_require_matrix_validation():
    with pytest.raises(DimensionError):
        require_matrix(np.zeros(3), "x")
    with pytest.raises(DimensionError):
        require_matrix(np.zeros((0, 2)), "x")
    with pytest.raises(ValueError):
        require_matrix(np.array([[1.0, np.nan]]), "x")
    # Refused, not cast to its real part.
    with pytest.raises(ValueError, match="real"):
        require_matrix((1 + 1j) * np.ones((4, 2)), "x")
    out = require_matrix([[1, 2], [3, 4]], "x")
    assert out.dtype == np.float64 and out.shape == (2, 2)


def test_require_matrix_stack():
    x = np.ones((2, 3, 4, 5), dtype=np.float32)
    assert require_matrix(x, "x", stack=True) is x
    for bad in (np.zeros(3), np.zeros((2, 0, 5)), np.zeros((0, 3, 5))):
        with pytest.raises(DimensionError):
            require_matrix(bad, "x", stack=True)
    with pytest.raises(ValueError):
        require_matrix(np.array([[[1.0, np.inf]]]), "x", stack=True)


def test_single_matrix_callers_still_reject_a_stack(tmp_path):
    cube = np.full((2, 3, 3), 0.5)
    with pytest.raises(DimensionError):
        require_matrix(cube, "x")
    with pytest.raises(DimensionError):
        write_matrix(cube, tmp_path / "cube.txt")
    assert not (tmp_path / "cube.txt").exists()
    with pytest.raises(DimensionError):
        CoverageMatrix(cube, 0.5, 2).validate()
    params = init_toy_params(np.random.default_rng(17), d_model=4, d_ff=4)
    params.w_ff1 = params.w_ff1[None]
    with pytest.raises(DimensionError):
        params.validate()


def test_dims_validation():
    Q, K, V = np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((4, 5))
    _require_qkv(Q, K, V, causal=False)
    with pytest.raises(DimensionError):
        _require_qkv(Q, np.zeros((4, 3)), V, causal=False)
    with pytest.raises(DimensionError):
        _require_qkv(Q, K, np.zeros((3, 5)), causal=False)
    with pytest.raises(DimensionError):
        _require_qkv(Q, K, V, causal=True)
    _require_qkv(*(np.stack([a] * 3) for a in (Q, K, V)), causal=False)
    _require_qkv(*(np.zeros((2, 3, 4, 2)) for _ in range(3)), causal=True)
    # Leading axes must match exactly; they never broadcast.
    for lead_q, lead_k, lead_v in (((3,), (3,), (2,)), ((3,), (), ()),
                                   ((2, 3), (3,), (2, 3)), ((1,), (3,), (3,))):
        with pytest.raises(DimensionError):
            _require_qkv(np.zeros(lead_q + Q.shape), np.zeros(lead_k + K.shape),
                         np.zeros(lead_v + V.shape), causal=False)


def test_feature_map_kinds():
    assert RELU.nonnegative and ELU_PLUS_ONE.nonnegative
    assert not IDENTITY.nonnegative and not leaky_relu(0.5).nonnegative
    with pytest.raises(ConfigurationError):
        FeatureMapKind("swish")
    with pytest.raises(ConfigurationError):
        leaky_relu(0.0)
    with pytest.raises(ConfigurationError):
        leaky_relu(1.0)
    with pytest.raises(ConfigurationError):
        FeatureMapKind("relu", slope=0.5)


def test_feature_map_values():
    x = np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]])
    np.testing.assert_array_equal(apply_feature_map(x, IDENTITY), x)
    np.testing.assert_array_equal(
        apply_feature_map(x, RELU), [[0.0, 0.0, 0.0, 0.5, 2.0]])
    np.testing.assert_allclose(
        apply_feature_map(x, leaky_relu(0.1)), [[-0.2, -0.05, 0.0, 0.5, 2.0]])
    np.testing.assert_allclose(
        apply_feature_map(x, ELU_PLUS_ONE),
        [[np.exp(-2.0), np.exp(-0.5), 1.0, 1.5, 3.0]])
    assert (apply_feature_map(x, ELU_PLUS_ONE) > 0.0).all()
    # integer rows are mapped in float64
    for kind in (IDENTITY, RELU, leaky_relu(0.1), ELU_PLUS_ONE):
        ints = apply_feature_map(np.array([[-2, 0, 2]]), kind)
        assert ints.dtype == np.float64
        np.testing.assert_array_equal(ints, apply_feature_map(x[:, ::2], kind))


def test_identity_map_returns_a_copy():
    x = np.ones((2, 2))
    y = apply_feature_map(x, IDENTITY)
    y[0, 0] = 7.0
    assert x[0, 0] == 1.0


def test_reweight_scheme_validation():
    with pytest.raises(ConfigurationError):
        ReweightScheme("gauss")
    with pytest.raises(ConfigurationError):
        ReweightScheme("cosine")
    with pytest.raises(ConfigurationError):
        ReweightScheme("none", m=4)



@pytest.mark.parametrize("m", [float("nan"), 0, 0.5, -3])
def test_cosformer_config_refuses_a_nan_or_sub_one_horizon(m):
    with pytest.raises(ConfigurationError):
        AttentionConfig.cosformer(m=m)

def test_config_validation():
    with pytest.raises(ConfigurationError):
        AttentionConfig(eps=0.0)
    # an infinite floor would zero every output row
    with pytest.raises(ConfigurationError):
        AttentionConfig.linear(eps=np.inf)
    # cosine reweighting needs a non-negative map
    with pytest.raises(ConfigurationError):
        AttentionConfig.cosformer(m=8, feature_map=IDENTITY)
    with pytest.raises(ConfigurationError):
        AttentionConfig.cosformer(m=8, feature_map=leaky_relu(0.3))
    cfg = AttentionConfig.cosformer(m=8, feature_map=ELU_PLUS_ONE)
    assert cfg.reweight.m == 8 and not cfg.use_softmax
    assert AttentionConfig.softmax().use_softmax
    # The softmax reference has no reweight; attend would run plain
    # softmax and never check the horizon.
    with pytest.raises(ConfigurationError):
        AttentionConfig(use_softmax=True, reweight=cosine_reweight(4),
                        causal=True)
    # Nor a kernel feature map or eps floor, which it would silently drop.
    with pytest.raises(ConfigurationError):
        AttentionConfig(use_softmax=True, feature_map=ELU_PLUS_ONE)
    with pytest.raises(ConfigurationError):
        AttentionConfig(use_softmax=True, eps=0.5)


def test_kernel_ops_reject_softmax_config():
    cfg = AttentionConfig.softmax()
    Q = np.ones((2, 2))
    with pytest.raises(ConfigurationError):
        attention_weights_quadratic(Q, Q, cfg)
    with pytest.raises(ConfigurationError):
        kernel_attention_quadratic(Q, Q, Q, cfg)


def test_horizon_too_small_rejected():
    cfg = AttentionConfig.cosformer(m=3)
    Q = np.ones((4, 2))
    with pytest.raises(ConfigurationError):
        attention_weights_quadratic(Q, Q, cfg)


@pytest.mark.parametrize("config", [AttentionConfig.linear(causal=True),
                                    AttentionConfig.cosformer(m=8, causal=True)],
                         ids=["linear", "cosformer"])
def test_weights_shape_errors(config):
    with pytest.raises(DimensionError):
        attention_weights_quadratic(np.ones((4, 2)), np.ones((4, 3)), config)
    with pytest.raises(DimensionError):
        attention_weights_quadratic(np.ones((4, 2)), np.ones((5, 2)), config)


def test_softmax_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    for causal in (False, True):
        Q = rng.standard_normal((5, 3))
        K = Q if causal else rng.standard_normal((6, 3))
        V = rng.standard_normal((K.shape[0], 4))
        got = softmax_attention(Q, K, V, causal=causal)
        want = oracles.softmax_attention(Q.tolist(), K.tolist(),
                                         V.tolist(), causal)
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=str)
def test_softmax_stack_matches_per_slice_calls(lead):
    rng = np.random.default_rng(17)
    for n in (1, _BLOCK + 1, 2 * _BLOCK + 17):
        for causal in (False, True):
            for dtype in (np.float32, np.float64):
                n_k = n if causal else n + 3
                Q = rng.standard_normal(lead + (n, 4)).astype(dtype)
                K = rng.standard_normal(lead + (n_k, 4)).astype(dtype)
                V = rng.standard_normal(lead + (n_k, 3)).astype(dtype)
                got = softmax_attention(Q, K, V, causal=causal)
                assert got.shape == lead + (n, 3) and got.dtype == dtype
                for idx in np.ndindex(*lead):
                    want = softmax_attention(Q[idx], K[idx], V[idx],
                                             causal=causal)
                    scale = np.max(np.abs(want))
                    assert np.max(np.abs(got[idx] - want)) <= 1e-13 * scale


def test_softmax_rows_are_convex_combinations():
    rng = np.random.default_rng(12)
    Q = rng.standard_normal((8, 4)) * 20.0  # large scores stress stability
    V = rng.standard_normal((8, 3))
    out = softmax_attention(Q, Q, V, causal=True)
    assert np.isfinite(out).all()
    # row 0 attends only to itself
    np.testing.assert_allclose(out[0], V[0], atol=1e-12)


def test_kernel_quadratic_matches_scalar_oracle():
    rng = np.random.default_rng(13)
    cases = [
        (AttentionConfig.linear(IDENTITY), oracles.identity, None),
        (AttentionConfig.linear(RELU, causal=True), oracles.relu, None),
        (AttentionConfig.linear(leaky_relu(0.25)), oracles.leaky(0.25), None),
        (AttentionConfig.cosformer(m=16), oracles.relu, 16),
        (AttentionConfig.cosformer(m=16, causal=True,
                                   feature_map=ELU_PLUS_ONE),
         oracles.elu_plus_one, 16),
    ]
    for config, feature, m in cases:
        Q = rng.standard_normal((6, 3))
        K = rng.standard_normal((6, 3) if config.causal else (7, 3))
        V = rng.standard_normal((K.shape[0], 2))
        got = kernel_attention_quadratic(Q, K, V, config)
        want = oracles.kernel_attention(
            Q.tolist(), K.tolist(), V.tolist(), feature,
            m=m, causal=config.causal, eps=config.eps)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_weights_row_stochastic_above_floor():
    rng = np.random.default_rng(14)
    for config in (AttentionConfig.linear(RELU),
                   AttentionConfig.cosformer(m=20, causal=True)):
        Q = rng.standard_normal((10, 5))
        K = rng.standard_normal((10, 5))
        W = attention_weights_quadratic(Q, K, config)
        assert (W >= 0.0).all()
        sums = W.sum(axis=1)
        # rows whose raw mass clears the floor normalize to exactly 1
        live = sums > 0.5
        np.testing.assert_allclose(sums[live], 1.0, atol=1e-12)


def test_weights_zero_feature_row_is_zero():
    config = AttentionConfig.linear(RELU)
    Q = np.array([[-1.0, -2.0], [1.0, 1.0]])
    K = np.ones((3, 2))
    W = attention_weights_quadratic(Q, K, config)
    np.testing.assert_array_equal(W[0], 0.0)


def test_weights_causal_masked_entries_zero():
    rng = np.random.default_rng(15)
    Q = rng.standard_normal((6, 3))
    K = rng.standard_normal((6, 3))
    W = attention_weights_quadratic(Q, K, AttentionConfig.linear(RELU, causal=True))
    assert (W[np.triu_indices(6, 1)] == 0.0).all()


def test_storage_dtype_follows_inputs():
    rng = np.random.default_rng(16)
    Q = rng.standard_normal((4, 3)).astype(np.float32)
    V = rng.standard_normal((4, 2)).astype(np.float32)
    assert softmax_attention(Q, Q, V).dtype == np.float32
    assert kernel_attention_quadratic(
        Q, Q, V, AttentionConfig.linear(RELU)).dtype == np.float32
    # any float64 input promotes the result
    assert softmax_attention(Q.astype(np.float64), Q, V).dtype == np.float64
