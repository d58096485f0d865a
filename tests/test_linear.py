"""Linear-time paths against the quadratic oracles, plus streaming."""

import numpy as np
import pytest

from cosattn.core import (
    ELU_PLUS_ONE,
    IDENTITY,
    RELU,
    AttentionConfig,
    kernel_attention_quadratic,
    leaky_relu,
)
from cosattn.errors import ConfigurationError, DimensionError
from cosattn.linear import (
    _BLOCK,
    attend,
    causal_state_init,
    causal_state_step,
    cosformer_attention,
    linear_attention,
)


def test_linear_matches_quadratic_all_maps():
    rng = np.random.default_rng(31)
    for feature_map in (IDENTITY, RELU, leaky_relu(0.25), ELU_PLUS_ONE):
        for causal in (False, True):
            n = int(rng.integers(1, 40))
            Q = rng.standard_normal((n, 5))
            K = rng.standard_normal((n if causal else n + 3, 5))
            V = rng.standard_normal((K.shape[0], 4))
            got = linear_attention(Q, K, V, feature_map=feature_map,
                                   causal=causal)
            config = AttentionConfig.linear(feature_map, causal=causal)
            want = kernel_attention_quadratic(Q, K, V, config)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_cosformer_matches_quadratic():
    rng = np.random.default_rng(32)
    for trial in range(20):
        n = int(rng.integers(1, 60))
        causal = bool(trial % 2)
        m = int(rng.choice((n, 2 * n)))
        config = AttentionConfig.cosformer(
            m=m, causal=causal,
            feature_map=RELU if trial % 3 else ELU_PLUS_ONE)
        Q = rng.standard_normal((n, 6))
        K = rng.standard_normal((n, 6))
        V = rng.standard_normal((n, 3))
        got = cosformer_attention(Q, K, V, config)
        want = kernel_attention_quadratic(Q, K, V, config)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_cosformer_spans_chunk_boundaries():
    rng = np.random.default_rng(33)
    n = 2 * _BLOCK + 17
    config = AttentionConfig.cosformer(m=n, causal=True)
    Q = rng.standard_normal((n, 4))
    K = rng.standard_normal((n, 4))
    V = rng.standard_normal((n, 4))
    got = cosformer_attention(Q, K, V, config)
    want = kernel_attention_quadratic(Q, K, V, config)
    np.testing.assert_allclose(got, want, atol=1e-10)


# Stacked calls must match per-slice 2-D calls to this relative bound,
# and every slice the quadratic oracle at the acceptance gate's bounds.
STACK_BOUND = 1e-13
GATE_BOUND = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-10}
KERNEL_VARIANTS = ("cosformer", "linear_relu", "linear_elu_plus_one")


def _rel(got, want):
    scale = max(float(np.max(np.abs(want))), np.finfo(np.float64).tiny)
    return float(np.max(np.abs(got - want))) / scale


def _kernel_config(variant, m, causal):
    if variant == "cosformer":
        return AttentionConfig.cosformer(m=m, causal=causal)
    feature_map = RELU if variant == "linear_relu" else ELU_PLUS_ONE
    return AttentionConfig.linear(feature_map, causal=causal)


@pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=str)
@pytest.mark.parametrize("variant", KERNEL_VARIANTS)
def test_stack_matches_per_slice_calls_and_oracle(variant, lead):
    rng = np.random.default_rng(37)
    for n in (1, 2 * _BLOCK + 17):
        for causal in (False, True):
            for dtype in (np.float32, np.float64):
                n_k = n if causal else n + 3
                config = _kernel_config(variant, max(n, n_k), causal)
                Q = rng.standard_normal(lead + (n, 4))
                # Every seventh query row relu-maps to zero features and
                # lands on the eps floor.
                Q[..., ::7, :] = -np.abs(Q[..., ::7, :])
                Q = Q.astype(dtype)
                K = rng.standard_normal(lead + (n_k, 4)).astype(dtype)
                V = rng.standard_normal(lead + (n_k, 3)).astype(dtype)
                got = attend(Q, K, V, config)
                assert got.shape == lead + (n, 3) and got.dtype == dtype
                for idx in np.ndindex(*lead):
                    args = (Q[idx], K[idx], V[idx])
                    want = attend(*args, config)
                    assert _rel(got[idx], want) <= STACK_BOUND, idx
                    oracle = kernel_attention_quadratic(*args, config)
                    assert _rel(got[idx], oracle) <= GATE_BOUND[got.dtype], idx


def test_stack_validation():
    config = AttentionConfig.cosformer(m=4, causal=True)
    X = np.ones((3, 4, 2))
    with pytest.raises(DimensionError):
        cosformer_attention(X, X, X[:2], config)
    with pytest.raises(DimensionError):
        cosformer_attention(X, X, X[0], config)
    with pytest.raises(DimensionError):
        linear_attention(X[None], X, X)
    with pytest.raises(DimensionError):
        linear_attention(np.ones(2), np.ones(2), np.ones(2))
    with pytest.raises(ConfigurationError):
        cosformer_attention(X, X, X, AttentionConfig.cosformer(m=3))


def test_zero_feature_rows_hit_the_floor():
    # all-negative queries relu to zero features: output rows exactly zero
    config = AttentionConfig.linear(RELU, causal=True)
    Q = -np.ones((4, 3))
    K = np.ones((4, 3))
    V = np.ones((4, 2))
    out = linear_attention(Q, K, V, feature_map=RELU, causal=True)
    np.testing.assert_array_equal(out, 0.0)


def test_causal_prefix_bit_identical_under_suffix_edits():
    rng = np.random.default_rng(34)
    for n in (3, 64, _BLOCK + 9):
        config = AttentionConfig.cosformer(m=2 * n, causal=True)
        Q = rng.standard_normal((n, 4))
        K = rng.standard_normal((n, 4))
        V = rng.standard_normal((n, 4))
        base = cosformer_attention(Q, K, V, config)
        cut = n // 2 + 1
        Q2, K2, V2 = Q.copy(), K.copy(), V.copy()
        Q2[cut:], K2[cut:], V2[cut:] = 1e6, -1e6, 42.0
        edited = cosformer_attention(Q2, K2, V2, config)
        assert np.array_equal(base[:cut], edited[:cut])


def test_cosformer_requires_cosine_config():
    Q = np.ones((2, 2))
    with pytest.raises(ConfigurationError):
        cosformer_attention(Q, Q, Q, AttentionConfig.linear(RELU))
    with pytest.raises(ConfigurationError):
        cosformer_attention(Q, Q, Q, AttentionConfig.softmax())
    with pytest.raises(ConfigurationError):
        cosformer_attention(Q, Q, Q, AttentionConfig.cosformer(m=1))


def test_linear_attention_validation():
    Q = np.ones((2, 2))
    with pytest.raises(ConfigurationError):
        linear_attention(Q, Q, Q, eps=0.0)
    with pytest.raises(DimensionError):
        linear_attention(Q, np.ones((2, 3)), Q)


def test_output_dtype_follows_storage():
    rng = np.random.default_rng(35)
    Q = rng.standard_normal((5, 3)).astype(np.float32)
    V = rng.standard_normal((5, 2)).astype(np.float32)
    config = AttentionConfig.cosformer(m=5)
    assert cosformer_attention(Q, Q, V, config).dtype == np.float32
    assert linear_attention(Q, Q, V).dtype == np.float32
    assert cosformer_attention(
        Q.astype(np.float64), Q, V, config).dtype == np.float64


def test_streaming_matches_batch():
    rng = np.random.default_rng(36)
    for _ in range(10):
        n = int(rng.integers(1, 90))
        d_k = int(rng.integers(1, 9))
        d_v = int(rng.integers(1, 9))
        m = 2 * n
        Q = rng.standard_normal((n, d_k))
        K = rng.standard_normal((n, d_k))
        V = rng.standard_normal((n, d_v))
        config = AttentionConfig.cosformer(m=m, causal=True)
        batch = cosformer_attention(Q, K, V, config)
        state = causal_state_init(d_k, d_v)
        for t in range(n):
            state, row = causal_state_step(state, Q[t], K[t], V[t], m)
            np.testing.assert_allclose(row, batch[t], atol=1e-12)
        assert state.t == n


def test_streaming_step_validation():
    state = causal_state_init(3, 2)
    with pytest.raises(DimensionError):
        causal_state_step(state, np.ones(2), np.ones(3), np.ones(2), m=8)
    with pytest.raises(DimensionError):
        causal_state_step(state, np.ones(3), np.ones(3), np.ones(3), m=8)
    with pytest.raises(ValueError):
        causal_state_step(state, np.array([1.0, np.nan, 0.0]), np.ones(3),
                          np.ones(2), m=8)
    # a zero query row would divide 0 by 0 without the eps floor
    with pytest.raises(ConfigurationError):
        causal_state_step(state, np.zeros(3), np.ones(3), np.ones(2), m=8,
                          eps=0.0)
    # stepping past the horizon refuses
    state2 = causal_state_init(1, 1)
    causal_state_step(state2, np.ones(1), np.ones(1), np.ones(1), m=1)
    with pytest.raises(ConfigurationError):
        causal_state_step(state2, np.ones(1), np.ones(1), np.ones(1), m=1)


def test_streaming_state_is_updated_in_place():
    state = causal_state_init(2, 2)
    returned, _ = causal_state_step(state, np.ones(2), np.ones(2),
                                    np.ones(2), m=4)
    assert returned is state
    assert state.t == 1 and (state.s != 0.0).any()
