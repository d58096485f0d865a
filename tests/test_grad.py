"""Analytic backwards against central finite differences."""

import numpy as np
import pytest

from cosattn.core import (
    ELU_PLUS_ONE,
    IDENTITY,
    RELU,
    AttentionConfig,
    leaky_relu,
)
from cosattn.errors import ConfigurationError, DimensionError
from cosattn.grad import (
    attend_backward,
    cosformer_backward,
    feature_map_derivative,
    finite_diff_grad,
    linear_attention_backward,
    softmax_attention_backward,
)
from cosattn.linear import _BLOCK, cosformer_attention, linear_attention
from cosattn.core import softmax_attention


def _nudge(a, lim=1e-3):
    """Push tiny coordinates away from zero so h=1e-5 differences never
    straddle a relu kink or park a denominator on its floor."""
    return np.where(np.abs(a) < lim, a + np.sign(a + (a == 0.0)) * lim, a)


def _rel(analytic, fd):
    scale = max(np.max(np.abs(fd)), np.max(np.abs(analytic)), 1e-6)
    return np.max(np.abs(analytic - fd)) / scale


def _check_grads(f, args, grads, bound=1e-4):
    for idx, analytic in enumerate(grads):
        def slice_f(X, idx=idx):
            swapped = [X if k == idx else a for k, a in enumerate(args)]
            return f(*swapped)
        fd = finite_diff_grad(slice_f, args[idx])
        assert _rel(analytic, fd) <= bound, (idx, _rel(analytic, fd))


def test_feature_map_derivative_values():
    x = np.array([[-1.0, 0.0, 2.0]])
    np.testing.assert_array_equal(feature_map_derivative(x, IDENTITY), 1.0)
    np.testing.assert_array_equal(
        feature_map_derivative(x, RELU), [[0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(
        feature_map_derivative(x, leaky_relu(0.3)), [[0.3, 0.3, 1.0]])
    np.testing.assert_allclose(
        feature_map_derivative(x, ELU_PLUS_ONE), [[np.exp(-1.0), 1.0, 1.0]])


def test_linear_backward_matches_fd():
    rng = np.random.default_rng(41)
    for feature_map in (IDENTITY, RELU, leaky_relu(0.25), ELU_PLUS_ONE):
        for causal in (False, True):
            n = int(rng.integers(2, 12))
            Q = _nudge(rng.standard_normal((n, 4)))
            K = _nudge(rng.standard_normal((n, 4)))
            V = _nudge(rng.standard_normal((n, 3)))
            g = rng.standard_normal((n, 3))
            grads = linear_attention_backward(Q, K, V, g,
                                              feature_map=feature_map,
                                              causal=causal)
            def f(Q_, K_, V_, fm=feature_map, c=causal):
                return float((linear_attention(Q_, K_, V_, feature_map=fm,
                                               causal=c) * g).sum())
            _check_grads(f, (Q, K, V), grads)


def test_cosformer_backward_matches_fd():
    rng = np.random.default_rng(42)
    for feature_map in (RELU, ELU_PLUS_ONE):
        for causal in (False, True):
            n = int(rng.integers(2, 12))
            config = AttentionConfig.cosformer(m=2 * n, causal=causal,
                                               feature_map=feature_map)
            Q = _nudge(rng.standard_normal((n, 4)))
            K = _nudge(rng.standard_normal((n, 4)))
            V = _nudge(rng.standard_normal((n, 3)))
            g = rng.standard_normal((n, 3))
            grads = cosformer_backward(Q, K, V, config, g)
            def f(Q_, K_, V_, cfg=config):
                return float((cosformer_attention(Q_, K_, V_, cfg) * g).sum())
            _check_grads(f, (Q, K, V), grads)


@pytest.mark.parametrize("cosine", [False, True], ids=["plain", "cosine"])
@pytest.mark.parametrize("feature_map", [RELU, ELU_PLUS_ONE],
                         ids=lambda fm: fm.name)
def test_causal_backward_across_chunks_matches_directional_fd(feature_map,
                                                              cosine):
    # Three chunks, the last one partial: the prefix and suffix scans carry
    # state across two chunk boundaries in each direction.
    n = 2 * _BLOCK + 17
    rng = np.random.default_rng(46)
    Q, K, V, g = (rng.standard_normal((n, 4)) for _ in range(4))
    if cosine:
        config = AttentionConfig.cosformer(m=2 * n, causal=True,
                                           feature_map=feature_map)
        def loss(Q_, K_, V_):
            return float((cosformer_attention(Q_, K_, V_, config) * g).sum())
        grads = cosformer_backward(Q, K, V, config, g)
    else:
        def loss(Q_, K_, V_):
            return float((linear_attention(Q_, K_, V_, feature_map=feature_map,
                                           causal=True) * g).sum())
        grads = linear_attention_backward(Q, K, V, g, feature_map=feature_map,
                                          causal=True)
    h = 1e-5
    for idx, name in enumerate(("dQ", "dK", "dV")):
        args = [Q, K, V]
        direction = rng.standard_normal(args[idx].shape)
        if name != "dV":
            # A central difference across a relu kink measures nothing.
            direction[np.abs(args[idx]) < 1e-3] = 0.0
        moved = [a + h * direction if k == idx else a for k, a in enumerate(args)]
        plus = loss(*moved)
        moved[idx] = args[idx] - h * direction
        slope = (plus - loss(*moved)) / (2.0 * h)
        dot = float(np.sum(grads[idx] * direction))
        assert abs(dot - slope) <= 1e-6 * max(abs(slope), 1e-6), (name, dot, slope)


STACK_BOUND = 1e-13


def _stack_config(variant, m, causal):
    if variant == "cosformer":
        return AttentionConfig.cosformer(m=m, causal=causal)
    if variant == "softmax":
        return AttentionConfig.softmax(causal=causal)
    feature_map = RELU if variant == "linear_relu" else ELU_PLUS_ONE
    return AttentionConfig.linear(feature_map, causal=causal)


@pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=str)
@pytest.mark.parametrize("variant", ["cosformer", "linear_relu",
                                     "linear_elu_plus_one", "softmax"])
def test_stacked_backward_matches_per_slice_calls(variant, lead):
    rng = np.random.default_rng(47)
    tiny = np.finfo(np.float64).tiny
    for n in (1, 2 * _BLOCK + 17):
        for causal in (False, True):
            for dtype in (np.float32, np.float64):
                n_k = n if causal else n + 3
                config = _stack_config(variant, max(n, n_k), causal)
                Q = rng.standard_normal(lead + (n, 4))
                Q[..., ::7, :] = -np.abs(Q[..., ::7, :])  # eps-floored rows
                Q = Q.astype(dtype)
                K = rng.standard_normal(lead + (n_k, 4)).astype(dtype)
                V = rng.standard_normal(lead + (n_k, 3)).astype(dtype)
                g = rng.standard_normal(lead + (n, 3))
                got = attend_backward(Q, K, V, config, g)
                for name, grad, arg in zip(("dQ", "dK", "dV"), got, (Q, K, V)):
                    assert grad.shape == arg.shape, name
                    assert grad.dtype == np.float64, name
                for idx in np.ndindex(*lead):
                    want = attend_backward(Q[idx], K[idx], V[idx], config,
                                           g[idx])
                    for name, a, b in zip(("dQ", "dK", "dV"), got, want):
                        scale = max(float(np.max(np.abs(b))), tiny)
                        err = float(np.max(np.abs(a[idx] - b))) / scale
                        assert err <= STACK_BOUND, (idx, name, err)


@pytest.mark.parametrize("variant", ["cosformer", "linear_relu", "softmax"])
def test_stacked_backward_shape_checks(variant):
    config = _stack_config(variant, 4, causal=True)
    X = np.ones((3, 4, 2))
    attend_backward(X, X, X, config, np.ones((3, 4, 2)))
    # A d_out that would broadcast against the output is still refused.
    for d_out in (np.ones((4, 2)), np.ones((1, 4, 2)), np.ones((2, 3, 4, 2)),
                  np.ones((3, 4, 1)), np.ones((3, 3, 2))):
        with pytest.raises(DimensionError):
            attend_backward(X, X, X, config, d_out)
    for Q, K, V in ((X, X, X[:2]), (X[None], X, X), (X, X[0], X[0])):
        with pytest.raises(DimensionError):
            attend_backward(Q, K, V, config, np.ones(Q.shape[:-1] + (2,)))


def test_softmax_backward_matches_fd():
    rng = np.random.default_rng(43)
    for causal in (False, True):
        for scale in (False, True):
            n = int(rng.integers(2, 10))
            Q = rng.standard_normal((n, 3))
            K = rng.standard_normal((n, 3))
            V = rng.standard_normal((n, 2))
            g = rng.standard_normal((n, 2))
            grads = softmax_attention_backward(Q, K, V, g, causal=causal,
                                               scale=scale)
            def f(Q_, K_, V_, c=causal, s=scale):
                return float((softmax_attention(Q_, K_, V_, causal=c,
                                                scale=s) * g).sum())
            _check_grads(f, (Q, K, V), grads)


def test_floored_rows_have_zero_denominator_gradient():
    # an all-negative query row relu-maps to zero features; its output is
    # identically zero in a neighborhood, so all its gradients vanish
    Q = np.array([[-1.0, -1.0], [1.0, 0.5]])
    K = np.array([[0.5, 1.0], [1.0, 0.2]])
    V = np.array([[1.0, 2.0], [3.0, 4.0]])
    g = np.ones((2, 2))
    dQ, dK, dV = linear_attention_backward(Q, K, V, g, feature_map=RELU)
    np.testing.assert_array_equal(dQ[0], 0.0)


def test_backward_validation():
    Q = np.ones((2, 2))
    g_bad = np.ones((3, 2))
    with pytest.raises(DimensionError):
        linear_attention_backward(Q, Q, Q, g_bad)
    # a zero query row would divide 0 by 0 without the eps floor
    with pytest.raises(ConfigurationError):
        linear_attention_backward(np.array([[0.0, 0.0], [1.0, 1.0]]), Q, Q,
                                  np.ones((2, 2)), eps=0.0)
    with pytest.raises(ConfigurationError):
        cosformer_backward(Q, Q, Q, AttentionConfig.linear(RELU), np.ones((2, 2)))
    with pytest.raises(ConfigurationError):
        cosformer_backward(Q, Q, Q, AttentionConfig.softmax(), np.ones((2, 2)))


@pytest.mark.parametrize("lead", [(), (2, 3)], ids=str)
@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
def test_backward_refuses_a_horizon_below_the_longest_sequence(causal, lead):
    # m = 4 < 9 rows; without the check the backward returns gradients of
    # a re-weight that has turned negative.
    n_q, n_k = (9, 9) if causal else (3, 9)
    rng = np.random.default_rng(7)
    Q = rng.standard_normal(lead + (n_q, 2))
    K = rng.standard_normal(lead + (n_k, 2))
    V = rng.standard_normal(lead + (n_k, 2))
    g = np.ones(lead + (n_q, 2))
    config = AttentionConfig.cosformer(m=4, causal=causal)
    for backward in (attend_backward, cosformer_backward):
        with pytest.raises(ConfigurationError):
            backward(Q, K, V, config, g)
    # m = max(n_q, n_k) is inside the horizon.
    attend_backward(Q, K, V, AttentionConfig.cosformer(m=9, causal=causal), g)


def test_finite_diff_grad_on_quadratic_form():
    # exact for a quadratic: f(x) = sum(x * x) has gradient 2x
    rng = np.random.default_rng(44)
    X = rng.standard_normal((3, 4))
    fd = finite_diff_grad(lambda A: float((A * A).sum()), X)
    np.testing.assert_allclose(fd, 2.0 * X, atol=1e-9)


def test_finite_diff_does_not_mutate_input():
    X = np.ones((2, 2))
    finite_diff_grad(lambda A: float(A.sum()), X)
    np.testing.assert_array_equal(X, 1.0)
