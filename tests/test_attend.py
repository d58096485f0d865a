"""The config-driven attend / attend_backward pair: dispatch and causality."""

import numpy as np
import pytest

from cosattn import (
    ELU_PLUS_ONE,
    IDENTITY,
    RELU,
    AttentionConfig,
    attend,
    attend_backward,
    cosformer_attention,
    cosformer_backward,
    init_toy_params,
    leaky_relu,
    linear_attention,
    linear_attention_backward,
    softmax_attention,
    softmax_attention_backward,
)
from cosattn.grad import _backward
from cosattn.linear import _BLOCK, _forward
from cosattn.train import (
    _Adam,
    _block,
    _make_sequences,
    _train_step,
    sinusoidal_encoding,
)


# The record has one shape per config: what the backward reads, no more.
_SOFTMAX_RECORD = {"config", "Q", "K", "V", "W"}
_KERNEL_RECORD = {"config", "Q", "K", "V", "out", "den"}


def _public_pairs(Q, K, V, g, causal, m):
    """(config, forward, backward) for every named public function."""
    pairs = [(AttentionConfig.softmax(causal),
              lambda: softmax_attention(Q, K, V, causal),
              lambda: softmax_attention_backward(Q, K, V, g, causal))]
    for fm in (IDENTITY, RELU, leaky_relu(0.25), ELU_PLUS_ONE):
        pairs.append((
            AttentionConfig.linear(fm, causal),
            lambda f=fm: linear_attention(Q, K, V, f, causal),
            lambda f=fm: linear_attention_backward(Q, K, V, g, f, causal)))
    for fm in (RELU, ELU_PLUS_ONE):
        config = AttentionConfig.cosformer(m=m, causal=causal, feature_map=fm)
        pairs.append((
            config,
            lambda c=config: cosformer_attention(Q, K, V, c),
            lambda c=config: cosformer_backward(Q, K, V, c, g)))
    return pairs


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("lead", [(), (2, 3)], ids=str)
def test_attend_equals_each_public_function(lead, dtype):
    rng = np.random.default_rng(59)
    for n in (1, _BLOCK + 1, 2 * _BLOCK + 17):
        for causal in (False, True):
            n_k = n if causal else n + 3
            Q = rng.standard_normal(lead + (n, 4))
            Q[..., ::7, :] = -np.abs(Q[..., ::7, :])  # eps-floored rows
            Q = Q.astype(dtype)
            K = rng.standard_normal(lead + (n_k, 4)).astype(dtype)
            V = rng.standard_normal(lead + (n_k, 3)).astype(dtype)
            g = rng.standard_normal(lead + (n, 3))
            for config, forward, backward in _public_pairs(Q, K, V, g, causal,
                                                           max(n, n_k)):
                got, want = attend(Q, K, V, config), forward()
                assert got.dtype == want.dtype == dtype, config
                assert np.array_equal(got, want), config
                kept, record = _forward(Q, K, V, config)
                assert kept.dtype == dtype and np.array_equal(kept, want), config
                assert record.keys() == (_SOFTMAX_RECORD if config.use_softmax
                                         else _KERNEL_RECORD), config
                grads = attend_backward(Q, K, V, config, g)
                for a, b, c in zip(grads, backward(), _backward(record, g)):
                    assert a.dtype == b.dtype == c.dtype, config
                    assert np.array_equal(a, b) and np.array_equal(a, c), config


def _causal_config(variant, n):
    if variant == "softmax":
        return AttentionConfig.softmax(causal=True)
    if variant == "cosformer":
        return AttentionConfig.cosformer(m=n, causal=True)
    feature_map = RELU if variant == "linear_relu" else ELU_PLUS_ONE
    return AttentionConfig.linear(feature_map, causal=True)


def _cut_points(n):
    """Positions i to edit after: both ends, the middle and a chunk edge."""
    return sorted({0, n // 2, n - 1, _BLOCK - 1, _BLOCK} & set(range(n)))


@pytest.mark.parametrize("variant", ["softmax", "cosformer", "linear_relu",
                                     "linear_elu_plus_one"])
def test_stacked_causal_rows_ignore_later_tokens(variant):
    # Only the forward and dQ: dK and dV rows depend on later queries, so
    # prefix invariance does not hold for them.
    rng = np.random.default_rng(61)
    for n in (1, 2, 2 * _BLOCK + 17):
        config = _causal_config(variant, n)
        Q, K, V = (rng.standard_normal((2, 3, n, 4)) for _ in range(3))
        g = rng.standard_normal((2, 3, n, 4))
        out = attend(Q, K, V, config)
        dQ = attend_backward(Q, K, V, config, g)[0]
        for i in _cut_points(n):
            edited = [a.copy() for a in (Q, K, V, g)]
            for a in edited:
                a[..., i + 1:, :] = rng.standard_normal(a[..., i + 1:, :].shape)
            Q2, K2, V2, g2 = edited
            out2 = attend(Q2, K2, V2, config)
            dQ2 = attend_backward(Q2, K2, V2, config, g2)[0]
            assert np.array_equal(out2[..., :i + 1, :], out[..., :i + 1, :]), (n, i)
            assert np.array_equal(dQ2[..., :i + 1, :], dQ[..., :i + 1, :]), (n, i)


def _trained_params(rng, config):
    """init_toy_params after 50 copy-task training steps under config."""
    params = init_toy_params(rng)
    pe = 2.5 * sinusoidal_encoding(32, 32)
    opt = _Adam(vars(params))
    for _ in range(50):
        inputs, targets = _make_sequences(rng, 32, 16, 16)
        _, grads = _train_step(inputs, targets, params, config, pe,
                               np.arange(16, 32))
        opt.update(vars(params), grads)
    return params


@pytest.mark.parametrize("variant", ["softmax", "cosformer", "linear_relu"])
def test_block_rows_ignore_later_tokens(variant):
    # At initialization and after training: a trained model's weights
    # must not open a path from later tokens either.
    rng = np.random.default_rng(67)
    batch, n = 32, 32
    config = _causal_config(variant, n)
    for params in (init_toy_params(rng), _trained_params(rng, config)):
        e = rng.standard_normal((batch, n, params.d_model))
        y = _block(e, params, config)
        for i in _cut_points(n):
            edited = e.copy()
            edited[:, i + 1:, :] = rng.standard_normal(edited[:, i + 1:, :].shape)
            y2 = _block(edited, params, config)
            assert np.array_equal(y2[:, :i + 1, :], y[:, :i + 1, :]), i
