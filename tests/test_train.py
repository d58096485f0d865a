"""Toy block plumbing and the copy-task trainer's contracts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cosattn.core import RELU, AttentionConfig
from cosattn.errors import ConfigurationError, DimensionError
from cosattn.train import (
    BlockParams,
    init_toy_params,
    sinusoidal_encoding,
    train_copy_task,
    transformer_block_forward,
    variant_name,
)
from cosattn.train import _make_sequences, _forward_batch, _glibc_mallopt, _loss_and_dlogits
from cosattn.train import _train_step


def test_sinusoidal_encoding_shape_and_values():
    pe = sinusoidal_encoding(8, 6)
    assert pe.shape == (8, 6)
    np.testing.assert_array_equal(pe[0, 0::2], 0.0)  # sin(0)
    np.testing.assert_array_equal(pe[0, 1::2], 1.0)  # cos(0)
    assert np.abs(pe).max() <= 1.0
    with pytest.raises(ConfigurationError):
        sinusoidal_encoding(8, 5)
    with pytest.raises(ConfigurationError):
        sinusoidal_encoding(8, 6, base=1.0)


def test_block_params_validation():
    rng = np.random.default_rng(51)
    params = init_toy_params(rng)
    params.validate()
    assert params.d_model == 32
    bad = BlockParams(
        embedding=params.embedding,
        w_q=params.w_q,
        w_k=params.w_k,
        w_v=np.zeros((32, 16)),  # residual join needs d_model columns
        w_ff1=params.w_ff1,
        w_ff2=params.w_ff2,
        output_proj=params.output_proj,
    )
    with pytest.raises(DimensionError):
        bad.validate()


def test_block_forward_identity_at_zero_params():
    # with zero projections both residual joins pass the input through
    d = 8
    zeros = BlockParams(
        embedding=np.zeros((4, d)),
        w_q=np.zeros((d, d)),
        w_k=np.zeros((d, d)),
        w_v=np.zeros((d, d)),
        w_ff1=np.zeros((d, d)),
        w_ff2=np.zeros((d, d)),
        output_proj=np.zeros((d, 4)),
    )
    x = np.random.default_rng(52).standard_normal((5, d))
    y = transformer_block_forward(x, zeros, AttentionConfig.softmax(causal=True))
    np.testing.assert_allclose(y, x, atol=1e-12)


def test_variant_names():
    assert variant_name(AttentionConfig.softmax(causal=True)) == "softmax"
    assert variant_name(AttentionConfig.cosformer(m=32, causal=True)) == "cosformer"
    assert variant_name(AttentionConfig.linear(RELU, causal=True)) == "linear_relu"


def test_make_sequences_layout():
    rng = np.random.default_rng(53)
    inputs, targets = _make_sequences(rng, count=7, copy_len=16, n_symbols=16)
    assert inputs.shape == (7, 32) and targets.shape == (7, 16)
    # delimiter sits at the boundary, second half repeats the first
    assert (inputs[:, 16] == 16).all()
    np.testing.assert_array_equal(inputs[:, :16], targets)
    np.testing.assert_array_equal(inputs[:, 17:], targets[:, :15])
    assert inputs[:, :16].max() < 16


def test_initial_loss_near_uniform():
    rng = np.random.default_rng(54)
    params = init_toy_params(rng)
    inputs, targets = _make_sequences(rng, 64, 16, 16)
    pe = 2.5 * sinusoidal_encoding(32, 32, base=40.0)
    config = AttentionConfig.cosformer(m=32, causal=True)
    logits, _ = _forward_batch(inputs, params, config, pe, np.arange(16, 32))
    loss, _ = _loss_and_dlogits(logits, targets)
    # fresh model with a 0.02-scale head is close to the uniform 16-way loss
    assert abs(loss - np.log(16.0)) < 0.2


@pytest.mark.parametrize("variant", ["softmax", "cosformer"])
def test_train_step_gradients_match_directional_fd(variant):
    # Covers the embedding gradient's one-hot scatter-add and the
    # attend_backward call together with the rest of the step.
    rng = np.random.default_rng(71)
    params = init_toy_params(rng, n_symbols=5, d_model=8, d_ff=16)
    inputs, targets = _make_sequences(rng, 4, 4, 5)
    pe = sinusoidal_encoding(8, 8, base=40.0)
    loss_pos = np.arange(4, 8)
    config = (AttentionConfig.softmax(causal=True) if variant == "softmax"
              else AttentionConfig.cosformer(m=8, causal=True))
    _, grads = _train_step(inputs, targets, params, config, pe, loss_pos)
    h = 1e-6
    for name, grad in grads.items():
        value = getattr(params, name)
        direction = rng.standard_normal(value.shape)
        losses = []
        for sign in (1.0, -1.0):
            setattr(params, name, value + sign * h * direction)
            loss, _ = _train_step(inputs, targets, params, config, pe, loss_pos)
            losses.append(loss)
        setattr(params, name, value)
        slope = (losses[0] - losses[1]) / (2.0 * h)
        dot = float(np.sum(grad * direction))
        assert abs(dot - slope) <= 1e-6 * max(abs(slope), 1e-3), (name, dot, slope)


def test_train_requires_causal_config():
    with pytest.raises(ConfigurationError):
        train_copy_task(AttentionConfig.softmax(causal=False), seed=0)
    for field in ("max_steps", "batch_size", "copy_len", "eval_sequences",
                  "eval_every"):
        with pytest.raises(ConfigurationError, match=field):
            train_copy_task(AttentionConfig.softmax(causal=True), seed=0,
                            **{field: 0})


def test_train_short_run_is_deterministic():
    config = AttentionConfig.softmax(causal=True)
    a = train_copy_task(config, seed=3, max_steps=8, eval_every=8)
    b = train_copy_task(config, seed=3, max_steps=8, eval_every=8)
    assert a.steps == b.steps == 8
    assert a.final_loss == b.final_loss
    assert a.token_accuracy == b.token_accuracy
    assert a.loss_curve == b.loss_curve
    assert a.variant == "softmax"


def test_train_report_csv(tmp_path):
    config = AttentionConfig.cosformer(m=32, causal=True)
    report = train_copy_task(config, seed=5, max_steps=3, eval_every=3)
    path = tmp_path / "curve.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 1 + report.steps + 1  # header, rows, summary comment
    assert lines[-1].startswith("#")
    first_step, first_loss = lines[1].split(",")
    assert int(first_step) == 1 and float(first_loss) > 0.0


def test_train_steps_reuse_freed_heap_pages():
    # With glibc's dynamic thresholds the freed top of the heap is trimmed
    # after every step, and each step page-faults its ~6 MiB working set
    # back in (about 1500 minor faults a step at the defaults). A fresh
    # process, because arrays freed by earlier tests move the thresholds.
    if _glibc_mallopt() is None:
        pytest.skip("the heap thresholds are pinned through glibc's mallopt")
    script = """
import resource
from cosattn import AttentionConfig, train_copy_task
config = AttentionConfig.cosformer(m=32, causal=True)
train_copy_task(config, seed=3, max_steps=20, eval_every=20)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train_copy_task(config, seed=4, max_steps=20, eval_every=20)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert int(run.stdout.split()[-1]) < 20 * 100
