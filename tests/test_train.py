"""Toy block plumbing and the copy-task trainer's contracts."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from cosattn import attend_backward, grad, linear, train
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
from cosattn.train import _accuracy, _block, _train_step

TOY_CONFIGS = pytest.mark.parametrize(
    "config", [AttentionConfig.cosformer(m=32, causal=True),
               AttentionConfig.linear(RELU, causal=True),
               AttentionConfig.softmax(causal=True)],
    ids=["cosformer", "linear_relu", "softmax"])


def test_sinusoidal_encoding_shape_and_values():
    pe = sinusoidal_encoding(8, 6)
    assert pe.shape == (8, 6)
    np.testing.assert_array_equal(pe[0, 0::2], 0.0)  # sin(0)
    np.testing.assert_array_equal(pe[0, 1::2], 1.0)  # cos(0)
    assert np.abs(pe).max() <= 1.0
    with pytest.raises(ConfigurationError):
        sinusoidal_encoding(8, 5)


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
    for field, value, message in (
            ("w_k", np.zeros((32, 16)), "w_q and w_k"),
            ("w_ff2", np.zeros((32, 32)), "feedforward"),  # w_ff1 is 32 x 64
            ("output_proj", np.zeros((16, 16)), "output_proj")):
        with pytest.raises(DimensionError, match=message):
            dataclasses.replace(params, **{field: value}).validate()
    with pytest.raises(DimensionError, match="x width"):
        transformer_block_forward(np.zeros((4, 16)), params,
                                  AttentionConfig.softmax(causal=True))
    # d_model = 0 would divide by zero and build empty matrices
    for size in ("n_symbols", "d_model", "d_ff"):
        with pytest.raises(ConfigurationError, match="n_symbols, d_model, d_ff"):
            init_toy_params(rng, **{size: 0})


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
    pe = 2.5 * sinusoidal_encoding(32, 32)
    config = AttentionConfig.cosformer(m=32, causal=True)
    logits, _ = _forward_batch(inputs, params, config, pe, np.arange(16, 32))
    loss, _ = _loss_and_dlogits(logits, targets)
    # fresh model with a 0.02-scale head is close to the uniform 16-way loss
    assert abs(loss - np.log(16.0)) < 0.2


@TOY_CONFIGS
def test_loss_rows_logits_match_the_whole_block(config):
    # _forward_batch runs the feedforward and the head on the loss rows
    # only; its logits must stay those of the block run on every row.
    rng = np.random.default_rng(59)
    params = init_toy_params(rng)
    inputs, _ = _make_sequences(rng, 8, 16, 16)
    pe = 2.5 * sinusoidal_encoding(32, 32)
    loss_pos = np.arange(16, 32)
    logits, _ = _forward_batch(inputs, params, config, pe, loss_pos)
    e = params.embedding[inputs] + pe[None]
    want = _block(e, params, config)[:, loss_pos] @ params.output_proj
    assert logits.shape == want.shape == (8, 16, 16)
    assert np.max(np.abs(logits - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("variant", ["softmax", "cosformer"])
def test_train_step_gradients_match_directional_fd(variant):
    # Covers the embedding gradient's one-hot scatter-add and the
    # attend_backward call together with the rest of the step.
    rng = np.random.default_rng(71)
    params = init_toy_params(rng, n_symbols=5, d_model=8, d_ff=16)
    inputs, targets = _make_sequences(rng, 4, 4, 5)
    pe = sinusoidal_encoding(8, 8)
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


@TOY_CONFIGS
def test_train_step_gradients_come_from_its_own_forward(config, monkeypatch):
    # The step's backward starts from the record its forward kept. Two
    # steps run on different batches; the second step's attention
    # gradients must be attend_backward's on that step's own q, k, v and
    # d_h, so a record left over from the step before cannot pass.
    rng = np.random.default_rng(73)
    params = init_toy_params(rng)
    pe = 2.5 * sinusoidal_encoding(32, 32)
    loss_pos = np.arange(16, 32)
    d_hs = []
    backward = train._backward

    def spy(record, d_out):
        d_hs.append(d_out)
        return backward(record, d_out)

    monkeypatch.setattr(train, "_backward", spy)
    for _ in range(2):
        inputs, targets = _make_sequences(rng, 3, 16, 16)
        _, grads = _train_step(inputs, targets, params, config, pe, loss_pos)
    flat = (params.embedding[inputs] + pe[None]).reshape(3 * 32, 32)
    q, k, v = ((flat @ w).reshape(3, 32, -1)
               for w in (params.w_q, params.w_k, params.w_v))
    fresh = attend_backward(q, k, v, config, d_hs[-1])
    for name, d in zip(("w_q", "w_k", "w_v"), fresh):
        want = flat.T @ d.reshape(3 * 32, -1)
        np.testing.assert_allclose(grads[name], want, rtol=0, atol=1e-12,
                                   err_msg=name)


def test_train_step_scans_once_per_gradient(monkeypatch):
    # One forward scan, then one prefix and one suffix backward walk: the
    # backward does not run the forward's scan again. An evaluation
    # forward scans once and walks nothing.
    scans = []
    for module, name in ((linear, "_scan"), (grad, "_prefix_walk"),
                         (grad, "_suffix_walk")):
        def counting(*args, f=getattr(module, name), name=name, **kwargs):
            scans.append(name)
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    rng = np.random.default_rng(79)
    params = init_toy_params(rng)
    pe = 2.5 * sinusoidal_encoding(32, 32)
    loss_pos = np.arange(16, 32)
    config = AttentionConfig.cosformer(m=32, causal=True)
    inputs, targets = _make_sequences(rng, 4, 16, 16)
    _train_step(inputs, targets, params, config, pe, loss_pos)
    assert scans == ["_scan", "_prefix_walk", "_suffix_walk"]
    scans.clear()
    _forward_batch(inputs, params, config, pe, loss_pos)
    assert scans == ["_scan"]


def test_evaluation_keeps_at_most_one_attention_record(monkeypatch):
    # Each eval batch's record must be dead before the next batch's
    # forward starts, or evaluation holds two records at its peak.
    records = []
    forward = train._forward

    def spy(*args):
        assert all(ref() is None for ref in records), len(records)
        out, record = forward(*args)
        records.append(weakref.ref(record["Q"]))
        return out, record

    monkeypatch.setattr(train, "_forward", spy)
    rng = np.random.default_rng(83)
    params = init_toy_params(rng)
    pe = 2.5 * sinusoidal_encoding(32, 32)
    inputs, targets = _make_sequences(rng, 96, 16, 16)
    config = AttentionConfig.cosformer(m=32, causal=True)
    _accuracy(inputs, targets, params, config, pe, np.arange(16, 32))
    assert len(records) == 3


def test_toy_job_peaks_at_most_3_75_mib():
    # A training step frees each cache after its last reader and runs the
    # feedforward and head on the loss rows only, so its peak is the
    # attention backward beside the embeddings, the record and d_h.
    config = AttentionConfig.cosformer(m=32, causal=True)
    train_copy_task(config, seed=1, max_steps=2, eval_every=2)  # warm caches
    tracemalloc.start()
    try:
        train_copy_task(config, seed=2, max_steps=2, eval_every=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.75 * 2**20, peak / 2**20


def test_train_requires_causal_config():
    with pytest.raises(ConfigurationError):
        train_copy_task(AttentionConfig.softmax(causal=False), seed=0)
    for field in ("max_steps", "eval_every"):
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


@pytest.mark.parametrize("name,value", [
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
])
def test_glibc_mallopt_defers_to_the_environment(name, value, monkeypatch):
    # the caller's own thresholds win: no mallopt is looked up, none called
    monkeypatch.setenv(name, value)
    assert _glibc_mallopt() is None


def test_train_steps_reuse_freed_heap_pages():
    # With glibc's dynamic thresholds the freed top of the heap is trimmed
    # after every step, and each step page-faults its working set back in.
    # A fresh process, because arrays freed by earlier tests move the
    # thresholds.
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
