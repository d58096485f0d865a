"""Self-checks of the benchmark: its output checks can fail, its trace counts.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each workload runs at a small size. Correct outputs must give a failed
fraction of 0, and a deliberately wrong output (a perturbed row, the sin
branch dropped, a wrong gradient, a diverging loss) a fraction above 0.
"""

import dataclasses

import numpy as np
import pytest

import cosattn
import spans
from workloads import DecodeStream, PrefillLong, TrainLong, TrainToy

N = 256
D = 16


def failed_frac(workload, ops, corrupt=None):
    """Share of ops 0..ops-1 whose (corrupted) output fails the check."""
    failed = 0
    for i in range(ops):
        out = workload.op(i)
        if corrupt is not None:
            out = corrupt(i, out)
        failed += not workload.check(i, out)
    return failed / ops


def perturb_row(out, row=17, by=1e-3):
    out = out.copy()
    out[row] += by * np.max(np.abs(out))
    return out


def without_sin_branch(Q, K, V, config):
    """The cosine forward with only its cos branch, from public names."""
    m = config.reweight.m
    cos_q, _ = cosattn.position_factors(Q.shape[0], m)
    cos_k, _ = cosattn.position_factors(K.shape[0], m)
    q = np.maximum(Q.astype(np.float64), 0.0) * cos_q[:, None]
    k = np.maximum(K.astype(np.float64), 0.0) * cos_k[:, None]
    out = cosattn.linear_attention(q, k, V.astype(np.float64), cosattn.IDENTITY,
                                   causal=config.causal, eps=config.eps)
    return out.astype(V.dtype)


@pytest.fixture(scope="module")
def prefill():
    workload = PrefillLong(seed=0, n=N, d=D)
    workload.references()
    return workload


@pytest.fixture(scope="module")
def train_long():
    workload = TrainLong(seed=0, n=N, d=D)
    workload.references()
    return workload


@pytest.fixture(scope="module")
def decode():
    workload = DecodeStream(seed=0, n=N, d=D)
    workload.references()
    return workload


def test_correct_outputs_pass(prefill, train_long, decode):
    assert failed_frac(prefill, 6) == 0.0
    assert failed_frac(train_long, 3) == 0.0
    assert failed_frac(decode, 2 * N) == 0.0


def test_prefill_check_catches_a_perturbed_row(prefill):
    assert failed_frac(prefill, 3, lambda i, out: perturb_row(out)) == 1.0


def test_prefill_check_catches_the_sin_branch_dropped(prefill):
    def drop_sin(i, out):
        return without_sin_branch(*prefill.inputs[i % len(prefill.inputs)],
                                  prefill.config)
    assert failed_frac(prefill, 3, drop_sin) == 1.0


def test_train_long_check_catches_a_wrong_gradient(train_long):
    def scale_dk(i, out):
        forward, (dQ, dK, dV) = out
        return forward, (dQ, dK * 1.01, dV)
    assert failed_frac(train_long, 3, scale_dk) == 1.0


def test_train_long_check_catches_a_wrong_forward(train_long):
    def bad_forward(i, out):
        forward, grads = out
        return perturb_row(forward, by=1e-6), grads
    assert failed_frac(train_long, 3, bad_forward) == 1.0


def test_decode_check_catches_a_perturbed_row(decode):
    def corrupt(i, row):
        return row + 1e-9 if i % N == 5 else row
    assert failed_frac(decode, N, corrupt) == 1 / N


def test_train_toy_check():
    workload = TrainToy(seed=0)
    report = workload.op(0)
    assert workload.check(0, report)
    curve = report.loss_curve
    rising = [(step, 2.0 + step) for step, _ in curve]
    assert not workload.check(0, dataclasses.replace(report, loss_curve=rising))
    nan = curve[:-1] + [(curve[-1][0], float("nan"))]
    assert not workload.check(0, dataclasses.replace(report, loss_curve=nan))
    assert not workload.check(0, dataclasses.replace(report, steps=24,
                                                     loss_curve=curve[:24]))


def test_trace_counts_layers_and_marks_absent_names(prefill, monkeypatch):
    missing = ("cosattn.linear", "no_such_helper", "linear.no_such_helper")
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + (missing,))
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i in range(2):
            tracer.op = i
            prefill.op(i)
    finally:
        tracer.uninstall()
    assert not hasattr(cosattn.linear.decompose, "__wrapped__")
    assert tracer.absent == ["cosattn.linear.no_such_helper"]
    metrics = spans.layer_metrics(tracer, ops=2, steps_per_op=0)
    assert metrics["core.require_matrix.calls"] == (3.0, "count")
    assert metrics["linear.cosformer_attention.calls"] == (1.0, "count")
    assert metrics["grad.cosformer_backward.calls"] == (0.0, "count")
    fwd = metrics["linear.cosformer_attention.ms"][0]
    assert 0.0 < metrics["linear.cosformer_attention.self_ms"][0] < fwd
    assert 0.0 < metrics["reweight.decompose.ms"][0] < fwd


def test_metrics_of_absent_spans_are_left_out(monkeypatch):
    gone = [(mod, attr, span) for mod, attr, span in spans.WRAPPED
            if span == "reweight.decompose"]
    monkeypatch.setattr(spans, "WRAPPED", tuple(
        (mod, "no_longer_there" if (mod, attr, span) in gone else attr, span)
        for mod, attr, span in spans.WRAPPED))
    tracer = spans.Tracer()
    metrics = spans.layer_metrics(tracer, ops=1, steps_per_op=0)
    assert "reweight.decompose.ms" not in metrics
    assert "core.require_matrix.calls" in metrics
