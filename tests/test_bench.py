"""Benchmark sweep protocol: records, CSV layout, failure handling."""

import math

import numpy as np
import pytest

import cosattn.bench as bench
from cosattn.bench import (
    BENCH_VARIANTS,
    CSV_HEADER,
    BenchmarkRecord,
    run_benchmark,
    transient_scalars,
    write_benchmark_csv,
)
from cosattn.errors import ConfigurationError


def test_csv_header_fields():
    assert CSV_HEADER == ("variant,seq_len,d_model,repeats,mean_s,std_s,"
                          "median_s,transient_scalars,mode")


def test_transient_scalar_counts():
    n, d = 1024, 64
    assert transient_scalars("softmax", n, d) == n * n + n * d
    assert transient_scalars("linear", n, d) == n * d + d * d + d
    assert transient_scalars("cosformer", n, d) == n * d + 2 * d * d + 2 * d
    # the quadratic working set dwarfs the streaming one at this size
    ratio = transient_scalars("softmax", n, d) / transient_scalars("cosformer", n, d)
    assert ratio > 10.0
    with pytest.raises(ConfigurationError):
        transient_scalars("flash", n, d)


def test_run_benchmark_small_sweep():
    records = run_benchmark(BENCH_VARIANTS, [8, 16], d_model=4, repeats=3,
                            seed=1)
    assert len(records) == 6
    assert [(r.variant, r.seq_len) for r in records] == [
        ("softmax", 8), ("softmax", 16), ("linear", 8), ("linear", 16),
        ("cosformer", 8), ("cosformer", 16)]
    for r in records:
        r.validate()
        assert not r.failed
        assert r.median_s > 0.0 and r.mean_s > 0.0 and r.std_s >= 0.0
        assert r.mode == "inference" and r.d_model == 4 and r.repeats == 3
        assert r.transient_scalars == transient_scalars(r.variant, r.seq_len, 4)


def test_run_benchmark_train_mode():
    records = run_benchmark(["cosformer"], [8], d_model=4, repeats=3,
                            mode="train", seed=1)
    assert records[0].mode == "train" and not records[0].failed


def test_memory_error_becomes_failed_cell(monkeypatch):
    attend = bench.attend

    def boom(Q, K, V, config):
        if config.use_softmax:
            raise MemoryError("simulated allocation failure")
        return attend(Q, K, V, config)

    monkeypatch.setattr(bench, "attend", boom)
    records = run_benchmark(["softmax", "linear"], [8], d_model=4, repeats=3)
    failed, fine = records
    assert failed.failed and math.isnan(failed.mean_s)
    assert math.isnan(failed.std_s) and math.isnan(failed.median_s)
    failed.validate()  # NaN cells are still well-formed records
    assert failed.transient_scalars == transient_scalars("softmax", 8, 4)
    assert not fine.failed  # the sweep continues past the failure


def test_run_benchmark_usage_errors():
    with pytest.raises(ConfigurationError):
        run_benchmark(["flash"], [8], 4, 3)
    with pytest.raises(ConfigurationError):
        run_benchmark(["linear"], [8], 4, 3, mode="throughput")
    with pytest.raises(ConfigurationError):
        run_benchmark(["linear"], [], 4, 3)
    with pytest.raises(ConfigurationError):
        run_benchmark(["linear"], [16, 8], 4, 3)
    with pytest.raises(ConfigurationError):
        run_benchmark(["cosformer"], [64, 64], 8, 3)
    with pytest.raises(ConfigurationError):
        run_benchmark(["linear"], [0], 4, 3)
    with pytest.raises(ConfigurationError):
        run_benchmark(["linear"], [8], 4, 2)
    with pytest.raises(ConfigurationError):
        run_benchmark(["linear"], [8], 0, 3)


def test_record_validation_rejects_bad_cells():
    good = dict(variant="linear", seq_len=8, d_model=4, repeats=3,
                mean_s=1e-4, std_s=1e-6, median_s=1e-4,
                transient_scalars=52, mode="inference")
    BenchmarkRecord(**good).validate()
    with pytest.raises(ConfigurationError):
        BenchmarkRecord(**{**good, "variant": "flash"}).validate()
    with pytest.raises(ConfigurationError):
        BenchmarkRecord(**{**good, "mode": "throughput"}).validate()
    with pytest.raises(ConfigurationError):
        BenchmarkRecord(**{**good, "repeats": 2}).validate()
    with pytest.raises(ConfigurationError):
        BenchmarkRecord(**{**good, "mean_s": -1.0}).validate()
    with pytest.raises(ConfigurationError):
        BenchmarkRecord(**{**good, "transient_scalars": 0}).validate()


def test_write_benchmark_csv(tmp_path):
    records = run_benchmark(["linear"], [8], d_model=4, repeats=3, seed=2)
    path = tmp_path / "bench.csv"
    write_benchmark_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(records)
    fields = lines[1].split(",")
    assert len(fields) == 9
    assert fields[0] == "linear" and fields[-1] == "inference"
    assert int(fields[1]) == 8 and int(fields[3]) == 3
    assert float(fields[4]) > 0.0  # mean_s round-trips through the text
    assert int(fields[7]) == transient_scalars("linear", 8, 4)
