"""Sequence-length scaling benchmark for the attention variants.

Each (variant, length) cell times inputs drawn from an rng keyed by
(seed, length, d_model), so every variant times the same matrices. A
variant's lengths are timed round-robin, one call each per round, so a
slow stretch of a noisy host hits every length alike. Discarded warm-up
rounds run first, until they have lasted as long as the timed rounds
should, up to _WARMUP_S seconds: a host that sat idle can run slow for
its first second or more. Ratios should use the median of the repeats.
Memory is reported twice: the analytic transient_scalars, and peak_mib,
the tracemalloc peak of one untimed call (inputs excluded, output
included). A cell that runs out of memory gets NaN timings and peak.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass, fields

import numpy as np

from .core import AttentionConfig
from .errors import ConfigurationError
from .grad import attend_backward
from .linear import attend

BENCH_VARIANTS = ("softmax", "linear", "cosformer")
BENCH_MODES = ("inference", "train")

_WARMUP_S = 2.0  # longest warm-up of one variant, in seconds


def _require_variant(variant: str) -> None:
    if variant not in BENCH_VARIANTS:
        raise ConfigurationError(f"unknown benchmark variant {variant!r}")


def _require_mode(mode: str) -> None:
    if mode not in BENCH_MODES:
        raise ConfigurationError(f"unknown benchmark mode {mode!r}")


def transient_scalars(variant: str, seq_len: int, d_model: int) -> int:
    """Analytic working-set size, in scalars, of one attention call:
    softmax's n x n weight block plus the n x d output; the kernel
    variants' output plus one (feature width) x (d + 1) sum, whose ones
    column is the key total, the width being d, or 2d for cosformer."""
    _require_variant(variant)
    if seq_len < 1 or d_model < 1:
        raise ConfigurationError(f"need seq_len, d_model >= 1, got {seq_len}, {d_model}")
    if variant == "softmax":
        return seq_len * seq_len + seq_len * d_model
    if variant == "cosformer":
        return seq_len * d_model + 2 * d_model * d_model + 2 * d_model
    return seq_len * d_model + d_model * d_model + d_model


@dataclass(frozen=True)
class BenchmarkRecord:
    """One timed (variant, length) cell of the sweep; peak_mib is the
    tracemalloc peak of one call in MiB. NaN timings and peak mark a cell
    that ran out of memory, whose analytic count still holds."""

    variant: str
    seq_len: int
    d_model: int
    repeats: int
    mean_s: float
    std_s: float
    median_s: float
    transient_scalars: int
    peak_mib: float
    mode: str

    @property
    def failed(self) -> bool:
        return not np.isfinite(self.mean_s)

    def validate(self) -> None:
        _require_variant(self.variant)
        _require_mode(self.mode)
        if self.seq_len < 1 or self.d_model < 1 or self.repeats < 3:
            raise ConfigurationError("benchmark cell has out-of-range counts")
        if self.transient_scalars <= 0:
            raise ConfigurationError("transient_scalars must be positive")
        if not self.failed and (self.mean_s <= 0.0 or self.std_s < 0.0
                                or self.median_s <= 0.0 or not self.peak_mib > 0.0):
            raise ConfigurationError(
                "timings and peak of a successful cell must be positive")

    def csv_row(self) -> str:
        return ",".join(
            "%.9g" % getattr(self, f.name) if f.type == "float"
            else str(getattr(self, f.name)) for f in fields(self))


# The CSV columns: BenchmarkRecord's fields in order, floats as %.9g.
CSV_HEADER = ",".join(f.name for f in fields(BenchmarkRecord))


def write_benchmark_csv(records, path) -> None:
    lines = [CSV_HEADER] + [r.csv_row() for r in records]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def variant_config(variant: str, m: int, causal: bool) -> AttentionConfig:
    """The config a variant name stands for; m is cosformer's horizon and
    is ignored by the other variants."""
    _require_variant(variant)
    if variant == "softmax":
        return AttentionConfig.softmax(causal)
    if variant == "linear":
        return AttentionConfig.linear(causal=causal)
    return AttentionConfig.cosformer(m, causal=causal)


def _make_call(variant: str, mode: str, Q, K, V):
    """Closure running exactly the work being measured, nothing else."""
    config = variant_config(variant, m=Q.shape[0], causal=False)
    if mode == "inference":
        return lambda: attend(Q, K, V, config)
    d_out = np.ones_like(V)
    return lambda: attend_backward(Q, K, V, config, d_out)


def _peak_mib(call) -> float:
    """tracemalloc peak of one call in MiB, NaN if it runs out of memory."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    except MemoryError:
        return math.nan
    finally:
        tracemalloc.stop()


def _round(calls, times) -> None:
    """Time one call per length; running out of memory drops a length."""
    for n, call in calls.items():
        if times[n] is not None:
            start = time.perf_counter()
            try:
                call()
                times[n].append(time.perf_counter() - start)
            except MemoryError:
                times[n] = None


def run_benchmark(variants, lengths, d_model: int, repeats: int,
                  mode: str = "inference", seed: int = 0) -> list[BenchmarkRecord]:
    """Time each variant at each length; returns one record per cell."""
    variants = list(variants)
    lengths = list(lengths)
    for v in variants:
        _require_variant(v)
    _require_mode(mode)
    if not lengths or any(n < 1 for n in lengths):
        raise ConfigurationError("lengths must be positive")
    if any(a >= b for a, b in zip(lengths, lengths[1:])):
        raise ConfigurationError("lengths must be strictly ascending")
    if repeats < 3:
        raise ConfigurationError(f"need repeats >= 3, got {repeats}")
    if d_model < 1:
        raise ConfigurationError(f"d_model must be >= 1, got {d_model}")

    records = []
    for variant in variants:
        calls = {}
        for n in lengths:
            # Keyed by everything except the variant: all variants see
            # identical inputs, so timing differences are algorithmic.
            rng = np.random.default_rng([seed, n, d_model])
            Q = rng.standard_normal((n, d_model))
            K = rng.standard_normal((n, d_model))
            V = rng.standard_normal((n, d_model))
            calls[n] = _make_call(variant, mode, Q, K, V)
        # The untimed peak call comes first; a length it finds out of
        # memory is not timed.
        peaks = {n: _peak_mib(call) for n, call in calls.items()}
        times = {n: None if math.isnan(peaks[n]) else [] for n in lengths}
        start = time.perf_counter()
        _round(calls, times)
        warmup_s = min(_WARMUP_S, repeats * (time.perf_counter() - start))
        while time.perf_counter() - start < warmup_s:
            _round(calls, times)
        for _ in range(repeats):
            _round(calls, times)
        for n in lengths:
            if times[n] is None:
                mean_s = std_s = median_s = float("nan")
            else:
                mean_s = statistics.fmean(times[n][-repeats:])
                std_s = statistics.pstdev(times[n][-repeats:])
                median_s = statistics.median(times[n][-repeats:])
            record = BenchmarkRecord(
                variant=variant,
                seq_len=n,
                d_model=d_model,
                repeats=repeats,
                mean_s=mean_s,
                std_s=std_s,
                median_s=median_s,
                transient_scalars=transient_scalars(variant, n, d_model),
                peak_mib=peaks[n] if times[n] is not None else math.nan,
                mode=mode,
            )
            record.validate()
            records.append(record)
    return records
