"""Sequence-length scaling benchmark for the attention variants.

Timing protocol: per (variant, length) cell, inputs are drawn from an rng
keyed by (seed, length, d_model) so every variant times the exact same
matrices. A variant's lengths are timed round-robin, one call each per
round, so slow stretches of a noisy machine hit every length alike and
length-to-length ratios stay stable. Warm-up rounds come first and are
discarded: at least one, and more until the warm-up has lasted as long
as the timed rounds should (repeats times the first round), up to
_WARMUP_S seconds. After 45 s idle, a 2-vCPU shared host ran softmax
calls at n = 2048 and 4096 2-2.5x slow for their first 1.45 s: one
warm-up round did not cover that, and waiting for two rounds to agree
would not either, since the slow rounds agree with each other. Then the
last `repeats` rounds are timed with a monotonic clock.
Mean, std, and median of the repeats are all reported; ratio arguments
should use the median, which is robust to a stray slow run.

Memory is reported twice. The analytic transient-scalar count is the
number of temporary scalars the streaming form of each variant needs:
it is deterministic, portable, and shows the asymptotic gap (quadratic
keeps an n x n weight block alive, the kernel variants a d x (d + 1)
sum, 2d x (d + 1) for cosformer). Next to it, peak_mib is what this
library allocates: the tracemalloc peak of one untimed call per cell,
made before the warm-up, inputs excluded and the output included. The
batch implementations allocate more than the count: a causal forward its
n-row denominators and fixed-size panels of feature rows and of the
scanned sums, a causal backward its gradients, four n-row vectors and
such panels, a non-causal call O(n * d) staging buffers.

A quadratic cell that runs out of memory is recorded with NaN timings
and peak rather than aborting the sweep, so large-length comparisons
against the linear variants still come out.
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
    """Analytic working-set size, in scalars, of one attention call.

    Quadratic attention materializes the n x n weight block plus the n x d
    output; the kernel variants stream through the output and one
    feature-width x (d + 1) sum, whose ones column is the key total, the
    feature width being d for plain kernels and 2d for cosformer's
    [cos | sin]-scaled rows.
    """
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
    """One timed (variant, length) cell of the sweep.

    NaN timings and peak_mib mark a cell whose run failed (out of
    memory); the analytic transient count is still meaningful for such
    cells. peak_mib is the measured tracemalloc peak of one call, in MiB.
    """

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
