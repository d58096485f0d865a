"""Sequence-length scaling benchmark for the attention variants.

Timing protocol: per (variant, length) cell, inputs are drawn from an rng
keyed by (seed, length, d_model) so every variant times the exact same
matrices, one warm-up call is discarded, then `repeats` calls are timed
with a monotonic clock. A variant's lengths are timed round-robin, one
call each per round, so slow stretches of a noisy machine hit every
length alike and length-to-length ratios stay stable. Mean, std, and
median of the repeats are all reported; ratio arguments should use the
median, which is robust to a stray slow run.

Memory is reported as an analytic transient-scalar count, the number of
temporary scalars the streaming form of each variant needs, rather than
OS-level RSS: the count is deterministic, portable, and shows the
asymptotic gap (quadratic keeps an n x n weight block alive, the kernel
variants a d x (d + 1) sum, 2d x (d + 1) for cosformer). The vectorized batch
implementations here allocate additional O(n * d) staging buffers on top
of these counts; the counts track the algorithmic working set, not this
library's allocator behavior.

A quadratic cell that runs out of memory is recorded with NaN timings
rather than aborting the sweep, so large-length comparisons against the
linear variants still come out.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .core import AttentionConfig
from .errors import ConfigurationError
from .grad import attend_backward
from .linear import attend

BENCH_VARIANTS = ("softmax", "linear", "cosformer")
BENCH_MODES = ("inference", "train")

CSV_HEADER = "variant,seq_len,d_model,repeats,mean_s,std_s,median_s,transient_scalars,mode"


def transient_scalars(variant: str, seq_len: int, d_model: int) -> int:
    """Analytic working-set size, in scalars, of one attention call.

    Quadratic attention materializes the n x n weight block plus the n x d
    output; the kernel variants stream through the output and one
    feature-width x (d + 1) sum, whose ones column is the key total, the
    feature width being d for plain kernels and 2d for cosformer's
    [cos | sin]-scaled rows.
    """
    if variant == "softmax":
        return seq_len * seq_len + seq_len * d_model
    if variant == "cosformer":
        return seq_len * d_model + 2 * d_model * d_model + 2 * d_model
    if variant == "linear":
        return seq_len * d_model + d_model * d_model + d_model
    raise ConfigurationError(f"unknown benchmark variant {variant!r}")


@dataclass(frozen=True)
class BenchmarkRecord:
    """One timed (variant, length) cell of the sweep.

    NaN timings mark a cell whose run failed (out of memory); the analytic
    transient count is still meaningful for such cells.
    """

    variant: str
    seq_len: int
    d_model: int
    repeats: int
    mean_s: float
    std_s: float
    median_s: float
    transient_scalars: int
    mode: str

    @property
    def failed(self) -> bool:
        return not np.isfinite(self.mean_s)

    def validate(self) -> None:
        if self.variant not in BENCH_VARIANTS:
            raise ConfigurationError(f"unknown benchmark variant {self.variant!r}")
        if self.mode not in BENCH_MODES:
            raise ConfigurationError(f"unknown benchmark mode {self.mode!r}")
        if self.seq_len < 1 or self.d_model < 1 or self.repeats < 3:
            raise ConfigurationError("benchmark cell has out-of-range counts")
        if self.transient_scalars <= 0:
            raise ConfigurationError("transient_scalars must be positive")
        if not self.failed and (self.mean_s <= 0.0 or self.std_s < 0.0
                                or self.median_s <= 0.0):
            raise ConfigurationError("timings of a successful cell must be positive")

    def csv_row(self) -> str:
        return ",".join([
            self.variant,
            str(self.seq_len),
            str(self.d_model),
            str(self.repeats),
            "%.9g" % self.mean_s,
            "%.9g" % self.std_s,
            "%.9g" % self.median_s,
            str(self.transient_scalars),
            self.mode,
        ])


def write_benchmark_csv(records, path) -> None:
    lines = [CSV_HEADER] + [r.csv_row() for r in records]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _make_call(variant: str, mode: str, Q, K, V):
    """Closure running exactly the work being measured, nothing else."""
    if variant == "softmax":
        config = AttentionConfig.softmax()
    elif variant == "linear":
        config = AttentionConfig.linear()
    else:
        config = AttentionConfig.cosformer(m=Q.shape[0])
    if mode == "inference":
        return lambda: attend(Q, K, V, config)
    d_out = np.ones_like(V)
    return lambda: (attend(Q, K, V, config),
                    attend_backward(Q, K, V, config, d_out))


def run_benchmark(variants, lengths, d_model: int, repeats: int,
                  mode: str = "inference", seed: int = 0) -> list[BenchmarkRecord]:
    """Time each variant at each length; returns one record per cell."""
    variants = list(variants)
    lengths = list(lengths)
    for v in variants:
        if v not in BENCH_VARIANTS:
            raise ConfigurationError(f"unknown benchmark variant {v!r}")
    if mode not in BENCH_MODES:
        raise ConfigurationError(f"unknown benchmark mode {mode!r}")
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
        times = {n: [] for n in lengths}
        # Each round calls every length once, so a burst of machine noise
        # lands on all lengths of the variant alike instead of skewing
        # their ratios. Round 0 is the warm-up; its times are dropped.
        for _ in range(1 + repeats):
            for n in lengths:
                if times[n] is None:
                    continue
                start = time.perf_counter()
                try:
                    calls[n]()
                except MemoryError:
                    times[n] = None
                    continue
                times[n].append(time.perf_counter() - start)
        for n in lengths:
            if times[n] is None:
                mean_s = std_s = median_s = float("nan")
            else:
                mean_s = statistics.fmean(times[n][1:])
                std_s = statistics.pstdev(times[n][1:])
                median_s = statistics.median(times[n][1:])
            record = BenchmarkRecord(
                variant=variant,
                seq_len=n,
                d_model=d_model,
                repeats=repeats,
                mean_s=mean_s,
                std_s=std_s,
                median_s=median_s,
                transient_scalars=transient_scalars(variant, n, d_model),
                mode=mode,
            )
            record.validate()
            records.append(record)
    return records
