"""Randomized equivalence suite: every linear path against its oracle.

Each trial draws a random shape and configuration, runs one linear-time
variant and the quadratic reference on identical inputs, and records the
relative error. The suite exists to make the exactness claim executable:
the decomposed cosine path is supposed to match the dense computation to
rounding, not approximately.

Trials are keyed by (seed, trial index), so reports are deterministic and
independent of execution order; the optional process pool changes timing
only. The seeded mutations re-run the cosine variant with one deliberate
defect each, to demonstrate the suite actually rejects broken kernels.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    ELU_PLUS_ONE,
    IDENTITY,
    RELU,
    AttentionConfig,
    apply_feature_map,
    kernel_attention_quadratic,
    leaky_relu,
)
from .errors import ConfigurationError
from .linear import (
    _finalize,
    _scan,
    _with_ones,
    attend,
    causal_state_init,
    causal_state_step,
)
from .reweight import decompose, position_angles

VARIANTS = (
    "linear_identity",
    "linear_relu",
    "linear_leaky_relu",
    "linear_elu_plus_one",
    "cosformer_relu",
    "cosformer_elu_plus_one",
    "streaming",
)

MUTATIONS = (
    "position_off_by_one",
    "dropped_sin_branch",
    "unfloored_denominator",
)

# Matches the slope used by the leaky variant throughout the suite; any
# value in (0, 1) would do, this one is exactly representable.
_LEAKY = leaky_relu(0.25)

_FEATURE_MAPS = {
    "linear_identity": IDENTITY,
    "linear_relu": RELU,
    "linear_leaky_relu": _LEAKY,
    "linear_elu_plus_one": ELU_PLUS_ONE,
    "cosformer_relu": RELU,
    "cosformer_elu_plus_one": ELU_PLUS_ONE,
}

_TINY = np.finfo(np.float64).tiny


def threshold_for(variant: str, precision: str) -> float:
    """Pass/fail bound on max relative error for one variant."""
    _require_precision(precision)
    if variant == "streaming":
        # The streaming oracle is the batch forward itself, so the two
        # differ only by summation order; the bound is near rounding.
        return 1e-12
    return 1e-5 if precision == "standard" else 1e-10


def _require_precision(precision: str) -> None:
    if precision not in ("standard", "wide"):
        raise ConfigurationError(
            f"precision must be 'standard' or 'wide', got {precision!r}")


def _require_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")


def _draw_case(rng, n_max: int, d_max: int):
    """Random Q, K, V plus causal flag, with degenerate rows mixed in.

    A zeroed query row drives the relu feature row to zero and the
    denominator onto its floor; an all-nonpositive key matrix does the
    same for every row at once. Both must round-trip exactly.
    """
    n = int(rng.integers(1, n_max + 1))
    causal = bool(rng.integers(0, 2))
    d_k = int(rng.integers(1, d_max + 1))
    d_v = int(rng.integers(1, d_max + 1))
    Q = rng.standard_normal((n, d_k))
    K = rng.standard_normal((n, d_k))
    V = rng.standard_normal((n, d_v))
    if rng.random() < 0.25:
        Q[int(rng.integers(n))] = 0.0
    if rng.random() < 0.15:
        K = -np.abs(K)
    return Q, K, V, causal


def _mutated_cosformer(Q, K, V, config: AttentionConfig, mutation: str):
    """The cosine forward with one deliberate, documented defect."""
    dtype = np.result_type(Q, K, V)
    Qf = apply_feature_map(np.asarray(Q, dtype=np.float64), config.feature_map)
    Kf = apply_feature_map(np.asarray(K, dtype=np.float64), config.feature_map)
    m = config.reweight.m
    qf, kf = decompose(Qf, Kf, m)
    if mutation == "position_off_by_one":
        # Query angles taken at positions 2..n+1 instead of 1..n.
        ang = position_angles(Qf.shape[0] + 1, m)[1:, None]
        qf = np.hstack([Qf * np.cos(ang), Qf * np.sin(ang)])
    elif mutation == "dropped_sin_branch":
        # Only the left (cos-scaled) d columns of each feature row.
        d = Qf.shape[1]
        qf, kf = qf[:, :d], kf[:, :d]
    num = _scan(qf, kf, _with_ones(V), config.causal)
    num, den = num[:, :-1], num[:, -1]
    if mutation == "unfloored_denominator":
        # 0/0 on floored rows is the point here; keep numpy quiet about it.
        with np.errstate(invalid="ignore", divide="ignore"):
            out = num / den[:, None]
    else:
        out = _finalize(num, den, config.eps)
    return out.astype(dtype) if dtype == np.float32 else out


def _streaming_error(rng) -> float:
    """Token loop vs batch causal forward, always in wide precision."""
    n = int(rng.integers(1, 257))
    d_k = int(rng.integers(1, 17))
    d_v = int(rng.integers(1, 17))
    Q = rng.standard_normal((n, d_k))
    K = rng.standard_normal((n, d_k))
    V = rng.standard_normal((n, d_v))
    if rng.random() < 0.25:
        Q[int(rng.integers(n))] = 0.0
    m = int(rng.choice((n, 2 * n)))
    config = AttentionConfig.cosformer(m=m, causal=True)
    batch = attend(Q, K, V, config)
    state = causal_state_init(d_k, d_v)
    streamed = np.empty_like(batch)
    for t in range(n):
        state, streamed[t] = causal_state_step(state, Q[t], K[t], V[t], m,
                                               eps=config.eps)
    return _rel_error(streamed, batch)


def _rel_error(candidate, oracle) -> float:
    """max |a - b| scaled by the oracle's largest magnitude.

    NaN anywhere propagates to NaN, which no threshold accepts.
    """
    diff = np.max(np.abs(np.asarray(candidate, dtype=np.float64)
                         - np.asarray(oracle, dtype=np.float64)))
    scale = max(float(np.max(np.abs(oracle))), _TINY)
    return float(diff) / scale


def equivalence_trial(variant: str, seed: int, trial: int,
                      precision: str = "standard",
                      mutation: str | None = None) -> float:
    """Relative error of one seeded random case for one variant."""
    _require_variant(variant)
    _require_precision(precision)
    if mutation is not None and mutation not in MUTATIONS:
        raise ConfigurationError(f"unknown mutation {mutation!r}")
    if mutation is not None and not variant.startswith("cosformer"):
        raise ConfigurationError(
            f"mutation {mutation!r} applies to cosformer variants only")
    rng = np.random.default_rng([seed, trial])
    if variant == "streaming":
        return _streaming_error(rng)

    Q, K, V, causal = _draw_case(rng, n_max=128, d_max=32)
    if precision == "standard":
        Q, K, V = (a.astype(np.float32) for a in (Q, K, V))
    feature_map = _FEATURE_MAPS[variant]
    if variant.startswith("cosformer"):
        n = Q.shape[0]
        m = int(rng.choice((n, 2 * n)))
        config = AttentionConfig.cosformer(m=m, causal=causal,
                                           feature_map=feature_map)
    else:
        config = AttentionConfig.linear(feature_map=feature_map, causal=causal)
    if mutation is None:
        candidate = attend(Q, K, V, config)
    else:
        candidate = _mutated_cosformer(Q, K, V, config, mutation)
    oracle = kernel_attention_quadratic(Q, K, V, config)
    return _rel_error(candidate, oracle)


@dataclass(frozen=True)
class VariantResult:
    """Aggregated outcome of all trials of one variant."""

    variant: str
    trials: int
    failures: int
    max_rel_error: float
    threshold: float

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        state = "ok" if self.ok else f"FAIL ({self.failures} trials)"
        return (f"{self.variant:24s} max rel err {self.max_rel_error:.3e}"
                f"  (threshold {self.threshold:.0e})  {state}")


@dataclass(frozen=True)
class Report:
    """Suite outcome: one VariantResult per variant run."""

    seed: int
    trials: int
    precision: str
    mutation: str | None
    results: tuple[VariantResult, ...]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def summary(self) -> str:
        head = (f"equivalence suite: seed={self.seed} trials={self.trials} "
                f"precision={self.precision}"
                + (f" mutation={self.mutation}" if self.mutation else "")
                + f" ({self.elapsed_s:.1f}s)")
        return "\n".join([head] + [r.summary() for r in self.results])


def _trial_errors(variant, seed, trials, precision, mutation, jobs):
    args = [(variant, seed, t, precision, mutation) for t in range(trials)]
    if jobs is not None and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_trial_star, args, chunksize=32))
    return [equivalence_trial(*a) for a in args]


def _trial_star(args):
    return equivalence_trial(*args)


def run_equivalence_suite(seed: int, trials: int,
                          precision: str = "standard",
                          mutation: str | None = None,
                          jobs: int | None = None) -> Report:
    """Run every variant for the given number of seeded trials.

    With a mutation named, only the cosine relu variant runs, with that
    defect injected; the point is that the report must then fail.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    _require_precision(precision)
    variants = VARIANTS if mutation is None else ("cosformer_relu",)
    start = time.perf_counter()
    results = []
    for variant in variants:
        errors = _trial_errors(variant, seed, trials, precision, mutation,
                               jobs)
        bound = threshold_for(variant, precision)
        # NaN must count as failure, so test for <= rather than >.
        failures = sum(0 if e <= bound else 1 for e in errors)
        results.append(VariantResult(
            variant=variant,
            trials=trials,
            failures=failures,
            max_rel_error=float(np.max(errors)),
            threshold=bound,
        ))
    return Report(
        seed=seed,
        trials=trials,
        precision=precision,
        mutation=mutation,
        results=tuple(results),
        elapsed_s=time.perf_counter() - start,
    )
