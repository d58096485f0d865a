"""Randomized equivalence suite: every linear path against its oracle.

Each trial draws a random shape and configuration, runs one linear-time
variant and the quadratic reference on identical inputs, and records the
relative error: the cosine path must match the dense one to rounding.
Trials are keyed by (seed, trial index), so a report does not depend on
execution order or on the optional process pool. A mutation swaps a
broken stand-in into the shipped forward for one trial (see _injected).
"""

from __future__ import annotations

import contextlib
import functools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linear
from .core import (
    ELU_PLUS_ONE,
    IDENTITY,
    RELU,
    AttentionConfig,
    kernel_attention_quadratic,
    leaky_relu,
)
from .errors import ConfigurationError
from .linear import _BLOCK, _PANEL, attend, causal_state_init, causal_state_step

VARIANTS = (
    "linear_identity",
    "linear_relu",
    "linear_leaky_relu",
    "linear_elu_plus_one",
    "cosformer_relu",
    "cosformer_elu_plus_one",
    "streaming",
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
    _require_variant(variant)
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


def _draw_case(rng, n_max: int, d_max: int, walks: bool = False):
    """Random Q, K, V plus causal flag, with degenerate rows mixed in.

    n is uniform in 1..n_max. With walks, a causal draw is redrawn a
    quarter of the time to one chunk (n <= _BLOCK), and an eighth of the
    time across two panel boundaries at widths <= 4, which keeps its
    oracle cheap. A zeroed query row puts its denominator on the floor;
    an all-nonpositive key matrix does it for every row at once."""
    n = int(rng.integers(1, n_max + 1))
    causal = bool(rng.integers(0, 2))
    if walks and causal:
        share = rng.random()
        if share < 0.25:
            n = int(rng.integers(1, _BLOCK + 1))
        elif share < 0.375:
            n = int(rng.integers(2 * _PANEL + 1, 3 * _PANEL + 1))
            d_max = min(d_max, 4)
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


def _draw_horizon(rng, n: int):
    """A cosine horizon for n rows: n or 2n, and a quarter of the time a
    float in [n, 4n]. The float is drawn after the integer and the case,
    so every trial keeps the case and integer it drew without it."""
    m = int(rng.choice((n, 2 * n)))
    return float(rng.uniform(n, 4 * n)) if rng.random() < 0.25 else m


def _position_off_by_one(decompose, Q_feat, K_feat, m, first=1):
    """Query rows scaled one position past their own."""
    q, k = decompose(Q_feat, K_feat, m, first)
    qc, qs = np.split(q, 2, axis=-1)
    # Each (cos, sin) pair turned on by one angle; Python floats keep q's dtype.
    c, s = float(np.cos(np.pi / (2.0 * m))), float(np.sin(np.pi / (2.0 * m)))
    return np.concatenate([qc * c - qs * s, qs * c + qc * s], axis=-1), k


def _dropped_sin_branch(decompose, Q_feat, K_feat, m, first=1):
    """Only the left (cos-scaled) d columns of each feature row."""
    d = Q_feat.shape[-1]
    return tuple(x[..., :d] for x in decompose(Q_feat, K_feat, m, first))


def _unfloored_denominator(finalize, num, eps, out):
    """num / den into out with no eps floor: the 0/0 on floored rows is the point."""
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(num[..., :-1], num[..., -1:], out=out)


def _first_ignored(decompose, Q_feat, K_feat, m, first=1):
    """Every panel decomposed from position 1."""
    return decompose(Q_feat, K_feat, m)


def _dropped_carry(update, carry, kc, vc, edge):
    """No chunk is summed into the carry: each reads only its own rows."""
    return carry


def _panel_carry_reset(update, carry, kc, vc, edge):
    """The carry emptied as the walk leaves each panel."""
    carry = update(carry, kc, vc, edge)
    if edge % _PANEL == 0:
        carry[...] = 0.0
    return carry


def _unweighted_chunk(reweight_chunk, m, dtype):
    """All-ones weights: the forward's one-chunk walk and every backward
    chunk lose their re-weight."""
    return np.ones_like(reweight_chunk(m, dtype))


# Mutation -> (linear attribute replaced, defect called with the original).
_DEFECTS = {
    "position_off_by_one": ("decompose", _position_off_by_one),
    "dropped_sin_branch": ("decompose", _dropped_sin_branch),
    "unfloored_denominator": ("_finalize", _unfloored_denominator),
    "dropped_carry": ("_carry_update", _dropped_carry),
    "unweighted_chunk": ("_reweight_chunk", _unweighted_chunk),
    "panel_carry_reset": ("_carry_update", _panel_carry_reset),
    "first_ignored": ("decompose", _first_ignored),
}
MUTATIONS = tuple(_DEFECTS)


@contextlib.contextmanager
def _injected(mutation: str):
    """linear with the mutation's defect in place, restored on any exit.
    The swap is process-local, so each pool worker swaps its own, and not
    thread-safe: another thread calling attend meanwhile runs the defect."""
    name, defect = _DEFECTS[mutation]
    original = getattr(linear, name)
    setattr(linear, name, functools.partial(defect, original))
    try:
        yield
    finally:
        setattr(linear, name, original)


def _streaming_error(rng) -> float:
    """Token loop vs batch causal forward, always in wide precision; the
    drawn causal flag is unused, since a decode is causal."""
    Q, K, V, _ = _draw_case(rng, n_max=256, d_max=16)
    n = Q.shape[0]
    m = _draw_horizon(rng, n)
    config = AttentionConfig.cosformer(m=m, causal=True)
    batch = attend(Q, K, V, config)
    state = causal_state_init(Q.shape[1], V.shape[1])
    streamed = np.empty_like(batch)
    for t in range(n):
        state, streamed[t] = causal_state_step(state, Q[t], K[t], V[t], m,
                                               eps=config.eps)
    return _rel_error(streamed, batch)


def _rel_error(candidate, oracle) -> float:
    """max |a - b| scaled by the oracle's largest magnitude; a NaN
    anywhere gives NaN, which no threshold accepts."""
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
    if mutation is not None and mutation not in _DEFECTS:
        raise ConfigurationError(f"unknown mutation {mutation!r}")
    if mutation is not None and not variant.startswith("cosformer"):
        raise ConfigurationError(
            f"mutation {mutation!r} applies to cosformer variants only")
    rng = np.random.default_rng([seed, trial])
    if variant == "streaming":
        return _streaming_error(rng)

    Q, K, V, causal = _draw_case(rng, n_max=128, d_max=32, walks=True)
    if precision == "standard":
        Q, K, V = (a.astype(np.float32) for a in (Q, K, V))
    feature_map = _FEATURE_MAPS[variant]
    if variant.startswith("cosformer"):
        m = _draw_horizon(rng, Q.shape[0])
        config = AttentionConfig.cosformer(m=m, causal=causal,
                                           feature_map=feature_map)
    else:
        config = AttentionConfig.linear(feature_map=feature_map, causal=causal)
    with contextlib.nullcontext() if mutation is None else _injected(mutation):
        candidate = attend(Q, K, V, config)
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
    trial = functools.partial(equivalence_trial, variant, seed,
                              precision=precision, mutation=mutation)
    if jobs is not None and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(trial, range(trials), chunksize=32))
    return list(map(trial, range(trials)))


def run_equivalence_suite(seed: int, trials: int,
                          precision: str = "standard",
                          mutation: str | None = None,
                          jobs: int | None = None) -> Report:
    """Run every variant for the given number of seeded trials. With a
    mutation named, only cosformer_relu runs, with the defect swapped in,
    and the report must fail. Raises ConfigurationError on trials or jobs
    below 1, or an unknown precision or mutation."""
    for name, value in (("trials", trials), ("jobs", 1 if jobs is None else jobs)):
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")
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
