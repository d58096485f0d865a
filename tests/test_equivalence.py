"""Randomized-equivalence suite: determinism, thresholds, mutations."""

import numpy as np
import pytest

from cosattn import equivalence, linear
from cosattn.core import AttentionConfig
from cosattn.equivalence import (
    MUTATIONS,
    VARIANTS,
    _DEFECTS,
    _draw_case,
    _injected,
    equivalence_trial,
    run_equivalence_suite,
    threshold_for,
)
from cosattn.errors import ConfigurationError
from cosattn.linear import _BLOCK, _PANEL, attend, causal_state_step


def test_variant_roster():
    assert set(VARIANTS) == {
        "linear_identity", "linear_relu", "linear_leaky_relu",
        "linear_elu_plus_one", "cosformer_relu", "cosformer_elu_plus_one",
        "streaming"}
    # The CLI's --mutation choices and the gate's output order follow it.
    assert MUTATIONS == ("position_off_by_one", "dropped_sin_branch",
                         "unfloored_denominator", "dropped_carry",
                         "unweighted_chunk", "panel_carry_reset",
                         "first_ignored")


def test_thresholds():
    assert threshold_for("cosformer_relu", "standard") == 1e-5
    assert threshold_for("cosformer_relu", "wide") == 1e-10
    # streaming compares two float64 association orders at any precision
    assert threshold_for("streaming", "standard") == 1e-12
    assert threshold_for("streaming", "wide") == 1e-12
    with pytest.raises(ConfigurationError):
        threshold_for("cosformer_relu", "exact")
    with pytest.raises(ConfigurationError):
        threshold_for("bogus", "standard")


def test_trial_is_deterministic_and_order_free():
    a = equivalence_trial("cosformer_relu", seed=7, trial=3)
    b = equivalence_trial("cosformer_relu", seed=7, trial=3)
    assert a == b
    assert 0.0 <= a < 1e-5
    # trial indices draw different cases; wide precision resolves the tiny
    # association-order differences that float32 storage rounds away
    errors = {equivalence_trial("cosformer_relu", seed=7, trial=t,
                                precision="wide") for t in range(10)}
    assert len(errors) > 1


def test_trial_usage_errors():
    with pytest.raises(ConfigurationError):
        equivalence_trial("flash", 0, 0)
    with pytest.raises(ConfigurationError):
        equivalence_trial("cosformer_relu", 0, 0, precision="exact")
    with pytest.raises(ConfigurationError):
        equivalence_trial("cosformer_relu", 0, 0, mutation="noise")
    with pytest.raises(ConfigurationError):
        equivalence_trial("linear_relu", 0, 0, mutation="dropped_sin_branch")


def test_suite_passes_both_precisions():
    for precision in ("standard", "wide"):
        report = run_equivalence_suite(seed=11, trials=25, precision=precision)
        assert report.ok, report.summary()
        assert len(report.results) == len(VARIANTS)
        for result in report.results:
            assert result.trials == 25 and result.failures == 0
            assert result.max_rel_error <= result.threshold
        assert "equivalence suite" in report.summary()


@pytest.mark.parametrize("mutation", [None, "dropped_carry"])
def test_parallel_matches_serial(mutation):
    # A mutated run fails alike in a worker pool only if each worker swaps
    # the defect into its own attend.
    serial = run_equivalence_suite(seed=13, trials=16, mutation=mutation)
    parallel = run_equivalence_suite(seed=13, trials=16, mutation=mutation,
                                     jobs=2)
    assert len(serial.results) == len(parallel.results)
    for s, p in zip(serial.results, parallel.results):
        assert s.variant == p.variant
        assert s.max_rel_error == p.max_rel_error
        assert s.failures == p.failures
        assert s.failures >= (mutation is not None)


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutations_are_caught(mutation):
    # As many trials as the acceptance gate runs: only about one draw in
    # eight is a causal walk of one chunk, the only case unweighted_chunk
    # breaks, and seed 0's first 40 trials catch it in none.
    report = run_equivalence_suite(seed=0, trials=100, mutation=mutation)
    assert not report.ok
    assert [r.variant for r in report.results] == ["cosformer_relu"]
    assert report.results[0].failures >= 1
    assert "FAIL" in report.summary()


def test_defects_never_outlive_their_trial():
    originals = {name: getattr(linear, name) for name, _ in _DEFECTS.values()}
    rng = np.random.default_rng(5)
    # Past one chunk, where the walk decomposes and carries, within one,
    # where it takes the re-weight matrix instead, and past one panel.
    cases = {}
    for n in (2 * _BLOCK + 5, _BLOCK, _PANEL + 5):
        Q, K, V = (rng.standard_normal((n, 4)) for _ in range(3))
        Q[3] = 0.0  # a floored row, which only the unfloored defect turns NaN
        config = AttentionConfig.cosformer(m=n, causal=True)
        cases[n] = (Q, K, V, config, attend(Q, K, V, config))
    lengths = {"unweighted_chunk": _BLOCK, "panel_carry_reset": _PANEL + 5,
               "first_ignored": _PANEL + 5}
    for mutation in MUTATIONS:
        # Inside the swap the shipped attend itself is broken: the walk of
        # a few chunks for most defects, the walk of one chunk, the only
        # one that reads the matrix, for unweighted_chunk, and a walk past
        # one panel for the two panel defects...
        n = lengths.get(mutation, 2 * _BLOCK + 5)
        Q, K, V, config, before = cases[n]
        with _injected(mutation):
            assert not np.array_equal(attend(Q, K, V, config), before), mutation
        # ...and after a trial, or an exception inside the swap, it is not.
        equivalence_trial("cosformer_relu", seed=0, trial=1, mutation=mutation)
        with pytest.raises(RuntimeError, match="inside"):
            with _injected(mutation):
                raise RuntimeError("inside the swap")
        for name, original in originals.items():
            assert getattr(linear, name) is original, mutation
        for Q, K, V, config, before in cases.values():
            assert np.array_equal(attend(Q, K, V, config), before), mutation


def test_streaming_trial_catches_a_skipped_fold(monkeypatch):
    # The decode folds each full chunk into its carry through the scan's
    # update step; with dropped_carry swapped in around each decode step,
    # the batch oracle left whole, every sequence longer than one chunk
    # forgets its earlier chunks and breaks the 1e-12 bound, and no
    # shorter one notices. Nor does a case whose keys are all
    # non-positive: every row sits on the eps floor and reads zero,
    # whatever the carry holds.
    def step(*args, **kwargs):
        with _injected("dropped_carry"):
            return causal_state_step(*args, **kwargs)
    monkeypatch.setattr(equivalence, "causal_state_step", step)
    bound = threshold_for("streaming", "standard")
    long = floored = 0
    for trial in range(24):
        _, K, _, _ = _draw_case(np.random.default_rng([0, trial]), 256, 16)
        n = K.shape[0]
        error = equivalence_trial("streaming", seed=0, trial=trial)
        shows = n > _BLOCK and (K > 0.0).any()
        assert (error > bound) == shows, (trial, n, error)
        long += shows
        floored += not (K > 0.0).any()
    assert 0 < long < 24 and floored


def test_oracle_draws_reach_one_chunk_and_two_panel_boundaries():
    # A share of the causal oracle cases is one chunk, where a cosine walk
    # takes the re-weight matrix, and a share crosses two panel
    # boundaries at small widths; the streaming draws keep n <= 256.
    draws = [_draw_case(np.random.default_rng([0, t]), 128, 32, walks=True)
             for t in range(200)]
    one_chunk = [Q for Q, _, _, causal in draws if causal and Q.shape[0] <= _BLOCK]
    panels = [(Q, V) for Q, _, V, causal in draws if causal and Q.shape[0] > 128]
    assert len(one_chunk) >= 200 // 8
    assert panels and all(2 * _PANEL < Q.shape[0] <= 3 * _PANEL
                          and Q.shape[1] <= 4 and V.shape[1] <= 4 for Q, V in panels)
    assert all(Q.shape[0] <= 128 for Q, _, _, causal in draws if not causal)
    assert max(_draw_case(np.random.default_rng([0, t]), 256, 16)[0].shape[0]
               for t in range(200)) <= 256


def test_unfloored_denominator_fails_on_nan():
    # the injected defect divides by a raw zero denominator somewhere in
    # 40 trials; the resulting NaN must count as a failure, not slip past
    report = run_equivalence_suite(seed=0, trials=40,
                                   mutation="unfloored_denominator")
    assert np.isnan(report.results[0].max_rel_error)


def test_suite_usage_errors():
    with pytest.raises(ConfigurationError):
        run_equivalence_suite(seed=0, trials=0)
    with pytest.raises(ConfigurationError):
        run_equivalence_suite(seed=0, trials=1, precision="exact")
    # Both raise before any worker pool starts.
    for jobs in (0, -1):
        with pytest.raises(ConfigurationError, match="jobs"):
            run_equivalence_suite(seed=0, trials=1, jobs=jobs)
