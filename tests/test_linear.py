"""Linear-time paths against the quadratic oracles, plus streaming."""

import tracemalloc

import numpy as np
import pytest

from cosattn import linear
from cosattn.core import (
    DEFAULT_EPS,
    ELU_PLUS_ONE,
    IDENTITY,
    RELU,
    AttentionConfig,
    apply_feature_map,
    kernel_attention_quadratic,
    leaky_relu,
)
from cosattn.equivalence import _injected
from cosattn.errors import ConfigurationError, DimensionError
from cosattn.grad import _backward
from cosattn.linear import (
    _BLOCK,
    _PANEL,
    _forward,
    attend,
    causal_state_init,
    causal_state_step,
    cosformer_attention,
    linear_attention,
)
from cosattn.reweight import decompose


def _scanned(Q, K, V, config):
    """attend's output and the compute dtype of its kernel scan, checked
    to be the call's only one."""
    dtypes = []
    scan = linear._kernel_scan

    def spy(*args):
        dtypes.append(np.dtype(args[-1]))
        return scan(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linear, "_kernel_scan", spy)
        out = attend(Q, K, V, config)
    assert len(dtypes) == 1, dtypes
    return out, dtypes[0]


def test_linear_matches_quadratic_all_maps():
    rng = np.random.default_rng(31)
    for feature_map in (IDENTITY, RELU, leaky_relu(0.25), ELU_PLUS_ONE):
        for causal in (False, True):
            n = int(rng.integers(1, 40))
            Q = rng.standard_normal((n, 5))
            K = rng.standard_normal((n if causal else n + 3, 5))
            V = rng.standard_normal((K.shape[0], 4))
            got = linear_attention(Q, K, V, feature_map=feature_map,
                                   causal=causal)
            config = AttentionConfig.linear(feature_map, causal=causal)
            want = kernel_attention_quadratic(Q, K, V, config)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_cosformer_matches_quadratic():
    rng = np.random.default_rng(32)
    for trial in range(20):
        n = int(rng.integers(1, 60))
        causal = bool(trial % 2)
        m = int(rng.choice((n, 2 * n)))
        config = AttentionConfig.cosformer(
            m=m, causal=causal,
            feature_map=RELU if trial % 3 else ELU_PLUS_ONE)
        Q = rng.standard_normal((n, 6))
        K = rng.standard_normal((n, 6))
        V = rng.standard_normal((n, 3))
        got = cosformer_attention(Q, K, V, config)
        want = kernel_attention_quadratic(Q, K, V, config)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_cosformer_spans_chunk_boundaries():
    rng = np.random.default_rng(33)
    n = 2 * _BLOCK + 17
    config = AttentionConfig.cosformer(m=n, causal=True)
    Q = rng.standard_normal((n, 4))
    K = rng.standard_normal((n, 4))
    V = rng.standard_normal((n, 4))
    got = cosformer_attention(Q, K, V, config)
    want = kernel_attention_quadratic(Q, K, V, config)
    np.testing.assert_allclose(got, want, atol=1e-10)


# Stacked calls must match per-slice 2-D calls to this relative bound,
# and every slice the quadratic oracle at the acceptance gate's bounds.
STACK_BOUND = 1e-13
GATE_BOUND = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-10}
KERNEL_VARIANTS = ("cosformer", "linear_relu", "linear_elu_plus_one")


def _rel(got, want):
    scale = max(float(np.max(np.abs(want))), np.finfo(np.float64).tiny)
    return float(np.max(np.abs(got - want))) / scale


def _kernel_config(variant, m, causal):
    if variant == "cosformer":
        return AttentionConfig.cosformer(m=m, causal=causal)
    feature_map = RELU if variant == "linear_relu" else ELU_PLUS_ONE
    return AttentionConfig.linear(feature_map, causal=causal)


@pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=str)
@pytest.mark.parametrize("variant", KERNEL_VARIANTS)
def test_stack_matches_per_slice_calls_and_oracle(variant, lead):
    rng = np.random.default_rng(37)
    for n in (1, _BLOCK + 1, 2 * _BLOCK + 17):
        for causal in (False, True):
            for dtype in (np.float32, np.float64):
                n_k = n if causal else n + 3
                config = _kernel_config(variant, max(n, n_k), causal)
                Q = rng.standard_normal(lead + (n, 4))
                # Every seventh query row relu-maps to zero features and
                # lands on the eps floor.
                Q[..., ::7, :] = -np.abs(Q[..., ::7, :])
                Q = Q.astype(dtype)
                K = rng.standard_normal(lead + (n_k, 4)).astype(dtype)
                V = rng.standard_normal(lead + (n_k, 3)).astype(dtype)
                got = attend(Q, K, V, config)
                assert got.shape == lead + (n, 3) and got.dtype == dtype
                # A fresh array, not a view of the scanned [num | den].
                assert got.flags.c_contiguous and got.flags.owndata
                for idx in np.ndindex(*lead):
                    args = (Q[idx], K[idx], V[idx])
                    want = attend(*args, config)
                    assert want.flags.c_contiguous and want.flags.owndata
                    assert _rel(got[idx], want) <= STACK_BOUND, idx
                    oracle = kernel_attention_quadratic(*args, config)
                    assert _rel(got[idx], oracle) <= GATE_BOUND[got.dtype], idx


def test_stack_validation():
    config = AttentionConfig.cosformer(m=4, causal=True)
    X = np.ones((3, 4, 2))
    with pytest.raises(DimensionError):
        cosformer_attention(X, X, X[:2], config)
    with pytest.raises(DimensionError):
        cosformer_attention(X, X, X[0], config)
    with pytest.raises(DimensionError):
        linear_attention(X[None], X, X)
    with pytest.raises(DimensionError):
        linear_attention(np.ones(2), np.ones(2), np.ones(2))
    with pytest.raises(ConfigurationError):
        cosformer_attention(X, X, X, AttentionConfig.cosformer(m=3))


def test_zero_feature_rows_hit_the_floor():
    # all-negative queries relu to zero features: output rows exactly zero
    config = AttentionConfig.linear(RELU, causal=True)
    Q = -np.ones((4, 3))
    K = np.ones((4, 3))
    V = np.ones((4, 2))
    out = linear_attention(Q, K, V, feature_map=RELU, causal=True)
    np.testing.assert_array_equal(out, 0.0)


def test_causal_prefix_bit_identical_under_suffix_edits():
    rng = np.random.default_rng(34)
    for n in (3, 64, _BLOCK + 9):
        config = AttentionConfig.cosformer(m=2 * n, causal=True)
        Q = rng.standard_normal((n, 4))
        K = rng.standard_normal((n, 4))
        V = rng.standard_normal((n, 4))
        cut = n // 2 + 1
        Q2, K2, V2 = Q.copy(), K.copy(), V.copy()
        Q2[cut:], K2[cut:], V2[cut:] = 1e6, -1e6, 42.0
        for dtype in (np.float64, np.float32):
            # The edits stay under the float32 overflow bound, so both calls
            # scan in the storage dtype.
            base, scanned = _scanned(*(a.astype(dtype) for a in (Q, K, V)), config)
            edited, scanned2 = _scanned(*(a.astype(dtype) for a in (Q2, K2, V2)),
                                        config)
            assert scanned == scanned2 == dtype
            assert np.array_equal(base[:cut], edited[:cut]), (n, dtype)


def test_cosformer_requires_cosine_config():
    Q = np.ones((2, 2))
    with pytest.raises(ConfigurationError):
        cosformer_attention(Q, Q, Q, AttentionConfig.linear(RELU))
    with pytest.raises(ConfigurationError):
        cosformer_attention(Q, Q, Q, AttentionConfig.softmax())
    with pytest.raises(ConfigurationError):
        cosformer_attention(Q, Q, Q, AttentionConfig.cosformer(m=1))


def test_linear_attention_validation():
    Q = np.ones((2, 2))
    with pytest.raises(ConfigurationError):
        linear_attention(Q, Q, Q, eps=0.0)
    with pytest.raises(DimensionError):
        linear_attention(Q, np.ones((2, 3)), Q)


def test_causal_state_init_validation():
    for d_k, d_v in ((0, 2), (2, 0), (-1, 1)):
        with pytest.raises(DimensionError):
            causal_state_init(d_k, d_v)


def test_output_dtype_follows_storage():
    rng = np.random.default_rng(35)
    Q = rng.standard_normal((5, 3)).astype(np.float32)
    V = rng.standard_normal((5, 2)).astype(np.float32)
    config = AttentionConfig.cosformer(m=5)
    assert cosformer_attention(Q, Q, V, config).dtype == np.float32
    assert linear_attention(Q, Q, V).dtype == np.float32
    assert cosformer_attention(
        Q.astype(np.float64), Q, V, config).dtype == np.float64


def test_streaming_matches_batch():
    rng = np.random.default_rng(36)
    for _ in range(10):
        n = int(rng.integers(1, 90))
        d_k = int(rng.integers(1, 9))
        d_v = int(rng.integers(1, 9))
        m = 2 * n
        Q = rng.standard_normal((n, d_k))
        K = rng.standard_normal((n, d_k))
        V = rng.standard_normal((n, d_v))
        config = AttentionConfig.cosformer(m=m, causal=True)
        batch = cosformer_attention(Q, K, V, config)
        state = causal_state_init(d_k, d_v)
        for t in range(n):
            state, row = causal_state_step(state, Q[t], K[t], V[t], m)
            np.testing.assert_allclose(row, batch[t], atol=1e-12)
        assert state.t == n


def test_streaming_state_is_updated_in_place():
    state = causal_state_init(2, 2)
    returned, _ = causal_state_step(state, np.ones(2), np.ones(2),
                                    np.ones(2), m=4)
    assert returned is state
    assert state.t == 1 and (state.keys[0] != 0.0).any()
    assert state.config == AttentionConfig.cosformer(4, causal=True)


def _snapshot(state):
    """Every field of a decode state, the arrays as bytes."""
    return (state.t, state.config, state.carry.tobytes(),
            state.keys.tobytes(), state.vals.tobytes())


@pytest.mark.parametrize("t", [0, 7, _BLOCK, 2 * _BLOCK + 3])
def test_refused_steps_leave_the_state_unchanged(t):
    # At t = _BLOCK the chunk buffer is full, so the refused step is the
    # one that would fold it into the carry first. The horizon m = t + 1
    # admits exactly one more step.
    rng = np.random.default_rng(39)
    d_k, d_v, m = 3, 2, t + 1
    state = causal_state_init(d_k, d_v)
    for _ in range(t):
        causal_state_step(state, *rng.standard_normal((2, d_k)),
                          rng.standard_normal(d_v), m)
    q, k, v = np.ones(d_k), np.ones(d_k), np.ones(d_v)
    nan_q, inf_k, inf_v = q.copy(), k.copy(), v.copy()
    nan_q[1], inf_k[0], inf_v[-1] = np.nan, np.inf, -np.inf
    refused = [
        (DimensionError, (np.ones(d_k - 1), k, v, m)),
        (DimensionError, (q, np.ones(d_k + 1), v, m)),
        (DimensionError, (q, k, np.ones(d_v + 1), m)),
        (DimensionError, (q[None], k, v, m)),
        (ValueError, (nan_q, k, v, m)),
        (ValueError, (q, inf_k, v, m)),
        (ValueError, (q, k, inf_v, m)),
        (ValueError, (q, k, (1 + 1j) * v, m)),  # not cast to its real part
        (ConfigurationError, (q, k, v, m, 0.0)),
        (ConfigurationError, (q, k, v, m, -1.0)),
        (ConfigurationError, (q, k, v, m, np.inf)),
        (ConfigurationError, (q, k, v, 0)),  # no horizon m >= 1
    ]
    if t:
        # The first step fixed m and eps: the rows summed so far were
        # scaled at that horizon.
        refused += [(ConfigurationError, (q, k, v, m + 1)),
                    (ConfigurationError, (q, k, v, m, 2 * DEFAULT_EPS))]
    before = _snapshot(state)
    for error, args in refused:
        with pytest.raises(error):
            causal_state_step(state, *args)
        assert _snapshot(state) == before, args
    # The state still decodes: the next accepted step folds as it should.
    causal_state_step(state, q, k, v, m)
    assert state.t == t + 1 == m
    # Position m + 1 is past the horizon of the state's own m.
    before = _snapshot(state)
    with pytest.raises(ConfigurationError):
        causal_state_step(state, q, k, v, m)
    assert _snapshot(state) == before



def test_cosformer_attention_refuses_a_nan_horizon():
    config = AttentionConfig.cosformer(m=8, causal=True)
    # A NaN horizon that got past the config's own check.
    object.__setattr__(config.reweight, "m", float("nan"))
    Q = np.ones((4, 3))
    with pytest.raises(ConfigurationError):
        cosformer_attention(Q, Q, Q, config)


def test_decode_step_refuses_a_nan_horizon():
    state = causal_state_init(3, 2)
    before = _snapshot(state)
    with pytest.raises(ConfigurationError):
        causal_state_step(state, np.ones(3), np.ones(3), np.ones(2), float("nan"))
    assert _snapshot(state) == before

def test_streaming_chunk_boundaries_match_batch_and_prefix_sums():
    rng = np.random.default_rng(40)
    n, d_k, d_v = 2 * _BLOCK + 9, 4, 3
    Q, K, V = (rng.standard_normal((n, d)) for d in (d_k, d_k, d_v))
    config = AttentionConfig.cosformer(m=n, causal=True)  # m = n exactly
    batch = cosformer_attention(Q, K, V, config)
    _, kf = decompose(np.maximum(Q, 0.0), np.maximum(K, 0.0), n)
    v1 = np.hstack((V, np.ones((n, 1))))
    checked = {1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, n}
    state = causal_state_init(d_k, d_v)
    for t in range(1, n + 1):
        _, row = causal_state_step(state, Q[t - 1], K[t - 1], V[t - 1], n)
        if t in checked:
            np.testing.assert_allclose(row, batch[t - 1], rtol=0, atol=1e-12,
                                       err_msg=f"row at t={t}")
            # The carry plus the current chunk's rows: [s | z] over 1..t.
            r = (t - 1) % _BLOCK + 1
            got = state.carry + state.keys[:r].T @ state.vals[:r]
            want = kf[:t].T @ v1[:t]
            np.testing.assert_allclose(
                got, want, rtol=0, atol=1e-12 * np.abs(want).max(),
                err_msg=f"sums at t={t}")
    assert state.t == n


def test_unfolded_step_allocates_no_rank1_temporary():
    # A step that does not fold writes one buffer row and reads the carry:
    # its transients are vectors. The per-token rank-1 update of the state
    # allocated a d_k x d_v block per step; even that is below one state.
    d = 64
    rank1 = d * d * 8
    rng = np.random.default_rng(41)
    Q, K, V = (rng.standard_normal((2 * _BLOCK + 1, d)) for _ in range(3))
    state = causal_state_init(d, d)
    peaks = {}
    tracemalloc.start()
    try:
        for t in range(2 * _BLOCK + 1):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            causal_state_step(state, Q[t], K[t], V[t], m=4 * _BLOCK)
            peaks[t] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    folds = {_BLOCK, 2 * _BLOCK}  # steps t + 1 = 33 and 65 fold a chunk
    # The tracer sees NumPy buffers: a fold makes a state-sized product.
    assert all(peaks[t] >= 2 * d * (d + 1) * 8 for t in folds)
    worst = max(p for t, p in peaks.items() if t not in folds)
    assert worst < rank1, worst


@pytest.mark.parametrize("lead", [(), (2, 3)], ids=str)
@pytest.mark.parametrize("variant", KERNEL_VARIANTS)
def test_nonnegative_float32_forward_computes_in_float32(variant, lead):
    rng = np.random.default_rng(38)
    n = 3 * _BLOCK + 5
    for causal in (False, True):
        config = _kernel_config(variant, n, causal)
        Q, K, V = (rng.standard_normal(lead + (n, 4)).astype(np.float32)
                   for _ in range(3))
        # Zeroed query rows: under relu their features vanish and the rows
        # sit on the eps floor.
        Q[..., ::9, :] = 0.0
        out, scanned = _scanned(Q, K, V, config)
        assert scanned == out.dtype == np.float32
        for idx in np.ndindex(*lead):
            oracle = kernel_attention_quadratic(Q[idx], K[idx], V[idx], config)
            assert _rel(out[idx], oracle) <= GATE_BOUND[out.dtype], (causal, idx)


@pytest.mark.parametrize("lead", [(), (2, 3)], ids=str)
@pytest.mark.parametrize("feature_map", [IDENTITY, leaky_relu(0.25)],
                         ids=lambda f: f.name)
def test_sign_indefinite_float32_forward_is_the_float64_forward(feature_map, lead):
    rng = np.random.default_rng(39)
    n = 3 * _BLOCK + 5
    for causal in (False, True):
        config = AttentionConfig.linear(feature_map, causal=causal)
        Q, K, V = (rng.standard_normal(lead + (n, 4)).astype(np.float32)
                   for _ in range(3))
        out, scanned = _scanned(Q, K, V, config)
        assert scanned == np.float64 and out.dtype == np.float32
        wide = attend(*(a.astype(np.float64) for a in (Q, K, V)), config)
        assert np.array_equal(out, wide.astype(np.float32))


@pytest.mark.parametrize("variant", KERNEL_VARIANTS)
def test_float32_overflow_guard_falls_back_to_float64(variant):
    rng = np.random.default_rng(40)
    n = 3 * _BLOCK + 5
    config = _kernel_config(variant, n, causal=True)
    Q, K, V = (rng.standard_normal((n, 8)) for _ in range(3))
    # Float32 sums of these overflow to inf and the output to NaN; the
    # float64 forward of the same values is finite.
    for scale in (1e13, 1e18):
        args = [(a * scale).astype(np.float32) for a in (Q, K, V)]
        out, scanned = _scanned(*args, config)
        assert scanned == np.float64 and out.dtype == np.float32
        assert np.isfinite(out).all()
        wide = attend(*(a.astype(np.float64) for a in args), config)
        assert _rel(out, wide) <= GATE_BOUND[out.dtype], scale
    # An eps below the smallest normal float32 would round to 0 there and
    # divide the zero rows 0 by 0.
    Q[::9] = -1.0
    config = AttentionConfig(feature_map=config.feature_map,
                             reweight=config.reweight, causal=True, eps=1e-300)
    args = [a.astype(np.float32) for a in (Q, K, V)]
    out, scanned = _scanned(*args, config)
    assert scanned == np.float64 and np.isfinite(out).all()
    # No float32 scan is attempted and thrown away, so nothing silences
    # a float64 scan that overflows: it warns.
    with pytest.warns(RuntimeWarning):
        attend(*(a * 1e200 for a in (Q, K, V)), config)


@pytest.mark.parametrize("feature_map", [RELU, ELU_PLUS_ONE], ids=lambda fm: fm.name)
@pytest.mark.parametrize("n", [1, 17, _BLOCK])
def test_float32_one_chunk_cosine_overflow_returns_the_float64_forward(
        n, feature_map):
    # A causal cosine walk of one chunk weights its masked product instead
    # of decomposing; the bound sends it to float64 all the same.
    rng = np.random.default_rng(52)
    config = AttentionConfig.cosformer(m=2 * n, causal=True, feature_map=feature_map)
    args = [(rng.standard_normal((2, n, 8)) * 1e18).astype(np.float32)
            for _ in range(3)]
    out, scanned = _scanned(*args, config)
    assert scanned == np.float64 and np.isfinite(out).all()
    wide = attend(*(a.astype(np.float64) for a in args), config)
    assert np.array_equal(out, wide.astype(np.float32))


def test_one_chunk_overflow_the_mask_drops_stays_out_of_the_output():
    # Only q_{n-3} . k_{n-1}, a pair the causal mask drops, overflows
    # float64: no other key has a first feature, and the one query that
    # sees k_{n-1} has none either. The mask zeroes it before the weight
    # is multiplied in (linear._masked), so the output is that of a call
    # where k_{n-1}'s first entry is 1, not 0 * inf = NaN.
    rng = np.random.default_rng(53)
    n = _BLOCK
    config = AttentionConfig.cosformer(m=n, causal=True)
    Q, K, V = (np.abs(rng.standard_normal((n, 8))) for _ in range(3))
    K[:, 0] = Q[-1, 0] = 0.0
    Q[-3, 0] = K[-1, 0] = 1e160
    with np.errstate(over="ignore"):  # the dropped product
        assert Q[-3] @ K[-1] == np.inf
        big, scanned = _scanned(Q, K, V, config)
    assert scanned == np.float64
    K[-1, 0] = 1.0
    assert np.array_equal(big, attend(Q, K, V, config))


def _overflow_bound(Q, K, V, config):
    """n_k * A * B * max(1, max|V|) of linear._forward's dtype rule, A and
    B from the largest entry of the mapped rows themselves."""
    A, B = (max(1.0, np.sqrt(X.shape[-1]) * float(
        apply_feature_map(X.astype(np.float64), config.feature_map).max()))
        for X in (Q, K))
    return K.shape[-2] * A * B * max(1.0, float(np.abs(V).max()))


@pytest.mark.parametrize("constant", [False, True], ids=["random", "constant"])
@pytest.mark.parametrize("variant", KERNEL_VARIANTS)
def test_float32_scans_up_to_the_overflow_bound(variant, constant):
    # Inputs scaled to just under the bound scan in float32, just over it
    # in float64, and both match the oracle. Constant positive rows are
    # the worst case: the last row's linear numerator reaches the bound.
    rng = np.random.default_rng(41)
    n, d = 101, 8
    config = _kernel_config(variant, n, causal=True)
    Q, K, V = (np.ones((n, d)) if constant else rng.standard_normal((n, d))
               for _ in range(3))
    # At these scales the bound is the scale cubed times this, to about
    # 1e-11 relative: elu_plus_one's + 1 is lost in it.
    unit = n * d * Q.max() * K.max() * np.abs(V).max()
    half_max = float(np.finfo(np.float32).max) / 2
    for margin, dtype in ((0.99, np.float32), (1.01, np.float64)):
        scale = (margin * half_max / unit) ** (1 / 3)
        args = [(X * scale).astype(np.float32) for X in (Q, K, V)]
        assert (_overflow_bound(*args, config) < half_max) == (dtype == np.float32)
        out, scanned = _scanned(*args, config)
        assert scanned == dtype and out.dtype == np.float32
        oracle = kernel_attention_quadratic(*args, config)
        assert _rel(out, oracle) <= GATE_BOUND[out.dtype], margin


@pytest.mark.parametrize("variant", KERNEL_VARIANTS)
def test_each_kernel_forward_scans_once(variant):
    # The compute dtype is chosen before the walk, so no scan is thrown
    # away and redone: a plain float32 call and each overflow case scan
    # once (_scanned counts), the overflow cases in float64.
    rng = np.random.default_rng(57)
    n = 2 * _PANEL + 17
    config = _kernel_config(variant, n, causal=True)
    plain = [rng.standard_normal((2, n, 8)) for _ in range(3)]
    one_slice, past_first_panel = ([X.copy() for X in plain] for _ in range(2))
    for X, Y in zip(one_slice, past_first_panel):
        X[1] *= 1e18
        Y[1, 2 * _PANEL:] *= 1e18
    cases = {"plain": (plain, np.float32),
             "1e13": ([X * 1e13 for X in plain], np.float64),
             "1e18": ([X * 1e18 for X in plain], np.float64),
             "one slice": (one_slice, np.float64),
             "past the first panel": (past_first_panel, np.float64)}
    for name, (args, dtype) in cases.items():
        out, scanned = _scanned(*(X.astype(np.float32) for X in args), config)
        assert scanned == dtype, name
        assert np.isfinite(out).all(), name


@pytest.mark.parametrize("variant", KERNEL_VARIANTS)
def test_one_overflowing_slice_moves_the_stack_to_float64(variant):
    rng = np.random.default_rng(42)
    n = 2 * _BLOCK + 7
    config = _kernel_config(variant, n, causal=True)
    Q, K, V = (rng.standard_normal((3, n, 8)) for _ in range(3))
    for X in (Q, K, V):
        X[1] *= 1e18
    args = [X.astype(np.float32) for X in (Q, K, V)]
    out, scanned = _scanned(*args, config)
    assert scanned == np.float64 and np.isfinite(out).all()
    for idx in range(3):
        # Each slice, the overflow-free ones too, is its float64 forward.
        wide = attend(*(X[idx].astype(np.float64) for X in args), config)
        assert np.array_equal(out[idx], wide.astype(np.float32)), idx


@pytest.mark.parametrize("variant", KERNEL_VARIANTS)
def test_overflow_past_the_first_panel_moves_the_call_to_float64(variant):
    # The bound reads the whole call: an overflow in slice 1's third panel
    # alone sends the whole call to float64.
    rng = np.random.default_rng(49)
    n = 2 * _PANEL + 17
    config = _kernel_config(variant, n, causal=True)
    Q, K, V = (rng.standard_normal((2, n, 8)) for _ in range(3))
    for X in (Q, K, V):
        X[1, 2 * _PANEL:] *= 1e18
    args = [X.astype(np.float32) for X in (Q, K, V)]
    out, scanned = _scanned(*args, config)
    assert scanned == np.float64
    wide = attend(*(X.astype(np.float64) for X in args), config)
    assert np.array_equal(out, wide.astype(np.float32))


# These lengths cross two and three panel boundaries, at every variant and
# dtype; the equivalence suite reaches two boundaries in a share of its
# causal draws only.
PANEL_LENGTHS = (2 * _PANEL + 17, 3 * _PANEL + 17)


def _panel_case(rng, lead, n, dtype):
    Q, K, V = (rng.standard_normal(lead + (n, 4)) for _ in range(3))
    Q[..., ::7, :] = -np.abs(Q[..., ::7, :])  # relu rows on the eps floor
    return [X.astype(dtype) for X in (Q, K, V)]


def _panel_config(cosine, feature_map, n):
    if cosine:
        return AttentionConfig.cosformer(m=n, causal=True, feature_map=feature_map)
    return AttentionConfig.linear(feature_map, causal=True)


@pytest.mark.parametrize("lead", [(), (2,)], ids=str)
@pytest.mark.parametrize("feature_map", [RELU, ELU_PLUS_ONE], ids=lambda f: f.name)
@pytest.mark.parametrize("cosine", [True, False], ids=["cosformer", "linear"])
def test_causal_walk_across_panels_matches_the_oracle(cosine, feature_map, lead):
    rng = np.random.default_rng(43)
    for n in PANEL_LENGTHS:
        config = _panel_config(cosine, feature_map, n)
        for dtype in (np.float32, np.float64):
            Q, K, V = _panel_case(rng, lead, n, dtype)
            got = attend(Q, K, V, config)
            for idx in np.ndindex(*lead):
                oracle = kernel_attention_quadratic(Q[idx], K[idx], V[idx], config)
                assert _rel(got[idx], oracle) <= GATE_BOUND[got.dtype], (n, dtype, idx)


@pytest.mark.parametrize("lead", [(), (2,)], ids=str)
@pytest.mark.parametrize("feature_map", [RELU, ELU_PLUS_ONE], ids=lambda f: f.name)
def test_prefix_across_panels_bit_identical_under_suffix_edits(feature_map, lead):
    rng = np.random.default_rng(44)
    for n in PANEL_LENGTHS:
        config = AttentionConfig.cosformer(m=n, causal=True, feature_map=feature_map)
        for dtype in (np.float32, np.float64):
            Q, K, V = _panel_case(rng, lead, n, dtype)
            base, scanned = _scanned(Q, K, V, config)
            for cut in (_PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL - 1, 2 * _PANEL + 1):
                Q2, K2, V2 = Q.copy(), K.copy(), V.copy()
                Q2[..., cut:, :], K2[..., cut:, :], V2[..., cut:, :] = 1e6, -1e6, 42.0
                edited, scanned2 = _scanned(Q2, K2, V2, config)
                # The edits stay under the float32 overflow bound.
                assert scanned == scanned2 == dtype
                assert np.array_equal(base[..., :cut, :], edited[..., :cut, :]), \
                    (n, dtype, cut)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("mutation", ["panel_carry_reset", "first_ignored"],
                         ids=["carry_reset", "first_ignored"])
def test_oracle_catches_panel_defects(mutation, dtype):
    rng = np.random.default_rng(45)
    Q, K, V = _panel_case(rng, (), _PANEL, dtype)
    config = AttentionConfig.cosformer(m=_PANEL, causal=True)
    shipped = attend(Q, K, V, config)
    with _injected(mutation):
        # Within one panel the defect changes nothing, so a suite that
        # never crosses a panel boundary cannot see it...
        assert np.array_equal(attend(Q, K, V, config), shipped)
        # ...and past one the oracle comparison fails.
        for n in PANEL_LENGTHS:
            Q, K, V = _panel_case(rng, (), n, dtype)
            config = AttentionConfig.cosformer(m=n, causal=True)
            oracle = kernel_attention_quadratic(Q, K, V, config)
            assert _rel(attend(Q, K, V, config), oracle) > GATE_BOUND[np.dtype(dtype)], n


def test_causal_forward_holds_no_whole_length_feature_rows():
    # Peak over the call, inputs excluded: [num | den] and the output are
    # unavoidable, and one n x 2d float32 array more than the panel walk's
    # transients would break the bound.
    rng = np.random.default_rng(46)
    n, d = 8 * _PANEL, 32
    Q, K, V = (rng.standard_normal((n, d)).astype(np.float32) for _ in range(3))
    config = AttentionConfig.cosformer(m=n, causal=True)
    attend(Q, K, V, config)  # warm the mask cache
    outputs = n * (2 * d + 1) * 4
    tracemalloc.start()
    try:
        out = attend(Q, K, V, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == np.float32
    assert peak < outputs + n * 2 * d * 4, peak


def test_prefill_forward_peaks_at_most_1_30_mib():
    # The benchmark's prefill: a causal float32 cosformer forward at
    # n = 4096, d = 64. 1 MiB of the peak is the output; 128-row panels,
    # each scaled by one call with no scratch, keep the rest under 0.3 MiB.
    rng = np.random.default_rng(55)
    n, d = 4096, 64
    Q, K, V = (rng.standard_normal((n, d)).astype(np.float32) for _ in range(3))
    config = AttentionConfig.cosformer(m=n, causal=True)
    attend(Q, K, V, config)  # warm the mask cache
    tracemalloc.start()
    try:
        attend(Q, K, V, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.30 * 2**20, peak / 2**20


# Lengths of many panels whose n-row arrays outgrow the panel transients;
# the bounds below are absolute, so they stay fixed, not multiples of _PANEL.
WALK_LENGTHS = (2048, 4096)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("n", WALK_LENGTHS)
def test_causal_forward_holds_no_whole_length_scanned_sums(n, dtype):
    # Peak over the call, inputs excluded, beyond the output: the n
    # denominators and one panel's feature rows and scanned [num | den],
    # whatever n is. An n-row [num | den] beside the output would break
    # the bound at both lengths.
    rng = np.random.default_rng(47)
    d = 32
    Q, K, V = (rng.standard_normal((n, d)).astype(dtype) for _ in range(3))
    config = AttentionConfig.cosformer(m=n, causal=True)
    attend(Q, K, V, config)  # warm the mask cache
    tracemalloc.start()
    try:
        out = attend(Q, K, V, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == dtype
    assert peak - out.nbytes < 100 * 1024 * out.itemsize, peak - out.nbytes


def test_causal_backward_holds_no_feature_rows_past_their_scan():
    # Peak over the call, inputs and record excluded: the three gradients
    # and four n-row float64 vectors (dhat, -w and the cos/sin table),
    # plus 0.5 MiB for the chunk walks' transients, as the test below
    # bounds longer walks. One whole-length n x 2d float64 array of
    # rotated rows, 0.5 MiB here, would break the bound.
    rng = np.random.default_rng(48)
    n, d = 8 * _PANEL, 32
    Q, K, V, g = (rng.standard_normal((n, d)) for _ in range(4))
    config = AttentionConfig.cosformer(m=n, causal=True)
    _backward(_forward(Q, K, V, config)[1], g)  # warm the mask cache
    record = _forward(Q, K, V, config)[1]
    tracemalloc.start()
    try:
        _backward(record, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * d * 8 + 4 * n * 8 + 2 ** 19, peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("n", WALK_LENGTHS)
def test_causal_backward_holds_no_whole_length_rows(n, dtype):
    # Peak over the call, inputs and record excluded: the three gradients
    # and four n-row float64 vectors (dhat, -w and the cos/sin table),
    # plus 1 MiB for the chunk walks' transients, whatever n is. One more
    # n x d float64 array at n = 4096 would break the bound.
    rng = np.random.default_rng(48)
    d = 32
    Q, K, V = (rng.standard_normal((n, d)).astype(dtype) for _ in range(3))
    g = rng.standard_normal((n, d))
    config = AttentionConfig.cosformer(m=n, causal=True)
    _backward(_forward(Q, K, V, config)[1], g)  # warm the mask cache
    record = _forward(Q, K, V, config)[1]
    assert record["Q"].dtype == dtype
    tracemalloc.start()
    try:
        _backward(record, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * d * 8 + 4 * n * 8 + 2 ** 20, peak


@pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
def test_float32_d_out_peaks_no_higher_than_float64(causal):
    # The backward widens d_out a chunk at a time: a float32 d_out must
    # not cost a whole-length float64 copy of it.
    rng = np.random.default_rng(54)
    n, d = 8 * _PANEL, 32
    Q, K, V = (rng.standard_normal((n, d)).astype(np.float32) for _ in range(3))
    g = rng.standard_normal((n, d))
    config = AttentionConfig.cosformer(m=n, causal=causal)
    peaks = {}
    for d_out in (g, g.astype(np.float32)):
        # Warm the mask cache and NumPy's per-dtype loop caches.
        _backward(_forward(Q, K, V, config)[1], d_out)
        record = _forward(Q, K, V, config)[1]
        tracemalloc.start()
        try:
            _backward(record, d_out)
            peaks[d_out.dtype.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["float32"] <= peaks["float64"], peaks
