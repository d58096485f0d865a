"""Analytic backwards against central finite differences."""

import contextlib
import functools

import numpy as np
import pytest

from cosattn import core, grad, linear
from cosattn.core import (
    ELU_PLUS_ONE,
    IDENTITY,
    RELU,
    AttentionConfig,
    leaky_relu,
)
from cosattn.equivalence import _injected
from cosattn.errors import ConfigurationError, DimensionError
from cosattn.grad import (
    _backward,
    attend_backward,
    cosformer_backward,
    feature_map_derivative,
    finite_diff_grad,
    linear_attention_backward,
    softmax_attention_backward,
)
from cosattn.linear import (
    _BLOCK,
    _PANEL,
    _forward,
    cosformer_attention,
    linear_attention,
)
from cosattn.core import softmax_attention


def _nudge(a, lim=1e-3):
    """Push tiny coordinates away from zero so h=1e-5 differences never
    straddle a relu kink or park a denominator on its floor."""
    return np.where(np.abs(a) < lim, a + np.sign(a + (a == 0.0)) * lim, a)


def _rel(analytic, fd):
    scale = max(np.max(np.abs(fd)), np.max(np.abs(analytic)), 1e-6)
    return np.max(np.abs(analytic - fd)) / scale


def _check_grads(f, args, grads, bound=1e-4):
    for idx, analytic in enumerate(grads):
        def slice_f(X, idx=idx):
            swapped = [X if k == idx else a for k, a in enumerate(args)]
            return f(*swapped)
        fd = finite_diff_grad(slice_f, args[idx])
        assert _rel(analytic, fd) <= bound, (idx, _rel(analytic, fd))


def test_feature_map_derivative_values():
    x = np.array([[-1.0, 0.0, 2.0]])
    np.testing.assert_array_equal(feature_map_derivative(x, IDENTITY), 1.0)
    np.testing.assert_array_equal(
        feature_map_derivative(x, RELU), [[0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(
        feature_map_derivative(x, leaky_relu(0.3)), [[0.3, 0.3, 1.0]])
    np.testing.assert_allclose(
        feature_map_derivative(x, ELU_PLUS_ONE), [[np.exp(-1.0), 1.0, 1.0]])


def test_linear_backward_matches_fd():
    rng = np.random.default_rng(41)
    for feature_map in (IDENTITY, RELU, leaky_relu(0.25), ELU_PLUS_ONE):
        for causal in (False, True):
            n = int(rng.integers(2, 12))
            Q = _nudge(rng.standard_normal((n, 4)))
            K = _nudge(rng.standard_normal((n, 4)))
            V = _nudge(rng.standard_normal((n, 3)))
            g = rng.standard_normal((n, 3))
            grads = linear_attention_backward(Q, K, V, g,
                                              feature_map=feature_map,
                                              causal=causal)
            def f(Q_, K_, V_, fm=feature_map, c=causal):
                return float((linear_attention(Q_, K_, V_, feature_map=fm,
                                               causal=c) * g).sum())
            _check_grads(f, (Q, K, V), grads)


def test_cosformer_backward_matches_fd():
    rng = np.random.default_rng(42)
    for feature_map in (RELU, ELU_PLUS_ONE):
        for causal in (False, True):
            n = int(rng.integers(2, 12))
            config = AttentionConfig.cosformer(m=2 * n, causal=causal,
                                               feature_map=feature_map)
            Q = _nudge(rng.standard_normal((n, 4)))
            K = _nudge(rng.standard_normal((n, 4)))
            V = _nudge(rng.standard_normal((n, 3)))
            g = rng.standard_normal((n, 3))
            grads = cosformer_backward(Q, K, V, config, g)
            def f(Q_, K_, V_, cfg=config):
                return float((cosformer_attention(Q_, K_, V_, cfg) * g).sum())
            _check_grads(f, (Q, K, V), grads)


def _directional_errors(feature_map, cosine, n, lead=(), mutation=None):
    """Relative error of each analytic gradient along a random direction
    against a central difference of the causal loss, by gradient name.
    A mutation is swapped in around the analytic backward alone: the
    forward it differentiates and the finite-difference loss stay whole."""
    rng = np.random.default_rng(46)
    Q, K, V, g = (rng.standard_normal(lead + (n, 4)) for _ in range(4))
    if cosine:
        config = AttentionConfig.cosformer(m=2 * n, causal=True,
                                           feature_map=feature_map)
        def loss(Q_, K_, V_):
            return float((cosformer_attention(Q_, K_, V_, config) * g).sum())
    else:
        config = AttentionConfig.linear(feature_map, causal=True)
        def loss(Q_, K_, V_):
            return float((linear_attention(Q_, K_, V_, feature_map=feature_map,
                                           causal=True) * g).sum())
    record = _forward(Q, K, V, config)[1]
    with contextlib.nullcontext() if mutation is None else _injected(mutation):
        grads = _backward(record, g)
    h = 1e-5
    errors = {}
    for idx, name in enumerate(("dQ", "dK", "dV")):
        args = [Q, K, V]
        direction = rng.standard_normal(args[idx].shape)
        if name != "dV":
            # A central difference across a relu kink measures nothing.
            direction[np.abs(args[idx]) < 1e-3] = 0.0
        moved = [a + h * direction if k == idx else a for k, a in enumerate(args)]
        plus = loss(*moved)
        moved[idx] = args[idx] - h * direction
        slope = (plus - loss(*moved)) / (2.0 * h)
        dot = float(np.sum(grads[idx] * direction))
        errors[name] = abs(dot - slope) / max(abs(slope), 1e-6)
    return errors


# Three chunks, the last one partial, so the prefix and suffix scans carry
# state across two chunk boundaries in each direction; three panels, so
# the suffix scans also walk panels last to first; and the two edges of
# the last panel, whose scaled pair the dK walk takes from the dQ walk:
# one row, and a whole panel.
ACROSS_LENGTHS = ((2 * _BLOCK + 17, ""), (2 * _PANEL + 17, "-panels"),
                  (_PANEL + 1, "-one-row-panel"), (2 * _PANEL, "-whole-panels"))


@pytest.mark.parametrize("feature_map, cosine, n", [
    pytest.param(fm, cosine, n, id=f"{fm.name}-{kind}{suffix}")
    for n, suffix in ACROSS_LENGTHS
    for cosine, kind in ((False, "plain"), (True, "cosine"))
    for fm in (RELU, ELU_PLUS_ONE)])
def test_causal_backward_across_chunks_matches_directional_fd(feature_map,
                                                              cosine, n):
    errors = _directional_errors(feature_map, cosine, n)
    assert max(errors.values()) <= 1e-6, errors


def test_directional_fd_catches_a_backward_scan_that_drops_its_carry():
    # The backward's own scans, each chunk scanned with no carry from the
    # chunks before it: the check above must see it past a panel.
    errors = _directional_errors(RELU, True, 2 * _PANEL + 17,
                                 mutation="dropped_carry")
    assert max(errors.values()) > 1e-6, errors


# A causal cosine call of one chunk scans unscaled rows and takes the
# re-weight matrix in its one masked product, in every walk.
ONE_CHUNK_LENGTHS = (2, 17, _BLOCK)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "stacked"])
@pytest.mark.parametrize("feature_map", [RELU, ELU_PLUS_ONE], ids=lambda fm: fm.name)
@pytest.mark.parametrize("n", ONE_CHUNK_LENGTHS)
def test_causal_cosine_backward_of_one_chunk_matches_directional_fd(
        n, feature_map, lead):
    errors = _directional_errors(feature_map, True, n, lead)
    assert max(errors.values()) <= 1e-6, errors


def test_one_chunk_causal_cosine_call_never_decomposes(monkeypatch):
    calls = []
    for module, name in ((linear, "decompose"), (grad, "_position_scaled"),
                         (grad, "position_factors")):
        def counting(*args, f=getattr(module, name), name=name, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    rng = np.random.default_rng(50)
    for n, decomposes in ((_BLOCK, False), (_BLOCK + 1, True)):
        Q, K, V, g = (rng.standard_normal((2, n, 4)) for _ in range(4))
        cosformer_backward(Q, K, V, AttentionConfig.cosformer(m=n, causal=True), g)
        assert set(calls) == ({"decompose", "_position_scaled", "position_factors"}
                              if decomposes else set()), n
        calls.clear()


def test_directional_fd_catches_a_backward_that_drops_its_chunk_weight():
    # Past one chunk no walk takes the matrix, so the defect changes
    # nothing there; within one, the check above must see it.
    n = _BLOCK + 1
    rng = np.random.default_rng(51)
    Q, K, V, g = (rng.standard_normal((n, 4)) for _ in range(4))
    config = AttentionConfig.cosformer(m=2 * n, causal=True)
    shipped = cosformer_backward(Q, K, V, config, g)
    with _injected("unweighted_chunk"):
        for a, b in zip(cosformer_backward(Q, K, V, config, g), shipped):
            assert np.array_equal(a, b)
    for n in (17, _BLOCK):
        errors = _directional_errors(RELU, True, n, mutation="unweighted_chunk")
        assert max(errors.values()) > 1e-6, (n, errors)


def _first_ignored(scaled, F, table, offset=0):
    """Every panel scaled from position 1."""
    return scaled(F, table)


def test_directional_fd_catches_a_backward_that_scales_panels_from_one(
        monkeypatch):
    # Within one panel the defect changes nothing, so a check that never
    # crosses a panel boundary cannot see it; past one, the check above
    # must.
    n = _PANEL
    rng = np.random.default_rng(48)
    Q, K, V, g = (rng.standard_normal((n, 4)) for _ in range(4))
    config = AttentionConfig.cosformer(m=2 * n, causal=True)
    shipped = cosformer_backward(Q, K, V, config, g)
    monkeypatch.setattr(grad, "_position_scaled",
                        functools.partial(_first_ignored, grad._position_scaled))
    for a, b in zip(cosformer_backward(Q, K, V, config, g), shipped):
        assert np.array_equal(a, b)
    errors = _directional_errors(RELU, True, 2 * _PANEL + 17)
    assert max(errors.values()) > 1e-6, errors


def test_backward_checks_only_d_out(monkeypatch):
    # The forward checked Q, K, V and the horizon; the backward maps and
    # scales their feature rows unchecked, so one check runs: d_out's.
    n = 2 * _PANEL + 17
    rng = np.random.default_rng(47)
    Q, K, V, g = (rng.standard_normal((n, 4)) for _ in range(4))
    record = _forward(Q, K, V, AttentionConfig.cosformer(m=n, causal=True))[1]
    checked = []
    for module in (core, grad):
        def counting(x, name="matrix", stack=False, check=module.require_matrix):
            checked.append(name)
            return check(x, name, stack)
        monkeypatch.setattr(module, "require_matrix", counting)
    grad._backward(record, g)
    assert checked == ["d_out"]


@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
@pytest.mark.parametrize("cosine", [False, True], ids=["plain", "cosine"])
@pytest.mark.parametrize("feature_map", [RELU, ELU_PLUS_ONE],
                         ids=lambda fm: fm.name)
def test_float32_record_gradients_match_float64(feature_map, cosine, causal):
    # Float32 inputs run a float32 forward whose record the backward widens,
    # so only that forward's rounding separates the gradients from those of
    # the same values in float64. The error is scaled by the largest entry
    # of the whole float64 (dQ, dK, dV): at d_k = 1 dQ is identically zero,
    # and a per-matrix scale would divide rounding by nothing. The bound is
    # not universal: a query row with a single, small positive feature has
    # a zero dQ row whose float32 residue grows like 1 / phi(q).
    rng = np.random.default_rng(49)
    for n, d_k, d_v in ((1, 1, 1), (6, 1, 3), (11, 4, 2),
                        (2 * _BLOCK + 17, 8, 5)):
        Q, K, V = (rng.standard_normal((n, d)).astype(np.float32)
                   for d in (d_k, d_k, d_v))
        g = rng.standard_normal((n, d_v))
        if cosine:
            config = AttentionConfig.cosformer(m=2 * n, causal=causal,
                                               feature_map=feature_map)
        else:
            config = AttentionConfig.linear(feature_map, causal=causal)
        assert _forward(Q, K, V, config)[1]["den"].dtype == np.float32
        got = attend_backward(Q, K, V, config, g)
        want = attend_backward(*(X.astype(np.float64) for X in (Q, K, V)),
                               config, g)
        scale = max([float(np.max(np.abs(w))) for w in want]
                    + [np.finfo(np.float64).tiny])
        err = max(float(np.max(np.abs(a - b))) for a, b in zip(got, want))
        assert err / scale <= 1e-4, (n, d_k, err / scale)


STACK_BOUND = 1e-13


def _stack_config(variant, m, causal):
    if variant == "cosformer":
        return AttentionConfig.cosformer(m=m, causal=causal)
    if variant == "softmax":
        return AttentionConfig.softmax(causal=causal)
    feature_map = RELU if variant == "linear_relu" else ELU_PLUS_ONE
    return AttentionConfig.linear(feature_map, causal=causal)


@pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=str)
@pytest.mark.parametrize("variant", ["cosformer", "linear_relu",
                                     "linear_elu_plus_one", "softmax"])
def test_stacked_backward_matches_per_slice_calls(variant, lead):
    rng = np.random.default_rng(47)
    tiny = np.finfo(np.float64).tiny
    for n in (1, _BLOCK + 1, 2 * _BLOCK + 17):
        for causal in (False, True):
            for dtype in (np.float32, np.float64):
                n_k = n if causal else n + 3
                config = _stack_config(variant, max(n, n_k), causal)
                Q = rng.standard_normal(lead + (n, 4))
                Q[..., ::7, :] = -np.abs(Q[..., ::7, :])  # eps-floored rows
                Q = Q.astype(dtype)
                K = rng.standard_normal(lead + (n_k, 4)).astype(dtype)
                V = rng.standard_normal(lead + (n_k, 3)).astype(dtype)
                g = rng.standard_normal(lead + (n, 3))
                got = attend_backward(Q, K, V, config, g)
                # A wider d_out holding the same values changes nothing:
                # the gradients are computed and returned in float64.
                wide = attend_backward(Q, K, V, config, g.astype(np.longdouble))
                for name, grad, arg, w in zip(("dQ", "dK", "dV"), got,
                                              (Q, K, V), wide):
                    assert grad.shape == arg.shape, name
                    assert grad.dtype == np.float64, name
                    assert w.dtype == np.float64, name
                    assert np.array_equal(w, grad), name
                for idx in np.ndindex(*lead):
                    want = attend_backward(Q[idx], K[idx], V[idx], config,
                                           g[idx])
                    for name, a, b in zip(("dQ", "dK", "dV"), got, want):
                        scale = max(float(np.max(np.abs(b))), tiny)
                        err = float(np.max(np.abs(a[idx] - b))) / scale
                        assert err <= STACK_BOUND, (idx, name, err)


@pytest.mark.parametrize("variant", ["cosformer", "linear_relu", "softmax"])
def test_stacked_backward_shape_checks(variant):
    config = _stack_config(variant, 4, causal=True)
    X = np.ones((3, 4, 2))
    attend_backward(X, X, X, config, np.ones((3, 4, 2)))
    # A d_out that would broadcast against the output is still refused.
    for d_out in (np.ones((4, 2)), np.ones((1, 4, 2)), np.ones((2, 3, 4, 2)),
                  np.ones((3, 4, 1)), np.ones((3, 3, 2))):
        with pytest.raises(DimensionError):
            attend_backward(X, X, X, config, d_out)
    for Q, K, V in ((X, X, X[:2]), (X[None], X, X), (X, X[0], X[0])):
        with pytest.raises(DimensionError):
            attend_backward(Q, K, V, config, np.ones(Q.shape[:-1] + (2,)))


def test_softmax_backward_matches_fd():
    rng = np.random.default_rng(43)
    for causal in (False, True):
        n = int(rng.integers(2, 10))
        Q = rng.standard_normal((n, 3))
        K = rng.standard_normal((n, 3))
        V = rng.standard_normal((n, 2))
        g = rng.standard_normal((n, 2))
        grads = softmax_attention_backward(Q, K, V, g, causal=causal)
        def f(Q_, K_, V_, c=causal):
            return float((softmax_attention(Q_, K_, V_, causal=c) * g).sum())
        _check_grads(f, (Q, K, V), grads)


def test_floored_rows_have_zero_denominator_gradient():
    # an all-negative query row relu-maps to zero features; its output is
    # identically zero in a neighborhood, so all its gradients vanish
    Q = np.array([[-1.0, -1.0], [1.0, 0.5]])
    K = np.array([[0.5, 1.0], [1.0, 0.2]])
    V = np.array([[1.0, 2.0], [3.0, 4.0]])
    g = np.ones((2, 2))
    dQ, dK, dV = linear_attention_backward(Q, K, V, g, feature_map=RELU)
    np.testing.assert_array_equal(dQ[0], 0.0)


def test_backward_validation():
    Q = np.ones((2, 2))
    g_bad = np.ones((3, 2))
    with pytest.raises(DimensionError):
        linear_attention_backward(Q, Q, Q, g_bad)
    # a zero query row would divide 0 by 0 without the eps floor
    with pytest.raises(ConfigurationError):
        linear_attention_backward(np.array([[0.0, 0.0], [1.0, 1.0]]), Q, Q,
                                  np.ones((2, 2)), eps=0.0)
    with pytest.raises(ConfigurationError):
        linear_attention_backward(Q, Q, Q, np.ones((2, 2)), eps=np.inf)
    with pytest.raises(ConfigurationError):
        cosformer_backward(Q, Q, Q, AttentionConfig.linear(RELU), np.ones((2, 2)))
    with pytest.raises(ConfigurationError):
        cosformer_backward(Q, Q, Q, AttentionConfig.softmax(), np.ones((2, 2)))


@pytest.mark.parametrize("lead", [(), (2, 3)], ids=str)
@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
def test_backward_refuses_a_horizon_below_the_longest_sequence(causal, lead):
    # m = 4 < 9 rows; without the check the backward returns gradients of
    # a re-weight that has turned negative.
    n_q, n_k = (9, 9) if causal else (3, 9)
    rng = np.random.default_rng(7)
    Q = rng.standard_normal(lead + (n_q, 2))
    K = rng.standard_normal(lead + (n_k, 2))
    V = rng.standard_normal(lead + (n_k, 2))
    g = np.ones(lead + (n_q, 2))
    config = AttentionConfig.cosformer(m=4, causal=causal)
    for backward in (attend_backward, cosformer_backward):
        with pytest.raises(ConfigurationError):
            backward(Q, K, V, config, g)
    # m = max(n_q, n_k) is inside the horizon.
    attend_backward(Q, K, V, AttentionConfig.cosformer(m=9, causal=causal), g)


def test_finite_diff_grad_on_quadratic_form():
    # exact for a quadratic: f(x) = sum(x * x) has gradient 2x
    rng = np.random.default_rng(44)
    X = rng.standard_normal((3, 4))
    fd = finite_diff_grad(lambda A: float((A * A).sum()), X)
    np.testing.assert_allclose(fd, 2.0 * X, atol=1e-9)


@pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
def test_finite_diff_grad_refuses_a_bad_step(h):
    # inf passes a bare h > 0 check and would give all-NaN gradients
    with pytest.raises(ConfigurationError, match="h must"):
        finite_diff_grad(lambda A: float(A.sum()), np.ones((2, 2)), h=h)


def test_finite_diff_does_not_mutate_input():
    X = np.ones((2, 2))
    finite_diff_grad(lambda A: float(A.sum()), X)
    np.testing.assert_array_equal(X, 1.0)
