"""Analytic backwards against central finite differences."""

import contextlib

import numpy as np
import pytest

from cosattn import core, grad, linear
from cosattn.core import (
    ELU_PLUS_ONE,
    IDENTITY,
    RELU,
    AttentionConfig,
    kernel_attention_quadratic,
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
    _BACKWARD_BLOCK,
    _BLOCK,
    _PANEL,
    _forward,
    attend,
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


def _directional_errors(feature_map, cosine, n, lead=(), defect=None, m=None,
                        n_k=None):
    """Relative error of each analytic gradient along a random direction
    against a central difference of the loss, by gradient name. The call
    is causal, or full with n_k keys if n_k is given. A defect, a context
    manager, is entered around the analytic backward alone: the
    finite-difference loss stays whole. A cosine loss runs at horizon m,
    2 max(n, n_k) by default."""
    rng = np.random.default_rng(46)
    causal = n_k is None
    n_k = n if causal else n_k
    Q, K, V, g = (rng.standard_normal(lead + (rows, 4))
                  for rows in (n, n_k, n_k, n))
    if cosine:
        config = AttentionConfig.cosformer(m=2 * max(n, n_k) if m is None else m,
                                           causal=causal, feature_map=feature_map)
    else:
        config = AttentionConfig.linear(feature_map, causal=causal)
    def loss(Q_, K_, V_):
        return float((attend(Q_, K_, V_, config) * g).sum())
    record = _forward(Q, K, V, config)[1]
    with contextlib.nullcontext() if defect is None else defect:
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


# Two backward chunks, the last one partial, so the prefix and suffix
# walks carry across a chunk edge in each direction; five chunks past two
# panel edges; one row past a panel; and whole panels.
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


# A full call walks Q's chunks and K's apart: more queries than keys, and
# more keys than queries, within one chunk and with one side's chunks
# past every chunk of the other.
@pytest.mark.parametrize("n, n_k", [(5, 3), (3, 5),
                                    (2 * _BACKWARD_BLOCK + 17, _BACKWARD_BLOCK - 3),
                                    (_BACKWARD_BLOCK - 3, 2 * _BACKWARD_BLOCK + 17)],
                         ids=["q-more", "k-more", "q-more-chunks", "k-more-chunks"])
@pytest.mark.parametrize("cosine", [False, True], ids=["plain", "cosine"])
def test_full_backward_matches_directional_fd(cosine, n, n_k):
    errors = _directional_errors(RELU, cosine, n, n_k=n_k)
    assert max(errors.values()) <= 1e-6, errors


@pytest.mark.parametrize("n", [3, _BACKWARD_BLOCK + 3], ids=["one-chunk", "chunks"])
@pytest.mark.parametrize("cosine", [False, True], ids=["plain", "cosine"])
def test_an_overflow_the_mask_drops_changes_no_gradient(cosine, n):
    # Only q_{n-3} . k_{n-1}, a pair the causal mask drops, overflows: no
    # other key has a first feature, and the one query that sees k_{n-1}
    # has none either, so k_{n-1}'s first entry enters no kept term. The
    # gradients are those of a call where it is 1, not 0 * inf = NaN.
    rng = np.random.default_rng(58)
    Q, K, V, g = (np.abs(rng.standard_normal((n, 4))) for _ in range(4))
    K[:, 0] = Q[-1, 0] = 0.0
    Q[-3, 0] = K[-1, 0] = 1e160
    config = (AttentionConfig.cosformer(m=2 * n, causal=True) if cosine
              else AttentionConfig.linear(RELU, causal=True))
    with np.errstate(over="ignore"):  # the dropped product
        big = attend_backward(Q, K, V, config, g)
    K[-1, 0] = 1.0
    for name, a, b in zip(("dQ", "dK", "dV"), big, attend_backward(Q, K, V, config, g)):
        assert np.array_equal(a, b), name


@contextlib.contextmanager
def _rotation_offset_ignored():
    """The backward's cos/sin scaling with every chunk scaled from
    position 1."""
    scaled = grad._position_scaled
    grad._position_scaled = lambda F, table, offset=0: scaled(F, table)
    try:
        yield
    finally:
        grad._position_scaled = scaled


# Every defect the backward's walks pass through, at lengths that reach
# it: the carry defects past two panel edges, the chunk weight within one
# chunk and across several, and a scaling that ignores its row offset.
@pytest.mark.parametrize("defect, n", [
    pytest.param(lambda: _injected("dropped_carry"), 2 * _PANEL + 17,
                 id="dropped_carry"),
    pytest.param(lambda: _injected("panel_carry_reset"), 2 * _PANEL + 17,
                 id="panel_carry_reset"),
    pytest.param(lambda: _injected("unweighted_chunk"), 17,
                 id="unweighted_chunk-one-chunk"),
    pytest.param(lambda: _injected("unweighted_chunk"), 3 * _BACKWARD_BLOCK + 5,
                 id="unweighted_chunk-chunks"),
    pytest.param(_rotation_offset_ignored, 2 * _PANEL + 17, id="rotation_offset"),
])
def test_directional_fd_catches_each_backward_defect(defect, n):
    errors = _directional_errors(RELU, True, n, defect=defect())
    assert max(errors.values()) > 1e-6, errors


# A causal cosine walk of one chunk maps unscaled rows and takes the
# re-weight matrix in its masked products.
ONE_CHUNK_LENGTHS = (2, 17, _BLOCK, _BACKWARD_BLOCK)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "stacked"])
@pytest.mark.parametrize("feature_map", [RELU, ELU_PLUS_ONE], ids=lambda fm: fm.name)
@pytest.mark.parametrize("n", ONE_CHUNK_LENGTHS)
def test_causal_cosine_backward_of_one_chunk_matches_directional_fd(
        n, feature_map, lead):
    errors = _directional_errors(feature_map, True, n, lead)
    assert max(errors.values()) <= 1e-6, errors


def test_one_chunk_causal_cosine_call_never_decomposes(monkeypatch):
    # A causal cosine walk with no carry never splits its rows by cos and
    # sin: the forward's walk up to _BLOCK rows, the backward's up to
    # _BACKWARD_BLOCK.
    calls = []
    for module, name in ((linear, "decompose"), (grad, "_position_scaled"),
                         (grad, "position_factors")):
        def counting(*args, f=getattr(module, name), name=name, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    rng = np.random.default_rng(50)
    backward = {"_position_scaled", "position_factors"}
    for n, split in ((_BLOCK, set()), (_BLOCK + 1, {"decompose"}),
                     (_BACKWARD_BLOCK, {"decompose"}),
                     (_BACKWARD_BLOCK + 1, {"decompose"} | backward)):
        Q, K, V, g = (rng.standard_normal((2, n, 4)) for _ in range(4))
        config = AttentionConfig.cosformer(m=n, causal=True)
        cosformer_attention(Q, K, V, config)
        cosformer_backward(Q, K, V, config, g)
        assert set(calls) == split, n
        calls.clear()


def test_directional_fd_catches_a_backward_that_drops_its_chunk_weight():
    # Past one forward chunk the forward decomposes and takes no weight,
    # so the defect leaves it as it is; the backward weights every chunk,
    # so the check above must see the defect there too.
    n = _BLOCK + 1
    rng = np.random.default_rng(51)
    Q, K, V = (rng.standard_normal((n, 4)) for _ in range(3))
    config = AttentionConfig.cosformer(m=2 * n, causal=True)
    shipped = attend(Q, K, V, config)
    with _injected("unweighted_chunk"):
        assert np.array_equal(attend(Q, K, V, config), shipped)
    errors = _directional_errors(RELU, True, n, defect=_injected("unweighted_chunk"))
    assert max(errors.values()) > 1e-6, errors


def test_backward_of_a_causal_call_runs_no_forward(monkeypatch):
    # attend_backward reads the validated inputs and walks the chunks
    # once first to last and once last to first; it never scans the
    # forward again.
    def no_scan(*args):
        raise AssertionError("the backward ran the forward's scan")
    monkeypatch.setattr(linear, "_kernel_scan", no_scan)
    walks = []
    for name in ("_prefix_walk", "_suffix_walk"):
        def counting(*args, f=getattr(grad, name), name=name):
            walks.append(name)
            return f(*args)
        monkeypatch.setattr(grad, name, counting)
    n = 2 * _PANEL + 17
    rng = np.random.default_rng(56)
    Q, K, V, g = (rng.standard_normal((n, 4)) for _ in range(4))
    attend_backward(Q, K, V, AttentionConfig.cosformer(m=n, causal=True), g)
    assert walks == ["_prefix_walk", "_suffix_walk"]


@pytest.mark.parametrize("m", [20.0, 20.5, np.float64(24)],
                         ids=["float", "fraction", "np.float64"])
def test_a_real_horizon_runs_both_calls(m):
    # A horizon may be any real >= n; the weight of a walk's chunk is
    # sized from its whole part.
    rng = np.random.default_rng(57)
    Q, K, V = (rng.standard_normal((20, 8)) for _ in range(3))
    config = AttentionConfig.cosformer(m=m, causal=True)
    oracle = kernel_attention_quadratic(Q, K, V, config)
    assert _rel(attend(Q, K, V, config), oracle) <= 1e-12
    attend_backward(Q, K, V, config, np.ones((20, 8)))
    errors = _directional_errors(RELU, True, 20, m=m)
    assert max(errors.values()) <= 1e-6, errors


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
    # The backward recomputes everything in float64 from the widened
    # inputs, so float32 inputs get exactly the gradients of the same
    # values in float64, whatever dtype their forward scanned in.
    rng = np.random.default_rng(49)
    for n, d_k, d_v in ((1, 1, 1), (6, 1, 3), (11, 4, 2),
                        (2 * _BLOCK + 17, 8, 5), (2 * _PANEL + 17, 4, 3)):
        Q, K, V = (rng.standard_normal((n, d)).astype(np.float32)
                   for d in (d_k, d_k, d_v))
        g = rng.standard_normal((n, d_v))
        if cosine:
            config = AttentionConfig.cosformer(m=2 * n, causal=causal,
                                               feature_map=feature_map)
        else:
            config = AttentionConfig.linear(feature_map, causal=causal)
        got = attend_backward(Q, K, V, config, g)
        want = attend_backward(*(X.astype(np.float64) for X in (Q, K, V)),
                               config, g)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), (n, d_k)


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
    # A full call also takes fewer keys than queries, past a chunk K
    # does not reach.
    for n in (1, _BLOCK + 1, 2 * _BLOCK + 17):
        for causal, n_k in ((False, n + 3), (True, n), (False, n // 2 + 1)):
            for dtype in (np.float32, np.float64):
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
