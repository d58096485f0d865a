"""The four benchmark workloads, their inputs, operations and output checks.

Each workload is driven as a closed loop: one caller issues op i + 1
only after op i has returned. Inputs come from the benchmark seed alone;
a few distinct inputs are cycled so that one lucky draw cannot set the
figures. References are computed once per distinct input, outside the
timed phase and outside ``setup_s``, with the bounds of the library's
acceptance gate.

Only public ``cosattn`` names are used. They are looked up on the package
at call time, so the traced run can wrap them.
"""

from __future__ import annotations

import math

import numpy as np

import cosattn

N_LONG = 4096
D = 64
DISTINCT = 3
# Share of query rows set to zero on the long workloads, which drives
# their feature rows, and so their denominators, onto the eps floor.
ZERO_ROW_FRAC = 1 / 8
TOY_STEPS = 25
TOY_BATCH = 32
TOY_SEQ = 32  # train_copy_task's default copy_len of 16, doubled
LOSS_WINDOW = 5

FORWARD_BOUND = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-10}
GRAD_BOUND = 1e-4
STREAM_BOUND = 1e-12
FD_STEP = 1e-5
# Central differences are meaningless within FD_STEP of a relu kink, so,
# as in the acceptance gate, the direction skips coordinates this close
# to zero.
KINK_EXCLUSION = 1e-4


def rel_error(candidate, oracle) -> float:
    """max |a - b| over the oracle's largest magnitude; NaN stays NaN."""
    diff = np.max(np.abs(np.asarray(candidate, dtype=np.float64)
                         - np.asarray(oracle, dtype=np.float64)))
    scale = max(float(np.max(np.abs(oracle))), np.finfo(np.float64).tiny)
    return float(diff) / scale


def _qkv(rng, n: int, d: int, dtype, zero_rows: bool):
    Q, K, V = (rng.standard_normal((n, d)) for _ in range(3))
    if zero_rows:
        Q[rng.choice(n, int(n * ZERO_ROW_FRAC), replace=False)] = 0.0
    return tuple(a.astype(dtype) for a in (Q, K, V))


class Workload:
    """One closed-loop workload: ops 0, 1, 2, ... cycle DISTINCT inputs."""

    name = ""
    tail_q = 0.90        # op_ms_tail's percentile; a run must hold enough ops
    tokens_per_op = 1
    steps_per_op = 0
    transient = None     # analytic working set of one call, in scalars

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def references(self) -> None:
        """Compute what check() compares against; untimed."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError


class PrefillLong(Workload):
    """One causal float32 forward over a long sequence."""

    name = "prefill_long"

    def __init__(self, seed: int, n: int = N_LONG, d: int = D):
        super().__init__(seed)
        self.inputs = [_qkv(self.rng, n, d, np.float32, zero_rows=True)
                       for _ in range(DISTINCT)]
        self.config = cosattn.AttentionConfig.cosformer(m=n, causal=True)
        self.tokens_per_op = n
        self.transient = cosattn.transient_scalars("cosformer", n, d)
        self.refs = []

    def references(self) -> None:
        self.refs = [cosattn.kernel_attention_quadratic(*qkv, self.config)
                     for qkv in self.inputs]

    def op(self, i: int):
        return cosattn.cosformer_attention(*self.inputs[i % DISTINCT],
                                           self.config)

    def check(self, i: int, out) -> bool:
        ref = self.refs[i % DISTINCT]
        return (out.shape == ref.shape and out.dtype == ref.dtype
                and rel_error(out, ref) <= FORWARD_BOUND[ref.dtype])


class TrainLong(Workload):
    """The long causal forward plus its analytic backward, in float64.

    Gradients are checked through a directional derivative: the dot of
    the analytic gradient with a seeded direction against a central
    difference of sum(d_out * forward) along that direction. The
    direction is zero next to relu kinks and on the zeroed query rows,
    whose floored denominator makes the forward discontinuous there.
    """

    name = "train_long"

    def __init__(self, seed: int, n: int = N_LONG, d: int = D):
        super().__init__(seed)
        self.inputs = []
        self.d_outs = []
        self.directions = []
        for _ in range(DISTINCT):
            qkv = _qkv(self.rng, n, d, np.float64, zero_rows=True)
            direction = [self.rng.standard_normal((n, d)) for _ in range(3)]
            for x, dx in zip(qkv[:2], direction[:2]):
                dx[np.abs(x) <= KINK_EXCLUSION] = 0.0
            self.inputs.append(qkv)
            self.d_outs.append(self.rng.standard_normal((n, d)))
            self.directions.append(direction)
        self.config = cosattn.AttentionConfig.cosformer(m=2 * n, causal=True)
        self.tokens_per_op = n
        self.transient = cosattn.transient_scalars("cosformer", n, d)
        self.refs = []

    def _loss(self, k: int, t: float) -> float:
        moved = [x + t * dx for x, dx in zip(self.inputs[k], self.directions[k])]
        out = cosattn.cosformer_attention(*moved, self.config)
        return float(np.sum(self.d_outs[k] * out))

    def references(self) -> None:
        self.refs = []
        for k, qkv in enumerate(self.inputs):
            oracle = cosattn.kernel_attention_quadratic(*qkv, self.config)
            slope = (self._loss(k, FD_STEP) - self._loss(k, -FD_STEP)) / (2 * FD_STEP)
            self.refs.append((oracle, slope))

    def op(self, i: int):
        qkv = self.inputs[i % DISTINCT]
        out = cosattn.cosformer_attention(*qkv, self.config)
        grads = cosattn.cosformer_backward(*qkv, self.config,
                                           self.d_outs[i % DISTINCT])
        return out, grads

    def check(self, i: int, out) -> bool:
        k = i % DISTINCT
        forward, grads = out
        oracle, slope = self.refs[k]
        if not rel_error(forward, oracle) <= FORWARD_BOUND[oracle.dtype]:
            return False
        dot = sum(float(np.sum(g * dx)) for g, dx in zip(grads, self.directions[k]))
        scale = max(abs(dot), abs(slope), 1e-12)
        return abs(dot - slope) / scale <= GRAD_BOUND


class TrainToy(Workload):
    """Short copy-task training jobs at the trainer's defaults.

    train_copy_task's loss curve holds the loss of one freshly drawn
    batch per step, so its first and final entries differ by batch noise
    as well as by learning: at 25 steps the final loss is above the first
    on 1 of 400 job seeds. The check therefore compares the means of the
    first and the last LOSS_WINDOW entries, which fell on all 400.
    """

    name = "train_toy"
    tail_q = 0.80

    def __init__(self, seed: int, steps: int = TOY_STEPS):
        super().__init__(seed)
        self.seeds = [int(s) for s in self.rng.integers(0, 2**31, DISTINCT)]
        self.steps = steps
        self.config = cosattn.AttentionConfig.cosformer(m=TOY_SEQ, causal=True)
        self.tokens_per_op = steps * TOY_BATCH * TOY_SEQ
        self.steps_per_op = steps

    def op(self, i: int):
        return cosattn.train_copy_task(self.config, self.seeds[i % DISTINCT],
                                       max_steps=self.steps,
                                       eval_every=self.steps)

    def check(self, i: int, out) -> bool:
        losses = [loss for _, loss in out.loss_curve]
        return (out.steps == self.steps and len(losses) == self.steps
                and all(math.isfinite(x) for x in losses)
                and sum(losses[-LOSS_WINDOW:]) < sum(losses[:LOSS_WINDOW]))


class DecodeStream(Workload):
    """Token-by-token causal decode over full-horizon sequences.

    Each op is one causal_state_step; the op at a sequence's first token
    also starts the sequence's fresh state, as a streaming caller would.
    """

    name = "decode_stream"
    tail_q = 0.99

    def __init__(self, seed: int, n: int = N_LONG, d: int = D):
        super().__init__(seed)
        self.n, self.d = n, d
        self.inputs = [_qkv(self.rng, n, d, np.float64, zero_rows=False)
                       for _ in range(DISTINCT)]
        self.config = cosattn.AttentionConfig.cosformer(m=n, causal=True)
        self.refs = []
        self.state = None

    def references(self) -> None:
        self.refs = []
        for qkv in self.inputs:
            batch = cosattn.cosformer_attention(*qkv, self.config)
            self.refs.append((batch, float(np.max(np.abs(batch)))))

    def op(self, i: int):
        t = i % self.n
        Q, K, V = self.inputs[(i // self.n) % DISTINCT]
        if t == 0:
            self.state = cosattn.causal_state_init(self.d, self.d)
        self.state, row = cosattn.causal_state_step(
            self.state, Q[t], K[t], V[t], self.config.reweight.m,
            eps=self.config.eps)
        return row

    def check(self, i: int, out) -> bool:
        t = i % self.n
        batch, scale = self.refs[(i // self.n) % DISTINCT]
        return (out.shape == batch[t].shape
                and np.max(np.abs(out - batch[t])) <= STREAM_BOUND * scale)


WORKLOADS = {w.name: w for w in (PrefillLong, TrainLong, TrainToy, DecodeStream)}
