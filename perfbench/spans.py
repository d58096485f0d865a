"""In-memory span tracer that wraps module attributes from outside.

The traced run replaces names that one ``cosattn`` module imports from
another (``cosattn.linear.decompose`` and the like) with a wrapper that
records a span around each call, then puts the originals back. Nothing
under ``src/`` is edited, so the untraced run measures the library as
shipped. A name that no longer exists is recorded as absent, and the
metrics that rest only on absent names are left out rather than reported
as zero, so a refactor that removes a layer boundary shows up as a
missing metric, not as an implausible speed-up.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import time
from array import array

# (module, attribute, span name). One span name may cover several
# attributes: each module that imports a helper holds its own reference.
WRAPPED = (
    ("cosattn.linear", "require_matrix", "core.require_matrix"),
    ("cosattn.grad", "require_matrix", "core.require_matrix"),
    ("cosattn.train", "require_matrix", "core.require_matrix"),
    ("cosattn.linear", "apply_feature_map", "core.apply_feature_map"),
    ("cosattn.grad", "apply_feature_map", "core.apply_feature_map"),
    ("cosattn.linear", "decompose", "reweight.decompose"),
    ("cosattn.reweight", "position_factors", "reweight.position_factors"),
    ("cosattn.grad", "position_factors", "reweight.position_factors"),
    ("cosattn.train", "cosformer_attention", "linear.cosformer_attention"),
    ("cosattn.train", "cosformer_backward", "grad.cosformer_backward"),
    # The public entry points the workloads call.
    ("cosattn", "cosformer_attention", "linear.cosformer_attention"),
    ("cosattn", "cosformer_backward", "grad.cosformer_backward"),
    ("cosattn", "causal_state_step", "linear.causal_state_step"),
    ("cosattn", "train_copy_task", "train.train_copy_task"),
)

# The trainer's attention calls: these spans directly under a
# train.train_copy_task span, made through these attributes.
ATTENTION_SPANS = ("linear.cosformer_attention", "grad.cosformer_backward")
TRAIN_ATTENTION = ("cosattn.train.cosformer_attention",
                   "cosattn.train.cosformer_backward")

SPAN_FIELDS = ("name", "start_s", "end_s", "parent", "op")


class Tracer:
    """Spans in flat columns: name id, start, end, parent index, op id.

    Columns of machine numbers hold a run's hundreds of thousands of
    spans compactly and out of the garbage collector's reach. The wrapped
    attributes are resolved once; install() and uninstall() then only
    swap them, so a run can alternate traced and untraced stretches.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._targets: list[tuple] = []
        for mod_name, attr, span in WRAPPED:
            try:
                module = importlib.import_module(mod_name)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{mod_name}.{attr}")
            else:
                self._targets.append((module, attr, original,
                                      self._wrap(original, span)))

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for module, attr, _, traced in self._targets:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._targets:
            setattr(module, attr, original)

    def spans(self):
        """(name, start, end, parent index, op id) per span, in call order."""
        names = self.names
        return zip((names[i] for i in self.name_id), self.start, self.end,
                   self.parent, self.op_id)

    def absent_spans(self) -> set[str]:
        """Span names none of whose wrapped attributes exist."""
        present = {span for mod, attr, span in WRAPPED
                   if f"{mod}.{attr}" not in self.absent}
        return {span for _, _, span in WRAPPED} - present

    def write(self, path, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({**header, "fields": SPAN_FIELDS, "absent": self.absent,
                       "spans": list(self.spans())}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, ops: int, steps_per_op: int) -> dict:
    """Per-op layer metrics, name -> (value, unit), from `ops` traced ops.

    Times are summed per op, so a layer called many times in one op
    reports its total. Self time is a span's duration minus that of its
    direct children.
    """
    names = [tracer.names[i] for i in tracer.name_id]
    total, self_s, calls = {}, {}, {}
    train_attention_s = 0.0
    train_attention_calls = 0
    step_us = []
    for name, start, end, parent, _ in tracer.spans():
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if name == "linear.causal_state_step":
            step_us.append(1e6 * (end - start))
        if parent >= 0:
            parent_name = names[parent]
            self_s[parent_name] -= end - start
            if parent_name == "train.train_copy_task" and name in ATTENTION_SPANS:
                train_attention_s += end - start
                train_attention_calls += 1

    def ms(table, name):
        return 1e3 * table.get(name, 0.0) / ops, "ms"

    def per_op(name):
        return calls.get(name, 0) / ops, "count"

    fwd_ms = ms(total, "linear.cosformer_attention")[0]
    bwd_ms = ms(total, "grad.cosformer_backward")[0]
    # metric -> (value, unit), and the span whose absence voids it.
    table = {
        "linear.cosformer_attention.ms": (ms(total, "linear.cosformer_attention"),
                                          "linear.cosformer_attention"),
        "linear.cosformer_attention.self_ms": (ms(self_s, "linear.cosformer_attention"),
                                               "linear.cosformer_attention"),
        "linear.cosformer_attention.calls": (per_op("linear.cosformer_attention"),
                                             "linear.cosformer_attention"),
        "reweight.decompose.ms": (ms(total, "reweight.decompose"), "reweight.decompose"),
        "reweight.position_factors.ms": (ms(total, "reweight.position_factors"),
                                         "reweight.position_factors"),
        "core.apply_feature_map.ms": (ms(total, "core.apply_feature_map"),
                                      "core.apply_feature_map"),
        "core.require_matrix.calls": (per_op("core.require_matrix"), "core.require_matrix"),
        "core.require_matrix.ms": (ms(total, "core.require_matrix"), "core.require_matrix"),
        "grad.cosformer_backward.ms": ((bwd_ms, "ms"), "grad.cosformer_backward"),
        "grad.cosformer_backward.self_ms": (ms(self_s, "grad.cosformer_backward"),
                                            "grad.cosformer_backward"),
        "grad.cosformer_backward.calls": (per_op("grad.cosformer_backward"),
                                          "grad.cosformer_backward"),
        # Backward over forward on the same input; 0 where no op runs both.
        "grad.bwd_over_fwd": ((bwd_ms / fwd_ms if bwd_ms and fwd_ms else 0.0, "ratio"),
                              "grad.cosformer_backward"),
        "train.train_copy_task.ms": (ms(total, "train.train_copy_task"),
                                     "train.train_copy_task"),
        "train.attention.ms": ((1e3 * train_attention_s / ops, "ms"), TRAIN_ATTENTION),
        "train.self_ms": (ms(self_s, "train.train_copy_task"), "train.train_copy_task"),
        # Includes the forward calls of the job's held-out evaluation.
        "train.attention_calls_per_step": (
            (train_attention_calls / (ops * steps_per_op) if steps_per_op else 0.0,
             "count"), TRAIN_ATTENTION),
        "linear.causal_state_step.us_p50": (
            (statistics.median(step_us) if step_us else 0.0, "us"),
            "linear.causal_state_step"),
        "linear.causal_state_step.calls": (per_op("linear.causal_state_step"),
                                           "linear.causal_state_step"),
    }
    gone_spans = tracer.absent_spans()
    gone_attrs = set(tracer.absent)

    def absent(dep):
        if isinstance(dep, tuple):
            return all(attr in gone_attrs for attr in dep)
        return dep in gone_spans

    return {name: value for name, (value, dep) in table.items() if not absent(dep)}
