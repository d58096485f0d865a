"""Run one benchmark workload in this process and print its result.

run.py starts this script in a fresh process with the BLAS thread count
already set, so no workload inherits another's threads, caches or heap.
The last line of output is the result JSON; the line before it is the
record of what ran where.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SLICE_S = 0.25
# NumPy is imported inside functions only: its import is part of the
# cosattn import that setup_s times.


def timed_phase(workload, seconds: float, tracer=None) -> dict:
    """Closed loop for `seconds`; each op is timed alone, checked after.

    With a tracer, traced and untraced stretches of about SLICE_S
    alternate, so both kinds of op see the same machine conditions; the
    latencies of traced ops are returned under "traced".
    """
    latencies = {"untraced": [], "traced": []}
    lat = latencies["untraced"]
    failed = 0
    i = 0
    cpu0, wall0 = time.process_time(), time.perf_counter()
    deadline = wall0 + seconds
    next_switch = wall0 + SLICE_S
    while True:
        if tracer is not None:
            tracer.op = i
            if time.perf_counter() >= next_switch:
                kind = "traced" if lat is latencies["untraced"] else "untraced"
                (tracer.install if kind == "traced" else tracer.uninstall)()
                lat = latencies[kind]
                next_switch = time.perf_counter() + SLICE_S
        start = time.perf_counter()
        out = workload.op(i)
        stop = time.perf_counter()
        lat.append(stop - start)
        if not workload.check(i, out):
            failed += 1
        i += 1
        if stop >= deadline:
            break
    if tracer is not None:
        tracer.uninstall()
    wall = time.perf_counter() - wall0
    return {**latencies, "failed": failed,
            "cpu_per_wall": (time.process_time() - cpu0) / wall}


def peak_mib(workload) -> float:
    """tracemalloc peak of op 0 in its own untimed pass."""
    tracemalloc.start()
    try:
        workload.op(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _quantile(values, q: float) -> float:
    import numpy as np
    return float(np.quantile(values, q))


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Set-up: the cosattn import, input generation and one warm-up op.
    start = time.perf_counter()
    import cosattn  # noqa: F401  (timed: this is the library's import cost)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    workload.op(0)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload.references()
    peak = peak_mib(workload)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **machine_record(),
              "peak_mib": peak, "transient_scalars": workload.transient}
    if args.trace == 0:
        run = timed_phase(workload, args.seconds)
        lat = run["untraced"]
        busy = sum(lat)
        metrics = {
            "setup_s": (setup_s, "s"),
            "tokens_per_s": (workload.tokens_per_op * len(lat) / busy, "1/s"),
            "op_ms_p50": (1e3 * _quantile(lat, 0.5), "ms"),
            "op_ms_tail": (1e3 * _quantile(lat, workload.tail_q), "ms"),
            "peak_mib": (peak, "MiB"),
        }
        attempted, failed = len(lat), run["failed"]
        record["tail_quantile"] = workload.tail_q
    else:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        run = timed_phase(workload, args.seconds, tracer)
        ops = len(run["traced"])
        metrics = layer_metrics(tracer, ops, workload.steps_per_op)
        metrics["proc.cpu_per_wall"] = (run["cpu_per_wall"], "ratio")
        metrics["trace_overhead_frac"] = (
            _quantile(run["traced"], 0.5) / _quantile(run["untraced"], 0.5) - 1.0,
            "ratio")
        attempted = len(run["untraced"]) + ops
        failed = run["failed"]
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed})
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["absent"] = tracer.absent

    record["attempted"] = attempted
    record["failed_frac"] = failed / attempted
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
