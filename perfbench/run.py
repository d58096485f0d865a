"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the library is imported from
its ``src/`` directory. The workload runs in a fresh worker process with
the BLAS thread count set explicitly. With ``--trace 0`` the end-to-end
metrics are reported, and set-up is repeated in SETUP_RUNS fresh
processes in all, of which the median is reported as ``setup_s``. With
``--trace 1`` the per-layer metrics of a traced run are reported. The
last line of output is always the result JSON; the line before it
records the machine, the seed and the commit. Exits non-zero, printing
no result, if anything fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("prefill_long", "train_long", "train_toy", "decode_stream")
# One BLAS thread: on a 2-core machine a second one made decode_stream's
# small products about 1.5x slower and helped the long workloads little.
# Never above nproc.
BLAS_THREADS = 1
SETUP_RUNS = 5
DEADLINE_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list, env: dict, deadline: float) -> list:
    """Run worker.py to completion; return its stdout lines or raise."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description="cosattn benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")
    if not (ROOT / "src" / "cosattn" / "__init__.py").is_file():
        print(f"no cosattn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        lines = run_worker([*common, "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], env, deadline)
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        if args.trace == 0:
            samples = [result["metrics"]["setup_s"]["value"]]
            for _ in range(SETUP_RUNS - 1):
                out = run_worker([*common, "--setup-only"], env, deadline)
                samples.append(json.loads(out[-1])["setup_s"])
            result["metrics"]["setup_s"]["value"] = statistics.median(samples)
            record["setup_s_samples"] = samples
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
