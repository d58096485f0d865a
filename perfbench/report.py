"""Run the benchmark and print every metric by name, with its unit.

    python3 perfbench/report.py                      # all workloads, seed 0, both runs
    python3 perfbench/report.py --seeds 10 --trace 0 --workloads train_long

Each run is a separate ``run.py`` process, so each workload starts fresh.
With several seeds the table shows, per metric, the median over the
seeds and the spread: the distance between the first and third
quartiles as a share of the median. End-to-end rows also show the bound
from BENCHMARK.json; a spread above a third of its bound is flagged.
Exits non-zero if a run fails or any output check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=1, help="seeds 0..N-1")
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1),
                        default=[0, 1])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    ok = True
    print(f"{'workload':14s} {'metric':36s} {'unit':6s} {'median':>12s} "
          f"{'spread':>7s} {'bound':>6s}  failed/attempted")
    for workload in args.workloads:
        for trace in args.trace:
            results = [run_once(workload, seed, trace) for seed in range(args.seeds)]
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            ok &= failed == 0 and all(r["correct"] for r in results)
            for metric, first in results[0]["metrics"].items():
                values = [r["metrics"][metric]["value"] for r in results]
                median = statistics.median(values)
                spread = ""
                if len(values) >= 4 and median:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    share = (q3 - q1) / abs(median)
                    flag = "!" if metric in bounds and share > bounds[metric] / 3 else ""
                    spread = f"{share:.3f}{flag}"
                bound = f"{bounds[metric]:.2f}" if metric in bounds else ""
                print(f"{workload:14s} {metric:36s} {first['unit']:6s} "
                      f"{median:12.6g} {spread:>7s} {bound:>6s}  {failed}/{attempted}",
                      flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
