"""Command-line front end: check, bench, viz, train-toy. Exit codes: 0
success, 1 equivalence-suite failure, 2 usage or configuration error
(argparse's own included), 3 I/O or parse error."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import (
    BENCH_MODES,
    BENCH_VARIANTS,
    CSV_HEADER,
    run_benchmark,
    variant_config,
    write_benchmark_csv,
)
from .core import AttentionConfig, attention_weights_quadratic
from .equivalence import MUTATIONS, run_equivalence_suite
from .errors import ConfigurationError, DimensionError, MatrixParseError
from .matio import matrix_text, read_matrix, write_pgm
from .train import train_copy_task
from .viz import visualize_attention


def _cmd_check(args) -> int:
    report = run_equivalence_suite(
        args.seed, args.trials,
        precision=args.precision,
        mutation=args.mutation,
        jobs=args.jobs,
    )
    text = report.summary()
    print(text)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    records = run_benchmark(
        args.variants, args.lengths, args.d_model, args.repeats,
        mode=args.mode, seed=args.seed,
    )
    if args.out:
        write_benchmark_csv(records, args.out)
    else:
        print(CSV_HEADER)
        for record in records:
            print(record.csv_row())
    return 0


def _demo_matrices(seed: int):
    """A few cosine-reweighted attention matrices on seeded random inputs."""
    rng = np.random.default_rng(seed)
    config = AttentionConfig.cosformer(m=48)
    mats = []
    for _ in range(4):
        Q = rng.standard_normal((48, 16))
        K = rng.standard_normal((48, 16))
        mats.append(attention_weights_quadratic(Q, K, config))
    return mats


def _cmd_viz(args) -> int:
    if args.demo:
        matrices = _demo_matrices(args.seed)
    elif args.files:
        matrices = [read_matrix(path) for path in args.files]
    else:
        raise ConfigurationError("viz needs matrix files or --demo")
    cov = visualize_attention(matrices, args.threshold)
    if args.out:
        write_pgm(cov, args.out)
        print(f"wrote {cov.size}x{cov.size} coverage "
              f"(threshold {cov.threshold}, {cov.n_matrices} matrices) "
              f"to {args.out}")
    else:
        sys.stdout.write(matrix_text(cov.values))
    return 0


def _cmd_train_toy(args) -> int:
    config = variant_config(args.variant, m=32, causal=True)
    report = train_copy_task(config, args.seed, max_steps=args.steps)
    print(report.summary())
    if args.out:
        report.to_csv(args.out)
    return 0


def _add_common(sub, out_help: str) -> None:
    sub.add_argument("--seed", type=int, default=0,
                     help="rng seed (default 0)")
    sub.add_argument("--out", metavar="PATH", default=None, help=out_help)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosattn",
        description="Linear-attention kernels with cosine re-weighting: "
                    "equivalence checks, scaling benchmark, coverage "
                    "visualization, and a toy trainer.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser(
        "check", help="run the randomized equivalence suite")
    _add_common(check, "also write the report text to PATH")
    check.add_argument("--trials", type=int, default=200,
                       help="random trials per variant (default 200)")
    check.add_argument("--precision", choices=("standard", "wide"),
                       default="standard",
                       help="storage precision under test (default standard)")
    check.add_argument("--jobs", type=int, default=None,
                       help="run trials in N worker processes")
    check.add_argument("--mutation", choices=MUTATIONS, default=None,
                       help="inject a documented defect (the suite must fail)")
    check.set_defaults(func=_cmd_check)

    bench = subs.add_parser(
        "bench", help="time variants across sequence lengths")
    _add_common(bench, "write results CSV to PATH (default: stdout)")
    bench.add_argument("--variants", nargs="+", choices=BENCH_VARIANTS,
                       default=list(BENCH_VARIANTS),
                       help="variants to time (default: all)")
    bench.add_argument("--lengths", nargs="+", type=int,
                       default=[256, 512, 1024, 2048],
                       help="sequence lengths, strictly ascending")
    bench.add_argument("--d-model", type=int, default=64,
                       help="model width (default 64)")
    bench.add_argument("--repeats", type=int, default=5,
                       help="timed repeats per cell, >= 3 (default 5)")
    bench.add_argument("--mode", choices=BENCH_MODES, default="inference",
                       help="inference = forward only, train = forward+backward")
    bench.set_defaults(func=_cmd_bench)

    viz = subs.add_parser(
        "viz", help="coverage map of row-stochastic attention matrices")
    _add_common(viz, "write a PGM image to PATH (default: print values)")
    viz.add_argument("files", nargs="*", metavar="MATRIX",
                     help="matrix files (first line 'rows cols')")
    viz.add_argument("--threshold", type=float, default=0.9,
                     help="probability mass to cover per row (default 0.9)")
    viz.add_argument("--demo", action="store_true",
                     help="use seeded cosine-reweighted matrices as input")
    viz.set_defaults(func=_cmd_viz)

    train = subs.add_parser(
        "train-toy", help="train the single-block model on the copy task")
    _add_common(train, "write the loss curve CSV to PATH")
    train.add_argument("--variant", choices=BENCH_VARIANTS,
                       default="cosformer",
                       help="attention variant (default cosformer)")
    train.add_argument("--steps", type=int, default=2000,
                       help="step budget (default 2000)")
    train.set_defaults(func=_cmd_train_toy)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MatrixParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ConfigurationError, DimensionError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
