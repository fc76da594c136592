#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zoned_grid --seed 0 --seconds 40 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer metrics of traced reps and writes their spans to
``perfbench/out/<workload>.spans.tsv``.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The simulator is imported from ``src/`` of the same checkout, never from
an installed copy: without it the benchmark exits with a non-zero status.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_checkout() -> None:
    """Put this checkout's ``src`` first on the path and verify the import."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no simulator sources under {SRC}")
    # One process, flat kernel, no forked solver pool.
    os.environ["REPRO_PARALLEL"] = "0"
    sys.path[:0] = [SRC, ROOT]
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_checkout()

    from perfbench.harness import (
        END_TO_END, OUT_DIR, PER_LAYER, measure,
    )
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    spans_out = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_out = os.path.join(OUT_DIR, f"{args.workload}.spans.tsv")
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), spans_out=spans_out)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"# {args.workload} seed={args.seed} "
          f"untraced run_s={[round(t, 4) for t in result.run_times]} "
          f"attempted={result.attempted} failed={result.failed} "
          f"failed_frac={result.failed / result.attempted!r}")
    if not args.trace:
        print(f"# host slowdown against the reference speed = "
              f"{result.slowdown!r} (end-to-end times are scaled by it)")
    for name, value in result.metrics.items():
        print(f"#   {name} = {value!r} {units[name]}")
    for problem in result.problems:
        print(f"# CHECK FAILED: {problem}")
    print(result.as_json(units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
