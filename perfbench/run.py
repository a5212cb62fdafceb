"""Benchmark of the airfd simulator.

Run from the root of the repository:

    python3 perfbench/run.py --workload {desk,field_plan,fleet} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the run repeats the workload for at least S seconds and
prints every end-to-end metric; with ``--trace 1`` it runs a fixed amount of
the workload once untraced and once traced and prints every per-layer metric.
Both check the outputs. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it holds
the environment, the gates and information that is not gated. The exit code
is 0 only when every gate passed. ``--tiny`` shrinks every workload for the
harness's smoke test. README.md in this directory documents the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.dont_write_bytecode = True

# workloads.NAMES, spelled out because importing workloads loads numpy,
# which must wait until the BLAS thread count is set.
WORKLOADS = ("desk", "field_plan", "fleet")
ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    # Child processes of a run: set-up probes and the BLAS-threads reading.
    parser.add_argument(
        "--role", default="bench", choices=("bench", "setup", "blas"),
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--blas-threads", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count once, when numpy loads.
    threads = str(args.blas_threads)
    os.environ["OPENBLAS_NUM_THREADS"] = threads
    os.environ["OMP_NUM_THREADS"] = threads
    if not (SOURCE / "airfd" / "__init__.py").is_file():
        print(f"perfbench: no airfd source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import measure

    if args.role == "setup":
        print(repr(measure.first_round_clock(args.workload, args.seed, args.tiny)))
        return 0
    if args.role == "blas":
        print(json.dumps(measure.blas_probe(args.seed, args.tiny)))
        return 0

    if args.trace:
        outcome = measure.traced_run(args.workload, args.seed, args.tiny)
        table = measure.PER_LAYER
    else:
        outcome = measure.timed_run(args.workload, args.seed, args.seconds, args.tiny)
        table = measure.END_TO_END
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": measure.environment(),
        "gates": outcome.gates,
        **outcome.info,
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, (unit, _) in table.items()
        },
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
