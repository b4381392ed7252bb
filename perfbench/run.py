"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload embedded-zipf --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (untraced run); ``--trace 1``
prints the per-layer ledger (traced run).  The result line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is the host gauge: Method M's mean milliseconds per query
on the run's reference arm, fixed work whose time shows how fast the host
was during the run.
Any answer that differs from plain Method M, or a count metric that fails
to repeat exactly, makes ``correct`` false.  Without the program's sources
next to this directory the script exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import declared_metrics, require_program

WORKLOADS = ("embedded-zipf", "embedded-fresh", "served-sharded")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()

    if args.workload == "served-sharded":
        import served as module
    else:
        import embedded as module
    outcome = module.run(args.workload, args.seed, args.seconds, bool(args.trace))

    expected = declared_metrics("per_layer" if args.trace else "end_to_end")
    metrics = outcome["metrics"]
    printed = {name: value["unit"] for name, value in metrics.items()}
    if printed != expected:
        print(f"perfbench: metrics {printed} differ from BENCHMARK.json's {expected}",
              file=sys.stderr)
        return 3
    for problem in outcome["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not args.trace:
        measured = {name: value["value"] for name, value in outcome["measured"].items()}
        print(f"perfbench: as measured, before dividing by the host slowdown: "
              f"{json.dumps(measured)}")
    print(f"perfbench: host gauge: Method M {outcome['gauge_ms']:.4f} ms/query, "
          f"host slowdown {outcome['slowdown']:.4f}")
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: metrics[name] for name in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
