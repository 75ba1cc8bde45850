"""Repository benchmark: time and attribute the simulator's user-facing jobs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fs_figures --seed 0 --seconds 12 \\
        --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it once untraced and once with every layer
wrapped in spans, and prints the per-layer metrics.  Either way the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import sys

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cases
    import measure

    workload = cases.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(cases.WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure.run_workload(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
