"""Record the per-operation output digests the benchmark compares against.

``python3 perfbench/pin.py --seeds 0-15 4801 [--workload NAME ...]`` runs
one untimed pass of each workload per seed, refuses to pin a pass whose
own checks fail, and merges the digests into ``perfbench/pins.json``.
Re-pin only when a change is meant to move simulated observables, and
say so in the change.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(items):
    seeds = []
    for item in items:
        low, _, high = item.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="seeds or inclusive ranges, e.g. 0-15 4801")
    parser.add_argument("--workload", nargs="*", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cases

    pins = cases.load_pins()
    names = args.workload or list(cases.WORKLOADS)
    workdir = os.path.join(ROOT, ".perfbench_work", f"pin-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in names:
            workload = cases.WORKLOADS[name]
            for seed in parse_seeds(args.seeds):
                prepared = workload.prepare(seed, workdir)
                outcomes, _ = cases.run_pass(workload, seed, workdir)
                _, failures = workload.check(seed, outcomes, prepared)
                if failures:
                    for label, message in failures:
                        print(f"FAILED {name} seed {seed} {label}: {message}")
                    return 1
                pins.setdefault(name, {})[str(seed)] = workload.digests(
                    outcomes
                )
                print(f"pinned {name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(cases.PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
