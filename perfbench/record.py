#!/usr/bin/env python3
"""Record reference report fingerprints into perfbench/reference.json.

    python3 perfbench/record.py [--workload NAME] SEED...

Run from the root of a checkout.  Each fingerprint comes from the
libraries' own entry points (Campaign.run, or Federation.run with the
Sequential driver on one shard), never from the measured paths.  Only
re-record when a change is meant to alter simulated results, and say so
in the change.
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after the flag, so no __pycache__ lands in the tree)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append")
    parser.add_argument("seeds", nargs="+", type=int)
    args = parser.parse_args()
    run.build()
    path = os.path.join(run.HERE, "reference.json")
    with open(path) as f:
        reference = json.load(f)
    for workload in args.workload or run.WORKLOADS:
        table = reference["fingerprints"].setdefault(workload, {})
        for seed in args.seeds:
            table[str(seed)] = run.bench_exe("reference", workload, seed)["fingerprint"]
            run.log(f"{workload} {seed} {table[str(seed)]}")
            with open(path, "w") as f:
                json.dump(reference, f, indent=1, sort_keys=True)
                f.write("\n")


if __name__ == "__main__":
    main()
