#!/usr/bin/env python3
"""Re-record ``perfbench/pins.json``: makespan and date digest per workload
for each pinned seed, at the full size.

Run from the root of a checkout after a change that is meant to move
simulated dates::

    python3 perfbench/record_pins.py
"""

import json
import sys

from run import _import_checkout


def main() -> int:
    _import_checkout()
    from perfbench.harness import PINS_PATH, run_rep
    from perfbench.workloads import PINNED_SEEDS, WORKLOADS, make_inputs
    pins = {"full": {}}
    for name in WORKLOADS:
        pins["full"][name] = {}
        for seed in PINNED_SEEDS:
            outcome = run_rep(name, make_inputs(name, seed)).outcome
            if outcome.problems:
                sys.exit(f"{name} seed {seed}: {outcome.problems}")
            pins["full"][name][str(seed)] = {
                "makespan": outcome.makespan.hex(), "digest": outcome.digest}
            print(name, seed, pins["full"][name][str(seed)], flush=True)
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
