#!/usr/bin/env python3
"""Re-pins the simulated outputs of metro and metro_opt.

    python3 perfbench/pin.py [--seeds 0-31]

Runs each city once per seed and writes its digest and counts to pins.json,
which every later metro run is checked against. Only a change that means to
alter the simulation's outputs re-pins, and it says so.
"""

import argparse
import json
import sys

sys.dont_write_bytecode = True
import metrics  # noqa: E402
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-31", help="inclusive range a-b")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    harness = run.build()
    path = run.HERE / "pins.json"
    pins = json.loads(path.read_text())
    for workload in ["metro", "metro_opt"]:
        for seed in range(lo, hi + 1):
            raw, err = run.run_harness(harness, workload, seed, 0.001, False, None)
            if err:
                run.fail("%s seed %d: %s" % (workload, seed, err), 1)
            # Determinism and accounting gates still apply to what gets pinned.
            fails = metrics.metro_gates(raw, {}, seed)
            if fails:
                run.fail("%s seed %d: %s" % (workload, seed, "; ".join(fails)), 1)
            pins[workload][str(seed)] = metrics.metro_outputs(raw["iterations"][0])
            print(workload, seed, pins[workload][str(seed)]["digest"], flush=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
