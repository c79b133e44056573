#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload metro|metro_opt|live_small|live_bulk|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run builds the harness and the
libraries it links (Release) into .bench_build/ (or $CARGO_TARGET_DIR).

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload twice,
untraced then traced, each for half of --seconds, and prints the per-layer
metrics plus the tracing overhead. Every run checks its outputs (see
README.md, "Correctness gates"); a run that fails one prints
"correct": false and exits 1. The last line of stdout is always one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import shlex
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
import metrics  # noqa: E402  (after the bytecode switch)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["metro", "metro_opt", "live_small", "live_bulk"]
RUN_BUDGET_S = 165  # measuring must end within 180 s of the build


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures once and builds incrementally; returns the harness path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no program sources at %s (run from a checkout of the repository)"
             % (ROOT / "src"))
    out = build_dir() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_harness",
                  "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT) != 0:
                f.flush()
                tail = log.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed; full log in %s" % log, 3)
    return out / "perfbench_harness"


def cache_value(cache, key):
    for line in cache.splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def stamp(workload, seed, seconds, trace):
    """Where and from what a result came. Results are comparable only when
    COMPARABLE keys agree (compare.py enforces it)."""
    cache = (build_dir() / "perfbench" / "CMakeCache.txt").read_text()
    compiler = cache_value(cache, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        rev = ""
    return {
        "build_type": cache_value(cache, "CMAKE_BUILD_TYPE"),
        "compiler": version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "revision": rev or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
        "command": " ".join(shlex.quote(a) for a in [sys.executable] + sys.argv),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


COMPARABLE = ["build_type", "compiler", "nproc", "machine", "workload",
              "seconds", "trace"]


def source_digest():
    """sha256 over the program and benchmark sources, the revision stand-in
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ["src", "perfbench"]:
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_harness(harness, workload, seed, seconds, traced, trace_out,
                timeout=RUN_BUDGET_S):
    work = build_dir() / "work"
    cmd = [str(harness), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--work-dir", str(work)]
    if traced:
        cmd += ["--trace", "--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return None, "harness did not finish within %.0f s" % timeout
    if proc.returncode != 0 or not proc.stdout.strip():
        return None, "harness exited %d: %s" % (proc.returncode, proc.stderr.strip())
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def load_pins():
    return json.loads((HERE / "pins.json").read_text())


def evaluate(workload, seed, raw, pins):
    """(end_to_end, per_layer, table rows, gate failures, attempted, failed),
    or a string saying why no metric could be derived."""
    try:
        if workload.startswith("metro"):
            return (metrics.metro_end_to_end(raw), metrics.metro_per_layer(raw),
                    metrics.metro_table(raw), metrics.metro_gates(raw, pins, seed),
                    *metrics.metro_counts(raw))
        return (metrics.live_end_to_end(raw), metrics.live_per_layer(raw),
                metrics.live_table(raw), metrics.live_gates(raw),
                *metrics.live_counts(raw))
    except (ValueError, ZeroDivisionError) as e:
        gates = (metrics.metro_gates(raw, pins, seed) if workload.startswith("metro")
                 else metrics.live_gates(raw))
        return "no metrics from this run (%s); gates: %s" % (e, gates or "passed")


def fmt(v):
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


def run_workload(harness, workload, seed, seconds, trace, pins):
    """Runs one workload; prints its table; returns the result object."""
    deadline = time.monotonic() + RUN_BUDGET_S
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    trace_out = results / ("%s-seed%d.trace.json" % (workload, seed))
    plan = [(False, seconds)] if not trace else [(False, seconds / 2),
                                                 (True, seconds / 2)]
    evaluated = []
    for traced, secs in plan:
        raw, err = run_harness(harness, workload, seed, secs, traced, trace_out,
                               deadline - time.monotonic())
        ev = evaluate(workload, seed, raw, pins) if raw else err
        if isinstance(ev, str):
            print("perfbench: %s: %s" % (workload, ev), file=sys.stderr)
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        evaluated.append(ev)

    e2e, layers, table, _, _, _ = evaluated[-1]
    fails = [f for ev in evaluated for f in ev[3]]
    attempted = sum(ev[4] for ev in evaluated)
    failed = sum(ev[5] for ev in evaluated)
    if trace:
        base = evaluated[0][0]["run_s"]
        layers["trace.overhead_share"] = (e2e["run_s"] - base) / base
        chosen = metrics.PER_LAYER
        values = layers
    else:
        chosen = metrics.END_TO_END
        values = e2e

    st = stamp(workload, seed, seconds, trace)
    print("== perfbench %s  seed %d  %g s  trace %d" % (workload, seed, seconds, trace))
    print("stamp: " + "  ".join("%s=%s" % (k, st[k]) for k in
                                ["build_type", "compiler", "nproc", "revision",
                                 "source_sha256"]))
    print("       command=%s" % st["command"])
    print("%-38s %14s  %-6s %s" % ("metric", "value", "unit", "note"))
    for name, unit, better in chosen:
        print("%-38s %14s  %-6s %s better" % (name, fmt(values[name]), unit, better))
    for name, value, unit, note in table:
        print("%-38s %14s  %-6s %s" % (name, fmt(value), unit, note))
    if trace:
        print("%-38s %14s  %-6s %s" % ("trace.file", "", "", trace_out))
    print("gates: " + ("all passed" if not fails else "FAILED"))
    for f in fails:
        print("  FAILED: " + f)

    result = {
        "correct": not fails,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in chosen},
    }
    record = dict(result, stamp=st, gate_failures=fails,
                  table=[[n, v, u, note] for n, v, u, note in table])
    (results / ("%s-seed%d-trace%d.json" % (workload, seed, trace))).write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    t0 = time.monotonic()
    harness = build()
    print("perfbench: harness ready in %.1f s" % (time.monotonic() - t0),
          file=sys.stderr)
    pins = load_pins()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: run_workload(harness, w, args.seed, args.seconds, args.trace, pins)
               for w in names}
    if args.workload == "all":
        ok = all(r["correct"] for r in results.values())
        final = {"correct": ok,
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (w, m): v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
