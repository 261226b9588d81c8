"""One workload in a fresh process: set up, run the timed loop, check.

Started by bench/run.py with PYTHONHASHSEED pinned and `src/` on the path;
not meant to be run by hand.  Prints one JSON document on stdout.

The clock for `setup_s` starts in the parent just before it starts this
interpreter (BENCH_T0, a CLOCK_MONOTONIC reading) and stops at the first
timed operation.  The loop runs every operation of the list; the parent's
time budget ends a run that is too slow.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
from collections import Counter


# Calibration: the CPU speed of a shared machine drifts by tens of percent
# within minutes, and that drift, not the library, dominated the spread of
# plain wall times between runs.  After every SLICE_S of operation time the
# child times a fixed piece of pure-Python work that never touches the
# library, and scales that slice's operation times by CAL_NOMINAL_S over the
# calibration time.  On a quiet machine the factor is close to 1.
#
# Set-up is calibrated differently: the calibration work above slowed down
# by up to 1.8x when the machine did, while set-up (mostly imports) slowed by
# about 1.4x.  The reference for set-up is the interpreter's own start in
# the same process: from the parent starting it to the first line of main(),
# which runs no library code.  Set-up is scaled by START_NOMINAL_S over that
# time.
SLICE_S = 0.03
CAL_NOMINAL_S = 0.0013
START_NOMINAL_S = 0.06


def _calibration_work():
    table = {}
    for i in range(1000):
        key = (i % 97, i % 13, i % 7)
        value = tuple(a * b for a, b in zip(key, (3, 5, 7)))
        table[key] = table.get(key, 0) + sum(value)
    return table


def calibration_factor() -> float:
    """CAL_NOMINAL_S over the best of three timings of the calibration work."""
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - began)
    return CAL_NOMINAL_S / best


def main() -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()
    t0 = float(os.environ["BENCH_T0"])

    import gen
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.ops)
    # Start the timed loop at the same point of the collector's cycle
    # whatever the set-up allocated, so that collections land on the same
    # operations for every seed.
    gc.collect()
    setup_s = time.monotonic() - t0
    setup = {"setup_s": setup_s, "setup_scaled_s": setup_s * START_NOMINAL_S / (started - t0)}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    results, raised, latencies, scaled = {}, {}, [], []
    clock = time.perf_counter
    busy = 0.0
    for i in range(len(wl.ops)):
        if tracer:
            tracer.begin_op(i)
        began = clock()
        try:
            results[i] = wl.run(i)
        except Exception as exc:  # a failing op is counted, and the run goes on
            raised[i] = type(exc).__name__
        latencies.append(clock() - began)
        if tracer:
            tracer.end_op()
        busy += latencies[-1]
        if busy >= SLICE_S or i == len(wl.ops) - 1:
            factor = calibration_factor()
            scaled += [x * factor for x in latencies[len(scaled):]]
            busy = 0.0
    if tracer:
        tracer.uninstall()

    attempted = len(latencies)
    failed = dict(raised)
    failed.update(wl.check(results))

    # digests.json holds, per workload and operation count, the digest of
    # every canonical result of the default seed.
    lines = [wl.canonical(i, results[i]) if i in results else f"raised:{raised[i]}"
             for i in range(attempted)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    if args.seed == gen.DEFAULT_SEED:
        with open(os.path.join(os.path.dirname(__file__), "digests.json")) as fh:
            expected = json.load(fh).get(args.workload, {}).get(str(attempted))
        if expected is not None and digest != expected:
            failed.update({i: "digest" for i in range(attempted)})

    doc = {
        **setup,
        "attempted": attempted,
        "completed": attempted - len(raised),
        "failed": len(failed),
        "failure_reasons": Counter(failed.values()),
        "failed_ops": sorted(failed)[:20],
        "digest": digest,
        "latencies_s": latencies,
        "scaled_s": scaled,
    }
    if tracer:
        doc["layers"] = tracer.metrics()
        doc["spans"] = tracer.spans
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
