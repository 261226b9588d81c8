"""Benchmark for modp-hecke: one workload, seeded, in fresh processes.

    python3 bench/run.py --workload convolve --seed 1 --seconds 10 --trace 0

Each workload runs in a fresh single-threaded Python process (a closed loop
with one client) that imports the library from `src/` next to this
directory, with PYTHONHASHSEED pinned.  With `--trace 0` the benchmark
prints the end-to-end metrics; with `--trace 1` it runs the same operation
list once untraced and once traced, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402  (needs the path above; gen does not import the library)

SETUP_REPEATS = 11      # setup_s is the median over this many fresh processes
MIN_OPS = 100           # so that latency_p90_ms has at least 10 samples above it
BUDGET_S = 170          # every child together, so the run ends within 180 s

# Operations per second of each workload at the baseline commit; the op list
# holds about --seconds of work there, and the same list on every commit.
OPS_PER_SECOND = {"convolve": 1200, "satake_sweep": 22, "hecke_mixed": 4.0,
                  "oracle_check": 190}


class BenchError(RuntimeError):
    pass


def _child(args, mode: str, n_ops: int, started: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--ops", str(n_ops), "--mode", mode]
    remaining = BUDGET_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    env["BENCH_T0"] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{mode} process exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _time_metrics(run: dict, key: str) -> dict:
    """Throughput and latency percentiles from the per-operation times."""
    ms = sorted(x * 1e3 for x in run[key])
    return {"throughput_ops_s": (run["completed"] / sum(run[key]), "1/s"),
            "latency_p50_ms": (statistics.median(ms), "ms"),
            "latency_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms")}


def _untraced(args, n_ops: int, started: float):
    setups = [_child(args, "setup", n_ops, started) for _ in range(SETUP_REPEATS - 1)]
    run = _child(args, "run", n_ops, started)
    setups.append(run)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = _time_metrics(run, "scaled_s")
    metrics["setup_s"] = (statistics.median(s["setup_scaled_s"] for s in setups), "s")
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    wall = {f"wall.{k}": v for k, v in _time_metrics(run, "latencies_s").items()}
    wall["wall.setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
    return run, metrics, wall


def _traced(args, n_ops: int, started: float):
    plain = _child(args, "run", n_ops, started)
    run = _child(args, "trace", n_ops, started)
    overhead = sum(run["scaled_s"]) / sum(plain["scaled_s"]) - 1
    metrics = {}
    for name, value in run["layers"].items():
        metrics[name] = (value, "s" if name.endswith("_s") else "count")
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "ops": run["attempted"],
                   "span_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                   "spans": run["spans"], "layers": run["layers"]}, fh)
    return run, metrics, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not (SRC / "modp_hecke" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC}", file=sys.stderr)
        return 2

    n_ops = max(MIN_OPS, round(OPS_PER_SECOND[args.workload] * args.seconds))
    started = time.monotonic()
    try:
        if args.trace:
            run, metrics, wall = _traced(args, n_ops, started)
        else:
            run, metrics, wall = _untraced(args, n_ops, started)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = run["attempted"], run["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    print(f"samples {attempted}  failed {failed}  error_rate {failed / attempted:.6g} ratio  "
          f"digest {run['digest']}")
    if failed:
        print(f"failures {run['failure_reasons']}  first failed ops {run['failed_ops']}")
    for name, (value, unit) in {**metrics, **wall}.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
