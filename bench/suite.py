"""Run several workloads on several seeds and summarise them.

    python3 bench/suite.py                          # every workload, seeds 1 and 11
    python3 bench/suite.py --workloads convolve --seeds 1-10
    python3 bench/suite.py --trace 1 --seeds 1

Each run is one `bench/run.py` invocation with BENCHMARK.json's
run_seconds.  The suite prints every run's metrics by name and unit, its
error rate, and, when a workload ran on two or more seeds, each metric's
median and interquartile distance (from `statistics.quantiles(values,
n=4)`) as a share of the median, next to the bound from BENCHMARK.json.
Raw results go to bench/out/suite.jsonl, one JSON object per run, with the
git SHA (when there is one), the Python version, nproc and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1,11"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    env = {"sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count()}

    (BENCH / "out").mkdir(exist_ok=True)
    status = 0
    with open(BENCH / "out" / "suite.jsonl", "a") as log:
        for workload in args.workloads.split(","):
            values: dict = {}
            for seed in args.seeds:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                     "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=200)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    status = 1
                    continue
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace, **env, **doc}) + "\n")
                log.flush()
                print(f"== {workload} seed {seed}: correct {doc['correct']} "
                      f"attempted {doc['attempted']} failed {doc['failed']} "
                      f"error_rate {doc['failed'] / doc['attempted']:.6g} ratio", flush=True)
                if not doc["correct"]:
                    status = 1
                for name, m in doc["metrics"].items():
                    print(f"   {name} {m['value']:.6g} {m['unit']}")
                    values.setdefault(name, []).append(m["value"])
            if len(args.seeds) < 2 or args.trace:
                continue
            print(f"== {workload}: spread over {len(args.seeds)} seeds")
            for name, vals in values.items():
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                print(f"   {name:18s} median {med:<10.6g} spread {(q3 - q1) / med:.4f} "
                      f"bound {bounds.get(name)}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
