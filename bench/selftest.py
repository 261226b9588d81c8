"""Self-test of the benchmark itself (not of the library).

    python3 bench/selftest.py

Checks, on short runs:
- BENCHMARK.json names exactly the metrics run.py prints, in both modes
  (`--seconds 1`, on the workloads whose shortest list is quick);
- two traced workload processes of the same seed give identical `calls`
  and `distinct` for every traced function, on every workload;
- the generator is prefix-stable and never imports the library;
- every translation-class box covers all classes up to its length cap;
- without the library sources the benchmark exits non-zero and prints no
  result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
QUICK = ("convolve", "satake_sweep", "oracle_check")  # `run.py --seconds 1` takes seconds
SHORT_OPS = {"convolve": 300, "satake_sweep": 40, "hecke_mixed": 20, "oracle_check": 200}


def check(ok: bool, what: str):
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}", flush=True)


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result(proc) -> dict:
    if proc.returncode != 0:
        sys.exit(f"selftest FAILED: benchmark exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    names = [w["name"] for w in spec["workloads"]]

    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import gen
    import run
    import tracer
    check(tuple(names) == gen.WORKLOADS, "BENCHMARK.json lists the generator's workloads")
    check(per_layer == tracer.metric_names() + ["trace.overhead_pct"],
          "BENCHMARK.json per_layer matches the traced functions")

    for w in QUICK:
        args = ["--workload", w, "--seed", "7", "--seconds", "1"]
        doc = result(bench(*args, "--trace", "0"))
        check(doc["correct"] and sorted(doc["metrics"]) == sorted(end_to_end),
              f"{w}: untraced run is correct and prints every end-to-end metric")
        doc = result(bench(*args, "--trace", "1"))
        check(doc["correct"] and sorted(doc["metrics"]) == sorted(per_layer),
              f"{w}: traced run is correct and prints every per-layer metric")

    for w in names:
        traced = [run._child(argparse.Namespace(workload=w, seed=7), "trace", SHORT_OPS[w],
                             time.monotonic()) for _ in range(2)]
        counts = [{k: v for k, v in t["layers"].items() if k.endswith((".calls", ".distinct"))}
                  for t in traced]
        check(all(t["failed"] == 0 for t in traced) and counts[0] == counts[1],
              f"{w}: two traced processes are correct and give identical counts")

    probe = ("import sys, gen; gen.convolve(3, 50); gen.satake_sweep(3); "
             "gen.hecke_mixed(3, 40); gen.oracle_check(3, 50); "
             "sys.exit(any(m.startswith('modp_hecke') for m in sys.modules))")
    check(subprocess.run([sys.executable, "-c", probe], cwd=BENCH).returncode == 0,
          "the generator does not import the library")
    for make in (gen.convolve, gen.hecke_mixed, gen.oracle_check):
        short, long = make(5, 100), make(5, 300)
        check(long["ops"][:100] == short["ops"] and long["pools"] == short["pools"],
              f"gen.{make.__name__} is prefix-stable")

    from modp_hecke import affine_weyl as aw
    from modp_hecke import satake as sat
    from modp_hecke.root_datum import preset
    import random
    boxes = [(s, cap, r) for s, cap, r, _ in gen.SATAKE_SPECIAL] + list(gen.MIXED_GROUPS)
    for spec_name, cap, radius in boxes:
        d = preset(spec_name)
        f = aw.hyperspecial(d)
        texts = gen.translation_strings(random.Random(0), spec_name, radius)
        got = {aw.double_coset_rep(aw.parse_element(d, t), f) for t in texts}
        want = {aw.double_coset_rep(aw.translation(d, z), f)
                for z in sat.enumerate_antidominant(d, cap)}
        check(want <= got, f"box of radius {radius} covers {spec_name} classes up to {cap}")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "convolve", "--seed", "1", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the library sources the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
