"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 qdbench/steadiness.py --seeds 1-10 --seconds 15 [--label P1]

Runs `run.py --trace 0` once per (workload, seed) for every workload, one run
at a time and seed by seed, and prints per workload and metric the median,
the quartiles (`statistics.quantiles`, n=4) and the spread
(Q3 - Q1) / median, plus the operations attempted and failed and the wall
time of a run. Every run's
result goes to qdbench/out/steadiness-LABEL.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from workload import OUT, WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--label", default="latest")
    args = parser.parse_args(argv)

    # seed-major order, so that slow drift of the host reaches every workload alike
    runs = {wl: [] for wl in WORKLOADS}
    for seed in _seeds(args.seeds):
        for wl in runs:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            wall_s = time.monotonic() - t0
            runs[wl].append({"seed": seed, "wall_s": wall_s, **json.loads(out.strip().splitlines()[-1])})
            print(f"{wl} seed {seed}: {json.dumps(runs[wl][-1])}", file=sys.stderr, flush=True)

    summary = {}
    for wl, results in runs.items():
        names = results[0]["metrics"]
        summary[wl] = {name: summarise([r["metrics"][name]["value"] for r in results]) for name in names}
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        walls = [r["wall_s"] for r in results]
        print(f"{wl}: {len(results)} runs, failed {failed}/{attempted}, run wall time median {statistics.median(walls):.1f} s max {max(walls):.1f} s")
        for name, s in summary[wl].items():
            print(f"  {name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"steadiness-{args.label}.json"), "w") as fh:
        json.dump({"seconds": args.seconds, "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
