"""Benchmark of qdecoy's verify, simulate and optimize commands.

    python3 qdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
A workload runs in processes of its own (`workload.py`), one at a time.
With --trace 0 the run is split over PROCESSES fresh processes, each with
its own set-up and S / PROCESSES seconds of timed commands, and the
end-to-end metrics pool them. With --trace 1 one traced process runs for S
seconds and the per-layer metrics are reported. The last line of standard
output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
A run in which any operation failed prints correct: false, no metrics, and
exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workload import OUT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: processes per untraced run. The same command runs up to 30 % faster or
#: slower in one fresh process than in another, steadily within each, so a run
#: pools several; each also gives one sample of set-up time.
PROCESSES = 3
#: BLAS threads in every workload process; one, so that small matrices do not
#: pay for thread hand-off and timings do not depend on the second core
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: a run must end within this many seconds
DEADLINE_S = 170.0


def _workload_process(args: argparse.Namespace, seconds: float, extra: list[str], deadline: float) -> tuple[int, dict]:
    """Run one workload process; return (monotonic ns at its start, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), *extra]
    env = {**os.environ, **BLAS_ENV}
    start_ns = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"qdbench: {args.workload} process did not finish in time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"qdbench: {args.workload} process exited with code {proc.returncode}")
    return start_ns, json.loads(lines[-1])


def _end_to_end(workload: str, parts: list[tuple[int, dict]]) -> dict:
    """Pool the processes of an untraced run into the end-to-end metrics."""
    items = WORKLOADS[workload].items
    setups = [(res["ready_ns"] - start_ns) / 1e9 for start_ns, res in parts]
    timed = [op for _, res in parts for op in res["ops"][1:]]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "items_per_s": {"value": len(timed) * items / sum(res["elapsed_s"] for _, res in parts), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(t for _, t, _ in timed) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": max(res["peak_rss_mb"] for _, res in parts), "unit": "MB"},
    }


def result(workload: str, trace: bool, parts: list[tuple[int, dict]]) -> dict:
    """The run's result object. An operation whose command raised, exited
    non-zero or printed output that failed a check is a failed operation, and
    a run with one is not correct and reports no metrics."""
    attempted = sum(res["attempted"] for _, res in parts)
    failed = sum(res["failed"] for _, res in parts)
    if failed:
        metrics = {}
    elif trace:
        metrics = parts[0][1]["metrics"]
    else:
        metrics = _end_to_end(workload, parts)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "qdecoy", "cli.py")):
        print(f"qdbench: no qdecoy source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if args.trace:
        parts = [_workload_process(args, args.seconds, ["--trace"], deadline)]
    else:
        parts = [_workload_process(args, args.seconds / PROCESSES, [], deadline) for _ in range(PROCESSES)]
    os.makedirs(OUT, exist_ok=True)
    kind = "trace" if args.trace else "ops"
    with open(os.path.join(OUT, f"{kind}-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({"columns": ["op_seed", "seconds", "ok"], "processes": [res["ops"] for _, res in parts]}, fh)

    verdict = result(args.workload, bool(args.trace), parts)
    print(json.dumps(verdict))
    return 0 if verdict["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
