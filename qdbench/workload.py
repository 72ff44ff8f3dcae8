"""One workload process: a warm-up command, a timed phase, then the checks.

    python3 qdbench/workload.py --workload NAME --seed N --seconds S [--trace]

`run.py` starts this process and reads the JSON object it prints last: the
duration and verdict of every command, the monotonic clock when the warm-up
ended and timing began, and the peak resident memory. Each operation is one
in-process call of `qdecoy.cli.main(argv)`, exactly what
`qdecoy verify|simulate|optimize ...` runs. Operations of a workload have
one size and differ only in their seed (see `op_seed`). Their output is kept
and checked after the timed phase, so checking costs no timed work.

--trace installs the spans of `tracing.py` and adds per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def op_seed(seed: int, i: int) -> int:
    """Seed of operation i (0 is the warm-up) in a run with benchmark seed `seed`."""
    return seed * 1_000_000 + i


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], list[str]]  # op seed -> qdecoy command line
    items: int  # units of work per command, for items_per_s
    check: Callable  # (checks module, Result, op seed) -> problems


def _verify(n: int, trials: int) -> Workload:
    return Workload(
        argv=lambda s: ["verify", "--n", str(n), "--trials", str(trials), "--seed", str(s)],
        items=trials,  # random attacks certified
        check=lambda c, res, s: c.check_verify(res, n, trials, s),
    )


def _simulate(n: int, shots: int) -> Workload:
    attack = "random(n={n},seed={s})".format
    return Workload(
        argv=lambda s: ["simulate", "--attack", attack(n=n, s=s), "--shots", str(shots), "--seed", str(s)],
        items=shots,
        check=lambda c, res, s: c.check_simulate(res, attack(n=n, s=s), shots, s),
    )


def _optimize(n: int, g: float, restarts: int) -> Workload:
    return Workload(
        argv=lambda s: ["optimize", "--n", str(n), "--g", repr(g), "--restarts", str(restarts), "--seed", str(s)],
        items=restarts,  # one SLSQP solve per restart
        check=lambda c, res, s: c.check_optimize(res, n, g),
    )


# Commands of ~0.4 to ~6 s on a 2-core machine. `certify-small` and `search`
# are not in BENCHMARK.json: their timings spread too widely from run to run
# to gate on (README).
WORKLOADS = {
    "certify-small": _verify(n=3, trials=2000),
    "certify-large": _verify(n=16, trials=20),
    "montecarlo": _simulate(n=16, shots=100_000),
    # mid-range g: near g = 1 a single restart can take 10x the SLSQP iterations
    "search": _optimize(n=4, g=0.625, restarts=4),
}


def _fail(msg: str) -> int:
    print(f"qdbench: {msg}", file=sys.stderr)
    return 2


def _run_op(cli, argv: list[str], tracer):
    """Run one command; return (seconds, exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    span = tracer.span(tracing.ROOT) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with span:
                rc = cli.main(argv)
        except Exception as exc:  # a command that raises is a failed operation
            err.write(f"{type(exc).__name__}: {exc}\n")
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail(f"--seed must be nonnegative, got {args.seed}")
    if not os.path.isfile(os.path.join(SRC, "qdecoy", "cli.py")):
        return _fail(f"no qdecoy source under {SRC}")

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import qdecoy.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        return _fail(f"imported qdecoy from {cli.__file__}, not from {SRC}")
    import checks

    wl = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    ops = []  # (op seed, seconds, rc, stdout, stderr)
    with tracing.installed(tracer) if tracer else contextlib.nullcontext():
        ops.append((op_seed(args.seed, 0), *_run_op(cli, wl.argv(op_seed(args.seed, 0)), tracer)))
        ready_ns = time.monotonic_ns()
        if tracer:
            tracer.reset()
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            s = op_seed(args.seed, len(ops))
            if tracer:
                tracer.op = len(ops)
            ops.append((s, *_run_op(cli, wl.argv(s), tracer)))
        elapsed_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ok = []
    for s, _, rc, out, err in ops:
        try:
            problems = wl.check(checks, checks.Result(rc, out, err), s)
        except Exception as exc:  # a program call inside a check broke: the operation failed
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        ok.append(not problems)
        if problems:
            print(f"qdbench: {args.workload} op seed {s} failed: {'; '.join(problems)}", file=sys.stderr)
    result = {
        "ready_ns": ready_ns,
        "attempted": len(ops),
        "failed": ok.count(False),
        "ops": [[s, t, k] for (s, t, *_), k in zip(ops, ok)],  # warm-up first
        "elapsed_s": elapsed_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        timed = [op[1] for op in ops[1:]]
        metrics = tracer.layer_metrics(len(timed))
        metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
        metrics["setup.warmup_s"] = {"value": ops[0][1], "unit": "s"}
        metrics["trace.op_p50_ms"] = {"value": statistics.median(timed) * 1e3, "unit": "ms"}
        result["metrics"] = metrics
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json.gz"),
                     {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
