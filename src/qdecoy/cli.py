"""Command line front end.

Four subcommands: `curve` emits the bound curve as CSV/JSON, `verify` runs the
certification sweep and the named-family checks, `simulate` Monte-Carlos the
protocol for a described attack, `optimize` rediscovers the least-disturbance
attack at fixed estimation fidelity. Exit codes: 0 success, 1 verification,
contract or write failure, 2 usage/parse error. Randomized commands require a
nonnegative --seed and are bit-reproducible given it. File output is atomic
(temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from .attacks import (
    identity_attack,
    optimal_attack,
    parse_descriptor,
    probabilistic_attack,
    projective_attack,
    random_attack,  # not called here; qdbench/tracing.py wraps qdecoy.cli.random_attack
)
from .metrics import (
    estimation_fidelity,  # not called here; qdbench/tracing.py wraps qdecoy.cli.estimation_fidelity
    estimation_fidelity_functional,
    induced_fidelity,
    induced_fidelity_functional,
)
from .ensembles import pairing_ensemble
from .linalg import check_dim
from .protocol import run_protocol
from .tradeoff import (
    _NOISE,
    BoundViolation,
    attack_point,
    disturbance_bound,
    optimize_attack,
    saturation_gap,
    sweep_random,
)

#: exact functional evaluation materializes n^4 matrix entries. simulate is
#: exempt: its O(n^2 K) tables, not --shots, set its cost, since it draws cell
#: counts; nothing yet bounds those tables at large n
_N_CAP = 64

#: verify's largest accepted |D - bound| on the saturating family
_SATURATION_TOL = 1e-9
#: verify's largest accepted |G_def - G_functional|
_G_ROUTE_TOL = 1e-12
#: verify's largest accepted gap between two routes to F
_F_ROUTE_TOL = 1e-10
#: curve's largest grid; 1e6 points took 13 s and 1 GB as JSON
_POINTS_CAP = 100_000
#: optimize's largest n, which bounds the cost of one restart, not of the run:
#: one SLSQP restart at g = 0.5 took 7.0 s at n = 24 and 47 s at n = 32, and a
#: run costs --restarts of them (the default 16 at n = 32: about 12 minutes)
_OPTIMIZE_N_CAP = 24


def _usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _runtime_failure(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _write_output(text: str, path: str | None) -> int:
    """Print to stdout, or write the whole file atomically; returns the exit code."""
    if path is None:
        sys.stdout.write(text)
        return 0
    target = os.path.abspath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".qdecoy-tmp-")
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        return _runtime_failure(f"cannot write {path}: {exc.strerror or exc}")
    return 0


def _check_n(n: int) -> str | None:
    try:
        check_dim(n)
    except ValueError as exc:
        return str(exc)
    if n > _N_CAP:
        return f"n = {n} exceeds the exact-evaluation cap {_N_CAP}"
    return None


def _sci(tol: float) -> str:
    """A tolerance as short scientific text: 1e-9, not 1e-09."""
    mantissa, exponent = f"{tol:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def cmd_curve(args: argparse.Namespace) -> int:
    problem = _check_n(args.n)
    if problem:
        return _usage(problem)
    if args.points < 2:
        return _usage(f"need at least 2 grid points, got {args.points}")
    if args.points > _POINTS_CAP:
        return _usage(f"{args.points} grid points exceed the cap {_POINTS_CAP}")
    grid = np.linspace(1.0 / args.n, 1.0, args.points)
    rows = [(float(g), disturbance_bound(float(g), args.n)) for g in grid]
    if args.format == "csv":
        lines = ["g,d_bound"]
        lines += [f"{g:.12e},{d:.12e}" for g, d in rows]
        return _write_output("\n".join(lines) + "\n", args.out)
    obj = {"n": args.n, "points": [{"g": g, "d_bound": d} for g, d in rows]}
    return _write_output(json.dumps(obj, indent=2) + "\n", args.out)


def _named_families(n: int) -> tuple[list, list]:
    """The named-family grid: (attacks to certify, optimal-family g grid)."""
    g_grid = [float(g) for g in np.linspace(1.0 / n, 1.0, 11)]
    named = [projective_attack(n), identity_attack(n)]
    named += [probabilistic_attack(n, p) for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
    named += [optimal_attack(n, g) for g in g_grid]
    return named, g_grid


def cmd_verify(args: argparse.Namespace) -> int:
    problem = _check_n(args.n)
    if problem:
        return _usage(problem)
    if args.trials < 0:
        return _usage(f"trials must be nonnegative, got {args.trials}")
    if args.trials > 0 and args.seed is None:
        return _usage("--seed is required when --trials > 0")

    named, g_grid = _named_families(args.n)
    failures: list[str] = []
    try:
        named_points = [attack_point(m) for m in named]
        min_named = min(p.margin for p in named_points)
        for p in named_points:
            if p.margin < _NOISE:
                failures.append(f"named attack below bound: {p.source} margin={p.margin!r}")

        gaps = [saturation_gap(args.n, g) for g in g_grid]
        max_gap = max(gaps)
        if max_gap > _SATURATION_TOL:
            worst = g_grid[int(np.argmax(gaps))]
            failures.append(f"saturation gap {max_gap!r} at g={worst!r} exceeds {_sci(_SATURATION_TOL)}")

        # each cross-checked attack with the point that certified it
        checked = list(zip(named, named_points))
        min_sweep = None
        if args.trials > 0:
            # the sweep's first ten attacks are also checked on every route
            swept_points, min_sweep, swept = sweep_random(args.n, args.trials, seed=args.seed)
            checked += zip(swept, swept_points)

        pairing = pairing_ensemble(args.n)
        res_g = 0.0
        res_f = 0.0
        res_closed = 0.0
        for m, p in checked:
            res_g = max(res_g, abs(p.g - estimation_fidelity_functional(m)))
            f_def = induced_fidelity(m, pairing)
            res_f = max(res_f, abs(f_def - induced_fidelity_functional(m)))
            res_closed = max(res_closed, abs((1.0 - p.d) - f_def))
        if res_g > _G_ROUTE_TOL:
            failures.append(f"estimation functional residual {res_g!r} exceeds {_sci(_G_ROUTE_TOL)}")
        if res_f > _F_ROUTE_TOL:
            failures.append(f"fidelity functional residual {res_f!r} exceeds {_sci(_F_ROUTE_TOL)}")
        if res_closed > _F_ROUTE_TOL:
            failures.append(f"closed-form fidelity residual {res_closed!r} exceeds {_sci(_F_ROUTE_TOL)}")
    except BoundViolation as exc:
        print(f"verify: FAIL ({exc})")
        return 1

    print(f"verify n={args.n}: trials={args.trials}")
    if min_sweep is not None:
        print(f"min margin (random sweep): {min_sweep:.6e}")
    print(f"min margin (named families): {min_named:.6e}")
    print(f"max saturation gap (11-point optimal grid): {max_gap:.6e}")
    print(f"max |G_def - G_functional|: {res_g:.6e}")
    print(f"max |F_def - F_functional|: {res_f:.6e}")
    print(f"max |F_closed - F_def|: {res_closed:.6e}")
    if failures:
        for f in failures:
            print(f"verify: FAIL ({f})")
        return 1
    print("verify: PASS")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        attack = parse_descriptor(args.attack)
    except ValueError as exc:
        return _usage(str(exc))
    except MemoryError:
        return _runtime_failure(f"not enough memory to build {args.attack}")
    if args.n is not None and args.n != attack.dim:
        return _usage(f"--n {args.n} conflicts with descriptor dimension {attack.dim}")
    if args.shots < 1:
        return _usage(f"shots must be positive, got {args.shots}")
    if not 0.0 <= args.decoy_fraction <= 1.0:
        return _usage(f"decoy fraction {args.decoy_fraction} outside [0, 1]")
    try:
        report = run_protocol(
            attack.dim,
            attack,
            shots=args.shots,
            decoy_fraction=args.decoy_fraction,
            seed=args.seed,
            sample_bob=args.sample_bob,
        )
    except ValueError as exc:
        return _runtime_failure(str(exc))
    except MemoryError:
        return _runtime_failure(f"not enough memory to simulate {args.shots} shots of {attack.descriptor}")
    return _write_output(json.dumps(asdict(report), indent=2) + "\n", args.out)


def cmd_optimize(args: argparse.Namespace) -> int:
    problem = _check_n(args.n)
    if problem:
        return _usage(problem)
    if args.n > _OPTIMIZE_N_CAP:
        return _usage(f"n = {args.n} exceeds the search cap {_OPTIMIZE_N_CAP}")
    if not 1.0 / args.n <= args.g <= 1.0:
        return _usage(f"--g {args.g} outside [1/{args.n}, 1]")
    if args.restarts < 1 or args.iters < 1:
        return _usage("restarts and iters must be positive")
    try:
        point, _ = optimize_attack(args.n, args.g, restarts=args.restarts, iters=args.iters, seed=args.seed)
    except RuntimeError as exc:
        return _runtime_failure(str(exc))
    return _write_output(json.dumps(asdict(point), indent=2) + "\n", args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdecoy",
        description="Information-gain/disturbance tradeoff for quantum-decoy tamper detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="emit the bound curve D_min(G) on a uniform grid")
    curve.add_argument("--n", type=int, required=True, help="channel dimension (2..64)")
    curve.add_argument("--points", type=int, default=101, help="grid size (2..100000, default 101)")
    curve.add_argument("--format", choices=("csv", "json"), default="csv")
    curve.add_argument("--out", default=None, help="output path (atomic write); default stdout")
    curve.set_defaults(func=cmd_curve)

    verify = sub.add_parser("verify", help="certify the bound on random and named attacks")
    verify.add_argument("--n", type=int, required=True, help="channel dimension (2..64)")
    verify.add_argument("--trials", type=int, default=0, help="random attacks to sweep (default 0)")
    verify.add_argument("--seed", type=int, default=None, help="sweep seed (required when trials > 0)")
    verify.set_defaults(func=cmd_verify)

    simulate = sub.add_parser("simulate", help="Monte Carlo the decoy protocol for an attack")
    simulate.add_argument("--attack", required=True, help='descriptor, e.g. "optimal(n=4,g=0.5)"')
    simulate.add_argument("--n", type=int, default=None, help="channel dimension (must match the descriptor)")
    simulate.add_argument("--shots", type=int, default=100000)
    simulate.add_argument("--decoy-fraction", type=float, default=0.5)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--sample-bob", action="store_true", help="sample the receiver's bit instead of scoring the exact conditional probability")
    simulate.add_argument("--out", default=None, help="output path (atomic write); default stdout")
    simulate.set_defaults(func=cmd_simulate)

    optimize = sub.add_parser("optimize", help="search for the least-disturbance attack at fixed G")
    optimize.add_argument("--n", type=int, required=True, help="channel dimension (2..24)")
    optimize.add_argument("--g", type=float, required=True, help="estimation fidelity target in [1/n, 1]")
    optimize.add_argument("--restarts", type=int, default=16)
    optimize.add_argument("--iters", type=int, default=2000)
    optimize.add_argument("--seed", type=int, required=True)
    optimize.add_argument("--out", default=None, help="output path (atomic write); default stdout")
    optimize.set_defaults(func=cmd_optimize)

    return parser


#: the parser, built by the first `main` call and reused by later in-process calls
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # verify, simulate and optimize take a seed; numpy's generators reject a negative one
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        return _usage(f"--seed must be nonnegative, got {seed}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
