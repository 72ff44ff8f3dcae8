"""Command line front end.

Four subcommands: `curve` emits the bound curve as CSV/JSON, `verify` runs the
certification sweep and the named-family checks, `simulate` Monte-Carlos the
protocol for a described attack, `optimize` rediscovers the least-disturbance
attack at fixed estimation fidelity. Exit codes, mapped in `main` alone, each
with one stderr line: 0 success; 2 a usage error or any input the library
refuses (a ValueError, whose message names the input); 1 a failed
verification, a RuntimeError, a MemoryError or an unwritable --out.
Randomized commands require a nonnegative --seed and are bit-reproducible
given it. File output is atomic (temp file + rename).
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
    BoundViolation,
    attack_point,  # not called here; qdbench/tracing.py wraps qdecoy.cli.attack_point
    certify,
    disturbance_bound,
    optimize_attack,
    sweep_random,
)

#: exact functional evaluation materializes n^4 matrix entries. simulate is
#: exempt: it draws cell counts, so its two real (n^2, K) tables and the attack,
#: not --shots, set its cost (554 MB at n = 64); nothing yet bounds them at large n
_N_CAP = 64

#: verify's largest accepted |D - bound| on the saturating family
_SATURATION_TOL = 1e-9
#: verify's largest accepted |G_def - G_functional|
_G_ROUTE_TOL = 1e-12
#: verify's largest accepted gap between two routes to F
_F_ROUTE_TOL = 1e-10
#: curve's largest grid; 1e6 points took 13 s and 1 GB as JSON
_POINTS_CAP = 100_000
#: optimize's largest n, until a peak-cost estimate replaces it. The restarts
#: ascend together, so a run's cost grows with --restarts: at n = 24, g = 0.5
#: the default 16 took 10.3 s and 65 MB as a whole process, and 4 took 2.6 s
#: and 44 MB (2-core machine, one BLAS thread)
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
    target = os.path.realpath(path)  # a symlink is written through, as a plain open does
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".qdecoy-tmp-")
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                fh.write(text)
            try:
                mode = os.stat(target).st_mode & 0o7777  # a rewritten file keeps its mode
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask  # mkstemp's is 0o600; this is what a plain open gives a new file
            os.chmod(tmp, mode)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        return _runtime_failure(f"cannot write {path}: {exc.strerror or exc}")
    return 0


def _check_n(n: int) -> None:
    """Raise unless n is a dimension within the exact-evaluation cap, before any 1 / n."""
    check_dim(n)
    if n > _N_CAP:
        raise ValueError(f"n = {n} exceeds the exact-evaluation cap {_N_CAP}")


def _sci(tol: float) -> str:
    """A tolerance as short scientific text: 1e-9, not 1e-09."""
    mantissa, exponent = f"{tol:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def cmd_curve(args: argparse.Namespace) -> int:
    _check_n(args.n)
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


def _named_attacks(n: int, g_grid: list[float]):
    """The 18 named attacks, one at a time, ending with optimal_attack(n, g) over g_grid."""
    yield projective_attack(n)
    yield identity_attack(n)
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        yield probabilistic_attack(n, p)
    for g in g_grid:
        yield optimal_attack(n, g)


class _CrossCheck:
    """Runs every oracle route on certified attacks and keeps the largest residuals (np.maximum: a NaN stays)."""

    def __init__(self, n: int):
        self.pairing = pairing_ensemble(n)
        self.g = 0.0  # |G_def - G_functional|
        self.f = 0.0  # |F_def - F_functional|
        self.closed = 0.0  # |F_closed - F_def|
        self.f_functional: list[float] = []  # each checked attack's F_functional, in order

    def __call__(self, m, p) -> None:
        """Check attack m against the point that certified it."""
        self.g = float(np.maximum(self.g, abs(p.g - estimation_fidelity_functional(m))))
        f_def = induced_fidelity(m, self.pairing)
        self.f_functional.append(induced_fidelity_functional(m))
        self.f = float(np.maximum(self.f, abs(f_def - self.f_functional[-1])))
        self.closed = float(np.maximum(self.closed, abs((1.0 - p.d) - f_def)))


def cmd_verify(args: argparse.Namespace) -> int:
    _check_n(args.n)
    if args.trials < 0:
        return _usage(f"trials must be nonnegative, got {args.trials}")
    if args.trials > 0 and args.seed is None:
        return _usage("--seed is required when --trials > 0")

    g_grid = [float(g) for g in np.linspace(1.0 / args.n, 1.0, 11)]
    failures: list[str] = []
    try:
        cross = _CrossCheck(args.n)
        min_named = certify(_named_attacks(args.n, g_grid), cross).margin
        # the saturation gap reads D from the functional route on the optimal attacks
        f_optimal = cross.f_functional[-len(g_grid):]
        gaps = [abs((1.0 - f) - disturbance_bound(g, args.n)) for g, f in zip(g_grid, f_optimal)]
        max_gap = float(np.max(gaps))
        if not max_gap <= _SATURATION_TOL:
            worst = g_grid[int(np.argmax(gaps))]
            failures.append(f"saturation gap {max_gap!r} at g={worst!r} exceeds {_sci(_SATURATION_TOL)}")

        min_sweep = None
        if args.trials > 0:
            # the sweep hands its first ten attacks to the cross-check as it certifies them
            min_sweep = sweep_random(args.n, args.trials, seed=args.seed, check=cross).margin

        if not cross.g <= _G_ROUTE_TOL:
            failures.append(f"estimation functional residual {cross.g!r} exceeds {_sci(_G_ROUTE_TOL)}")
        if not cross.f <= _F_ROUTE_TOL:
            failures.append(f"fidelity functional residual {cross.f!r} exceeds {_sci(_F_ROUTE_TOL)}")
        if not cross.closed <= _F_ROUTE_TOL:
            failures.append(f"closed-form fidelity residual {cross.closed!r} exceeds {_sci(_F_ROUTE_TOL)}")
    except BoundViolation as exc:
        print(f"verify: FAIL ({exc})")
        return 1

    print(f"verify n={args.n}: trials={args.trials}")
    if min_sweep is not None:
        print(f"min margin (random sweep): {min_sweep:.6e}")
    print(f"min margin (named families): {min_named:.6e}")
    print(f"max saturation gap (11-point optimal grid): {max_gap:.6e}")
    print(f"max |G_def - G_functional|: {cross.g:.6e}")
    print(f"max |F_def - F_functional|: {cross.f:.6e}")
    print(f"max |F_closed - F_def|: {cross.closed:.6e}")
    if failures:
        for f in failures:
            print(f"verify: FAIL ({f})")
        return 1
    print("verify: PASS")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    report = run_protocol(
        parse_descriptor(args.attack),
        shots=args.shots,
        decoy_fraction=args.decoy_fraction,
        seed=args.seed,
        sample_bob=args.sample_bob,
    )
    return _write_output(json.dumps(asdict(report), indent=2) + "\n", args.out)


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.n > _OPTIMIZE_N_CAP:
        return _usage(f"n = {args.n} exceeds the search cap {_OPTIMIZE_N_CAP}")
    point, _ = optimize_attack(args.n, args.g, restarts=args.restarts, seed=args.seed)
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
    # verify, simulate and optimize take a seed; checked here too, as verify --trials 0 passes none on
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        return _usage(f"--seed must be nonnegative, got {seed}")
    try:
        return args.func(args)
    except ValueError as exc:  # the library refused an input, and its message names it
        return _usage(str(exc))
    except MemoryError:
        return _runtime_failure(f"not enough memory to run {args.command}")
    except RuntimeError as exc:
        return _runtime_failure(str(exc))


if __name__ == "__main__":
    sys.exit(main())
