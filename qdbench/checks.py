"""Checks of one command's result, run after the timed phase.

Each check returns a list of problems; an empty list means the output is
correct. Expected values come from `reference` (plain numpy), never from a
stored copy of earlier output. The program is called here only for the
spot check of `attack_point` that `verify` asks for, and to build the Kraus
operators a `simulate` descriptor names.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import qdecoy

import reference

#: exact quantities (margins, G, D, saturation) must agree to this
TOL = 1e-9
#: optimize: largest |D - bound| accepted, as in acceptance check 8
OPT_GAP = 5e-4
#: simulate: largest |estimate - exact value| in binomial standard errors.
#: The chance that a correct run lands outside is about 2e-9 per estimate.
SIM_SE_WIDTH = 6.0

_LINE = re.compile(r"^(.*\S): (\S+)$")


@dataclass(frozen=True)
class Result:
    """What one command left behind: exit code (None if it raised) and output."""

    rc: int | None
    stdout: str
    stderr: str


def _exit_problems(res: Result) -> list[str]:
    if res.rc != 0:
        tail = res.stderr.strip().splitlines()[-1:] or ["(no message)"]
        return [f"exit code {res.rc}: {tail[0]}"]
    return []


def _load_json(res: Result) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(res.stdout), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def _near(what: str, got, want: float, tol: float) -> list[str]:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        return [f"{what} = {got!r}, reference {want!r} (tol {tol:g})"]
    return []


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return float("nan")


def saturating_g(n: int, seed: int) -> float:
    """A point of [1/n, 1] picked by the seed, for the saturating-family spot check."""
    frac = (seed * 0.6180339887498949) % 1.0
    return 1.0 / n + (1.0 - 1.0 / n) * frac


def spot_check_attack_point(n: int, seed: int) -> list[str]:
    """attack_point against the definition sums and the saturating family's closed form."""
    problems = []
    m = qdecoy.random_attack(n, seed=seed)
    a = reference.kraus_stack(m.ops)
    problems += _near("random attack completeness residual", reference.completeness_residual(a), 0.0, TOL)
    p = qdecoy.attack_point(m)
    g_ref = reference.estimation_fidelity(a)
    problems += _near("attack_point G", p.g, g_ref, TOL)
    problems += _near("attack_point D", p.d, reference.disturbance(a), TOL)
    problems += _near("attack_point bound", p.bound, reference.bound(g_ref, n), TOL)

    g = saturating_g(n, seed)
    p = qdecoy.attack_point(qdecoy.optimal_attack(n, g))
    problems += _near(f"saturating G at g={g!r}", p.g, g, TOL)
    problems += _near(f"saturating D at g={g!r}", p.d, reference.bound(g, n), TOL)
    return problems


def check_verify(res: Result, n: int, trials: int, seed: int) -> list[str]:
    problems = _exit_problems(res)
    lines = [line for line in res.stdout.splitlines() if line.strip()]
    if not lines or lines[-1] != "verify: PASS":
        problems.append(f"last line is {lines[-1:]!r}, not 'verify: PASS'")
    values = dict(m.groups() for m in map(_LINE.match, lines) if m)
    if values.get(f"verify n={n}") != f"trials={trials}":
        problems.append(f"header does not report n={n}, trials={trials}")
    margins = {k: v for k, v in values.items() if k.startswith("min margin")}
    if len(margins) != (2 if trials > 0 else 1):
        problems.append(f"expected the sweep and named-family margins, got {sorted(margins)}")
    gaps = {k: v for k, v in values.items() if k.startswith("max saturation gap")}
    if len(gaps) != 1:
        problems.append("no saturation gap line")
    for label, text in margins.items():
        if not _number(text) >= -TOL:
            problems.append(f"{label} = {text} is below -{TOL:g}")
    for label, text in gaps.items():
        if not _number(text) <= TOL:
            problems.append(f"{label} = {text} exceeds {TOL:g}")
    return problems + spot_check_attack_point(n, seed)


def check_simulate(res: Result, descriptor: str, shots: int, seed: int) -> list[str]:
    problems = _exit_problems(res)
    rep, bad = _load_json(res)
    if bad or problems:
        return problems + bad
    a = reference.kraus_stack(qdecoy.parse_descriptor(descriptor).ops)
    n = a.shape[1]
    problems += _near("attack completeness residual", reference.completeness_residual(a), 0.0, TOL)
    if (rep.get("n"), rep.get("shots"), rep.get("seed")) != (n, shots, seed):
        problems.append(f"report header n/shots/seed = {rep.get('n')}/{rep.get('shots')}/{rep.get('seed')}")
    counts = (rep.get("message_trials"), rep.get("decoy_trials"))
    if not all(isinstance(c, int) and c > 0 for c in counts) or sum(counts) != shots:
        return problems + [f"trial counts {counts} do not split {shots} shots"]
    exact = {"g": reference.estimation_fidelity(a), "d": reference.disturbance(a)}
    for key, trials in zip(("g", "d"), counts):
        problems += _near(f"{key}_analytic", rep.get(f"{key}_analytic"), exact[key], TOL)
        se = math.sqrt(exact[key] * (1.0 - exact[key]) / trials)
        problems += _near(f"{key}_hat", rep.get(f"{key}_hat"), exact[key], SIM_SE_WIDTH * se)
    return problems


def check_optimize(res: Result, n: int, g: float) -> list[str]:
    problems = _exit_problems(res)
    point, bad = _load_json(res)
    if bad or problems:
        return problems + bad
    if point.get("n") != n:
        problems.append(f"n = {point.get('n')!r}, asked for {n}")
    problems += _near("G", point.get("g"), g, TOL)
    b = reference.bound(g, n)
    d = point.get("d")
    if not isinstance(d, (int, float)) or not d >= b - TOL:
        problems.append(f"D = {d!r} is below the bound {b!r}")
    problems += _near("|D - bound|", d, b, OPT_GAP)
    return problems
