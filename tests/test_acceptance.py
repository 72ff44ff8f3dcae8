"""Acceptance gate: the numbered end-to-end contract checks.

Each test prints one live PASS/FAIL line (visible through pytest's capture)
with the measured value, the tolerance it is held to, and the elapsed time.
Runtime budgets are asserted where the contract states them.
"""

import time

import numpy as np
import pytest

from qdecoy.attacks import (
    identity_attack,
    optimal_attack,
    probabilistic_attack,
    projective_attack,
    random_attack,
)
from qdecoy.choi import ChoiState, choi_of_kraus, is_cp, is_tp, sandwich_identity_residual
from qdecoy.cli import main
from qdecoy.ensembles import pairing_ensemble
from qdecoy.metrics import (
    estimation_fidelity,
    estimation_fidelity_functional,
    induced_fidelity,
    induced_fidelity_functional,
)
from qdecoy.protocol import run_protocol
from qdecoy.tradeoff import (
    BoundViolation,
    attack_point,
    disturbance_bound,
    optimize_attack,
    sweep_random,
)


@pytest.fixture
def announce(capsys):
    def _print(line):
        with capsys.disabled():
            print(line)

    return _print


def _verdict(announce, num, name, ok, detail):
    line = f"[acceptance] {num} {name}: {'PASS' if ok else 'FAIL'} {detail}"
    announce(line)
    return line


def test_1_bound_endpoints(announce):
    t0 = time.perf_counter()
    dev = 0.0
    for n in range(2, 51):
        dev = max(dev, abs(disturbance_bound(1.0 / n, n)))
        dev = max(dev, abs(disturbance_bound(1.0, n) - (0.5 - 0.5 / n)))
    dt = time.perf_counter() - t0
    ok = dev <= 1e-12 and dt < 1.0
    line = _verdict(
        announce, 1, "bound endpoints",
        ok, f"max_dev={dev:.2e} (tol 1e-12) n=2..50 t={dt:.2f}s (<1s)",
    )
    assert ok, line


def test_2_saturation_both_routes(announce):
    t0 = time.perf_counter()
    gap = 0.0
    for n in (2, 3, 4, 10):
        pairing = pairing_ensemble(n)
        for g in np.linspace(1.0 / n, 1.0, 21):
            m = optimal_attack(n, float(g))
            b = disturbance_bound(float(g), n)
            d_def = 1.0 - induced_fidelity(m, pairing)
            d_fun = 1.0 - induced_fidelity_functional(m)
            gap = max(gap, abs(d_def - b), abs(d_fun - b))
    dt = time.perf_counter() - t0
    ok = gap <= 1e-9 and dt < 10.0
    line = _verdict(
        announce, 2, "saturation on 21-point grids",
        ok, f"max_gap={gap:.2e} (tol 1e-9) n in 2,3,4,10 t={dt:.2f}s (<10s)",
    )
    assert ok, line


def test_3_no_violation_random_sweep(announce):
    t0 = time.perf_counter()
    worst = np.inf
    detail = ""
    ok = True
    try:
        for n in (2, 3, 4):
            min_margin = sweep_random(n, trials=1000, seed=n).margin
            worst = min(worst, min_margin)
        ok = worst >= -1e-9
        detail = f"min_margin={worst:.2e} (tol -1e-9) 1000 attacks each n in 2,3,4"
    except BoundViolation as exc:
        ok = False
        detail = f"bound violation: {exc}"
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    line = _verdict(
        announce, 3, "no bound violations", ok, f"{detail} t={dt:.2f}s (<120s)"
    )
    assert ok, line


def test_4_functional_equivalence(announce):
    t0 = time.perf_counter()
    res_g = 0.0
    res_f = 0.0
    pairings = {n: pairing_ensemble(n) for n in (2, 3, 4)}
    for i in range(200):
        n = 2 + i % 3
        m = random_attack(n, seed=1000 + i)
        g_def, _ = estimation_fidelity(m)
        res_g = max(res_g, abs(g_def - estimation_fidelity_functional(m)))
        f_def = induced_fidelity(m, pairings[n])
        res_f = max(res_f, abs(f_def - induced_fidelity_functional(m)))
    dt = time.perf_counter() - t0
    ok = res_g <= 1e-12 and res_f <= 1e-10
    line = _verdict(
        announce, 4, "functional equivalence",
        ok,
        f"|G_def-G_fun|={res_g:.2e} (tol 1e-12) |F_def-F_fun|={res_f:.2e} "
        f"(tol 1e-10) 200 attacks t={dt:.2f}s",
    )
    assert ok, line


def test_5_state_operator_identities(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    residual = 0.0
    for i in range(100):
        m = random_attack(3, seed=2000 + i)
        choi = choi_of_kraus(m.ops)
        mats = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        residual = max(residual, sandwich_identity_residual(*mats, choi))

    swap = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            e_ij = np.zeros((3, 3))
            e_ij[i, j] = 1.0
            swap += np.kron(e_ij, e_ij.T)
    transpose_cp = is_cp(ChoiState(dim_out=3, dim_in=3, matrix=swap.astype(complex)))

    channels_ok = True
    for n in (2, 3, 4):
        attacks = [
            identity_attack(n),
            projective_attack(n),
            probabilistic_attack(n, 0.5),
            optimal_attack(n, 0.7),
        ]
        attacks += [random_attack(n, seed=s) for s in range(10)]
        for m in attacks:
            choi = choi_of_kraus(m.ops)
            channels_ok = channels_ok and is_cp(choi) and is_tp(choi)
    dt = time.perf_counter() - t0
    ok = residual <= 1e-10 and not transpose_cp and channels_ok
    line = _verdict(
        announce, 5, "state-operator identities",
        ok,
        f"sandwich_residual={residual:.2e} (tol 1e-10, 100 tuples) "
        f"transpose_cp={transpose_cp} (want False) channels_cp_tp={channels_ok} "
        f"t={dt:.2f}s",
    )
    assert ok, line


def test_6_probabilistic_above_bound(announce):
    t0 = time.perf_counter()
    p = attack_point(probabilistic_attack(2, 0.5))
    dt = time.perf_counter() - t0
    ok = (
        abs(p.g - 0.75) <= 1e-12
        and abs(p.d - 0.125) <= 1e-12
        and p.margin > 0.05
        and abs(p.margin - 0.09150635094610965) <= 1e-12
    )
    line = _verdict(
        announce, 6, "non-saturating family",
        ok,
        f"G={p.g!r} (want 0.75) D={p.d!r} (want 0.125) margin={p.margin:.6f} "
        f"(>0.05) t={dt:.2f}s",
    )
    assert ok, line


def test_7_monte_carlo_consistency(announce):
    t0 = time.perf_counter()
    runs = 0
    hits = 0
    for n in (2, 4):
        families = [
            identity_attack(n),
            projective_attack(n),
            probabilistic_attack(n, 0.5),
            optimal_attack(n, 0.75),
        ]
        for m in families:
            for seed in range(20):
                rep = run_protocol(m, shots=100000, seed=seed)
                runs += 1
                hits += int(rep.g_within_4se and rep.d_within_4se)
    m = optimal_attack(4, 0.75)
    reproducible = run_protocol(m, shots=100000, seed=0) == run_protocol(m, shots=100000, seed=0)
    rate = hits / runs
    dt = time.perf_counter() - t0
    ok = rate >= 0.95 and reproducible and dt < 60.0
    line = _verdict(
        announce, 7, "Monte Carlo consistency",
        ok,
        f"within_4se={hits}/{runs} ({rate:.1%}, need >=95%) "
        f"reproducible={reproducible} 1e5 shots t={dt:.2f}s (<60s)",
    )
    assert ok, line


def test_8_optimizer_tightness(announce):
    t0 = time.perf_counter()
    devs = []
    ok = True
    for n, g in ((2, 0.75), (3, 0.6), (4, 1.0)):
        point, _ = optimize_attack(n, g, seed=0)
        bound = disturbance_bound(g, n)
        devs.append(abs(point.d - bound))
        ok = ok and devs[-1] <= 5e-4 and point.d >= bound - 1e-9
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    line = _verdict(
        announce, 8, "optimizer tightness",
        ok,
        f"|D-bound|={', '.join(f'{d:.2e}' for d in devs)} (tol 5e-4) "
        f"at (2,0.75),(3,0.6),(4,1.0) t={dt:.2f}s (<120s)",
    )
    assert ok, line


def test_9_curve_figure_data(announce, capsys):
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (4, 50):
        assert main(["curve", "--n", str(n)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        g_vals = np.array([g for g, _ in rows])
        d_vals = np.array([d for _, d in rows])
        monotone = bool(np.all(np.diff(d_vals) >= -1e-12))
        endpoints = (
            len(rows) == 101
            and abs(g_vals[0] - 1.0 / n) <= 1e-12
            and g_vals[-1] == 1.0
            and d_vals[0] == 0.0
            and abs(d_vals[-1] - (0.5 - 0.5 / n)) <= 1e-12
        )
        ok = ok and monotone and endpoints
        details.append(f"n={n} monotone={monotone} endpoints={endpoints}")
    dt = time.perf_counter() - t0
    line = _verdict(
        announce, 9, "curve command figure data",
        ok, f"{'; '.join(details)} 101 points t={dt:.2f}s",
    )
    assert ok, line
