"""End-to-end tests of the command line interface (in-process)."""

import json
import os
import stat
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import qdecoy
from qdecoy import attacks, cli
from qdecoy.attacks import GeneralizedMeasurement
from qdecoy.cli import main
from qdecoy.metrics import induced_fidelity, induced_fidelity_closed
from qdecoy.tradeoff import disturbance_bound


def _rows(csv_text):
    lines = csv_text.strip().split("\n")
    assert lines[0] == "g,d_bound"
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


class TestCurve:
    def test_csv_grid(self, capsys):
        assert main(["curve", "--n", "4", "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "\r" not in out
        rows = _rows(out)
        assert [g for g, _ in rows] == [0.25, 0.4375, 0.625, 0.8125, 1.0]
        assert rows[0][1] == 0.0
        assert out.strip().split("\n")[-1] == "1.000000000000e+00,3.750000000000e-01"
        for g, d in rows:
            assert abs(d - disturbance_bound(g, 4)) <= 1e-12

    def test_csv_large_dimension(self, capsys):
        assert main(["curve", "--n", "50", "--points", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1] == "2.000000000000e-02,0.000000000000e+00"
        assert lines[2] == "1.000000000000e+00,4.900000000000e-01"

    def test_json_format(self, capsys):
        assert main(["curve", "--n", "4", "--points", "5", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["n"] == 4
        assert len(obj["points"]) == 5
        assert obj["points"][0]["d_bound"] == 0.0
        assert obj["points"][-1]["d_bound"] == 0.375

    def test_out_file_atomic(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        assert main(["curve", "--n", "3", "--points", "4", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        rows = _rows(path.read_text())
        assert len(rows) == 4
        # no leftover temp files next to the output
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]

    def test_out_file_mode_follows_the_umask(self, tmp_path, capsys):
        # 0o666 & ~umask, as a plain open gives a new file; mkstemp alone gives 0o600
        path = tmp_path / "curve.json"
        old = os.umask(0o022)
        try:
            assert main(["curve", "--n", "4", "--points", "5", "--format", "json", "--out", str(path)]) == 0
            assert stat.S_IMODE(path.stat().st_mode) == 0o644
        finally:
            os.umask(old)
        assert capsys.readouterr().out == ""

    def test_out_file_keeps_an_existing_targets_mode(self, tmp_path, capsys):
        # a restricted results file stays restricted when it is rewritten
        path = tmp_path / "curve.csv"
        path.write_text("old\n")
        path.chmod(0o600)
        old = os.umask(0o022)
        try:
            assert main(["curve", "--n", "3", "--points", "3", "--out", str(path)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert len(_rows(path.read_text())) == 3
        assert capsys.readouterr().out == ""

    def test_out_writes_through_a_symlink(self, tmp_path, capsys):
        # as a plain open does: the link stays a link, and the file it names gets the curve
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        link.symlink_to(real.name)
        assert main(["curve", "--n", "3", "--points", "3", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == "real.csv"
        assert len(_rows(real.read_text())) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]
        assert capsys.readouterr().out == ""

    def test_usage_errors(self, capsys):
        assert main(["curve", "--n", "1"]) == 2
        assert "error: need dimension n >= 2, got 1" in capsys.readouterr().err
        assert main(["curve", "--n", "65"]) == 2
        assert main(["curve", "--n", "4", "--points", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_points_cap(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", unreachable)
        assert main(["curve", "--n", "4", "--points", "10000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 10000000000 grid points exceed the cap 100000\n"


class TestVerify:
    def test_without_sweep(self, capsys):
        assert main(["verify", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        assert "min margin (named families):" in out
        assert "max saturation gap" in out
        assert "random sweep" not in out

    def test_with_sweep(self, capsys):
        assert main(["verify", "--n", "2", "--trials", "5", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "min margin (random sweep):" in out
        assert "verify: PASS" in out

    def test_seed_required_for_sweep(self, capsys):
        assert main(["verify", "--n", "2", "--trials", "5"]) == 2
        assert "--seed is required" in capsys.readouterr().err

    def test_negative_trials(self):
        assert main(["verify", "--n", "2", "--trials", "-1", "--seed", "0"]) == 2

    def test_dimension_cap(self):
        assert main(["verify", "--n", "65"]) == 2

    def test_broken_attack_fails(self, capsys, monkeypatch):
        bad = GeneralizedMeasurement([np.sqrt(1.1) * np.eye(2, dtype=complex)], descriptor="corrupt")
        monkeypatch.setattr(
            "qdecoy.tradeoff.random_attack", lambda n, outcomes=None, seed=0: bad
        )
        assert main(["verify", "--n", "2", "--trials", "1", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "verify: FAIL" in out
        assert "corrupt" in out


    def test_prints_closed_form_residual(self, capsys):
        assert main(["verify", "--n", "3", "--trials", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        line = next(x for x in out.splitlines() if x.startswith("max |F_closed - F_def|: "))
        assert float(line.split(": ")[1]) <= 1e-10

    @staticmethod
    def _lower_closed_form(monkeypatch):
        """F_closed 1e-6 below its true value where attacks are certified: D
        rises, so every margin still passes, and the cross-check sees the gap."""
        monkeypatch.setattr("qdecoy.tradeoff.induced_fidelity_closed", lambda a: induced_fidelity_closed(a) - 1e-6)

    def test_closed_form_residual_fails(self, capsys, monkeypatch):
        self._lower_closed_form(monkeypatch)
        assert main(["verify", "--n", "2"]) == 1
        assert "verify: FAIL (closed-form fidelity residual" in capsys.readouterr().out

    def test_failure_lines_name_each_tolerance(self, capsys, monkeypatch):
        monkeypatch.setattr("qdecoy.cli.estimation_fidelity_functional", lambda m: 2.0)
        monkeypatch.setattr("qdecoy.cli.induced_fidelity_functional", lambda m: 2.0)
        self._lower_closed_form(monkeypatch)
        assert main(["verify", "--n", "2"]) == 1
        fails = [x for x in capsys.readouterr().out.splitlines() if x.startswith("verify: FAIL")]
        assert [x.rsplit(" ", 1)[1] for x in fails] == ["1e-9)", "1e-12)", "1e-10)", "1e-10)"]

    def test_nan_closed_form_fails(self, capsys, monkeypatch):
        # a NaN margin fails certification at the first named attack
        monkeypatch.setattr("qdecoy.tradeoff.induced_fidelity_closed", lambda a: np.nan)
        assert main(["verify", "--n", "2", "--trials", "3", "--seed", "1"]) == 1
        [line] = capsys.readouterr().out.splitlines()
        assert line.startswith("verify: FAIL (attack 'projective(n=2)' lands nan below the proven bound ")

    def test_nan_functional_fails(self, capsys, monkeypatch):
        # the saturation gap and the running residual both keep the NaN
        monkeypatch.setattr("qdecoy.cli.induced_fidelity_functional", lambda m: np.nan)
        assert main(["verify", "--n", "2"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "max saturation gap (11-point optimal grid): nan" in out
        assert "max |F_def - F_functional|: nan" in out
        assert [x for x in out if x.startswith("verify: ")] == [
            "verify: FAIL (saturation gap nan at g=0.5 exceeds 1e-9)",
            "verify: FAIL (fidelity functional residual nan exceeds 1e-10)",
        ]

    def test_cross_check_attacks_are_the_sweeps_first_ten(self, monkeypatch):
        for trials in (3, 12):
            built, checked = [], []

            def build(n, outcomes=None, seed=0):
                built.append(attacks.random_attack(n, outcomes, seed=seed))
                return built[-1]

            def oracle(m, e):
                checked.append(m)
                return induced_fidelity(m, e)

            monkeypatch.setattr("qdecoy.tradeoff.random_attack", build)
            monkeypatch.setattr("qdecoy.cli.induced_fidelity", oracle)
            assert main(["verify", "--n", "2", "--trials", str(trials), "--seed", "5"]) == 0
            # each random attack is built once, and the cross-check reuses the sweep's first ten
            assert len(built) == trials
            swept = [m for m in checked if m.descriptor.startswith("random(")]
            assert len(swept) == min(trials, 10)
            assert all(a is b for a, b in zip(swept, built))

    def test_sweep_holds_one_attack_at_a_time(self):
        main(["verify", "--n", "8", "--trials", "2", "--seed", "1"])  # the parser and caches, outside the peaks

        def peak(trials):
            tracemalloc.start()
            try:
                assert main(["verify", "--n", "8", "--trials", str(trials), "--seed", "1"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # ten cross-checked attacks, each freed before the next is drawn
        one_attack = 8**2 * 8 * 8 * 16  # random(n=8): K = 64 complex 8 x 8 operators
        assert peak(12) <= peak(2) + one_attack

    def test_each_named_attack_is_freed_before_the_next_is_built(self, monkeypatch):
        refs = []

        def alone(build):
            def wrapped(*args):
                # every named attack handed out so far is dead before the next one is built
                assert all(r() is None for r in refs)
                return build(*args)

            return wrapped

        def oracle(m, e):
            assert all(r() is None for r in refs)
            refs.append(weakref.ref(m))
            return induced_fidelity(m, e)

        for name in ("projective_attack", "identity_attack", "probabilistic_attack", "optimal_attack"):
            monkeypatch.setattr(cli, name, alone(getattr(cli, name)))
        monkeypatch.setattr("qdecoy.cli.induced_fidelity", oracle)
        assert main(["verify", "--n", "2"]) == 0
        assert len(refs) == 18

    def test_named_attack_below_bound_fails_in_one_line(self, capsys, monkeypatch):
        # D 0.1 below its true value: the first named attack, the full readout, lands below the bound
        monkeypatch.setattr("qdecoy.tradeoff.induced_fidelity_closed", lambda a: induced_fidelity_closed(a) + 0.1)
        assert main(["verify", "--n", "2"]) == 1
        [line] = capsys.readouterr().out.splitlines()
        assert line.startswith("verify: FAIL (attack 'projective(n=2)' lands 1.000e-01 below the proven bound ")

    def test_each_attack_is_evaluated_once(self, monkeypatch):
        calls = []

        def spy(a):
            calls.append(a.shape)
            return induced_fidelity_closed(a)

        monkeypatch.setattr("qdecoy.tradeoff.induced_fidelity_closed", spy)
        monkeypatch.setattr("qdecoy.cli.induced_fidelity_closed", spy, raising=False)
        assert main(["verify", "--n", "2", "--trials", "12", "--seed", "5"]) == 0
        # 18 named attacks and 12 random ones, each certified once; the
        # cross-check reads F from the certified points
        assert len(calls) == 18 + 12


class TestSimulate:
    def test_identity_run(self, capsys):
        args = ["simulate", "--attack", "identity(n=2)", "--shots", "2000", "--seed", "0"]
        assert main(args) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["attack_descriptor"] == "identity(n=2)"
        assert report["n"] == 2
        assert report["shots"] == 2000
        assert report["d_hat"] == 0.0

    def test_deterministic_stdout(self, capsys):
        args = ["simulate", "--attack", "prob(n=3,p=0.4)", "--shots", "1000", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_sample_bob_flag(self, capsys):
        args = [
            "simulate", "--attack", "projective(n=2)", "--shots", "500",
            "--seed", "1", "--sample-bob",
        ]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["sample_bob"] is True

    def test_no_dimension_cap(self, capsys):
        args = ["simulate", "--attack", "identity(n=80)", "--shots", "50", "--seed", "1"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["d_hat"] == 0.0

    def test_shot_counts_beyond_64_bits_fail_in_one_line(self, capsys):
        args = ["simulate", "--attack", "identity(n=2)", "--shots", str(10**20), "--seed", "0"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: shots must lie in") and err.count("\n") == 1

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        args = [
            "simulate", "--attack", "optimal(n=2,g=0.9)", "--shots", "400",
            "--seed", "3", "--out", str(path),
        ]
        assert main(args) == 0
        report = json.loads(path.read_text())
        assert report["message_trials"] + report["decoy_trials"] == 400

    def test_usage_errors(self, capsys):
        assert main(["simulate", "--attack", "prob(n=4)", "--seed", "0"]) == 2
        assert main(["simulate", "--attack", "foo(n=2)", "--seed", "0"]) == 2
        assert main(["simulate", "--attack", "optimal(n=2,g=2.0)", "--seed", "0"]) == 2
        assert (
            main(["simulate", "--attack", "identity(n=2)", "--n", "3", "--seed", "0"]) == 2
        )
        assert (
            main(["simulate", "--attack", "identity(n=2)", "--shots", "0", "--seed", "0"])
            == 2
        )
        assert (
            main([
                "simulate", "--attack", "identity(n=2)", "--decoy-fraction", "1.5",
                "--seed", "0",
            ])
            == 2
        )
        assert main(["simulate", "--attack", "identity(n=2)"]) == 2
        capsys.readouterr()

    def test_negative_descriptor_seed_fails_in_one_line(self, capsys):
        # the descriptor's seed is checked like --seed, not left to numpy's generator
        assert main(["simulate", "--attack", "random(n=2,seed=-1)", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be nonnegative, got -1\n"

    def test_repeated_descriptor_argument(self, capsys):
        for text in ("optimal(n=4,g=0.5,g=0.7)", "random(n=3,k=4,k=5,seed=1)"):
            assert main(["simulate", "--attack", text, "--seed", "0"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "repeated argument" in captured.err

    def test_runtime_failure_exits_one(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("qdecoy.cli.run_protocol", boom)
        args = ["simulate", "--attack", "identity(n=2)", "--shots", "10", "--seed", "0"]
        assert main(args) == 1
        assert "boom" in capsys.readouterr().err


    @pytest.mark.parametrize("callee", ["run_protocol", "parse_descriptor"])
    def test_out_of_memory_exits_one(self, capsys, monkeypatch, callee):
        def oom(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(f"qdecoy.cli.{callee}", oom)
        args = ["simulate", "--attack", "identity(n=2)", "--shots", "10", "--seed", "0"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not enough memory")
        assert len(captured.err.splitlines()) == 1


class TestOptimize:
    def test_midrange_target(self, capsys):
        args = ["optimize", "--n", "2", "--g", "0.75", "--restarts", "4", "--seed", "0"]
        assert main(args) == 0
        point = json.loads(capsys.readouterr().out)
        bound = 0.03349364905389035
        assert abs(point["d"] - bound) <= 5e-4
        assert point["d"] >= bound - 1e-9
        assert point["margin"] >= -1e-9
        assert point["source"].startswith("optimized(n=2")

    def test_usage_errors(self, capsys):
        assert main(["optimize", "--n", "3", "--g", "0.1", "--seed", "0"]) == 2
        assert main(["optimize", "--n", "3", "--g", "1.5", "--seed", "0"]) == 2
        capsys.readouterr()
        assert main(["optimize", "--n", "1", "--g", "0.9", "--seed", "0"]) == 2
        assert capsys.readouterr().err == "error: need dimension n >= 2, got 1\n"
        assert main(["optimize", "--n", "2", "--g", "0.75"]) == 2
        assert (
            main(["optimize", "--n", "2", "--g", "0.75", "--restarts", "0", "--seed", "0"])
            == 2
        )
        assert capsys.readouterr().err.endswith("error: restarts must be positive, got 0\n")
        # the ascent's step cap is a constant, not a flag
        assert main(["optimize", "--n", "2", "--g", "0.75", "--iters", "5", "--seed", "0"]) == 2
        capsys.readouterr()


    def test_dimension_cap(self, capsys, monkeypatch):
        class Searched(Exception):
            pass

        def ascend(*args, **kwargs):
            raise Searched

        monkeypatch.setattr("qdecoy.tradeoff._ascend", ascend)
        # the search cap alone refuses every n above it, however large
        for n in (25, 65, 10**400):
            assert main(["optimize", "--n", str(n), "--g", "0.5", "--seed", "0"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: n = {n} exceeds the search cap 24\n"
        with pytest.raises(Searched):
            main(["optimize", "--n", "24", "--g", "0.5", "--restarts", "1", "--seed", "0"])

    def test_no_feasible_candidate_exits_one(self, capsys, monkeypatch):
        def infeasible(n, g, **kwargs):
            raise RuntimeError(f"no feasible candidate found at (n={n}, g={g})")

        monkeypatch.setattr("qdecoy.cli.optimize_attack", infeasible)
        assert main(["optimize", "--n", "3", "--g", "0.6", "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no feasible candidate found at (n=3, g=0.6)\n"


class TestExitCodes:
    # each command's library entry, as the command module names it
    _COMMANDS = {
        "curve": ("disturbance_bound", ["curve", "--n", "3", "--points", "3"]),
        "verify": ("sweep_random", ["verify", "--n", "2", "--trials", "1", "--seed", "0"]),
        "simulate": ("run_protocol", ["simulate", "--attack", "identity(n=2)", "--shots", "10", "--seed", "0"]),
        "optimize": ("optimize_attack", ["optimize", "--n", "3", "--g", "0.6", "--seed", "0"]),
    }

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @pytest.mark.parametrize(
        "error, code",
        # a plain RuntimeError: verify reports a BoundViolation on stdout instead
        [(ValueError("refused"), 2), (MemoryError(), 1), (RuntimeError("failed"), 1)],
        ids=["ValueError", "MemoryError", "RuntimeError"],
    )
    def test_library_errors_end_in_one_line(self, capsys, monkeypatch, command, error, code):
        callee, argv = self._COMMANDS[command]

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(f"qdecoy.cli.{callee}", fail)
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error:")


class TestParser:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "3", "--trials", "2"],
            ["simulate", "--attack", "identity(n=2)", "--shots", "10"],
            ["optimize", "--n", "3", "--g", "0.6", "--restarts", "1"],
        ],
        ids=["verify", "simulate", "optimize"],
    )
    def test_negative_seed(self, capsys, argv):
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be nonnegative, got -1\n"


    def test_parser_built_once(self, capsys, monkeypatch):
        # in-process callers build the parser once; reusing it changes no output or exit code
        commands = [
            (["curve", "--n", "4", "--points", "3"], 0),
            (["verify", "--n", "3"], 0),
            (["frobnicate"], 2),
            (["curve", "--n", "1"], 2),
            (["simulate", "--attack", "identity(n=2)", "--shots", "10", "--seed", "-1"], 2),
            (["simulate", "--attack", "identity(n=2)", "--shots", "10", "--seed", "0"], 0),
            (["curve", "--n", "4", "--points", "3", "--format", "json"], 0),
            (["curve", "--n", "4", "--points", "3"], 0),
        ]
        fresh = []
        for argv, code in commands:
            monkeypatch.setattr(cli, "_parser", None)
            assert main(argv) == code, argv
            fresh.append(capsys.readouterr())
        built = []
        build = cli._build_parser

        def spy():
            built.append(None)
            return build()

        monkeypatch.setattr(cli, "_build_parser", spy)
        monkeypatch.setattr(cli, "_parser", None)
        for (argv, code), want in zip(commands, fresh):
            assert main(argv) == code, argv
            assert capsys.readouterr() == want, argv
        assert len(built) == 1


class TestOutput:
    _COMMANDS = {
        "curve": ["curve", "--n", "3", "--points", "4"],
        "simulate": ["simulate", "--attack", "identity(n=2)", "--shots", "10", "--seed", "0"],
        "optimize": ["optimize", "--n", "3", "--g", "1", "--seed", "0"],
    }

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @pytest.mark.parametrize(
        "target, reason",
        [("missing/out.txt", "No such file or directory"), ("taken", "Is a directory")],
    )
    def test_unwritable_out_exits_one(self, tmp_path, capsys, command, target, reason):
        (tmp_path / "taken").mkdir()
        path = tmp_path / target
        assert main(self._COMMANDS[command] + ["--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {path}: {reason}\n"
        assert not list(tmp_path.rglob(".qdecoy-tmp-*"))


class TestStartup:
    def test_no_command_loads_scipy(self):
        # a fresh interpreter, since this test process has scipy loaded already
        script = textwrap.dedent(
            """
            import contextlib, io, sys
            from qdecoy.cli import main

            def loaded():
                return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

            commands = [
                ["curve", "--n", "4"],
                ["verify", "--n", "3", "--trials", "2", "--seed", "1"],
                ["simulate", "--attack", "optimal(n=4,g=0.5)", "--shots", "1000", "--seed", "1"],
                ["optimize", "--n", "3", "--g", "0.6", "--restarts", "1", "--seed", "0"],
            ]
            for argv in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0, argv
                assert loaded() == [], (argv, loaded()[:5])
            """
        )
        src = str(Path(qdecoy.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{script}"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
