import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twoscale import cli
from twoscale.cli import build_problem, main
from twoscale.meanfield import check_marchaud
from twoscale.recursion import NoiseModel, StepSchedule
from twoscale.saddle import run_primal_dual
from twoscale.svmaps import validate_sam

CANONICAL = {
    "kind": "saddle",
    "problem": {
        "theta": [[1.0, 0.0], [0.0, 1.0]],
        "C": [[[1.0, 0.0]], [[0.0, 1.0]]],
        "w": [[2.0], [0.0]],
        "kernel": [[0.5, 0.5], [0.5, 0.5]],
        "epsilon": 0.01,
        "radius": 4.0,
        "growth": 2.0,
    },
    "schedule": {"alpha": 0.6, "beta": 0.9},
    "noise": {"kind": "uniform", "fast_scale": 0.1, "slow_scale": 0.0},
    "steps": 2000,
    "seed": 7,
    "diagnostics": {"n_windows": 3, "apt_horizon": 0.5, "window_T": 0.25},
}


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg, indent=1))
    return p


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    data = [row.split(",") for row in lines[2:]]
    return header, data


class TestValidate:
    def test_canonical_passes(self, tmp_path):
        cfg = json.loads(json.dumps(CANONICAL))
        cfg["out"] = str(tmp_path / "out")
        code = main(["validate", "--config", str(write_config(tmp_path, cfg))])
        assert code == 0
        report = (tmp_path / "out" / "validation_report.txt").read_text()
        assert "[FAIL]" not in report

    def test_bad_alpha_named(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(CANONICAL))
        cfg["schedule"]["alpha"] = 0.4
        cfg["out"] = str(tmp_path / "out")
        code = main(["validate", "--config", str(write_config(tmp_path, cfg))])
        assert code == 1
        out = capsys.readouterr().out
        assert "schedule" in out and "FAIL" in out

    def test_missing_kernel_row_named(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(CANONICAL))
        cfg["problem"]["kernel"] = [[0.5, 0.5]]
        cfg["out"] = str(tmp_path / "out")
        code = main(["validate", "--config", str(write_config(tmp_path, cfg))])
        assert code == 1
        out = capsys.readouterr().out
        assert "problem.kernel" in out

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["validate", "--config", str(tmp_path / "nope.json")])
        assert code == 3

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code = main(["validate", "--config", str(p)])
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["canonical_saddle", "toy_two_timescale"])
    def test_shipped_config_passes_schedule_and_diagnostics(self, tmp_path, name):
        code = main(["validate", "--config", str(CONFIGS / f"{name}.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "validation_report.txt").read_text()
        assert "[PASS] schedule: ok" in report and "[PASS] diagnostics: ok" in report
        assert "[FAIL]" not in report

    def test_validate_imports_no_scipy(self, tmp_path):
        # numpy is the only runtime dependency: a fresh interpreter that has
        # run `twoscale validate` holds no scipy module.
        argv = ["validate", "--config", str(CONFIGS / "canonical_saddle.json"),
                "--out", str(tmp_path)]
        script = (
            "import sys\n"
            "from twoscale.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_schedule_its_constructor_accepts_passes(self, tmp_path, capsys):
        # b(n)/a(n) = 1000 (n+1)^-1e-12 decreases in exact arithmetic, though
        # not in every rounded step over 2e5 steps; the constructor accepts
        # the schedule, and so does the schedule line.
        cfg = json.loads((CONFIGS / "canonical_saddle.json").read_text())
        cfg["schedule"] = {"alpha": 0.6, "beta": 0.600000000001, "a0": 0.001}
        cfg["steps"] = 200000
        cfg["out"] = str(tmp_path / "out")
        assert main(["validate", "--config", str(write_config(tmp_path, cfg))]) == 0
        assert "[PASS] schedule: ok\n" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["sign_di", "dual_envelope"])
    def test_di_config_needs_no_schedule(self, tmp_path, name):
        config = os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.json")
        code = main(["validate", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "validation_report.txt").read_text()
        assert "[PASS] field construction" in report
        assert "[FAIL]" not in report


class TestRun:
    def test_two_row_trajectory(self, tmp_path):
        cfg = json.loads(json.dumps(CANONICAL))
        cfg["steps"] = 1
        cfg["out"] = str(tmp_path / "out")
        code = main(["run", "--config", str(write_config(tmp_path, cfg))])
        assert code == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        # comment, header, two data rows
        assert len(lines) == 4

    def test_rerun_byte_identical(self, tmp_path):
        cfg = json.loads(json.dumps(CANONICAL))
        cfg["steps"] = 500
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            cfg["out"] = str(out)
            assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (
            out2 / "trajectory.csv"
        ).read_bytes()

    def test_outputs_exist_and_manifest(self, tmp_path):
        cfg = json.loads(json.dumps(CANONICAL))
        cfg["steps"] = 1500
        cfg["diagnostics"] = {"n_windows": 4, "apt_horizon": 1.0, "window_T": 0.5}
        cfg["out"] = str(tmp_path / "out")
        code = main(["run", "--config", str(write_config(tmp_path, cfg))])
        assert code == 0
        out = tmp_path / "out"
        for name in ("trajectory.csv", "diagnostics.csv", "manifest.json", "report.txt"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        header, data = read_csv(out / "diagnostics.csv")
        assert header == [
            "window", "t_slow_start", "interpolation_gap", "apt_metric", "dist_to_lambda",
        ]
        assert len(data) == 4

    def test_manifest_hash_tracks_config(self, tmp_path):
        cfg = json.loads(json.dumps(CANONICAL))
        cfg["steps"] = 50
        cfg["out"] = str(tmp_path / "out")
        hashes = []
        for steps in (50, 50, 60):
            cfg["steps"] = steps
            main(["run", "--config", str(write_config(tmp_path, cfg))])
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            hashes.append(manifest["config_sha256"])
        assert hashes[0] == hashes[1]
        assert hashes[0] != hashes[2]

    def test_generic_two_timescale(self, tmp_path):
        cfg = {
            "kind": "two_timescale",
            "d1": 1,
            "d2": 1,
            "drift_fast": {"name": "negate_x"},
            "drift_slow": {"name": "negate_y"},
            "schedule": {"alpha": 0.6, "beta": 0.9},
            "steps": 1000,
            "seed": 0,
            "x0": [1.0],
            "y0": [1.0],
            "out": str(tmp_path / "out"),
        }
        code = main(["run", "--config", str(write_config(tmp_path, cfg))])
        assert code == 0
        header, data = read_csv(tmp_path / "out" / "trajectory.csv")
        final_x = float(data[-1][header.index("X0")])
        assert abs(final_x) <= 1e-3

    def test_divergence_exit_code(self, tmp_path):
        cfg = {
            "kind": "two_timescale",
            "d1": 1,
            "d2": 1,
            "drift_fast": {"name": "expand_x"},
            "drift_slow": {"name": "negate_y"},
            "schedule": {"alpha": 0.6, "beta": 0.9},
            "steps": 300,
            "seed": 0,
            "x0": [1e9],
            "y0": [0.0],
            "out": str(tmp_path / "out"),
        }
        code = main(["run", "--config", str(write_config(tmp_path, cfg))])
        assert code == 2
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "divergence_step" in manifest

    def test_replicas(self, tmp_path):
        cfg = json.loads(json.dumps(CANONICAL))
        cfg["steps"] = 200
        cfg["out"] = str(tmp_path / "out")
        code = main(
            ["run", "--config", str(write_config(tmp_path, cfg)), "--replicas", "2"]
        )
        assert code == 0
        assert (tmp_path / "out" / "replica_000" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "replica_001" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "replicas.csv").exists()

    def test_replica_workers_capped_at_usable_cpus(self, tmp_path, monkeypatch):
        seen = []

        class InlinePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = json.loads(json.dumps(CANONICAL))
        cfg["steps"] = 20
        cfg["out"] = str(tmp_path / "out")
        path = str(write_config(tmp_path, cfg))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["run", "--config", path, "--replicas", "5"]) == 0
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert main(["run", "--config", path, "--replicas", "5"]) == 0
        assert main(["run", "--config", path, "--replicas", "2"]) == 0
        assert seen == [2, 3, 2]
        assert (tmp_path / "out" / "replica_004" / "trajectory.csv").exists()

    def test_replica_seeds_past_u64_named(self, tmp_path, capsys):
        toy = os.path.join(os.path.dirname(__file__), "..", "configs", "toy_two_timescale.json")
        argv = ["run", "--config", toy, "--steps", "5", "--out", str(tmp_path / "out"),
                "--seed", str(2**64 - 1), "--replicas", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config.seed" in err and "2^64" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        argv[argv.index(str(2**64 - 1))] = str(2**64 - 2)
        assert main(argv) == 0
        _, rows = read_csv(tmp_path / "out" / "replicas.csv")
        assert [r[1] for r in rows] == [str(2**64 - 2), str(2**64 - 1)]

    def test_seed_override(self, tmp_path):
        cfg = json.loads(json.dumps(CANONICAL))
        cfg["steps"] = 20
        cfg["out"] = str(tmp_path / "out")
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--seed", "99"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seed"] == 99


class TestSolveDi:
    def test_sign_field_hits_zero(self, tmp_path):
        cfg = {
            "kind": "di",
            "field": {"name": "sign"},
            "z0": [1.0],
            "T": 2.0,
            "dt": 0.001,
            "out": str(tmp_path / "out"),
        }
        code = main(["solve-di", "--config", str(write_config(tmp_path, cfg))])
        assert code == 0
        header, data = read_csv(tmp_path / "out" / "di_path.csv")
        t = np.array([float(r[0]) for r in data])
        z = np.array([float(r[1]) for r in data])
        near_one = np.argmin(np.abs(t - 1.0))
        assert abs(z[near_one]) <= 5e-3
        assert np.abs(z[t >= 1.01]).max() <= 5e-3

    def test_equilibrium_constant_column(self, tmp_path):
        cfg = {
            "kind": "di",
            "field": {"name": "sign"},
            "z0": [0.0],
            "T": 1.0,
            "dt": 0.01,
            "out": str(tmp_path / "out"),
        }
        assert main(["solve-di", "--config", str(write_config(tmp_path, cfg))]) == 0
        header, data = read_csv(tmp_path / "out" / "di_path.csv")
        assert all(float(r[1]) == 0.0 for r in data)

    def test_envelope_flag(self, tmp_path):
        cfg = {
            "kind": "di",
            "field": {"saddle_dual": CANONICAL["problem"]},
            "z0": [0.0],
            "T": 3.0,
            "dt": 0.005,
            "out": str(tmp_path / "out"),
        }
        code = main(
            ["solve-di", "--config", str(write_config(tmp_path, cfg)), "--envelope"]
        )
        assert code == 0
        header, data = read_csv(tmp_path / "out" / "envelope.csv")
        disc = np.array([abs(float(r[3])) for r in data])
        assert disc.max() <= 1e-3

    def test_envelope_needs_saddle_field(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "sign_di.json").read_text())
        cfg["T"] = 0.01
        cfg["out"] = str(tmp_path / "out")
        code = main(
            ["solve-di", "--config", str(write_config(tmp_path, cfg)), "--envelope"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("config.field: ")
        # Refused before the field is integrated: nothing is written.
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["sign_di", "dual_envelope"])
    def test_di_nested_z0_named(self, tmp_path, capsys, name):
        config = os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.json")
        with open(config) as fh:
            cfg = json.load(fh)
        cfg["z0"] = [cfg["z0"]]
        cfg["out"] = str(tmp_path / "out")
        code = main(["solve-di", "--config", str(write_config(tmp_path, cfg))])
        assert code == 1
        err = capsys.readouterr().err
        assert "config.z0" in err and "(1, 1)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "di_path.csv").exists()


class TestSaddleCommand:
    def test_requires_saddle_kind(self, tmp_path, capsys):
        cfg = {
            "kind": "two_timescale",
            "d1": 1,
            "d2": 1,
            "drift_fast": {"name": "negate_x"},
            "drift_slow": {"name": "negate_y"},
            "schedule": {"alpha": 0.6, "beta": 0.9},
            "steps": 5,
            "out": str(tmp_path / "out"),
        }
        code = main(["saddle", "--config", str(write_config(tmp_path, cfg))])
        assert code == 1

    def test_writes_report(self, tmp_path):
        cfg = json.loads(json.dumps(CANONICAL))
        cfg["steps"] = 1500
        cfg["diagnostics"] = {"n_windows": 3, "apt_horizon": 1.0, "window_T": 0.5}
        cfg["out"] = str(tmp_path / "out")
        code = main(["saddle", "--config", str(write_config(tmp_path, cfg))])
        assert code == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "feasibility gap" in report


class TestNamedKernel:
    def test_x_threshold_kernel_runs(self, tmp_path):
        cfg = {
            "kind": "two_timescale",
            "d1": 1,
            "d2": 1,
            "alphabet": 2,
            "drift_fast": {"name": "negate_x"},
            "drift_slow": {"name": "negate_y"},
            "kernel_fast": {"name": "x_threshold"},
            "kernel_slow": {"name": "x_threshold"},
            "schedule": {"alpha": 0.6, "beta": 0.9},
            "steps": 500,
            "seed": 4,
            "x0": [1.0],
            "y0": [1.0],
            "out": str(tmp_path / "out"),
        }
        code = main(["run", "--config", str(write_config(tmp_path, cfg))])
        assert code == 0

    def test_unknown_kernel_named(self, tmp_path, capsys):
        cfg = {
            "kind": "two_timescale",
            "d1": 1,
            "d2": 1,
            "drift_fast": {"name": "negate_x"},
            "drift_slow": {"name": "negate_y"},
            "kernel_fast": {"name": "no_such_kernel"},
            "schedule": {"alpha": 0.6, "beta": 0.9},
            "steps": 5,
            "out": str(tmp_path / "out"),
        }
        code = main(["run", "--config", str(write_config(tmp_path, cfg))])
        assert code == 1
        assert "kernel_fast" in capsys.readouterr().err


class TestSaddleDiagnostics:
    def test_gap_rows_cover_their_labelled_windows(self, tmp_path):
        # Slow noise makes the gap column nonzero, so a window that does not
        # start at its row's label shows.
        P = build_problem(CANONICAL["problem"])
        schedule = StepSchedule(alpha=0.6, beta=0.9, a0=0.5, b0=1.0)
        noise = NoiseModel(kind="uniform", fast_scale=0.1, slow_scale=0.1)
        traj = run_primal_dual(P, schedule, N=20000, seed=101, noise=noise)
        diag = {"window_T": 1.0, "n_windows": 16, "apt_horizon": 1.0, "apt_dt": 0.005,
                "K_terms": 4}
        cli._saddle_diagnostics(P, traj, tmp_path, diag)
        _, data = read_csv(tmp_path / "diagnostics.csv")
        assert len(data) == 16
        ts = traj.t_slow
        b = schedule.b(np.arange(traj.n_steps))
        for row in data:
            t0, gap = float(row[1]), float(row[2])
            n0, *rest = np.flatnonzero((ts >= t0) & (ts <= t0 + 1.0))
            y, worst = traj.Y[n0].copy(), 0.0
            for n in rest:
                y += b[n - 1] * traj.V2[n - 1]
                worst = max(worst, float(np.linalg.norm(traj.Y[n] - y)))
            assert worst > 0.0
            assert gap == pytest.approx(worst, rel=1e-9)


GENERIC = {
    "kind": "two_timescale",
    "d1": 1,
    "d2": 1,
    "drift_fast": {"name": "negate_x"},
    "drift_slow": {"name": "negate_y"},
    "schedule": {"alpha": 0.6, "beta": 0.9},
    "steps": 50,
    "seed": 0,
    "x0": [1.0],
    "y0": [1.0],
}

SIGN_DI = {"kind": "di", "field": {"name": "sign"}, "dim": 1, "z0": [1.0], "T": 0.01,
           "dt": 0.001}
DUAL_DI = {"kind": "di", "field": {"saddle_dual": CANONICAL["problem"]}, "z0": [0.0],
           "T": 0.01, "dt": 0.001}
# A constant kernel with two stationary laws.
TWO_LAWS = [[1.0, 0.0], [0.0, 1.0]]
# A field value that deletes the field.
MISSING = object()
# The line of `twoscale validate` that reports construction, by kind.
CONSTRUCTION_LINE = {
    "saddle": "problem construction",
    "two_timescale": "drift construction",
    "di": "field construction",
}


class TestConfigErrors:
    @pytest.mark.parametrize(
        "command, base", [("saddle", CANONICAL), ("run", GENERIC)], ids=["saddle", "run"]
    )
    def test_window_longer_than_run_named(self, tmp_path, capsys, command, base):
        cfg = json.loads(json.dumps(base))
        cfg["diagnostics"] = dict(cfg.get("diagnostics", {}), window_T=2.0)
        cfg["out"] = str(tmp_path / "out")
        path = write_config(tmp_path, cfg)
        # One step: the slow clock spans b(0) = 1.0 < window_T.
        assert main([command, "--config", str(path), "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert "config.diagnostics.window_T" in err and "1.0" in err
        assert "Traceback" not in err
        # Refused before the recursion runs: nothing is written.
        assert not (tmp_path / "out").exists()

    def test_validate_checks_window_against_the_run_steps(self, tmp_path, capsys):
        # No steps: the run takes one step, so its slow clock spans b(0) = 1.0,
        # and validate checks window_T against that span, not its horizon.
        cfg = {k: v for k, v in GENERIC.items() if k != "steps"}
        cfg["diagnostics"] = {"window_T": 2.0}
        cfg["out"] = str(tmp_path / "out")
        path = write_config(tmp_path, cfg)
        message = (
            "config.diagnostics.window_T: 2.0 exceeds the slow clock span 1.0 of the run"
        )
        assert main(["validate", "--config", str(path)]) == 1
        assert f"[FAIL] diagnostics: {message}\n" in capsys.readouterr().out
        assert main(["run", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, base",
        [("saddle", CANONICAL), ("run", GENERIC), ("validate", CANONICAL)],
        ids=["saddle", "run", "validate"],
    )
    @pytest.mark.parametrize(
        "field, value",
        [
            ("diagnostics.n_windows", -1), ("diagnostics.n_windows", 0),
            ("diagnostics.window_T", -1.0), ("diagnostics.apt_dt", 0.0),
            ("diagnostics.apt_horizon", 1e-3), ("diagnostics.K_terms", 0),
            ("tail_fraction", 0.0), ("tail_fraction", 1.5),
        ],
    )
    def test_diagnostics_setting_out_of_range_named(
        self, tmp_path, capsys, command, base, field, value
    ):
        cfg = json.loads(json.dumps(base))
        section, _, key = field.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[key] = value
        cfg["out"] = str(tmp_path / "out")
        assert main([command, "--config", str(write_config(tmp_path, cfg))]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if command == "validate":
            assert f"[FAIL] diagnostics: config.{field}: must" in out
            return
        assert f"config.{field}: must" in err
        # Refused before the recursion runs: nothing is written.
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, patch",
        [
            ("config.seed", {"seed": "abc"}),
            ("config.d1", {"d1": "two"}),
            ("config.diagnostics.window_T", {"diagnostics": {"window_T": "x"}}),
        ],
        ids=["seed", "d1", "window_T"],
    )
    def test_non_numeric_field_named(self, tmp_path, capsys, field, patch):
        cfg = dict(json.loads(json.dumps(GENERIC)), **patch)
        cfg["out"] = str(tmp_path / "out")
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        assert field in err and "expected a number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, base, field, value, named", [
        ("saddle", CANONICAL, "x0", [1.0], "config.x0"),
        ("saddle", CANONICAL, "x0", ["a", "b"], "config.x0"),
        ("saddle", CANONICAL, "y0", [1.0, 2.0], "config.y0"),
        ("saddle", CANONICAL, "y0", "z", "config.y0"),
        ("run", GENERIC, "x0", [1.0, 2.0], "config.x0"),
        ("run", GENERIC, "y0", [], "config.y0"),
        ("run", GENERIC, "s1_0", 1, "config.s1_0"),
        ("run", GENERIC, "s2_0", -1, "config.s2_0"),
        ("run", GENERIC, "d1", 0, "config.d1"),
        ("run", GENERIC, "d2", 0, "config.d2"),
        ("solve-di", SIGN_DI, "dim", 0, "config.dim"),
        ("saddle", CANONICAL, "problem.theta", [[1.0, 0.0]], "problem.theta"),
        ("solve-di", DUAL_DI, "field.saddle_dual.theta", [[1.0, 0.0]],
         "config.field.saddle_dual.theta"),
        ("saddle", CANONICAL, "problem.kernel", TWO_LAWS, "problem.kernel"),
        ("solve-di", DUAL_DI, "field.saddle_dual.kernel", TWO_LAWS,
         "config.field.saddle_dual.kernel"),
        ("validate", CANONICAL, "problem.kernel", TWO_LAWS, "problem.kernel"),
        ("validate", CANONICAL, "problem.theta", [[1.0, 0.0]], "problem.theta"),
        ("saddle", CANONICAL, "noise.kind", "cauchy", "noise"),
        ("validate", CANONICAL, "noise.kind", "cauchy", "noise"),
        ("validate", GENERIC, "noise.kind", "cauchy", "noise"),
        ("validate", CANONICAL, "x0", [1.0], "config.x0"),
        ("validate", CANONICAL, "y0", [1.0, 2.0], "config.y0"),
        ("run --replicas 2", GENERIC, "x0", [1.0, 2.0], "config.x0"),
        ("saddle --replicas 2", CANONICAL, "y0", [1.0, 2.0], "config.y0"),
        ("solve-di", DUAL_DI, "z0", [0.0, 1.0], "config.z0"),
        ("validate", DUAL_DI, "z0", [0.0, 1.0], "config.z0"),
        ("validate", DUAL_DI, "T", MISSING, "config.T"),
        ("solve-di", SIGN_DI, "dt", 0.0, "config.dt"),
        ("validate", SIGN_DI, "dt", 0.0, "config.dt"),
        ("solve-di", SIGN_DI, "T", 1e-4, "config.T"),
        ("validate", SIGN_DI, "T", 1e-4, "config.T"),
        ("solve-di", SIGN_DI, "selection", "bogus", "config.selection"),
        ("validate", SIGN_DI, "selection", "bogus", "config.selection"),
    ])
    def test_value_the_constructors_refuse_named(
        self, tmp_path, capsys, command, base, field, value, named
    ):
        cfg = json.loads(json.dumps(base))
        *sections, key = field.split(".")
        node = cfg
        for section in sections:
            node = node.setdefault(section, {})
        if value is MISSING:
            del node[key]
        else:
            node[key] = value
        cfg["out"] = str(tmp_path / "out")
        argv = [*command.split(), "--config", str(write_config(tmp_path, cfg))]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if command == "validate":
            assert f"[FAIL] {CONSTRUCTION_LINE[cfg['kind']]}: {named}: " in out
            return
        assert err.startswith(f"{named}: ")
        # Refused before anything runs: nothing is written.
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command, name, patch, named", [
        ("solve-di", "sign_di.json", {"T": 1e13}, "config.T"),
        ("run --steps 1000000000000000", "toy_two_timescale.json", {}, "config.steps"),
        ("run --replicas 2 --steps 1000000000000000", "toy_two_timescale.json", {},
         "config.steps"),
    ], ids=["solve-di", "run", "run-replicas"])
    def test_run_length_that_cannot_be_allocated_named(
        self, tmp_path, capsys, command, name, patch, named
    ):
        # Both lengths ask numpy for petabytes, which it refuses at once.
        cfg = dict(json.loads((CONFIGS / name).read_text()), **patch)
        cfg["out"] = str(tmp_path / "out")
        argv = [*command.split(), "--config", str(write_config(tmp_path, cfg))]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{named}: ") and "do not fit in memory" in err
        assert not (tmp_path / "out").exists()


class TestFlags:
    # "CFG" stands for the path of a valid config.
    @pytest.mark.parametrize("argv, message", [
        (["run"], "the following arguments are required: --config"),
        (["run", "CFG", "--bogus"], "unrecognized arguments: --bogus"),
        (["jump", "CFG"], "invalid choice: 'jump'"),
        (["run", "CFG", "--replicas", "0"], "--replicas: must be >= 1, got 0"),
        (["saddle", "CFG", "--replicas", "-2"], "--replicas: must be >= 1, got -2"),
        (["validate", "CFG", "--replicas", "2"], "unrecognized arguments: --replicas 2"),
        (["solve-di", "CFG", "--replicas", "2"], "unrecognized arguments: --replicas 2"),
        (["run", "CFG", "--envelope"], "unrecognized arguments: --envelope"),
        (["saddle", "CFG", "--envelope"], "unrecognized arguments: --envelope"),
        (["validate", "CFG", "--envelope"], "unrecognized arguments: --envelope"),
    ])
    def test_usage_error_exits_1(self, tmp_path, capsys, argv, message):
        config = write_config(tmp_path, dict(GENERIC, out=str(tmp_path / "out")))
        argv = [f"--config={config}" if arg == "CFG" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _sign(v):
    if v[0] > 0:
        return [-np.ones(len(v))]
    if v[0] < 0:
        return [np.ones(len(v))]
    return [-np.ones(len(v)), np.ones(len(v))]


# Generator rows of each built-in drift at (x, y), in closed form.
DRIFT_FORMS = {
    "negate_x": lambda x, y: [-x],
    "negate_y": lambda x, y: [-y],
    "zero_fast": lambda x, y: [np.zeros_like(x)],
    "zero_slow": lambda x, y: [np.zeros_like(y)],
    "expand_x": lambda x, y: [x],
    "sign_fast": lambda x, y: _sign(x),
}
FIELD_FORMS = {"sign": _sign, "linear_decay": lambda z: [-z]}
POINTS = [np.array([0.0, 2.0]), np.array([1.5, -1.0]), np.array([-0.5, 3.0])]


class TestBuiltins:
    def test_tables_covered(self):
        assert set(DRIFT_FORMS) == set(cli.DRIFTS)
        assert set(FIELD_FORMS) == set(cli.FIELDS)

    @pytest.mark.parametrize("name", sorted(DRIFT_FORMS))
    def test_drift_closed_form(self, name):
        cfg = dict(GENERIC, d1=2, d2=3, alphabet=2, x0=[0.0] * 2, y0=[0.0] * 3)
        cfg["drift_fast"] = cfg["drift_slow"] = {"name": name}
        H1, H2, *_ = cli._build_generic(cfg)
        for x in POINTS:
            y = np.array([-x[0], 0.5, 1.0])
            expect = np.array(DRIFT_FORMS[name](x, y))
            for H in (H1, H2):
                assert H.dims == (2, 3, expect.shape[1])
                for s in (0, 1):
                    assert np.array_equal(H(x, y, s).points, expect)

    @pytest.mark.parametrize("name", sorted(FIELD_FORMS))
    def test_field_closed_form(self, name):
        field, P = cli._build_di_field({"field": {"name": name}, "dim": 2})
        assert P is None and field.dim == 2
        for z in POINTS:
            for _ in range(2):  # constant sets are shared across calls
                got = field(z).points
                assert np.array_equal(got, np.array(FIELD_FORMS[name](z)))

    def test_sign_field_growth_in_two_dimensions(self):
        # sign's values at the origin have norm sqrt(2), above a growth of 1.
        field, _ = cli._build_di_field({"field": {"name": "sign"}, "dim": 2})
        assert check_marchaud(field, [np.zeros(2)]).ok

    def test_unknown_names_keep_messages(self, tmp_path, capsys):
        cfg = dict(GENERIC, drift_fast={"name": "nope"}, out=str(tmp_path / "o"))
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 1
        assert "unknown drift 'nope'; have [" in capsys.readouterr().err
        cfg = {"kind": "di", "field": {"name": "nope"}, "z0": [0.0], "T": 1.0,
               "dt": 0.1, "out": str(tmp_path / "o")}
        assert main(["solve-di", "--config", str(write_config(tmp_path, cfg))]) == 1
        assert "config.field.name: unknown field 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(DRIFT_FORMS))
    def test_drift_point_form_contract(self, name, dim):
        H = cli.drift_map(name, dim, dim, 2)
        assert H.point is not None
        zs = [np.zeros(dim), np.full(dim, 0.5), np.linspace(-1.5, 1.0, dim),
              np.linspace(0.0, 2.0, dim), -np.ones(dim)]
        grid = [(x, y, s) for x in zs for y in zs for s in (0, 1)]
        report = validate_sam(H, grid)
        assert report.ok, report.point_failures
        kinked = name == "sign_fast"
        assert (H.point(zs[0], zs[0], 0) is None) == kinked

    def test_validate_covers_builtin_point_forms(self, tmp_path, monkeypatch):
        cfg = dict(GENERIC, d1=2, d2=2, alphabet=2, x0=[0.5, 1.0], y0=[1.0, -2.0],
                   out=str(tmp_path / "out"))
        cfg["drift_fast"], cfg["drift_slow"] = {"name": "sign_fast"}, {"name": "negate_y"}
        path = str(write_config(tmp_path, cfg))
        assert main(["validate", "--config", path]) == 0
        built = cli.drift_map

        def off_by_one_ulp(*args):
            H = built(*args)
            point = H.point
            H.point = lambda x, y, s: (
                None if (p := point(x, y, s)) is None else np.nextafter(p, np.inf)
            )
            return H

        monkeypatch.setattr(cli, "drift_map", off_by_one_ulp)
        assert main(["validate", "--config", path]) == 1
        report = (tmp_path / "out" / "validation_report.txt").read_text()
        assert "[FAIL] fast drift SAM" in report and "[FAIL] slow drift SAM" in report
