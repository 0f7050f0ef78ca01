import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twoscale import cli
from twoscale.cli import build_problem, main
from twoscale.meanfield import check_marchaud
from twoscale.recursion import NoiseModel, StepSchedule, run
from twoscale.saddle import dual_ode_field, lambda_min, run_primal_dual
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

    def test_two_timescale_construction_line(self, tmp_path, capsys):
        code = main(["validate", "--config", str(CONFIGS / "toy_two_timescale.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[:-1] == [
            "[PASS] schedule: ok",
            "[PASS] diagnostics: ok",
            "[PASS] drift construction: ok",
            "[PASS] fast drift SAM: ok",
            "[PASS] slow drift SAM: ok",
        ]

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

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_solver_stall_exits_4(self, tmp_path, capfd, replicas):
        # From y0 = 1e11 the closed-form minimizers of the dual flows the
        # diagnostics ask for miss the certificate by cancellation at that
        # scale (by 1.1e-5), as from z0 = 1e12 in TestSolveDi.  A start at
        # 1e12 would sit on the recursion's divergence bound.
        cfg = json.loads((CONFIGS / "canonical_saddle.json").read_text())
        cfg["y0"] = [1e11]
        cfg["out"] = str(tmp_path / "out")
        argv = ["saddle", "--config", str(write_config(tmp_path, cfg)), "--steps", "2000",
                "--replicas", str(replicas)]
        assert main(argv) == 4
        # The replicas print from their worker processes.
        err = capfd.readouterr().err.splitlines()
        assert len(err) == replicas
        assert all(line.startswith("numerical failure: inner solver stalled after ")
                   for line in err)
        if replicas > 1:
            _, rows = read_csv(tmp_path / "out" / "replicas.csv")
            assert rows == [["0", "101", "4"], ["1", "102", "4"]]

    def test_solver_stall_writes_manifest(self, tmp_path, capfd):
        # Each stalled replica's folder names its seed and the stall, as a
        # diverged run's names its divergence step.
        cfg = json.loads((CONFIGS / "canonical_saddle.json").read_text())
        cfg["y0"] = [1e11]
        cfg["out"] = str(tmp_path / "out")
        argv = ["saddle", "--config", str(write_config(tmp_path, cfg)), "--steps", "2000",
                "--replicas", "2"]
        assert main(argv) == 4
        err = capfd.readouterr().err.splitlines()
        for i, seed in enumerate((101, 102)):
            manifest = json.loads(
                (tmp_path / "out" / f"replica_{i:03d}" / "manifest.json").read_text()
            )
            assert manifest["seed"] == seed
            assert manifest["config_sha256"] == cli._config_hash(
                dict(cfg, steps=2000, seed=101)
            )
            stall = manifest["solver_stall"]
            assert stall["iterations"] == 0 and stall["residual"] > 0
            assert (f"numerical failure: inner solver stalled after 0 iterations, "
                    f"subgradient residual {stall['residual']:.3e}") in err

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

    def test_solver_stall_exits_4(self, tmp_path, capsys):
        # From 1e12 the first minimizer the dual flow asks for stalls.
        cfg = json.loads((CONFIGS / "dual_envelope.json").read_text())
        cfg["z0"] = [1e12]
        cfg["out"] = str(tmp_path / "out")
        code = main(["solve-di", "--config", str(write_config(tmp_path, cfg))])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: inner solver stalled after ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


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

    def test_two_constraints_tail_means_at_the_optimum(self, tmp_path):
        # d1 = 3, d2 = 2 and three states: every C(s) x and C(s)^T y sums
        # several terms.  x* lies inside the barrier sphere, where
        # lambda(y) = (theta_mu - C_mu^T y) / (1 + eps / r^2), so
        # C_mu lambda(y*) = w_mu is linear in y*.
        cfg = json.loads((CONFIGS / "saddle_two_constraints.json").read_text())
        cfg["out"] = str(tmp_path / "out")
        assert main(["saddle", "--config", str(write_config(tmp_path, cfg))]) == 0
        P = build_problem(cfg["problem"])
        assert (P.d1, P.d2, P.alphabet) == (3, 2, 3) and P.mu.min() > 0
        k = 1 + P.epsilon / P.radius**2
        theta_mu = P.mu @ np.array(cfg["problem"]["theta"])
        y_star = np.linalg.solve(P.C_mu @ P.C_mu.T / k, P.C_mu @ theta_mu / k - P.w_mu)
        x_star = lambda_min(P, y_star)
        np.testing.assert_allclose(P.C_mu @ x_star, P.w_mu, atol=1e-12)
        assert np.linalg.norm(x_star) < P.radius
        header, rows = read_csv(tmp_path / "out" / "trajectory.csv")
        data = np.array(rows, dtype=float)
        assert len(data) == cfg["steps"] + 1
        tail = data[int(len(data) * (1 - cfg["tail_fraction"])):]
        cols = {name: i for i, name in enumerate(header)}
        x_bar = tail[:, [cols[f"X{i}"] for i in range(3)]].mean(axis=0)
        y_bar = tail[:, [cols[f"Y{i}"] for i in range(2)]].mean(axis=0)
        np.testing.assert_allclose(x_bar, x_star, atol=0.03)
        np.testing.assert_allclose(y_bar, y_star, atol=0.03)
        assert main(["validate", "--config", str(write_config(tmp_path, cfg))]) == 0


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


def assert_gap_rows_cover_their_windows(path, traj, T):
    """Each row's gap is the sup over the knots of [t0, t0 + T], re-integrated
    by hand from the row's ``t_slow_start``."""
    _, data = read_csv(path)
    ts = traj.t_slow
    b = traj.schedule.b(np.arange(traj.n_steps))
    for row in data:
        t0, gap = float(row[1]), float(row[2])
        n0, *rest = np.flatnonzero((ts >= t0) & (ts <= t0 + T))
        y, worst = traj.Y[n0].copy(), 0.0
        for n in rest:
            y += b[n - 1] * traj.V2[n - 1]
            worst = max(worst, float(np.linalg.norm(traj.Y[n] - y)))
        assert worst > 0.0
        assert gap == pytest.approx(worst, rel=1e-9)
    return data


DIAG = {"window_T": 1.0, "n_windows": 16, "apt_horizon": 1.0, "apt_dt": 0.005,
        "K_terms": 4}


class TestSaddleDiagnostics:
    # Slow noise makes the gap column nonzero, so a window that does not
    # start at its row's label shows.
    NOISE = NoiseModel(kind="uniform", fast_scale=0.1, slow_scale=0.1)
    SCHEDULE = StepSchedule(alpha=0.6, beta=0.9, a0=0.5, b0=1.0)

    def test_gap_rows_cover_their_labelled_windows(self, tmp_path):
        P = build_problem(CANONICAL["problem"])
        traj = run_primal_dual(P, self.SCHEDULE, N=20000, seed=101, noise=self.NOISE)
        cli._write_diagnostics(
            traj, tmp_path, DIAG, lambda Y: lambda_min(P, Y), dual_ode_field(P)
        )
        data = assert_gap_rows_cover_their_windows(
            tmp_path / "diagnostics.csv", traj, 1.0
        )
        assert len(data) == 16
        assert all(math.isfinite(float(v)) for row in data for v in row[3:])

    def test_two_timescale_gap_rows_cover_their_labelled_windows(self, tmp_path):
        H1, H2, K1, K2, x0, y0, _ = cli._build_generic(GENERIC)
        traj = run(H1, H2, K1, K2, self.SCHEDULE, x0, y0, 0, 0, 20000, 101,
                   noise=self.NOISE)
        cli._write_diagnostics(traj, tmp_path, DIAG)
        data = assert_gap_rows_cover_their_windows(
            tmp_path / "diagnostics.csv", traj, 1.0
        )
        assert len(data) == 16
        # The starts spread over the whole clock, not its end.
        starts = [float(row[1]) for row in data]
        assert starts[0] == 0.0 and starts[1] < traj.t_slow[-1] / 10
        assert all(row[3:] == ["nan", "nan"] for row in data)

    def test_run_and_saddle_share_header_and_starts(self, tmp_path):
        settings = {"schedule": CANONICAL["schedule"], "steps": 1500,
                    "diagnostics": {"n_windows": 5, "apt_horizon": 1.0, "window_T": 0.5}}
        tables = []
        for command, base in (("run", GENERIC), ("saddle", CANONICAL)):
            cfg = dict(json.loads(json.dumps(base)), **settings)
            cfg["out"] = str(tmp_path / command)
            assert main([command, "--config", str(write_config(tmp_path, cfg))]) == 0
            tables.append(read_csv(tmp_path / command / "diagnostics.csv"))
        (generic_header, generic), (saddle_header, saddle) = tables
        assert generic_header == saddle_header == [
            "window", "t_slow_start", "interpolation_gap", "apt_metric", "dist_to_lambda",
        ]
        assert [r[:2] for r in generic] == [r[:2] for r in saddle]
        assert len(generic) == 5


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
# A slow iterate of two coordinates, beside a fast one of one.
GENERIC_2D = dict(GENERIC, d2=2, y0=[1.0, 1.0])

SIGN_DI = {"kind": "di", "field": {"name": "sign"}, "dim": 1, "z0": [1.0], "T": 0.01,
           "dt": 0.001}
DUAL_DI = {"kind": "di", "field": {"saddle_dual": CANONICAL["problem"]}, "z0": [0.0],
           "T": 0.01, "dt": 0.001}
# A constant kernel with two stationary laws.
TWO_LAWS = [[1.0, 0.0], [0.0, 1.0]]
# A constant kernel whose first row holds NaN.
NAN_KERNEL = [[math.nan, 0.5], [0.5, 0.5]]
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

    def test_integral_floats_accepted(self, tmp_path):
        # An integer field may be written as an integral float: the run is
        # the one of the integer config.
        outs = []
        for patch in ({}, {"steps": 50.0, "seed": 0.0, "d1": 1.0,
                           "diagnostics": {"n_windows": 16.0}}):
            cfg = dict(json.loads(json.dumps(GENERIC)), **patch)
            cfg["out"] = str(tmp_path / f"out{len(outs)}")
            assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
            outs.append((Path(cfg["out"]) / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    # Each case names itself, so inserting a case renames no other test.  The
    # ids below are the ones pytest generated from the cases' positions
    # before they were written out, kept so that a test name recorded
    # earlier still finds its case; a new case takes "command-field-tag",
    # such as "saddle-problem.kernel-nan".  ``test_refusal_ids_unique``
    # checks that no two cases share an id.
    @pytest.mark.parametrize("command, base, field, value, named", [
        pytest.param("saddle", CANONICAL, "x0", [1.0], "config.x0",
                     id="saddle-base0-x0-value0-config.x0"),
        pytest.param("saddle", CANONICAL, "x0", ["a", "b"], "config.x0",
                     id="saddle-base1-x0-value1-config.x0"),
        pytest.param("saddle", CANONICAL, "y0", [1.0, 2.0], "config.y0",
                     id="saddle-base2-y0-value2-config.y0"),
        pytest.param("saddle", CANONICAL, "y0", "z", "config.y0",
                     id="saddle-base3-y0-z-config.y0"),
        pytest.param("run", GENERIC, "x0", [1.0, 2.0], "config.x0",
                     id="run-base4-x0-value4-config.x0"),
        pytest.param("run", GENERIC, "y0", [], "config.y0",
                     id="run-base5-y0-value5-config.y0"),
        pytest.param("run", GENERIC, "s1_0", 1, "config.s1_0",
                     id="run-base6-s1_0-1-config.s1_0"),
        pytest.param("run", GENERIC, "s2_0", -1, "config.s2_0",
                     id="run-base7-s2_0--1-config.s2_0"),
        pytest.param("run", GENERIC, "d1", 0, "config.d1",
                     id="run-base8-d1-0-config.d1"),
        pytest.param("run", GENERIC, "d2", 0, "config.d2",
                     id="run-base9-d2-0-config.d2"),
        pytest.param("solve-di", SIGN_DI, "dim", 0, "config.dim",
                     id="solve-di-base10-dim-0-config.dim"),
        pytest.param("saddle", CANONICAL, "problem.theta", [[1.0, 0.0]], "problem.theta",
                     id="saddle-base11-problem.theta-value11-problem.theta"),
        pytest.param("solve-di", DUAL_DI, "field.saddle_dual.theta", [[1.0, 0.0]],
                     "config.field.saddle_dual.theta",
                     id="solve-di-base12-field.saddle_dual.theta-value12"
                        "-config.field.saddle_dual.theta"),
        pytest.param("saddle", CANONICAL, "problem.kernel", TWO_LAWS, "problem.kernel",
                     id="saddle-base13-problem.kernel-value13-problem.kernel"),
        pytest.param("solve-di", DUAL_DI, "field.saddle_dual.kernel", TWO_LAWS,
                     "config.field.saddle_dual.kernel",
                     id="solve-di-base14-field.saddle_dual.kernel-value14"
                        "-config.field.saddle_dual.kernel"),
        pytest.param("validate", CANONICAL, "problem.kernel", TWO_LAWS, "problem.kernel",
                     id="validate-base15-problem.kernel-value15-problem.kernel"),
        pytest.param("validate", CANONICAL, "problem.theta", [[1.0, 0.0]], "problem.theta",
                     id="validate-base16-problem.theta-value16-problem.theta"),
        pytest.param("saddle", CANONICAL, "noise.kind", "cauchy", "noise",
                     id="saddle-base17-noise.kind-cauchy-noise"),
        pytest.param("validate", CANONICAL, "noise.kind", "cauchy", "noise",
                     id="validate-base18-noise.kind-cauchy-noise"),
        pytest.param("validate", GENERIC, "noise.kind", "cauchy", "noise",
                     id="validate-base19-noise.kind-cauchy-noise"),
        pytest.param("validate", CANONICAL, "x0", [1.0], "config.x0",
                     id="validate-base20-x0-value20-config.x0"),
        pytest.param("validate", CANONICAL, "y0", [1.0, 2.0], "config.y0",
                     id="validate-base21-y0-value21-config.y0"),
        pytest.param("run --replicas 2", GENERIC, "x0", [1.0, 2.0], "config.x0",
                     id="run --replicas 2-base22-x0-value22-config.x0"),
        pytest.param("saddle --replicas 2", CANONICAL, "y0", [1.0, 2.0], "config.y0",
                     id="saddle --replicas 2-base23-y0-value23-config.y0"),
        pytest.param("solve-di", DUAL_DI, "z0", [0.0, 1.0], "config.z0",
                     id="solve-di-base24-z0-value24-config.z0"),
        pytest.param("validate", DUAL_DI, "z0", [0.0, 1.0], "config.z0",
                     id="validate-base25-z0-value25-config.z0"),
        pytest.param("validate", DUAL_DI, "T", MISSING, "config.T",
                     id="validate-base26-T-value26-config.T"),
        pytest.param("solve-di", SIGN_DI, "dt", 0.0, "config.dt",
                     id="solve-di-base27-dt-0.0-config.dt"),
        pytest.param("validate", SIGN_DI, "dt", 0.0, "config.dt",
                     id="validate-base28-dt-0.0-config.dt"),
        pytest.param("solve-di", SIGN_DI, "T", 1e-4, "config.T",
                     id="solve-di-base29-T-0.0001-config.T"),
        pytest.param("validate", SIGN_DI, "T", 1e-4, "config.T",
                     id="validate-base30-T-0.0001-config.T"),
        pytest.param("solve-di", SIGN_DI, "selection", "bogus", "config.selection",
                     id="solve-di-base31-selection-bogus-config.selection"),
        pytest.param("validate", SIGN_DI, "selection", "bogus", "config.selection",
                     id="validate-base32-selection-bogus-config.selection"),
        # Non-finite problem data, and a radius whose square overflows.
        pytest.param("saddle", CANONICAL, "problem.radius", math.inf, "problem",
                     id="saddle-base33-problem.radius-inf-problem"),
        pytest.param("saddle", CANONICAL, "problem.radius", math.nan, "problem",
                     id="saddle-base34-problem.radius-nan-problem"),
        pytest.param("saddle", CANONICAL, "problem.radius", 1e200, "problem",
                     id="saddle-base35-problem.radius-1e+200-problem"),
        pytest.param("saddle", CANONICAL, "problem.epsilon", math.nan, "problem",
                     id="saddle-base36-problem.epsilon-nan-problem"),
        pytest.param("saddle", CANONICAL, "problem.growth", math.nan, "problem",
                     id="saddle-base37-problem.growth-nan-problem"),
        pytest.param("saddle", CANONICAL, "problem.theta", [[math.nan, 0.0], [0.0, 1.0]],
                     "problem",
                     id="saddle-base38-problem.theta-value38-problem"),
        pytest.param("saddle", CANONICAL, "problem.w", [[math.inf], [0.0]], "problem",
                     id="saddle-base39-problem.w-value39-problem"),
        pytest.param("validate", CANONICAL, "problem.radius", math.inf, "problem",
                     id="validate-base40-problem.radius-inf-problem"),
        pytest.param("validate", CANONICAL, "problem.radius", math.nan, "problem",
                     id="validate-base41-problem.radius-nan-problem"),
        pytest.param("validate", CANONICAL, "problem.radius", 1e200, "problem",
                     id="validate-base42-problem.radius-1e+200-problem"),
        pytest.param("validate", CANONICAL, "problem.epsilon", math.nan, "problem",
                     id="validate-base43-problem.epsilon-nan-problem"),
        pytest.param("validate", CANONICAL, "problem.growth", math.nan, "problem",
                     id="validate-base44-problem.growth-nan-problem"),
        pytest.param("validate", CANONICAL, "problem.theta", [[math.nan, 0.0], [0.0, 1.0]],
                     "problem",
                     id="validate-base45-problem.theta-value45-problem"),
        pytest.param("validate", CANONICAL, "problem.w", [[math.inf], [0.0]], "problem",
                     id="validate-base46-problem.w-value46-problem"),
        # theta and w whose columns do not match C's d1 and d2.
        pytest.param("saddle", CANONICAL, "problem.theta",
                     [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "problem.theta",
                     id="saddle-base47-problem.theta-value47-problem.theta"),
        pytest.param("saddle", CANONICAL, "problem.w", [[2.0, 0.0], [0.0, 0.0]],
                     "problem.w",
                     id="saddle-base48-problem.w-value48-problem.w"),
        pytest.param("validate", CANONICAL, "problem.theta",
                     [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "problem.theta",
                     id="validate-base49-problem.theta-value49-problem.theta"),
        pytest.param("validate", CANONICAL, "problem.w", [[2.0, 0.0], [0.0, 0.0]],
                     "problem.w",
                     id="validate-base50-problem.w-value50-problem.w"),
        # A kernel row with NaN, which passes both sign and sum checks.
        pytest.param("saddle", CANONICAL, "problem.kernel", NAN_KERNEL, "problem.kernel",
                     id="saddle-base51-problem.kernel-value51-problem.kernel"),
        pytest.param("validate", CANONICAL, "problem.kernel", NAN_KERNEL, "problem.kernel",
                     id="validate-base52-problem.kernel-value52-problem.kernel"),
        pytest.param("solve-di", DUAL_DI, "field.saddle_dual.kernel", NAN_KERNEL,
                     "config.field.saddle_dual.kernel",
                     id="solve-di-base53-field.saddle_dual.kernel-value53"
                        "-config.field.saddle_dual.kernel"),
        # Non-finite starting iterates.
        pytest.param("saddle", CANONICAL, "x0", [math.nan, 0.0], "config.x0",
                     id="saddle-base54-x0-value54-config.x0"),
        pytest.param("saddle", CANONICAL, "y0", [math.inf], "config.y0",
                     id="saddle-base55-y0-value55-config.y0"),
        pytest.param("run", GENERIC, "x0", [math.nan], "config.x0",
                     id="run-base56-x0-value56-config.x0"),
        pytest.param("run", GENERIC, "y0", [-math.inf], "config.y0",
                     id="run-base57-y0-value57-config.y0"),
        pytest.param("solve-di", SIGN_DI, "z0", [math.nan], "config.z0",
                     id="solve-di-base58-z0-value58-config.z0"),
        pytest.param("validate", CANONICAL, "x0", [math.nan, 0.0], "config.x0",
                     id="validate-base59-x0-value59-config.x0"),
        pytest.param("validate", CANONICAL, "y0", [math.inf], "config.y0",
                     id="validate-base60-y0-value60-config.y0"),
        pytest.param("validate", GENERIC, "x0", [math.nan], "config.x0",
                     id="validate-base61-x0-value61-config.x0"),
        pytest.param("validate", SIGN_DI, "z0", [math.inf], "config.z0",
                     id="validate-base62-z0-value62-config.z0"),
        # Integer fields: infinite or fractional values.
        pytest.param("run", GENERIC, "steps", math.inf, "config.steps",
                     id="run-config.steps-inf"),
        pytest.param("saddle", CANONICAL, "steps", math.inf, "config.steps",
                     id="saddle-config.steps-inf"),
        pytest.param("run", GENERIC, "seed", math.inf, "config.seed",
                     id="run-config.seed-inf"),
        pytest.param("run", GENERIC, "diagnostics.n_windows", math.inf,
                     "config.diagnostics.n_windows",
                     id="run-config.diagnostics.n_windows-inf"),
        pytest.param("validate", GENERIC, "diagnostics.n_windows", math.inf,
                     "config.diagnostics.n_windows",
                     id="validate-config.diagnostics.n_windows-inf"),
        pytest.param("run", GENERIC, "steps", 1.5, "config.steps",
                     id="run-config.steps-frac"),
        pytest.param("run", GENERIC, "d1", 1.7, "config.d1", id="run-config.d1-frac"),
        pytest.param("validate", GENERIC, "d1", 1.7, "config.d1",
                     id="validate-config.d1-frac"),
        pytest.param("solve-di", SIGN_DI, "dim", 1.5, "config.dim",
                     id="solve-di-config.dim-frac"),
        # Drifts whose values do not live in the space of their iterate.
        pytest.param("run", GENERIC_2D, "drift_slow.name", "negate_x",
                     "config.drift_slow.name", id="run-config.drift_slow.name-negate_x"),
        pytest.param("validate", GENERIC_2D, "drift_slow.name", "negate_x",
                     "config.drift_slow.name",
                     id="validate-config.drift_slow.name-negate_x"),
        pytest.param("run", GENERIC_2D, "drift_fast.name", "negate_y",
                     "config.drift_fast.name", id="run-config.drift_fast.name-negate_y"),
        pytest.param("validate", GENERIC_2D, "drift_fast.name", "negate_y",
                     "config.drift_fast.name",
                     id="validate-config.drift_fast.name-negate_y"),
        # An APT horizon longer than the run's slow clock.
        pytest.param("run", GENERIC, "diagnostics.apt_horizon", 1e3,
                     "config.diagnostics.apt_horizon",
                     id="run-config.diagnostics.apt_horizon-long"),
        pytest.param("validate", GENERIC, "diagnostics.apt_horizon", 1e3,
                     "config.diagnostics.apt_horizon",
                     id="validate-config.diagnostics.apt_horizon-long"),
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
            line = (
                "diagnostics" if named.startswith("config.diagnostics.")
                else CONSTRUCTION_LINE[cfg["kind"]]
            )
            assert f"[FAIL] {line}: {named}: " in out
            return
        assert err.startswith(f"{named}: ")
        # Refused before anything runs: nothing is written.
        assert not (tmp_path / "out").exists()

    def test_refusal_ids_unique(self):
        (mark,) = [
            m for m in self.test_value_the_constructors_refuse_named.pytestmark
            if m.name == "parametrize"
        ]
        ids = [case.id for case in mark.args[1]]
        assert None not in ids
        assert len(set(ids)) == len(ids)


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

    def test_validate_refuses_knots_that_do_not_fit(self, tmp_path, capsys):
        cfg = dict(json.loads((CONFIGS / "sign_di.json").read_text()), T=1e13)
        cfg["out"] = str(tmp_path / "out")
        assert main(["validate", "--config", str(write_config(tmp_path, cfg))]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] field construction: config.T: " in out
        assert "do not fit in memory" in out


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
        H = cli.drift_map(name, 2, 3, 2)
        for x in POINTS:
            y = np.array([-x[0], 0.5, 1.0])
            expect = np.array(DRIFT_FORMS[name](x, y))
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

    @pytest.mark.parametrize("name", sorted(DRIFT_FORMS))
    def test_drift_row_forms(self, name):
        # Every built-in drift but sign has a row form, which
        # test_drift_point_form_contract validates with the point form.
        H = cli.drift_map(name, 2, 3, 2)
        assert (H.point_rows is None) == (name == "sign_fast")

    def test_toy_run_same_with_and_without_row_forms(self, tmp_path, monkeypatch):
        # The toy config's run takes the block sweeps; without row forms it
        # steps one step at a time, to the same bytes.
        cfg = json.loads((CONFIGS / "toy_two_timescale.json").read_text())
        cfg["steps"] = 3000
        cfg["noise"] = {"kind": "uniform", "fast_scale": 0.3, "slow_scale": 0.3}
        outs = []
        for rows in (True, False):
            if not rows:
                zmaps = {name: (lambda dim, f=f: f(dim)[:2] + (None,))
                         for name, f in cli.ZMAPS.items()}
                monkeypatch.setattr(cli, "ZMAPS", zmaps)
            assert (cli.drift_map("negate_x", 1, 1, 1).point_rows is None) == (not rows)
            cfg["out"] = str(tmp_path / f"out{rows}")
            assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
            outs.append((tmp_path / f"out{rows}" / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

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
