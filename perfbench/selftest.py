"""Tests of the benchmark itself.

Each check must pass on real outputs and reject a perturbed copy; the result
line must name every metric of BENCHMARK.json with its unit.  Run from the
root of the repository (pytest does not collect this file on its own):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from twoscale import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _produce(tmp_path_factory, name, **overrides):
    """Run one workload's command once on its seed-1 config, shortened."""
    wl = workloads.WORKLOADS[name]
    cfg = wl.config(1)
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key] = dict(cfg[key], **value)
        else:
            cfg[key] = value
    base = tmp_path_factory.mktemp(name)
    (base / "config.json").write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(wl.argv(base / "config.json", base / "cmd")) == 0
    return base / "cmd", cfg


@pytest.fixture(scope="module")
def saddle(tmp_path_factory):
    return _produce(tmp_path_factory, "saddle_canonical", diagnostics={"n_windows": 2})


@pytest.fixture(scope="module")
def replicas(tmp_path_factory):
    return _produce(tmp_path_factory, "saddle_replicas")


@pytest.fixture(scope="module")
def envelope(tmp_path_factory):
    return _produce(tmp_path_factory, "dual_envelope", T=2.0)


@pytest.fixture(scope="module")
def setvalued(tmp_path_factory):
    return _produce(tmp_path_factory, "setvalued_run", steps=3000)


def _copy(out: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "out"
    shutil.copytree(out, dst)
    return dst


def _edit(path: Path, rows, column: str, fn) -> None:
    """Replace cells of one column of a CLI CSV (data rows count from 0)."""
    lines = path.read_text().splitlines(keepends=True)
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    j = lines[head].strip().split(",").index(column)
    for row in [rows] if isinstance(rows, int) else rows:
        cells = lines[head + 1 + row].rstrip("\n").split(",")
        cells[j] = fn(cells[j])
        lines[head + 1 + row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _bump_digit(text: str, k: int = 6) -> str:
    """Change the k-th digit of a number, counting from its first digit."""
    idx = [i for i, c in enumerate(text) if c.isdigit()][k]
    return text[:idx] + str((int(text[idx]) + 1) % 10) + text[idx + 1:]


def _fails(check, out, cfg, name):
    fails = check(out, cfg)
    assert any(f.startswith(name) for f in fails), fails


def test_saddle_passes(saddle):
    assert checks.check_saddle(*saddle) == []


@pytest.mark.parametrize("column, row, name", [
    ("X0", 1000, "recompute X"),
    ("X1", workloads.SADDLE_STEPS - 1, "recompute X"),
    ("Y0", 5, "recompute Y"),
    ("t_fast", 700, "clock t_fast"),
    ("t_slow", 700, "clock t_slow"),
])
def test_saddle_rejects_changed_digit(saddle, tmp_path, column, row, name):
    out = _copy(saddle[0], tmp_path)
    _edit(out / "trajectory.csv", row, column, _bump_digit)
    _fails(checks.check_saddle, out, saddle[1], name)


def test_saddle_rejects_split_chain(saddle, tmp_path):
    out = _copy(saddle[0], tmp_path)
    _edit(out / "trajectory.csv", 500, "S2", lambda s: str(1 - int(s)))
    _fails(checks.check_saddle, out, saddle[1], "shared chain")


def test_saddle_rejects_biased_chain(saddle, tmp_path):
    out = _copy(saddle[0], tmp_path)
    for col in ("S1", "S2"):
        _edit(out / "trajectory.csv", range(1, 2000), col, lambda s: "0")
    _fails(checks.check_saddle, out, saddle[1], "state frequency")


def test_saddle_rejects_dist_to_lambda(saddle, tmp_path):
    out = _copy(saddle[0], tmp_path)
    _edit(out / "diagnostics.csv", 1, "dist_to_lambda", _bump_digit)
    _fails(checks.check_saddle, out, saddle[1], "dist_to_lambda")


def test_saddle_rejects_report_gap(saddle, tmp_path):
    out = _copy(saddle[0], tmp_path)
    report = out / "report.txt"
    lines = report.read_text().splitlines()
    lines[0] = lines[0].rsplit("= ", 1)[0] + "= " + _bump_digit(lines[0].rsplit("= ", 1)[1], 1)
    report.write_text("\n".join(lines) + "\n")
    _fails(checks.check_saddle, out, saddle[1], "report feasibility gap")


def test_saddle_rejects_tail_off_optimum(saddle, tmp_path):
    out = _copy(saddle[0], tmp_path)
    n = saddle[1]["steps"]
    tail = range(n - n // 10, n + 1)
    _edit(out / "trajectory.csv", tail, "X0", lambda s: repr(float(s) + 0.5))
    _fails(checks.check_saddle, out, saddle[1], "tail mean x")


def test_replicas_pass(replicas):
    assert checks.check_saddle_replicas(*replicas, workloads.REPLICAS) == []


def test_replicas_reject_wrong_seed(replicas, tmp_path):
    out = _copy(replicas[0], tmp_path)
    _edit(out / "replicas.csv", 1, "seed", lambda s: str(int(s) + 1))
    _fails(lambda o, c: checks.check_saddle_replicas(o, c, workloads.REPLICAS),
           out, replicas[1], "replica index")


def test_replicas_check_each_replica(replicas, tmp_path):
    out = _copy(replicas[0], tmp_path)
    _edit(out / "replica_001" / "trajectory.csv", 300, "X0", _bump_digit)
    _fails(lambda o, c: checks.check_saddle_replicas(o, c, workloads.REPLICAS),
           out, replicas[1], "replica 1: recompute X")


def test_envelope_passes(envelope):
    assert checks.check_dual_envelope(*envelope) == []


def test_envelope_rejects_shifted_value(envelope, tmp_path):
    out = _copy(envelope[0], tmp_path)
    _edit(out / "envelope.csv", 1000, "V", lambda s: repr(float(s) + 1e-6))
    _fails(checks.check_dual_envelope, out, envelope[1], "dual value")


def test_envelope_rejects_decrease(envelope, tmp_path):
    out = _copy(envelope[0], tmp_path)
    _edit(out / "envelope.csv", 1000, "V", lambda s: repr(float(s) - 1e-3))
    _fails(checks.check_dual_envelope, out, envelope[1], "monotone")


def test_envelope_rejects_path_off_flow(envelope, tmp_path):
    out = _copy(envelope[0], tmp_path)
    _edit(out / "di_path.csv", 1500, "z0", lambda s: repr(float(s) + 1e-3))
    _fails(checks.check_dual_envelope, out, envelope[1], "exact flow")


def test_envelope_rejects_discrepancy(envelope, tmp_path):
    out = _copy(envelope[0], tmp_path)
    _edit(out / "envelope.csv", 10, "discrepancy", lambda s: "0.002")
    _fails(checks.check_dual_envelope, out, envelope[1], "envelope discrepancy")


def test_setvalued_passes(setvalued):
    assert checks.check_setvalued(*setvalued) == []


def test_setvalued_rejects_nonzero_x(setvalued, tmp_path):
    out = _copy(setvalued[0], tmp_path)
    _edit(out / "trajectory.csv", 2000, "X0", lambda s: "1e-300")
    _fails(checks.check_setvalued, out, setvalued[1], "fixed point")


def test_setvalued_rejects_changed_y(setvalued, tmp_path):
    out = _copy(setvalued[0], tmp_path)
    _edit(out / "trajectory.csv", 2000, "Y0", _bump_digit)
    _fails(checks.check_setvalued, out, setvalued[1], "recompute Y")


def test_setvalued_rejects_noise_scale(setvalued, tmp_path):
    out = _copy(setvalued[0], tmp_path)
    _edit(out / "trajectory.csv", 2000, "M2_0", lambda s: "0.75")
    _fails(checks.check_setvalued, out, setvalued[1], "noise scale")


def test_setvalued_rejects_chain_frequency(setvalued, tmp_path):
    out = _copy(setvalued[0], tmp_path)
    _edit(out / "trajectory.csv", range(1, 1000), "S1", lambda s: "1")
    _fails(checks.check_setvalued, out, setvalued[1], "S1 frequency")


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, kind):
    proc = _bench(ROOT, "--workload", "saddle_replicas", "--seed", "3",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] % workloads.REPLICAS == 0
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "dual_envelope", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
