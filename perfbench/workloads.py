"""The benchmark's workloads: a config made from the seed, a CLI command, checks.

Each workload is one ``twoscale`` subcommand on a config generated from the
benchmark seed.  The program sees only that config; the seed picks the
program's RNG seed and, where the workload has no randomness, its start.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

# The problem of configs/canonical_saddle.json: optimum x* = (1, 1),
# y* = -1.00125.
CANONICAL_PROBLEM = {
    "theta": [[1.0, 0.0], [0.0, 1.0]],
    "C": [[[1.0, 0.0]], [[0.0, 1.0]]],
    "w": [[2.0], [0.0]],
    "kernel": [[0.5, 0.5], [0.5, 0.5]],
    "epsilon": 0.01,
    "radius": 4.0,
    "growth": 2.0,
}
SADDLE_STEPS = 10_000
SETVALUED_STEPS = 15_000
REPLICAS = 2


def _saddle_config(rng: random.Random, n_windows: int) -> dict:
    return {
        "kind": "saddle",
        "problem": CANONICAL_PROBLEM,
        "schedule": {"alpha": 0.6, "beta": 0.9, "a0": 0.5, "b0": 1.0},
        "noise": {"kind": "uniform", "fast_scale": 0.1, "slow_scale": 0.0},
        "steps": SADDLE_STEPS,
        # Replica i runs seed + i, which must stay below 2^64.
        "seed": rng.getrandbits(63),
        "tail_fraction": 0.1,
        "diagnostics": {
            "window_T": 1.0, "n_windows": n_windows, "apt_horizon": 4.0,
            "apt_dt": 0.005, "K_terms": 4,
        },
    }


def _dual_envelope_config(rng: random.Random) -> dict:
    return {
        "kind": "di",
        "field": {"saddle_dual": CANONICAL_PROBLEM},
        "z0": [round(rng.uniform(-0.5, 0.5), 6)],
        "T": 20.0,
        "dt": 0.001,
    }


def _setvalued_config(rng: random.Random) -> dict:
    return {
        "kind": "two_timescale",
        "d1": 1,
        "d2": 1,
        "alphabet": 2,
        "drift_fast": {"name": "sign_fast"},
        "drift_slow": {"name": "negate_y"},
        "kernel_fast": {"name": "x_threshold"},
        "kernel_slow": [[0.5, 0.5], [0.5, 0.5]],
        "x0": [0.0],
        "y0": [round(rng.uniform(-2.0, 2.0), 6)],
        "schedule": {"alpha": 0.6, "beta": 0.9},
        "noise": {"kind": "uniform", "fast_scale": 0.0, "slow_scale": 0.5},
        "steps": SETVALUED_STEPS,
        "seed": rng.getrandbits(63),
        "diagnostics": {"window_T": 1.0, "n_windows": 16},
    }


def _one_op(out: Path, code: int) -> int:
    return int(code != 0)


def _replica_failures(out: Path, code: int) -> int:
    try:
        with open(out / "replicas.csv") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    except OSError:
        return REPLICAS
    return REPLICAS - sum(int(r["exit_code"]) == 0 for r in rows)


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[random.Random], dict]
    args: tuple[str, ...]                      # subcommand and its flags
    check: Callable[[Path, dict], list[str]]
    ops: int                                   # operations in one command
    steps: Callable[[dict], int]               # work counted by steps_per_s
    failures: Callable[[Path, int], int] = _one_op

    def config(self, seed: int) -> dict:
        return self.make_config(random.Random(f"{self.name}:{seed}"))

    def argv(self, config_path: Path, out: Path) -> list[str]:
        return [self.args[0], "--config", str(config_path), "--out", str(out),
                *self.args[1:]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "saddle_canonical",
            lambda rng: _saddle_config(rng, n_windows=16),
            ("saddle",),
            checks.check_saddle,
            ops=1,
            steps=lambda cfg: cfg["steps"],
        ),
        Workload(
            "dual_envelope",
            _dual_envelope_config,
            ("solve-di", "--envelope"),
            checks.check_dual_envelope,
            ops=1,
            steps=lambda cfg: round(cfg["T"] / cfg["dt"]),
        ),
        Workload(
            "setvalued_run",
            _setvalued_config,
            ("run",),
            checks.check_setvalued,
            ops=1,
            steps=lambda cfg: cfg["steps"],
        ),
        Workload(
            "saddle_replicas",
            lambda rng: _saddle_config(rng, n_windows=2),
            ("saddle", "--replicas", str(REPLICAS)),
            lambda out, cfg: checks.check_saddle_replicas(out, cfg, REPLICAS),
            ops=REPLICAS,
            steps=lambda cfg: REPLICAS * cfg["steps"],
            failures=_replica_failures,
        ),
    )
}
