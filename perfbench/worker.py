"""One benchmark run: set up a workload, run its command in whole rounds, report.

``run.py`` starts this process and passes, in ``PERFBENCH_T0``, the
``time.monotonic()`` reading taken just before starting it, so that
``setup_s`` covers interpreter start, importing ``twoscale`` with numpy and
scipy, and writing the generated config.  Each round calls ``twoscale.cli.main``
on that config once, untraced; the first round's outputs are checked by
``checks`` and every later round must write the same bytes.  With ``--trace
1`` the run spends the first half of its time on untraced rounds and the
rest on traced rounds, and reports per-layer metrics instead.

On a 2-core VM shared with other tenants the processor drifts between 1.0
and 1.6 times its fastest speed, in phases lasting from seconds to minutes,
and moves wall and CPU time together.  So a fixed loop of small numpy and
Python operations, like the program's hot paths, is timed before and after
every untraced round, and ``run_s`` and ``cpu_s`` are each round's times
scaled to the loop's reference speed.  Raw wall times go to standard error.

Prints one JSON line last: correct, attempted, failed and the metrics named
in BENCHMARK.json, each with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads

OUT_DIR = Path("perfbench") / "out"
MIN_ROUNDS = 3
CAL_ITERATIONS = 20_000
# The fastest time of the calibration loop seen on a 2-core VM with Python
# 3.11.7 and numpy 2.4.6; normalized times are seconds at that speed.
CAL_REFERENCE_S = 0.027


def _calibrate() -> float:
    u, x, s = np.array([0.5, -0.25]), np.zeros(2), 0
    t0 = time.perf_counter()
    for i in range(CAL_ITERATIONS):
        x = (x + u) * 0.5
        s += i * i
    return time.perf_counter() - t0


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _digest(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


class Run:
    """Rounds of one workload's command, with their timings and outcomes."""

    def __init__(self, cli, wl: workloads.Workload, cfg: dict, root: Path):
        self.cli, self.wl, self.cfg = cli, wl, cfg
        self.dir = root / OUT_DIR / wl.name
        self.out = self.dir / "cmd"
        self.argv = wl.argv(self.dir / "config.json", self.out)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference = None

    def round(self) -> tuple[float, float]:
        """One command: returns its wall time and its CPU time with children."""
        shutil.rmtree(self.out, ignore_errors=True)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(self.argv)
        except Exception:
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        failed = self.wl.ops if code is None else self.wl.failures(self.out, code)
        self.attempted += self.wl.ops
        self.failed += failed
        if failed == 0:
            self._verify()
        return wall, cpu

    def _verify(self) -> None:
        digest = _digest(self.out)
        if self.reference is None:
            self.reference = digest
            self.problems += self.wl.check(self.out, self.cfg)
        elif digest != self.reference:
            self.problems.append("determinism: a round wrote different outputs")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    t_start = float(os.environ["PERFBENCH_T0"])
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    from twoscale import cli

    wl = workloads.WORKLOADS[args.workload]
    cfg = wl.config(args.seed)
    run = Run(cli, wl, cfg, root)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    (run.dir / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")
    setup_s = time.monotonic() - t_start

    begin = time.perf_counter()

    def elapsed():
        return time.perf_counter() - begin

    walls = []
    if not args.trace:
        runs, cpus, cals = [], [], [_calibrate()]
        # Stop when one more round would end nearer past the limit than short of it.
        while len(walls) < MIN_ROUNDS or elapsed() + walls[-1] / 2 < args.seconds:
            wall, cpu = run.round()
            cals.append(_calibrate())
            scale = CAL_REFERENCE_S / ((cals[-2] + cals[-1]) / 2)
            walls.append(wall)
            runs.append(wall * scale)
            cpus.append(cpu * scale)
        run_s = statistics.median(runs)
        peak_kb = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_kb / 1024,
            "steps_per_s": wl.steps(cfg) / run_s,
        }
        kind = "end_to_end"
    else:
        import tracing

        tracer = tracing.Tracer(run.dir)
        while not walls or elapsed() < args.seconds / 2:
            walls.append(run.round()[0])
        traced, per_round = [], []
        while not traced or elapsed() < args.seconds:
            tracer.install()
            try:
                traced.append(run.round()[0])
            finally:
                tracer.uninstall()
            before = len(tracer.spans)
            tracer.collect()
            per_round.append(tracing.layer_metrics(tracer.spans[before:], tracer.counts))
            tracer.counts.clear()
        tracer.write(run.dir / "spans.csv")
        values = {
            name: statistics.median(r[name] for r in per_round) for name in per_round[0]
        }
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        walls += traced
        kind = "per_layer"

    print(
        f"{wl.name} seed={args.seed} rounds={len(walls)} setup={setup_s:.3f}s "
        f"walls=" + ",".join(f"{w:.3f}" for w in walls),
        file=sys.stderr,
    )
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    names = {m["name"]: m["unit"] for m in spec[kind]}
    if set(names) != set(values):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(values))}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
