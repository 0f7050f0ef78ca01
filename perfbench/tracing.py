"""Per-layer tracing of the ``twoscale`` package from outside its code.

``Tracer.install`` replaces public functions and methods of the package's
modules with wrappers that record one span per call, ``(id, parent, name,
start, end)``, and counts taken from arguments and results.  A function is
replaced in every module namespace that binds it, so ``lambda_min`` is traced
whether ``saddle`` or ``cli`` calls it.  Spans stay in memory until the run
ends.  A pool worker forked while tracing records its own spans, as roots of
its process, and writes them to a file when it exits; ``collect_children``
merges those files.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _count_setvalued(counts, args, result):
    counts["svmaps.setvalued"] += result.n_points > 1


def _count_steps(counts, args, result):
    counts["recursion.steps"] += result.n_steps


def _count_euler(counts, args, result):
    counts["dynamics.euler_steps"] += len(result.times) - 1


def _count_csv(counts, args, result):
    counts["recursion.csv_bytes"] += os.path.getsize(args[1])


# (module, attribute, span name, count hook)
TARGETS = [
    ("convex", "project", "convex.project", None),
    ("svmaps", "SetValuedMap.__call__", "svmaps.drift", _count_setvalued),
    ("markov", "sample_next", "markov.sample_next", None),
    ("markov", "FiniteKernel.row", "markov.row", None),
    ("markov", "stationary_set", "markov.stationary_set", None),
    ("meanfield", "MeanField.__call__", "meanfield.field", None),
    ("dynamics", "select_velocity", "dynamics.select_velocity", None),
    ("dynamics", "di_solve", "dynamics.di_solve", _count_euler),
    ("dynamics", "apt_metric", "dynamics.apt_metric", None),
    ("dynamics", "DIPath.to_csv", "dynamics.to_csv", None),
    ("recursion", "run", "recursion.run", _count_steps),
    ("recursion", "interpolate", "recursion.interpolate", None),
    ("recursion", "interpolation_gap", "recursion.interpolation_gap", None),
    ("recursion", "Trajectory.to_csv", "recursion.to_csv", _count_csv),
    ("saddle", "lambda_min", "saddle.lambda_min", None),
    ("saddle", "verify_envelope", "saddle.verify_envelope", None),
    ("saddle", "optimality_report", "saddle.optimality_report", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self, child_dir: Path):
        self.spans: list[tuple] = []       # (pid, id, parent, name, start, end)
        self.counts: Counter = Counter()
        self._own: list[tuple] = []        # this process's spans, without pid
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []
        self.child_dir = child_dir
        multiprocessing.util.register_after_fork(self, Tracer._start_child)

    def _wrap(self, name, fn, hook):
        own, stack, ids, counts, clock = (
            self._own, self._stack, self._ids, self.counts, time.perf_counter
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                own.append((sid, parent, name, start, end))
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "twoscale" or n.startswith("twoscale.")
        ]
        for module, attr, name, hook in TARGETS:
            owner = sys.modules[f"twoscale.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, hook))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(name, orig, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, traced)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def _start_child(self) -> None:
        # Runs in a multiprocessing child right after fork.
        if not self._undo:
            return
        self._own.clear()
        self.counts.clear()
        self._stack[:] = [0]
        multiprocessing.util.Finalize(self, self._dump_child, exitpriority=10)

    def _dump_child(self) -> None:
        path = self.child_dir / f"child-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": self._own, "counts": self.counts}))

    def collect(self) -> None:
        """Move this process's spans, and those of exited children, to ``spans``."""
        pid = os.getpid()
        self.spans += [(pid, *s) for s in self._own]
        self._own.clear()
        for path in sorted(self.child_dir.glob("child-*.json")):
            data = json.loads(path.read_text())
            child = int(path.stem.split("-")[1])
            self.spans += [(child, *s) for s in data["spans"]]
            self.counts.update(data["counts"])
            path.unlink()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("pid,id,parent,name,start,end\n")
            for s in self.spans:
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % s)


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics from spans and counts of one traced command."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    names = {(p, i): n for p, i, _, n, _, _ in spans}
    covered: defaultdict = defaultdict(float)
    for p, i, parent, n, start, end in spans:
        covered[(p, parent)] += end - start
    envelope_solves = 0
    for p, i, parent, n, start, end in spans:
        calls[n] += 1
        total[n] += end - start
        self_s[n] += end - start - covered[(p, i)]
        if n == "saddle.lambda_min" and names.get((p, parent)) == "saddle.verify_envelope":
            envelope_solves += 1
    steps = counts["recursion.steps"]
    drifts = calls["svmaps.drift"]
    return {
        "recursion.run_s": total["recursion.run"],
        "recursion.run_self_s": self_s["recursion.run"],
        "recursion.steps": steps,
        "recursion.us_per_step": 1e6 * total["recursion.run"] / steps if steps else 0.0,
        "recursion.interpolate_calls": calls["recursion.interpolate"],
        "recursion.interpolate_s": total["recursion.interpolate"],
        "recursion.interpolation_gap_s": total["recursion.interpolation_gap"],
        "recursion.to_csv_s": total["recursion.to_csv"],
        "recursion.csv_mb": counts["recursion.csv_bytes"] / 1e6,
        "dynamics.to_csv_s": total["dynamics.to_csv"],
        "svmaps.drift_calls": drifts,
        "svmaps.drift_s": total["svmaps.drift"],
        "svmaps.setvalued_share": counts["svmaps.setvalued"] / drifts if drifts else 0.0,
        "dynamics.select_velocity_calls": calls["dynamics.select_velocity"],
        "dynamics.select_velocity_s": total["dynamics.select_velocity"],
        "convex.project_calls": calls["convex.project"],
        "convex.project_s": total["convex.project"],
        "markov.sample_next_calls": calls["markov.sample_next"],
        "markov.sample_next_s": total["markov.sample_next"],
        "markov.row_calls": calls["markov.row"],
        "markov.stationary_set_s": total["markov.stationary_set"],
        "dynamics.di_solve_calls": calls["dynamics.di_solve"],
        "dynamics.di_solve_s": total["dynamics.di_solve"],
        "dynamics.euler_steps": counts["dynamics.euler_steps"],
        "dynamics.apt_metric_s": total["dynamics.apt_metric"],
        "meanfield.field_calls": calls["meanfield.field"],
        "meanfield.field_s": total["meanfield.field"],
        "saddle.lambda_min_calls": calls["saddle.lambda_min"],
        "saddle.lambda_min_s": total["saddle.lambda_min"],
        "saddle.verify_envelope_s": total["saddle.verify_envelope"],
        "saddle.verify_envelope_solves": envelope_solves,
        "saddle.optimality_report_s": total["saddle.optimality_report"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "trace.spans": len(spans),
    }
