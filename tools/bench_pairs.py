"""Run the benchmark on two checkouts in alternating pairs and record the result.

Usage, from anywhere:

    python3 tools/bench_pairs.py --before ../parent --after . \
        --workload saddle_canonical --seeds 1-10 --seconds 35 --label d1d4107-batched

For each seed, ``perfbench/run.py --workload W --seed S --seconds N --trace 0``
runs once in each checkout, from that checkout's root; the side that runs
first alternates from pair to pair, so a slow phase of the machine falls on
both sides alike.  The result goes to ``BENCH_<label>.json`` at the root of
the ``--after`` checkout: every result line, the seeds, the round settings
and round walls, each side's commit (``-dirty`` when tracked files other than
``BENCH_*.json`` differ from it), the Python and numpy versions and the CPU count, and per
end-to-end metric each side's median and quartiles and the number of pairs
the after side wins.  A pair counts only where both runs passed their checks;
a run that printed a result with ``correct: false`` or ``failed > 0`` is
listed under ``failed_checks`` instead, and the tool then exits 1, as it
does when a run exits non-zero.  The file keeps a list of rounds per
workload; each run of the tool appends one, so earlier rounds stay in the
record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def parse_seeds(text: str) -> list[int]:
    """``"1-10"``, ``"1,4,7"`` or a mix such as ``"1-3,11"``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def commit_of(checkout: Path) -> str | None:
    """Short commit of a git checkout, marked ``-dirty`` if tracked files changed."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "--short", "HEAD")
    if head is None:
        return None
    # The record itself is not code, and an earlier round may have just written it.
    changed = git("status", "--porcelain", "--untracked-files=no", "--", ".", ":!BENCH_*.json")
    return head + ("-dirty" if changed else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {
        "seed": seed,
        "exit_code": proc.returncode,
        "result": result,
        # perfbench/run.py reports the round count and each round's wall here.
        "rounds": (proc.stderr.strip().splitlines() or [""])[-1],
    }


def passed(rec: dict) -> bool:
    """Whether a run printed a result whose checks all passed."""
    result = rec["result"]
    return bool(result) and result.get("correct") is True and not result.get("failed")


def failed_checks(before: list[dict], after: list[dict]) -> list[dict]:
    """The runs that printed a result whose checks failed, with their side,
    seed, check counts and the round line, where the worker names the check."""
    return [
        {"side": side, "seed": rec["seed"], "correct": rec["result"].get("correct"),
         "failed": rec["result"].get("failed"), "rounds": rec["rounds"]}
        for side, runs in (("before", before), ("after", after))
        for rec in runs
        if rec["result"] and not passed(rec)
    ]


def summarize(before: list[dict], after: list[dict], metrics: list[dict]) -> dict:
    """Per metric, the pairs in which both runs passed their checks, the
    after side's wins among them, and each side's quartiles over them."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [
            (b["result"]["metrics"][name]["value"], a["result"]["metrics"][name]["value"])
            for b, a in zip(before, after)
            if passed(b) and passed(a)
        ]
        if not pairs:
            continue
        bv, av = np.array(pairs).T
        wins = int(np.sum(av < bv) if lower else np.sum(av > bv))
        out[name] = {
            "better": m["better"],
            "bound": m["bound"],
            "pairs": len(pairs),
            "after_wins": wins,
            **{
                f"{side}_{stat}": float(np.percentile(v, q))
                for side, v in (("before", bv), ("after", av))
                for stat, q in (("q1", 25), ("median", 50), ("q3", 75))
            },
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", required=True, type=Path, help="checkout before the change")
    ap.add_argument("--after", required=True, type=Path, help="checkout with the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = ap.parse_args(argv)

    before_dir, after_dir = args.before.resolve(), args.after.resolve()
    metrics = json.loads((after_dir / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = parse_seeds(args.seeds)
    commits = {"before": commit_of(before_dir), "after": commit_of(after_dir)}
    before, after = [], []
    for i, seed in enumerate(seeds):
        order = [("before", before_dir), ("after", after_dir)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            rec = run_once(checkout, args.workload, seed, args.seconds)
            rec["order"] = order.index((side, checkout))
            (before if side == "before" else after).append(rec)
            value = rec["result"]["metrics"]["run_s"]["value"] if rec["result"] else None
            print(f"seed {seed} {side}: run_s {value}", file=sys.stderr)

    path = after_dir / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"label": args.label}
    doc.setdefault("workloads", {}).setdefault(args.workload, []).append({
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **commits,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "seeds": seeds,
        "settings": {"seconds": args.seconds, "trace": 0,
                     "order": "alternating, before first on even pairs"},
        "summary": summarize(before, after, metrics),
        "failed_checks": failed_checks(before, after),
        "runs": {"before": before, "after": after},
    })
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    failed = [r for r in before + after if r["exit_code"] != 0 or not passed(r)]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
