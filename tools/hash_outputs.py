"""Run the same commands in two checkouts and compare every output file by SHA-256.

Usage, from anywhere:

    python3 tools/hash_outputs.py --before ../parent --after . --seeds 1-3

The commands are every ``configs/*.json`` of the ``--after`` checkout, with
``--steps 2000`` where the config has steps, ``validate`` on each of those
configs as shipped (its ``validation_report.txt`` covers the contract checks
of the drift maps and fields), ``saddle --replicas 2`` on
``configs/canonical_saddle.json`` at ``--steps 2000`` (its ``replicas.csv``
and the replica pool), and each benchmark workload of
``BENCHMARK.json`` on the config ``perfbench/workloads.py`` makes for each
seed.  The subcommand follows the config's kind: ``saddle``, ``run`` or
``solve-di`` (with ``--envelope`` for a saddle dual field).  Both sides run
``python -m twoscale.cli`` on the same config, from a fresh directory of
their own, with the same relative ``--out`` path, so the manifests' config
hashes agree.  One line is printed per output file with its digest, marked
``MISMATCH`` (with both digests) where the sides differ; a mismatched CSV
also gets how many rows differ and the largest absolute difference of
their cells, and an exit code that differs gets each side's last stderr
line.  The exit code is 1 when any file or exit code differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import parse_seeds

KIND_ARGS = {"saddle": ["saddle"], "two_timescale": ["run"], "di": ["solve-di"]}


def jobs(checkout: Path, seeds: list[int]):
    """``(name, config, argv)`` of every command, argv without config and out."""
    for path in sorted((checkout / "configs").glob("*.json")):
        cfg = json.loads(path.read_text())
        argv = list(KIND_ARGS[cfg["kind"]])
        if "saddle_dual" in cfg.get("field", {}):
            argv.append("--envelope")
        if "steps" in cfg:
            argv += ["--steps", "2000"]
        yield path.stem, cfg, argv
        yield f"{path.stem}-validate", cfg, ["validate"]
    cfg = json.loads((checkout / "configs" / "canonical_saddle.json").read_text())
    yield "canonical_saddle-replicas", cfg, ["saddle", "--steps", "2000", "--replicas", "2"]
    sys.path.insert(0, str(checkout / "perfbench"))
    import workloads

    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    for name in (w["name"] for w in bench["workloads"]):
        wl = workloads.WORKLOADS[name]
        for seed in seeds:
            yield f"{name}-seed{seed}", wl.config(seed), list(wl.args)


def run_side(checkout: Path, work: Path, name: str, cfg: dict, argv: list[str]):
    """Exit code, ``{file: sha256}`` and last stderr line of one command run
    in ``work``."""
    config = work / "configs" / f"{name}.json"
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(json.dumps(cfg))
    out = Path("out") / name
    cmd = [sys.executable, "-m", "twoscale.cli", argv[0], "--config", str(config),
           "--out", str(out), *argv[1:]]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
    files = sorted(p for p in (work / out).rglob("*") if p.is_file())
    return proc.returncode, {
        str(p.relative_to(work / out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }, (proc.stderr.strip().splitlines() or ["(none)"])[-1]


def csv_difference(before: Path, after: Path) -> str:
    """How many rows of two CSVs differ, and the largest absolute difference
    of their cells (inf where a differing cell is not a number)."""
    rows_b, rows_a = before.read_text().splitlines(), after.read_text().splitlines()
    if len(rows_b) != len(rows_a):
        return f"{len(rows_b)} rows before, {len(rows_a)} after"
    rows, worst = 0, 0.0
    for line_b, line_a in zip(rows_b, rows_a):
        if line_b == line_a:
            continue
        rows += 1
        for b, a in zip(line_b.split(","), line_a.split(",")):
            if b != a:
                try:
                    d = abs(float(a) - float(b))
                except ValueError:
                    d = math.inf
                worst = max(worst, math.inf if math.isnan(d) else d)
    return f"{rows} rows differ, largest absolute difference {worst:.3g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", required=True, type=Path, help="checkout before the change")
    ap.add_argument("--after", required=True, type=Path, help="checkout with the change")
    ap.add_argument("--seeds", default="1-3", help="workload seeds, e.g. 1-3 or 1,4,7")
    args = ap.parse_args(argv)

    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg, cmd in jobs(sides["after"], parse_seeds(args.seeds)):
            res = {
                side: run_side(root, Path(tmp) / side, name, cfg, cmd)
                for side, root in sides.items()
            }
            (b_code, b_files, b_err), (a_code, a_files, a_err) = res["before"], res["after"]
            outs = {side: Path(tmp) / side / "out" / name for side in sides}
            if b_code != a_code:
                bad += 1
                print(f"{name}: MISMATCH exit code before={b_code} after={a_code}")
                print(f"  before stderr: {b_err}\n  after stderr: {a_err}")
            for f in sorted(set(b_files) | set(a_files)):
                b, a = b_files.get(f, "missing"), a_files.get(f, "missing")
                if a == b:
                    print(f"{name}/{f} {a}")
                else:
                    bad += 1
                    print(f"{name}/{f} MISMATCH before={b} after={a}")
                    if f.endswith(".csv") and "missing" not in (a, b):
                        print(f"  {csv_difference(outs['before'] / f, outs['after'] / f)}")
    print(f"{bad} mismatches", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
