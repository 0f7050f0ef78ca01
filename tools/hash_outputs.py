"""Run the same commands in two checkouts and compare every output file by SHA-256.

Usage, from anywhere:

    python3 tools/hash_outputs.py --before ../parent --after . --seeds 1-3

The commands are every ``configs/*.json`` of the ``--after`` checkout, with
``--steps 2000`` where the config has steps, and each benchmark workload of
``BENCHMARK.json`` on the config ``perfbench/workloads.py`` makes for each
seed.  The subcommand follows the config's kind: ``saddle``, ``run`` or
``solve-di`` (with ``--envelope`` for a saddle dual field).  Both sides run
``python -m twoscale.cli`` on the same config, from a fresh directory of
their own, with the same relative ``--out`` path, so the manifests' config
hashes agree.  One line is printed per output file with its digest, marked
``MISMATCH`` (with both digests) where the sides differ; the exit code is 1
when any file or exit code differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
    sys.path.insert(0, str(checkout / "perfbench"))
    import workloads

    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    for name in (w["name"] for w in bench["workloads"]):
        wl = workloads.WORKLOADS[name]
        for seed in seeds:
            yield f"{name}-seed{seed}", wl.config(seed), list(wl.args)


def run_side(checkout: Path, work: Path, name: str, cfg: dict, argv: list[str]):
    """Exit code and ``{file: sha256}`` of one command run in ``work``."""
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
    }


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
            (b_code, b_files), (a_code, a_files) = res["before"], res["after"]
            if b_code != a_code:
                bad += 1
                print(f"{name}: MISMATCH exit code before={b_code} after={a_code}")
            for f in sorted(set(b_files) | set(a_files)):
                b, a = b_files.get(f, "missing"), a_files.get(f, "missing")
                if a == b:
                    print(f"{name}/{f} {a}")
                else:
                    bad += 1
                    print(f"{name}/{f} MISMATCH before={b} after={a}")
    print(f"{bad} mismatches", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
