"""Benchmark entry point for twoscale: run one workload for a while, print a JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload saddle_canonical --seed 1 --seconds 15 --trace 0

Starts ``perfbench/worker.py`` in a process of its own, so that the worker's
set-up time runs from its process start, and relays its output and exit
code.  The worker and every process it starts are killed if it outlives the
time limit.  Exits with code 2, printing no result, when the checkout holds
no ``twoscale`` sources.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

TIME_LIMIT_S = 170


def main(argv: list[str]) -> int:
    if not Path("src/twoscale/cli.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("run from the root of a twoscale checkout: src/twoscale/cli.py "
              "or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    worker = Path(__file__).resolve().parent / "worker.py"
    env = dict(os.environ, PERFBENCH_T0=repr(time.monotonic()))
    proc = subprocess.Popen([sys.executable, str(worker), *argv], env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"worker still running after {TIME_LIMIT_S} s; killed", file=sys.stderr)
        return 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
