"""The pair summary of ``tools/bench_pairs.py``."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "run_s", "better": "lower", "bound": 0.25}]


def record(seed, run_s, correct=True, failed=0, exit_code=0):
    result = None if exit_code else {
        "correct": correct, "attempted": 27, "failed": failed,
        "metrics": {"run_s": {"value": run_s}},
    }
    return {"seed": seed, "exit_code": exit_code, "result": result,
            "rounds": "" if correct else "check failed: determinism"}


class TestSummarize:
    def test_pair_with_failed_check_left_out(self):
        # The after side wins seeds 1 and 3 and loses seed 2.  The parent's
        # run at seed 3 failed a check, the after run at seed 4 reported a
        # failed check, and seed 5's after run exited non-zero: those pairs
        # count neither as pairs nor as wins.
        before = [record(1, 0.20), record(2, 0.20), record(3, 0.30, correct=False, failed=2),
                  record(4, 0.30), record(5, 0.30)]
        after = [record(1, 0.10), record(2, 0.25), record(3, 0.10),
                 record(4, 0.10, failed=1), record(5, 0.10, exit_code=1)]
        run_s = bench_pairs.summarize(before, after, METRICS)["run_s"]
        assert (run_s["pairs"], run_s["after_wins"]) == (2, 1)
        assert (run_s["before_median"], run_s["after_median"]) == (0.20, 0.175)
        failed = bench_pairs.failed_checks(before, after)
        assert [(f["side"], f["seed"], f["correct"], f["failed"]) for f in failed] == [
            ("before", 3, False, 2), ("after", 4, True, 1),
        ]
        assert failed[0]["rounds"] == "check failed: determinism"

    def test_all_passed_counts_every_pair(self):
        before = [record(s, 0.2) for s in range(1, 4)]
        after = [record(s, 0.1) for s in range(1, 4)]
        run_s = bench_pairs.summarize(before, after, METRICS)["run_s"]
        assert (run_s["pairs"], run_s["after_wins"]) == (3, 3)
        assert bench_pairs.failed_checks(before, after) == []
