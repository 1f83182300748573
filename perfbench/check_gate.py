"""Check that the benchmark's own failure accounting works.

    python3 perfbench/check_gate.py

Three short runs of the ``deep`` workload at the default seed:

1. with the stored expected moments: no job may fail;
2. with one stored moment changed (m = 64 of the ``x1*x2 + x2*x1`` anchor,
   beyond the oracle's reach, so only the stored table can catch it): the
   run must report fail_ratio > 0 and ``correct: false``;
3. with a supervisor timeout shorter than one pass: the job that was
   running when the process was killed must count as failed.

Exits 0 when all three behave, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SECONDS = 1


def fail_ratio(result: dict) -> float:
    return result["failed"] / result["attempted"]


def main() -> int:
    seed = workloads.DEFAULT_SEED
    problems = []

    clean = run.run_workload("deep", seed, SECONDS, 0)
    if clean["failed"] or not clean["correct"]:
        problems.append(f"clean run failed: {clean}")

    expected = gate.load_expected()
    key = gate.job_key(*workloads.DEEP_ANCHORS[0])
    expected[key][-1] = str(int(expected[key][-1]) + 1)
    corrupt = run.OUT / "expected-one-wrong.json"
    corrupt.parent.mkdir(parents=True, exist_ok=True)
    corrupt.write_text(json.dumps(expected))
    wrong = run.run_workload("deep", seed, SECONDS, 0, expected_path=corrupt)
    if not (fail_ratio(wrong) > 0 and not wrong["correct"]):
        problems.append(f"one wrong moment went unnoticed: {wrong}")

    hung = run.run_workload("deep", seed, SECONDS, 0, timeout=1.0)
    if not (hung["failed"] >= 1 and not hung["correct"]):
        problems.append(f"a killed job was not counted as failed: {hung}")

    for name, result in (("clean", clean), ("one wrong moment", wrong), ("timeout", hung)):
        print(f"{name}: fail_ratio {fail_ratio(result):.3f} "
              f"({result['failed']} of {result['attempted']}), correct {result['correct']}")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
