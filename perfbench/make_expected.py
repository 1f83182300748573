"""Regenerate ``expected.json``: exact moments for every default-seed job.

    python3 perfbench/make_expected.py

Run it only on a commit whose moments are trusted; the gate then holds later
commits to these values.  Each stored value is also checked here against
``brute_moment`` for every order the oracle can reach.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import freemoments as fm  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    table = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs(workload, workloads.DEFAULT_SEED):
            text, n_vars, order = job
            values = [str(v) for v in fm.moments(fm.parse_polynomial(text, n_vars), order).values]
            reason = gate.check_job(fm, job, {"values": values}, {}, False)
            if reason is not None:
                print(f"{text} @M={order}: {reason}", file=sys.stderr)
                return 1
            table[gate.job_key(*job)] = values
    with open(gate.EXPECTED, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} jobs to {gate.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
