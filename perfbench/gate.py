"""Correctness gate, run by the supervisor after the timed passes.

Each job's first-pass output is checked two ways:

* against the exact moments stored in ``expected.json``, for every job the
  table holds.  It holds every job of the default seed, and jobs that are
  the same for every seed (the anchors and the ``verify`` corpus) are
  checked for any seed;
* against ``brute_moment`` for every order the oracle can reach, that is
  every m with terms^m <= ``ORACLE_CAP``, for any seed.

``verify`` jobs must also exit 0 and report engine = oracle on every row of
the CLI's CSV output.  A job that fails any check is reported, never raised.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import workloads

EXPECTED = Path(__file__).resolve().parent / "expected.json"
ORACLE_CAP = 10**4


def job_key(text: str, n_vars: int, order: int) -> str:
    return f"{text}|{n_vars}|{order}"


def load_expected(path: Path = EXPECTED) -> Dict[str, List[str]]:
    with open(path) as fh:
        return json.load(fh)


def _values(output: dict) -> List[str]:
    """The moment strings of one job's output; ValueError if it failed."""
    if "rc" not in output:
        if "error" in output:
            raise ValueError(f"raised {output['error']}")
        return output["values"]
    if output["rc"] != 0:
        raise ValueError(f"exit code {output['rc']}: {output['stderr'].strip()}")
    lines = output["stdout"].splitlines()
    if not lines or lines[0] != "m,engine,oracle,match":
        raise ValueError("no CSV header in the verify output")
    values = []
    for m, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if fields[0] != str(m) or fields[3] != "1" or fields[1] != fields[2]:
            raise ValueError(f"verify row {line!r}")
        values.append(fields[1])
    return values


def check_job(fm, job, output: dict, expected, must_have: bool) -> Optional[str]:
    """Why the job's output is wrong, or None when it is right."""
    text, n_vars, order = job
    try:
        values = _values(output)
    except ValueError as exc:
        return str(exc)
    if len(values) != order:
        return f"{len(values)} moments for M={order}"
    want = expected.get(job_key(text, n_vars, order))
    if want is None and must_have:
        return "no expected moments stored for this default-seed job"
    if want is not None and values != want:
        m = next(m for m, (a, b) in enumerate(zip(values, want), start=1) if a != b)
        return f"m={m}: got {values[m - 1]}, expected {want[m - 1]}"
    poly = fm.parse_polynomial(text, n_vars)
    m = 1
    while m <= order and poly.n_terms ** m <= ORACLE_CAP:
        oracle = str(fm.brute_moment(poly, m, ORACLE_CAP))
        if values[m - 1] != oracle:
            return f"m={m}: got {values[m - 1]}, oracle {oracle}"
        m += 1
    return None


def check(fm, seed: int, jobs: Sequence, outputs: Sequence[dict],
          expected: Dict[str, List[str]]) -> Dict[int, str]:
    """Failing job indices mapped to the reason."""
    must_have = seed == workloads.DEFAULT_SEED
    failures = {}
    for index, (job, output) in enumerate(zip(jobs, outputs)):
        reason = check_job(fm, job, output, expected, must_have)
        if reason is not None:
            failures[index] = reason
    return failures
