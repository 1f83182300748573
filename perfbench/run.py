"""freemoments benchmark: time from polynomial text to exact moments.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``deep``   - few terms, integer coefficients, high order: the kernel;
* ``wide``   - many terms, Gaussian-rational coefficients, low order: N;
* ``verify`` - ``freemoments verify`` on the acceptance corpus: the oracle.

The workload runs in one fresh child process (``worker.py``), one job after
another on a single thread, in closed-loop passes over the workload's jobs
until ``--seconds`` have passed.  A pass is timed from the first job's
polynomial text to the last job's moments.  Times are reported at reference
machine speed (``speed.py``): each job's wall time is scaled by a fixed
calibration loop run just before and after it, because this benchmark's
machines change speed by up to 2x within seconds.  The supervisor kills the
child if it is still running ``--seconds`` + 60 s after it started; the jobs
of the pass it was in then count as failed.  After the child ends, the gate
(``gate.py``) checks the first pass's outputs exactly; every later pass must
repeat them.

With ``--trace 0`` the last line of standard output is a JSON object with
these end-to-end metrics:

* ``wall_s.p50``  - median seconds per pass;
* ``wall_s.tail`` - the highest percentile of pass time with at least ten
  passes beyond it, or the median when there are under 20 passes (a note
  above the JSON names the percentile and the pass count);
* ``setup_s``     - median seconds to import ``freemoments``, each time in
  a fresh process that imports nothing else first (``import_probe.py``);
* ``peak_rss_mb`` - peak resident set of the workload process;
* ``ok_ratio``    - 1 - fail_ratio, where fail_ratio is failed jobs over
  jobs attempted (``failed`` and ``attempted`` in the same object).  It is
  reported as the share that succeeded so that the metric is never zero.
  A job fails on a wrong value, an exception, a nonzero CLI exit or a kill.

With ``--trace 1`` the child runs untraced for half the time and traced for
the other half, and the metrics are the per-layer figures from ``spans.py``.
The spans are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
sys.path.insert(1, str(SRC))  # the gate imports the package from this checkout
import gate  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 11
TIMEOUT_MARGIN_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not measure anything."""


def with_units(values: dict, trace: int) -> dict:
    """The metrics ``BENCHMARK.json`` declares for this mode, with their units."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def import_times(count: int) -> list:
    """Seconds to import the package, each in a fresh interpreter."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "import_probe.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise BenchError(f"importing freemoments failed:\n{done.stderr}")
        times.append(float(done.stdout))
    return times


def supervise(cmd, timeout: float):
    """Run ``cmd``; kill it after ``timeout`` seconds.

    Returns its standard output lines, its exit code (None when killed), its
    standard error and the seconds it ran.
    """
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    return out.splitlines(), code, err, perf_counter() - start


def tail(times):
    """(value, percentile): the highest percentile with ten samples beyond it.

    Under 20 samples that percentile is below the median, which is no tail,
    so the median is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 expected_path: Path = gate.EXPECTED, timeout: float = None) -> dict:
    """Measure one workload; the result line as a dict plus a ``notes`` list."""
    jobs = workloads.jobs(workload, seed)
    setup = [] if trace else import_times(SETUP_PROBES)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
    lines, code, err, ran = supervise(cmd, seconds + TIMEOUT_MARGIN_S if timeout is None else timeout)

    started, passes, done = 0, [], None
    for line in lines:
        if line == "J":
            started += 1
            continue
        event = json.loads(line)
        if event["ev"] == "pass":
            passes.append(event)
        elif event["ev"] == "done":
            done = event
    if not started:
        raise BenchError(f"the workload process ran no job (exit {code}):\n{err}")

    notes = []
    if code is None:
        notes.append(f"killed after {ran:.1f} s; the jobs of its last pass count as failed")
    elif code != 0:
        notes.append(f"workload process exited {code}: {err.strip()}")
    finished = len(passes) * len(jobs)
    in_flight = started - finished
    if done is not None:
        import freemoments as fm  # noqa: F401 - the gate needs the oracle

        unverified = gate.check(fm, seed, jobs, done["outputs"],
                                gate.load_expected(expected_path))
        for index, reason in sorted(unverified.items()):
            notes.append(f"job {index} ({jobs[index][0]} @M={jobs[index][2]}) wrong: {reason}")
    else:
        unverified = dict.fromkeys(range(len(jobs)), "not checked")
    failed = in_flight + sum(len(set(p["bad"]) | set(unverified)) for p in passes)

    result = {"correct": failed == 0 and code == 0, "attempted": started,
              "failed": failed}
    if trace:
        if done is None:
            raise BenchError(f"the traced run did not finish:\n{err}")
        result["metrics"] = with_units(done["layers"], trace)
        return {**result, "notes": notes}

    times = [p["seconds"] for p in passes]
    if in_flight:
        times.append(ran)  # censored at the length of the whole run
    tail_s, tail_pct = tail(times)
    notes.append(f"wall_s.tail is p{tail_pct:.0f} of {len(times)} passes")
    if passes:
        notes.append(f"unscaled wall seconds per pass: median "
                     f"{statistics.median(p['wall'] for p in passes):.4g}")
    values = {
        "wall_s.p50": statistics.median(times),
        "wall_s.tail": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": (done["peak_rss_mb"] if done else
                        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024),
        "ok_ratio": 1.0 - failed / started,
    }
    result["metrics"] = with_units(values, trace)
    return {**result, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="freemoments benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "freemoments" / "__init__.py").is_file():
        print(f"error: no freemoments sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    notes = result.pop("notes")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:30s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':30s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} jobs)")
    for note in notes:
        print(f"  note: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
