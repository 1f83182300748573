"""One workload in a fresh process: import, timed passes, optional tracing.

Started by ``run.py``; not meant to be run by hand.  It prints one line per
event on standard output, flushed at once so the supervisor still sees how
far it got if it has to kill this process:

* ``J`` as each job starts;
* ``{"ev": "pass", "seconds": t, "wall": w, "traced": b, "bad": [i, ...]}``
  after each pass, where ``seconds`` is the pass time at reference speed
  (``speed.py``), ``wall`` the plain wall time, and ``bad`` lists jobs that
  raised, exited nonzero or returned something other than in the first
  pass;
* ``{"ev": "done", "outputs": [...], "peak_rss_mb": x, "layers": {...}}``
  at the end, with the first pass's outputs for the correctness gate.

Every pass starts from the same state: the garbage collector has run and
every ``functools`` cache in the package is empty, as in a fresh CLI call.
A pass's time is the sum of its jobs' times; the calibration loop runs
between jobs, outside them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def emit(event) -> None:
    line = event if isinstance(event, str) else json.dumps(event)
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def import_package():
    """The package under test, from this checkout's sources."""
    sys.path.insert(0, str(SRC))
    import freemoments
    import freemoments.cli  # noqa: F401 - not imported by the package itself

    if not Path(freemoments.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"freemoments was imported from {freemoments.__file__}, not {SRC}")
    return freemoments


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "freemoments" or name.startswith("freemoments."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def moments_job(fm, text: str, n_vars: int, order: int):
    """Polynomial text to the exact moments for m = 1..order."""
    try:
        return fm.moments(fm.parse_polynomial(text, n_vars), order).values
    except Exception as exc:  # a failed job is counted, not fatal
        return exc


def verify_job(fm, text: str, n_vars: int, order: int):
    """``freemoments verify`` as a user runs it, with CSV output."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--poly", text, "--n-vars", str(n_vars),
            "--max-order", str(order), "--format", "csv"]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fm.cli.main(argv)
    except Exception as exc:  # a failed job is counted, not fatal
        return (None, "", repr(exc))
    return (rc, out.getvalue(), err.getvalue())


def job_failed(workload: str, output) -> bool:
    if workload == "verify":
        return output[0] != 0
    return isinstance(output, Exception)


def to_json(workload: str, output):
    if workload == "verify":
        rc, stdout, stderr = output
        return {"rc": rc, "stdout": stdout, "stderr": stderr}
    if isinstance(output, Exception):
        return {"error": repr(output)}
    return {"values": [str(v) for v in output]}


def layer_metrics(tracer: Tracer, traced, untraced_median: float) -> dict:
    """Per-layer figures: counts from the first traced pass, times from the rest.

    ``traced`` holds (first span, end span, seconds at reference speed, wall
    seconds) per traced pass.  The first traced pass also computes the size
    counters, so its times are left out when there are others.  Layer times
    are scaled to reference speed like their pass.
    """
    per_pass = []
    for first, end, seconds, wall in traced[1:] or traced:
        times = tracer.layer_times(first, end)
        scale = seconds / wall
        per_pass.append(({k: v * scale for k, v in times.items()}, seconds))
    times = {
        "ncpoly.parse_s": "ncpoly.parse",
        "linrep.build_s": "linrep.build_zq_star",
        "engine.reduce_s": "engine.reduce_rep",
        "engine.iterate_system_self_s": "engine.iterate_system.self",
        "engine.moments_self_s": "engine.moments.self",
        "kernel.iterate_s": "_kernel.iterate",
        "oracle.brute_s": "oracle.brute_moment",
        "oracle.expand_s": "oracle.brute_moment.self",
        "cli.main_self_s": "cli.main.self",
    }
    layers = {
        metric: statistics.median(t.get(key, 0.0) for t, _ in per_pass)
        for metric, key in times.items()
    }
    counts = tracer.counts
    cells = counts["engine.reduce_cells"]
    layers.update(
        {
            "ncpoly.terms": counts["ncpoly.terms"],
            "linrep.N": counts["linrep.N"],
            "linrep.nnz_z0": counts["linrep.nnz_z0"],
            "linrep.nnz_z1": counts["linrep.nnz_z1"],
            "engine.reduce_cells": cells,
            "engine.reduce_fill": counts["engine.reduce_nonzero"] / cells if cells else 0.0,
            "kernel.sweeps": counts["kernel.sweeps"],
            "kernel.coeff_bits_max": counts["kernel.coeff_bits_max"],
            "oracle.word_moment_calls": counts["oracle.word_moment_calls"],
            "trace.coverage": statistics.median(t["roots"] / s for t, s in per_pass),
            "trace.overhead_ratio": statistics.median(s for _, s in per_pass) / untraced_median,
        }
    )
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, help="where to write the spans (trace 1)")
    args = parser.parse_args(argv)

    fm = import_package()

    jobs = workloads.jobs(args.workload, args.seed)
    run_job = verify_job if args.workload == "verify" else moments_job
    tracer = Tracer() if args.trace else None
    # with tracing on, the first half of the run is untraced so that the
    # overhead can be measured in the same process
    trace_from = args.seconds / 2 if args.trace else None

    first_outputs = None
    untraced_times, traced = [], []
    begin = perf_counter()
    while True:
        tracing = bool(
            tracer is not None and untraced_times and perf_counter() - begin >= trace_from
        )
        if tracing and not traced:
            tracer.install(fm)
            tracer.counting = True
        gc.collect()
        clear_caches()
        first_span = len(tracer.spans) if tracing else 0
        outputs, seconds, wall = [], 0.0, 0.0
        before = speed.loop_seconds()
        for index, (text, n_vars, order) in enumerate(jobs):
            emit("J")
            if tracing:
                tracer.job = index
            start = perf_counter()
            outputs.append(run_job(fm, text, n_vars, order))
            elapsed = perf_counter() - start
            after = speed.loop_seconds()
            wall += elapsed
            seconds += speed.scaled(elapsed, before, after)
            before = after
        if tracing:
            tracer.counting = False
            traced.append((first_span, len(tracer.spans), seconds, wall))
        else:
            untraced_times.append(seconds)

        if first_outputs is None:
            first_outputs = outputs
        bad = [
            i for i, (out, ref) in enumerate(zip(outputs, first_outputs))
            if job_failed(args.workload, out) or out != ref
        ]
        emit({"ev": "pass", "seconds": seconds, "wall": wall, "traced": tracing, "bad": bad})
        if perf_counter() - begin >= args.seconds and (tracer is None or traced):
            break

    done = {
        "ev": "done",
        "outputs": [to_json(args.workload, out) for out in first_outputs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.remove()
        done["layers"] = layer_metrics(tracer, traced, statistics.median(untraced_times))
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(args.spans)
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
