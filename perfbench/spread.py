"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads deep,wide,verify --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json

For each workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles over the median.  A spread is flagged when it
is not below a third of the metric's bound in ``BENCHMARK.json``
(``setup_s`` is exempt).  With ``--baseline`` it also makes one traced run
per workload at the default seed and writes every figure, with the Python
version and the machine's CPU count, to the given JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    notes = [line.strip()[len("note: "):] for line in lines if line.strip().startswith("note: ")]
    return {**json.loads(lines[-1]), "notes": notes}


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--baseline", type=Path, help="write the figures to this file")
    parser.add_argument("--note", default="", help="stored in the baseline, e.g. the commit")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_range(args.seeds)
    report, steady = {}, True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed jobs of "
              f"{sum(r['attempted'] for r in runs)}")
        metrics = {}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            flag = ""
            if name != "setup_s" and stats["spread"] >= bound / 3:
                flag, steady = "  <-- not below bound/3", False
            print(f"  {name:14s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  spread {stats['spread']:.3f}  bound {bound}{flag}")
            metrics[name] = {**stats, "unit": runs[0]["metrics"][name]["unit"]}
        tails = sorted({note for r in runs for note in r["notes"] if note.startswith("wall_s.tail")})
        report[workload] = {"seeds": seeds, "failed": failed, "end_to_end": metrics,
                            "tail_notes": tails}

    if args.baseline is not None:
        for workload in report:
            traced = run_once(workload, workloads.DEFAULT_SEED, seconds, 1)
            report[workload]["per_layer"] = {
                "seed": workloads.DEFAULT_SEED,
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            }
        doc = {
            "note": args.note,
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
            "run_seconds": seconds,
            "workloads": report,
        }
        args.baseline.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {args.baseline}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
