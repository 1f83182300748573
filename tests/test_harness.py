"""The benchmark harness wraps package attributes by name; pin them here."""

import importlib.util
import sys
from pathlib import Path

import freemoments
import freemoments.cli  # the tracer wraps cli attributes; the package does not import it

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKER = PERFBENCH / "worker.py"


def test_tracer_installs_and_removes():
    # a renamed attribute would make --trace 1 fail or silently read 0
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = [
        (freemoments.engine, "build_zq_star"),
        (freemoments.engine, "reduce_rep"),
        (freemoments.engine, "iterate_system"),
        (freemoments._kernel, "iterate"),
        (freemoments.cli, "moments"),
        (freemoments.cli, "brute_moment"),
    ]
    originals = [getattr(module, attr) for module, attr in wrapped]
    tracer = spans.Tracer()
    tracer.install(freemoments)
    try:
        for (module, attr), original in zip(wrapped, originals):
            assert getattr(module, attr) is not original, attr
    finally:
        tracer.remove()
    for (module, attr), original in zip(wrapped, originals):
        assert getattr(module, attr) is original, attr


def test_clear_caches_empties_the_pairing_table():
    # every timed pass starts cold, as a fresh CLI call does; the worker
    # puts its own directory on sys.path to import its siblings
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
    finally:
        sys.path[:] = path
    p = freemoments.parse_polynomial("x1*x2 + x2*x1 + x1^2", 2)
    freemoments.oracle.brute_moments(p, 6)
    assert len(freemoments.oracle._pairing_table()) > 1
    worker.clear_caches()
    assert freemoments.oracle._pairing_table() == {"": 1}
