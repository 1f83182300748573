"""The benchmark harness wraps package attributes by name; pin them here."""

import importlib.util
from pathlib import Path

import freemoments
import freemoments.cli  # the tracer wraps cli attributes; the package does not import it

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
