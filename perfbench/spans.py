"""Span tracing from outside the package.

The tracer wraps public functions on the module attributes that callers
actually look up at call time (``engine.build_zq_star`` is what
``engine.moments`` calls, ``cli.moments`` is what the CLI calls), so no file
of the package is changed.  Each wrapped call records a span
``(id, name, start, end, parent, job)`` in memory.  ``word_moment`` is
called once per monomial of the expanded power, tens of thousands of times
per pass, so its calls are folded into their parent span as a call count
and a total time instead of one span each.

Size counters are computed from the arguments and returned objects, and
only while ``counting`` is set, so that at most one pass pays for them.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], int]


def _bits(value) -> int:
    """Bit length of a kernel coefficient: an int or a GaussInt."""
    if isinstance(value, int):
        return value.bit_length()
    return max(value.a.bit_length(), value.b.bit_length())


def _count_parse(counts: Counter, args, result) -> None:
    counts["ncpoly.terms"] += result.n_terms


def _count_build(counts: Counter, args, rep) -> None:
    counts["linrep.N"] += rep.dim
    for mat in rep.mats:
        for row in mat:
            for entry in row:
                counts["linrep.nnz_z0"] += bool(entry.coefficient(0))
                counts["linrep.nnz_z1"] += bool(entry.coefficient(1))


def _count_reduce(counts: Counter, args, mats) -> None:
    for mat in mats:
        for row in mat:
            for entry in row:
                counts["engine.reduce_cells"] += len(entry.coeffs)
                counts["engine.reduce_nonzero"] += sum(1 for c in entry.coeffs if c)


def _count_iterate(counts: Counter, args, raw) -> None:
    counts["kernel.sweeps"] += args[3]
    top = max((_bits(v) for v in raw), default=0)
    counts["kernel.coeff_bits_max"] = max(counts["kernel.coeff_bits_max"], top)


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self.folded: Dict[Tuple[Optional[int], str], List[float]] = {}
        self.counts: Counter = Counter()
        self.counting = False
        self.job = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, Callable]] = []

    def _span(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, name, start, end, parent, self.job)
            if self.counting and count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _fold(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                parent = self._stack[-1] if self._stack else None
                slot = self.folded.setdefault((parent, name), [0, 0.0])
                slot[0] += 1
                slot[1] += elapsed
                if self.counting:
                    self.counts[name + "_calls"] += 1

        return traced

    def install(self, fm) -> None:
        """Wrap the layer boundaries of the imported package ``fm``."""
        targets = [
            (fm, "parse_polynomial", "ncpoly.parse", _count_parse),
            (fm, "moments", "engine.moments", None),
            (fm.engine, "build_zq_star", "linrep.build_zq_star", _count_build),
            (fm.engine, "reduce_rep", "engine.reduce_rep", _count_reduce),
            (fm.engine, "iterate_system", "engine.iterate_system", None),
            (fm._kernel, "iterate", "_kernel.iterate", _count_iterate),
            (fm.cli, "main", "cli.main", None),
            (fm.cli, "parse_polynomial", "ncpoly.parse", _count_parse),
            (fm.cli, "moments", "engine.moments", None),
            (fm.cli, "brute_moment", "oracle.brute_moment", None),
        ]
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._span(name, original, count))
        original = fm.oracle.word_moment
        self._saved.append((fm.oracle, "word_moment", original))
        fm.oracle.word_moment = self._fold("oracle.word_moment", original)

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_times(self, first_span: int, end_span: int) -> Dict[str, float]:
        """Per-layer totals over the spans with ids in [first_span, end_span).

        ``<name>`` is the summed duration of the spans with that name and
        ``<name>.self`` the summed self time: duration minus the time its
        child spans and folded calls cover.  ``roots`` sums the spans with no
        parent, which equals the sum of every self time.
        """
        totals: Dict[str, float] = defaultdict(float)
        covered: Dict[int, float] = defaultdict(float)
        spans = self.spans[first_span:end_span]
        for sid, name, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        for (parent, name), (_, seconds) in self.folded.items():
            if parent is not None and first_span <= parent < end_span:
                covered[parent] += seconds
                totals[name] += seconds
        for sid, name, start, end, parent, _ in spans:
            totals[name] += end - start
            totals[name + ".self"] += end - start - covered[sid]
            if parent is None:
                totals["roots"] += end - start
        return totals

    def dump(self, path) -> None:
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "job"],
            "spans": self.spans,
            "folded": [
                {"parent": parent, "name": name, "calls": calls, "seconds": seconds}
                for (parent, name), (calls, seconds) in self.folded.items()
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
