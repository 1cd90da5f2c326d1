"""Spans around the calls into each layer, recorded from outside the package.

The package imports several helpers by name (``fixed_two`` looks up
``is_minimal_variant``, ``valid_two_set``, ``canonical_rdf`` and
``same_component`` in its own namespace, ``roman`` looks up
``is_connected_set`` in its own), so the wrappers replace those names where
they are looked up and ``Tracer.installed`` puts the originals back.  The
solver is wrapped in a delegating proxy that keeps ``.graph`` and
``.variant``, so the engine's identity checks still pass.

Each span records (id, parent, name, start, end).  Spans nest strictly because
the program runs on one thread and every generator step is timed as its own
span, so a span's self time is its duration minus the durations of its
direct children.  The program has no queues or locks, so nothing waits and
no waiting time is recorded.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Span names, one per layer boundary the benchmark wraps.
LOOP = "bench.loop"
ENGINE = "engine"
FIRST = "fixed_two.first"
STREAM = "fixed_two.stream"
WINDOW = "fixed_two.window"
VALID = "roman.valid_two_set"
CANON = "roman.canonical_rdf"
MINIMAL = "roman.is_minimal_variant"
CONNECT = "graphs.connectivity"
FORMAT = "cli.format"
SPAN_NAMES = (LOOP, ENGINE, FIRST, STREAM, WINDOW, VALID, CANON, MINIMAL, CONNECT, FORMAT)
LOG_ARRAYS = (("id", "q"), ("parent", "q"), ("name", "B"), ("start", "d"), ("end", "d"))

# (module attribute, span name) pairs replaced while tracing
_FIXED_TWO_NAMES = (
    ("is_minimal_variant", MINIMAL),
    ("valid_two_set", VALID),
    ("canonical_rdf", CANON),
    ("same_component", CONNECT),
)
_ROMAN_NAMES = (("is_connected_set", CONNECT),)


class _Frame:
    """An open span."""

    __slots__ = ("id", "name", "start", "child")

    def __init__(self, span_id: int, name: str):
        self.id = span_id
        self.name = name
        self.start = 0.0
        self.child = 0.0  # time covered by direct children so far


class Tracer:
    """Per-name call counts and self times, plus an in-memory span log.

    The log holds every span while ``logging`` is true; the benchmark turns
    it off after the first traced cycle, which bounds its size, while counts
    and self times keep accumulating.
    """

    def __init__(self):
        self._names = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._stack = [_Frame(0, "")]  # sentinel: id 0 is "no parent"
        self._next_id = 0
        self.logging = True
        self.log = {key: array(code) for key, code in LOG_ARRAYS}
        self.calls = Counter()  # spans opened, per name
        self.self_s = Counter()
        self.accepted = Counter()  # calls whose result was truthy
        self.generators = Counter()  # generators created, per span name
        self.tables_built = 0
        self.window_tests = 0
        self.window_hits = 0

    def open(self, name: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, name)
        self._stack.append(frame)
        self.calls[name] += 1
        frame.start = perf_counter()
        return frame

    def close(self, frame: _Frame) -> float:
        """End the innermost span; returns its end time."""
        t = perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        duration = t - frame.start
        self.self_s[frame.name] += duration - frame.child
        parent.child += duration
        if self.logging:
            log = self.log
            log["id"].append(frame.id)
            log["parent"].append(parent.id)
            log["name"].append(self._names[frame.name])
            log["start"].append(frame.start)
            log["end"].append(t)
        return t

    @contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    def function(self, fn, name: str):
        """fn wrapped in a span; counts truthy results too."""

        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if result:
                self.accepted[name] += 1
            return result

        return traced

    def generator(self, gen, name: str):
        """gen with every step timed as its own span."""
        self.generators[name] += 1
        return self._steps(gen, name)

    def _steps(self, gen, name: str):
        try:
            while True:
                frame = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(frame)
                yield item
        finally:
            gen.close()

    def solver(self, solver):
        return _SolverProxy(solver, self)

    @contextmanager
    def installed(self):
        """Replace the layer entry points by traced wrappers, then restore."""
        from romanenum import fixed_two, roman

        saved = []
        try:
            for module, names in ((fixed_two, _FIXED_TWO_NAMES), (roman, _ROMAN_NAMES)):
                for attr, span in names:
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self.function(getattr(module, attr), span))
            saved.append((fixed_two, "WindowTables", fixed_two.WindowTables))
            fixed_two.WindowTables = _traced_tables(fixed_two.WindowTables, self)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the span log: a JSON header line, then the raw arrays in the
        header's order.  Spans appear in the order they ended."""
        header = {
            "names": list(SPAN_NAMES),
            "spans": len(self.log["id"]),
            "arrays": [[key, code, array(code).itemsize] for key, code in LOG_ARRAYS],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _code in LOG_ARRAYS:
                self.log[key].tofile(fh)


class _SolverProxy:
    """Delegates to a solver, timing first() and every stream() step."""

    def __init__(self, solver, tracer: Tracer):
        self.graph = solver.graph
        self.variant = solver.variant
        self._solver = solver
        self._tracer = tracer

    def first(self, a):
        with self._tracer.span(FIRST):
            return self._solver.first(a)

    def stream(self, a):
        return self._tracer.generator(self._solver.stream(a), STREAM)


def _traced_tables(base, tracer: Tracer):
    """A WindowTables subclass whose construction and window tests are spans.

    A test is a hit when the same table already answered the same key; the
    benchmark keeps its own key set, so the table's private memo stays
    untouched.
    """

    class TracedWindowTables(base):
        def __init__(self, *args, **kwargs):
            with tracer.span(WINDOW):
                super().__init__(*args, **kwargs)
            tracer.tables_built += 1
            self._bench_seen = set()

        def _test(self, test, key):
            tracer.window_tests += 1
            if key in self._bench_seen:
                tracer.window_hits += 1
            else:
                self._bench_seen.add(key)
            with tracer.span(WINDOW):
                return test(*key[1:])

        def start_ok(self, x, y, z):
            return self._test(super().start_ok, ("s", x, y, z))

        def middle_ok(self, w, x, y, z):
            return self._test(super().middle_ok, ("m", w, x, y, z))

        def end_ok(self, x, y, z):
            return self._test(super().end_ok, ("e", x, y, z))

    return TracedWindowTables
