"""In-memory span log for the traced benchmark run.

A span is one call across a layer boundary: name, start, end, parent span
and run id, a run being one traced op. Spans are appended to arrays while the run goes on and written
out only when it ends, so recording does no I/O. Self time is computed
afterwards from the span tree.
"""

from __future__ import annotations

import array
import bisect
import gzip
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

FORMAT = "pitchsim-spans/1"
NO_PARENT = -1
_NAME_BITS = 8

# (field, array typecode) in the order they follow the header line
_FIELDS = (("name", "B"), ("parent", "i"), ("run", "H"),
           ("start_ns", "q"), ("end_ns", "q"), ("counted", "I"))


class SpanLog:
    """Spans of one benchmark run, plus counters recorded at the same
    boundaries.

    To keep each call cheap, a span is stored as three array entries:
    ``parent << 8 | name id``, start and end. Spans of one run are
    contiguous, so run ids are kept as the index where each run begins.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.tag = array.array("q")
        self.start_ns = array.array("q")
        self.end_ns = array.array("q")
        self.stack = [NO_PARENT]
        self.run_starts: list[int] = []
        self.counts: Counter[str] = Counter()
        self.counted: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.end_ns)

    def start_run(self) -> None:
        """Begin a new run; spans recorded from now on carry its id."""
        self.run_starts.append(len(self))

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            if len(self.names) == 1 << _NAME_BITS:
                raise ValueError("too many span names")
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_result=None):
        """Return ``fn`` recording one span per call; ``on_result`` sees
        each return value after the span has closed."""
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        stack = self.stack
        push, pop = stack.append, stack.pop
        tag_add, start_add = self.tag.append, self.start_ns.append
        end_add, ends = self.end_ns.append, self.end_ns

        def traced(*args, **kwargs):
            idx = len(ends)
            tag_add(stack[-1] << _NAME_BITS | nid)
            end_add(0)
            push(idx)
            start_add(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_calls(self, fn):
        """Return ``fn`` counting its calls, per innermost open span,
        without recording spans of its own."""
        counted, stack = self.counted, self.stack
        get = counted.get

        def counted_call(*args, **kwargs):
            top = stack[-1]
            counted[top] = get(top, 0) + 1
            return fn(*args, **kwargs)

        return counted_call

    def columns(self) -> dict[str, array.array]:
        """Every span field as one array, in ``_FIELDS`` order."""
        n = len(self)
        mask = (1 << _NAME_BITS) - 1
        return {
            "name": array.array("B", (t & mask for t in self.tag)),
            "parent": array.array("i", (t >> _NAME_BITS for t in self.tag)),
            "run": array.array("H", (bisect.bisect_right(self.run_starts, i) - 1
                                     for i in range(n))),
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "counted": array.array("I", (self.counted.get(i, 0) for i in range(n))),
        }


@dataclass(frozen=True)
class TracerCost:
    """What recording one span adds, in ns: to the parent's self time
    (bookkeeping outside the clock reads), to the span's own self time
    (dispatch inside them), and what one counted call adds to the span it
    happens in."""
    parent_ns: float
    own_ns: float
    counted_ns: float


def calibrate(repeats: int = 30_000, rounds: int = 5) -> TracerCost:
    """Measure the tracer's cost on a function that does nothing; the
    median of ``rounds`` measurements of ``repeats`` calls each."""
    clock = time.perf_counter_ns
    samples = []

    def work(a, b, c, d):
        return None

    def loop(fn):
        for _ in range(repeats):
            fn(1, 2, 3, 4)

    for _ in range(rounds):
        log = SpanLog()
        log.start_run()
        t0 = clock()
        loop(work)
        plain = clock() - t0
        log.wrap(loop, "traced")(log.wrap(work, "child"))
        log.wrap(loop, "counted")(log.count_calls(work))
        totals = log_self_times(log)
        samples.append(((totals.self_ns[(0, "traced")] - plain) / repeats,
                        totals.self_ns[(0, "child")] / repeats,
                        (totals.self_ns[(0, "counted")] - plain) / repeats))
    return TracerCost(*(statistics.median(col) for col in zip(*samples)))


@dataclass
class SpanTotals:
    """Per (run id, span name): spans, their direct children, counted calls
    made inside them, and summed self time."""
    calls: Counter = field(default_factory=Counter)
    children: Counter = field(default_factory=Counter)
    counted: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)

    def tracer_ns(self, key, cost: TracerCost) -> float:
        """The tracer's own time inside the self time of ``key``'s spans,
        by the calibrated cost."""
        return (self.calls[key] * cost.own_ns + self.children[key] * cost.parent_ns
                + self.counted[key] * cost.counted_ns)


def self_times(names, name, parent, run, start_ns, end_ns, counted) -> SpanTotals:
    """Sum self time per (run id, span name).

    A span's self time is its duration minus the durations of its direct
    children. Calls are nested and never overlap, so the children cover
    disjoint parts of the parent's interval.
    """
    n = len(start_ns)
    child_ns = array.array("q", bytes(8 * n))
    children = array.array("i", bytes(4 * n))
    for i in range(n):
        p = parent[i]
        if p != NO_PARENT:
            child_ns[p] += end_ns[i] - start_ns[i]
            children[p] += 1
    totals = SpanTotals()
    for i in range(n):
        key = (run[i], names[name[i]])
        totals.calls[key] += 1
        totals.children[key] += children[i]
        totals.counted[key] += counted[i]
        totals.self_ns[key] += end_ns[i] - start_ns[i] - child_ns[i]
    return totals


def log_self_times(log: SpanLog) -> SpanTotals:
    return self_times(log.names, **log.columns())


def write_spans(path: str, names: list[str], columns: dict[str, array.array],
                meta: dict) -> None:
    """Write every span, gzip-compressed: one JSON header line, then one
    raw array per field of ``SpanLog.columns()``, ``counted`` being the
    counted calls made inside each span."""
    header = dict(meta, format=FORMAT, byteorder=sys.byteorder,
                  count=len(columns["end_ns"]), names=names,
                  fields=[list(f) for f in _FIELDS])
    with gzip.open(path, "wb", compresslevel=1) as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for attr, _ in _FIELDS:
            fh.write(columns[attr].tobytes())


def read_spans(path: str) -> tuple[dict, dict[str, array.array]]:
    """Read a file written by ``write_spans``: (header, field -> array)."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header.get("format") != FORMAT:
            raise ValueError(f"{path}: not a {FORMAT} file")
        columns = {}
        for attr, code in header["fields"]:
            col = array.array(code)
            col.frombytes(fh.read(col.itemsize * header["count"]))
            if header["byteorder"] != sys.byteorder:
                col.byteswap()
            columns[attr] = col
    return header, columns
