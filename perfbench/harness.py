"""Closed-loop timing, in-memory tracing and metric helpers shared by the
workloads.

One process, one thread, one client: each op starts only after the previous
one returned and its output was checked.  Op latency covers the call into
the library only; the independent output check runs outside the timed
region.

Every duration is CPU time of the benchmark thread (``time.thread_time``).
The op loop is single-threaded and never waits on I/O, so on an idle
machine this equals wall time; on a shared virtual machine it leaves out
the time the thread is descheduled, which is where most run-to-run noise
comes from.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

SWEEP = "valuation.sweep"
REF_EVERY = 0.25   # seconds of op time between two timings of the reference work
cpu_clock = time.thread_time
cpu_clock_ns = time.thread_time_ns


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer used in untraced runs: records nothing."""

    enabled = False

    def span(self, name: str, rows: int = 0):
        return _NULL_SPAN


@dataclass
class Op:
    """One closed-loop operation: ``run`` calls the library, ``check``
    returns None or a failure message, ``corrupt`` perturbs an output by a
    given amount (used by the self-test), ``inputs`` describes the inputs
    for a failure record."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    corrupt: Callable[[Any, float], Any]
    inputs: Callable[[], dict]


@dataclass
class Workload:
    """Built inputs of one workload run: its passes (lists of ops, each
    pass drawn afresh from the seed), ops run once after the traced passes
    (too slow or too variable to repeat within the time budget; they feed
    only per-module metrics), the family instances whose sweeps the traced run
    records, counters the ops update (read only from the traced
    passes), and the tracer the ops report spans to (a NullTracer until the
    traced passes)."""

    name: str
    passes: list[list[Op]] = field(default_factory=list)
    once: list[Op] = field(default_factory=list)
    families: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    tracer: Any = None

    def __post_init__(self):
        if self.tracer is None:
            self.tracer = NullTracer()

    @property
    def ops(self) -> list[Op]:
        return [op for ops in self.passes for op in ops]


class _Span:
    __slots__ = ("tracer", "name", "rows", "index")

    def __init__(self, tracer, name, rows):
        self.tracer = tracer
        self.name = name
        self.rows = rows

    def __enter__(self):
        self.index = self.tracer.begin(self.name, self.rows)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.index)
        return False


class Tracer:
    """Spans (name, start, end, parent, op id, rows) kept in compact columns
    in memory and written out once at the end of the run."""

    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end_ns = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.rows = array("q")
        self._stack: list[int] = []
        self.op_id = -1

    def begin(self, name: str, rows: int = 0) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.rows.append(rows)
        self.end_ns.append(0)
        self._stack.append(index)
        self.start.append(cpu_clock_ns())
        return index

    def end(self, index: int) -> None:
        self.end_ns[index] = cpu_clock_ns()
        self._stack.pop()

    def span(self, name: str, rows: int = 0) -> _Span:
        return _Span(self, name, rows)

    def wrap_sweeps(self, family) -> None:
        """Time every backward sweep of this family instance.  The wrapper is
        set as an instance attribute, so the object keeps its class and
        every library code path that calls ``family.node_values`` records."""
        inner = family.node_values
        n_nodes = family.tree.n_nodes

        def node_values(values):
            index = self.begin(SWEEP, max(1, np.size(values) // n_nodes))
            try:
                return inner(values)
            finally:
                self.end(index)

        family.node_values = node_values

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end_ns, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
        }


class SpanTable:
    """Read-only view of recorded spans with per-span self time and the
    layer span each span belongs to (its ancestor directly under an op)."""

    def __init__(self, tracer: Tracer):
        cols = tracer.columns()
        self.names = tracer.names
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.rows = cols["rows"]
        self.duration = (cols["end_ns"] - cols["start_ns"]) * 1e-9
        n = self.name.size
        child = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.child_time = child
        self.self_time = self.duration - child
        is_op = np.array([nm.startswith("op.") for nm in self.names], dtype=bool)
        self.is_op = is_op[self.name] if n else np.zeros(0, dtype=bool)
        # climb to the ancestor whose parent is an op span (or the root)
        top = np.arange(n)
        while n:
            p = self.parent[top]
            move = (p >= 0) & ~self.is_op[np.maximum(p, 0)]
            move &= ~self.is_op[top]
            if not move.any():
                break
            top = np.where(move, p, top)
        self.top = top

    def ids(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def ids_prefix(self, prefix: str) -> np.ndarray:
        hits = [k for k, nm in enumerate(self.names) if nm.startswith(prefix)]
        return np.flatnonzero(np.isin(self.name, hits))

    def under(self, ids: np.ndarray, top_name: str) -> np.ndarray:
        """The subset of ``ids`` whose layer ancestor is named top_name."""
        if top_name not in self.names or ids.size == 0:
            return np.zeros(0, dtype=np.int64)
        return ids[self.name[self.top[ids]] == self.names.index(top_name)]

    def children_within_parent(self) -> bool:
        return bool(np.all(self.child_time <= self.duration + 1e-12))


def run_pass(workload: Workload, ops: list[Op], *, corrupt: float = 0.0, first_id: int = 0):
    """Run ops in order, reporting spans to the workload's tracer with op
    ids from first_id on.  Between ops, once per REF_EVERY seconds of op
    time, the reference work is timed too, and each op is paired with the
    mean of the two reference times around it.  Returns op latencies (s),
    those reference times (s) and the failure records; a failure never
    stops the pass."""
    tracer = workload.tracer
    latency = np.empty(len(ops))
    failures = []
    refs = [reference_seconds()]
    segment = np.zeros(len(ops), dtype=np.int64)   # index into refs taken before each op
    since_ref = 0.0
    for i, op in enumerate(ops):
        segment[i] = len(refs) - 1
        if tracer.enabled:
            tracer.op_id = first_id + i
            index = tracer.begin("op." + op.kind)
        started = cpu_clock()
        error = None
        out = None
        try:
            out = op.run()
        except Exception as exc:  # a raising op is a failed op, never a crash
            error = f"raised {type(exc).__name__}: {exc}"
        latency[i] = cpu_clock() - started
        if tracer.enabled:
            tracer.end(index)
            tracer.op_id = -1
        since_ref += latency[i]
        if since_ref >= REF_EVERY:
            refs.append(reference_seconds())
            since_ref = 0.0
        if error is None:
            try:
                if corrupt:
                    out = op.corrupt(out, corrupt)
                error = op.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"op": first_id + i, "kind": op.kind, "error": error, "inputs": op.inputs()})
    refs.append(reference_seconds())
    refs = np.array(refs)
    return latency, 0.5 * (refs[segment] + refs[segment + 1]), failures


_REF_ROWS = np.random.default_rng(0).uniform(-2.0, 2.0, (256, 4))
_REF_LOG_W = np.log(np.array([0.1, 0.2, 0.3, 0.4]))


def _reference_work() -> float:
    """A fixed mix of interpreter work, small numpy calls and one batched
    numpy reduction, the three kinds of work the library's ops do."""
    acc = 0.0
    for _ in range(6):
        for row in _REF_ROWS:
            x = _REF_LOG_W - row
            m = x.max()
            acc += m + np.log(np.exp(x - m).sum())
        acc += float(np.log(np.exp(-_REF_ROWS).sum(axis=1)).sum())
    table: dict[int, int] = {}
    for i in range(20_000):
        table[i & 127] = table.get(i & 127, 0) + i
    return acc + sum(table.values())


def reference_seconds() -> float:
    """CPU seconds of one run of the reference work.  Op times divided by
    the reference time measured around them are in reference units, which
    cancels most of the slow phases a shared machine goes through."""
    started = cpu_clock()
    _reference_work()
    return cpu_clock() - started


TIME_CHUNKS = 5


def median_time(fn: Callable[[], Any], *, min_seconds: float, per_call_rows: int) -> float:
    """Median over TIME_CHUNKS timed chunks of seconds per row for repeated
    calls of ``fn``; each chunk runs at least min_seconds / TIME_CHUNKS."""
    fn()
    calls = 1
    while True:
        started = cpu_clock()
        for _ in range(calls):
            fn()
        if cpu_clock() - started >= min_seconds / TIME_CHUNKS / 4 or calls >= 1 << 20:
            break
        calls *= 2
    samples = []
    for _ in range(TIME_CHUNKS):
        started = cpu_clock()
        for _ in range(calls * 4):
            fn()
        samples.append((cpu_clock() - started) / (calls * 4 * per_call_rows))
    return float(np.median(samples))
