"""In-memory span tracer for the benchmark's traced runs.

A span is one timed call into a public function of the simulator:
name, start, end, the span that caused it (same thread) and a few
attributes (references processed, scheme, ...).  Spans are kept in
memory and written out once, when the run ends, so tracing does no I/O
on the measured path.

:func:`instrument` wraps the public entry points of each layer for the
duration of a ``with`` block and restores them afterwards.  It only
wraps; it never changes arguments or results.  Calls made inside a
worker process forked while the wrappers are installed pass straight
through, because the spans would be lost with the worker.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Iterator


@dataclass
class Span:
    """One timed call."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of this process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs: Any) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            id=span_id,
            parent=stack[-1].id if stack else None,
            name=name,
            start=time.perf_counter(),
            thread=threading.get_ident(),
            attrs=attrs,
        )
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        opened = self.begin(name, **attrs)
        try:
            yield opened
        finally:
            self.finish(opened)

    def write(self, path: str | os.PathLike) -> None:
        """Write every finished span as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval.  A span may also
    carry ``excluded_s`` — time spent inside it in work it drove but
    that has no span of its own (a generator it consumed) — which is
    subtracted as well.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = covered_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
            if child.end > span.start and child.start < span.end
        )
        excluded = float(span.attrs.get("excluded_s", 0.0))
        result[span.id] = max(0.0, span.duration - covered - excluded)
    return result


class TimedIterator:
    """Wraps an iterator and adds up the time spent producing items.

    Used around a generator handed to a consumer (a store writer), so
    the consumer's span can exclude the producer's time.  Items are
    pulled in batches of *batch*, so the clock is read once per batch
    rather than once per item.
    """

    def __init__(self, iterable: Iterable[Any], batch: int = 1024) -> None:
        self._it = iter(iterable)
        self._batch = batch
        self.busy_s = 0.0
        self.count = 0

    def __iter__(self) -> Iterator[Any]:
        pull = itertools.islice
        while True:
            start = time.perf_counter()
            items = list(pull(self._it, self._batch))
            self.busy_s += time.perf_counter() - start
            if not items:
                return
            self.count += len(items)
            yield from items


# ----------------------------------------------------------------------
# Instrumentation of public entry points
# ----------------------------------------------------------------------


def _scheme_of(protocol: Any) -> str:
    return protocol if isinstance(protocol, str) else getattr(protocol, "name", "?")


def _simulate_span(args: tuple, kwargs: dict) -> tuple[str, dict[str, Any]]:
    """Span name and attributes of one ``Simulator.run`` call."""
    from repro.trace.columnar import ColumnarTrace

    trace = args[1] if len(args) > 1 else kwargs["trace"]
    protocol = args[2] if len(args) > 2 else kwargs["protocol"]
    if hasattr(trace, "iter_chunks"):
        path = "chunked"
    elif isinstance(trace, ColumnarTrace):
        path = "columnar"
    else:
        path = "record"
    finite = kwargs.get("geometry") is not None
    scheme = _scheme_of(protocol)
    name = f"sim.{path}.{scheme}" + (".finite" if finite else "")
    return name, {"refs": len(trace), "scheme": scheme}


def _wrap(
    tracer: Tracer, fn: Callable, namer: Callable, count_result: bool = False
) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if os.getpid() != tracer.pid:
            return fn(*args, **kwargs)
        name, attrs = namer(args, kwargs)
        with tracer.span(name, **attrs) as span:
            result = fn(*args, **kwargs)
            if count_result:
                span.attrs["refs"] = len(result)
            return result

    return traced


def _fixed(name: str) -> Callable:
    return lambda args, kwargs: (name, {})


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Record spans around each layer's public entry points.

    Layers and the calls that bound them:

    * ``workloads`` — ``SyntheticWorkload.build`` (trace generation);
    * ``trace`` — ``ColumnarTrace.from_trace`` (columnar packing);
    * ``sim`` — ``Simulator.run``, named by path (record, columnar,
      chunked), scheme, and ``.finite`` for a cache geometry;
    * ``cost`` — the ``SimulationResult`` cost-weighing methods;
    * ``report`` — ``Experiment.run`` and every ``PaperExperiments``
      artifact method;
    * ``engine`` — ``Engine.run``;
    * ``service`` — ``ServiceClient.submit`` and ``ServiceClient.wait``.

    Calls the benchmark makes itself (store writes and opens,
    fingerprints, arena packing) are spanned at the call site.
    """
    from repro.core.experiment import Experiment
    from repro.core.result import SimulationResult
    from repro.core.simulator import Simulator
    from repro.engine.core import Engine
    from repro.report.experiments import PaperExperiments
    from repro.service.client import ServiceClient
    from repro.trace.columnar import ColumnarTrace
    from repro.workloads.base import SyntheticWorkload

    targets: list[tuple[Any, str, Callable]] = [
        (Simulator, "run", _simulate_span),
        (SimulationResult, "breakdown_per_reference", _fixed("cost.weigh")),
        (SimulationResult, "cycles_per_transaction", _fixed("cost.weigh")),
        (SimulationResult, "event_cycles_per_reference", _fixed("cost.weigh")),
        (Experiment, "run", _fixed("report.experiment")),
        (Engine, "run", _fixed("engine.run")),
        (ServiceClient, "submit", _fixed("service.submit")),
        (ServiceClient, "wait", _fixed("service.wait")),
    ]
    for artifact in ARTIFACTS:
        targets.append((PaperExperiments, artifact, _fixed(f"report.artifact.{artifact}")))

    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attribute, namer in targets:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, original, namer))
        original_build = SyntheticWorkload.__dict__["build"]
        saved.append((SyntheticWorkload, "build", original_build))
        SyntheticWorkload.build = _wrap(
            tracer, original_build, _fixed("workloads.gen"), count_result=True
        )
        original_pack = ColumnarTrace.__dict__["from_trace"]
        saved.append((ColumnarTrace, "from_trace", original_pack))
        pack = _wrap(tracer, original_pack.__func__, _fixed("trace.pack"))
        ColumnarTrace.from_trace = classmethod(pack)
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


#: Every artifact ``PaperExperiments.all_artifacts`` regenerates, in order.
ARTIFACTS = (
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "section51",
    "section52",
    "section6_sequential",
    "section6_dir1b",
    "section6_sweep",
    "section6_storage",
    "section5_system",
    "finite_capacity",
    "conclusions",
)
