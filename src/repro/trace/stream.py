"""Trace containers and stream utilities.

A :class:`Trace` is a named, materialized sequence of
:class:`~repro.trace.record.TraceRecord` objects.  Simulations accept
any iterable of records, but the named container is convenient for the
multi-trace experiments the paper runs (POPS, THOR, PERO), and it
memoizes its packed columnar form (:meth:`Trace.columnar`) so a sweep
of many schemes over one trace packs it once.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.trace.record import TraceRecord

if TYPE_CHECKING:
    from repro.trace.columnar import ColumnarTrace


@dataclass
class Trace:
    """A named multiprocessor address trace.

    Attributes:
        name: short identifier (e.g. ``"pops"``).
        records: the interleaved reference stream, in global time order.
        description: free-form provenance note.
    """

    name: str
    records: Sequence[TraceRecord]
    description: str = ""

    #: ``(records, length, packed)`` memo behind :meth:`columnar`; not a
    #: dataclass field, so equality and ``repr`` ignore it.
    _packed = None

    def __post_init__(self) -> None:
        if not isinstance(self.records, (list, tuple)):
            self.records = list(self.records)

    def columnar(self) -> "ColumnarTrace | None":
        """This trace packed into columns, computed once and memoized.

        The memo is keyed on the identity and length of ``records`` (and
        the trace's name), so rebinding ``records`` — or growing the
        list — repacks on the next call; records are treated as
        immutable otherwise.  Returns None when ``records`` is not a
        materialized list or tuple (a lazily read file, say): such
        sources are streamed, never held in memory whole.
        """
        records = self.records
        if not isinstance(records, (list, tuple)):
            return None
        memo = self._packed
        if (
            memo is None
            or memo[0] is not records
            or memo[1] != len(records)
            or memo[2].name != self.name
        ):
            from repro.trace.columnar import ColumnarTrace

            memo = (records, len(records), ColumnarTrace.from_trace(self))
            self._packed = memo
        return memo[2]

    def __getstate__(self) -> dict:
        # The packed memo is derived state: rebuilt on demand wherever
        # the trace is unpickled, never shipped alongside the records.
        state = dict(self.__dict__)
        state.pop("_packed", None)
        return state

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    @property
    def cpus(self) -> list[int]:
        """Sorted list of CPU numbers appearing in the trace."""
        return sorted({record.cpu for record in self.records})

    @property
    def pids(self) -> list[int]:
        """Sorted list of process identifiers appearing in the trace."""
        return sorted({record.pid for record in self.records})

    def filtered(self, predicate, name: str | None = None) -> "Trace":
        """Return a new trace containing only records matching *predicate*."""
        return Trace(
            name=name or self.name,
            records=[record for record in self.records if predicate(record)],
            description=self.description,
        )

    def head(self, n: int) -> "Trace":
        """Return a trace containing the first *n* records."""
        return Trace(self.name, list(self.records[:n]), self.description)


def count_records(records: Iterable[TraceRecord]) -> int:
    """Count records in a stream without materializing it."""
    return sum(1 for _ in records)


def take(records: Iterable[TraceRecord], n: int) -> list[TraceRecord]:
    """Materialize the first *n* records of a stream."""
    return list(itertools.islice(records, n))


def merge_streams(
    streams: Sequence[Iterable[tuple[int, TraceRecord]]],
) -> Iterator[TraceRecord]:
    """Merge timestamped per-CPU streams into one global-time-ordered stream.

    Each element of *streams* yields ``(timestamp, record)`` pairs that
    are individually time-ordered.  Ties are broken by stream index so
    the merge is deterministic.  This mirrors how multiprocessor ATUM
    interleaves the per-CPU address streams.
    """
    def keyed(index: int, stream):
        """Tag one stream's items with (timestamp, stream index)."""
        for timestamp, record in stream:
            yield timestamp, index, record

    merged = heapq.merge(*(keyed(i, stream) for i, stream in enumerate(streams)))
    for _timestamp, _index, record in merged:
        yield record


@dataclass
class RoundRobinInterleaver:
    """Interleave per-CPU record streams a fixed quantum at a time.

    A simple deterministic stand-in for hardware trace interleaving:
    pull *quantum* records from each stream in turn until all streams
    are exhausted.  Used by workload generators that produce one stream
    per processor.
    """

    quantum: int = 1

    def __post_init__(self) -> None:
        if self.quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {self.quantum}")

    def interleave(
        self, streams: Sequence[Iterable[TraceRecord]]
    ) -> Iterator[TraceRecord]:
        """Merge streams quantum records at a time."""
        iterators = [iter(stream) for stream in streams]
        live = list(range(len(iterators)))
        while live:
            finished = []
            for index in live:
                for _ in range(self.quantum):
                    try:
                        yield next(iterators[index])
                    except StopIteration:
                        finished.append(index)
                        break
            for index in finished:
                live.remove(index)
