#!/usr/bin/env python3
"""Where the time of one paper report goes, at a chosen trace length.

Run from the repository root::

    python3 perfbench/shares.py --length 5000
    python3 perfbench/shares.py --length 20000 --ops 1

Runs the ``paper-report`` operation traced (see :mod:`spans`) and
prints two breakdowns as shares of the operation's wall time: self
time by layer (span name; every record-path ``Simulator.run`` counts
as one layer), and inclusive time of the outermost report spans
(artifacts, and generation outside them).  The README compares the
benchmark's trace length with longer ones this way.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import scenarios  # noqa: E402
from spans import Span, Tracer, covered_length, instrument, self_times  # noqa: E402


def layer_of(name: str) -> str:
    if name.startswith("sim.record."):
        return "sim.record (finite)" if name.endswith(".finite") else "sim.record"
    return name


def outermost(span: Span, by_id: dict[int, Span]) -> Span | None:
    """The outermost ``report.*`` span enclosing *span* (or itself)."""
    found = None
    while span is not None:
        if span.name.startswith("report."):
            found = span
        span = by_id.get(span.parent) if span.parent is not None else None
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=scenarios.REPORT_LENGTH)
    parser.add_argument("--ops", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    scenarios.REPORT_LENGTH = args.length
    # The report writes no files, so it needs no scratch directory.
    workload = scenarios.PaperReport(args.seed, HERE.parent / ".perfbench_out")
    tracer = Tracer()
    with instrument(tracer):
        loop = workload.loop(0, args.ops, tracer)
    wall = sum(end - start for start, end in loop.windows)
    selves = self_times(tracer.spans)
    by_id = {span.id: span for span in tracer.spans}

    own: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        own[layer_of(span.name)] += selves[span.id]
        if outermost(span, by_id) is span or (
            span.parent is None and not span.name.startswith("report.")
        ):
            inclusive[span.name] += span.duration
    top = [span for span in tracer.spans if span.parent is None]
    own["(no span: rendering, glue)"] = wall - covered_length(
        (span.start, span.end) for span in top
    )

    print(f"paper-report at {args.length} references per trace: "
          f"{args.ops} traced operations, median "
          f"{statistics.median(loop.latencies):.3f} s wall")
    print("self time by layer:")
    for name, seconds in sorted(own.items(), key=lambda item: -item[1]):
        if seconds / wall >= 0.001:
            print(f"  {name:40s} {100 * seconds / wall:5.1f}%")
    print("inclusive time of the outermost spans:")
    for name, seconds in sorted(inclusive.items(), key=lambda item: -item[1]):
        if seconds / wall >= 0.01:
            print(f"  {name:40s} {100 * seconds / wall:5.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
