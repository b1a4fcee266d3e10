"""Per-layer metrics, derived from the spans of a traced run.

:data:`PER_LAYER` is the catalog: every metric a traced run prints,
with its unit.  :func:`layer_metrics` computes them from the spans the
traced loops recorded (see :mod:`spans`) plus a few counters read from
the service.  Rates are work over time summed across every matching
span; times are medians per operation or per call.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

from scenarios import PAPER_SCHEMES, STORE_SCHEMES
from spans import ARTIFACTS, Span, self_times

#: Columnar-path schemes of the roster sweep: every registered protocol
#: (a self-test keeps this in step with the registry).
ROSTER_PROTOCOLS = (
    "adaptive", "berkeley", "coarse-vector", "dir0b", "dir1nb", "dirib", "dirinb",
    "dirnnb", "dragon", "illinois", "write-once", "wti", "yenfu",
)
#: Schemes the report's artifacts and the service's jobs simulate on
#: the record path.
RECORD_PROTOCOLS = (
    "berkeley", "dir0b", "dir1nb", "dirib", "dirinb", "dirnnb", "dragon", "wti",
)


def _catalog() -> dict[str, str]:
    metrics = {"workloads.gen_refs_per_s": "refs/s"}
    metrics["trace.pack_s"] = "s"
    metrics["trace.fingerprint_s"] = "s"
    for scheme in ROSTER_PROTOCOLS:
        metrics[f"sim.{scheme}.refs_per_s"] = "refs/s"
    for scheme in PAPER_SCHEMES:
        metrics[f"sim.finite.{scheme}.refs_per_s"] = "refs/s"
    for scheme in RECORD_PROTOCOLS:
        metrics[f"sim.{scheme}.record_refs_per_s"] = "refs/s"
    for scheme in PAPER_SCHEMES:
        metrics[f"sim.finite.{scheme}.record_refs_per_s"] = "refs/s"
    for scheme in STORE_SCHEMES:
        metrics[f"sim.chunked.{scheme}.refs_per_s"] = "refs/s"
    metrics["cost.weigh_s"] = "s"
    metrics["report.experiment_s"] = "s"
    for artifact in ARTIFACTS:
        metrics[f"report.artifact.{artifact}_s"] = "s"
    metrics["engine.overhead_s"] = "s"
    metrics["engine.arena_pack_s"] = "s"
    metrics["service.submit_s"] = "s"
    metrics["service.sim_share"] = "ratio"
    metrics["service.cells_cache"] = "count"
    metrics["service.coalesced"] = "count"
    metrics["service.deduplicated"] = "count"
    metrics["runner.cache_hits"] = "count"
    metrics["store.write_s"] = "s"
    metrics["store.bytes_per_ref"] = "B/ref"
    metrics["store.open_s"] = "s"
    metrics["paper_table5_rel_err"] = "ratio"
    metrics["trace.overhead_share"] = "ratio"
    return metrics


#: Every per-layer metric name -> unit, in print order.
PER_LAYER: dict[str, str] = _catalog()


def _rate(spans: list[Span], selves: dict[int, float]) -> float | None:
    refs = sum(span.attrs.get("refs", 0) for span in spans)
    busy = sum(selves[span.id] for span in spans)
    return refs / busy if busy > 0 else None


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _per_window(
    spans: list[Span], selves: dict[int, float], windows: list[tuple[float, float]]
) -> list[float]:
    """Self time of *spans* summed within each operation window."""
    totals = []
    for start, end in windows:
        totals.append(
            sum(selves[s.id] for s in spans if start <= s.start and s.end <= end)
        )
    return totals


def layer_metrics(
    spans: list[Span], context: dict[str, Any]
) -> dict[str, float | None]:
    """Compute every :data:`PER_LAYER` metric (None where no span exists).

    *context* carries what spans cannot: the report operation windows,
    the roster sweep latencies and serial time, service counters and
    latencies, store sizes, the accuracy figure and the tracing
    overhead.
    """
    selves = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    out: dict[str, float | None] = {}

    gen_refs = sum(s.attrs.get("refs", 0) for s in by_name["workloads.gen"])
    gen_s = sum(selves[s.id] for s in by_name["workloads.gen"])
    for write in by_name["store.write"]:
        gen_refs += write.attrs.get("gen_refs", 0)
        gen_s += write.attrs.get("gen_s", 0.0)
    out["workloads.gen_refs_per_s"] = gen_refs / gen_s if gen_s > 0 else None
    out["trace.pack_s"] = _median([s.duration for s in by_name["trace.pack"]])
    out["trace.fingerprint_s"] = _median(
        [s.duration for s in by_name["trace.fingerprint"]]
    )
    for scheme in ROSTER_PROTOCOLS:
        out[f"sim.{scheme}.refs_per_s"] = _rate(by_name[f"sim.columnar.{scheme}"], selves)
    for scheme in PAPER_SCHEMES:
        out[f"sim.finite.{scheme}.refs_per_s"] = _rate(
            by_name[f"sim.columnar.{scheme}.finite"], selves
        )
    for scheme in RECORD_PROTOCOLS:
        out[f"sim.{scheme}.record_refs_per_s"] = _rate(
            by_name[f"sim.record.{scheme}"], selves
        )
    for scheme in PAPER_SCHEMES:
        out[f"sim.finite.{scheme}.record_refs_per_s"] = _rate(
            by_name[f"sim.record.{scheme}.finite"], selves
        )
    for scheme in STORE_SCHEMES:
        out[f"sim.chunked.{scheme}.refs_per_s"] = _rate(
            by_name[f"sim.chunked.{scheme}"], selves
        )

    windows = context.get("report_windows", [])
    out["cost.weigh_s"] = _median(_per_window(by_name["cost.weigh"], selves, windows))
    out["report.experiment_s"] = _median(
        [s.duration for s in by_name["report.experiment"]]
    )
    for artifact in ARTIFACTS:
        name = f"report.artifact.{artifact}"
        out[f"{name}_s"] = _median(_per_window(by_name[name], selves, windows))

    sweeps = context.get("sweep_latencies", [])
    serial_s = context.get("serial_sim_s")
    jobs = context.get("jobs", 1)
    out["engine.overhead_s"] = (
        statistics.median(sweeps) - serial_s / jobs if sweeps and serial_s else None
    )
    out["engine.arena_pack_s"] = _median(
        [s.duration for s in by_name["engine.arena_pack"]]
    )

    out["service.submit_s"] = _median([s.duration for s in by_name["service.submit"]])
    service_window = context.get("service_window")
    job_time = context.get("service_job_s")
    if service_window and job_time:
        start, end = service_window
        sim_s = sum(
            s.duration
            for s in spans
            if s.name.startswith("sim.") and start <= s.start and s.end <= end
        )
        out["service.sim_share"] = sim_s / job_time
    else:
        out["service.sim_share"] = None
    stats = context.get("service_stats")
    if stats:
        out["service.cells_cache"] = float(stats["cells"]["cache"])
        out["service.coalesced"] = float(stats["cells"]["coalesced"])
        out["service.deduplicated"] = float(stats["jobs"]["deduplicated"])
    restarted = context.get("service_restart_stats")
    if restarted:
        out["runner.cache_hits"] = float((restarted.get("cache") or {}).get("hits", 0))

    out["store.write_s"] = _median([selves[s.id] for s in by_name["store.write"]])
    out["store.bytes_per_ref"] = context.get("store_bytes_per_ref")
    out["store.open_s"] = _median([s.duration for s in by_name["store.open"]])
    out["paper_table5_rel_err"] = context.get("paper_table5_rel_err")
    out["trace.overhead_share"] = context.get("overhead_share")
    return to_reference(
        {name: out.get(name) for name in PER_LAYER},
        statistics.median(context.get("factors") or [1.0]),
    )


def to_reference(
    metrics: dict[str, float | None], factor: float
) -> dict[str, float | None]:
    """Times and rates in reference-host units, like ``op_p50_s``.

    *factor* is the host speed during the traced run (the median of its
    loops' factors, see calibrate.py): seconds are multiplied by it,
    references per second divided by it; counts and ratios stay.
    """
    out = dict(metrics)
    for name, value in metrics.items():
        if value is None:
            continue
        if PER_LAYER[name] == "s":
            out[name] = value * factor
        elif PER_LAYER[name] == "refs/s":
            out[name] = value / factor
    return out
