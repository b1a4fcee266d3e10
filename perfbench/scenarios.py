"""The benchmark's four workloads.

Each workload is a user-visible operation repeated in a timed loop:

* ``paper-report`` — regenerate every artifact of the paper from fresh
  seeded POPS/THOR/PERO traces and render the Markdown report;
* ``roster-sweep`` — one pooled ``Engine.run`` over the full protocol
  roster plus the four paper schemes at a finite geometry;
* ``service-jobs`` — small jobs submitted to a ``repro serve``-style
  service by two closed-loop clients;
* ``trace-store`` — stream a long trace into a ``.ctrc`` store, then
  chunk-stream two schemes over it.

The benchmark seed reaches only the trace generators (through
:func:`trace_seed`).  Every workload returns the digests of what it
simulated, so :mod:`run` can check them against the committed
references and against a second execution path.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from calibrate import host_rate, speed_factor
from spans import TimedIterator, Tracer

#: The paper's three traces, in report order.
PAPER_WORKLOADS = ("pops", "thor", "pero")
#: The paper's four schemes, in Table 5 column order.
PAPER_SCHEMES = ("dir1nb", "wti", "dir0b", "dragon")
#: Table 5 "cumulative" row: pipelined bus cycles per reference.
PAPER_TABLE5 = {"dir1nb": 0.3210, "wti": 0.1466, "dir0b": 0.0491, "dragon": 0.0336}

REPORT_LENGTH = 5_000
ROSTER_LENGTH = 20_000
ROSTER_JOBS = 2
ROSTER_GEOMETRY = "256x2"
SERVICE_LENGTH = 2_000
SERVICE_CLIENTS = 2
#: Scheme groups a fresh service job alternates between.
SERVICE_GROUPS = (("dir0b", "dragon", "wti"), ("dir1nb", "dirnnb", "berkeley"))
#: Fresh service jobs per client whose digests are committed.
SERVICE_REFERENCE_JOBS = 40
#: Fresh service jobs per client re-run through the engine as a cross-check.
SERVICE_CROSS_CHECK_JOBS = 4
#: Fresh service jobs repeated after a restart in a traced run.
SERVICE_RESTART_JOBS = 3
#: Seconds the service clients run between host-speed samples.
SEGMENT_S = 1.5
STORE_LENGTH = 100_000
STORE_CHUNK = 8_192
STORE_SCHEMES = ("dir0b", "dirnnb")


def trace_seed(seed: int, tag: str) -> int:
    """The generator seed for one trace of a benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def result_digest(result: Any) -> str:
    """sha256 of the exact JSON encoding of a ``SimulationResult``."""
    from repro.runner.checkpoint import result_to_json

    text = json.dumps(result_to_json(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def roster_schemes() -> list[str]:
    """Every registered protocol, then the paper four at the finite geometry."""
    from repro.protocols.registry import available_protocols

    return list(available_protocols()) + [
        f"{scheme}@{ROSTER_GEOMETRY}" for scheme in PAPER_SCHEMES
    ]


def table5_rel_err(cycles: dict[str, float]) -> float:
    """Mean relative error of pipelined cycles/ref against Table 5."""
    return statistics.fmean(
        abs(cycles[scheme] - paper) / paper for scheme, paper in PAPER_TABLE5.items()
    )


def combined_cycles(results: dict[str, dict[str, Any]]) -> dict[str, float]:
    """Pooled three-trace pipelined cycles/ref of each paper scheme."""
    from repro.core.result import merge_results
    from repro.cost.bus import pipelined_bus

    bus = pipelined_bus()
    return {
        scheme: merge_results(list(results[scheme].values())).bus_cycles_per_reference(
            bus
        )
        for scheme in PAPER_SCHEMES
    }


@dataclass
class Loop:
    """What one timed loop produced."""

    latencies: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    #: One entry per operation: ``{cell key: digest}`` plus extras.
    outputs: list[dict[str, Any]] = field(default_factory=list)
    #: Operation windows (perf_counter start, end), for span attribution.
    windows: list[tuple[float, float]] = field(default_factory=list)
    #: Host speed during the loop: the median of samples taken between
    #: operations, relative to the reference host (see calibrate.py).
    factor: float = 1.0
    extra: dict[str, Any] = field(default_factory=dict)

    def scaled(self) -> list[float]:
        """Latencies in reference-host seconds."""
        return [latency * self.factor for latency in self.latencies]


class Check:
    """Outcome of checking a loop's outputs, unit by unit.

    A unit is what a user would count as one result: a simulated cell,
    a job, or the rendered report.  It fails if any check on it fails.
    """

    def __init__(self) -> None:
        self.units: dict[Any, bool] = {}
        self.notes: list[str] = []

    def expect(self, unit: Any, ok: bool, note: str) -> None:
        self.units[unit] = self.units.get(unit, True) and ok
        if not ok:
            self.notes.append(note)

    @property
    def attempted(self) -> int:
        return len(self.units)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.units.values())


def _run_until(seconds: float, min_ops: int, op, lanes: int = 1) -> Loop:
    """Repeat *op* for *seconds* (and at least *min_ops* times).

    The host speed is sampled on *lanes* CPUs before every operation
    and after the last.  ``elapsed`` counts operation time only.
    """
    loop = Loop()
    rates = [host_rate(lanes=lanes)]
    begin = time.perf_counter()
    while len(loop.latencies) < min_ops or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        output = op()
        end = time.perf_counter()
        rates.append(host_rate(lanes=lanes))
        loop.latencies.append(end - start)
        loop.windows.append((start, end))
        loop.outputs.append(output)
    loop.factor = speed_factor(rates)
    loop.elapsed = sum(loop.latencies)
    return loop


def _compare(
    check: Check, unit: Any, got: dict[str, str], want: dict[str, str], what: str
) -> None:
    """Expect every digest of *want* in *got*; one unit per key."""
    for key, digest in want.items():
        check.expect((unit, key), got.get(key) == digest, f"{what}: {key} differs")


def _maybe_span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Workload:
    """Common shape: set up, loop, check, tear down."""

    name = ""
    #: Modules a fresh interpreter imports to run this workload.
    modules: tuple[str, ...] = ()
    #: Time metrics are scaled to the reference host (calibrate.py).
    calibrated = True
    #: CPUs an operation keeps busy.  A one-CPU workload runs on the
    #: first CPU of the benchmark's set (see ``run.cpus_for``); the host
    #: speed is sampled on as many CPUs as the workload uses.
    cpus = 1
    #: Fewest operations a timed loop makes, whatever its duration.
    min_ops = 3
    #: Operations in the one-off pass of a traced run of another workload.
    pass_ops = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self, tracer: Tracer | None = None) -> None:
        pass

    def teardown(self) -> None:
        pass

    def loop(self, seconds: float, min_ops: int, tracer: Tracer | None = None) -> Loop:
        raise NotImplementedError

    def check(self, loop: Loop, reference: dict[str, str] | None) -> Check:
        raise NotImplementedError

    def user_metrics(self, loop: Loop) -> dict[str, tuple[float, str]]:
        """This workload's headline metrics in reference-host units."""
        return {}

    def reference_digests(self, loop: Loop) -> dict[str, str]:
        """The digests ``--write-digests`` commits for this workload."""
        digests = {k: v for k, v in loop.outputs[0].items() if not k.startswith("_")}
        digests.update(loop.extra.get("fingerprints", {}))
        return digests

    def layer_context(
        self, loop: Loop, tracer: Tracer, context: dict[str, Any], check: Check
    ) -> None:
        """Add what per-layer metrics need beyond the spans to *context*.

        Runs after :meth:`check`, untraced; results it produces on the
        way are checked into *check*.
        """

    def guard_counts(
        self, loop: Loop, tracer: Tracer
    ) -> tuple[tuple[int, int], tuple[int, int]]:
        """(generate, simulate) calls of two consecutive operations."""
        return self.op_counts(loop, tracer, 0), self.op_counts(loop, tracer, 1)

    def op_counts(self, loop: Loop, tracer: Tracer, index: int) -> tuple[int, int]:
        """(generate calls, simulate calls) made by operation *index*."""
        start, end = loop.windows[index]
        gen = sim = 0
        for span in tracer.spans:
            if start <= span.start and span.end <= end:
                if span.name == "workloads.gen" or span.name == "store.write":
                    gen += 1
                elif span.name.startswith("sim."):
                    sim += 1
        return gen, sim


# ----------------------------------------------------------------------
# paper-report
# ----------------------------------------------------------------------


def _seeded_experiments(length: int, seed: int):
    from repro.report.experiments import PaperExperiments
    from repro.workloads.registry import make_trace

    class SeededPaperExperiments(PaperExperiments):
        """Generates its three traces from the benchmark seed.

        A new instance per report, so neither the ``standard_traces``
        cache nor a previous report's traces or sweep are reused.
        """

        @property
        def traces(self):
            if self._traces is None:
                self._traces = [
                    make_trace(name, length=self.length, seed=trace_seed(seed, name))
                    for name in PAPER_WORKLOADS
                ]
            return self._traces

    return SeededPaperExperiments(length=length)


class PaperReport(Workload):
    name = "paper-report"
    modules = ("repro.report.markdown", "repro.workloads.registry")

    def loop(self, seconds: float, min_ops: int, tracer: Tracer | None = None) -> Loop:
        from repro.report.markdown import render_report

        kept: list[Any] = []

        def op() -> dict[str, Any]:
            experiments = _seeded_experiments(REPORT_LENGTH, self.seed)
            text = render_report(experiments)
            if not kept:
                kept.append(experiments)
            output = {"report/text": hashlib.sha256(text.encode()).hexdigest()}
            for scheme, per_trace in experiments.experiment.results.items():
                for trace_name, result in per_trace.items():
                    output[f"report/{scheme}/{trace_name}"] = result_digest(result)
            return output

        loop = _run_until(seconds, min_ops, op)
        loop.extra["experiments"] = kept[0]
        return loop

    def check(self, loop: Loop, reference: dict[str, str] | None) -> Check:
        from repro.core.simulator import Simulator
        from repro.trace.columnar import ColumnarTrace

        check = Check()
        want = reference or loop.outputs[0]
        for number, output in enumerate(loop.outputs):
            _compare(check, number, output, want, self.name)
        # Cross-path: the report's record-path cells against the
        # columnar path on the same traces.
        experiments = loop.extra["experiments"]
        simulator = Simulator()
        for trace in experiments.traces:
            columnar = ColumnarTrace.from_trace(trace)
            for scheme in PAPER_SCHEMES:
                result = simulator.run(columnar, scheme)
                result.scheme = scheme
                recorded = experiments.experiment.result(scheme, trace.name)
                check.expect(
                    (0, f"report/{scheme}/{trace.name}"),
                    result_digest(result) == result_digest(recorded),
                    f"{self.name}: columnar {scheme}/{trace.name} differs",
                )
        return check

    def layer_context(
        self, loop: Loop, tracer: Tracer, context: dict[str, Any], check: Check
    ) -> None:
        context["report_windows"] += loop.windows
        results = loop.extra["experiments"].experiment.results
        context["paper_table5_rel_err"] = table5_rel_err(combined_cycles(results))

    def user_metrics(self, loop: Loop) -> dict[str, tuple[float, str]]:
        results = loop.extra["experiments"].experiment.results
        return {
            "report_s": (statistics.median(loop.scaled()), "s"),
            "paper_table5_rel_err": (table5_rel_err(combined_cycles(results)), "ratio"),
        }


# ----------------------------------------------------------------------
# roster-sweep
# ----------------------------------------------------------------------


class RosterSweep(Workload):
    name = "roster-sweep"
    modules = ("repro.engine", "repro.trace.columnar", "repro.workloads.registry")
    cpus = ROSTER_JOBS

    def setup(self, tracer: Tracer | None = None) -> None:
        from repro.core.simulator import Simulator
        from repro.engine import Engine, ExecutionPlan, shutdown_pools
        from repro.runner.cache import trace_fingerprint
        from repro.trace.columnar import ColumnarTrace
        from repro.workloads.registry import make_trace

        # Each set-up pays the pool start again, as a new process would.
        shutdown_pools()
        self._serial: dict[str, str] | None = None
        traces = [
            make_trace(name, length=ROSTER_LENGTH, seed=trace_seed(self.seed, name))
            for name in PAPER_WORKLOADS
        ]
        self.columnar = [ColumnarTrace.from_trace(trace) for trace in traces]
        self.fingerprints = {}
        for trace in self.columnar:
            with _maybe_span(tracer, "trace.fingerprint"):
                self.fingerprints[f"roster/fingerprint/{trace.name}"] = (
                    trace_fingerprint(trace)
                )
        warm = ExecutionPlan(
            traces=[self.columnar[0]], schemes=["dir0b", "wti"], simulator=Simulator()
        )
        Engine(jobs=ROSTER_JOBS, batch=1).run(warm)

    def teardown(self) -> None:
        self.columnar = []

    def loop(self, seconds: float, min_ops: int, tracer: Tracer | None = None) -> Loop:
        from repro.core.simulator import Simulator
        from repro.engine import Engine, EngineMetrics, ExecutionPlan

        schemes = roster_schemes()
        metrics = EngineMetrics()
        cells_done = [0]

        def op() -> dict[str, Any]:
            plan = ExecutionPlan(
                traces=self.columnar, schemes=schemes, simulator=Simulator()
            )
            outcome = Engine(jobs=ROSTER_JOBS, observer=metrics).run(plan)
            output: dict[str, Any] = {
                f"roster/{scheme}/{trace_name}": result_digest(result)
                for scheme, per_trace in outcome.results.items()
                for trace_name, result in per_trace.items()
            }
            done = int(metrics.snapshot().get("cells_ok", 0))
            output["_simulated"] = done - cells_done[0]
            cells_done[0] = done
            return output

        loop = _run_until(seconds, min_ops, op, lanes=self.cpus)
        loop.extra["refs"] = sum(len(trace) for trace in self.columnar) * len(schemes)
        loop.extra["fingerprints"] = dict(self.fingerprints)
        return loop

    def serial_reference(self) -> dict[str, str]:
        """Digests of :meth:`simulate_serial`, computed once per set-up."""
        if self._serial is None:
            self._serial = self.simulate_serial()
        return self._serial

    def simulate_serial(self, timings: list[float] | None = None) -> dict[str, str]:
        """Every cell simulated serially in this process (columnar path).

        The wall time of each ``Simulator.run`` call is appended to
        *timings*, if given.
        """
        from repro.core.experiment import parse_scheme
        from repro.core.simulator import Simulator

        simulator = Simulator()
        reference = {}
        for spec in roster_schemes():
            name, options = parse_scheme(spec)
            for trace in self.columnar:
                start = time.perf_counter()
                result = simulator.run(trace, name, **options)
                if timings is not None:
                    timings.append(time.perf_counter() - start)
                result.scheme = spec
                reference[f"roster/{spec}/{trace.name}"] = result_digest(result)
        return reference

    def check(self, loop: Loop, reference: dict[str, str] | None) -> Check:
        check = Check()
        serial = self.serial_reference()
        if reference is not None:
            fingerprints = {k: v for k, v in reference.items() if "/fingerprint/" in k}
            _compare(check, "setup", loop.extra["fingerprints"], fingerprints, self.name)
        for number, output in enumerate(loop.outputs):
            # Pooled against serial on every seed, and against the
            # committed digests on the default seed.
            _compare(check, number, output, serial, f"{self.name} pooled vs serial")
            if reference is not None:
                cells = {k: v for k, v in reference.items() if k in serial}
                _compare(check, number, output, cells, self.name)
        return check

    def user_metrics(self, loop: Loop) -> dict[str, tuple[float, str]]:
        return {
            "sweep_refs_per_s": (
                loop.extra["refs"] * len(loop.latencies) / sum(loop.scaled()),
                "refs/s",
            ),
        }

    def op_counts(self, loop: Loop, tracer: Tracer, index: int) -> tuple[int, int]:
        return 0, loop.outputs[index]["_simulated"]

    def layer_context(
        self, loop: Loop, tracer: Tracer, context: dict[str, Any], check: Check
    ) -> None:
        """Per-scheme columnar rates from a traced serial run, the
        serial simulate time from an untraced one, and arena packing."""
        from repro.engine import TraceArena
        from spans import instrument

        with instrument(tracer):
            self.simulate_serial()
        timings: list[float] = []
        self.simulate_serial(timings)
        context["serial_sim_s"] = sum(timings)
        context["sweep_latencies"] = loop.latencies
        context["jobs"] = ROSTER_JOBS
        for _ in range(5):
            with tracer.span("engine.arena_pack"):
                arena = TraceArena.create(self.columnar)
            if arena is not None:
                arena.dispose()


# ----------------------------------------------------------------------
# service-jobs
# ----------------------------------------------------------------------


class ServiceJobs(Workload):
    name = "service-jobs"
    modules = ("repro.service.api", "repro.service.client", "repro.service.scheduler")
    # Clients, HTTP handlers and job workers are threads of one process
    # that take turns on the GIL, so the service uses about one CPU
    # (``cpus`` = 1).  Left to migrate between CPUs, its job latency
    # depended on cross-CPU wake-ups: the run-to-run spread of the
    # median was 0.12 on two CPUs and 0.03 on one, at a 5% higher
    # latency.
    #: 100 jobs, so that the p90 has 10 samples beyond it.
    min_ops = 100
    pass_ops = 12

    def setup(self, tracer: Tracer | None = None) -> None:
        self.state_dir = Path(tempfile.mkdtemp(prefix="state-", dir=self.scratch))
        self.start_service()

    def start_service(self) -> None:
        """The `repro serve` defaults, with a state dir: two job workers,
        in-thread simulation, three attempts per cell."""
        from repro.engine import RetryPolicy
        from repro.service.api import ServiceServer
        from repro.service.client import ServiceClient
        from repro.service.scheduler import Scheduler

        self.scheduler = Scheduler(
            workers=2, sim_jobs=1, state_dir=self.state_dir,
            retry=RetryPolicy(max_attempts=3),
        )
        self.server = ServiceServer(self.scheduler, host="127.0.0.1", port=0)
        self.server.start()
        ServiceClient(self.server.url).health()

    def teardown(self) -> None:
        self.server.stop(mode="drain", timeout=60.0)
        shutil.rmtree(self.state_dir, ignore_errors=True)

    def fresh_spec(self, client: int, index: int) -> dict[str, Any]:
        workload = PAPER_WORKLOADS[index % len(PAPER_WORKLOADS)]
        return {
            "schemes": list(SERVICE_GROUPS[index % len(SERVICE_GROUPS)]),
            "traces": [
                {
                    "workload": workload,
                    "length": SERVICE_LENGTH,
                    "seed": trace_seed(self.seed, f"service/{client}/{index}"),
                }
            ],
            "dedup": True,
        }

    def turn(
        self, api: Any, client: int, turn: int, fresh: int,
        finished: tuple[str, dict[str, Any]] | None,
    ) -> tuple[list[dict[str, Any]], list[tuple[str, str]]]:
        """One client turn; returns its job records and dedup'd submissions.

        Turns cycle through three kinds, so that half of the jobs repeat
        an earlier job's cells:

        0. a fresh job, submitted twice in a row: the second submission
           finds the first still active and job-level dedup returns it;
        1. a fresh job plus a twin submitted right behind it (same
           trace, schemes in reverse order, so a distinct job): the
           twin's cells join the fresh job's in-flight cells
           (coalescing), or find them in the result memo if done;
        2. a repeat of the cells of *finished*, a fresh job that has
           finished: the result memo answers them.
        """
        pending: list[dict[str, Any]] = []
        deduplicated: list[tuple[str, str]] = []

        def submit(spec: dict[str, Any], kind: str, origin: str) -> dict[str, Any]:
            start = time.perf_counter()
            reply = api.submit(spec)
            return {"kind": kind, "origin": origin, "spec": spec,
                    "id": reply["id"], "start": start,
                    "deduplicated": bool(reply.get("deduplicated"))}

        if turn == 2 and finished is not None:
            origin, spec = finished
            pending.append(submit(spec, "repeat", origin))
        else:
            origin, spec = f"{client}/{fresh}", self.fresh_spec(client, fresh)
            pending.append(submit(spec, "fresh", origin))
            if turn == 0:
                again = submit(spec, "repeat", origin)
                if again["deduplicated"]:
                    deduplicated.append((pending[0]["id"], again["id"]))
                else:  # the first had already finished: a plain repeat
                    pending.append(again)
            elif turn == 1:
                twin = dict(spec, schemes=spec["schemes"][::-1], dedup=False)
                pending.append(submit(twin, "repeat", origin))
        for record in pending:
            record["final"] = api.wait(record["id"])
            record["end"] = time.perf_counter()
        return pending, deduplicated

    def loop(self, seconds: float, min_ops: int, tracer: Tracer | None = None) -> Loop:
        from repro.service.client import ServiceClient

        # Clients run in segments of SEGMENT_S; between segments they
        # pause, in-flight turns finish, and the host speed is sampled
        # while the service is idle.
        gate = threading.Condition()
        state = {"open": False, "stop": False, "in_flight": 0}
        jobs: list[dict[str, Any]] = []
        deduplicated: list[tuple[str, str]] = []
        latest_fresh: dict[int, tuple[str, dict[str, Any]]] = {}
        errors: list[BaseException] = []

        def client_loop(client: int) -> None:
            api = ServiceClient(self.server.url, timeout=60.0)
            fresh = 0
            sequence = 0
            try:
                while True:
                    with gate:
                        while not state["open"] and not state["stop"]:
                            gate.wait()
                        if state["stop"]:
                            return
                        state["in_flight"] += 1
                        finished = latest_fresh.get(1 - client) or latest_fresh.get(client)
                    records: list[dict[str, Any]] = []
                    dups: list[tuple[str, str]] = []
                    try:
                        records, dups = self.turn(
                            api, client, sequence % 3, fresh, finished
                        )
                    finally:
                        with gate:
                            state["in_flight"] -= 1
                            jobs.extend(records)
                            deduplicated.extend(dups)
                            for record in records:
                                if record["kind"] == "fresh":
                                    latest_fresh[client] = (record["origin"], record["spec"])
                                    fresh += 1
                            gate.notify_all()
                    sequence += 1
            except BaseException as exc:  # reported as a failed run
                with gate:
                    errors.append(exc)
                    gate.notify_all()

        threads = [
            threading.Thread(target=client_loop, args=(client,), name=f"bench-client-{client}")
            for client in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        segments: list[tuple[float, float]] = []
        rates = [host_rate()]
        begin = time.perf_counter()
        try:
            while not errors:
                opened = time.perf_counter()
                with gate:
                    state["open"] = True
                    gate.notify_all()
                time.sleep(SEGMENT_S)
                with gate:
                    state["open"] = False
                    while state["in_flight"] and not errors:
                        gate.wait(timeout=1.0)
                    done = len(jobs)
                segments.append((opened, time.perf_counter()))
                rates.append(host_rate())
                if done >= min_ops and time.perf_counter() - begin >= seconds:
                    break
        finally:
            with gate:
                state["stop"] = True
                gate.notify_all()
            for thread in threads:
                thread.join(timeout=60.0)
        if errors or any(thread.is_alive() for thread in threads):
            raise RuntimeError(f"service client failed: {errors[:1]!r}")
        loop = Loop(
            elapsed=sum(closed - opened for opened, closed in segments),
            factor=speed_factor(rates),
        )
        jobs.sort(key=lambda job: job["start"])
        loop.latencies = [job["end"] - job["start"] for job in jobs]
        loop.windows = [(job["start"], job["end"]) for job in jobs]
        loop.outputs = jobs
        loop.extra["deduplicated"] = deduplicated
        loop.extra["stats"] = self.scheduler.stats()
        loop.extra["url"] = self.server.url
        return loop

    def check(self, loop: Loop, reference: dict[str, str] | None) -> Check:
        from repro.core.simulator import Simulator
        from repro.engine import Engine, ExecutionPlan
        from repro.service.client import ServiceClient
        from repro.workloads.registry import make_trace

        check = Check()
        by_origin: dict[str, dict[str, str]] = {}
        digests_of: list[dict[str, str] | None] = []
        for job in loop.outputs:
            digests = _job_digests(job["final"])
            check.expect(
                job["id"], digests is not None,
                f"{self.name}: job {job['id']} not done cleanly",
            )
            digests_of.append(digests)
            if job["kind"] == "fresh" and digests is not None:
                by_origin[job["origin"]] = digests
        for job, digests in zip(loop.outputs, digests_of):
            if digests is None:
                continue
            if job["kind"] == "repeat":
                want = by_origin.get(job["origin"], {})
            elif reference is not None and _job_index(job) < SERVICE_REFERENCE_JOBS:
                prefix = f"service/{job['origin']}/"
                want = {
                    key[len(prefix):]: value
                    for key, value in reference.items()
                    if key.startswith(prefix)
                }
                check.expect(job["id"], bool(want), f"no reference for {job['origin']}")
            else:
                continue
            for key, digest in want.items():
                check.expect(
                    job["id"], digests.get(key) == digest,
                    f"{self.name} {job['kind']} {job['origin']}: {key} differs",
                )
        # Job-level dedup must hand back the job already running.
        for first, again in loop.extra["deduplicated"]:
            check.expect(
                again, again == first, f"{self.name}: dedup returned {again}, not {first}"
            )
        # Cross-path: the first fresh jobs of each client against the
        # engine on a locally generated trace.
        api = ServiceClient(loop.extra["url"], timeout=60.0)
        for job in loop.outputs:
            if job["kind"] != "fresh":
                continue
            if _job_index(job) >= SERVICE_CROSS_CHECK_JOBS:
                continue
            tspec = job["spec"]["traces"][0]
            trace = make_trace(tspec["workload"], length=tspec["length"], seed=tspec["seed"])
            plan = ExecutionPlan(
                traces=[trace], schemes=job["spec"]["schemes"], simulator=Simulator()
            )
            local = Engine(jobs=1).run(plan).results
            remote = api.results(job["id"])
            for scheme in job["spec"]["schemes"]:
                check.expect(
                    job["id"],
                    result_digest(remote[scheme][trace.name])
                    == result_digest(local[scheme][trace.name]),
                    f"{self.name}: service vs engine {job['origin']} {scheme}",
                )
        return check

    def reference_digests(self, loop: Loop) -> dict[str, str]:
        """Digests of the first fresh jobs of each client, for committing."""
        from repro.runner.checkpoint import result_from_json

        out = {}
        for job in loop.outputs:
            if job["kind"] != "fresh" or _job_index(job) >= SERVICE_REFERENCE_JOBS:
                continue
            for scheme, per_trace in job["final"]["results"].items():
                for trace_name, payload in per_trace.items():
                    key = f"service/{job['origin']}/{scheme}/{trace_name}"
                    out[key] = result_digest(result_from_json(payload))
        return out

    def user_metrics(self, loop: Loop) -> dict[str, tuple[float, str]]:
        latencies = loop.scaled()
        return {
            "job_latency_p50_s": (statistics.median(latencies), "s"),
            "job_latency_p90_s": (statistics.quantiles(latencies, n=10)[-1], "s"),
            "jobs_per_s": (len(latencies) / (loop.elapsed * loop.factor), "1/s"),
            "jobs": (float(len(latencies)), "count"),
        }

    def layer_context(
        self, loop: Loop, tracer: Tracer, context: dict[str, Any], check: Check
    ) -> None:
        context["service_window"] = (
            loop.windows[0][0], max(end for _, end in loop.windows)
        )
        context["service_job_s"] = sum(loop.latencies)
        context["service_stats"] = loop.extra["stats"]
        context["service_restart_stats"] = self.restart_repeats(loop, check)

    def restart_repeats(self, loop: Loop, check: Check) -> dict[str, Any]:
        """Restart the service on the same state dir, as a user restarts
        `repro serve`, and repeat the first fresh jobs.  The in-memory
        result memo is gone, so the on-disk ``ResultCache`` answers them.
        Returns the restarted scheduler's stats."""
        from repro.service.client import ServiceClient

        self.server.stop(mode="drain", timeout=60.0)
        self.start_service()
        api = ServiceClient(self.server.url, timeout=60.0)
        originals = [job for job in loop.outputs if job["kind"] == "fresh"]
        for job in originals[:SERVICE_RESTART_JOBS]:
            final = api.wait(api.submit(job["spec"])["id"])
            check.expect(
                ("restart", job["id"]),
                _job_digests(final) == _job_digests(job["final"]),
                f"{self.name}: {job['origin']} differs after a restart",
            )
        return self.scheduler.stats()

    def guard_counts(
        self, loop: Loop, tracer: Tracer
    ) -> tuple[tuple[int, int], tuple[int, int]]:
        """The same three sequential jobs (two fresh, one repeat) on two
        fresh schedulers; each set-up must redo the same work."""
        from repro.service.client import ServiceClient
        from spans import instrument

        counts = []
        for _ in range(2):
            self.setup()
            try:
                api = ServiceClient(self.server.url, timeout=60.0)
                start = time.perf_counter()
                with instrument(tracer):
                    for index in (0, 1, 0):
                        api.wait(api.submit(self.fresh_spec(9, index))["id"])
                end = time.perf_counter()
            finally:
                self.teardown()
            window = [s for s in tracer.spans if start <= s.start and s.end <= end]
            counts.append((
                sum(s.name == "workloads.gen" for s in window),
                sum(s.name.startswith("sim.") for s in window),
            ))
        return counts[0], counts[1]


def _job_digests(final: dict[str, Any]) -> dict[str, str] | None:
    """``{scheme/trace: digest}`` of a finished job, or None if it failed."""
    from repro.runner.checkpoint import result_from_json

    if final.get("state") != "done" or final["cells"].get("errors"):
        return None
    digests = {
        f"{scheme}/{trace_name}": result_digest(result_from_json(payload))
        for scheme, per_trace in final["results"].items()
        for trace_name, payload in per_trace.items()
    }
    return digests if len(digests) == final["cells"]["total"] else None


def _job_index(job: dict[str, Any]) -> int:
    """A fresh job's index within its client's sequence."""
    return int(job["origin"].split("/")[1])


# ----------------------------------------------------------------------
# trace-store
# ----------------------------------------------------------------------


class TraceStore(Workload):
    name = "trace-store"
    modules = ("repro.store", "repro.workloads.registry")

    def setup(self, tracer: Tracer | None = None) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def loop(self, seconds: float, min_ops: int, tracer: Tracer | None = None) -> Loop:
        from repro.core.simulator import Simulator
        from repro.store import ChunkedTrace, write_stream
        from repro.workloads.registry import stream_trace

        seed = trace_seed(self.seed, "store/pops")
        phases: list[tuple[float, float, int]] = []

        def op() -> dict[str, Any]:
            directory = Path(tempfile.mkdtemp(dir=self.root))
            path = directory / "pops.ctrc"
            records = stream_trace("pops", length=STORE_LENGTH, seed=seed)
            start = time.perf_counter()
            if tracer is None:
                write_stream(records, path, name="pops", chunk_records=STORE_CHUNK)
            else:
                timed = TimedIterator(records)
                with tracer.span("store.write") as span:
                    write_stream(timed, path, name="pops", chunk_records=STORE_CHUNK)
                span.attrs.update(
                    excluded_s=timed.busy_s, gen_s=timed.busy_s, gen_refs=timed.count
                )
            written = time.perf_counter()
            output = {}
            with _maybe_span(tracer, "store.open"):
                chunked = ChunkedTrace(path)
            with chunked:
                simulator = Simulator()
                for scheme in STORE_SCHEMES:
                    output[f"store/{scheme}"] = result_digest(simulator.run(chunked, scheme))
            simulated = time.perf_counter()
            size = path.stat().st_size
            shutil.rmtree(directory)
            phases.append((written - start, simulated - written, size))
            return output

        loop = _run_until(seconds, min_ops, op)
        loop.extra["phases"] = phases
        loop.extra["seed"] = seed
        return loop

    def check(self, loop: Loop, reference: dict[str, str] | None) -> Check:
        from repro.core.simulator import Simulator
        from repro.trace.columnar import ColumnarTrace
        from repro.workloads.registry import make_trace

        check = Check()
        first = loop.outputs[0]
        for number, output in enumerate(loop.outputs):
            _compare(check, number, output, reference or first, self.name)
        # Cross-path: chunked results against in-memory columnar ones.
        trace = ColumnarTrace.from_trace(
            make_trace("pops", length=STORE_LENGTH, seed=loop.extra["seed"])
        )
        simulator = Simulator()
        for scheme in STORE_SCHEMES:
            check.expect(
                (0, f"store/{scheme}"),
                result_digest(simulator.run(trace, scheme)) == first[f"store/{scheme}"],
                f"{self.name}: chunked vs columnar {scheme}",
            )
        return check

    def layer_context(
        self, loop: Loop, tracer: Tracer, context: dict[str, Any], check: Check
    ) -> None:
        sizes = [phase[2] for phase in loop.extra["phases"]]
        context["store_bytes_per_ref"] = statistics.median(sizes) / STORE_LENGTH

    def user_metrics(self, loop: Loop) -> dict[str, tuple[float, str]]:
        phases = loop.extra["phases"]
        write_s = statistics.median(phase[0] for phase in phases) * loop.factor
        sim_s = statistics.median(phase[1] for phase in phases) * loop.factor
        return {
            "store_gen_refs_per_s": (STORE_LENGTH / write_s, "refs/s"),
            "store_sim_refs_per_s": (STORE_LENGTH * len(STORE_SCHEMES) / sim_s, "refs/s"),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (PaperReport, RosterSweep, ServiceJobs, TraceStore)
}
