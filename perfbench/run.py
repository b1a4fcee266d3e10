#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper-report --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the workload with tracing off and prints the
end-to-end metrics.  ``--trace 1`` measures it twice (untraced, then
traced) for the tracing overhead, runs one traced operation of every
other workload so that every layer is covered, and prints the per-layer
metrics derived from the spans; the spans are written to
``.perfbench_out/spans-<workload>-<seed>.json``.

Every simulated result is checked: against the committed digests in
``perfbench/digests.json`` on the default seed, and against a second
execution path on every seed.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--write-digests`` (default seed only) records the run's digests as
the new reference, for a change that alters results on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import calibrate
from calibrate import host_rate, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

#: The seed the benchmark was tuned on; the reference digests use it.
DEFAULT_SEED = 1
#: A seed kept out of tuning, for rechecking gain claims.
HELD_OUT_SEED = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: End-to-end metrics, printed by every workload with tracing off.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_s": "s",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_import(modules: tuple[str, ...]) -> None:
    """Import *modules* in a fresh interpreter (what every CLI run pays)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        cwd=ROOT, env=env, check=True, timeout=60, stdout=subprocess.DEVNULL,
    )


def load_reference(workload: str, seed: int) -> dict[str, str] | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text())[workload]


def emit(name: str, value: float | None, unit: str) -> None:
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"{name} = {shown} {unit}")


@contextmanager
def cpus_for(workload: Any) -> Iterator[None]:
    """Confine a one-CPU workload to the first CPU while it runs.

    That is the CPU of calibration lane 0, so the host speed is sampled
    where the workload runs.  Threads and processes it starts inherit
    the mask; the set is restored afterwards.
    """
    if workload.cpus != 1:
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {calibrate.lane_cpus()[0]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def stop_children() -> None:
    """Shut the warm pools and wait for every child process to end."""
    import multiprocessing

    from repro.engine import shutdown_pools

    shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join(timeout=10)
    stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Creating a shared-memory segment (the engine's trace arena) starts
    the tracker, a process that is no multiprocessing child and would
    otherwise outlive the benchmark until it notices the end of its
    pipe.  Closing the pipe is its signal to stop; the pool workers that
    inherited the pipe have ended by now.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if fd is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    if pid is not None:
        wait_for(pid)


def wait_for(pid: int, timeout: float = 10.0) -> None:
    """Reap child *pid*, killing it if it has not ended in *timeout* s."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return
        if done:
            return
        time.sleep(0.02)
    os.kill(pid, signal.SIGKILL)
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------


def timed_run(name: str, seed: int, seconds: float, write_digests: bool) -> dict[str, Any]:
    from scenarios import WORKLOADS

    workload = WORKLOADS[name](seed, Path(tempfile.mkdtemp(dir=OUT)))
    with cpus_for(workload):
        setups = []
        rates = [host_rate(lanes=workload.cpus)] if workload.calibrated else []
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            cold_import(workload.modules)
            workload.setup()
            setups.append(time.perf_counter() - start)
            if workload.calibrated:
                rates.append(host_rate(lanes=workload.cpus))
            if repeat < SETUP_REPEATS - 1:
                workload.teardown()
        try:
            loop = workload.loop(seconds, workload.min_ops)
            peak = peak_rss_mb()
            if write_digests:
                record_digests(workload, loop)
            check = workload.check(loop, load_reference(name, seed))
        finally:
            workload.teardown()

    metrics = {
        "setup_s": statistics.median(setups) * (speed_factor(rates) if rates else 1.0),
        "peak_rss_mb": peak,
        "op_p50_s": statistics.median(loop.scaled()),
    }
    speed = (f"host speed {loop.factor:.3f} of reference" if workload.calibrated
             else "wall time, not calibrated")
    print(f"workload {name}, seed {seed}: {len(loop.latencies)} operations in "
          f"{loop.elapsed:.2f} s; {speed}")
    for metric, value in metrics.items():
        emit(metric, value, END_TO_END[metric])
    emit("wall.op_p50_s", statistics.median(loop.latencies), "s")
    for metric, (value, unit) in workload.user_metrics(loop).items():
        emit(metric, value, unit)
    emit("error_rate", check.failed / max(1, check.attempted), "ratio")
    for note in check.notes[:10]:
        print(f"check failed: {note}")
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            metric: {"value": value, "unit": END_TO_END[metric]}
            for metric, value in metrics.items()
        },
    }


def record_digests(workload: Any, loop: Any) -> None:
    """Store this run's digests as the workload's reference."""
    if workload.seed != DEFAULT_SEED:
        raise SystemExit(f"--write-digests needs --seed {DEFAULT_SEED}")
    digests = workload.reference_digests(loop)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[workload.name] = dict(sorted(digests.items()))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------


def traced_run(name: str, seed: int, seconds: float) -> dict[str, Any]:
    from layers import PER_LAYER, layer_metrics
    from scenarios import WORKLOADS
    from spans import Tracer

    tracer = Tracer()
    context: dict[str, Any] = {"report_windows": [], "factors": []}
    checks = []
    guard_notes: list[str] = []
    order = [name] + [other for other in WORKLOADS if other != name]
    for current in order:
        reference = load_reference(current, seed)
        workload = WORKLOADS[current](seed, Path(tempfile.mkdtemp(dir=OUT)))
        with cpus_for(workload):
            traced_workload(
                workload, current == name, seconds, reference, tracer, context,
                checks, guard_notes,
            )

    metrics = layer_metrics(tracer.spans, context)
    spans_path = OUT / f"spans-{name}-{seed}.json"
    tracer.write(spans_path)
    attempted = sum(check.attempted for check in checks)
    failed = sum(check.failed for check in checks)
    factor = statistics.median(context["factors"])
    print(f"traced run of {name}, seed {seed}: {len(tracer.spans)} spans -> "
          f"{spans_path}; host speed {factor:.3f} of reference")
    for metric, unit in PER_LAYER.items():
        emit(metric, metrics[metric], unit)
    emit("error_rate", failed / max(1, attempted), "ratio")
    for check in checks:
        for note in check.notes[:10]:
            print(f"check failed: {note}")
    for note in guard_notes:
        print(f"fresh-work guard failed: {note}")
    missing = [metric for metric, value in metrics.items() if value is None]
    for metric in missing:
        print(f"metric not measured: {metric}")
    return {
        "correct": failed == 0 and not guard_notes and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric] or 0.0, "unit": unit}
            for metric, unit in PER_LAYER.items()
        },
    }


def traced_workload(
    workload: Any, named: bool, seconds: float, reference: dict[str, str] | None,
    tracer: Any, context: dict[str, Any], checks: list[Any], guard_notes: list[str],
) -> None:
    """One workload's part of a traced run.

    The named workload runs untraced first, for the tracing overhead,
    and is checked by the fresh-work guard; every other workload runs
    one traced operation (the service: a few jobs) so that every layer
    is covered.
    """
    from spans import instrument

    untraced = None
    if named:
        workload.setup()
        try:
            untraced = workload.loop(seconds / 2, 2)
            checks.append(workload.check(untraced, reference))
        finally:
            workload.teardown()
    # A fresh set-up, so the traced loop redoes all of the work.
    with instrument(tracer):
        workload.setup(tracer)
    try:
        if untraced is not None:
            with instrument(tracer):
                loop = workload.loop(seconds / 2, 2, tracer)
            context["overhead_share"] = (
                statistics.median(loop.scaled())
                / statistics.median(untraced.scaled()) - 1.0
            )
        else:
            with instrument(tracer):
                loop = workload.loop(0, workload.pass_ops, tracer)
        if workload.calibrated:
            context["factors"].append(loop.factor)
        check = workload.check(loop, reference)
        workload.layer_context(loop, tracer, context, check)
        checks.append(check)
    finally:
        workload.teardown()
    if named:
        # Two consecutive operations must make the same calls.
        first, second = workload.guard_counts(loop, tracer)
        if first != second or first[1] == 0:
            guard_notes.append(
                f"{workload.name}: (generate, simulate) calls {first} then {second}"
            )


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["paper-report", "roster-sweep", "service-jobs", "trace-store"],
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC.name}/; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    scratch_before = set(OUT.iterdir())
    # Started before any workload pins a CPU, so that the calibration
    # loop keeps the benchmark's whole CPU set.
    calibrate.start()
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, args.seconds)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, args.write_digests)
    finally:
        try:
            calibrate.stop()
        finally:
            stop_children()
        for path in set(OUT.iterdir()) - scratch_before:
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
