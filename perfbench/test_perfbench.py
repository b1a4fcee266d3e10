"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They check the benchmark's own machinery (metric catalog, digest gate,
self-time arithmetic) and run every workload briefly through the real
command line, so a broken workload fails here before a timed run.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from layers import PER_LAYER, ROSTER_PROTOCOLS  # noqa: E402
from run import END_TO_END  # noqa: E402
from scenarios import (  # noqa: E402
    WORKLOADS, Check, _compare, _run_until, result_digest, trace_seed,
)
from spans import Span, covered_length, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed():
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit) and len(unit) <= 16, unit
    assert not set(END_TO_END) & set(PER_LAYER)


def test_benchmark_json_declares_what_the_benchmark_prints():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_layer_catalog_covers_every_registered_protocol():
    from repro.protocols.registry import available_protocols

    assert list(ROSTER_PROTOCOLS) == available_protocols()


def _session_processes(session: int) -> list[str]:
    """Command lines of the live processes in *session*."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            if int(fields[3]) == session and fields[0] != "Z":
                found.append((stat.parent / "cmdline").read_text().replace("\0", " "))
        except (OSError, IndexError, ValueError):
            continue
    return found


def _run(workload: str, trace: int) -> dict:
    """Run the benchmark in a session of its own; the moment it has
    exited, no process it started (pool workers, the shared-memory
    resource tracker, calibration children) may be left in that session.

    Output goes to files, not pipes: a leftover process that inherited
    a pipe would keep the read open until it ends, and hide itself.
    """
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, stdout=out, stderr=err, start_new_session=True,
        )
        try:
            proc.wait(timeout=300)
        finally:
            proc.kill()
            proc.wait()
        leftover = _session_processes(proc.pid)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    assert proc.returncode == 0, stderr[-2000:]
    assert leftover == []
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_emits_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    result = _run("trace-store", 1)
    assert result["correct"], result
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER


def test_digest_check_flags_a_perturbed_result():
    from repro.core.simulator import Simulator
    from repro.workloads.registry import make_trace

    trace = make_trace("pops", length=2000, seed=trace_seed(1, "pops"))
    result = Simulator().run(trace, "dir0b")
    reference = {"cell": result_digest(result)}

    clean = Check()
    _compare(clean, 0, {"cell": result_digest(result)}, reference, "clean")
    assert (clean.attempted, clean.failed) == (1, 0)

    result.bus_transactions += 1
    perturbed = Check()
    _compare(perturbed, 0, {"cell": result_digest(result)}, reference, "perturbed")
    assert (perturbed.attempted, perturbed.failed) == (1, 1)


def test_check_counts_a_unit_once_however_many_checks_fail():
    check = Check()
    check.expect("job", False, "digest")
    check.expect("job", False, "cross-path")
    check.expect("other", True, "fine")
    assert (check.attempted, check.failed) == (2, 1)


def _span(span_id, parent, start, end, **attrs):
    return Span(id=span_id, parent=parent, name=f"s{span_id}", start=start, end=end,
                attrs=attrs)


def test_self_time_subtracts_the_union_covered_by_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),   # overlaps its sibling: union 1..5
        _span(2, 0, 2.0, 5.0),
        _span(3, 0, 9.0, 12.0),  # clipped to the parent: 9..10
        _span(4, 2, 2.5, 3.5),   # grandchild: only its own parent loses it
        _span(5, None, 20.0, 24.0, excluded_s=1.5),
    ]
    selves = self_times(spans)
    assert selves[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selves[1] == pytest.approx(2.0)
    assert selves[2] == pytest.approx(3.0 - 1.0)
    assert selves[3] == pytest.approx(3.0)
    assert selves[4] == pytest.approx(1.0)
    assert selves[5] == pytest.approx(2.5)


def test_covered_length_merges_intervals():
    assert covered_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert covered_length([]) == 0.0


def test_trace_seeds_are_stable_and_distinct():
    assert trace_seed(1, "pops") == trace_seed(1, "pops")
    assert len({trace_seed(seed, tag) for seed in (1, 2) for tag in ("pops", "thor")}) == 4


def test_background_cpu_use_moves_calibrated_latency():
    """A thread of the measured process that burns CPU between (and
    during) operations slows the operations but not the calibration:
    the loop runs in a process of its own and counts rounds per CPU
    second, so sharing its CPU with the burner does not slow it.  The
    process is pinned to the calibration CPU, as one-CPU workloads are,
    so that the burner and the loop do share a CPU."""
    counter = calibrate._Counter()

    def op() -> dict:
        for _ in range(60):
            calibrate._round(counter)
        return {}

    calibrate.start()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {calibrate.lane_cpus()[0]})
    stop = threading.Event()

    def burn() -> None:
        while not stop.is_set():
            sum(range(1000))

    try:
        quiet = sorted(_run_until(0, 9, op).scaled())[4]
        burner = threading.Thread(target=burn)
        burner.start()
        try:
            busy = sorted(_run_until(0, 9, op).scaled())[4]
        finally:
            stop.set()
            burner.join()
    finally:
        os.sched_setaffinity(0, allowed)
        calibrate.stop()
    assert busy > 1.4 * quiet, (quiet, busy)


def test_per_layer_times_and_rates_are_scaled_to_the_reference_host():
    from layers import to_reference

    metrics = {name: None for name in PER_LAYER}
    metrics.update({"store.open_s": 2.0, "workloads.gen_refs_per_s": 1000.0,
                    "service.coalesced": 6.0, "service.sim_share": 0.5})
    scaled = to_reference(metrics, 1.5)
    assert scaled["store.open_s"] == pytest.approx(3.0)
    assert scaled["workloads.gen_refs_per_s"] == pytest.approx(1000.0 / 1.5)
    assert scaled["service.coalesced"] == 6.0
    assert scaled["service.sim_share"] == 0.5
    assert scaled["store.write_s"] is None
