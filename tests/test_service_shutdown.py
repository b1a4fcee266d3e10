"""Graceful-shutdown paths: SIGTERM mid-sweep, checkpoint, restart-resume.

The in-process halves of this story are covered in
``test_service_scheduler.py``; here a real ``repro serve`` process gets
a real SIGTERM (and SIGINT — same path) mid-sweep and a restarted
server must resume the job bit-for-bit (ISSUE satellite: shutdown test
coverage).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.simulator import Simulator
from repro.runner.checkpoint import result_to_json
from repro.service.client import ServiceClient
from repro.workloads.registry import make_trace

SCHEMES = ["dir1nb", "wti", "dir0b", "dragon"]
LENGTH = 8000
SEED = 9

pytestmark = [
    pytest.mark.service,
    pytest.mark.skipif(
        not hasattr(signal, "SIGTERM") or os.name == "nt",
        reason="POSIX signal semantics required",
    ),
]


def start_server(state_dir: Path) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", "1", "--state-dir", str(state_dir),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    line = process.stdout.readline()
    assert "listening on" in line, f"unexpected banner: {line!r}"
    url = line.strip().rsplit(" ", 1)[-1]
    return process, url


def wait_exit(process: subprocess.Popen, timeout: float = 60.0) -> int:
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10.0)
        pytest.fail("serve process did not exit after SIGTERM")


def direct_results() -> dict:
    trace = make_trace("pops", length=LENGTH, seed=SEED)
    simulator = Simulator()
    expected = {}
    for scheme in SCHEMES:
        result = simulator.run(trace, scheme, trace_name=trace.name)
        result.scheme = scheme
        expected[scheme] = {trace.name: result_to_json(result)}
    return expected


def test_sigterm_mid_sweep_checkpoints_and_restart_resumes(tmp_path):
    state = tmp_path / "state"
    process, url = start_server(state)
    try:
        client = ServiceClient(url, timeout=30.0)
        job = client.submit(
            {
                "schemes": SCHEMES,
                "traces": [{"workload": "pops", "length": LENGTH, "seed": SEED}],
            }
        )
        job_id = job["id"]

        # Follow the stream until the first cell lands — the sweep is
        # then provably mid-flight — and pull the plug.
        for event in client.stream_events(job_id):
            if event.get("type") == "cell":
                break
        else:
            pytest.fail("the event stream ended before any cell landed")
        process.send_signal(signal.SIGTERM)
        assert wait_exit(process) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)

    # The checkpoint manifest holds the completed cells; the job record
    # is parked as queued, not lost and not terminal.
    job_dir = state / "jobs" / job_id
    manifest = json.loads((job_dir / "manifest.json").read_text("utf-8"))
    completed = sum(len(per_trace) for per_trace in manifest["completed"].values())
    assert 1 <= completed < len(SCHEMES)
    persisted = json.loads((job_dir / "job.json").read_text("utf-8"))
    assert persisted["state"] == "queued"

    # A restarted server on the same state dir resumes the job to a
    # bit-for-bit identical result.
    process, url = start_server(state)
    try:
        client = ServiceClient(url, timeout=30.0)
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            status = client.job(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.2)
        else:
            pytest.fail(f"job {job_id} still {status['state']} after 120s")
        assert status["state"] == "done"
        assert status["cells"]["checkpoint"] == completed
        assert status["cells"]["simulated"] == len(SCHEMES) - completed
        assert status["results"] == direct_results()
        process.send_signal(signal.SIGTERM)
        assert wait_exit(process) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)


def test_sigterm_with_empty_queue_exits_promptly(tmp_path):
    process, url = start_server(tmp_path / "state")
    try:
        client = ServiceClient(url, timeout=10.0)
        assert client.health()["status"] == "ok"
        process.send_signal(signal.SIGTERM)
        assert wait_exit(process, timeout=30.0) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)


def test_sigint_mid_sweep_takes_the_same_checkpoint_path(tmp_path):
    """^C is not an exception splat: SIGINT checkpoints exactly like
    SIGTERM — job parked as queued, partial manifest on disk, exit 0."""
    state = tmp_path / "state"
    process, url = start_server(state)
    try:
        client = ServiceClient(url, timeout=30.0)
        job = client.submit(
            {
                "schemes": SCHEMES,
                "traces": [{"workload": "pops", "length": LENGTH, "seed": SEED}],
            }
        )
        job_id = job["id"]
        for event in client.stream_events(job_id):
            if event.get("type") == "cell":
                break
        else:
            pytest.fail("the event stream ended before any cell landed")
        process.send_signal(signal.SIGINT)
        assert wait_exit(process) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)

    job_dir = state / "jobs" / job_id
    manifest = json.loads((job_dir / "manifest.json").read_text("utf-8"))
    completed = sum(len(per_trace) for per_trace in manifest["completed"].values())
    assert 1 <= completed < len(SCHEMES)
    persisted = json.loads((job_dir / "job.json").read_text("utf-8"))
    assert persisted["state"] == "queued"


def test_sigint_with_empty_queue_exits_promptly(tmp_path):
    process, url = start_server(tmp_path / "state")
    try:
        client = ServiceClient(url, timeout=10.0)
        assert client.health()["status"] == "ok"
        process.send_signal(signal.SIGINT)
        assert wait_exit(process, timeout=30.0) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
