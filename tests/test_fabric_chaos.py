"""Crash recovery with real worker processes (the ISSUE acceptance run).

``run_chaos`` spawns N genuine ``repro work`` subprocesses on a shared
fabric database, arms them all so whichever leases a seeded target cell
SIGKILLs *itself* mid-cell at a seeded reference count, and asserts
from the queue's own accounting that the sweep still finished
bit-identical to a serial engine run, with exactly one lease
reassignment and zero duplicate simulations.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.errors import ConfigurationError
from repro.fabric.chaos import DEFAULT_SPEC, ENV_KILL, hook_from_env, run_chaos
from repro.runner.faults import FaultInjector, ProcessKiller

pytestmark = [
    pytest.mark.service,
    pytest.mark.skipif(
        not hasattr(signal, "SIGKILL") or os.name == "nt",
        reason="POSIX signal semantics required",
    ),
]

#: Smaller than DEFAULT_SPEC to keep the suite fast.  The kill is armed
#: on a cell, so it lands whichever of the workers leases that cell.
SPEC = {
    "schemes": ["dir0b", "dir1nb", "wti", "dragon"],
    "traces": [{"workload": "pops", "length": 2500, "seed": 5}],
}


class TestKillPlan:
    def test_seeded_plan_is_deterministic(self):
        assert FaultInjector(3).kill_plan(4) == FaultInjector(3).kill_plan(4)
        plans = {FaultInjector(seed).kill_plan(4) for seed in range(8)}
        assert len(plans) > 1  # different seeds explore different kills
        assert all(0 <= cell < 4 for cell, _ in plans)

    def test_hook_from_env_parses_and_arms(self):
        assert hook_from_env({}) is None
        hook = hook_from_env({ENV_KILL: "1:25"})

        class FakeCell:
            def __init__(self, index, attempts):
                self.index = index
                self.attempts = attempts

        protocol = object()
        # Any worker arms on the target cell's first attempt ...
        wrapped = hook(None, FakeCell(1, 1), protocol)
        assert isinstance(wrapped, ProcessKiller)
        assert wrapped.kill_after == 25
        # ... and on nothing else: other cells, or the reassigned retry.
        assert hook(None, FakeCell(0, 1), protocol) is protocol
        assert hook(None, FakeCell(1, 2), protocol) is protocol

    def test_hook_from_env_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            hook_from_env({ENV_KILL: "not-a-plan"})


class TestChaosScenario:
    def test_sigkill_mid_cell_recovers_bit_identical(self, tmp_path):
        report = run_chaos(
            db=tmp_path / "fabric.db",
            spec_payload=SPEC,
            workers=3,
            seed=0,
            lease_s=2.0,
            timeout_s=240.0,
        )
        assert report["ok"], report
        # Exactly one worker — whichever leased the armed cell — died
        # by SIGKILL, mid-sweep.
        assert report["exit_codes"].count(-signal.SIGKILL) == 1
        assert report["exit_codes"][report["kill"]["worker"]] == -signal.SIGKILL
        # Bit-for-bit parity with the serial engine run.
        assert report["fabric_digest_sha"] == report["serial_digest_sha"]
        stats = report["stats"]
        assert stats["reassignments"] == 1
        assert stats["duplicate_completions"] == 0
        assert stats["dead_letters"] == 0
        assert stats["cells"]["done"] == 4  # every cell, exactly once

    def test_control_run_without_kill_has_no_reassignments(self, tmp_path):
        report = run_chaos(
            db=tmp_path / "fabric.db",
            spec_payload=SPEC,
            workers=2,
            seed=1,
            kill=False,
            lease_s=30.0,
            timeout_s=240.0,
        )
        assert report["ok"], report["checks"]
        assert report["exit_codes"] == [0, 0]
        assert report["stats"]["reassignments"] == 0

    def test_default_spec_is_a_valid_job(self):
        from repro.service.spec import parse_job_spec

        spec = parse_job_spec(dict(DEFAULT_SPEC))
        assert spec.cell_count() >= 6  # enough cells for a 3-worker fleet

    def test_refuses_a_db_that_already_holds_the_job(self, tmp_path):
        run_chaos(
            db=tmp_path / "fabric.db",
            spec_payload=SPEC,
            workers=2,
            seed=2,
            kill=False,
            lease_s=30.0,
            timeout_s=240.0,
        )
        with pytest.raises(ConfigurationError):
            run_chaos(db=tmp_path / "fabric.db", spec_payload=SPEC, seed=2)
