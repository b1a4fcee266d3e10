"""Host-speed calibration for time metrics.

The benchmark runs on shared hosts whose speed drifts.  On the 2-core
container this benchmark was built on, each CPU flips between two
speeds every few tenths of a second (a pure-Python loop runs about
1,550 or 2,900 rounds per second), independently of the other CPU, and
the share of slow time changes from minute to minute: the same report
took 0.8 s in one run and 1.4 s in the next, with no change to the
code.  A fixed pure-Python loop (integer arithmetic, dict and list
traffic, method calls: the interpreter work the simulator itself does)
is timed between the measured operations, on the CPUs the workload
runs on, and every calibrated time metric is scaled by the host's mean
speed during the run::

    reference-host seconds = wall seconds * mean rate / REFERENCE_RATE

The loop runs in child processes of its own (:class:`HostSpeed`), one
pinned to each CPU a workload uses, and is only sampled while the
workload is idle.  Its rate is rounds per CPU second of the child, not
per wall second: when anything else shares the CPU (a thread of the
measured program that burns CPU in the background, say) the child gets
fewer CPU seconds but runs each at the same speed.  So the program's
own CPU use never slows the calibration: a regression that burns CPU in
the background slows the operations and not the loop, and shows in
full.  A slower host slows both, and cancels.

Run directly (``python3 calibrate.py --serve --cpu N``) it is that
child: pinned to CPU *N*, it reads a sample length in seconds per line
on standard input and answers each with the measured rate, until it
reads ``stop``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

#: Calibration loop rate (rounds per second) of the reference host: a
#: typical rate of the calibration child on the 2-core host the
#: benchmark was tuned on.
REFERENCE_RATE = 1800.0
#: Seconds one speed sample runs for.
SAMPLE_S = 0.2


class _Counter:
    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> None:
        self.total += value


def _round(counter: _Counter) -> None:
    table: dict[int, int] = {}
    items: list[int] = []
    for i in range(2000):
        table[i & 63] = table.get(i & 63, 0) + i
        if i & 7 == 0:
            items.append(i)
        counter.add(i & 3)


def loop_rate(seconds: float = SAMPLE_S) -> float:
    """Calibration rounds per CPU second of this thread, run for about
    *seconds* of wall time."""
    counter = _Counter()
    rounds = 0
    start = time.perf_counter()
    cpu = time.thread_time()
    while True:
        _round(counter)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return rounds / (time.thread_time() - cpu)


def speed_factor(rates: list[float]) -> float:
    """Multiplier taking wall seconds to reference-host seconds.

    The mean of the sampled rates, not their median: on the host this
    was tuned on the loop's speed flips between two levels (about 1,550
    and 2,900 rounds per second) every few tenths of a second, and an
    operation runs at the mix of the two, which the mean estimates.
    """
    return sum(rates) / len(rates) / REFERENCE_RATE


class HostSpeed:
    """The calibration loop in child processes, sampled on demand.

    One child per CPU in *cpus*, pinned to it; a sample runs the loop in
    the children of the first *lanes* CPUs at once and averages their
    rates.  The children block on their standard input between samples.
    """

    def __init__(self, cpus: list[int]) -> None:
        self.cpus = list(cpus)
        self._children = [
            subprocess.Popen(
                [sys.executable, __file__, "--serve", "--cpu", str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
            )
            for cpu in self.cpus
        ]

    def rate(self, seconds: float = SAMPLE_S, lanes: int = 1) -> float:
        """Mean calibration rate on the first *lanes* CPUs, run at once."""
        children = self._children[:lanes]
        for child in children:
            assert child.stdin is not None
            child.stdin.write(f"{seconds}\n")
            child.stdin.flush()
        rates = []
        for child in children:
            assert child.stdout is not None
            answer = child.stdout.readline()
            if not answer:
                raise RuntimeError("calibration process ended")
            rates.append(float(answer))
        return sum(rates) / len(rates)

    def close(self) -> None:
        """Stop the children and wait for them."""
        for child in self._children:
            if child.poll() is None:
                # An explicit request to stop: processes forked from the
                # benchmark (pool workers) may hold the pipe open, so
                # end of input could come late.
                assert child.stdin is not None
                child.stdin.write("stop\n")
                child.stdin.close()
                try:
                    child.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.wait(timeout=10)
            if child.stdout is not None:
                child.stdout.close()


_host: HostSpeed | None = None
#: Most CPUs a workload keeps busy, and so calibration children.
LANES = 2


def lane_cpus() -> list[int]:
    """The CPUs calibration lanes are pinned to, lane 0 first: the
    lowest of the benchmark's CPU set, where one-CPU workloads run."""
    return sorted(os.sched_getaffinity(0))[:LANES]


def start() -> None:
    """Start the calibration children (before any CPU is pinned)."""
    global _host
    if _host is None:
        _host = HostSpeed(lane_cpus())


def host_rate(seconds: float = SAMPLE_S, lanes: int = 1) -> float:
    """Calibration rounds per CPU second on the first *lanes* CPUs."""
    start()
    assert _host is not None
    return _host.rate(seconds, lanes)


def stop() -> None:
    """Stop the calibration children, if they were started."""
    global _host
    if _host is not None:
        _host.close()
        _host = None


def _serve(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    for line in sys.stdin:
        if line.strip() == "stop":
            return
        print(loop_rate(float(line)), flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1:3] != ["--serve", "--cpu"]:
        raise SystemExit("usage: calibrate.py --serve --cpu N")
    _serve(int(sys.argv[3]))
