"""The synthetic workload generator.

:class:`SyntheticWorkload` runs a deterministic round-robin scheduler
over ``num_processes`` process state machines and materializes the
interleaved reference stream as packed columns
(:class:`~repro.trace.columnar.ColumnarTrace` batches); the record and
:class:`~repro.trace.stream.Trace` forms are decoded from those.  Each
process mixes:

* instruction fetches (sequential per-process code, shared kernel text
  in system mode);
* private data reads/writes over a hot-set working set;
* reads of a shared read-mostly region, occasionally updated by a
  writer (one-writer/many-readers invalidations);
* migratory read-modify-write objects (the dominant source of
  dirty-block hand-offs);
* single-producer/multi-consumer buffers;
* test-and-test-and-set critical sections around shared protected
  data, with blocked processes emitting spin reads every turn;
* OS activity: a configurable fraction of work runs in system mode
  against kernel-private and kernel-shared data;
* rare process migration between CPUs (visible only under the
  processor-sharing view).

Every knob lives in :class:`WorkloadConfig`; the POPS/THOR/PERO
analogue configurations are in their own modules.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.errors import ConfigurationError
from repro.trace.columnar import (
    FLAG_LOCK,
    FLAG_SPIN,
    FLAG_SYSTEM,
    STREAM_BATCH,
    TYPE_INSTR,
    TYPE_READ,
    TYPE_WRITE,
    ColumnarTrace,
    check_flags,
)
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace
from repro.workloads.layout import AddressSpaceLayout
from repro.workloads.locks import LockTable
from repro.workloads.patterns import LocalityPicker, ProducerConsumerBuffers

#: Flags of a spin read: a lock reference repeated while the lock is held.
_SPIN = FLAG_LOCK | FLAG_SPIN


@dataclass(frozen=True)
class WorkloadConfig:
    """All parameters of one synthetic workload.

    Probabilities prefixed ``p_`` select the action of one data step
    and are evaluated in order (lock attempt, shared read, shared
    update, migratory episode, buffer access); the remaining mass goes
    to private data.  See module docstring for the behaviours.
    """

    name: str = "synthetic"
    num_processes: int = 4
    length: int = 200_000
    seed: int = 1988
    quantum: int = 6

    instr_fraction: float = 0.497
    system_fraction: float = 0.10

    p_lock_attempt: float = 0.012
    p_shared_read: float = 0.075
    p_shared_update: float = 0.0035
    p_migratory: float = 0.016
    p_buffer: float = 0.030

    write_fraction_private: float = 0.24
    write_fraction_protected: float = 0.35
    migratory_read_first: float = 0.85
    buffer_consume_fraction: float = 0.70

    num_locks: int = 4
    hot_lock_bias: float = 0.5
    cs_data_refs: int = 6
    #: Spin test reads emitted per blocked scheduling step.  Fractional
    #: values emit probabilistically (a slow spin loop with several
    #: instructions per test); a step that emits no test still fetches
    #: a spin-loop instruction.
    spin_reads_per_step: float = 1.0

    #: Within a critical section, fraction of protected-data references
    #: that go to the single block this holder focuses on (the rest
    #: spread over the lock's whole protected region).
    cs_focus: float = 0.8

    num_buffers: int = 4
    blocks_per_buffer: int = 8

    migration_interval: int = 4000
    p_migrate: float = 0.05

    layout: AddressSpaceLayout = field(default_factory=AddressSpaceLayout)
    description: str = ""

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ConfigurationError("num_processes must be >= 1")
        if self.length < 1:
            raise ConfigurationError("length must be >= 1")
        if self.quantum < 1:
            raise ConfigurationError("quantum must be >= 1")
        if not 0.0 <= self.instr_fraction < 1.0:
            raise ConfigurationError("instr_fraction must be in [0, 1)")
        if not 0.0 <= self.system_fraction <= 1.0:
            raise ConfigurationError("system_fraction must be in [0, 1]")
        action_mass = (
            self.p_lock_attempt
            + self.p_shared_read
            + self.p_shared_update
            + self.p_migratory
            + self.p_buffer
        )
        if action_mass > 1.0:
            raise ConfigurationError(
                f"action probabilities sum to {action_mass:.3f} > 1"
            )
        if self.num_locks < 0:
            raise ConfigurationError("num_locks must be non-negative")
        if self.p_lock_attempt > 0 and self.num_locks == 0:
            raise ConfigurationError("lock attempts require num_locks >= 1")
        if self.cs_data_refs < 1:
            raise ConfigurationError("cs_data_refs must be >= 1")
        if self.spin_reads_per_step <= 0:
            raise ConfigurationError("spin_reads_per_step must be positive")

    def scaled_to(self, length: int) -> "WorkloadConfig":
        """The same workload at a different trace length."""
        return replace(self, length=length)


class _Process:
    """One process's state machine; appends its references to the columns.

    Everything a reference needs that does not change while the trace
    is generated — the instruction-fetch ratio, the bound RNG methods,
    the column appenders and each region's block addresses — is looked
    up once here, so emitting a reference is five ``append`` calls.
    """

    def __init__(
        self, workload: "SyntheticWorkload", pid: int, columns: tuple
    ) -> None:
        config = workload.config
        layout = config.layout
        self.workload = workload
        self.config = config
        self.pid = pid
        self.cpu = pid % max(1, config.num_processes)
        self.rng = random.Random((config.seed << 8) ^ (pid * 0x9E3779B1))
        self._random = self.rng.random
        self._randrange = self.rng.randrange
        self.instr_offset = pid * 17
        self.kernel_instr_offset = pid * 31
        self.blocked_on = None  # Lock instance while spinning
        self.cs_remaining = 0
        self.cs_block = 0
        self.held_lock = None
        self.pending_write = None  # (address, flags) for read-modify-write
        self.private_picker = LocalityPicker(layout.private_blocks)
        self.produced_buffers = workload.buffers.buffers_produced_by(pid)
        self.produce_slot = 0

        cpu, pids, types, addresses, flags = columns
        self._push_cpu = cpu.append
        self._push_pid = pids.append
        self._push_type = types.append
        self._push_address = addresses.append
        self._push_flags = flags.append

        # Emitting f/(1-f) instructions per data reference yields an
        # instruction fraction of f overall; the ratio exceeds one when
        # instructions outnumber data references.  A zero fraction
        # draws nothing from the RNG.
        fraction = config.instr_fraction
        ratio = fraction / (1.0 - fraction)
        self._emits_instr = fraction > 0.0
        self._whole_instr = range(int(ratio))
        self._fractional_instr = ratio - int(ratio)

        self._instr_base = layout.instr_address(pid, 0)
        self._kernel_text_base = layout.kernel_text_address(0)
        self._private = tuple(
            layout.private_address(pid, block)
            for block in range(layout.private_blocks)
        )
        self._kernel_private = tuple(
            layout.kernel_private_address(pid, block)
            for block in range(layout.kernel_private_blocks)
        )

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------

    # The column appends are written out in both emitters: they run once
    # per reference, where a shared helper's call would cost a fifth of
    # the generator's time.

    def _emit_instr(self, system: int) -> None:
        if system:
            offset = self.kernel_instr_offset = (self.kernel_instr_offset + 1) % 4096
            address = self._kernel_text_base + 4 * offset
        else:
            offset = self.instr_offset = (self.instr_offset + 1) % 2048
            address = self._instr_base + 4 * offset
        self._push_cpu(self.cpu)
        self._push_pid(self.pid)
        self._push_type(TYPE_INSTR)
        self._push_address(address)
        self._push_flags(system)

    def _emit_data(self, address: int, code: int, flags: int) -> None:
        """One data reference, preceded by its share of instruction fetches."""
        if self._emits_instr:
            system = flags & FLAG_SYSTEM
            for _ in self._whole_instr:
                self._emit_instr(system)
            if self._random() < self._fractional_instr:
                self._emit_instr(system)
        self._push_cpu(self.cpu)
        self._push_pid(self.pid)
        self._push_type(code)
        self._push_address(address)
        self._push_flags(flags)

    # ------------------------------------------------------------------
    # One scheduling step = one data action
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Execute one data action for this process."""
        if self.blocked_on is not None:
            self._spin_step()
            return
        if self.pending_write is not None:
            address, flags = self.pending_write
            self.pending_write = None
            self._emit_data(address, TYPE_WRITE, flags)
            return
        if self.cs_remaining > 0:
            self._critical_section_step()
            return
        self._free_step()

    def _spin_step(self) -> None:
        lock = self.blocked_on
        if not lock.held:
            # The test finally succeeds: test read, then test-and-set.
            self.blocked_on = None
            self._acquire(lock)
            return
        rate = self.config.spin_reads_per_step
        count = int(rate)
        if self._random() < rate - count:
            count += 1
        for _ in range(count):
            self._emit_data(lock.address, TYPE_READ, _SPIN)

    def _acquire(self, lock) -> None:
        # Successful test read followed by the test-and-set write.
        self._emit_data(lock.address, TYPE_READ, FLAG_LOCK)
        self._emit_data(lock.address, TYPE_WRITE, FLAG_LOCK)
        lock.acquire(self.pid)
        self.held_lock = lock
        self.cs_remaining = self.config.cs_data_refs
        self.cs_block = self._randrange(self.config.layout.protected_blocks_per_lock)

    def _critical_section_step(self) -> None:
        lock = self.held_lock
        self.cs_remaining -= 1
        if self.cs_remaining == 0:
            # Release: a write to the lock word.
            self._emit_data(lock.address, TYPE_WRITE, FLAG_LOCK)
            lock.release(self.pid)
            self.held_lock = None
            return
        config = self.config
        if self._random() < config.cs_focus:
            block = self.cs_block
        else:
            block = self._randrange(config.layout.protected_blocks_per_lock)
        address = self.workload.protected[lock.index][block]
        is_write = self._random() < config.write_fraction_protected
        self._emit_data(address, TYPE_WRITE if is_write else TYPE_READ, 0)

    def _free_step(self) -> None:
        config = self.config
        system = self._random() < config.system_fraction
        roll = self._random()

        if not system and roll < config.p_lock_attempt and config.num_locks:
            self._attempt_lock()
            return
        roll -= config.p_lock_attempt

        if roll < config.p_shared_read:
            self._shared_access(TYPE_READ, system)
            return
        roll -= config.p_shared_read

        if roll < config.p_shared_update:
            self._shared_access(TYPE_WRITE, system)
            return
        roll -= config.p_shared_update

        if roll < config.p_migratory:
            self._migratory_episode(system)
            return
        roll -= config.p_migratory

        if roll < config.p_buffer:
            self._buffer_access(system)
            return

        self._private_access(system)

    def _attempt_lock(self) -> None:
        config = self.config
        if self._random() < config.hot_lock_bias:
            lock = self.workload.locks[0]
        else:
            lock = self.workload.locks[self._randrange(config.num_locks)]
        if lock.held and lock.holder != self.pid:
            # Failed test: start spinning.
            lock.waiters.add(self.pid)
            self.blocked_on = lock
            self._emit_data(lock.address, TYPE_READ, _SPIN)
        elif not lock.held:
            self._acquire(lock)
        # Already holding it (can only happen with num_locks == 1 and a
        # re-attempt); treat as a no-op private access.
        else:
            self._private_access(False)

    def _shared_access(self, code: int, system: bool) -> None:
        """A shared read (or, rarely, update): kernel data in system mode."""
        workload = self.workload
        if system:
            address = workload.kernel_shared[
                self._randrange(self.config.layout.kernel_shared_blocks)
            ]
        else:
            address = workload.shared_read[workload.shared_picker.pick(self.rng)]
        self._emit_data(address, code, system)

    def _migratory_episode(self, system: bool) -> None:
        layout = self.config.layout
        address = layout.migratory_address(self._randrange(layout.migratory_blocks))
        if self._random() < self.config.migratory_read_first:
            # Read-modify-write: read now, write on the next step.
            self._emit_data(address, TYPE_READ, system)
            self.pending_write = (address, system)
        else:
            self._emit_data(address, TYPE_WRITE, system)

    def _buffer_access(self, system: bool) -> None:
        layout = self.config.layout
        buffers = self.workload.buffers
        consume = (
            not self.produced_buffers
            or self._random() < self.config.buffer_consume_fraction
        )
        if consume:
            # Consumers favour "their" neighbour's buffer, keeping most
            # producer invalidations single-cache (cf. paper Figure 1).
            if self._random() < 0.75:
                buffer = (self.pid + 1) % buffers.num_buffers
            else:
                buffer = buffers.random_buffer(self.rng)
            if buffers.producer_of(buffer) == self.pid and buffers.num_buffers > 1:
                buffer = (buffer + 1) % buffers.num_buffers
            slot = buffers.random_slot(self.rng)
            address = layout.buffer_address(buffers.block_index(buffer, slot))
            self._emit_data(address, TYPE_READ, system)
        else:
            buffer = self.produced_buffers[
                self.produce_slot // buffers.blocks_per_buffer % len(self.produced_buffers)
            ]
            slot = self.produce_slot % buffers.blocks_per_buffer
            self.produce_slot += 1
            address = layout.buffer_address(buffers.block_index(buffer, slot))
            self._emit_data(address, TYPE_WRITE, system)

    def _private_access(self, system: bool) -> None:
        if system:
            address = self._kernel_private[
                self._randrange(self.config.layout.kernel_private_blocks)
            ]
        else:
            address = self._private[self.private_picker.pick(self.rng)]
        is_write = self._random() < self.config.write_fraction_private
        self._emit_data(address, TYPE_WRITE if is_write else TYPE_READ, system)


class SyntheticWorkload:
    """A deterministic synthetic trace, generated as packed columns.

    The workload is its own reference stream: :meth:`iter_columns`
    yields bounded :class:`~repro.trace.columnar.ColumnarTrace` batches,
    iterating it yields the same references as records, :meth:`columnar`
    and :meth:`build` return the whole trace.  Every form comes from the
    one column-emitting generator, so all are bit-identical.  Each
    iteration starts afresh from the configuration's seed; one instance
    supports one iteration at a time.
    """

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        layout = config.layout
        self.buffers = ProducerConsumerBuffers(
            num_buffers=config.num_buffers,
            blocks_per_buffer=config.blocks_per_buffer,
            num_processes=config.num_processes,
        )
        self.shared_picker = LocalityPicker(layout.shared_read_blocks)
        # Block addresses of the regions every process shares.
        self.shared_read = tuple(
            layout.shared_read_address(block)
            for block in range(layout.shared_read_blocks)
        )
        self.kernel_shared = tuple(
            layout.kernel_shared_address(block)
            for block in range(layout.kernel_shared_blocks)
        )
        self.protected = tuple(
            tuple(
                layout.protected_address(lock, block)
                for block in range(layout.protected_blocks_per_lock)
            )
            for lock in range(config.num_locks)
        )

    @property
    def name(self) -> str:
        """The trace's name (the configuration's)."""
        return self.config.name

    @property
    def description(self) -> str:
        """The trace's provenance note."""
        return self.config.description or (
            f"synthetic workload ({self.config.num_processes} processes)"
        )

    def _maybe_migrate(self, processes: list[_Process]) -> None:
        """Occasionally swap the CPUs of two processes (§4.4 migration)."""
        if len(processes) < 2 or self.rng.random() >= self.config.p_migrate:
            return
        first, second = self.rng.sample(range(len(processes)), 2)
        processes[first].cpu, processes[second].cpu = (
            processes[second].cpu,
            processes[first].cpu,
        )

    def iter_columns(self, batch: int = STREAM_BATCH) -> Iterator[ColumnarTrace]:
        """Generate the trace as columnar batches of *batch* references.

        Processes run round-robin, ``quantum`` data actions per turn,
        appending ints straight to the columns; full batches are
        detached after each round.  The last round can overshoot the
        target length mid-quantum and is truncated at ``config.length``,
        so the batches concatenate to exactly ``config.length``
        references.  Memory is bounded by one batch plus one round, so
        a generator feeding a
        :class:`~repro.store.writer.StreamingTraceWriter` can emit
        traces far larger than memory.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        config = self.config
        length = config.length
        self.rng = random.Random(config.seed)
        self.locks = LockTable(config.num_locks, config.layout)
        columns = (array("Q"), array("Q"), bytearray(), array("Q"), bytearray())
        types = columns[2]
        processes = [
            _Process(self, pid, columns) for pid in range(config.num_processes)
        ]
        turn = range(config.quantum)
        next_migration = config.migration_interval
        detached = 0

        while detached + len(types) < length:
            for process in processes:
                step = process.step
                for _ in turn:
                    step()
                if detached + len(types) >= length:
                    break
            if detached + len(types) >= next_migration:
                self._maybe_migrate(processes)
                next_migration += config.migration_interval
            while len(types) >= batch and detached < length:
                count = min(batch, length - detached)
                yield self._batch(detached, *(column[:count] for column in columns))
                for column in columns:
                    del column[:count]
                detached += count
        if detached < length:
            # Generation is over: the last batch takes the columns
            # themselves, cut at the target length, instead of a copy.
            for column in columns:
                del column[length - detached:]
            yield self._batch(detached, *columns)

    def _batch(
        self, start: int, cpu: array, pid: array, types: bytearray,
        address: array, flags: bytearray,
    ) -> ColumnarTrace:
        """Wrap detached columns, starting at record *start*, as a batch.

        The generator appends without building records, so the check a
        record makes on construction — spin implies lock — runs here,
        once per batch; the ``'Q'`` columns already reject negatives.
        """
        flags = bytes(flags)
        check_flags(flags, start)
        return ColumnarTrace(
            self.config.name, cpu, pid, types, address, flags, self.description
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        """The trace's references as records, decoded batch by batch."""
        for batch in self.iter_columns():
            yield from batch

    def columnar(self) -> ColumnarTrace:
        """Generate the whole trace as one :class:`ColumnarTrace`."""
        (packed,) = self.iter_columns(batch=self.config.length)
        return packed

    def build(self) -> Trace:
        """Generate the full trace (deterministic for a given config).

        The records are decoded from the generated columns, which the
        trace keeps as its memoized packed form, so simulating it packs
        nothing.
        """
        return self.columnar().to_trace()
