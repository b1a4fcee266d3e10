"""Differential tests for the multi-copy directory family kernel.

Dir0B, DirnNB, DiriB, DiriNB and the coarse vector share one data state
machine and differ only in what an invalidation costs, so one kernel
(``_import_multicopy``/``_loop_multicopy``/``_export_multicopy`` in
``repro.protocols.kernels``) serves all of them.  These tests hold it
to the object model: results equal to the record loop and the generic
columnar loop, exported caches and directories equal field for field
(limited-pointer order, broadcast bits, coarse codes and true-sharer
sets included), live-state import across segments and a mid-chunk
``.ctrc`` resume, refusal for bounded directories and wrappers, and a
seeded fuzz campaign that drives pointer overflow and broadcast far
harder than the synthetic workloads do.
"""

import pytest

from repro.core.oracle import CoherentOracle
from repro.core.result import SimulationResult, merge_results
from repro.core.simulator import SimulationContext, Simulator
from repro.errors import ConfigurationError
from repro.memory.coding import CoarseVector
from repro.memory.directory import PointerEvictionPolicy, TwoBitState
from repro.protocols.events import OpKind
from repro.protocols.kernels import has_kernel, open_kernel_session
from repro.protocols.registry import make_protocol
from repro.runner.checkpoint import CheckpointManager, result_to_json
from repro.runner.faults import SaboteurProtocol
from repro.runner.resilient import run_resilient_sweep
from repro.store import ChunkedTrace, pack_trace
from repro.trace.columnar import ColumnarTrace
from repro.verify.fuzzer import PATTERNS, TraceFuzzer
from repro.workloads.registry import make_trace

TRACE_LENGTH = 6000

FAMILY = (
    [("dir0b", {}), ("dirnnb", {}), ("dirnnb", {"organization": "tang"})]
    + [("dirib", {"num_pointers": i}) for i in (1, 2, 3, 4)]
    + [
        ("dirinb", {"num_pointers": i, "eviction_policy": policy})
        for i in (1, 2, 3, 4)
        for policy in PointerEvictionPolicy
    ]
    + [("coarse-vector", {})]
)


def _label(config):
    name, options = config
    parts = [name]
    if "organization" in options:
        parts.append(options["organization"])
    if "num_pointers" in options:
        parts.append(f"i{options['num_pointers']}")
    if "eviction_policy" in options:
        parts.append(options["eviction_policy"].value)
    return "-".join(parts)


family = pytest.mark.parametrize("config", FAMILY, ids=[_label(c) for c in FAMILY])


def _build(config, num_caches, **extra):
    name, options = config
    return make_protocol(name, num_caches, **options, **extra)


def _machine(protocol):
    """Every cache's lines plus the directory's full internal state."""
    caches = [
        protocol.cache_contents(index) for index in range(protocol.num_caches)
    ]
    return caches, dict(vars(protocol.directory))


def _kernel_run(simulator, protocol, columnar, context=None):
    """Run *columnar* through an explicitly opened kernel session."""
    result = SimulationResult(scheme=protocol.name, trace_name=columnar.name)
    session = open_kernel_session(
        simulator, protocol, result, context or SimulationContext()
    )
    assert session is not None, "family kernel bailed to the generic loop"
    session.run_chunk(columnar)
    return session.finish()


def _generic_run(simulator, protocol, columnar, context=None):
    return simulator._run_columnar(
        columnar,
        protocol,
        SimulationResult(scheme=protocol.name, trace_name=columnar.name),
        context or SimulationContext(),
    )


@pytest.fixture(scope="module")
def trace():
    return make_trace("pops", length=TRACE_LENGTH, seed=7)


@pytest.fixture(scope="module")
def columnar(trace):
    return ColumnarTrace.from_trace(trace)


@pytest.fixture(scope="module")
def migratory():
    return ColumnarTrace.from_trace(make_trace("thor", length=TRACE_LENGTH, seed=11))


# ----------------------------------------------------------------------
# Engagement and refusal
# ----------------------------------------------------------------------


@family
def test_session_opens_on_infinite_caches(columnar, config):
    protocol = _build(config, len(columnar.pids))
    assert has_kernel(protocol)
    result = SimulationResult(scheme=protocol.name, trace_name=columnar.name)
    session = open_kernel_session(Simulator(), protocol, result, SimulationContext())
    assert session is not None


@pytest.mark.parametrize(
    "config", FAMILY + [("dir1nb", {})], ids=[_label(c) for c in FAMILY] + ["dir1nb"]
)
def test_session_refuses_bounded_directory(columnar, config):
    protocol = _build(config, len(columnar.pids), dir_capacity=16)
    assert (
        open_kernel_session(Simulator(), protocol, object(), SimulationContext())
        is None
    )


@pytest.mark.parametrize(
    "scheme", ["dir0b", "dir1nb", "dirnnb", "dirib", "dirinb", "coarse-vector"]
)
def test_bounded_directory_recalls_match_record_path(scheme):
    """Infinite caches + dir_capacity used to drop every recall in the
    dir0b/dir1nb kernels; every scheme must now take the recall path."""
    trace = make_trace("pops", length=5000, seed=1)
    num_caches = len(trace.pids)
    simulator = Simulator()
    fast = simulator.run(trace, make_protocol(scheme, num_caches, dir_capacity=16))
    slow = simulator._run_records(
        trace, make_protocol(scheme, num_caches, dir_capacity=16)
    )
    assert fast.directory_recalls > 0
    assert fast == slow


@pytest.mark.parametrize("scheme", ["dirnnb", "dirib", "dirinb", "coarse-vector"])
def test_wrappers_bail(columnar, scheme):
    num_caches = len(columnar.pids)
    for wrapped in (
        CoherentOracle(make_protocol(scheme, num_caches)),
        SaboteurProtocol(make_protocol(scheme, num_caches), trigger_after=10**9),
    ):
        assert not has_kernel(wrapped)
        assert (
            open_kernel_session(Simulator(), wrapped, object(), SimulationContext())
            is None
        )


def _drop_a_pointer(protocol):
    entry = next(e for e in protocol.directory._entries.values() if len(e.pointers) > 1)
    entry.pointers.pop()  # a holder the directory lost track of


def _clear_a_broadcast_bit(protocol):
    entry = next(e for e in protocol.directory._entries.values() if e.broadcast)
    entry.broadcast = False


def _flip_a_dirty_bit(protocol):
    entry = next(e for e in protocol.directory._entries.values() if e.dirty)
    entry.dirty = False


def _widen_a_coarse_code(protocol):
    # A code wider than encode(holders): reachable only with evictions.
    directory = protocol.directory
    block, (holder,) = next(
        (b, s) for b, s in directory._true_sharers.items() if len(s) == 1
    )
    directory._codes[block] = CoarseVector.encode(
        protocol.num_caches, [holder, holder ^ 1]
    )


def _demote_a_two_bit_state(protocol):
    states = protocol.directory._states
    block = next(b for b, state in states.items() if state is TwoBitState.CLEAN_ONE)
    states[block] = TwoBitState.CLEAN_MANY


@pytest.mark.parametrize(
    "scheme, corrupt",
    [
        ("dir4nb", _drop_a_pointer),
        ("dir1b", _clear_a_broadcast_bit),
        ("dirnnb", _flip_a_dirty_bit),
        ("coarse-vector", _widen_a_coarse_code),
        ("dir0b", _demote_a_two_bit_state),
    ],
)
def test_importer_bails_on_directory_drift(columnar, scheme, corrupt):
    """A directory that disagrees with the caches is outside the
    encoding: the kernel refuses and leaves the state untouched."""
    simulator = Simulator()
    protocol = make_protocol(scheme, len(columnar.pids))
    context = SimulationContext()
    simulator.run(columnar, protocol, context=context)
    corrupt(protocol)
    before = _machine(protocol)
    assert open_kernel_session(simulator, protocol, object(), context) is None
    assert _machine(protocol) == before


@pytest.mark.parametrize("scheme", ["dirnnb", "dirib", "dirinb"])
def test_sharer_overflow_error_matches_generic(columnar, scheme):
    simulator = Simulator()
    with pytest.raises(ConfigurationError) as via_kernel:
        simulator.run(columnar, make_protocol(scheme, num_caches=1))
    with pytest.raises(ConfigurationError) as via_generic:
        _generic_run(simulator, make_protocol(scheme, num_caches=1), columnar)
    assert str(via_kernel.value) == str(via_generic.value)


# ----------------------------------------------------------------------
# Bit identity and exported state
# ----------------------------------------------------------------------


@family
def test_matches_record_and_generic_paths(trace, columnar, config):
    simulator = Simulator()
    num_caches = len(columnar.pids)
    via_kernel = _build(config, num_caches)
    via_generic = _build(config, num_caches)
    via_records = _build(config, num_caches)
    kernel = _kernel_run(simulator, via_kernel, columnar)
    generic = _generic_run(simulator, via_generic, columnar)
    records = simulator._run_records(trace, via_records)
    assert kernel == generic == records
    assert _machine(via_kernel) == _machine(via_generic) == _machine(via_records)


@family
def test_matches_on_migratory_trace_with_cpu_sharers(migratory, config):
    simulator = Simulator(sharer_key="cpu")
    num_caches = len(migratory.cpus)
    via_kernel = _build(config, num_caches)
    via_generic = _build(config, num_caches)
    assert _kernel_run(simulator, via_kernel, migratory) == _generic_run(
        simulator, via_generic, migratory
    )
    assert _machine(via_kernel) == _machine(via_generic)


@family
def test_segmented_run_imports_live_state(trace, columnar, config):
    """One protocol and context over many windows: every window after the
    first imports the state the previous one exported."""
    simulator = Simulator()
    num_caches = len(columnar.pids)
    reference = _build(config, num_caches)
    whole = simulator._run_records(trace, reference)

    protocol = _build(config, num_caches)
    context = SimulationContext()
    parts = []
    for start in range(0, len(columnar), 777):
        segment = columnar.records[start : start + 777]
        if start:
            probe = open_kernel_session(
                simulator, protocol, object(), context
            )
            assert probe is not None  # non-empty state imports cleanly
        parts.append(
            simulator.run(segment, protocol, trace_name=trace.name, context=context)
        )
    total = merge_results(parts, name=trace.name)
    total.scheme = whole.scheme
    assert total == whole
    assert _machine(protocol) == _machine(reference)


def test_pointer_order_survives_export(columnar):
    """LIFO victims depend on join order, which only the exported pointer
    lists carry from one segment to the next."""
    simulator = Simulator()
    num_caches = len(columnar.pids)
    via_kernel = make_protocol(
        "dirinb", num_caches, num_pointers=3,
        eviction_policy=PointerEvictionPolicy.LIFO,
    )
    via_generic = make_protocol(
        "dirinb", num_caches, num_pointers=3,
        eviction_policy=PointerEvictionPolicy.LIFO,
    )
    _kernel_run(simulator, via_kernel, columnar)
    _generic_run(simulator, via_generic, columnar)
    kernel_order = {
        block: entry.pointers
        for block, entry in via_kernel.directory._entries.items()
    }
    generic_order = {
        block: entry.pointers
        for block, entry in via_generic.directory._entries.items()
    }
    assert kernel_order == generic_order
    assert any(
        pointers != sorted(pointers) for pointers in kernel_order.values()
    ), "trace never produced a non-sorted pointer list"


def test_chunked_midchunk_resume(trace, tmp_path, monkeypatch):
    """A checkpointed .ctrc run killed mid-chunk resumes through the
    kernel from the unpickled (non-empty) protocol, bit for bit."""
    import repro.core.simulator as simulator_module

    path = tmp_path / "pops.ctrc"
    pack_trace(trace, path, chunk_records=997)
    schemes = ["dirnnb", "dir2b", "dir3nb", "coarse-vector"]
    opened = []
    real_open = simulator_module.open_kernel_session

    def spy(*args):
        session = real_open(*args)
        opened.append(session is not None)
        return session

    monkeypatch.setattr(simulator_module, "open_kernel_session", spy)
    real_save = CheckpointManager.save_cell_state

    def save_then_die(self, state):
        real_save(self, state)
        if state["records_done"] >= 1800:
            raise KeyboardInterrupt("injected process kill")

    with ChunkedTrace(path) as chunked:
        plain = Simulator().run(ColumnarTrace.from_trace(trace), "dirnnb")
        for scheme in schemes:
            ckpt = str(tmp_path / f"ckpt-{scheme}")
            monkeypatch.setattr(CheckpointManager, "save_cell_state", save_then_die)
            with pytest.raises(KeyboardInterrupt):
                run_resilient_sweep(
                    [chunked], [scheme], checkpoint_dir=ckpt, checkpoint_every=600
                )
            monkeypatch.setattr(CheckpointManager, "save_cell_state", real_save)
            state = CheckpointManager(ckpt).load_cell_state()
            assert state["chunk_position"][1] != 0, "snapshot must land mid-chunk"

            opened.clear()
            resumed = run_resilient_sweep(
                [chunked], [scheme], checkpoint_dir=ckpt,
                checkpoint_every=600, resume=True,
            )
            assert resumed.ok
            assert opened and all(opened)
            plain = Simulator().run(ColumnarTrace.from_trace(trace), scheme)
            plain.scheme = scheme
            assert result_to_json(resumed.result(scheme, chunked.name)) == \
                result_to_json(plain)


# ----------------------------------------------------------------------
# Fuzz-driven differential: pointer overflow and broadcast on demand
# ----------------------------------------------------------------------

FUZZ_PATTERNS = ("migratory", "wide-sharing")
FUZZ_TRACES = 12


@pytest.fixture(scope="module")
def fuzz_traces():
    fuzzer = TraceFuzzer(seed=14, min_processes=3, max_processes=8, max_refs=240)
    wanted = [PATTERNS.index(pattern) for pattern in FUZZ_PATTERNS]
    picked = []
    index = 0
    while len(picked) < FUZZ_TRACES:
        if index % len(PATTERNS) in wanted:
            picked.append(fuzzer.trace(index))
        index += 1
    return picked


@family
def test_fuzz_differential(fuzz_traces, config):
    simulator = Simulator()
    evictions = broadcasts = wasted = 0
    for fuzz in fuzz_traces:
        columnar = ColumnarTrace.from_trace(fuzz)
        via_kernel = _build(config, 8)
        via_records = _build(config, 8)
        fast = _kernel_run(simulator, via_kernel, columnar)
        slow = simulator._run_records(fuzz, via_records)
        assert fast == slow, fuzz.name
        assert _machine(via_kernel) == _machine(via_records), fuzz.name
        evictions += fast.pointer_evictions
        wasted += fast.wasted_invalidations
        broadcasts += fast.all_op_units()[OpKind.BROADCAST_INVALIDATE]
    name, options = config
    # The campaign must actually reach each organization's hard cases.
    if name == "dirinb":
        assert evictions > 0
    if name in ("dirib", "dir0b"):
        assert broadcasts > 0
    if name == "coarse-vector":
        assert wasted > 0
