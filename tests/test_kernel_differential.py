"""Differential tests for the state-table kernels.

``repro.protocols.kernels`` reimplements the dir0b/dir1nb/wti/dragon
inner loops as table lookups over a compact state encoding.  The
contract is strict bit-identity with the object model plus a guarantee
that the kernel *refuses* (returns None, state untouched) whenever the
protocol, caches, or live state fall outside its verified encoding —
so wrappers, finite caches, and mutation-tested variants always
exercise the real state machines.
"""

import pytest

from repro.core.simulator import SimulationContext, Simulator
from repro.core.result import merge_results
from repro.errors import ConfigurationError
from repro.memory.cache import FiniteCache
from repro.protocols.kernels import has_kernel, open_kernel_session
from repro.protocols.registry import make_protocol
from repro.trace.columnar import ColumnarTrace
from repro.workloads.registry import make_trace

KERNEL_SCHEMES = ("dir0b", "dir1nb", "wti", "dragon")
TRACE_LENGTH = 6000


def _snapshot(protocol):
    """Every cache's visible line states, for state-equality checks."""
    return [
        protocol.cache_contents(index) for index in range(protocol.num_caches)
    ]


@pytest.fixture(scope="module")
def trace():
    return make_trace("pops", length=TRACE_LENGTH, seed=7)


@pytest.fixture(scope="module")
def columnar(trace):
    return ColumnarTrace.from_trace(trace)


@pytest.fixture(scope="module")
def write_heavy():
    # Migratory workloads drive the dirty-owner transitions hardest.
    return ColumnarTrace.from_trace(
        make_trace("thor", length=TRACE_LENGTH, seed=11)
    )


# ----------------------------------------------------------------------
# Engagement: the kernels actually run for the stock protocols
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_kernel_engages_for_stock_protocol(columnar, scheme):
    simulator = Simulator()
    protocol = make_protocol(scheme, num_caches=len(columnar.pids))
    assert has_kernel(protocol)
    from repro.core.result import SimulationResult

    result = SimulationResult(scheme=protocol.name, trace_name=columnar.name)
    session = open_kernel_session(simulator, protocol, result, SimulationContext())
    assert session is not None  # did not bail to the generic path
    session.run_chunk(columnar)
    assert session.finish() is result


def test_no_kernel_for_other_protocols():
    for scheme in ("dirnnb", "dirib", "coarse-vector", "write-once", "illinois"):
        protocol = make_protocol(scheme, num_caches=4)
        assert not has_kernel(protocol)
        assert (
            open_kernel_session(
                Simulator(),
                protocol,
                object(),
                SimulationContext(),
            )
            is None
        )


# ----------------------------------------------------------------------
# Bit-identity with the record path and the generic columnar loop
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_kernel_matches_record_path(trace, columnar, scheme):
    simulator = Simulator()
    assert simulator.run(columnar, scheme) == simulator._run_records(trace, scheme)


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_kernel_matches_generic_columnar_loop(columnar, scheme):
    """Same trace, same protocol type: kernel == _run_columnar."""
    from repro.core.result import SimulationResult

    simulator = Simulator()
    num_caches = len(columnar.pids)

    kernel_result = simulator.run(columnar, scheme)

    protocol = make_protocol(scheme, num_caches=num_caches)
    generic = simulator._run_columnar(
        columnar,
        protocol,
        SimulationResult(scheme=protocol.name, trace_name=columnar.name),
        SimulationContext(),
    )
    assert kernel_result == generic


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_kernel_matches_on_write_heavy_trace(write_heavy, scheme):
    simulator = Simulator()
    assert simulator.run(write_heavy, scheme) == simulator._run_records(
        write_heavy.to_trace(), scheme
    )


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_kernel_matches_with_cpu_sharers(trace, columnar, scheme):
    simulator = Simulator(sharer_key="cpu")
    assert simulator.run(columnar, scheme) == simulator._run_records(trace, scheme)


# ----------------------------------------------------------------------
# Import/export round trips (segmented simulation)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_kernel_segmented_run_matches_continuous(trace, columnar, scheme):
    """Checkpoint-shaped execution: one protocol + context, many windows.

    Every window after the first imports live state the previous
    window's kernel exported, so this round-trips the full encoding
    (dirty owners, shared masks, directory entries) at odd boundaries.
    """
    simulator = Simulator()
    whole = simulator._run_records(trace, scheme)

    protocol = make_protocol(scheme, num_caches=len(columnar.pids))
    context = SimulationContext()
    parts = []
    for start in range(0, len(columnar), 777):
        segment = columnar.records[start : start + 777]
        parts.append(
            simulator.run(segment, protocol, trace_name=trace.name, context=context)
        )
    total = merge_results(parts, name=trace.name)
    total.scheme = whole.scheme
    assert total == whole


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_kernel_export_matches_object_model_state(columnar, scheme):
    """After a run, the kernel-exported caches equal the generic path's."""
    from repro.core.result import SimulationResult

    simulator = Simulator()
    num_caches = len(columnar.pids)

    via_kernel = make_protocol(scheme, num_caches=num_caches)
    session = open_kernel_session(
        simulator,
        via_kernel,
        SimulationResult(scheme=via_kernel.name, trace_name=columnar.name),
        SimulationContext(),
    )
    assert session is not None
    session.run_chunk(columnar)
    session.finish()

    via_generic = make_protocol(scheme, num_caches=num_caches)
    simulator._run_columnar(
        columnar,
        via_generic,
        SimulationResult(scheme=via_generic.name, trace_name=columnar.name),
        SimulationContext(),
    )
    assert _snapshot(via_kernel) == _snapshot(via_generic)


# ----------------------------------------------------------------------
# Refusal: anything outside the verified encoding falls back
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_finite_kernel_engages_for_uniform_geometry(columnar, scheme):
    """Exact FiniteCaches of one geometry run the capacity-aware kernel."""
    from repro.core.result import SimulationResult

    simulator = Simulator()
    protocol = make_protocol(
        scheme,
        num_caches=len(columnar.pids),
        cache_factory=lambda: FiniteCache(num_sets=4, associativity=1),
    )
    assert has_kernel(protocol)
    result = SimulationResult(scheme=protocol.name, trace_name=columnar.name)
    session = open_kernel_session(simulator, protocol, result, SimulationContext())
    assert session is not None
    session.run_chunk(columnar)
    assert session.finish() is result


def test_kernel_bails_on_subclassed_finite_cache(columnar):
    """A FiniteCache subclass is outside both kernels' verified model."""

    class TracingFiniteCache(FiniteCache):
        pass

    simulator = Simulator()
    protocol = make_protocol(
        "dir0b",
        num_caches=len(columnar.pids),
        cache_factory=lambda: TracingFiniteCache(num_sets=4, associativity=1),
    )
    before = _snapshot(protocol)
    assert (
        open_kernel_session(simulator, protocol, object(), SimulationContext())
        is None
    )
    assert _snapshot(protocol) == before  # refusal leaves state untouched


def test_kernel_bails_on_mixed_geometry(columnar):
    """Caches of different shapes fall back to the generic loop."""
    geometries = iter([(4, 1), (8, 2), (4, 1), (8, 2), (4, 1), (8, 2)])
    simulator = Simulator()
    protocol = make_protocol(
        "dir0b",
        num_caches=len(columnar.pids),
        cache_factory=lambda: FiniteCache(*next(geometries)),
    )
    assert (
        open_kernel_session(simulator, protocol, object(), SimulationContext())
        is None
    )


def test_finite_cache_columnar_run_still_correct(trace, columnar):
    """Finite kernel and generic record path agree on finite caches."""
    simulator = Simulator()

    def factory():
        return FiniteCache(num_sets=4, associativity=1)

    num_caches = len(columnar.pids)
    fast = simulator.run(
        columnar, make_protocol("dir0b", num_caches, cache_factory=factory)
    )
    slow = simulator._run_records(
        trace, make_protocol("dir0b", num_caches, cache_factory=factory)
    )
    assert fast == slow


def test_kernel_bails_on_unseen_held_block(columnar):
    """A context that has never seen a held block is outside the model."""
    simulator = Simulator()
    protocol = make_protocol("dir0b", num_caches=len(columnar.pids))
    warm_context = SimulationContext()
    simulator.run(columnar, protocol, context=warm_context)

    cold_context = SimulationContext()  # empty seen_blocks, caches warm
    assert (
        open_kernel_session(simulator, protocol, object(), cold_context) is None
    )


def test_kernel_bails_on_wrapped_protocol(columnar):
    from repro.runner.faults import SaboteurProtocol

    inner = make_protocol("dir0b", num_caches=len(columnar.pids))
    wrapped = SaboteurProtocol(inner, trigger_after=10**9)
    assert not has_kernel(wrapped)


def test_invariant_checking_bypasses_kernel(trace, columnar):
    """check_invariants forces the record path; results still match."""
    checked = Simulator(check_invariants=100)
    plain = Simulator()
    assert checked.run(columnar, "dir0b") == plain.run(columnar, "dir0b")


# ----------------------------------------------------------------------
# Error parity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_kernel_sharer_overflow_error_matches_generic(columnar, scheme):
    """Too many sharers raises the same ConfigurationError text."""
    from repro.core.result import SimulationResult

    simulator = Simulator()

    with pytest.raises(ConfigurationError) as via_kernel:
        simulator.run(columnar, make_protocol(scheme, num_caches=1))

    protocol = make_protocol(scheme, num_caches=1)
    with pytest.raises(ConfigurationError) as via_generic:
        simulator._run_columnar(
            columnar,
            protocol,
            SimulationResult(scheme=protocol.name, trace_name=columnar.name),
            SimulationContext(),
        )
    assert str(via_kernel.value) == str(via_generic.value)
