"""``Simulator.run`` packs every input into columns at its entry.

A :class:`Trace` is packed once and memoized on the trace itself, a raw
record stream is packed in bounded batches, and the per-record loop
(``Simulator._run_records``) is reached only under invariant checking.
These tests hold the memo's lifetime rules, the batch path's results
and error messages, and the one-path guarantee.
"""

import gc
import pickle
import weakref

import pytest

import repro.core.simulator as simulator_module
from repro.core.experiment import run_experiment
from repro.core.simulator import STREAM_BATCH, SimulationContext, Simulator
from repro.engine.core import Engine
from repro.engine.plan import ExecutionPlan
from repro.errors import ConfigurationError
from repro.protocols.registry import available_protocols, make_protocol
from repro.runner.checkpoint import CheckpointManager
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import load_trace, write_trace_file
from repro.trace.stream import Trace
from repro.workloads.registry import make_trace

SCHEMES = ["dir0b", "dir1nb", "wti", "dragon", "dirnnb", "berkeley"]


@pytest.fixture(scope="module")
def trace():
    return make_trace("pops", length=3000, seed=9)


@pytest.fixture
def pack_count(monkeypatch):
    """Counts ColumnarTrace.from_trace calls (every Trace packing)."""
    calls = []
    original = ColumnarTrace.from_trace.__func__

    def counting(cls, source):
        calls.append(source)
        return original(cls, source)

    monkeypatch.setattr(ColumnarTrace, "from_trace", classmethod(counting))
    return calls


@pytest.fixture
def from_records_count(monkeypatch):
    """Counts ColumnarTrace.from_records calls (every packing of records)."""
    calls = []
    original = ColumnarTrace.from_records.__func__

    def counting(cls, records, *args, **kwargs):
        calls.append(records)
        return original(cls, records, *args, **kwargs)

    monkeypatch.setattr(ColumnarTrace, "from_records", classmethod(counting))
    return calls


def fresh_trace(source, name="fresh"):
    return Trace(name, list(source.records), source.description)


# ----------------------------------------------------------------------
# The Trace memo
# ----------------------------------------------------------------------


def test_one_packing_per_trace_across_a_sweep(
    trace, pack_count, from_records_count, tmp_path
):
    sweep_trace = fresh_trace(trace)
    outcome = run_experiment([sweep_trace], SCHEMES)
    assert not outcome.failures
    simulator = Simulator()
    for scheme in SCHEMES:
        simulator.run(sweep_trace, scheme)
    # Checkpointed serial sweeps window the memoized columns too.
    windowed = Engine(
        checkpoint=CheckpointManager(tmp_path / "ckpt"), checkpoint_every=700
    ).run(ExecutionPlan(traces=[sweep_trace], schemes=SCHEMES))
    assert not windowed.failures
    assert windowed.results == outcome.results
    assert pack_count == [sweep_trace]
    assert len(from_records_count) == 1


def test_rebinding_records_invalidates_the_memo(trace, pack_count):
    rebound = fresh_trace(trace)
    first = rebound.columnar()
    assert rebound.columnar() is first
    rebound.records = list(trace.records[:1000])
    second = rebound.columnar()
    assert second is not first and len(second) == 1000
    assert len(pack_count) == 2
    simulator = Simulator()
    assert simulator.run(rebound, "dir0b") == simulator._run_records(
        rebound, "dir0b"
    )


def test_growing_or_renaming_the_trace_repacks(trace):
    grown = fresh_trace(trace)
    grown.records = list(trace.records[:10])
    packed = grown.columnar()
    grown.records.append(trace.records[10])
    assert len(grown.columnar()) == 11
    grown.name = "renamed"
    assert grown.columnar() is not packed
    assert grown.columnar().name == "renamed"


def test_memo_does_not_keep_a_dropped_trace_alive(trace):
    dropped = fresh_trace(trace)
    Simulator().run(dropped, "dir0b")
    assert dropped.columnar() is not None
    ref = weakref.ref(dropped)
    del dropped
    gc.collect()
    assert ref() is None


def test_memo_stays_out_of_eq_repr_and_pickles(trace):
    packed = fresh_trace(trace)
    plain = fresh_trace(trace)
    packed.columnar()
    assert packed == plain
    assert repr(packed) == repr(plain)
    clone = pickle.loads(pickle.dumps(packed))
    assert "_packed" not in vars(clone)
    assert len(pickle.dumps(packed)) == len(pickle.dumps(plain))
    assert clone == packed


def test_lazy_file_traces_are_streamed_not_memoized(trace, tmp_path):
    path = tmp_path / "lazy.trace"
    write_trace_file(trace.records, path)
    lazy = load_trace(path, lazy=True)
    assert lazy.columnar() is None
    simulator = Simulator()
    assert simulator.run(lazy, "dir1nb") == simulator._run_records(lazy, "dir1nb")


# ----------------------------------------------------------------------
# Raw record streams: bounded batches
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["dir0b", "dragon", "dirnnb"])
def test_generator_longer_than_one_batch_matches_record_loop(scheme):
    long_trace = make_trace("thor", length=2 * STREAM_BATCH + 123, seed=4)
    num_caches = len(long_trace.pids)
    simulator = Simulator()
    streamed = simulator.run(
        (record for record in long_trace.records), scheme, num_caches=num_caches
    )
    reference = simulator._run_records(
        iter(long_trace.records), scheme, num_caches=num_caches
    )
    assert streamed == reference
    assert streamed.trace_name == "stream"


@pytest.mark.parametrize("scheme", available_protocols())
def test_small_batches_match_record_loop_for_every_protocol(
    trace, scheme, monkeypatch
):
    monkeypatch.setattr(simulator_module, "STREAM_BATCH", 257)
    simulator = Simulator()
    num_caches = len(trace.pids)
    context = SimulationContext()
    streamed = simulator.run(
        iter(trace.records), scheme, num_caches=num_caches, context=context
    )
    reference = simulator._run_records(
        iter(trace.records), scheme, num_caches=num_caches
    )
    assert streamed == reference
    assert context.records_done == len(trace)


def test_batches_are_packed_lazily(trace):
    consumed = []

    def source():
        for record in trace.records:
            consumed.append(record)
            yield record

    batches = ColumnarTrace.batches(source(), 100, "s")
    first = next(batches)
    assert len(first) == 100 and len(consumed) == 100
    assert sum(len(batch) for batch in batches) == len(trace) - 100


def test_num_caches_required_error_unchanged_for_raw_streams(trace):
    simulator = Simulator()
    with pytest.raises(ConfigurationError) as packed:
        simulator.run(iter(trace.records), "dir0b")
    with pytest.raises(ConfigurationError) as reference:
        simulator._run_records(iter(trace.records), "dir0b")
    assert str(packed.value) == str(reference.value)
    assert "num_caches is required" in str(packed.value)


@pytest.mark.parametrize("scheme", ["dir0b", "dirnnb"])
def test_too_many_sharers_error_unchanged_for_raw_streams(trace, scheme):
    simulator = Simulator()
    with pytest.raises(ConfigurationError) as packed:
        simulator.run(iter(trace.records), scheme, num_caches=1)
    with pytest.raises(ConfigurationError) as reference:
        simulator._run_records(iter(trace.records), scheme, num_caches=1)
    assert str(packed.value) == str(reference.value)
    assert "distinct sharers" in str(packed.value)


# ----------------------------------------------------------------------
# One path
# ----------------------------------------------------------------------


def test_no_input_reaches_the_record_loop_unless_checking(
    trace, tmp_path, monkeypatch
):
    from repro.store import ChunkedTrace, pack_trace

    path = tmp_path / "lazy.trace"
    write_trace_file(trace.records, path)
    store = tmp_path / "trace.ctrc"
    pack_trace(trace, store, chunk_records=700)
    expected = {
        scheme: Simulator()._run_records(trace, scheme) for scheme in SCHEMES
    }

    def forbidden(*args, **kwargs):
        raise AssertionError("the per-record loop ran without invariant checks")

    monkeypatch.setattr(Simulator, "_run_records", forbidden)
    simulator = Simulator()
    num_caches = len(trace.pids)
    with ChunkedTrace(store) as chunked:
        inputs = [
            fresh_trace(trace, trace.name),
            ColumnarTrace.from_trace(trace),
            chunked,
            load_trace(path, name=trace.name, lazy=True),
        ]
        for scheme in SCHEMES:
            for source in inputs:
                assert simulator.run(source, scheme) == expected[scheme]
            for raw in (iter(trace.records), list(trace.records)):
                result = simulator.run(
                    raw, scheme, num_caches=num_caches, trace_name=trace.name
                )
                assert result == expected[scheme]

    # Segmented runs with a shared context (the checkpointed engine's
    # shape) stay on the columnar paths too.
    protocol = make_protocol("dir0b", num_caches=num_caches)
    context = SimulationContext()
    for start in range(0, len(trace), 500):
        simulator.run(trace.records[start : start + 500], protocol, context=context)
    assert context.records_done == len(trace)

    with pytest.raises(AssertionError, match="per-record loop"):
        Simulator(check_invariants=100).run(trace, "dir0b")
