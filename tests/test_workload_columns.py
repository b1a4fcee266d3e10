"""The synthetic generator emits packed columns, and nothing else.

``SyntheticWorkload`` appends ints to ``array('Q')``/``bytearray``
columns and hands them out as bounded ``ColumnarTrace`` batches; records
and ``Trace`` objects are decoded from those.  These tests hold the
batch bounds, the checks a record would have made on construction, and
the paths that must never build a ``TraceRecord`` at all.
"""

import pytest

import repro.workloads.base as base_module
from repro.core.simulator import Simulator
from repro.service.spec import TraceSpec
from repro.store import ChunkedTrace, write_stream
from repro.trace.columnar import (
    FLAG_LOCK,
    FLAG_SPIN,
    FLAG_SYSTEM,
    ColumnarTrace,
    check_flags,
)
from repro.trace.record import TraceRecord
from repro.workloads.registry import make_trace, stream_trace


@pytest.fixture
def record_count(monkeypatch):
    """Counts TraceRecord constructions (each one runs __post_init__)."""
    calls = []
    original = TraceRecord.__post_init__

    def counting(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(TraceRecord, "__post_init__", counting)
    return calls


# ----------------------------------------------------------------------
# Batches
# ----------------------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 64, 1000, 5000])
def test_batches_are_bounded_and_concatenate_to_the_trace(batch):
    stream = stream_trace("thor", length=3000, seed=5)
    batches = list(stream.iter_columns(batch))
    assert all(len(piece) <= batch for piece in batches)
    assert all(len(piece) == batch for piece in batches[:-1])
    assert [record for piece in batches for record in piece] == list(
        make_trace("thor", length=3000, seed=5)
    )


def test_stream_is_reiterable_and_matches_build():
    stream = stream_trace("pero", length=2500, seed=3)
    built = make_trace("pero", length=2500, seed=3)
    first = list(stream)
    assert first == list(stream)
    assert first == built.records
    assert stream.columnar() == built.columnar()


def test_batch_size_must_be_positive():
    with pytest.raises(ValueError, match="batch must be >= 1"):
        next(stream_trace("pops", length=10).iter_columns(0))


def test_build_seeds_the_trace_memo(monkeypatch):
    trace = make_trace("pops", length=2000, seed=2)
    packed = trace.columnar()
    assert packed.name == trace.name and packed.to_records() == trace.records

    def forbidden(cls, source):
        raise AssertionError("a generated trace was packed again")

    monkeypatch.setattr(ColumnarTrace, "from_trace", classmethod(forbidden))
    assert trace.columnar() is packed
    assert Simulator().run(trace, "dir0b") == Simulator()._run_records(trace, "dir0b")


# ----------------------------------------------------------------------
# Validation on the packed path
# ----------------------------------------------------------------------


def test_check_flags_accepts_every_record_flag_combination():
    check_flags(bytes([0, FLAG_SYSTEM, FLAG_LOCK, FLAG_LOCK | FLAG_SPIN]))
    check_flags(bytes([FLAG_SYSTEM | FLAG_LOCK | FLAG_SPIN]))


@pytest.mark.parametrize("bad", [FLAG_SPIN, FLAG_SPIN | FLAG_SYSTEM])
def test_check_flags_rejects_spin_without_lock(bad):
    with pytest.raises(ValueError, match="at record 12: spin references must"):
        check_flags(bytes([0, FLAG_LOCK, bad]), start=10)


def test_generator_rejects_a_spin_without_lock_batch(monkeypatch):
    monkeypatch.setattr(base_module, "_SPIN", FLAG_SPIN)
    with pytest.raises(ValueError, match="spin references must also be lock"):
        list(stream_trace("pops", length=20000, seed=1).iter_columns())


def test_generator_rejects_negative_addresses(monkeypatch):
    original = base_module._Process.__init__

    def negative_code(self, workload, pid, columns):
        original(self, workload, pid, columns)
        self._instr_base = -(1 << 20)

    monkeypatch.setattr(base_module._Process, "__init__", negative_code)
    with pytest.raises(OverflowError):
        list(stream_trace("pops", length=1000, seed=1).iter_columns())


# ----------------------------------------------------------------------
# Paths that build no records
# ----------------------------------------------------------------------


def test_trace_spec_build_creates_no_records(record_count):
    built = TraceSpec(workload="pops", length=5000, seed=4).build()
    assert isinstance(built, ColumnarTrace) and len(built) == 5000
    assert record_count == []


def test_write_stream_of_a_generated_stream_creates_no_records(
    record_count, tmp_path
):
    path = tmp_path / "pops.ctrc"
    meta = write_stream(
        stream_trace("pops", length=40000, seed=4), path, chunk_records=4096
    )
    assert record_count == []
    assert meta["records"] == 40000
    with ChunkedTrace(path) as stored:
        assert stored.fingerprint() == meta["fingerprint"]


def test_simulating_a_generated_stream_creates_no_records(record_count):
    stream = stream_trace("thor", length=4000, seed=6)
    result = Simulator().run(stream, "dirnnb", num_caches=4, trace_name="thor")
    assert record_count == []
    reference = make_trace("thor", length=4000, seed=6)
    expected = Simulator()._run_records(reference, "dirnnb", num_caches=4)
    assert result == expected
