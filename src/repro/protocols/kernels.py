"""Table-driven columnar kernels for the paper's hot protocols.

The generic columnar loop (``Simulator._run_columnar``) still pays
per-reference *method dispatch*: every data reference walks
``on_read``/``on_write`` through cache-model calls, directory
bookkeeping, and ``ProtocolResult`` construction.  Eight protocols —
the multi-copy directory family (``dir0b``, ``dirnnb``, ``dirib``,
``dirinb``, ``coarse-vector``), ``dir1nb``, ``wti``, and ``dragon`` —
have a tiny reachable state space under infinite caches, so each inner
loop collapses to a handful of dict lookups over a **compact state
encoding** plus a table of precomputed, shared :class:`ProtocolResult`
instances keyed on (state, op, holder relation).  The five family
members share one kernel: they run the same data state machine and
differ only in the invalidation rule the table is filled from.

Each kernel is split into three stages so chunk-streamed simulation
(:mod:`repro.store`) can amortize the expensive ends:

* an **importer** reads the protocol's live object state into the
  compact encoding, cross-checking every derived invariant;
* a **loop** runs the hot per-reference state machine over one
  columnar chunk, accumulating identity-batched outcomes;
* an **exporter** writes the compact state back into the protocol's
  caches and directory, exactly as the object model would have left
  them.

:func:`open_kernel_session` composes all three: it returns a
:class:`KernelSession` that imports once, loops over any number of
chunks with the compact (interned sharer-bitmask) state resident in
between, and exports once at :meth:`KernelSession.finish` — so a
multi-gigabyte chunked trace or a batch-packed record stream never
materializes per-chunk object-model state.  ``Simulator.run`` drives every input through such a session.

Bit-identity contract
---------------------

A kernel is an alternative *evaluator*, not an alternative *model*:

* it engages only for exact protocol/cache/directory types (any
  wrapper — a conformance oracle, a mutation-testing saboteur, a
  subclassed cache — fails the ``type() is`` gates and falls back to
  the generic path, so differential and chaos suites still exercise
  the real object model);
* before running, the importer cross-checks the live state; any
  inconsistency aborts the kernel (returning None with protocol state
  untouched) and the generic path runs instead;
* after running, the exporter leaves the protocol's caches and
  directory exactly as the object model would have — segmented
  (checkpoint-windowed) simulation keeps feeding the same protocol
  instance through import/export round trips;
* event classification, bus-op tuples, ``clean_write_sharers``
  populations, and the identity-batched accumulation replicate the
  generic path decision for decision, so results are bit-identical
  (``tests/test_kernel_differential.py`` and
  ``tests/test_kernel_family.py`` hold this per protocol, and
  the engine-parity / ``repro verify`` suites hold it end to end).

State encodings (all under infinite caches):

* the multi-copy directory family — per block: a holder bitmask plus an
  optional dirty owner, and per organization:

  - ``dir0b``: nothing more; the two-bit directory state is a pure
    function of (mask, owner) (popcount 0/1/many, owner or not);
  - ``dirnnb`` (full map or Tang): nothing more; the presence bits are
    the mask;
  - ``dirib`` / ``dirinb``: the pointer join order, kept only for blocks
    with two or more exact pointers (it decides FIFO/LIFO victims and
    the exported pointer lists); the ``dirib`` broadcast bit is
    ``popcount(mask) > i``, since copies only leave on a write;
  - ``coarse-vector``: nothing more; the stored code is always
    ``CoarseVector.encode(holders)``, so the denoted set is memoized
    per mask and wasted messages are denoted minus holders minus the
    requester.

  Hits never consult the organization; misses and clean write hits
  look up outcomes interned per (holder mask, requester).
* ``dir1nb`` — per block: ``(holder << 1) | dirty`` — at most one
  cache ever holds a block.
* ``wti`` — per block: a holder bitmask (write-through caches are
  always clean).
* ``dragon`` — per block: a holder bitmask plus an optional owner;
  the four Dragon line states are derived (sole holder: VE, or D when
  owning; shared: SC with the owner SD).

Every directory protocol's importer bails when the protocol bounds its
directory (``dir_capacity``): recalls stay on the generic path.

Finite-capacity kernels
-----------------------

``dir0b``, ``dir1nb``, ``wti`` and ``dragon`` also have
**capacity-aware** kernels that engage when every cache is exactly a
:class:`FiniteCache` of one shared geometry (and no directory-entry
bound is set — recalls stay on the generic path).  They keep, per
cache, compact LRU stacks over the integer encodings: one plain dict
per cache set whose insertion order is the set's LRU order (oldest
first), exactly mirroring the ``OrderedDict`` sets of
:class:`FiniteCache`.  Replacement picks
``next(iter(set_dict))``; a touch is delete-and-reinsert.  Because a
reference installs at most one line, a replacement adds at most one
trailing bus op to an infinite-model outcome — memoized as the
``_with_wb`` variant so identity batching still works.
Two encodings change shape under eviction pressure:

* ``dir0b`` keeps an explicit two-bit directory state per block
  (silent evictions make ``CLEAN_MANY`` sticky, so it is no longer a
  pure function of the holder mask);
* ``dragon`` stores each line's state int explicitly (a holder left
  alone by evictions stays ``SHARED_*`` — sole-holder states are not
  derivable).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.memory.cache import FiniteCache, InfiniteCache
from repro.memory.coding import CoarseVector
from repro.memory.directory import (
    CoarseVectorDirectory,
    FullMapDirectory,
    LimitedPointerDirectory,
    PointerEvictionPolicy,
    TangDirectory,
    TwoBitDirectory,
    TwoBitState,
    _FullMapEntry,
    _PointerEntry,
)
from repro.memory.line import DragonLineState, LineState
from repro.protocols.directory.coarse import CoarseVectorProtocol
from repro.protocols.directory.dir0b import Dir0BProtocol
from repro.protocols.directory.dir1nb import Dir1NBProtocol
from repro.protocols.directory.diri import DirIBProtocol, DirINBProtocol
from repro.protocols.directory.dirnnb import DirNNBProtocol
from repro.protocols.events import (
    RESULT_RD_HIT,
    RESULT_WH_BLK_DRTY,
    RESULT_WH_DISTRIB,
    RESULT_WH_LOCAL,
    EventType,
    ProtocolResult,
    broadcast_invalidate,
    cache_access,
    dir_check,
    dir_check_overlapped,
    invalidate,
    mem_access,
    write_back,
    write_word,
)
from repro.protocols.snoopy.dragon import DragonProtocol
from repro.protocols.snoopy.wti import WTIProtocol
from repro.trace.columnar import TYPE_READ, ColumnarTrace

# ----------------------------------------------------------------------
# Precomputed outcome tables.  Every entry matches, field for field, the
# ProtocolResult the object model constructs for the same transition.
# ----------------------------------------------------------------------

_RM_FIRST = ProtocolResult(EventType.RM_FIRST_REF)
_WM_FIRST = ProtocolResult(EventType.WM_FIRST_REF)

# The multi-copy directory family's read misses (every organization),
# then dir0b's finite-kernel outcomes (two-bit broadcast directory).
_MC_RM_DRTY = ProtocolResult(
    EventType.RM_BLK_DRTY, (dir_check_overlapped(), write_back())
)
_MC_RM_CLN = ProtocolResult(
    EventType.RM_BLK_CLN, (dir_check_overlapped(), mem_access())
)
_D0_WM_DRTY = ProtocolResult(
    EventType.WM_BLK_DRTY,
    (dir_check_overlapped(), broadcast_invalidate(), write_back()),
)
_D0_WM_ALONE = ProtocolResult(
    EventType.WM_BLK_CLN,
    (dir_check_overlapped(), mem_access()),
    clean_write_sharers=0,
)
_D0_WH_SOLE = ProtocolResult(
    EventType.WH_BLK_CLN, (dir_check(),), clean_write_sharers=0
)
#: Write hit on a clean-shared block, keyed by the other-holder count.
_D0_WH_CLN: dict[int, ProtocolResult] = {}
#: Write miss on a clean-shared block, keyed by the holder count.
_D0_WM_CLN: dict[int, ProtocolResult] = {}

# dir1nb (single pointer, no broadcast: at most one copy machine-wide)
_D1_WH_CLN = ProtocolResult(EventType.WH_BLK_CLN, clean_write_sharers=0)
_D1_RM_NOHOLDER = ProtocolResult(
    EventType.RM_BLK_CLN, (dir_check_overlapped(), mem_access())
)
_D1_RM_DRTY = ProtocolResult(
    EventType.RM_BLK_DRTY, (dir_check_overlapped(), invalidate(1), write_back())
)
_D1_RM_CLN = ProtocolResult(
    EventType.RM_BLK_CLN, (dir_check_overlapped(), invalidate(1), mem_access())
)
_D1_WM_NOHOLDER = ProtocolResult(
    EventType.WM_BLK_CLN, (dir_check_overlapped(), mem_access())
)
_D1_WM_DRTY = ProtocolResult(
    EventType.WM_BLK_DRTY, (dir_check_overlapped(), invalidate(1), write_back())
)
_D1_WM_CLN = ProtocolResult(
    EventType.WM_BLK_CLN, (dir_check_overlapped(), invalidate(1), mem_access())
)

# wti (write-through with invalidate; every write rides one bus word)
_WT_RM_CLN = ProtocolResult(EventType.RM_BLK_CLN, (mem_access(),))
_WT_WM_FIRST = ProtocolResult(EventType.WM_FIRST_REF, (write_word(),))
#: Write hit, keyed by the other-holder count snooped off the bus.
_WT_WH: dict[int, ProtocolResult] = {}
#: Allocating write miss, keyed by the other-holder count.
_WT_WM: dict[int, ProtocolResult] = {}

# dragon (write-update; misses and updates, never invalidations)
_DG_RM_DRTY = ProtocolResult(EventType.RM_BLK_DRTY, (cache_access(),))
_DG_RM_CLN = ProtocolResult(EventType.RM_BLK_CLN, (mem_access(),))
_DG_WM_DRTY = ProtocolResult(
    EventType.WM_BLK_DRTY, (cache_access(), write_word())
)
_DG_WM_CLN = ProtocolResult(EventType.WM_BLK_CLN, (mem_access(), write_word()))
_DG_WM_ALONE = ProtocolResult(EventType.WM_BLK_CLN, (mem_access(),))


def _d0_wh_cln(n_others: int) -> ProtocolResult:
    outcome = _D0_WH_CLN.get(n_others)
    if outcome is None:
        outcome = ProtocolResult(
            EventType.WH_BLK_CLN,
            (dir_check(), broadcast_invalidate()),
            clean_write_sharers=n_others,
        )
        _D0_WH_CLN[n_others] = outcome
    return outcome


def _d0_wm_cln(n_holders: int) -> ProtocolResult:
    outcome = _D0_WM_CLN.get(n_holders)
    if outcome is None:
        outcome = ProtocolResult(
            EventType.WM_BLK_CLN,
            (dir_check_overlapped(), mem_access(), broadcast_invalidate()),
            clean_write_sharers=n_holders,
        )
        _D0_WM_CLN[n_holders] = outcome
    return outcome


def _wt_wh(n_others: int) -> ProtocolResult:
    outcome = _WT_WH.get(n_others)
    if outcome is None:
        outcome = ProtocolResult(
            EventType.WH_BLK_CLN, (write_word(),), clean_write_sharers=n_others
        )
        _WT_WH[n_others] = outcome
    return outcome


def _wt_wm(n_others: int) -> ProtocolResult:
    outcome = _WT_WM.get(n_others)
    if outcome is None:
        outcome = ProtocolResult(
            EventType.WM_BLK_CLN,
            (write_word(), mem_access()),
            clean_write_sharers=n_others,
        )
        _WT_WM[n_others] = outcome
    return outcome


# ----------------------------------------------------------------------
# Shared scaffolding
# ----------------------------------------------------------------------


def _infinite_lines(protocol: Any) -> list[dict] | None:
    """Each cache's line dict, or None unless every cache is the exact
    :class:`InfiniteCache` (finite caches change reachable states)."""
    lines = []
    for cache in protocol._caches:
        if type(cache) is not InfiniteCache:
            return None
        lines.append(cache._lines)
    return lines


def too_many_sharers(limit: int, sharer: int) -> ConfigurationError:
    return ConfigurationError(
        f"trace contains more than num_caches={limit} "
        f"distinct sharers (sharer id {sharer})"
    )


def flush_batches(
    result: Any,
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
    instr_count: int,
) -> None:
    """Flush the identity-run batches exactly as ``_run_columnar`` does."""
    if previous is not None:
        entry = pending.get(id(previous))
        if entry is None:
            pending[id(previous)] = [previous, run_length]
        else:
            entry[1] += run_length
    record_batch = result.record_batch
    for outcome, count in pending.values():
        record_batch(outcome, count)
    result.record_instructions(instr_count)


# ----------------------------------------------------------------------
# The multi-copy directory family: dir0b, dirnnb, dirib, dirinb, coarse
# ----------------------------------------------------------------------
#
# Every MultiCopyDirectoryProtocol runs one data state machine over
# (holder bitmask, dirty owner); the organizations differ only in what
# an invalidation costs (the plan) and, for limited pointers, in the
# pointer order a DiriNB read miss evicts from.  Outcomes are interned
# per (organization, machine size) and keyed on (holders, requester).


def _import_masked(
    lines: list[dict], seen: set
) -> tuple[dict[int, int], dict[int, int]] | None:
    """Collect (holder bitmask, dirty owner) per block from cache lines.

    Returns None on any state outside the multicopy model: an unknown
    line state, two dirty owners, a dirty owner sharing with others, or
    a held block the context has never seen (which would let a
    ``first_ref`` land on a held block — unreachable in the object
    model, so the kernel refuses to guess).
    """
    mask: dict[int, int] = {}
    owner: dict[int, int] = {}
    clean = LineState.CLEAN
    dirty = LineState.DIRTY
    for index, cache_lines in enumerate(lines):
        bit = 1 << index
        for block, state in cache_lines.items():
            mask[block] = mask.get(block, 0) | bit
            if state is dirty:
                if block in owner:
                    return None
                owner[block] = index
            elif state is not clean:
                return None
    for block, who in owner.items():
        if mask[block] != 1 << who:
            return None
    if not seen >= mask.keys():
        return None
    return mask, owner


_NB_RM_CLN = ProtocolResult(
    EventType.RM_BLK_CLN,
    (dir_check_overlapped(), mem_access(), invalidate(1)),
    pointer_evictions=1,
)
_NB_RM_DRTY = ProtocolResult(
    EventType.RM_BLK_DRTY,
    (dir_check_overlapped(), write_back(), invalidate(1)),
    pointer_evictions=1,
)
_BROADCAST = (broadcast_invalidate(),)
#: Every family outcome built so far, interned by value so equal
#: outcomes share one instance (and one identity batch) across keys.
_FAMILY_OUTCOMES: dict[ProtocolResult, ProtocolResult] = {}


def _members(held: int) -> list[int]:
    """Cache indices in a holder bitmask, lowest first."""
    found = []
    while held:
        low = held & -held
        found.append(low.bit_length() - 1)
        held ^= low
    return found


def _sequential(others: int) -> tuple[tuple, int]:
    """Point-to-point invalidations of every cache in *others*."""
    count = others.bit_count()
    return ((invalidate(count),) if count else ()), 0


class _Organization:
    """One directory organization as the family kernel sees it.

    ``plan(held, cache)`` is the invalidation rule: the bus ops and
    wasted-message count of invalidating every copy in *held* except
    *cache*'s.  The write-hit and write-miss ``tables`` memoize its
    outcomes for one session, keyed ``(held << cbits) | cache``.
    ``read_miss`` is None unless the organization keeps pointer order
    (then it also owns the holder-mask update).  ``adopt`` cross-checks
    the live directory against (mask, owner) and takes over any extra
    state; ``export`` rebuilds the directory.
    """

    read_miss: Callable | None = None

    def __init__(self, directory: Any, num_caches: int) -> None:
        self.directory = directory
        self.cbits = max(1, (num_caches - 1).bit_length())
        self.tables: tuple[dict[int, ProtocolResult], ...] = ({}, {})
        # A dirty owner is the sole holder, so every plan sees one copy.
        self.wm_drty = self._intern(
            EventType.WM_BLK_DRTY,
            (dir_check_overlapped(),) + self.plan(1, 1)[0] + (write_back(),),
        )

    @staticmethod
    def _intern(event: EventType, ops: tuple, **fields: int) -> ProtocolResult:
        outcome = ProtocolResult(event, ops, **fields)
        return _FAMILY_OUTCOMES.setdefault(outcome, outcome)

    def plan(self, held: int, cache: int) -> tuple[tuple, int]:
        return _sequential(held & ~(1 << cache))

    def write_hit(self, held: int, cache: int) -> ProtocolResult:
        ops, wasted = self.plan(held, cache)
        outcome = self._intern(
            EventType.WH_BLK_CLN,
            (dir_check(),) + ops,
            clean_write_sharers=(held & ~(1 << cache)).bit_count(),
            wasted_invalidations=wasted,
        )
        self.tables[0][(held << self.cbits) | cache] = outcome
        return outcome

    def write_miss(self, held: int, cache: int) -> ProtocolResult:
        ops, wasted = self.plan(held, cache)
        outcome = self._intern(
            EventType.WM_BLK_CLN,
            (dir_check_overlapped(), mem_access()) + ops,
            clean_write_sharers=held.bit_count(),
            wasted_invalidations=wasted,
        )
        self.tables[1][(held << self.cbits) | cache] = outcome
        return outcome


class _TwoBit(_Organization):
    """Dir0B: broadcast whenever another cache may hold the block; the
    two-bit state is a pure function of (mask, owner)."""

    def plan(self, held: int, cache: int) -> tuple[tuple, int]:
        return (_BROADCAST if held & ~(1 << cache) else ()), 0

    def adopt(self, mask: dict, owner: dict) -> bool:
        states = self.directory._states
        if states.keys() != mask.keys():
            return False
        for block, held in mask.items():
            if block in owner:
                expected = TwoBitState.DIRTY_ONE
            elif held & (held - 1) == 0:
                expected = TwoBitState.CLEAN_ONE
            else:
                expected = TwoBitState.CLEAN_MANY
            if states[block] is not expected:
                return False
        return True

    def export(self, mask: dict, owner: dict) -> None:
        clean_one = TwoBitState.CLEAN_ONE
        clean_many = TwoBitState.CLEAN_MANY
        dirty_one = TwoBitState.DIRTY_ONE
        self.directory._states = {
            block: dirty_one if block in owner
            else clean_one if held & (held - 1) == 0
            else clean_many
            for block, held in mask.items()
        }


class _FullMap(_Organization):
    """DirnNB (full map or Tang): exact holder sets, sequential messages."""

    def adopt(self, mask: dict, owner: dict) -> bool:
        entries = self.directory._entries
        if entries.keys() != mask.keys():
            return False
        for block, held in mask.items():
            stored = entries[block]
            if stored.dirty != (block in owner):
                return False
            if stored.holders != set(_members(held)):
                return False
        return True

    def export(self, mask: dict, owner: dict) -> None:
        self.directory._entries = {
            block: _FullMapEntry(dirty=block in owner, holders=set(_members(held)))
            for block, held in mask.items()
        }


class _LimitedPointers(_Organization):
    """DiriB / DiriNB: *i* pointers kept in join order.

    Under infinite caches the pointers are exactly the holders, in the
    order they joined, until a DiriB block overflows (more than *i*
    holders, broadcast bit set).  ``order`` holds that join order only
    for blocks with two or more exact pointers; a single holder is its
    own order.  DiriNB read misses at *i* holders first evict the
    policy's victim (FIFO oldest, LIFO newest, or lowest index).
    """

    def __init__(self, directory: Any, num_caches: int) -> None:
        self.pointers = directory.num_pointers
        self.broadcast_bit = directory.broadcast_bit
        self.policy = directory.eviction_policy
        super().__init__(directory, num_caches)
        self.order: dict[int, tuple[int, ...]] = {}
        self.read_miss = (
            self._read_miss_b if self.broadcast_bit else self._read_miss_nb
        )

    def plan(self, held: int, cache: int) -> tuple[tuple, int]:
        if self.broadcast_bit and held.bit_count() > self.pointers:
            return _BROADCAST, 0
        return _sequential(held & ~(1 << cache))

    def _read_miss_b(self, block: int, cache: int, held: int) -> ProtocolResult:
        outcome = _MC_RM_CLN if self.owner.pop(block, None) is None else _MC_RM_DRTY
        joined = held | (1 << cache)
        self.mask[block] = joined
        if held and joined.bit_count() <= self.pointers:
            prior = self.order.get(block) or (held.bit_length() - 1,)
            self.order[block] = prior + (cache,)
        else:
            # First copy, or an overflow that sets the broadcast bit.
            self.order.pop(block, None)
        return outcome

    def _read_miss_nb(self, block: int, cache: int, held: int) -> ProtocolResult:
        dirty = self.owner.pop(block, None) is not None
        outcome = _MC_RM_DRTY if dirty else _MC_RM_CLN
        if held:
            prior = self.order.get(block) or (held.bit_length() - 1,)
            if len(prior) >= self.pointers:
                policy = self.policy
                if policy is PointerEvictionPolicy.FIFO:
                    victim, prior = prior[0], prior[1:]
                elif policy is PointerEvictionPolicy.LIFO:
                    victim, prior = prior[-1], prior[:-1]
                else:
                    victim = min(prior)
                    prior = tuple(index for index in prior if index != victim)
                held ^= 1 << victim
                outcome = _NB_RM_DRTY if dirty else _NB_RM_CLN
            if prior:
                self.order[block] = prior + (cache,)
            else:
                self.order.pop(block, None)
        self.mask[block] = held | (1 << cache)
        return outcome

    def adopt(self, mask: dict, owner: dict) -> bool:
        entries = self.directory._entries
        if entries.keys() != mask.keys():
            return False
        self.mask = mask
        self.owner = owner
        for block, held in mask.items():
            stored = entries[block]
            count = held.bit_count()
            if stored.dirty != (block in owner):
                return False
            if self.broadcast_bit and count > self.pointers:
                if not stored.broadcast or stored.pointers:
                    return False
                continue
            pointers = stored.pointers
            if stored.broadcast or len(pointers) != count:
                return False
            if count > self.pointers or set(pointers) != set(_members(held)):
                return False
            if count > 1:
                self.order[block] = tuple(pointers)
        return True

    def export(self, mask: dict, owner: dict) -> None:
        order = self.order
        entries: dict[int, _PointerEntry] = {}
        for block, held in mask.items():
            if self.broadcast_bit and held.bit_count() > self.pointers:
                entries[block] = _PointerEntry(broadcast=True)
                continue
            pointers = order.get(block) or (held.bit_length() - 1,)
            entries[block] = _PointerEntry(
                dirty=block in owner, pointers=list(pointers)
            )
        self.directory._entries = entries


class _Coarse(_Organization):
    """Coarse vector: under infinite caches the stored code is always
    ``CoarseVector.encode(holders)``, so the denoted set is a memoized
    function of the holder mask; messages to denoted non-holders are
    wasted."""

    def __init__(self, directory: Any, num_caches: int) -> None:
        self.num_caches = num_caches
        self.denoted: dict[int, int] = {}
        self.codes: dict[int, CoarseVector] = {}
        super().__init__(directory, num_caches)

    def _denoted(self, held: int) -> int:
        denoted = self.denoted.get(held)
        if denoted is None:
            indices = _members(held)
            agree = common = indices[0]
            for index in indices[1:]:
                agree &= index
                common |= index
            free = agree ^ common  # digits the holders disagree on: BOTH
            denoted = 0
            subset = free
            while True:
                denoted |= 1 << (agree | subset)
                if not subset:
                    break
                subset = (subset - 1) & free
            self.denoted[held] = denoted
        return denoted

    def _code(self, held: int) -> CoarseVector:
        code = self.codes.get(held)
        if code is None:
            code = CoarseVector.encode(self.num_caches, _members(held))
            self.codes[held] = code
        return code

    def plan(self, held: int, cache: int) -> tuple[tuple, int]:
        targets = self._denoted(held) & ~(1 << cache) if held else 0
        count = targets.bit_count()
        if not count:
            return (), 0
        return (invalidate(count),), (targets & ~held).bit_count()

    def adopt(self, mask: dict, owner: dict) -> bool:
        directory = self.directory
        codes = directory._codes
        dirty = directory._dirty
        sharers = directory._true_sharers
        if not codes.keys() == dirty.keys() == sharers.keys() == mask.keys():
            return False
        for block, held in mask.items():
            if dirty[block] != (block in owner) or codes[block] != self._code(held):
                return False
            if sharers[block] != set(_members(held)):
                return False
        return True

    def export(self, mask: dict, owner: dict) -> None:
        directory = self.directory
        directory._codes = {block: self._code(held) for block, held in mask.items()}
        directory._dirty = {block: block in owner for block in mask}
        directory._true_sharers = {
            block: set(_members(held)) for block, held in mask.items()
        }


#: Exact protocol type -> (accepted exact directory types, organization).
_FAMILY: dict[type, tuple[tuple[type, ...], type]] = {
    Dir0BProtocol: ((TwoBitDirectory,), _TwoBit),
    DirNNBProtocol: ((FullMapDirectory, TangDirectory), _FullMap),
    DirIBProtocol: ((LimitedPointerDirectory,), _LimitedPointers),
    DirINBProtocol: ((LimitedPointerDirectory,), _LimitedPointers),
    CoarseVectorProtocol: ((CoarseVectorDirectory,), _Coarse),
}


def _import_multicopy(protocol: Any, context: Any) -> dict[str, Any] | None:
    if protocol.dir_capacity is not None:
        return None  # directory recalls stay on the generic path
    directory = protocol._directory
    accepted, organization = _FAMILY[type(protocol)]
    if type(directory) not in accepted:
        return None
    num_caches = protocol.num_caches
    if organization is _Coarse and num_caches < 2:
        return None  # the object model raises on its first reference
    lines = _infinite_lines(protocol)
    if lines is None:
        return None
    imported = _import_masked(lines, context.seen_blocks)
    if imported is None:
        return None
    mask, owner = imported
    org = organization(directory, num_caches)
    if not org.adopt(mask, owner):
        return None
    return {"mask": mask, "owner": owner, "org": org}


def _loop_multicopy(
    simulator: Any,
    trace: ColumnarTrace,
    protocol: Any,
    context: Any,
    state: dict[str, Any],
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
) -> tuple[ProtocolResult | None, int, int]:
    mask = state["mask"]
    owner = state["owner"]
    org = state["org"]
    wh_get = org.tables[0].get
    wm_get = org.tables[1].get
    write_hit = org.write_hit
    write_miss = org.write_miss
    wm_drty = org.wm_drty
    read_miss = org.read_miss
    order_pop = org.order.pop if read_miss is not None else None
    cbits = org.cbits
    instr_count, type_codes, sharer_col, addresses = trace.data_view(
        simulator.sharer_key
    )
    sharer_index = context.sharer_index
    sharer_lookup = sharer_index.get
    seen = context.seen_blocks
    seen_add = seen.add
    shift = simulator.block_mapper.offset_bits
    limit = protocol.num_caches
    mask_get = mask.get
    read = TYPE_READ
    pending_get = pending.get

    for code, sharer, address in zip(type_codes, sharer_col, addresses):
        cache = sharer_lookup(sharer)
        if cache is None:
            cache = len(sharer_index)
            if cache >= limit:
                raise too_many_sharers(limit, sharer)
            sharer_index[sharer] = cache
        block = address >> shift
        if block in seen:
            first = False
        else:
            first = True
            seen_add(block)
        bit = 1 << cache
        held = mask_get(block, 0)
        if code == read:
            if held & bit:
                outcome = RESULT_RD_HIT
            elif first:
                outcome = _RM_FIRST
                mask[block] = bit
            elif read_miss is not None:
                outcome = read_miss(block, cache, held)
            else:
                # A dirty owner writes back and keeps a clean copy.
                outcome = _MC_RM_CLN if owner.pop(block, None) is None else _MC_RM_DRTY
                mask[block] = held | bit
        else:
            if held & bit:
                if block in owner:
                    # Sole-holder invariant: the owner is this cache.
                    outcome = RESULT_WH_BLK_DRTY
                else:
                    outcome = wh_get((held << cbits) | cache) or write_hit(held, cache)
                    mask[block] = bit
                    owner[block] = cache
                    if order_pop is not None:
                        order_pop(block, None)
            else:
                if first:
                    outcome = _WM_FIRST
                elif block in owner:
                    del owner[block]
                    outcome = wm_drty
                else:
                    outcome = wm_get((held << cbits) | cache) or write_miss(held, cache)
                    if order_pop is not None:
                        order_pop(block, None)
                mask[block] = bit
                owner[block] = cache
        if outcome is previous:
            run_length += 1
        elif previous is None:
            previous = outcome
            run_length = 1
        else:
            entry = pending_get(id(previous))
            if entry is None:
                pending[id(previous)] = [previous, run_length]
            else:
                entry[1] += run_length
            previous = outcome
            run_length = 1
    return previous, run_length, instr_count


def _export_multicopy(protocol: Any, state: dict[str, Any]) -> None:
    mask = state["mask"]
    owner = state["owner"]
    new_lines: list[dict] = [{} for _ in protocol._caches]
    clean = LineState.CLEAN
    dirty = LineState.DIRTY
    for block, held in mask.items():
        own = owner.get(block)
        if own is not None:
            new_lines[own][block] = dirty
        else:
            for index in _members(held):
                new_lines[index][block] = clean
    for cache, cache_lines in zip(protocol._caches, new_lines):
        cache._lines = cache_lines
    state["org"].export(mask, owner)


# ----------------------------------------------------------------------
# dir1nb
# ----------------------------------------------------------------------


def _import_dir1nb(protocol: Any, context: Any) -> dict[str, Any] | None:
    if protocol.dir_capacity is not None:
        return None  # directory recalls stay on the generic path
    directory = protocol._directory
    if (
        type(directory) is not LimitedPointerDirectory
        or directory.num_pointers != 1
        or directory.broadcast_bit
    ):
        return None
    lines = _infinite_lines(protocol)
    if lines is None:
        return None

    # Per block: (holder << 1) | dirty — the single-copy invariant.
    holders: dict[int, int] = {}
    for index, cache_lines in enumerate(lines):
        for block, state in cache_lines.items():
            if block in holders:
                return None  # two copies: outside the dir1nb model
            if state is LineState.DIRTY:
                holders[block] = (index << 1) | 1
            elif state is LineState.CLEAN:
                holders[block] = index << 1
            else:
                return None
    if not context.seen_blocks >= holders.keys():
        return None
    entries = directory._entries
    for block, stored in entries.items():
        if stored.broadcast:
            return None
        encoded = holders.get(block)
        if encoded is None:
            if stored.pointers or stored.dirty:
                return None
        elif stored.pointers != [encoded >> 1] or stored.dirty != bool(encoded & 1):
            return None
    for block in holders:
        if block not in entries:
            return None
    return {"holders": holders}


def _loop_dir1nb(
    simulator: Any,
    trace: ColumnarTrace,
    protocol: Any,
    context: Any,
    state: dict[str, Any],
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
) -> tuple[ProtocolResult | None, int, int]:
    holders = state["holders"]
    instr_count, type_codes, sharer_col, addresses = trace.data_view(
        simulator.sharer_key
    )
    sharer_index = context.sharer_index
    sharer_lookup = sharer_index.get
    seen = context.seen_blocks
    seen_add = seen.add
    shift = simulator.block_mapper.offset_bits
    limit = protocol.num_caches
    holders_get = holders.get
    read = TYPE_READ
    pending_get = pending.get

    for code, sharer, address in zip(type_codes, sharer_col, addresses):
        cache = sharer_lookup(sharer)
        if cache is None:
            cache = len(sharer_index)
            if cache >= limit:
                raise too_many_sharers(limit, sharer)
            sharer_index[sharer] = cache
        block = address >> shift
        if block in seen:
            first = False
        else:
            first = True
            seen_add(block)
        encoded = holders_get(block)
        if code == read:
            if encoded is not None and encoded >> 1 == cache:
                outcome = RESULT_RD_HIT
            else:
                if first:
                    outcome = _RM_FIRST
                elif encoded is None:
                    outcome = _D1_RM_NOHOLDER
                elif encoded & 1:
                    outcome = _D1_RM_DRTY
                else:
                    outcome = _D1_RM_CLN
                holders[block] = cache << 1
        else:
            if encoded is not None and encoded >> 1 == cache:
                if encoded & 1:
                    outcome = RESULT_WH_BLK_DRTY
                else:
                    outcome = _D1_WH_CLN
                    holders[block] = encoded | 1
            else:
                if first:
                    outcome = _WM_FIRST
                elif encoded is None:
                    outcome = _D1_WM_NOHOLDER
                elif encoded & 1:
                    outcome = _D1_WM_DRTY
                else:
                    outcome = _D1_WM_CLN
                holders[block] = (cache << 1) | 1
        if outcome is previous:
            run_length += 1
        elif previous is None:
            previous = outcome
            run_length = 1
        else:
            entry = pending_get(id(previous))
            if entry is None:
                pending[id(previous)] = [previous, run_length]
            else:
                entry[1] += run_length
            previous = outcome
            run_length = 1
    return previous, run_length, instr_count


def _export_dir1nb(protocol: Any, state: dict[str, Any]) -> None:
    holders = state["holders"]
    new_lines: list[dict] = [{} for _ in protocol._caches]
    new_entries: dict[int, _PointerEntry] = {}
    for block, encoded in holders.items():
        holder, dirty = encoded >> 1, bool(encoded & 1)
        new_lines[holder][block] = LineState.DIRTY if dirty else LineState.CLEAN
        new_entries[block] = _PointerEntry(dirty=dirty, pointers=[holder])
    for cache, cache_lines in zip(protocol._caches, new_lines):
        cache._lines = cache_lines
    protocol._directory._entries = new_entries


# ----------------------------------------------------------------------
# wti
# ----------------------------------------------------------------------


def _import_wti(protocol: Any, context: Any) -> dict[str, Any] | None:
    lines = _infinite_lines(protocol)
    if lines is None:
        return None
    mask: dict[int, int] = {}
    clean = LineState.CLEAN
    for index, cache_lines in enumerate(lines):
        bit = 1 << index
        for block, state in cache_lines.items():
            if state is not clean:
                return None  # write-through lines are never dirty
            mask[block] = mask.get(block, 0) | bit
    if not context.seen_blocks >= mask.keys():
        return None
    return {"mask": mask}


def _loop_wti(
    simulator: Any,
    trace: ColumnarTrace,
    protocol: Any,
    context: Any,
    state: dict[str, Any],
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
) -> tuple[ProtocolResult | None, int, int]:
    mask = state["mask"]
    instr_count, type_codes, sharer_col, addresses = trace.data_view(
        simulator.sharer_key
    )
    sharer_index = context.sharer_index
    sharer_lookup = sharer_index.get
    seen = context.seen_blocks
    seen_add = seen.add
    shift = simulator.block_mapper.offset_bits
    limit = protocol.num_caches
    mask_get = mask.get
    wt_wh = _WT_WH.get
    wt_wm = _WT_WM.get
    read = TYPE_READ
    pending_get = pending.get

    for code, sharer, address in zip(type_codes, sharer_col, addresses):
        cache = sharer_lookup(sharer)
        if cache is None:
            cache = len(sharer_index)
            if cache >= limit:
                raise too_many_sharers(limit, sharer)
            sharer_index[sharer] = cache
        block = address >> shift
        if block in seen:
            first = False
        else:
            first = True
            seen_add(block)
        bit = 1 << cache
        held = mask_get(block, 0)
        if code == read:
            if held & bit:
                outcome = RESULT_RD_HIT
            else:
                outcome = _RM_FIRST if first else _WT_RM_CLN
                mask[block] = held | bit
        else:
            # Every write goes to the bus; snoopers drop their copies.
            n_others = (held & ~bit).bit_count()
            if held & bit:
                outcome = wt_wh(n_others) or _wt_wh(n_others)
            elif first:
                outcome = _WT_WM_FIRST
            else:
                outcome = wt_wm(n_others) or _wt_wm(n_others)
            mask[block] = bit
        if outcome is previous:
            run_length += 1
        elif previous is None:
            previous = outcome
            run_length = 1
        else:
            entry = pending_get(id(previous))
            if entry is None:
                pending[id(previous)] = [previous, run_length]
            else:
                entry[1] += run_length
            previous = outcome
            run_length = 1
    return previous, run_length, instr_count


def _export_wti(protocol: Any, state: dict[str, Any]) -> None:
    mask = state["mask"]
    clean = LineState.CLEAN
    new_lines: list[dict] = [{} for _ in protocol._caches]
    for block, held in mask.items():
        remaining = held
        while remaining:
            low = remaining & -remaining
            new_lines[low.bit_length() - 1][block] = clean
            remaining ^= low
    for cache, cache_lines in zip(protocol._caches, new_lines):
        cache._lines = cache_lines


# ----------------------------------------------------------------------
# dragon
# ----------------------------------------------------------------------


def _import_dragon(protocol: Any, context: Any) -> dict[str, Any] | None:
    lines = _infinite_lines(protocol)
    if lines is None:
        return None
    mask: dict[int, int] = {}
    owner: dict[int, int] = {}
    for index, cache_lines in enumerate(lines):
        bit = 1 << index
        for block, state in cache_lines.items():
            mask[block] = mask.get(block, 0) | bit
            if state.is_owner:
                if block in owner:
                    return None
                owner[block] = index
    # Verify each block's line states are exactly the derived encoding.
    ve = DragonLineState.VALID_EXCLUSIVE
    dirty = DragonLineState.DIRTY
    sc = DragonLineState.SHARED_CLEAN
    sd = DragonLineState.SHARED_DIRTY
    for block, held in mask.items():
        own = owner.get(block)
        if held & (held - 1) == 0:
            state = lines[held.bit_length() - 1][block]
            if state is not (ve if own is None else dirty):
                return None
        else:
            remaining = held
            while remaining:
                low = remaining & -remaining
                index = low.bit_length() - 1
                if lines[index][block] is not (sd if index == own else sc):
                    return None
                remaining ^= low
    if not context.seen_blocks >= mask.keys():
        return None
    return {"mask": mask, "owner": owner}


def _loop_dragon(
    simulator: Any,
    trace: ColumnarTrace,
    protocol: Any,
    context: Any,
    state: dict[str, Any],
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
) -> tuple[ProtocolResult | None, int, int]:
    mask = state["mask"]
    owner = state["owner"]
    instr_count, type_codes, sharer_col, addresses = trace.data_view(
        simulator.sharer_key
    )
    sharer_index = context.sharer_index
    sharer_lookup = sharer_index.get
    seen = context.seen_blocks
    seen_add = seen.add
    shift = simulator.block_mapper.offset_bits
    limit = protocol.num_caches
    mask_get = mask.get
    read = TYPE_READ
    pending_get = pending.get

    for code, sharer, address in zip(type_codes, sharer_col, addresses):
        cache = sharer_lookup(sharer)
        if cache is None:
            cache = len(sharer_index)
            if cache >= limit:
                raise too_many_sharers(limit, sharer)
            sharer_index[sharer] = cache
        block = address >> shift
        if block in seen:
            first = False
        else:
            first = True
            seen_add(block)
        bit = 1 << cache
        held = mask_get(block, 0)
        if code == read:
            if held & bit:
                outcome = RESULT_RD_HIT
            elif first:
                outcome = _RM_FIRST
                mask[block] = bit
            else:
                if block in owner:
                    # The owner supplies the block and stays owner
                    # (DIRTY demotes to SHARED_DIRTY, still owning).
                    outcome = _DG_RM_DRTY
                else:
                    outcome = _DG_RM_CLN
                mask[block] = held | bit
        else:
            if held & bit:
                if held == bit:
                    outcome = RESULT_WH_LOCAL
                else:
                    # Update broadcast: the writer takes ownership, a
                    # previous owner demotes to SHARED_CLEAN.
                    outcome = RESULT_WH_DISTRIB
                owner[block] = cache
            else:
                if first:
                    outcome = _WM_FIRST
                    mask[block] = bit
                elif block in owner:
                    outcome = _DG_WM_DRTY
                    mask[block] = held | bit
                elif held:
                    outcome = _DG_WM_CLN
                    mask[block] = held | bit
                else:
                    outcome = _DG_WM_ALONE
                    mask[block] = bit
                owner[block] = cache
        if outcome is previous:
            run_length += 1
        elif previous is None:
            previous = outcome
            run_length = 1
        else:
            entry = pending_get(id(previous))
            if entry is None:
                pending[id(previous)] = [previous, run_length]
            else:
                entry[1] += run_length
            previous = outcome
            run_length = 1
    return previous, run_length, instr_count


def _export_dragon(protocol: Any, state: dict[str, Any]) -> None:
    mask = state["mask"]
    owner = state["owner"]
    ve = DragonLineState.VALID_EXCLUSIVE
    dirty = DragonLineState.DIRTY
    sc = DragonLineState.SHARED_CLEAN
    sd = DragonLineState.SHARED_DIRTY
    new_lines: list[dict] = [{} for _ in protocol._caches]
    for block, held in mask.items():
        own = owner.get(block)
        if held & (held - 1) == 0:
            index = held.bit_length() - 1
            new_lines[index][block] = ve if own is None else dirty
        else:
            remaining = held
            while remaining:
                low = remaining & -remaining
                index = low.bit_length() - 1
                new_lines[index][block] = sd if index == own else sc
                remaining ^= low
    for cache, cache_lines in zip(protocol._caches, new_lines):
        cache._lines = cache_lines


# ----------------------------------------------------------------------
# Finite-capacity kernels
# ----------------------------------------------------------------------
#
# Shared structure: per cache, a list of per-set plain dicts whose
# insertion order is the set's LRU order, oldest first — the compact
# mirror of FiniteCache's OrderedDict sets.  A touch is
# delete-and-reinsert; the replacement victim is next(iter(set_dict)).
# Because each reference installs at most one line, a replacement adds
# at most one trailing bus op to the infinite-model outcome.

#: Infinite-model outcome -> the same outcome with the trailing
#: write-back of a replaced dirty victim (dir0b / dir1nb / dragon
#: replacement).
_WITH_WB: dict[ProtocolResult, ProtocolResult] = {}


def _with_trailing_op(
    memo: dict[ProtocolResult, ProtocolResult], base: ProtocolResult, op: Any
) -> ProtocolResult:
    outcome = memo.get(base)
    if outcome is None:
        outcome = ProtocolResult(
            base.event,
            base.ops + (op,),
            clean_write_sharers=base.clean_write_sharers,
            wasted_invalidations=base.wasted_invalidations,
            pointer_evictions=base.pointer_evictions,
            directory_recalls=base.directory_recalls,
        )
        memo[base] = outcome
    return outcome


def _with_wb(base: ProtocolResult) -> ProtocolResult:
    """*base* plus the write-back of the replaced dirty victim."""
    return _with_trailing_op(_WITH_WB, base, write_back())


def _finite_geometry(protocol: Any) -> tuple[int, int] | None:
    """The (num_sets, associativity) every cache shares, or None unless
    each cache is the exact :class:`FiniteCache` of one geometry."""
    geometry: tuple[int, int] | None = None
    for cache in protocol._caches:
        if type(cache) is not FiniteCache:
            return None
        shape = (cache._num_sets, cache._associativity)
        if geometry is None:
            geometry = shape
        elif shape != geometry:
            return None
    return geometry


# ----------------------------------------------------------------------
# dir0b, finite
# ----------------------------------------------------------------------


def _import_dir0b_finite(protocol: Any, context: Any) -> dict[str, Any] | None:
    if protocol.dir_capacity is not None:
        return None  # directory recalls stay on the generic path
    directory = protocol._directory
    if type(directory) is not TwoBitDirectory:
        return None
    geometry = _finite_geometry(protocol)
    if geometry is None:
        return None
    num_sets, assoc = geometry

    mask: dict[int, int] = {}
    owner: dict[int, int] = {}
    sets: list[list[dict[int, None]]] = []
    clean = LineState.CLEAN
    dirty = LineState.DIRTY
    for index, cache in enumerate(protocol._caches):
        bit = 1 << index
        per_set: list[dict[int, None]] = []
        for line_set in cache._sets:
            per_set.append(dict.fromkeys(line_set))
            for block, line in line_set.items():
                mask[block] = mask.get(block, 0) | bit
                if line is dirty:
                    if block in owner:
                        return None
                    owner[block] = index
                elif line is not clean:
                    return None
        sets.append(per_set)
    for block, who in owner.items():
        if mask[block] != 1 << who:
            return None
    if not context.seen_blocks >= mask.keys():
        return None

    # Silent evictions decouple the two-bit state from the holder mask
    # (CLEAN_MANY is sticky), so the directory state is imported
    # explicitly and only cross-checked against the hard invariants.
    dirstate: dict[int, int] = {}
    for block, stored in directory._states.items():
        if stored is TwoBitState.CLEAN_ONE:
            dirstate[block] = 1
        elif stored is TwoBitState.CLEAN_MANY:
            dirstate[block] = 2
        elif stored is TwoBitState.DIRTY_ONE:
            dirstate[block] = 3
    for block, held in mask.items():
        code = dirstate.get(block, 0)
        if code == 0:
            return None  # held blocks always have a directory state
        if (code == 3) != (block in owner):
            return None
        if code == 1 and held & (held - 1):
            return None
    for block, code in dirstate.items():
        held = mask.get(block, 0)
        if code == 1 and held == 0:
            return None
        if code == 3 and block not in owner:
            return None
        # code == 2 with no holders is reachable under finite caches.
    return {
        "mask": mask,
        "owner": owner,
        "dirstate": dirstate,
        "sets": sets,
        "set_mask": num_sets - 1,
        "assoc": assoc,
    }


def _loop_dir0b_finite(
    simulator: Any,
    trace: ColumnarTrace,
    protocol: Any,
    context: Any,
    state: dict[str, Any],
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
) -> tuple[ProtocolResult | None, int, int]:
    mask = state["mask"]
    owner = state["owner"]
    dirstate = state["dirstate"]
    sets = state["sets"]
    set_mask = state["set_mask"]
    assoc = state["assoc"]
    instr_count, type_codes, sharer_col, addresses = trace.data_view(
        simulator.sharer_key
    )
    sharer_index = context.sharer_index
    sharer_lookup = sharer_index.get
    seen = context.seen_blocks
    seen_add = seen.add
    shift = simulator.block_mapper.offset_bits
    limit = protocol.num_caches
    mask_get = mask.get
    dirstate_get = dirstate.get
    wh_cln = _D0_WH_CLN.get
    wm_cln = _D0_WM_CLN.get
    read = TYPE_READ
    pending_get = pending.get

    def spill(cache: int, bit: int, line_set: dict) -> bool:
        """Replace the set's LRU line; True if the victim wrote back."""
        victim = next(iter(line_set))
        del line_set[victim]
        held = mask[victim] & ~bit
        if held:
            mask[victim] = held
        else:
            del mask[victim]
        if owner.get(victim) == cache:
            del owner[victim]
            del dirstate[victim]
            return True
        code = dirstate_get(victim, 0)
        if code == 1 or code == 3:
            del dirstate[victim]  # note_invalidated; CLEAN_MANY sticks
        return False

    for code, sharer, address in zip(type_codes, sharer_col, addresses):
        cache = sharer_lookup(sharer)
        if cache is None:
            cache = len(sharer_index)
            if cache >= limit:
                raise too_many_sharers(limit, sharer)
            sharer_index[sharer] = cache
        block = address >> shift
        if block in seen:
            first = False
        else:
            first = True
            seen_add(block)
        bit = 1 << cache
        held = mask_get(block, 0)
        line_set = sets[cache][block & set_mask]
        if code == read:
            if held & bit:
                outcome = RESULT_RD_HIT
                del line_set[block]
                line_set[block] = None
            else:
                if first:
                    base = _RM_FIRST
                else:
                    own = owner.pop(block, None)
                    if own is not None:
                        # The owner flushes and keeps a clean copy.
                        dirstate[block] = 1
                        own_set = sets[own][block & set_mask]
                        del own_set[block]
                        own_set[block] = None
                        base = _MC_RM_DRTY
                    else:
                        base = _MC_RM_CLN
                wrote_back = len(line_set) >= assoc and spill(cache, bit, line_set)
                line_set[block] = None
                mask[block] = held | bit
                dirstate[block] = 1 if dirstate_get(block, 0) == 0 else 2
                outcome = _with_wb(base) if wrote_back else base
        else:
            if held & bit:
                if owner.get(block) == cache:
                    outcome = RESULT_WH_BLK_DRTY
                    del line_set[block]
                    line_set[block] = None
                else:
                    # Sticky CLEAN_MANY broadcasts even with no other
                    # holders left, so branch on the directory state.
                    if dirstate_get(block, 0) == 1:
                        outcome = _D0_WH_SOLE
                    else:
                        n_others = (held & ~bit).bit_count()
                        outcome = wh_cln(n_others) or _d0_wh_cln(n_others)
                    rem = held & ~bit
                    while rem:
                        low = rem & -rem
                        del sets[low.bit_length() - 1][block & set_mask][block]
                        rem ^= low
                    mask[block] = bit
                    owner[block] = cache
                    dirstate[block] = 3
                    del line_set[block]
                    line_set[block] = None
            else:
                if first:
                    base = _WM_FIRST
                elif block in owner:
                    own = owner.pop(block)
                    del sets[own][block & set_mask][block]
                    base = _D0_WM_DRTY
                elif held:
                    n_holders = held.bit_count()
                    base = wm_cln(n_holders) or _d0_wm_cln(n_holders)
                    rem = held
                    while rem:
                        low = rem & -rem
                        del sets[low.bit_length() - 1][block & set_mask][block]
                        rem ^= low
                elif dirstate_get(block, 0):
                    base = wm_cln(0) or _d0_wm_cln(0)
                else:
                    base = _D0_WM_ALONE
                wrote_back = len(line_set) >= assoc and spill(cache, bit, line_set)
                line_set[block] = None
                mask[block] = bit
                owner[block] = cache
                dirstate[block] = 3
                outcome = _with_wb(base) if wrote_back else base
        if outcome is previous:
            run_length += 1
        elif previous is None:
            previous = outcome
            run_length = 1
        else:
            entry = pending_get(id(previous))
            if entry is None:
                pending[id(previous)] = [previous, run_length]
            else:
                entry[1] += run_length
            previous = outcome
            run_length = 1
    return previous, run_length, instr_count


def _export_dir0b_finite(protocol: Any, state: dict[str, Any]) -> None:
    owner = state["owner"]
    clean = LineState.CLEAN
    dirty = LineState.DIRTY
    for index, (cache, per_set) in enumerate(zip(protocol._caches, state["sets"])):
        cache._sets = [
            OrderedDict(
                (block, dirty if owner.get(block) == index else clean)
                for block in line_set
            )
            for line_set in per_set
        ]
    lookup = (
        None,
        TwoBitState.CLEAN_ONE,
        TwoBitState.CLEAN_MANY,
        TwoBitState.DIRTY_ONE,
    )
    protocol._directory._states = {
        block: lookup[code] for block, code in state["dirstate"].items()
    }


# ----------------------------------------------------------------------
# dir1nb, finite
# ----------------------------------------------------------------------


def _import_dir1nb_finite(protocol: Any, context: Any) -> dict[str, Any] | None:
    if protocol.dir_capacity is not None:
        return None
    directory = protocol._directory
    if (
        type(directory) is not LimitedPointerDirectory
        or directory.num_pointers != 1
        or directory.broadcast_bit
    ):
        return None
    geometry = _finite_geometry(protocol)
    if geometry is None:
        return None
    num_sets, assoc = geometry

    holders: dict[int, int] = {}
    sets: list[list[dict[int, None]]] = []
    for index, cache in enumerate(protocol._caches):
        per_set: list[dict[int, None]] = []
        for line_set in cache._sets:
            per_set.append(dict.fromkeys(line_set))
            for block, line in line_set.items():
                if block in holders:
                    return None  # two copies: outside the dir1nb model
                if line is LineState.DIRTY:
                    holders[block] = (index << 1) | 1
                elif line is LineState.CLEAN:
                    holders[block] = index << 1
                else:
                    return None
        sets.append(per_set)
    if not context.seen_blocks >= holders.keys():
        return None
    entries = directory._entries
    for block, stored in entries.items():
        if stored.broadcast:
            return None
        encoded = holders.get(block)
        if encoded is None:
            if stored.pointers or stored.dirty:
                return None
        elif stored.pointers != [encoded >> 1] or stored.dirty != bool(encoded & 1):
            return None
    for block in holders:
        if block not in entries:
            return None
    return {
        "holders": holders,
        "sets": sets,
        "set_mask": num_sets - 1,
        "assoc": assoc,
    }


def _loop_dir1nb_finite(
    simulator: Any,
    trace: ColumnarTrace,
    protocol: Any,
    context: Any,
    state: dict[str, Any],
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
) -> tuple[ProtocolResult | None, int, int]:
    holders = state["holders"]
    sets = state["sets"]
    set_mask = state["set_mask"]
    assoc = state["assoc"]
    instr_count, type_codes, sharer_col, addresses = trace.data_view(
        simulator.sharer_key
    )
    sharer_index = context.sharer_index
    sharer_lookup = sharer_index.get
    seen = context.seen_blocks
    seen_add = seen.add
    shift = simulator.block_mapper.offset_bits
    limit = protocol.num_caches
    holders_get = holders.get
    read = TYPE_READ
    pending_get = pending.get

    for code, sharer, address in zip(type_codes, sharer_col, addresses):
        cache = sharer_lookup(sharer)
        if cache is None:
            cache = len(sharer_index)
            if cache >= limit:
                raise too_many_sharers(limit, sharer)
            sharer_index[sharer] = cache
        block = address >> shift
        if block in seen:
            first = False
        else:
            first = True
            seen_add(block)
        encoded = holders_get(block)
        line_set = sets[cache][block & set_mask]
        if code == read:
            if encoded is not None and encoded >> 1 == cache:
                outcome = RESULT_RD_HIT
                del line_set[block]
                line_set[block] = None
            else:
                if first:
                    base = _RM_FIRST
                elif encoded is None:
                    base = _D1_RM_NOHOLDER
                else:
                    del sets[encoded >> 1][block & set_mask][block]
                    base = _D1_RM_DRTY if encoded & 1 else _D1_RM_CLN
                wrote_back = 0
                if len(line_set) >= assoc:
                    victim = next(iter(line_set))
                    del line_set[victim]
                    wrote_back = holders.pop(victim) & 1
                line_set[block] = None
                holders[block] = cache << 1
                outcome = _with_wb(base) if wrote_back else base
        else:
            if encoded is not None and encoded >> 1 == cache:
                del line_set[block]
                line_set[block] = None
                if encoded & 1:
                    outcome = RESULT_WH_BLK_DRTY
                else:
                    outcome = _D1_WH_CLN
                    holders[block] = encoded | 1
            else:
                if first:
                    base = _WM_FIRST
                elif encoded is None:
                    base = _D1_WM_NOHOLDER
                else:
                    del sets[encoded >> 1][block & set_mask][block]
                    base = _D1_WM_DRTY if encoded & 1 else _D1_WM_CLN
                wrote_back = 0
                if len(line_set) >= assoc:
                    victim = next(iter(line_set))
                    del line_set[victim]
                    wrote_back = holders.pop(victim) & 1
                line_set[block] = None
                holders[block] = (cache << 1) | 1
                outcome = _with_wb(base) if wrote_back else base
        if outcome is previous:
            run_length += 1
        elif previous is None:
            previous = outcome
            run_length = 1
        else:
            entry = pending_get(id(previous))
            if entry is None:
                pending[id(previous)] = [previous, run_length]
            else:
                entry[1] += run_length
            previous = outcome
            run_length = 1
    return previous, run_length, instr_count


def _export_dir1nb_finite(protocol: Any, state: dict[str, Any]) -> None:
    holders = state["holders"]
    clean = LineState.CLEAN
    dirty = LineState.DIRTY
    for index, (cache, per_set) in enumerate(zip(protocol._caches, state["sets"])):
        cache._sets = [
            OrderedDict(
                (block, dirty if holders[block] & 1 else clean)
                for block in line_set
            )
            for line_set in per_set
        ]
    protocol._directory._entries = {
        block: _PointerEntry(dirty=bool(encoded & 1), pointers=[encoded >> 1])
        for block, encoded in holders.items()
    }


# ----------------------------------------------------------------------
# wti, finite
# ----------------------------------------------------------------------


def _import_wti_finite(protocol: Any, context: Any) -> dict[str, Any] | None:
    geometry = _finite_geometry(protocol)
    if geometry is None:
        return None
    num_sets, assoc = geometry
    mask: dict[int, int] = {}
    sets: list[list[dict[int, None]]] = []
    clean = LineState.CLEAN
    for index, cache in enumerate(protocol._caches):
        bit = 1 << index
        per_set: list[dict[int, None]] = []
        for line_set in cache._sets:
            per_set.append(dict.fromkeys(line_set))
            for block, line in line_set.items():
                if line is not clean:
                    return None  # write-through lines are never dirty
                mask[block] = mask.get(block, 0) | bit
        sets.append(per_set)
    if not context.seen_blocks >= mask.keys():
        return None
    return {"mask": mask, "sets": sets, "set_mask": num_sets - 1, "assoc": assoc}


def _loop_wti_finite(
    simulator: Any,
    trace: ColumnarTrace,
    protocol: Any,
    context: Any,
    state: dict[str, Any],
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
) -> tuple[ProtocolResult | None, int, int]:
    mask = state["mask"]
    sets = state["sets"]
    set_mask = state["set_mask"]
    assoc = state["assoc"]
    instr_count, type_codes, sharer_col, addresses = trace.data_view(
        simulator.sharer_key
    )
    sharer_index = context.sharer_index
    sharer_lookup = sharer_index.get
    seen = context.seen_blocks
    seen_add = seen.add
    shift = simulator.block_mapper.offset_bits
    limit = protocol.num_caches
    mask_get = mask.get
    wt_wh = _WT_WH.get
    wt_wm = _WT_WM.get
    read = TYPE_READ
    pending_get = pending.get

    def spill(bit: int, line_set: dict) -> None:
        # Write-through victims drop silently: nothing is dirty and
        # snoop bookkeeping has no directory to notify.
        victim = next(iter(line_set))
        del line_set[victim]
        held = mask[victim] & ~bit
        if held:
            mask[victim] = held
        else:
            del mask[victim]

    for code, sharer, address in zip(type_codes, sharer_col, addresses):
        cache = sharer_lookup(sharer)
        if cache is None:
            cache = len(sharer_index)
            if cache >= limit:
                raise too_many_sharers(limit, sharer)
            sharer_index[sharer] = cache
        block = address >> shift
        if block in seen:
            first = False
        else:
            first = True
            seen_add(block)
        bit = 1 << cache
        held = mask_get(block, 0)
        line_set = sets[cache][block & set_mask]
        if code == read:
            if held & bit:
                outcome = RESULT_RD_HIT
                del line_set[block]
                line_set[block] = None
            else:
                outcome = _RM_FIRST if first else _WT_RM_CLN
                if len(line_set) >= assoc:
                    spill(bit, line_set)
                line_set[block] = None
                mask[block] = held | bit
        else:
            # Every write goes to the bus; snoopers drop their copies.
            n_others = (held & ~bit).bit_count()
            rem = held & ~bit
            while rem:
                low = rem & -rem
                del sets[low.bit_length() - 1][block & set_mask][block]
                rem ^= low
            if held & bit:
                outcome = wt_wh(n_others) or _wt_wh(n_others)
                del line_set[block]
                line_set[block] = None
            else:
                if first:
                    outcome = _WT_WM_FIRST
                else:
                    outcome = wt_wm(n_others) or _wt_wm(n_others)
                if len(line_set) >= assoc:
                    spill(bit, line_set)
                line_set[block] = None
            mask[block] = bit
        if outcome is previous:
            run_length += 1
        elif previous is None:
            previous = outcome
            run_length = 1
        else:
            entry = pending_get(id(previous))
            if entry is None:
                pending[id(previous)] = [previous, run_length]
            else:
                entry[1] += run_length
            previous = outcome
            run_length = 1
    return previous, run_length, instr_count


def _export_wti_finite(protocol: Any, state: dict[str, Any]) -> None:
    clean = LineState.CLEAN
    for cache, per_set in zip(protocol._caches, state["sets"]):
        cache._sets = [
            OrderedDict((block, clean) for block in line_set)
            for line_set in per_set
        ]


# ----------------------------------------------------------------------
# dragon, finite
# ----------------------------------------------------------------------

#: DragonLineState <-> compact int code (owner states are >= 2).
_DG_CODES: dict[DragonLineState, int] = {
    DragonLineState.VALID_EXCLUSIVE: 0,
    DragonLineState.SHARED_CLEAN: 1,
    DragonLineState.SHARED_DIRTY: 2,
    DragonLineState.DIRTY: 3,
}
_DG_STATES: tuple[DragonLineState, ...] = (
    DragonLineState.VALID_EXCLUSIVE,
    DragonLineState.SHARED_CLEAN,
    DragonLineState.SHARED_DIRTY,
    DragonLineState.DIRTY,
)


def _import_dragon_finite(protocol: Any, context: Any) -> dict[str, Any] | None:
    geometry = _finite_geometry(protocol)
    if geometry is None:
        return None
    num_sets, assoc = geometry
    code_of = _DG_CODES.get
    mask: dict[int, int] = {}
    owner: dict[int, int] = {}
    exclusive: set[int] = set()
    sets: list[list[dict[int, int]]] = []
    for index, cache in enumerate(protocol._caches):
        bit = 1 << index
        per_set: list[dict[int, int]] = []
        for line_set in cache._sets:
            coded: dict[int, int] = {}
            for block, line in line_set.items():
                line_code = code_of(line)
                if line_code is None:
                    return None
                coded[block] = line_code
                mask[block] = mask.get(block, 0) | bit
                if line_code >= 2:
                    if block in owner:
                        return None
                    owner[block] = index
                if line_code == 0 or line_code == 3:
                    exclusive.add(block)
            per_set.append(coded)
        sets.append(per_set)
    for block in exclusive:
        held = mask[block]
        if held & (held - 1):
            return None  # VE / D lines must be sole holders
    if not context.seen_blocks >= mask.keys():
        return None
    return {
        "mask": mask,
        "owner": owner,
        "sets": sets,
        "set_mask": num_sets - 1,
        "assoc": assoc,
    }


def _loop_dragon_finite(
    simulator: Any,
    trace: ColumnarTrace,
    protocol: Any,
    context: Any,
    state: dict[str, Any],
    pending: dict[int, list],
    previous: ProtocolResult | None,
    run_length: int,
) -> tuple[ProtocolResult | None, int, int]:
    mask = state["mask"]
    owner = state["owner"]
    sets = state["sets"]
    set_mask = state["set_mask"]
    assoc = state["assoc"]
    instr_count, type_codes, sharer_col, addresses = trace.data_view(
        simulator.sharer_key
    )
    sharer_index = context.sharer_index
    sharer_lookup = sharer_index.get
    seen = context.seen_blocks
    seen_add = seen.add
    shift = simulator.block_mapper.offset_bits
    limit = protocol.num_caches
    mask_get = mask.get
    read = TYPE_READ
    pending_get = pending.get

    def demote(rem: int, block: int) -> None:
        """Shift joining-block holders to shared states, as the object
        model's ``_demote_to_shared`` does (VE -> SC, D -> SD, both
        touched; already-shared states are left in place)."""
        index_in_set = block & set_mask
        while rem:
            low = rem & -rem
            holder_set = sets[low.bit_length() - 1][index_in_set]
            line_code = holder_set[block]
            if line_code == 0:
                del holder_set[block]
                holder_set[block] = 1
            elif line_code == 3:
                del holder_set[block]
                holder_set[block] = 2
            rem ^= low

    def install(cache: int, bit: int, block: int, line_code: int) -> bool:
        """Install a line, replacing the set's LRU victim; True when the
        victim owned its block (costing the dirty write-back)."""
        line_set = sets[cache][block & set_mask]
        flushed = False
        if len(line_set) >= assoc:
            victim = next(iter(line_set))
            victim_code = line_set.pop(victim)
            held = mask[victim] & ~bit
            if held:
                mask[victim] = held
            else:
                del mask[victim]
            if victim_code >= 2:
                del owner[victim]
                flushed = True
        line_set[block] = line_code
        return flushed

    for code, sharer, address in zip(type_codes, sharer_col, addresses):
        cache = sharer_lookup(sharer)
        if cache is None:
            cache = len(sharer_index)
            if cache >= limit:
                raise too_many_sharers(limit, sharer)
            sharer_index[sharer] = cache
        block = address >> shift
        if block in seen:
            first = False
        else:
            first = True
            seen_add(block)
        bit = 1 << cache
        held = mask_get(block, 0)
        if code == read:
            if held & bit:
                outcome = RESULT_RD_HIT
                line_set = sets[cache][block & set_mask]
                line_set[block] = line_set.pop(block)
            else:
                if first:
                    base = _RM_FIRST
                    flushed = install(cache, bit, block, 0)
                    mask[block] = bit
                elif block in owner:
                    base = _DG_RM_DRTY
                    demote(held, block)
                    flushed = install(cache, bit, block, 1)
                    mask[block] = held | bit
                elif held:
                    base = _DG_RM_CLN
                    demote(held, block)
                    flushed = install(cache, bit, block, 1)
                    mask[block] = held | bit
                else:
                    # All copies silently evicted; memory is current.
                    base = _DG_RM_CLN
                    flushed = install(cache, bit, block, 0)
                    mask[block] = bit
                outcome = _with_wb(base) if flushed else base
        else:
            if held & bit:
                line_set = sets[cache][block & set_mask]
                others = held & ~bit
                if not others:
                    del line_set[block]
                    line_set[block] = 3
                    owner[block] = cache
                    outcome = RESULT_WH_LOCAL
                else:
                    # Update broadcast: a previous owner demotes to
                    # SHARED_CLEAN (touched), the writer takes SHARED_DIRTY.
                    index_in_set = block & set_mask
                    rem = others
                    while rem:
                        low = rem & -rem
                        holder_set = sets[low.bit_length() - 1][index_in_set]
                        if holder_set[block] >= 2:
                            del holder_set[block]
                            holder_set[block] = 1
                        rem ^= low
                    del line_set[block]
                    line_set[block] = 2
                    owner[block] = cache
                    outcome = RESULT_WH_DISTRIB
            else:
                if first:
                    base = _WM_FIRST
                    flushed = install(cache, bit, block, 3)
                    mask[block] = bit
                elif block in owner:
                    base = _DG_WM_DRTY
                    own = owner.pop(block)
                    own_set = sets[own][block & set_mask]
                    del own_set[block]
                    own_set[block] = 1
                    flushed = install(cache, bit, block, 2)
                    mask[block] = held | bit
                elif held:
                    base = _DG_WM_CLN
                    demote(held, block)
                    flushed = install(cache, bit, block, 2)
                    mask[block] = held | bit
                else:
                    base = _DG_WM_ALONE
                    flushed = install(cache, bit, block, 3)
                    mask[block] = bit
                owner[block] = cache
                outcome = _with_wb(base) if flushed else base
        if outcome is previous:
            run_length += 1
        elif previous is None:
            previous = outcome
            run_length = 1
        else:
            entry = pending_get(id(previous))
            if entry is None:
                pending[id(previous)] = [previous, run_length]
            else:
                entry[1] += run_length
            previous = outcome
            run_length = 1
    return previous, run_length, instr_count


def _export_dragon_finite(protocol: Any, state: dict[str, Any]) -> None:
    states = _DG_STATES
    for cache, per_set in zip(protocol._caches, state["sets"]):
        cache._sets = [
            OrderedDict(
                (block, states[line_code]) for block, line_code in line_set.items()
            )
            for line_set in per_set
        ]


# ----------------------------------------------------------------------
# Sessions and dispatch
# ----------------------------------------------------------------------

#: Exact protocol type -> (importer, loop, exporter).  Keyed by type
#: identity on purpose: subclasses (and wrappers) take the generic
#: object-model path.
_KERNELS: dict[type, tuple[Callable, Callable, Callable]] = {
    Dir0BProtocol: (_import_multicopy, _loop_multicopy, _export_multicopy),
    Dir1NBProtocol: (_import_dir1nb, _loop_dir1nb, _export_dir1nb),
    DirNNBProtocol: (_import_multicopy, _loop_multicopy, _export_multicopy),
    DirIBProtocol: (_import_multicopy, _loop_multicopy, _export_multicopy),
    DirINBProtocol: (_import_multicopy, _loop_multicopy, _export_multicopy),
    CoarseVectorProtocol: (_import_multicopy, _loop_multicopy, _export_multicopy),
    WTIProtocol: (_import_wti, _loop_wti, _export_wti),
    DragonProtocol: (_import_dragon, _loop_dragon, _export_dragon),
}

#: Capacity-aware kernels for the same protocols; tried after the
#: infinite table (whose importers bail on finite caches), so dispatch
#: picks whichever matches the live cache model.
_FINITE_KERNELS: dict[type, tuple[Callable, Callable, Callable]] = {
    Dir0BProtocol: (_import_dir0b_finite, _loop_dir0b_finite, _export_dir0b_finite),
    Dir1NBProtocol: (
        _import_dir1nb_finite, _loop_dir1nb_finite, _export_dir1nb_finite,
    ),
    WTIProtocol: (_import_wti_finite, _loop_wti_finite, _export_wti_finite),
    DragonProtocol: (
        _import_dragon_finite, _loop_dragon_finite, _export_dragon_finite,
    ),
}


class KernelSession:
    """One kernel run kept open across a sequence of columnar chunks.

    Created by :func:`open_kernel_session` after a successful state
    import.  Between :meth:`run_chunk` calls the protocol's state lives
    only in the compact encoding (interned per-block sharer bitmasks
    and owner ids) — the object model is reconstructed exactly once, at
    :meth:`finish`.  Identity-run batching spans chunk boundaries, so
    the accumulated result is bit-identical to one session over the
    concatenated trace in a single chunk.
    """

    __slots__ = (
        "_simulator", "_protocol", "_result", "_context", "_state",
        "_loop", "_export", "_pending", "_previous", "_run_length",
        "_instr_count", "_records", "_finished",
    )

    def __init__(
        self,
        simulator: Any,
        protocol: Any,
        result: Any,
        context: Any,
        state: dict[str, Any],
        loop: Callable,
        export: Callable,
    ) -> None:
        self._simulator = simulator
        self._protocol = protocol
        self._result = result
        self._context = context
        self._state = state
        self._loop = loop
        self._export = export
        self._pending: dict[int, list] = {}
        self._previous: ProtocolResult | None = None
        self._run_length = 0
        self._instr_count = 0
        self._records = 0
        self._finished = False

    def run_chunk(self, chunk: ColumnarTrace) -> None:
        """Run one columnar chunk through the hot loop."""
        if self._finished:
            raise RuntimeError("kernel session already finished")
        self._previous, self._run_length, instr = self._loop(
            self._simulator,
            chunk,
            self._protocol,
            self._context,
            self._state,
            self._pending,
            self._previous,
            self._run_length,
        )
        self._instr_count += instr
        self._records += len(chunk)

    def finish(self) -> Any:
        """Export the compact state back and return the result.

        After this the protocol's caches/directory are exactly as the
        object model would have left them; the session is closed.
        """
        if self._finished:
            return self._result
        self._finished = True
        self._export(self._protocol, self._state)
        flush_batches(
            self._result,
            self._pending,
            self._previous,
            self._run_length,
            self._instr_count,
        )
        self._context.records_done += self._records
        return self._result


def has_kernel(protocol: Any) -> bool:
    """True if *protocol*'s exact type has a table-driven kernel."""
    kind = type(protocol)
    return kind in _KERNELS or kind in _FINITE_KERNELS


def open_kernel_session(
    simulator: Any, protocol: Any, result: Any, context: Any
) -> KernelSession | None:
    """Import *protocol*'s live state and open a chunk-streaming session.

    Tries the infinite-cache kernel first, then the capacity-aware one
    (each importer bails on the other's cache model).  Returns None
    (protocol and context untouched) when no kernel exists for the
    protocol's exact type or the live state fails an import invariant —
    the caller then falls back to the generic columnar loop for every
    chunk.
    """
    for table in (_KERNELS, _FINITE_KERNELS):
        triple = table.get(type(protocol))
        if triple is None:
            continue
        importer, loop, export = triple
        state = importer(protocol, context)
        if state is not None:
            return KernelSession(
                simulator, protocol, result, context, state, loop, export
            )
    return None
