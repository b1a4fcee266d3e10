"""Exhaustive reachable-state exploration for one block (model checking lite).

Trace-driven simulation only exercises the states a workload happens to
reach.  This module enumerates **every** global state a protocol can
reach for a single block on an n-cache machine — breadth-first over all
(cache, read/write) actions — and validates the coherence invariants in
each one, the way a Murphi-style model checker would.

The global state is the pair (per-cache line states, directory state),
fingerprinted structurally; protocols are branched with ``deepcopy``.
State counts are tiny (tens of states for the protocols here), so the
exploration is exhaustive in milliseconds and makes a strong
complement to the randomized property tests.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field

from repro.core.invariants import InvariantChecker
from repro.errors import ConfigurationError
from repro.memory.directory import (
    CoarseVectorDirectory,
    FullMapDirectory,
    LimitedPointerDirectory,
    TwoBitDirectory,
)
from repro.protocols.base import CoherenceProtocol, DirectoryProtocol
from repro.protocols.registry import make_protocol

_BLOCK = 0


def default_caches_for(scheme: str, num_caches: int) -> int:
    """Adjust a requested machine size to one the scheme can model.

    The coarse-vector directory encodes sharers in ternary digits over a
    power-of-two machine, so its size rounds up to the next power of
    two; any other scheme takes the size as given.  Shared by the
    ``repro verify`` CLI and the conformance harness so every entry
    point applies the same fixup.
    """
    if scheme == "coarse-vector" and num_caches & (num_caches - 1):
        return 1 << num_caches.bit_length()
    return num_caches


def _directory_fingerprint(protocol: CoherenceProtocol):
    if not isinstance(protocol, DirectoryProtocol):
        return None
    directory = protocol.directory
    if isinstance(directory, TwoBitDirectory):
        return directory.state_of(_BLOCK).value
    if isinstance(directory, LimitedPointerDirectory):
        stored = directory._entries.get(_BLOCK)
        if stored is None:
            return ("lp", False, (), False)
        return ("lp", stored.dirty, tuple(stored.pointers), stored.broadcast)
    if isinstance(directory, CoarseVectorDirectory):
        code = directory.code_of(_BLOCK)
        return ("cv", code.digits, directory._dirty.get(_BLOCK, False))
    if isinstance(directory, FullMapDirectory):
        entry = directory.entry(_BLOCK)
        sharers = tuple(sorted(entry.sharers)) if entry.sharers else ()
        return ("fm", entry.dirty, sharers)
    raise ConfigurationError(
        f"no fingerprint handler for directory type {type(directory).__name__}"
    )


def fingerprint(protocol: CoherenceProtocol):
    """A hashable, structural snapshot of one block's global state."""
    holders = tuple(
        sorted(
            (cache, state.value)
            for cache, state in protocol.holders(_BLOCK).items()
        )
    )
    extra = None
    single_bit_holder = getattr(protocol, "_single_bit_holder", None)
    if single_bit_holder is not None:
        holder = single_bit_holder.get(_BLOCK)
        extra = () if holder is None else ((holder, _BLOCK),)
    return holders, _directory_fingerprint(protocol), extra


@dataclass
class ExplorationReport:
    """Outcome of one exhaustive exploration."""

    scheme: str
    num_caches: int
    states: int = 0
    transitions: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every reachable state satisfied the invariants."""
        return not self.violations


@dataclass(frozen=True)
class Transition:
    """One deduplicated protocol transition, from the requester's view.

    Attributes:
        requester_state: the acting cache's line state value before the
            action (None = not cached).
        others: sorted line-state values of the other caches' copies.
        operation: ``"r"`` or ``"w"``.
        first_ref: whether this was the block's first reference.
        event: the Table-4 event the protocol reported.
        ops: bus-operation kinds performed (with counts).
        requester_after: the acting cache's line state value afterwards.
    """

    requester_state: str | None
    others: tuple[str, ...]
    operation: str
    first_ref: bool
    event: str
    ops: tuple[tuple[str, int], ...]
    requester_after: str | None


def enumerate_transitions(
    scheme: str,
    num_caches: int = 3,
    max_states: int = 100_000,
    **protocol_options,
) -> list[Transition]:
    """Derive a protocol's transition table by exhaustive probing.

    Walks the same reachable state space as :func:`explore_block_states`
    and records each distinct (requester state, other copies, action)
    situation with its observable outcome — an automatically generated,
    provably complete protocol specification table.
    """
    initial = make_protocol(scheme, num_caches, **protocol_options)
    seen_states = {(False, fingerprint(initial))}
    frontier = deque([(initial, False)])
    transitions: dict[tuple, Transition] = {}
    states = 0

    while frontier:
        protocol, touched = frontier.popleft()
        states += 1
        if states > max_states:
            raise ConfigurationError(
                f"state space of {scheme!r} exceeded max_states={max_states}"
            )
        for cache in range(num_caches):
            for operation in ("r", "w"):
                branch = copy.deepcopy(protocol)
                holders = branch.holders(_BLOCK)
                requester_state = (
                    holders[cache].value if cache in holders else None
                )
                others = tuple(
                    sorted(
                        state.value
                        for holder, state in holders.items()
                        if holder != cache
                    )
                )
                first_ref = not touched
                if operation == "r":
                    result = branch.on_read(cache, _BLOCK, first_ref)
                else:
                    result = branch.on_write(cache, _BLOCK, first_ref)
                after = branch.holders(_BLOCK)
                transition = Transition(
                    requester_state=requester_state,
                    others=others,
                    operation=operation,
                    first_ref=first_ref,
                    event=result.event.value,
                    ops=tuple((op.kind.value, op.count) for op in result.ops),
                    requester_after=(
                        after[cache].value if cache in after else None
                    ),
                )
                key = (requester_state, others, operation, first_ref)
                transitions.setdefault(key, transition)
                state_key = (True, fingerprint(branch))
                if state_key not in seen_states:
                    seen_states.add(state_key)
                    frontier.append((branch, True))
    return sorted(
        transitions.values(),
        key=lambda t: (t.operation, t.first_ref, str(t.requester_state), t.others),
    )


def explore_block_states(
    scheme: str,
    num_caches: int = 3,
    max_states: int = 100_000,
    stop_on_violation: bool = False,
    **protocol_options,
) -> ExplorationReport:
    """Enumerate and validate every reachable single-block global state.

    Starts from the untouched block (first references included as the
    initial actions) and applies every (cache, read/write) pair from
    every discovered state.

    Args:
        scheme: protocol registry name.
        num_caches: machine size (3 suffices to exercise every
            interaction class: requester, owner, bystander).
        max_states: safety bound on the exploration.
        stop_on_violation: abort at the first invariant violation
            instead of collecting all of them.
        protocol_options: forwarded to the protocol factory.
    """
    initial = make_protocol(scheme, num_caches, **protocol_options)
    report = ExplorationReport(scheme=scheme, num_caches=num_caches)

    # State key includes whether the block has been touched yet, since
    # that changes the legal first_ref flag of the next action.
    start_key = (False, fingerprint(initial))
    seen = {start_key}
    frontier = deque([(initial, False)])
    actions = [
        (cache, operation)
        for cache in range(num_caches)
        for operation in ("r", "w")
    ]

    while frontier:
        protocol, touched = frontier.popleft()
        report.states += 1
        if report.states > max_states:
            raise ConfigurationError(
                f"state space of {scheme!r} exceeded max_states={max_states}"
            )
        for cache, operation in actions:
            branch = copy.deepcopy(protocol)
            first_ref = not touched
            try:
                if operation == "r":
                    branch.on_read(cache, _BLOCK, first_ref)
                else:
                    branch.on_write(cache, _BLOCK, first_ref)
                InvariantChecker(branch).check_block(_BLOCK)
            except Exception as exc:  # collect, don't mask, violations
                message = f"{operation} by cache {cache}: {exc}"
                report.violations.append(message)
                if stop_on_violation:
                    return report
                continue
            report.transitions += 1
            key = (True, fingerprint(branch))
            if key not in seen:
                seen.add(key)
                frontier.append((branch, True))
    return report
