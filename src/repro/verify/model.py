"""Small-scope explicit-state model checking of the coherence protocols.

Exhaustively explores every interleaving of protocol events — reads,
writes, replacements, recovery-point establishments, node failures and
recoveries — for a handful of acting nodes and items, over the *real*
:class:`~repro.coherence.standard.StandardProtocol` or
:class:`~repro.coherence.ecp.ExtendedProtocol` implementation (no
abstraction gap: the checked code is the simulated code).

The search is a breadth-first walk over canonically-hashed global
states.  Because a :class:`~repro.machine.Machine` is not snapshotable,
expansion is *replay-based*: each explored state is identified by the
event trace that reaches it, and successors are computed by replaying
that trace on a fresh machine and applying one more event — the same
determinism that makes counterexample traces replayable (the protocol
consumes no randomness, and timing never influences which transition a
state permits, so merging states that differ only in clock or stats is
sound).

Event granularity mirrors the machine's coordination rules (Fig. 2 /
Section 3.4): processors are parked at the establishment barriers, so an
establishment is atomic with respect to reads and writes and only
*failures* can interleave with it — which the ``ckpt_fail_create`` /
``ckpt_fail_commit`` events enumerate step by step.

Scope notes: the ECP needs :data:`MIN_LIVE_NODES_ECP` live memories to
host recovery pairs, so "2 acting nodes" run on a 4-node machine (6 when
failure events are enabled); the fault model is the paper's single
permanent failure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.checkpoint.establish import EstablishmentFailed
from repro.checkpoint.recovery import UnrecoverableFailure
from repro.coherence.injection import InjectionFailed
from repro.coherence.standard import NodeUnavailable
from repro.config import AMConfig, ArchConfig, CacheConfig
from repro.machine import Machine
from repro.memory.attraction_memory import CapacityError
from repro.memory.states import ItemState
from repro.verify.invariants import (
    CheckContext,
    STRICT,
    Violation,
    check_machine,
    dump_state,
    format_violations,
)
from repro.workloads.traces import TraceWorkload

S = ItemState

#: An event is a plain tuple: ("r", node, item), ("w", node, item),
#: ("evict", node, item), ("ckpt",), ("ckpt_abort", k),
#: ("ckpt_fail_create", f, k, "revert"|"leave"),
#: ("ckpt_fail_commit", f, k), ("fail", node), ("recover",),
#: plus the transport events ("dup_invalidate", node, item),
#: ("dup_partner_invalidate", node, item), ("dup_inject", node, item)
#: (a retransmitted message delivered a second time — the idempotent
#: handler must not change state) and ("ckpt_lossy", spec) (an
#: establishment under a scripted drop/dup schedule — the reliable
#: transport must mask it, i.e. reach the loss-free end state), plus
#: the elastic-membership events ("join",) (the unjoined slot joins,
#: atomically), ("ckpt_join_create", k) / ("ckpt_join_commit", k) (the
#: join lands inside an establishment, after k create/commit phases),
#: ("handoff",) (a deliberate leadership handoff between episodes) and
#: ("ckpt_handoff_sync",) (leadership handed off at the sync point, so
#: the episode is issued in the incoming leader's order).
Event = tuple

#: Scripted transport fates for ``ckpt_lossy``: each character is one
#: packet fate ('d' dropped, 'u' duplicated), consumed in order by the
#: transport's link-fault model during the establishment.
LOSSY_SCHEDULES = ("d", "dd", "ddd", "u", "du")


class DuplicateEffectError(RuntimeError):
    """A duplicate delivery changed protocol state (the exactly-once
    effect guarantee is broken)."""

#: Relaxed context between a failure and the end of its recovery: pairs
#: may be singletons, metadata may reference the dead node, and an
#: abandoned establishment may have left Pre-Commit copies for the scan.
_FAILED_CTX = CheckContext(
    allow_pre_commit=True,
    allow_incomplete_pairs=True,
    allow_singleton_ck=True,
)

_EVICTABLE = (
    S.SHARED,
    S.EXCLUSIVE,
    S.MASTER_SHARED,
    S.SHARED_CK1,
    S.SHARED_CK2,
    S.INV_CK1,
    S.INV_CK2,
)


@dataclass(frozen=True)
class ModelConfig:
    """Scope of one exhaustive exploration."""

    protocol: str = "ecp"
    #: Recovery backend under check (repro.recovery); every strategy
    #: runs through the same events and invariants.
    strategy: str = "ecp"
    #: Nodes issuing reads/writes (events address only these).
    acting_nodes: int = 2
    n_items: int = 1
    #: None explores to closure (every reachable state).
    max_depth: int | None = None
    max_states: int = 50_000
    checkpoints: bool = True
    evictions: bool = True
    #: Enumerate single permanent node failures (incl. mid-establishment).
    failures: bool = False
    #: Enumerate duplicate deliveries of already-applied messages (the
    #: transport's exactly-once effect property).
    duplicates: bool = False
    #: Enumerate establishments under scripted drop/dup schedules (the
    #: transport must mask them: same end state as a loss-free run).
    lossy: bool = False
    #: Enumerate elastic-membership events: the last node slot starts
    #: unjoined and may join at any point — including between the
    #: create/commit phases of an establishment — and checkpoint
    #: leadership may be handed off at the sync point.
    membership: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.protocol != "ecp" and (self.checkpoints or self.failures):
            raise ValueError(
                "checkpoint/failure events need the ECP; pass "
                "checkpoints=False, failures=False for the standard protocol"
            )
        if self.protocol != "ecp" and self.strategy != "ecp":
            raise ValueError("recovery strategies ride on the ECP machine")
        if self.lossy and not self.checkpoints:
            raise ValueError("lossy establishment events need checkpoints=True")
        if self.membership and self.protocol != "ecp":
            raise ValueError("membership events ride on the ECP machine")

    @property
    def machine_nodes(self) -> int:
        # the ECP needs MIN_LIVE_NODES_ECP(=4) live AMs to place a
        # recovery pair away from the writer; with failures one node
        # may die, and a spare gives injections room to land.  With
        # membership the last slot starts unjoined, so everything needs
        # one more node — sized to a valid (non-prime) mesh
        if self.membership:
            return max(8 if self.failures else 6, self.acting_nodes + 2)
        if self.failures:
            return max(6, self.acting_nodes + 1)
        return max(4, self.acting_nodes)

    @property
    def joiner(self) -> int:
        """Membership mode: the unjoined slot (always the last node)."""
        return self.machine_nodes - 1

    def model_items(self) -> tuple[int, ...]:
        """Items the acting nodes address.  Membership mode rehomes the
        last item onto the joiner, so the unjoined pointer partition —
        and its reclamation at join — is on the explored surface
        without enlarging the item count."""
        items = tuple(range(self.n_items))
        if self.membership:
            from repro.config import AMConfig

            # same AM geometry as build_machine, so the home really is
            # the joiner: home_of = (item // items_per_page) % n_nodes
            joiner_item = (
                AMConfig(size_bytes=512 * 1024).items_per_page * self.joiner
            )
            items = items[:-1] + (joiner_item,)
        return items


@dataclass
class Counterexample:
    """A trace from the initial state to an invariant violation."""

    trace: tuple[Event, ...]
    violations: list[Violation]
    state_dump: str

    def format(self) -> str:
        lines = ["counterexample trace:"]
        for i, event in enumerate(self.trace, 1):
            lines.append(f"  step {i}: {format_event(event)}")
        lines.append("violated invariants:")
        lines.extend(f"  {v}" for v in self.violations)
        lines.append("global state:")
        lines.extend(f"  {line}" for line in self.state_dump.splitlines())
        return "\n".join(lines)


@dataclass
class ModelResult:
    """Outcome of one exploration."""

    config: ModelConfig
    states: int = 0
    transitions: int = 0
    max_depth_reached: int = 0
    #: True when the reachable state space closed within the bounds.
    complete: bool = False
    counterexample: Counterexample | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def summary(self) -> str:
        verdict = "OK" if self.ok else "VIOLATION"
        backend = (
            "" if self.config.strategy == "ecp"
            else f"/{self.config.strategy}"
        )
        scope = (
            f"{self.config.protocol}{backend} {self.config.acting_nodes} "
            f"acting nodes x {self.config.n_items} items"
        )
        closure = "closed" if self.complete else "bounded"
        return (
            f"model check [{scope}]: {verdict} — {self.states} states, "
            f"{self.transitions} transitions, depth {self.max_depth_reached} "
            f"({closure})"
        )


def format_event(event: Event) -> str:
    kind = event[0]
    if kind in ("r", "w"):
        op = "read" if kind == "r" else "write"
        return f"{op}(node={event[1]}, item={event[2]})"
    if kind == "evict":
        return f"evict(node={event[1]}, item={event[2]})"
    if kind == "ckpt":
        return "establish recovery point (create+commit, all nodes)"
    if kind == "ckpt_abort":
        return f"establishment aborted after {event[1]} create phase(s)"
    if kind == "ckpt_fail_create":
        mode = "detected early (Pre-Commit left for scan)" if event[3] == "leave" \
            else "detected late (Pre-Commit reverted)"
        return (
            f"node {event[1]} fails after {event[2]} create phase(s), {mode}"
        )
    if kind == "ckpt_fail_commit":
        return f"node {event[1]} fails after {event[2]} commit phase(s)"
    if kind == "fail":
        return f"node {event[1]} fails (permanent)"
    if kind == "recover":
        return "recovery (scans + rebuild + reconfiguration + rollback)"
    if kind == "dup_invalidate":
        return f"duplicate INVALIDATE delivered (node={event[1]}, item={event[2]})"
    if kind == "dup_partner_invalidate":
        return (
            f"duplicate partner INVALIDATE delivered "
            f"(node={event[1]}, item={event[2]})"
        )
    if kind == "dup_inject":
        return f"duplicate INJECT_DATA delivered (node={event[1]}, item={event[2]})"
    if kind == "ckpt_lossy":
        return (
            f"establish recovery point under drop/dup schedule {event[1]!r}"
        )
    if kind == "join":
        return "unjoined slot joins (catch-up + pointer reclamation)"
    if kind == "ckpt_join_create":
        return f"join lands mid-establishment, after {event[1]} create phase(s)"
    if kind == "ckpt_join_commit":
        return f"join lands mid-establishment, after {event[1]} commit phase(s)"
    if kind == "handoff":
        return "checkpoint leadership handed off between episodes"
    if kind == "ckpt_handoff_sync":
        return (
            "leadership handed off at the sync point; establishment issued "
            "in the incoming leader's order"
        )
    return repr(event)


# --------------------------------------------------------------- machine


def build_machine(mcfg: ModelConfig, mutate: Callable[[Machine], None] | None = None) -> Machine:
    """A fresh bare machine for one replay (no processes started)."""
    cfg = ArchConfig(
        n_nodes=mcfg.machine_nodes,
        am=AMConfig(size_bytes=512 * 1024),
        cache=CacheConfig(size_bytes=32 * 1024),
        seed=mcfg.seed,
    )
    workload = TraceWorkload.from_ops([[("r", 0)]])
    machine = Machine(
        cfg,
        workload,
        protocol=mcfg.protocol,
        checkpointing=False,
        recovery_strategy=mcfg.strategy,
        initial_members=mcfg.machine_nodes - 1 if mcfg.membership else None,
    )
    if mutate is not None:
        mutate(machine)
    return machine


def canonical_state(machine: Machine) -> tuple:
    """Hashable image of the protocol-visible global state.

    Clocks, statistics, caches (invalidated after every event) and
    contention bookkeeping are excluded: they never influence which
    transition a state permits, so states differing only there merge.
    """
    nodes = tuple(
        (
            node.alive,
            node.joined,
            node.pointers_rehosted,
            tuple(sorted((item, state.value) for item, state in node.am.non_invalid_items())),
            tuple(sorted(node.am.pages())),
        )
        for node in machine.nodes
    )
    # strategy-private recovery state (e.g. pool content) distinguishes
    # states the AMs alone would conflate; the ECP's is always ()
    return nodes, machine.directory.snapshot(), machine.recovery.snapshot()


def _pending_failure(machine: Machine) -> bool:
    return any(not n.alive and not n.pointers_rehosted for n in machine.nodes)


def _context(machine: Machine) -> CheckContext:
    return _FAILED_CTX if _pending_failure(machine) else STRICT


def _addr(machine: Machine, item: int) -> int:
    return item * machine.cfg.item_bytes


def _drain(machine: Machine, gen: Iterable[int]) -> None:
    for delay in gen:
        machine.engine.run(until=machine.engine.now + int(delay))


# --------------------------------------------------------------- events


def enabled_events(machine: Machine, mcfg: ModelConfig) -> list[Event]:
    events: list[Event] = []
    ever_failed = any(not n.alive for n in machine.nodes)
    pending = _pending_failure(machine)
    live = [n.node_id for n in machine.nodes if n.alive]

    if pending and any(
        machine.nodes[n].am.count_in_group("pre_commit") for n in live
    ):
        # Pre-Commit copies left for the scan: detection interrupted the
        # establishment, so the coordinator moves straight to the
        # recovery barrier — processors stay parked until it completes
        return [("recover",)]

    items = mcfg.model_items()
    for n in range(mcfg.acting_nodes):
        if not machine.nodes[n].alive:
            continue
        for i in items:
            events.append(("r", n, i))
            events.append(("w", n, i))

    if mcfg.evictions:
        for node in machine.nodes:
            if not node.alive:
                continue
            for i in items:
                if node.am.state(i) in _EVICTABLE:
                    events.append(("evict", node.node_id, i))

    if mcfg.duplicates:
        ecp = mcfg.protocol == "ecp"
        for node in machine.nodes:
            if not node.alive:
                continue
            for i in items:
                state = node.am.state(i)
                if state is S.INVALID:
                    # a retransmitted INVALIDATE lands after its effect
                    # applied (acting nodes only: spares add no coverage)
                    if node.node_id < mcfg.acting_nodes:
                        events.append(("dup_invalidate", node.node_id, i))
                else:
                    events.append(("dup_inject", node.node_id, i))
                if ecp and state is S.INV_CK2:
                    events.append(("dup_partner_invalidate", node.node_id, i))

    if mcfg.checkpoints and not pending:
        events.append(("ckpt",))
        # lossy variants directly after the clean one: their end state
        # must merge with the state ("ckpt",) just put in `seen`
        if mcfg.lossy:
            for spec in LOSSY_SCHEDULES:
                events.append(("ckpt_lossy", spec))
        for k in range(len(live)):
            events.append(("ckpt_abort", k))

    if mcfg.failures and not ever_failed:
        for f in _fail_candidates(machine, mcfg):
            events.append(("fail", f))
            if mcfg.checkpoints:
                for k in range(len(live) + 1):
                    events.append(("ckpt_fail_create", f, k, "revert"))
                    events.append(("ckpt_fail_create", f, k, "leave"))
                    events.append(("ckpt_fail_commit", f, k))

    if mcfg.membership:
        if not machine.nodes[mcfg.joiner].joined:
            # a join may land at any point, including while a failed
            # node awaits recovery (the real injector does not wait)
            events.append(("join",))
            if mcfg.checkpoints and not pending:
                for k in range(len(live) + 1):
                    events.append(("ckpt_join_create", k))
                    events.append(("ckpt_join_commit", k))
        if mcfg.checkpoints and not pending:
            events.append(("handoff",))
            events.append(("ckpt_handoff_sync",))

    if pending:
        events.append(("recover",))
    return events


def _fail_candidates(machine: Machine, mcfg: ModelConfig) -> list[int]:
    """Acting nodes plus any node holding a copy of a model item —
    failing an empty spare adds states without exercising anything."""
    interesting = set(range(mcfg.acting_nodes))
    for node in machine.nodes:
        for i in mcfg.model_items():
            if node.am.state(i) is not S.INVALID:
                interesting.add(node.node_id)
    return sorted(n for n in interesting if machine.nodes[n].alive)


def apply_event(machine: Machine, event: Event) -> bool:
    """Apply one event; returns False when the event blocked.

    A blocked event (a request timing out against a dead node, an
    injection finding no acceptor) may still have mutated state — in the
    real machine the requester stalls until recovery with exactly that
    partial state in place — so callers must hash the state either way.
    """
    protocol = machine.protocol
    now = machine.engine.now
    kind = event[0]
    try:
        if kind == "r":
            protocol.read(event[1], _addr(machine, event[2]), now)
        elif kind == "w":
            protocol.write(event[1], _addr(machine, event[2]), now)
        elif kind == "evict":
            _evict(machine, event[1], event[2])
        elif kind == "ckpt":
            _establish(machine)
        elif kind == "ckpt_abort":
            _establish(machine, abort_after=event[1])
        elif kind == "ckpt_fail_create":
            _establish(
                machine, fail_node=event[1], fail_after=event[2],
                fail_phase="create", leave_pre_commit=event[3] == "leave",
            )
        elif kind == "ckpt_fail_commit":
            _establish(machine, fail_node=event[1], fail_after=event[2],
                       fail_phase="commit")
        elif kind == "fail":
            _fail(machine, event[1])
        elif kind == "recover":
            _recover(machine)
        elif kind == "join":
            _join(machine)
        elif kind == "ckpt_join_create":
            _establish(machine, join_after_create=event[1])
        elif kind == "ckpt_join_commit":
            _establish(machine, join_after_commit=event[1])
        elif kind == "handoff":
            # between episodes a handoff is pure strategy bookkeeping:
            # the hook is the mutation surface the model must cover
            machine.recovery.handoff_cycles("ckpt")
        elif kind == "ckpt_handoff_sync":
            machine.recovery.handoff_cycles("ckpt")
            _establish(machine, rotate=1)
        elif kind in ("dup_invalidate", "dup_partner_invalidate", "dup_inject"):
            _redeliver(machine, event)
        elif kind == "ckpt_lossy":
            _force_schedule(machine, event[1])
            _establish(machine)
        else:
            raise ValueError(f"unknown model event {event!r}")
    except (NodeUnavailable, InjectionFailed, CapacityError, EstablishmentFailed):
        return False
    finally:
        # force every subsequent op through the AM protocol: cache hits
        # would silently absorb transitions the model wants to observe
        for node in machine.nodes:
            node.cache.invalidate_all()
    return True


def _evict(machine: Machine, node_id: int, item: int) -> None:
    """Force replacement of one copy, as _make_room would on pressure:
    replaceable copies are silently dropped, precious ones injected."""
    protocol = machine.protocol
    node = machine.nodes[node_id]
    state = node.am.state(item)
    now = machine.engine.now
    if state.is_replaceable:
        node.am.set_state(item, S.INVALID)
        protocol.on_shared_copy_dropped(node_id, item, now)
    else:
        cause = protocol._replacement_cause(state)
        protocol.injector.inject(node_id, item, state, now, cause, drop_local=True)


def _redeliver(machine: Machine, event: Event) -> None:
    """Deliver one already-applied protocol message a second time, as a
    retransmitted duplicate that escaped the transport's sequence check
    would; the idempotent handler must leave the canonical state
    untouched (exactly-once effect)."""
    kind, node_id, item = event
    protocol = machine.protocol
    before = canonical_state(machine)
    if kind == "dup_invalidate":
        changed = protocol.deliver_invalidate(node_id, item)
    elif kind == "dup_partner_invalidate":
        changed = protocol.deliver_partner_invalidate(node_id, item)
    else:  # dup_inject: the INJECT_DATA install path runs twice
        state = machine.nodes[node_id].am.state(item)
        protocol.injector._install(node_id, item, state, machine.engine.now)
        changed = False
    if changed or canonical_state(machine) != before:
        raise DuplicateEffectError(
            f"{format_event(event)} was not suppressed: the duplicate "
            "changed protocol state"
        )


def _force_schedule(machine: Machine, spec: str) -> None:
    """Script the transport's next packet fates from a schedule string."""
    from repro.network.transport import DeliveryFate

    fates = {
        "d": DeliveryFate.DROPPED,
        "u": DeliveryFate.DUPLICATED,
    }
    machine.transport.faults.force(*(fates[c] for c in spec))


def _fail(machine: Machine, node_id: int) -> None:
    """Permanent fail-silent failure, without engine-scheduled
    detection: the model decides when detection consequences (the
    ``recover`` event) run."""
    node = machine.nodes[node_id]
    node.fail()
    machine.stats.n_failures += 1
    machine.registry.on_node_failed(node_id)
    machine.directory.wipe_node(node_id)
    machine.ring.mark_dead(node_id)
    machine.coordinator.on_node_failed(node_id)
    machine.notify("on_failure", node_id)


def _join(machine: Machine, complete: bool = True) -> None:
    """Admit the unjoined slot: the machine's ``join_node`` state
    effects with the timing collapsed.  ``complete=False`` performs
    only the *admission* half (node powers on, membership registered,
    strategy catch-up runs) — ``Machine.join_node`` defers the
    completion half (ring revival, pointer reclamation) until no
    establishment is in flight, so a join landing mid-episode must
    too: reviving the ring mid-episode would let the injector place a
    recovery-pair partner on a node that is not an episode participant
    and whose Pre-Commit copy nobody would ever commit."""
    joiner = len(machine.nodes) - 1
    node = machine.nodes[joiner]
    node.join()
    machine.stats.n_joins += 1
    machine.registry.on_node_joined(joiner)
    _drain(machine, machine.recovery.join_node(joiner))
    if complete:
        _join_complete(machine)


def _join_complete(machine: Machine) -> None:
    joiner = len(machine.nodes) - 1
    machine.nodes[joiner].pointers_rehosted = True
    machine.ring.revive(joiner)


def _recover(machine: Machine) -> None:
    recovery = machine.recovery
    for node in machine.nodes:
        if node.alive:
            recovery.scan_node(node.node_id)
    _drain(machine, recovery.reconfigure())
    machine.rewind_streams()
    machine.stats.n_recoveries += 1
    machine.coordinator.recovery_requested = False
    machine.notify("on_recovery_complete")


def _establish(
    machine: Machine,
    abort_after: int | None = None,
    fail_node: int | None = None,
    fail_after: int = 0,
    fail_phase: str = "create",
    leave_pre_commit: bool = False,
    join_after_create: int | None = None,
    join_after_commit: int | None = None,
    rotate: int = 0,
) -> None:
    """One establishment episode, mirroring Coordinator semantics:
    creates on all live nodes, then commits on all live nodes; a failure
    during create aborts, a failure during commit drains (the remaining
    nodes still commit before the recovery barrier can form).

    ``join_after_create``/``join_after_commit`` land the unjoined
    slot's admission inside the episode, after that many phases — the
    joiner is *not* a participant of the in-flight episode (it was not
    at the sync barrier), it merely changes global membership state
    under the episode's feet.  ``rotate`` issues the phases in a
    rotated node order, as an incoming leader after a sync-point
    handoff would."""
    recovery = machine.recovery
    live = [n.node_id for n in machine.nodes if n.alive]
    if rotate:
        live = live[rotate:] + live[:rotate]
    aborted = False
    join_pending = join_after_create is not None or join_after_commit is not None
    joined_mid = False

    recovery.begin_establishment()
    done = 0
    for node_id in live:
        if join_after_create is not None and done >= join_after_create:
            _join(machine, complete=False)
            join_after_create = None
            joined_mid = True
        if abort_after is not None and done >= abort_after:
            aborted = True
            break
        if fail_node is not None and fail_phase == "create" and done >= fail_after:
            _fail(machine, fail_node)
            aborted = True  # the dead participant never voted ready
            break
        if not machine.nodes[node_id].alive:
            continue
        try:
            _drain(machine, recovery.node_create_phase(node_id))
        except EstablishmentFailed:
            aborted = True
            break
        done += 1
    if join_after_create is not None and not aborted:
        _join(machine, complete=False)  # after every create, pre-commit
        join_after_create = None
        joined_mid = True

    if aborted:
        if not leave_pre_commit:
            # failure-free abort (or late detection): revert in place
            for node_id in live:
                if machine.nodes[node_id].alive:
                    recovery.abort_node(node_id)
            if fail_node is None:
                machine.notify("on_establishment_aborted")
        # with leave_pre_commit the copies stay for the recovery scan
        if joined_mid:
            _join_complete(machine)  # the episode is over: join finishes
        elif join_pending:
            _join(machine)  # the episode died before the join position
        return

    done = 0
    for node_id in live:
        if join_after_commit is not None and done >= join_after_commit:
            _join(machine, complete=False)
            join_after_commit = None
            joined_mid = True
        if fail_node is not None and fail_phase == "commit" and done >= fail_after \
                and machine.nodes[fail_node].alive:
            _fail(machine, fail_node)
        if not machine.nodes[node_id].alive:
            continue
        recovery.commit_node(node_id)
        done += 1
    if join_after_commit is not None:
        _join(machine, complete=False)  # after the last commit
        joined_mid = True
    machine.stats.n_checkpoints += 1
    machine.snapshot_streams()
    machine.notify("on_establishment_complete")
    if joined_mid:
        _join_complete(machine)  # no episode in flight any more


# --------------------------------------------------------------- search


def replay(
    mcfg: ModelConfig,
    trace: Iterable[Event],
    mutate: Callable[[Machine], None] | None = None,
) -> Machine:
    """Re-execute a trace on a fresh machine (deterministic)."""
    machine = build_machine(mcfg, mutate)
    for event in trace:
        apply_event(machine, event)
    return machine


def check(
    mcfg: ModelConfig,
    mutate: Callable[[Machine], None] | None = None,
    progress: Callable[[str], None] | None = None,
) -> ModelResult:
    """Breadth-first exhaustive exploration; stops at the first
    invariant violation with a replayable counterexample."""
    result = ModelResult(config=mcfg)
    root = build_machine(mcfg, mutate)

    violations = check_machine(root, _context(root))
    if violations:
        result.counterexample = Counterexample((), violations, dump_state(root))
        return result

    seen = {canonical_state(root)}
    frontier: deque[tuple[Event, ...]] = deque([()])
    result.states = 1

    while frontier:
        trace = frontier.popleft()
        depth = len(trace)
        if mcfg.max_depth is not None and depth >= mcfg.max_depth:
            continue
        at = replay(mcfg, trace, mutate)
        for event in enabled_events(at, mcfg):
            machine = replay(mcfg, trace, mutate)
            try:
                apply_event(machine, event)
            except UnrecoverableFailure as exc:
                # the model only injects single failures, which the
                # paper guarantees recoverable — failing to recover IS
                # a protocol bug, not an out-of-model state
                result.transitions += 1
                result.counterexample = Counterexample(
                    trace + (event,),
                    [Violation("RECOVERABILITY", None, str(exc))],
                    dump_state(machine),
                )
                return result
            except DuplicateEffectError as exc:
                result.transitions += 1
                result.counterexample = Counterexample(
                    trace + (event,),
                    [Violation("EXACTLY-ONCE", None, str(exc))],
                    dump_state(machine),
                )
                return result
            result.transitions += 1
            extended = trace + (event,)
            violations = check_machine(machine, _context(machine))
            if violations:
                result.counterexample = Counterexample(
                    extended, violations, dump_state(machine)
                )
                return result
            if event[0] == "ckpt_lossy":
                # fault masking: a retried establishment must land on
                # exactly the loss-free establishment's state — in
                # particular no node commits a recovery point another
                # node is missing
                reference = replay(mcfg, trace + (("ckpt",),), mutate)
                if canonical_state(machine) != canonical_state(reference):
                    result.counterexample = Counterexample(
                        extended,
                        [Violation(
                            "LOSSY-CKPT", None,
                            f"establishment under drop/dup schedule "
                            f"{event[1]!r} diverged from the loss-free "
                            "establishment",
                        )],
                        dump_state(machine),
                    )
                    return result
            key = canonical_state(machine)
            if key in seen:
                continue
            seen.add(key)
            result.states += 1
            result.max_depth_reached = max(result.max_depth_reached, depth + 1)
            if result.states >= mcfg.max_states:
                return result  # bounded: complete stays False
            frontier.append(extended)
        if progress is not None and result.states % 500 == 0:
            progress(
                f"{result.states} states, {result.transitions} transitions, "
                f"frontier {len(frontier)}"
            )

    result.complete = mcfg.max_depth is None
    return result
