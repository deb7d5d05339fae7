"""Global protocol invariants of the ECP, checked over a whole machine.

The paper's fault-tolerance argument (Sections 3-4) rests on a small
set of global properties that every protocol transition must preserve.
This module states them as pure predicates over a :class:`Machine`'s
state — AM contents, localization pointers, directory entries — and
returns structured :class:`Violation` records instead of asserting, so
the runtime observer, the model checker and the fuzzing harness can all
share one definition of "correct".

Checked invariants (codes cited by docs/PROTOCOL.md section 5):

``OWNER``
    At most one owner-capable copy per item — Exclusive, Master-Shared,
    Shared-CK1 or Pre-Commit1 (Section 4.1: only the ``*1`` member of a
    pair may grant exclusive rights).
``DUP``
    At most one copy of each CK/Pre-Commit state per item, and the two
    members of a pair on two *distinct* nodes (Section 4.1: an AM
    holding a non-replaceable copy refuses the pair's injection).
``CK-PAIR``
    A committed, unmodified item has exactly two Shared-CK copies; a
    singleton is legal only between a failure and the end of
    reconfiguration (Section 3.4).
``INV-PAIR``
    A modified item's old recovery point keeps exactly two Inv-CK
    copies until the commit that discards them (Section 3.3) — this is
    the restorability of the recovery point.
``CK-VS-OWNER``
    No Shared-CK copy coexists with a current owner copy: a write on a
    checkpointed item must degrade the whole pair to Inv-CK first
    (Fig. 1 / Section 4.1).
``CK-VS-INV``
    Outside a commit, an item never has both Shared-CK and Inv-CK
    copies (they would be two different recovery points).
``PRE-COMMIT``
    Pre-Commit states exist only between the create phase and the end
    of the commit phase of an establishment (Fig. 2).
``DIR-POINTER``/``DIR-PARTNER``/``DIR-SHARERS``
    The localization pointer names the live node holding the
    serving-capable copy; the directory entry's partner field names the
    actual ``*2`` holder; the sharing list matches the set of live
    nodes holding plain Shared copies (Section 2.2 / 4.1).
``AM-GROUP``
    The AM's per-state-group indexes agree with the frame states (an
    implementation invariant: the software analogue of the paper's
    "tree of modified lines" must never go stale).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Iterable

from repro.coherence.directory import DirectoryEntry
from repro.memory.attraction_memory import _GROUP_OF, GROUPS
from repro.memory.states import ItemState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine import Machine

S = ItemState

_OWNER_CAPABLE = (S.EXCLUSIVE, S.MASTER_SHARED, S.SHARED_CK1, S.PRE_COMMIT1)
_CURRENT_OWNER = (S.EXCLUSIVE, S.MASTER_SHARED)
_PAIRS = (
    (S.SHARED_CK1, S.SHARED_CK2),
    (S.INV_CK1, S.INV_CK2),
    (S.PRE_COMMIT1, S.PRE_COMMIT2),
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to debug it."""

    code: str
    item: int | None
    message: str

    def __str__(self) -> str:
        where = f"item {self.item}: " if self.item is not None else ""
        return f"[{self.code}] {where}{self.message}"


@dataclass(frozen=True)
class CheckContext:
    """Which relaxations apply to the current protocol phase.

    The strict set holds in the steady state; establishment, commit,
    recovery and the failure-detection window each legalise specific
    transients (see the observer's phase machine).
    """

    #: Pre-Commit copies are legal (create or commit phase running).
    allow_pre_commit: bool = False
    #: A Pre-Commit1 copy may still be waiting for its Pre-Commit2
    #: replica (mid-create) and vice versa during per-node commits.
    allow_incomplete_pairs: bool = False
    #: A recovery pair may be down to one copy (its partner died and
    #: reconfiguration has not re-replicated it yet), and directory
    #: state may reference the dead node.
    allow_singleton_ck: bool = False
    #: Skip pointer/entry agreement (mid-recovery, before the metadata
    #: rebuild has run).
    check_directory: bool = True
    #: Check invariants that relate copies on *different* nodes.  Off
    #: only while recovery scans run node by node: a scanned node's
    #: restored Shared-CK copies legally coexist with current copies on
    #: nodes whose scan has not run yet, so mid-scan only each AM's own
    #: consistency is meaningful.
    cross_node: bool = True

    def no_stricter_than(self, other: "CheckContext") -> bool:
        """Is every violation under this context one under ``other``
        too?  (Each field only relaxes: ``allow_*`` when set, the two
        check switches when cleared.)"""
        return (
            self.allow_pre_commit >= other.allow_pre_commit
            and self.allow_incomplete_pairs >= other.allow_incomplete_pairs
            and self.allow_singleton_ck >= other.allow_singleton_ck
            and self.check_directory <= other.check_directory
            and self.cross_node <= other.cross_node
        )


#: Strict steady-state context.
STRICT = CheckContext()


def _scan(machine: "Machine") -> tuple[dict, dict]:
    """One pass over every live AM's frames: item -> {state: [holder
    nodes]}, and per live node the items each state group must index."""
    by_item: dict[int, dict[ItemState, list[int]]] = {}
    groups: dict = {}
    for node in machine.nodes:
        if not node.alive:
            continue
        node_id = node.node_id
        actual: dict[str, set[int]] = {group: set() for group in GROUPS}
        for item, state in node.am.non_invalid_items():
            by_item.setdefault(item, {}).setdefault(state, []).append(node_id)
            actual[_GROUP_OF[state]].add(item)
        groups[node] = actual
    return by_item, groups


def items_by_state(machine: "Machine") -> dict[int, dict[ItemState, list[int]]]:
    """item -> {state: [holder nodes]} over live nodes."""
    return _scan(machine)[0]


def check_machine(machine: "Machine", ctx: CheckContext = STRICT) -> list[Violation]:
    """Evaluate every invariant; returns the (possibly empty) breakage."""
    violations: list[Violation] = []
    by_item, groups = _scan(machine)
    _check_by_item(machine, by_item, ctx, violations)
    for node, actual in groups.items():
        _check_am_groups(node, actual, violations)
    return violations


def check_items(
    machine: "Machine", items: Collection[int], ctx: CheckContext = STRICT
) -> list[Violation]:
    """:func:`check_machine` restricted to ``items``.

    The same per-item predicates run over only these items' copies,
    pointers and entries; a node's AM-GROUP indexes are audited in full
    when one of these items disagrees with them.  The verdict equals
    :func:`check_machine`'s whenever every other item is known to pass
    (the incremental runtime observer's dirty-set contract).
    """
    violations: list[Violation] = []
    by_item: dict[int, dict[ItemState, list[int]]] = {}
    stale = []
    for node in machine.nodes:
        if not node.alive:
            continue
        node_id = node.node_id
        am = node.am
        agrees = True
        for item in items:
            state = am.state(item)
            group = _GROUP_OF[state]
            if group is not None:
                by_item.setdefault(item, {}).setdefault(state, []).append(node_id)
            if agrees and am.groups_holding(item) != ([group] if group else []):
                agrees = False
        if not agrees:
            stale.append(node)
    _check_by_item(machine, by_item, ctx, violations)
    for node in stale:
        actual: dict[str, set[int]] = {group: set() for group in GROUPS}
        for item, state in node.am.non_invalid_items():
            actual[_GROUP_OF[state]].add(item)
        _check_am_groups(node, actual, violations)
    return violations


def _check_by_item(
    machine: "Machine",
    by_item: dict[int, dict[ItemState, list[int]]],
    ctx: CheckContext,
    out: list[Violation],
) -> None:
    if ctx.cross_node:
        _check_copies(machine, by_item, ctx, out)
        if ctx.check_directory:
            _check_directory(machine, by_item, ctx, out)


# ----------------------------------------------------------------- copies


def _check_copies(
    machine: "Machine",
    by_item: dict[int, dict[ItemState, list[int]]],
    ctx: CheckContext,
    out: list[Violation],
) -> None:
    for item, states in sorted(by_item.items()):
        owners = [
            (st.name, n) for st in _OWNER_CAPABLE for n in states.get(st, ())
        ]
        if len(owners) > 1:
            out.append(
                Violation(
                    "OWNER",
                    item,
                    f"multiple owner-capable copies: {owners}",
                )
            )
        for one, two in _PAIRS:
            h1 = states.get(one, [])
            h2 = states.get(two, [])
            if len(h1) > 1 or len(h2) > 1:
                out.append(
                    Violation(
                        "DUP",
                        item,
                        f"duplicated {one.name}/{two.name} copies at "
                        f"{h1} / {h2}",
                    )
                )
            if h1 and h2 and set(h1) & set(h2):
                out.append(
                    Violation(
                        "DUP",
                        item,
                        f"{one.name} and {two.name} co-located on node "
                        f"{sorted(set(h1) & set(h2))[0]}",
                    )
                )
        has_pc = bool(states.get(S.PRE_COMMIT1) or states.get(S.PRE_COMMIT2))
        if has_pc and not ctx.allow_pre_commit:
            out.append(
                Violation(
                    "PRE-COMMIT",
                    item,
                    "Pre-Commit copies exist outside an establishment "
                    f"(holders: {states.get(S.PRE_COMMIT1, [])} / "
                    f"{states.get(S.PRE_COMMIT2, [])})",
                )
            )
        if not ctx.allow_incomplete_pairs:
            _check_pair_completeness(item, states, ctx, out)
        ck = states.get(S.SHARED_CK1, []) + states.get(S.SHARED_CK2, [])
        if ck and any(states.get(st) for st in _CURRENT_OWNER):
            out.append(
                Violation(
                    "CK-VS-OWNER",
                    item,
                    "Shared-CK copies coexist with a current owner "
                    f"(CK at {ck}, owner "
                    f"{[(st.name, states[st]) for st in _CURRENT_OWNER if states.get(st)]})",
                )
            )
        inv = states.get(S.INV_CK1, []) + states.get(S.INV_CK2, [])
        if ck and inv and not ctx.allow_incomplete_pairs:
            out.append(
                Violation(
                    "CK-VS-INV",
                    item,
                    f"both Shared-CK ({ck}) and Inv-CK ({inv}) copies exist "
                    "outside a commit",
                )
            )


def _check_pair_completeness(
    item: int,
    states: dict[ItemState, list[int]],
    ctx: CheckContext,
    out: list[Violation],
) -> None:
    for one, two in _PAIRS:
        h1 = states.get(one, [])
        h2 = states.get(two, [])
        if bool(h1) == bool(h2):
            continue
        if ctx.allow_singleton_ck:
            # a pair may be down to one copy: its partner died with its
            # node, and reconfiguration has not re-replicated it yet
            continue
        present, absent = (one, two) if h1 else (two, one)
        out.append(
            Violation(
                "CK-PAIR" if one is S.SHARED_CK1 else
                "INV-PAIR" if one is S.INV_CK1 else "PC-PAIR",
                item,
                f"{present.name} copy at {h1 or h2} has no {absent.name} "
                "partner copy",
            )
        )


# ----------------------------------------------------------------- directory


def _check_directory(
    machine: "Machine",
    by_item: dict[int, dict[ItemState, list[int]]],
    ctx: CheckContext,
    out: list[Violation],
) -> None:
    directory = machine.directory
    nodes = machine.nodes
    for item, states in sorted(by_item.items()):
        serving_holders = [
            n for st in _OWNER_CAPABLE for n in states.get(st, ())
        ]
        pointer = directory.serving_node(item)
        home = directory.home_of(item)
        if ctx.allow_singleton_ck and not nodes[home].alive:
            # the pointer partition died with its host; lookups raise
            # NodeUnavailable until the recovery rebuild re-homes it
            continue
        if serving_holders:
            holder = serving_holders[0]
            if pointer != holder:
                out.append(
                    Violation(
                        "DIR-POINTER",
                        item,
                        f"pointer names node {pointer} but the serving copy "
                        f"lives on node {holder}",
                    )
                )
                continue
            # entries are created lazily: a missing entry is an empty one
            entry = directory.peek_entry(holder, item) or DirectoryEntry()
            _check_entry(machine, item, holder, states, entry, ctx, out)
        elif pointer is not None and nodes[pointer].alive:
            # a live pointer must reference an actual serving copy;
            # pointers to *dead* nodes are the detection window's
            # timeout-pending requests (legalised by allow_singleton_ck)
            state = nodes[pointer].am.state(item)
            if state not in _OWNER_CAPABLE:
                out.append(
                    Violation(
                        "DIR-POINTER",
                        item,
                        f"pointer names live node {pointer} whose copy is "
                        f"{state.name}, not serving-capable",
                    )
                )
        elif pointer is not None and not ctx.allow_singleton_ck:
            out.append(
                Violation(
                    "DIR-POINTER",
                    item,
                    f"pointer names dead node {pointer} outside a "
                    "failure-detection window",
                )
            )


def _check_entry(
    machine: "Machine",
    item: int,
    holder: int,
    states: dict[ItemState, list[int]],
    entry,
    ctx: CheckContext,
    out: list[Violation],
) -> None:
    nodes = machine.nodes
    holder_state = nodes[holder].am.state(item)
    expected_partner_state = {
        S.SHARED_CK1: S.SHARED_CK2,
        S.PRE_COMMIT1: S.PRE_COMMIT2,
    }.get(holder_state)
    legal_partner_states: set[ItemState] = (
        {expected_partner_state} if expected_partner_state else set()
    )
    if expected_partner_state is not None and ctx.allow_pre_commit:
        # commits run node by node: either member of the pair may have
        # committed Pre-Commit -> Shared-CK before the other
        legal_partner_states |= {S.SHARED_CK2, S.PRE_COMMIT2}
    partner = entry.partner
    if partner is not None:
        if not nodes[partner].alive:
            if not ctx.allow_singleton_ck:
                out.append(
                    Violation(
                        "DIR-PARTNER",
                        item,
                        f"partner field names dead node {partner}",
                    )
                )
        elif expected_partner_state is None:
            out.append(
                Violation(
                    "DIR-PARTNER",
                    item,
                    f"{holder_state.name} serving copy carries a partner "
                    f"({partner}) but has no paired state",
                )
            )
        elif nodes[partner].am.state(item) not in legal_partner_states:
            out.append(
                Violation(
                    "DIR-PARTNER",
                    item,
                    f"partner node {partner} holds "
                    f"{nodes[partner].am.state(item).name}, expected "
                    f"{expected_partner_state.name}",
                )
            )
    elif expected_partner_state is not None and not (
        ctx.allow_singleton_ck or ctx.allow_incomplete_pairs
    ):
        out.append(
            Violation(
                "DIR-PARTNER",
                item,
                f"{holder_state.name} serving copy has no partner recorded",
            )
        )
    actual_sharers = set(states.get(S.SHARED, ()))
    listed_live = {n for n in entry.sharers if nodes[n].alive}
    if listed_live != actual_sharers:
        out.append(
            Violation(
                "DIR-SHARERS",
                item,
                f"sharing list {sorted(listed_live)} != Shared holders "
                f"{sorted(actual_sharers)}",
            )
        )


# ----------------------------------------------------------------- AM indexes


def _check_am_groups(node, actual: dict[str, set[int]], out: list[Violation]) -> None:
    """Compare one live node's group indexes with the items its frame
    states put in each group (``actual``)."""
    for group, items in actual.items():
        indexed = node.am.items_in_group(group)
        if indexed != items:
            out.append(
                Violation(
                    "AM-GROUP",
                    None,
                    f"node {node.node_id} group {group!r} index "
                    f"{sorted(indexed)} != frame states {sorted(items)}",
                )
            )


# ----------------------------------------------------------------- reporting


def dump_state(machine: "Machine") -> str:
    """Human-readable global state for violation reports."""
    lines = []
    alive = [n.node_id for n in machine.nodes if n.alive]
    dead = [n.node_id for n in machine.nodes if not n.alive]
    lines.append(f"live nodes: {alive}" + (f"  dead: {dead}" if dead else ""))
    for item, states in sorted(items_by_state(machine).items()):
        parts = [
            f"{st.name}@{holders}" for st, holders in sorted(
                states.items(), key=lambda kv: kv[0].value
            )
        ]
        pointer = machine.directory.serving_node(item)
        entry = None
        if pointer is not None:
            entry = machine.directory.peek_entry(pointer, item)
        extra = f" ptr={pointer}"
        if entry is not None:
            extra += f" sharers={sorted(entry.sharers)} partner={entry.partner}"
        lines.append(f"  item {item}: {', '.join(parts)}{extra}")
    return "\n".join(lines)


def format_violations(violations: Iterable[Violation]) -> str:
    return "\n".join(str(v) for v in violations)
