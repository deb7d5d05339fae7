"""Runtime invariant checking: a pluggable observer over a machine.

:class:`InvariantObserver` wraps the mutating entry points of the
protocol — processor reads/writes, the create/commit/abort/recovery
scans — and re-evaluates the global invariants of
:mod:`repro.verify.invariants` after every transition.  A violation
raises :class:`InvariantViolationError` carrying the transition that
broke the machine and a dump of the global state, so the failure is
debuggable without re-running.

The observer keeps a small *phase machine* mirroring the coordination
protocol (Fig. 2 / Section 3.4), because several invariants are
phase-dependent: Pre-Commit copies are legal only during an
establishment, incomplete recovery pairs only during commits and
failure windows, and directory agreement is suspended while the
metadata rebuild runs.

Attach it with :meth:`Machine.attach_verifier` (or construct directly
for a hand-driven machine).  Checks happen at *transition* granularity:
the protocol's analytic transactions apply their state changes
atomically, so every wrapped call observes a quiescent global state.

Checking is *incremental*.  Every invariant is a predicate over one
item's copies, pointer and directory entry, so the observer also wraps
the AM and directory mutators and collects the items they touch (its
*dirty set*); a check re-evaluates only those items, plus any item that
violated at the previous check.  The full :func:`check_machine` audit
runs instead at the first check, whenever the phase context tightens,
whenever node liveness or pointer rehosting changes, after a bulk wipe
(``am.clear``, ``Directory.wipe_node``/``clear_all``) and after an
AM-GROUP violation.  Corruption that bypasses the AM/Directory API is
therefore caught at the next full audit, not at the transition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.verify.invariants import (
    CheckContext,
    Violation,
    check_items,
    check_machine,
    dump_state,
    format_violations,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine import Machine


class InvariantViolationError(AssertionError):
    """A protocol transition left the machine in an illegal state."""

    def __init__(self, transition: str, violations: list[Violation], state: str):
        self.transition = transition
        self.violations = violations
        self.state = state
        super().__init__(
            f"invariant violation after {transition}:\n"
            f"{format_violations(violations)}\n"
            f"global state:\n{state}"
        )


#: Phase -> invariant relaxations (see invariants.CheckContext).
_PHASE_CONTEXT = {
    "normal": CheckContext(),
    "create": CheckContext(allow_pre_commit=True, allow_incomplete_pairs=True),
    "commit": CheckContext(allow_pre_commit=True, allow_incomplete_pairs=True),
    # scans run node by node: until the last one, restored Shared-CK
    # copies coexist with current copies on not-yet-scanned nodes, so
    # no cross-node invariant holds mid-scan — only each AM's own
    # consistency.  on_recovery_complete re-checks everything strictly.
    "recovery": CheckContext(
        allow_pre_commit=True,
        allow_incomplete_pairs=True,
        allow_singleton_ck=True,
        check_directory=False,
        cross_node=False,
    ),
}


def _wrap(obj, name: str, after: Callable[[str, tuple, object], None]) -> None:
    """Replace ``obj.name`` on the instance with a wrapper that calls
    ``after(name, args, result)`` once the original returns."""
    inner = getattr(obj, name)

    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        after(name, args, result)
        return result

    wrapper.__name__ = f"checked_{name}"
    setattr(obj, name, wrapper)


class InvariantObserver:
    """Checks every protocol transition of one machine."""

    def __init__(self, machine: "Machine", raise_on_violation: bool = True):
        self.machine = machine
        self.raise_on_violation = raise_on_violation
        self.phase = "normal"
        #: A node failed and recovery has not completed: pairs may be
        #: singletons, metadata may reference the dead node.
        self.failed_window = False
        self.checks = 0
        #: Checks that audited the whole machine (the rest re-checked
        #: only the dirty set).
        self.full_audits = 0
        #: Violations collected in ``raise_on_violation=False`` mode.
        self.violations: list[tuple[str, Violation]] = []
        self._wrapped = False
        #: Items touched since the last check, plus those violating then.
        self._dirty: set[int] = set()
        #: The next check must audit the whole machine.
        self._full_next = True
        self._last_ctx = CheckContext()
        self._last_members: tuple = ()

    # -- context -------------------------------------------------------

    def context(self) -> CheckContext:
        ctx = _PHASE_CONTEXT[self.phase]
        if self.failed_window and self.phase != "recovery":
            ctx = CheckContext(
                allow_pre_commit=ctx.allow_pre_commit,
                allow_incomplete_pairs=ctx.allow_incomplete_pairs,
                allow_singleton_ck=True,
                check_directory=ctx.check_directory,
            )
        return ctx

    # -- the check -----------------------------------------------------

    def check_now(self, transition: str) -> list[Violation]:
        """Evaluate all invariants; raise or record on breakage."""
        self.checks += 1
        violations = self._evaluate(self.context())
        stats = self.machine.stats
        stats.invariant_checks += 1
        if violations:
            stats.invariant_violations += len(violations)
            if self.raise_on_violation:
                raise InvariantViolationError(
                    transition, violations, dump_state(self.machine)
                )
            self.violations.extend((transition, v) for v in violations)
        return violations

    def _evaluate(self, ctx: CheckContext) -> list[Violation]:
        """``check_machine(machine, ctx)``'s verdict, from the dirty set
        when nothing since the last check could change another item's."""
        members = tuple(
            (node.alive, node.pointers_rehosted) for node in self.machine.nodes
        )
        if (
            self._full_next
            or members != self._last_members
            or not ctx.no_stricter_than(self._last_ctx)
        ):
            self.full_audits += 1
            violations = check_machine(self.machine, ctx)
        else:
            violations = check_items(self.machine, self._dirty, ctx)
        self._last_ctx = ctx
        self._last_members = members
        # a violating item stays dirty until it checks clean; an index
        # violation names no item, so it re-arms the full audit
        self._dirty.clear()
        self._dirty.update(v.item for v in violations if v.item is not None)
        self._full_next = any(v.item is None for v in violations)
        return violations

    # -- phase notifications -------------------------------------------

    def on_establishment_complete(self) -> None:
        """All live nodes committed the new recovery point."""
        self.phase = "normal"
        self.check_now("establishment complete")

    def on_establishment_aborted(self) -> None:
        """A failure-free abort fully reverted the Pre-Commit copies."""
        self.phase = "normal"
        self.check_now("establishment aborted")

    def on_failure(self, node_id: int) -> None:
        self.failed_window = True
        self.check_now(f"fail(node={node_id})")

    def on_recovery_complete(self) -> None:
        """Scans + metadata rebuild + reconfiguration all done."""
        self.phase = "normal"
        self.failed_window = False
        self.check_now("recovery complete")

    # -- wrapping ------------------------------------------------------

    def attach(self) -> "InvariantObserver":
        """Wrap the machine's protocol entry points (checks) and its AM
        and directory mutators (dirty-set marking) in-place, and
        subscribe to the machine's phase events."""
        if self._wrapped:
            return self
        self._wrapped = True
        machine = self.machine
        protocol = machine.protocol
        machine.observers.append(self)

        _wrap(protocol, "read", self._after_op)
        _wrap(protocol, "write", self._after_op)
        if hasattr(protocol, "mark_precommit_local"):
            _wrap(protocol, "mark_precommit_local", self._after_create_step)
            _wrap(protocol, "mark_precommit_replica", self._after_create_step)
            _wrap(protocol, "commit_node", self._after_commit)
            _wrap(protocol, "abort_establishment_node", self._after_commit)
            _wrap(protocol, "recovery_scan_node", self._after_scan)

        for node in machine.nodes:
            _wrap(node.am, "set_state", self._touch_arg(0))
            _wrap(node.am, "deallocate_page", self._touch_dropped)
            _wrap(node.am, "clear", self._touch_all)
        directory = machine.directory
        # entry() counts as a write: callers mutate the returned entry
        _wrap(directory, "entry", self._touch_arg(1))
        _wrap(directory, "move_entry", self._touch_arg(0))
        _wrap(directory, "drop_entry", self._touch_arg(1))
        _wrap(directory, "set_serving_node", self._touch_arg(0))
        _wrap(directory, "drop_pointer", self._touch_arg(0))
        _wrap(directory, "rebuild_pointer", self._touch_arg(0))
        _wrap(directory, "wipe_node", self._touch_all)
        _wrap(directory, "clear_all", self._touch_all)
        return self

    # -- dirty-set marking ------------------------------------------------

    def _touch_arg(self, index: int) -> Callable[[str, tuple, object], None]:
        mark = self._dirty.add
        return lambda _name, args, _result: mark(args[index])

    def _touch_dropped(self, _name: str, _args: tuple, dropped) -> None:
        self._dirty.update(item for item, _state in dropped)

    def _touch_all(self, _name: str, _args: tuple, _result) -> None:
        self._full_next = True

    # -- per-transition hooks -------------------------------------------

    def _after_op(self, name: str, args: tuple, _result) -> None:
        # reads and writes only run outside establishment episodes (the
        # coordinator parks every processor at the barriers), so their
        # occurrence ends any commit still tracked by inference
        if self.phase in ("create", "commit") and not self._pre_commit_left():
            self.phase = "normal"
        self.check_now(f"{name}{args!r}")

    def _after_create_step(self, name: str, args: tuple, _result) -> None:
        self.phase = "create"
        self.check_now(f"{name}{args!r}")

    def _after_commit(self, name: str, args: tuple, _result) -> None:
        self.phase = "commit"
        self.check_now(f"{name}{args!r}")

    def _after_scan(self, name: str, args: tuple, _result) -> None:
        self.phase = "recovery"
        self.check_now(f"{name}{args!r}")

    def _pre_commit_left(self) -> bool:
        return any(
            node.alive and node.am.count_in_group("pre_commit")
            for node in self.machine.nodes
        )
