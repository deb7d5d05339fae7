"""Phase-targeted fault injection.

The timed :func:`~repro.fault.injector.fault_injector` can only hit a
protocol window by luck; the scenarios the paper's Section 3.3/3.4
arguments actually hinge on — "a node fails *while the commits are in
flight*", "the recovery leader dies *during reconfiguration*" — need
failures aimed at a window, not at a time.

A :class:`PhaseTrigger` names a window from
:data:`repro.machine.TRIGGER_WINDOWS`, a target (a concrete node, the
episode leader, or a random live node) and an optional delay.  The
:class:`TriggerInjector` subscribes to ``Machine.observers``; when the
machine enters the trigger's window for the configured
occurrence, it schedules the failure.  Targets are resolved and
liveness is re-checked *at fire time* — the leader may have changed, or
the target may already be dead — in which case the trigger becomes a
recorded no-op exactly like a stale plan entry
(``stats.n_failures_skipped``).

The injector also counts every window entry, giving campaigns their
phase-coverage table for free.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine

#: Target sentinel: the leader of the episode that opened the window
#: (``ckpt_leader`` for checkpoint windows, ``rec_leader`` for recovery
#: windows), resolved at fire time.
LEADER = "leader"
#: Target sentinel: a uniformly drawn live node, resolved at fire time.
RANDOM = "random"
#: Target sentinel: the node whose join catch-up opened the window
#: (``machine._joining``), resolved at fire time — the way to kill a
#: join mid-catch-up.  Skipped when no join is in flight.
JOINER = "joiner"


@dataclass(frozen=True)
class PhaseTrigger:
    """One failure aimed at a named protocol window."""

    #: A window from :data:`repro.machine.TRIGGER_WINDOWS`.
    window: str
    #: A node id, or the :data:`LEADER` / :data:`RANDOM` sentinel.
    target: Union[int, str] = RANDOM
    permanent: bool = False
    #: Transient failures only: cycles until the hardware returns.
    repair_delay: int = 0
    #: Cycles between window entry and the failure.  Zero fires on the
    #: entry cycle itself (after the entering transition completes).
    delay: int = 0
    #: Fire on the Nth entry of the window (1-based); earlier entries
    #: only count.
    occurrence: int = 1

    def __post_init__(self) -> None:
        from repro.machine import TRIGGER_WINDOWS

        if self.window not in TRIGGER_WINDOWS:
            raise ValueError(
                f"unknown trigger window {self.window!r}; pick one of "
                f"{', '.join(TRIGGER_WINDOWS)}"
            )
        if isinstance(self.target, str) and self.target not in (
            LEADER, RANDOM, JOINER,
        ):
            raise ValueError(
                f"trigger target must be a node id, {LEADER!r}, {RANDOM!r} "
                f"or {JOINER!r}, not {self.target!r}"
            )
        if self.delay < 0:
            raise ValueError("trigger delay must be non-negative")
        if self.occurrence < 1:
            raise ValueError("trigger occurrence is 1-based")
        if self.repair_delay < 0:
            raise ValueError("repair delay must be non-negative")
        if self.permanent and self.repair_delay:
            raise ValueError("a permanent failure has no repair delay")

    def describe(self) -> str:
        kind = "permanent" if self.permanent else "transient"
        return (
            f"{kind} failure of {self.target} at {self.window}"
            f"[{self.occurrence}]+{self.delay}"
        )


class TriggerInjector:
    """Machine observer that fires :class:`PhaseTrigger`\\ s.

    Attach with :func:`attach_trigger_injector` (or call
    :meth:`attach`) *before* ``machine.run()``.
    """

    def __init__(
        self,
        machine: "Machine",
        triggers: list[PhaseTrigger],
        rng: random.Random | None = None,
    ):
        self.machine = machine
        self.triggers = list(triggers)
        self.rng = rng or random.Random(machine.cfg.seed)
        #: window -> number of times the machine entered it.
        self.windows_entered: Counter = Counter()
        #: Triggers whose failure was actually injected.
        self.fired: list[PhaseTrigger] = []
        #: Triggers that resolved to a dead/absent target at fire time.
        self.skipped: list[PhaseTrigger] = []
        self._pending = list(self.triggers)

    def attach(self) -> "TriggerInjector":
        self.machine.observers.append(self)
        return self

    # -- observer -------------------------------------------------------

    def on_window(self, window: str) -> None:
        self.windows_entered[window] += 1
        count = self.windows_entered[window]
        due = [
            t for t in self._pending
            if t.window == window and t.occurrence == count
        ]
        for trigger in due:
            self._pending.remove(trigger)
            # always go through the event heap: the observer runs inside
            # the transition that opened the window, and failing a node
            # synchronously there would mutate coordination state under
            # the very generator performing the transition
            self.machine.engine.schedule(
                trigger.delay, lambda t=trigger: self._fire(t)
            )

    def _resolve_target(self, trigger: PhaseTrigger) -> int | None:
        coord = self.machine.coordinator
        if trigger.target == LEADER:
            # leader_handoff transfers *checkpoint* leadership, so its
            # LEADER is the checkpoint leader like the ckpt_* windows
            leader = (
                coord.ckpt_leader
                if trigger.window.startswith("ckpt")
                or trigger.window == "leader_handoff"
                else coord.rec_leader
            )
            return leader if leader >= 0 else None
        if trigger.target == JOINER:
            return self.machine._joining
        if trigger.target == RANDOM:
            live = [n.node_id for n in self.machine.nodes if n.alive]
            return self.rng.choice(live) if live else None
        return int(trigger.target)

    def _fire(self, trigger: PhaseTrigger) -> None:
        machine = self.machine
        node_id = self._resolve_target(trigger)
        if (
            node_id is None
            or not 0 <= node_id < len(machine.nodes)
            or not machine.nodes[node_id].alive
        ):
            machine.stats.n_failures_skipped += 1
            self.skipped.append(trigger)
            return
        self.fired.append(trigger)
        machine.fail_node(
            node_id,
            permanent=trigger.permanent,
            repair_delay=trigger.repair_delay,
        )


def attach_trigger_injector(
    machine: "Machine",
    triggers: list[PhaseTrigger],
    rng: random.Random | None = None,
) -> TriggerInjector:
    """Build a :class:`TriggerInjector` and register it on ``machine``."""
    return TriggerInjector(machine, triggers, rng=rng).attach()
