"""A data-value oracle for the value-less analytic simulator.

The simulator models coherence state machines and timing, not memory
*contents*.  For verification we need contents: differential tests must
compare "externally-visible read values" between the standard protocol
and the ECP, and recovery tests must show the machine rolls back to
exactly the last committed recovery point.

:class:`VersionOracle` supplies the missing semantics with shadow
version numbers: every write to an item bumps its version, every read
observes the current version, a commit snapshots the version vector and
a recovery restores it (together with the machine's stream rewind, this
is the paper's BER contract, Section 3).  Because coherence transactions
apply atomically, sequential consistency of the simulated machine
reduces to: *every read observes the version left by the last write* —
which the oracle makes directly comparable across protocols as the
``log`` of ``(op, node, item, version)`` tuples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.verify.observer import _wrap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine import Machine


class VersionOracle:
    """Shadow write-versions with commit/rollback semantics."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.versions: dict[int, int] = {}
        self.committed: dict[int, int] = {}
        #: Sequence of (op, node, item, version) in execution order.
        self.log: list[tuple[str, int, int, int]] = []
        self._attached = False

    # -- event API (fed by the read/write wrappers and Machine.notify) --

    def on_read(self, node_id: int, item: int) -> int:
        version = self.versions.get(item, 0)
        self.log.append(("r", node_id, item, version))
        return version

    def on_write(self, node_id: int, item: int) -> int:
        version = self.versions.get(item, 0) + 1
        self.versions[item] = version
        self.log.append(("w", node_id, item, version))
        return version

    def on_establishment_complete(self) -> None:
        """The new recovery point commits the current versions."""
        self.committed = dict(self.versions)

    def on_recovery_complete(self) -> None:
        """Rollback: visible memory reverts to the committed versions."""
        self.versions = dict(self.committed)
        self.log.append(("rollback", -1, -1, -1))

    # -- wiring ----------------------------------------------------------

    def attach(self) -> "VersionOracle":
        """Wrap the protocol so reads/writes feed the oracle, and
        subscribe to the machine's commit and rollback events."""
        if self._attached:
            return self
        self._attached = True
        machine = self.machine
        item_of = machine.cfg.item_of
        machine.observers.append(self)
        _wrap(machine.protocol, "read",
              lambda _name, args, _t: self.on_read(args[0], item_of(args[1])))
        _wrap(machine.protocol, "write",
              lambda _name, args, _t: self.on_write(args[0], item_of(args[1])))
        return self
