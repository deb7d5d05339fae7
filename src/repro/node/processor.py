"""The processor driving one node.

A processor is a simulation process that walks its assigned reference
streams (one per application process; more after a permanent failure
migrates a dead node's work here), issuing each reference to the
coherence protocol and sleeping until its completion time.

Between references it honours coordination requests: recovery first,
then checkpoints — each at most once per epoch.  Cache-hit references
are *batched*: successive references are issued inline until an
accumulated-latency budget is exceeded, then a single sleep covers the
whole batch.  State changes still happen at correct logical times (the
protocol is driven with explicit timestamps); only the interleaving
granularity with other processors coarsens by at most the budget.
"""

from __future__ import annotations

from typing import Generator, TYPE_CHECKING

from repro.coherence.standard import NodeUnavailable
from repro.workloads.base import Reference, ReferenceStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine

#: Max cycles of inline (non-yielding) execution per batch.
BATCH_BUDGET_CYCLES = 256


class Processor:
    """Execution engine of one node."""

    def __init__(self, machine: "Machine", node_id: int):
        self.machine = machine
        self.node_id = node_id
        self.streams: list[ReferenceStream] = []
        self._rr = 0  # round-robin cursor over assigned streams
        self.parked = False
        self.last_ckpt_epoch = -1
        self.last_recovery_epoch = -1

    # -- stream management ------------------------------------------------

    def assign(self, stream: ReferenceStream) -> None:
        self.streams.append(stream)

    def take_streams(self) -> list[ReferenceStream]:
        """Surrender all streams (permanent-failure migration)."""
        streams, self.streams = self.streams, []
        return streams

    def has_work(self) -> bool:
        return any(not s.exhausted for s in self.streams)

    def _next_ref(self) -> Reference | None:
        streams = self.streams
        n = len(streams)
        if n == 1:
            # the dominant case (multiple streams only after migration);
            # _rr advances exactly as the general loop would
            self._rr += 1
            return streams[0].next_ref()
        for _ in range(n):
            stream = streams[self._rr % n]
            self._rr += 1
            ref = stream.next_ref()
            if ref is not None:
                return ref
        return None

    # -- the simulation process ------------------------------------------------

    def run(self) -> Generator[object, object, None]:
        machine = self.machine
        coord = machine.coordinator
        engine = machine.engine
        protocol = machine.protocol
        node = machine.nodes[self.node_id]
        node_id = self.node_id
        proto_read = protocol.read
        proto_write = protocol.write
        next_ref = self._next_ref
        # compiled-backend hit drain (repro.kernel.compiled); None on
        # the python backend, and whenever a verify hook is
        # attached: drained hits never reach the hooks' wrapped
        # protocol.read/write
        drain = None if machine.verify_hooks else machine.kernel_drain

        while True:
            if not node.alive:
                yield coord.revival_flag(self.node_id)
                continue
            # an in-flight checkpoint episode (even one aborted by the
            # failure) must be drained by every participant before the
            # recovery barrier forms, or the two barriers deadlock on
            # each other's members
            if coord.ckpt_requested and coord.ckpt_epoch != self.last_ckpt_epoch:
                self.last_ckpt_epoch = coord.ckpt_epoch
                yield from coord.participate_checkpoint(self.node_id)
                continue
            if (
                coord.recovery_requested
                and coord.recovery_epoch != self.last_recovery_epoch
            ):
                self.last_recovery_epoch = coord.recovery_epoch
                yield from coord.participate_recovery(self.node_id)
                continue
            if not self.has_work():
                # park until a recovery rewind hands work back, or forever
                self.parked = True
                coord.retire(self.node_id)
                yield coord.work_flag(self.node_id)
                self.parked = False
                continue

            # batched execution
            t_local = engine.now
            deadline = t_local + BATCH_BUDGET_CYCLES
            failed_node: int | None = None
            streams = self.streams
            if len(streams) == 1:
                # dominant case (multiple streams only after migration):
                # the stream advance is inlined — no _next_ref/next_ref
                # call layers — with every next_ref-equivalent counted
                # into _rr so migration round-robin stays bit-identical
                stream = streams[0]
                ref_at = stream._ref_at
                proc_id = stream.proc_id
                n_refs = stream.n_refs
                consumed = 0
                try:
                    while t_local < deadline:
                        if (
                            coord.recovery_requested
                            and coord.recovery_epoch != self.last_recovery_epoch
                        ) or (
                            coord.ckpt_requested
                            and coord.ckpt_epoch != self.last_ckpt_epoch
                        ):
                            break
                        position = stream.position
                        if position >= n_refs:
                            consumed += 1  # the next_ref call that found None
                            break
                        if drain is not None:
                            # consume a run of consecutive cache hits in
                            # one compiled call; between drained hits no
                            # Python code runs, so the coordination
                            # flags rechecked above cannot have changed
                            # and skipping the per-reference checks is
                            # observationally identical
                            hits, t_local = drain(node, stream, t_local, deadline)
                            if hits:
                                consumed += hits
                                continue
                        stream.position = position + 1
                        consumed += 1
                        think, is_write, addr = ref_at(proc_id, position)
                        issue_at = t_local + think
                        try:
                            if is_write:
                                t_local = proto_write(node_id, addr, issue_at)
                            else:
                                t_local = proto_read(node_id, addr, issue_at)
                        except NodeUnavailable as exc:
                            failed_node = exc.node_id
                            t_local = issue_at
                            break
                finally:
                    self._rr += consumed
            else:
                while t_local < deadline:
                    pending_recovery = (
                        coord.recovery_requested
                        and coord.recovery_epoch != self.last_recovery_epoch
                    )
                    pending_ckpt = (
                        coord.ckpt_requested
                        and coord.ckpt_epoch != self.last_ckpt_epoch
                    )
                    if pending_recovery or pending_ckpt:
                        break
                    ref = next_ref()
                    if ref is None:
                        break
                    think, is_write, addr = ref
                    issue_at = t_local + think
                    try:
                        if is_write:
                            t_local = proto_write(node_id, addr, issue_at)
                        else:
                            t_local = proto_read(node_id, addr, issue_at)
                    except NodeUnavailable as exc:
                        failed_node = exc.node_id
                        t_local = issue_at
                        break
            if failed_node is not None:
                machine.detect_failure(failed_node)
            if t_local > engine.now:
                yield t_local - engine.now
