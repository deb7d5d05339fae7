"""Shared helpers for the test suite."""

from __future__ import annotations

from repro.config import AMConfig, ArchConfig, CacheConfig
from repro.machine import Machine
from repro.workloads.traces import TraceWorkload


def small_config(n_nodes: int = 4, **ft) -> ArchConfig:
    """A small machine for protocol micro-tests: tiny AM so capacity
    paths are reachable, default latencies (Table 2 calibration)."""
    cfg = ArchConfig(
        n_nodes=n_nodes,
        am=AMConfig(size_bytes=512 * 1024),  # 32 frames/node
        cache=CacheConfig(size_bytes=32 * 1024),
    )
    if ft:
        cfg = cfg.with_ft(**ft)
    return cfg


def trace_machine(
    ops: list[list[tuple[str, int]]],
    n_nodes: int | None = None,
    protocol: str = "ecp",
    shared_base: int | None = None,
    checkpointing: bool = False,
    **kwargs,
) -> Machine:
    """Build a machine driven by explicit per-process traces.

    ``ops[p]`` is process ``p``'s list of ``('r'|'w', addr)`` pairs;
    process ``p`` runs on node ``p``.
    """
    n_nodes = n_nodes if n_nodes is not None else max(4, len(ops))
    wl = TraceWorkload.from_ops(ops, shared_base=shared_base)
    cfg = small_config(n_nodes=n_nodes)
    return Machine(cfg, wl, protocol=protocol, checkpointing=checkpointing, **kwargs)


def bare_machine(n_nodes: int = 4, protocol: str = "ecp") -> Machine:
    """A machine whose protocol is driven directly by the test (no
    processor processes are started)."""
    wl = TraceWorkload.from_ops([[("r", 0)]])
    return Machine(
        small_config(n_nodes=n_nodes), wl, protocol=protocol, checkpointing=False
    )


def drain(machine: Machine, gen) -> None:
    """Consume a simulation generator, advancing the clock by each
    yielded delay (for driving create/recovery phases in unit tests)."""
    for delay in gen:
        machine.engine.run(until=machine.engine.now + int(delay))


def do_checkpoint(machine: Machine) -> None:
    """Run a complete create+commit recovery point, node by node."""
    from repro.checkpoint.establish import node_create_phase

    for node_id in range(machine.cfg.n_nodes):
        if machine.nodes[node_id].alive:
            drain(machine, node_create_phase(machine.protocol, machine.engine, node_id))
    for node_id in range(machine.cfg.n_nodes):
        if machine.nodes[node_id].alive:
            machine.protocol.commit_node(node_id)
    machine.snapshot_streams()
    machine.notify("on_establishment_complete")


