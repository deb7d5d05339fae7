"""The benchmark's workloads, built only through the simulator's public API.

Each single-machine workload is a :class:`MachineWorkload`; ``sweep`` is
a list of :class:`repro.orch.TaskSpec` cells run through the
orchestrator.  The seed is the only input that varies between runs:
the same seed builds the same machine and therefore the same reference
streams, failures and link-loss draws.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The seed whose python-backend reference digests are pinned in
#: ``reference_digests.json``; any other seed computes its reference.
PINNED_SEED = 2026

#: Pool workers of the ``sweep`` workload.
SWEEP_PARALLEL = 2


@dataclass(frozen=True)
class MachineWorkload:
    """One ``Machine`` configuration."""

    app: str
    n_nodes: int
    scale: float
    #: ``ArchConfig.with_ft`` overrides.
    ft: tuple = ()
    #: ``ArchConfig.with_transport`` overrides.
    transport: tuple = ()
    #: ``(time, node, permanent, repair_delay)`` per planned failure.
    failures: tuple = ()
    #: Attach the runtime invariant observer (``Machine.attach_verifier``).
    verify: bool = False

    def build(self, seed: int, backend: str, verify: bool | None = None):
        """The workload's machine under ``backend``; ``verify`` overrides
        whether the invariant observer is attached."""
        from repro import ArchConfig, FailurePlan, Machine, make_workload

        cfg = ArchConfig(n_nodes=self.n_nodes, seed=seed)
        cfg = cfg.with_ft(**dict(self.ft))
        if self.transport:
            cfg = cfg.with_transport(**dict(self.transport))
        workload = make_workload(
            self.app, n_procs=self.n_nodes, scale=self.scale, seed=seed
        )
        plan = [
            FailurePlan(time=t, node=n, permanent=p, repair_delay=r)
            for t, n, p, r in self.failures
        ]
        machine = Machine(
            cfg, workload, protocol="ecp", failure_plan=plan, backend=backend
        )
        if self.verify if verify is None else verify:
            machine.attach_verifier(raise_on_violation=False)
        return machine


MACHINE_WORKLOADS = {
    # the `repro run` default configuration at a scale long enough to
    # time: hit-bound, so stream generation and the hit drain dominate
    "water16": MachineWorkload(
        app="water", n_nodes=16, scale=0.03,
        ft=(("checkpoint_frequency_hz", 100.0),),
    ),
    # skewed KV traffic: two thirds of the references miss, so
    # coherence, memory, fabric and engine dispatch dominate and the
    # drain matters little.  The run is shorter than one recovery-point
    # period, so no seed reaches the end-of-run establishment that
    # would otherwise add a quarter to some seeds' work and not others'
    "zipf16": MachineWorkload(
        app="zipf", n_nodes=16, scale=0.0016,
        ft=(("checkpoint_frequency_hz", 100.0),),
    ),
    # the fault-tolerance path: frequent establishments, a transient
    # and a permanent failure with their recoveries, and 1% link loss
    # driving transport retransmissions
    "faults9": MachineWorkload(
        app="water", n_nodes=9, scale=0.01,
        ft=(("checkpoint_period_override", 20_000), ("detection_latency", 500)),
        transport=(("loss_rate", 0.01),),
        failures=((40_000, 3, False, 5_000), (90_000, 5, True, 0)),
    ),
    # the only workload running the invariant checker on every
    # transition; small, because each check rescans every AM.  mp3d's
    # check count and cost vary less from seed to seed than water's, and
    # the early failure keeps the re-executed share nearly seed-invariant
    "verify6": MachineWorkload(
        app="mp3d", n_nodes=6, scale=0.000015,
        ft=(("checkpoint_period_override", 1_000),),
        failures=((1_500, 2, False, 500),),
        verify=True,
    ),
}

SWEEP = "sweep"
WORKLOAD_NAMES = (*MACHINE_WORKLOADS, SWEEP)


def sweep_specs(seed: int) -> list:
    """The ``sweep`` cells: 9-node water and mp3d, ECP at four
    recovery-point frequencies plus the standard-protocol baseline."""
    from repro.orch import TaskSpec

    specs = []
    for app in ("water", "mp3d"):
        for freq in (25.0, 50.0, 100.0, 200.0):
            specs.append(TaskSpec(
                protocol="ecp", app=app, n_nodes=9, scale=0.004, seed=seed,
                frequency_hz=freq,
            ))
        specs.append(TaskSpec(
            protocol="standard", app=app, n_nodes=9, scale=0.004, seed=seed,
        ))
    return specs


def build_spec_machine(spec, backend: str):
    """The machine ``TaskSpec.execute`` would build, under ``backend``."""
    from repro import Machine, make_workload

    workload = make_workload(
        spec.app, n_procs=spec.n_nodes, scale=spec.scale, seed=spec.seed
    )
    return Machine(
        spec.to_config(), workload, protocol=spec.protocol,
        recovery_strategy=spec.recovery_strategy, backend=backend,
    )


#: Spans that must fire on each workload's traced run (the layer each
#: workload is built to exercise; ``sim.engine`` roots every run).
REQUIRED_SPANS = {
    "water16": ("sim.engine", "workloads.gen", "kernel.drain"),
    "zipf16": ("sim.engine", "coherence.op", "memory.probe", "network.fabric"),
    "faults9": (
        "sim.engine", "network.transport", "coherence.inject",
        "checkpoint.create", "checkpoint.commit",
        "recovery.scan", "recovery.reconfigure",
    ),
    "verify6": ("sim.engine", "verify.check"),
    "sweep": ("sim.engine", "workloads.gen", "kernel.drain", "orch.overhead"),
}
