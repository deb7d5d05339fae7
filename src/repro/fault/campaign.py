"""Randomized fault-injection campaigns.

A campaign turns the fault machinery into a statistical test oracle:
hundreds of independently seeded cells, each a complete ECP run under a
distribution-driven failure load — exponential (MTBF) inter-arrival
times, uniformly drawn victims, a transient/permanent mix respecting
the paper's fault model — optionally sharpened by one *phase-targeted*
trigger ("kill the checkpoint leader during commit", "transient during
the recovery scan").  Every run terminates in exactly one
:class:`~repro.fault.outcomes.Outcome`; a healthy simulator produces
zero ``SIMULATOR_BUG`` and zero ``STALLED`` cells no matter the seed.

Cells are plain data (:class:`CampaignCell`), content-addressed like
sweep cells, executed through the same parallel / cached / journaled
machinery (:mod:`repro.orch`), and therefore resumable: a killed
campaign continues where it stopped, and re-running with the same
master seed replays bit-identical cells.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.fault.failures import FailurePlan, MembershipEvent
from repro.fault.outcomes import Outcome, RunOutcome, run_and_classify
from repro.fault.triggers import (
    JOINER, LEADER, RANDOM, PhaseTrigger, attach_trigger_injector,
)
from repro.machine import TRIGGER_WINDOWS, Machine
from repro.workloads.datacenter import ScanAnalytics, ZipfKV
from repro.workloads.splash import Water
from repro.workloads.synthetic import MigratoryShared, PrivateOnly, UniformShared

#: Bump when the cell parameter surface changes incompatibly; old cache
#: records then hash differently and are recomputed.  v3: outcomes grew
#: checkpoint-pollution metrics, so v2 records (which would read back
#: as all-zero pollution) are invalidated wholesale.  v4: cells carry a
#: recovery strategy; v3 records predate the strategy field and cannot
#: be trusted to have run the strategy the cell now names.  v5:
#: outcomes grew elastic-membership metrics (joins, catch-up bytes,
#: handoffs), so v4 records would read back as all-zero membership.
CAMPAIGN_SPEC_VERSION = 5

#: ``kind`` discriminator for campaign records in the result store.
CAMPAIGN_RECORD_KIND = "campaign-cell"

#: Workloads a campaign can drive: the small synthetic generators (the
#: original fault-path stressors), the datacenter-traffic family, whose
#: skewed/streaming access patterns pollute checkpoints very
#: differently from the uniform stressors, and water as the SPLASH
#: reference point (the paper's best case for the ECP).
CAMPAIGN_WORKLOADS = {
    "private": PrivateOnly,
    "uniform": UniformShared,
    "migratory": MigratoryShared,
    "zipf": ZipfKV,
    "scan": ScanAnalytics,
    "water": Water,
}

#: Campaign-sized parameter overrides.  Campaign machines run tiny
#: attraction memories (512 KB/node) to keep cells fast; the datacenter
#: generators' full-run defaults would not fit, and a COMA working set
#: that exceeds total AM is an invalid machine, not a fault.
CAMPAIGN_WORKLOAD_KW = {
    "zipf": {"keyspace_items": 1024, "clients_per_proc": 8},
    "scan": {"pressure_ratio": 2.0, "am_bytes": 128 * 1024},
    # water's regions shrink with scale; 1/8 keeps the per-node private
    # working set inside a campaign AM while the cell's refs_per_proc
    # budget (not scale) sets the stream length
    "water": {"scale": 0.125},
}

#: Windows a *static-membership* campaign can enter.  The membership
#: windows (``join_catchup``, ``leader_handoff``) only open when a
#: membership plan fires events, so static mixed campaigns must not
#: cycle through them — a trigger aimed at a window that never opens is
#: a guaranteed no-op cell.  (They sit at the *end* of
#: ``TRIGGER_WINDOWS`` precisely so this split keeps the static mixed
#: cycling, and therefore every static cell, bit-identical to v4.)
STATIC_WINDOWS = tuple(
    w for w in TRIGGER_WINDOWS if w not in ("join_catchup", "leader_handoff")
)

#: Per-cell targeting modes: purely timed (MTBF-only) or one trigger
#: aimed at a named window.  ``mixed`` campaigns cycle through all of
#: these so every window is exercised.
TARGET_MODES = ("timed",) + STATIC_WINDOWS

#: The mixed-mode cycle for rolling-membership campaigns: every static
#: window plus the two membership windows.
ROLLING_TARGET_MODES = ("timed",) + TRIGGER_WINDOWS


@dataclass(frozen=True)
class CampaignConfig:
    """The knobs of one campaign (everything derives from these)."""

    seeds: int = 200
    master_seed: int = 2026
    app: str = "private"
    n_nodes: int = 8
    refs_per_proc: int = 2_500
    #: Mean cycles between generated failures (exponential arrivals).
    mtbf_cycles: int = 40_000
    #: Probability a generated failure is transient (vs. permanent; at
    #: most one permanent per cell regardless).
    transient_fraction: float = 0.85
    #: Mean transient repair delay (jittered per failure).
    repair_delay: int = 2_000
    #: Checkpoint period override (cycles).
    period: int = 6_000
    detection_latency: int = 200
    #: ``mixed`` (default), ``timed``, or one window name.
    target_phase: str = "mixed"
    stall_budget: int = 100_000
    #: Interconnect fault knobs (repro.network.transport); all zero
    #: keeps the transport on its pay-for-use fast path.
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    outage_rate: float = 0.0
    #: Recovery backend (repro.recovery) every cell runs under.
    recovery_strategy: str = "ecp"
    #: ``static`` (default) or ``rolling``: rolling cells start with
    #: ``grow_from`` members on an ``n_nodes``-capacity machine and
    #: admit the remaining slots mid-run until ``grow_to`` are serving.
    membership: str = "static"
    #: Rolling only: members at t=0.  Zero derives ``n_nodes - 2``.
    grow_from: int = 0
    #: Rolling only: members after all joins.  Zero derives ``n_nodes``.
    grow_to: int = 0

    def __post_init__(self) -> None:
        from repro.recovery import STRATEGIES

        if self.recovery_strategy not in STRATEGIES:
            raise ValueError(
                f"unknown recovery strategy {self.recovery_strategy!r}; "
                f"pick one of {', '.join(sorted(STRATEGIES))}"
            )
        if self.membership not in ("static", "rolling"):
            raise ValueError(
                f"unknown membership mode {self.membership!r}; pick "
                "'static' or 'rolling'"
            )
        if self.membership == "rolling":
            if self.grow_from == 0:
                object.__setattr__(self, "grow_from", max(1, self.n_nodes - 2))
            if self.grow_to == 0:
                object.__setattr__(self, "grow_to", self.n_nodes)
            if not 1 <= self.grow_from < self.grow_to <= self.n_nodes:
                raise ValueError(
                    f"rolling membership needs 1 <= grow_from < grow_to <= "
                    f"n_nodes, got {self.grow_from} -> {self.grow_to} on "
                    f"{self.n_nodes} nodes"
                )
        elif self.grow_from or self.grow_to:
            raise ValueError(
                "grow_from/grow_to only apply to --membership rolling"
            )
        if self.seeds <= 0:
            raise ValueError("a campaign needs at least one seed")
        for name in ("loss_rate", "dup_rate", "reorder_rate", "outage_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.app not in CAMPAIGN_WORKLOADS:
            raise ValueError(
                f"unknown campaign app {self.app!r}; pick one of "
                f"{', '.join(sorted(CAMPAIGN_WORKLOADS))}"
            )
        modes = (
            ROLLING_TARGET_MODES if self.membership == "rolling"
            else TARGET_MODES
        )
        if self.target_phase != "mixed" and self.target_phase not in modes:
            raise ValueError(
                f"unknown target phase {self.target_phase!r}; pick 'mixed', "
                f"'timed' or one of {', '.join(modes[1:])}"
            )
        if self.mtbf_cycles <= 0:
            raise ValueError("MTBF must be positive")
        if not 0.0 <= self.transient_fraction <= 1.0:
            raise ValueError("transient fraction must be in [0, 1]")
        if self.stall_budget <= 0:
            raise ValueError("stall budget must be positive")

    def to_dict(self) -> dict:
        return {
            "seeds": self.seeds,
            "master_seed": self.master_seed,
            "app": self.app,
            "n_nodes": self.n_nodes,
            "refs_per_proc": self.refs_per_proc,
            "mtbf_cycles": self.mtbf_cycles,
            "transient_fraction": self.transient_fraction,
            "repair_delay": self.repair_delay,
            "period": self.period,
            "detection_latency": self.detection_latency,
            "target_phase": self.target_phase,
            "stall_budget": self.stall_budget,
            "loss_rate": self.loss_rate,
            "dup_rate": self.dup_rate,
            "reorder_rate": self.reorder_rate,
            "outage_rate": self.outage_rate,
            "recovery_strategy": self.recovery_strategy,
            "membership": self.membership,
            "grow_from": self.grow_from,
            "grow_to": self.grow_to,
        }


@dataclass(frozen=True)
class CampaignCell:
    """One fully materialized campaign run, in canonical plain-data
    form (hashable, picklable, replayable anywhere)."""

    index: int
    seed: int
    app: str
    n_nodes: int
    refs_per_proc: int
    period: int
    detection_latency: int
    stall_budget: int
    #: Timed failures, as ``FailurePlan`` field dicts, time-ordered.
    plan: tuple = ()
    #: Optional phase-targeted trigger, as ``PhaseTrigger`` field dict.
    trigger: dict | None = None
    #: Interconnect fault knobs (all zero: reliable links).
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    outage_rate: float = 0.0
    #: Recovery backend (repro.recovery) this cell runs under.
    recovery_strategy: str = "ecp"
    #: Members at t=0 (zero: all ``n_nodes``, i.e. static membership).
    initial_members: int = 0
    #: Membership events, as ``MembershipEvent`` field dicts, time-ordered.
    membership: tuple = ()

    # -- canonical form -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "spec_version": CAMPAIGN_SPEC_VERSION,
            "kind": CAMPAIGN_RECORD_KIND,
            "index": self.index,
            "seed": self.seed,
            "app": self.app,
            "n_nodes": self.n_nodes,
            "refs_per_proc": self.refs_per_proc,
            "period": self.period,
            "detection_latency": self.detection_latency,
            "stall_budget": self.stall_budget,
            "plan": [dict(f) for f in self.plan],
            "trigger": dict(self.trigger) if self.trigger else None,
            "loss_rate": self.loss_rate,
            "dup_rate": self.dup_rate,
            "reorder_rate": self.reorder_rate,
            "outage_rate": self.outage_rate,
            "recovery_strategy": self.recovery_strategy,
            "initial_members": self.initial_members,
            "membership": [dict(e) for e in self.membership],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignCell":
        return cls(
            index=data["index"],
            seed=data["seed"],
            app=data["app"],
            n_nodes=data["n_nodes"],
            refs_per_proc=data["refs_per_proc"],
            period=data["period"],
            detection_latency=data["detection_latency"],
            stall_budget=data["stall_budget"],
            plan=tuple(dict(f) for f in data.get("plan", [])),
            trigger=dict(data["trigger"]) if data.get("trigger") else None,
            loss_rate=data.get("loss_rate", 0.0),
            dup_rate=data.get("dup_rate", 0.0),
            reorder_rate=data.get("reorder_rate", 0.0),
            outage_rate=data.get("outage_rate", 0.0),
            recovery_strategy=data.get("recovery_strategy", "ecp"),
            initial_members=data.get("initial_members", 0),
            membership=tuple(dict(e) for e in data.get("membership", [])),
        )

    @property
    def key(self) -> str:
        """Stable content hash (sha-256 over canonical JSON)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def label(self) -> str:
        mode = self.trigger["window"] if self.trigger else "timed"
        backend = (
            "" if self.recovery_strategy == "ecp"
            else f" strategy={self.recovery_strategy}"
        )
        growth = ""
        if self.initial_members:
            joins = sum(1 for e in self.membership if e["kind"] == "join")
            growth = f" members={self.initial_members}+{joins}"
        return (
            f"cell{self.index:03d} {self.app} seed={self.seed} "
            f"mode={mode} failures={len(self.plan)}{backend}{growth}"
        )

    # -- rehydration ----------------------------------------------------

    def failure_plan(self) -> list[FailurePlan]:
        return [FailurePlan(**f) for f in self.plan]

    def phase_trigger(self) -> PhaseTrigger | None:
        return PhaseTrigger(**self.trigger) if self.trigger else None

    def membership_plan(self) -> list[MembershipEvent]:
        return [MembershipEvent(**e) for e in self.membership]


def generate_membership_plan(
    rng: random.Random,
    grow_from: int,
    grow_to: int,
    period: int,
    horizon: int,
) -> list[MembershipEvent]:
    """Draw a rolling-membership plan: staggered joins plus handoffs.

    The ``grow_to - grow_from`` installed slots join one by one, spread
    over the middle of the run (each jittered by up to one checkpoint
    period, so joins land in every protocol phase across cells); one
    deliberate leadership handoff fires before the first join and a
    second, half the time, after the last — the elastic worst case of
    reconfiguring the coordinator while the membership is in motion.
    """
    n_joins = grow_to - grow_from
    spacing = max(period + 1, horizon // (n_joins + 2))
    events = [
        MembershipEvent(
            time=spacing * (k + 1) + rng.randrange(max(1, period)),
            kind="join",
            node=grow_from + k,
        )
        for k in range(n_joins)
    ]
    events.append(MembershipEvent(
        time=spacing // 2 + rng.randrange(max(1, period)), kind="handoff",
        node=rng.randrange(grow_from) if rng.random() < 0.3 else -1,
    ))
    if rng.random() < 0.5:
        events.append(MembershipEvent(
            time=spacing * (n_joins + 1) + rng.randrange(max(1, period)),
            kind="handoff",
        ))
    return sorted(events, key=lambda e: e.time)


def generate_failure_plan(
    rng: random.Random,
    n_nodes: int,
    mtbf_cycles: int,
    transient_fraction: float,
    repair_delay: int,
    horizon: int,
    initial_members: int | None = None,
    joins_at: dict[int, int] | None = None,
) -> list[FailurePlan]:
    """Draw a statically valid failure plan from the fault model.

    Inter-arrival times are exponential with mean ``mtbf_cycles``;
    victims are uniform over the nodes; each failure is transient with
    probability ``transient_fraction`` (repair delay jittered around
    the mean), permanent otherwise — but never more than one permanent
    per plan, and never a victim still down from an earlier failure
    (both would fail :func:`~repro.fault.failures.validate_failure_plan`).

    With ``initial_members``/``joins_at`` (rolling membership), victims
    drawn on a slot that has not joined yet are discarded like
    still-down victims — the fault model cannot fail hardware that is
    not a member.  The draw sequence is unchanged, so static plans stay
    bit-identical.
    """
    plan: list[FailurePlan] = []
    ready_at: dict[int, int] = {}
    permanent_used = False
    dead: set[int] = set()
    t = 0
    while True:
        t += max(1, int(rng.expovariate(1.0 / mtbf_cycles)))
        if t > horizon:
            return plan
        node = rng.randrange(n_nodes)
        if initial_members is not None and node >= initial_members:
            join_time = (joins_at or {}).get(node)
            if join_time is None or t < join_time:
                continue  # slot not a member yet: nothing to fail
        if node in dead or t <= ready_at.get(node, -1):
            continue  # victim still down: the model has nothing to fail
        transient = rng.random() < transient_fraction or permanent_used
        if transient:
            repair = max(1, int(repair_delay * (0.5 + rng.random())))
            ready_at[node] = t + repair
            plan.append(FailurePlan(time=t, node=node, repair_delay=repair))
        else:
            permanent_used = True
            dead.add(node)
            plan.append(FailurePlan(time=t, node=node, permanent=True))


def build_cells(cfg: CampaignConfig) -> list[CampaignCell]:
    """Materialize every cell of a campaign from the master seed.

    Deterministic: the same :class:`CampaignConfig` always yields the
    same cells (hence the same content keys, hence a fully cacheable
    and byte-reproducible campaign).
    """
    rng = random.Random(cfg.master_seed)
    # rough upper bound on run length; failures drawn past the actual
    # end are harmless (the injector exits when the computation does)
    horizon = cfg.refs_per_proc * 15
    rolling = cfg.membership == "rolling"
    members0 = cfg.grow_from if rolling else cfg.n_nodes
    mode_cycle = ROLLING_TARGET_MODES if rolling else TARGET_MODES
    cells: list[CampaignCell] = []
    for index in range(cfg.seeds):
        seed = rng.randrange(2**31)
        cell_rng = random.Random(seed)
        mode = (
            mode_cycle[index % len(mode_cycle)]
            if cfg.target_phase == "mixed"
            else cfg.target_phase
        )
        membership: list[MembershipEvent] = []
        joins_at: dict[int, int] = {}
        if rolling:
            membership = generate_membership_plan(
                cell_rng, cfg.grow_from, cfg.grow_to, cfg.period, horizon,
            )
            joins_at = {
                e.node: e.time for e in membership if e.kind == "join"
            }
        plan = generate_failure_plan(
            cell_rng, cfg.n_nodes, cfg.mtbf_cycles,
            cfg.transient_fraction, cfg.repair_delay, horizon,
            initial_members=members0 if rolling else None,
            joins_at=joins_at,
        )
        trigger = None
        if mode != "timed":
            if mode in ("recovery_scan", "reconfig") and not plan:
                # a recovery-window trigger needs a recovery to aim at:
                # guarantee at least one timed transient failure
                plan.append(FailurePlan(
                    time=cfg.period + cfg.detection_latency + 1,
                    node=cell_rng.randrange(members0),
                    repair_delay=cfg.repair_delay,
                ))
            if mode == "join_catchup":
                # the scenario worth aiming at is killing the joiner
                # itself mid-catch-up; a random victim covers the rest
                target = JOINER if cell_rng.random() < 0.7 else RANDOM
            else:
                target = LEADER if cell_rng.random() < 0.5 else RANDOM
            trigger = {
                "window": mode,
                "target": target,
                # permanents only in checkpoint windows: any failure
                # during a recovery window is expected-fatal anyway
                "permanent": (
                    mode.startswith("ckpt") and cell_rng.random() < 0.3
                ),
                "repair_delay": 0,
                "delay": cell_rng.randrange(0, 400),
                "occurrence": 1 if cell_rng.random() < 0.7 else 2,
            }
            if not trigger["permanent"]:
                trigger["repair_delay"] = cfg.repair_delay
        cells.append(CampaignCell(
            index=index,
            seed=seed,
            app=cfg.app,
            n_nodes=cfg.n_nodes,
            refs_per_proc=cfg.refs_per_proc,
            period=cfg.period,
            detection_latency=cfg.detection_latency,
            stall_budget=cfg.stall_budget,
            plan=tuple(
                {"time": f.time, "node": f.node, "permanent": f.permanent,
                 "repair_delay": f.repair_delay}
                for f in plan
            ),
            trigger=trigger,
            loss_rate=cfg.loss_rate,
            dup_rate=cfg.dup_rate,
            reorder_rate=cfg.reorder_rate,
            outage_rate=cfg.outage_rate,
            recovery_strategy=cfg.recovery_strategy,
            initial_members=members0 if rolling else 0,
            membership=tuple(
                {"time": e.time, "kind": e.kind, "node": e.node}
                for e in membership
            ),
        ))
    return cells


def execute_campaign_payload(payload: dict) -> dict:
    """Run one cell to a classified outcome (worker-process entry
    point: module-level, dict in, dict out)."""
    from repro.config import AMConfig, ArchConfig, CacheConfig

    cell = CampaignCell.from_dict(payload)
    cfg = ArchConfig(
        n_nodes=cell.n_nodes,
        seed=cell.seed,
        am=AMConfig(size_bytes=512 * 1024),
        cache=CacheConfig(size_bytes=32 * 1024),
    ).with_ft(
        checkpoint_period_override=cell.period,
        detection_latency=cell.detection_latency,
    ).with_transport(
        loss_rate=cell.loss_rate,
        dup_rate=cell.dup_rate,
        reorder_rate=cell.reorder_rate,
        outage_rate=cell.outage_rate,
    )
    # the cell seed drives the reference stream too, so cells vary in
    # both fault timing and workload content (v3; v2 cells shared one
    # stream per app)
    workload = CAMPAIGN_WORKLOADS[cell.app](
        cell.n_nodes, refs_per_proc=cell.refs_per_proc, seed=cell.seed,
        **CAMPAIGN_WORKLOAD_KW.get(cell.app, {}),
    )
    machine = Machine(
        cfg, workload,
        protocol="ecp",
        recovery_strategy=cell.recovery_strategy,
        failure_plan=cell.failure_plan(),
        stall_cycle_budget=cell.stall_budget,
        initial_members=cell.initial_members or None,
        membership_plan=cell.membership_plan(),
    )
    trigger = cell.phase_trigger()
    # always attach the injector — with an empty trigger list it is the
    # campaign's window-coverage probe
    injector = attach_trigger_injector(
        machine,
        [trigger] if trigger else [],
        rng=random.Random(cell.seed ^ 0x7A11),
    )
    return run_and_classify(machine, injector).to_dict()


@dataclass
class CampaignReport:
    """Aggregated campaign results (JSON-able)."""

    config: dict
    n_cells: int = 0
    from_cache: int = 0
    executed: int = 0
    outcome_counts: dict = field(default_factory=dict)
    #: window -> total entries across all runs.
    window_coverage: dict = field(default_factory=dict)
    #: window -> {planned, fired, skipped} trigger accounting.
    trigger_coverage: dict = field(default_factory=dict)
    total_rollback_refs: int = 0
    total_recoveries: int = 0
    total_recovery_cycles: int = 0
    total_ckpt_bytes_replicated: int = 0
    total_ckpt_items_replicated: int = 0
    total_ckpt_items_reused: int = 0
    #: workload class (splash/synthetic/datacenter/trace) -> aggregated
    #: ECP metrics: checkpoint pollution, work lost, rollback distance,
    #: recovery latency.
    class_metrics: dict = field(default_factory=dict)
    #: recovery strategy -> the same aggregated metrics plus the
    #: per-strategy outcome taxonomy (the head-to-head table's rows).
    strategy_metrics: dict = field(default_factory=dict)
    total_failures_skipped: int = 0
    # elastic-membership aggregates (all zero on static campaigns)
    total_joins: int = 0
    total_joins_aborted: int = 0
    total_join_latency_cycles: int = 0
    total_catchup_bytes: int = 0
    total_refs_during_reconfig: int = 0
    total_handoffs: int = 0
    total_spurious_suspicions: int = 0
    total_transport_retries: int = 0
    total_transport_retransmitted_flits: int = 0
    total_transport_duplicates_suppressed: int = 0
    #: Per-cell records: index, seed, key, outcome, detail + metrics.
    cells: list = field(default_factory=list)
    #: Cells whose *worker* failed (infrastructure, not simulation).
    failed: list = field(default_factory=list)
    #: Which pool computed the cells ("local" or "distributed").
    executor: str = "local"
    #: Fleet facts (reassignments, worker deaths, per-worker
    #: throughput) from ``Coordinator.snapshot()`` when worker daemons
    #: ran them.
    dispatch: dict | None = None

    @property
    def defects(self) -> int:
        return (
            self.outcome_counts.get(Outcome.SIMULATOR_BUG.value, 0)
            + self.outcome_counts.get(Outcome.STALLED.value, 0)
        )

    @property
    def ok(self) -> bool:
        """Zero defects, zero infra failures, every cell classified."""
        return (
            not self.failed
            and self.defects == 0
            and sum(self.outcome_counts.values()) == self.n_cells
        )

    def mean_recovery_latency(self) -> float:
        if self.total_recoveries == 0:
            return 0.0
        return self.total_recovery_cycles / self.total_recoveries

    def mean_join_latency(self) -> float:
        completed = self.total_joins - self.total_joins_aborted
        if completed <= 0:
            return 0.0
        return self.total_join_latency_cycles / completed

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "n_cells": self.n_cells,
            "from_cache": self.from_cache,
            "executed": self.executed,
            "outcome_counts": dict(self.outcome_counts),
            "window_coverage": dict(self.window_coverage),
            "trigger_coverage": dict(self.trigger_coverage),
            "total_rollback_refs": self.total_rollback_refs,
            "total_recoveries": self.total_recoveries,
            "total_recovery_cycles": self.total_recovery_cycles,
            "total_ckpt_bytes_replicated": self.total_ckpt_bytes_replicated,
            "total_ckpt_items_replicated": self.total_ckpt_items_replicated,
            "total_ckpt_items_reused": self.total_ckpt_items_reused,
            "class_metrics": {
                cls: dict(metrics) for cls, metrics in self.class_metrics.items()
            },
            "strategy_metrics": {
                name: dict(metrics)
                for name, metrics in self.strategy_metrics.items()
            },
            "total_failures_skipped": self.total_failures_skipped,
            "total_joins": self.total_joins,
            "total_joins_aborted": self.total_joins_aborted,
            "total_join_latency_cycles": self.total_join_latency_cycles,
            "total_catchup_bytes": self.total_catchup_bytes,
            "total_refs_during_reconfig": self.total_refs_during_reconfig,
            "total_handoffs": self.total_handoffs,
            "mean_join_latency": self.mean_join_latency(),
            "total_spurious_suspicions": self.total_spurious_suspicions,
            "total_transport_retries": self.total_transport_retries,
            "total_transport_retransmitted_flits":
                self.total_transport_retransmitted_flits,
            "total_transport_duplicates_suppressed":
                self.total_transport_duplicates_suppressed,
            "mean_recovery_latency": self.mean_recovery_latency(),
            "defects": self.defects,
            "ok": self.ok,
            "cells": list(self.cells),
            "failed": list(self.failed),
            "executor": self.executor,
            "dispatch": dict(self.dispatch) if self.dispatch else None,
        }

    def format(self) -> str:
        from repro.stats.report import format_table

        lines = [format_table(
            ["outcome", "runs"],
            [(o.value, self.outcome_counts.get(o.value, 0)) for o in Outcome],
        )]
        coverage_rows = []
        for window in TRIGGER_WINDOWS:
            trig = self.trigger_coverage.get(window, {})
            coverage_rows.append((
                window,
                self.window_coverage.get(window, 0),
                trig.get("planned", 0),
                trig.get("fired", 0),
                trig.get("skipped", 0),
            ))
        lines.append(format_table(
            ["window", "entered", "triggers", "fired", "skipped"],
            coverage_rows,
        ))
        dispatch_rows = []
        if self.dispatch is not None:
            dispatch_rows = [
                ("workers connected", self.dispatch.get("connected", 0)),
                ("cells reassigned", self.dispatch.get("reassignments", 0)),
                ("worker deaths", self.dispatch.get("worker_deaths", 0)),
            ]
        lines.append(format_table(["campaign", "value"], [
            ("cells", self.n_cells),
            ("executor", self.executor),
            *dispatch_rows,
            ("from cache", self.from_cache),
            ("executed", self.executed),
            ("worker failures", len(self.failed)),
            ("recoveries", self.total_recoveries),
            ("mean recovery latency", f"{self.mean_recovery_latency():.0f} cycles"),
            ("work lost to rollbacks", f"{self.total_rollback_refs} refs"),
            ("checkpoint pollution", f"{self.total_ckpt_bytes_replicated} bytes"),
            ("ckpt items replicated", self.total_ckpt_items_replicated),
            ("ckpt items reused", self.total_ckpt_items_reused),
            ("failures skipped", self.total_failures_skipped),
            *(
                [
                    ("joins completed",
                     self.total_joins - self.total_joins_aborted),
                    ("joins aborted", self.total_joins_aborted),
                    ("mean join latency",
                     f"{self.mean_join_latency():.0f} cycles"),
                    ("catch-up traffic", f"{self.total_catchup_bytes} bytes"),
                    ("refs served during reconfig",
                     self.total_refs_during_reconfig),
                    ("leadership handoffs", self.total_handoffs),
                ]
                if self.total_joins or self.total_handoffs
                else []
            ),
            ("spurious suspicions", self.total_spurious_suspicions),
            ("transport retries", self.total_transport_retries),
            ("retransmitted flits", self.total_transport_retransmitted_flits),
            ("duplicates suppressed", self.total_transport_duplicates_suppressed),
            ("verdict", "OK" if self.ok else "DEFECTS FOUND"),
        ]))
        if self.class_metrics:
            lines.append(format_table(
                ["class", "cells", "ckpt bytes", "work lost",
                 "rollback dist", "recovery lat"],
                [
                    (
                        cls,
                        m.get("cells", 0),
                        m.get("ckpt_bytes_replicated", 0),
                        m.get("rollback_refs", 0),
                        f"{m.get('mean_rollback_distance', 0.0):.0f} refs",
                        f"{m.get('mean_recovery_latency', 0.0):.0f} cyc",
                    )
                    for cls, m in sorted(self.class_metrics.items())
                ],
            ))
        if self.strategy_metrics:
            lines.append(format_table(
                ["strategy", "cells", "ckpt bytes", "work lost",
                 "rollback dist", "recovery lat"],
                [
                    (
                        name,
                        m.get("cells", 0),
                        m.get("ckpt_bytes_replicated", 0),
                        m.get("rollback_refs", 0),
                        f"{m.get('mean_rollback_distance', 0.0):.0f} refs",
                        f"{m.get('mean_recovery_latency', 0.0):.0f} cyc",
                    )
                    for name, m in sorted(self.strategy_metrics.items())
                ],
            ))
            if any(
                m.get("n_joins") or m.get("n_handoffs")
                for m in self.strategy_metrics.values()
            ):
                lines.append(format_table(
                    ["strategy", "joins", "aborted", "join lat",
                     "catch-up", "refs@reconfig", "handoffs"],
                    [
                        (
                            name,
                            m.get("n_joins", 0),
                            m.get("joins_aborted", 0),
                            f"{m.get('mean_join_latency', 0.0):.0f} cyc",
                            f"{m.get('catchup_bytes', 0)} B",
                            m.get("refs_during_reconfig", 0),
                            m.get("n_handoffs", 0),
                        )
                        for name, m in sorted(self.strategy_metrics.items())
                    ],
                ))
            for name, m in sorted(self.strategy_metrics.items()):
                taxonomy = ", ".join(
                    f"{outcome}={count}"
                    for outcome, count in sorted(m.get("outcomes", {}).items())
                )
                lines.append(f"outcomes[{name}]: {taxonomy or 'none'}")
        defect_cells = [
            c for c in self.cells
            if c["outcome"] in (Outcome.SIMULATOR_BUG.value, Outcome.STALLED.value)
        ]
        for cell in defect_cells[:5]:
            lines.append(
                f"defect: cell {cell['index']} (seed {cell['seed']}, "
                f"key {cell['key'][:12]}) -> {cell['outcome']}: {cell['detail']}"
            )
            if cell.get("diagnostic"):
                lines.append(cell["diagnostic"])
        if len(defect_cells) > 5:
            lines.append(f"... and {len(defect_cells) - 5} more defect cells")
        return "\n\n".join(lines)


class CampaignRunner:
    """Drive a campaign through the orch scheduler/cache/journal."""

    def __init__(self, config: CampaignConfig, store=None):
        self.config = config
        self.store = store
        self.cells = build_cells(config)

    @property
    def journal(self):
        from repro.orch.journal import Journal

        if self.store is None:
            return None
        return Journal(self.store.root / "campaign-journal.jsonl")

    def run(
        self,
        parallel: int = 1,
        resume: bool = False,
        read_cache: bool = True,
        task_timeout: float | None = None,
        max_retries: int = 1,
        progress: Callable[[str], None] | None = None,
        pool=None,
        on_cell: Callable[[dict], None] | None = None,
    ) -> CampaignReport:
        """Complete every cell of the campaign.

        ``pool`` replaces the default ``ProcessPoolExecutor(parallel)``
        (pass a :class:`~repro.distributed.Coordinator` to shard cells
        over worker daemons); ``on_cell`` receives one structured dict
        per terminal cell — the live feed ``repro serve`` renders.
        """
        from repro.orch.executor import run_tasks

        snapshot = getattr(pool, "snapshot", None)
        journal = self.journal
        say = progress or (lambda _msg: None)
        emit = on_cell or (lambda _event: None)
        completed = (
            journal.completed_keys() if (resume and journal is not None) else set()
        )

        report = CampaignReport(config=self.config.to_dict(),
                                n_cells=len(self.cells),
                                executor="local" if snapshot is None
                                else "distributed")
        outcomes: dict[int, RunOutcome] = {}
        pending: list[CampaignCell] = []
        for cell in self.cells:
            cached = None
            if self.store is not None and (read_cache or cell.key in completed):
                cached = self.store.load_payload(cell.key, CAMPAIGN_RECORD_KIND)
            if cached is not None:
                outcomes[cell.index] = RunOutcome.from_dict(cached)
                report.from_cache += 1
                say(f"cached   {cell.label()} -> {cached['outcome']}")
                emit({"index": cell.index, "label": cell.label(),
                      "source": "cached", "outcome": cached["outcome"],
                      "wall_seconds": 0.0})
            else:
                pending.append(cell)

        if journal is not None:
            journal.run_started(len(pending), parallel, resume)
        for task in run_tasks(
            [cell.to_dict() for cell in pending],
            execute_campaign_payload,
            parallel=parallel,
            task_timeout=task_timeout,
            max_retries=max_retries,
            on_start=lambda _i, p: (
                journal.task_started(
                    CampaignCell.from_dict(p).key, CampaignCell.from_dict(p).label()
                ) if journal is not None else None
            ),
            pool=pool,
        ):
            cell = pending[task.index]
            if task.ok:
                outcomes[cell.index] = RunOutcome.from_dict(task.value)
                report.executed += 1
                # store record first, journal line second: a journaled
                # completion always has a durable record behind it
                if self.store is not None:
                    self.store.save_payload(
                        cell.key, CAMPAIGN_RECORD_KIND, cell.to_dict(),
                        task.value, wall_seconds=task.wall_seconds,
                    )
                if journal is not None:
                    journal.task_completed(
                        cell.key, cell.label(), task.wall_seconds, source="run"
                    )
                say(f"ran      {cell.label()} -> {task.value['outcome']}")
                emit({"index": cell.index, "label": cell.label(),
                      "source": "ran", "outcome": task.value["outcome"],
                      "wall_seconds": task.wall_seconds})
            else:
                error = task.error or "timed out"
                report.failed.append({
                    "index": cell.index, "seed": cell.seed, "key": cell.key,
                    "error": error, "attempts": task.attempts,
                })
                if journal is not None:
                    journal.task_failed(cell.key, cell.label(), error, task.attempts)
                say(f"FAILED   {cell.label()}: {error}")
                emit({"index": cell.index, "label": cell.label(),
                      "source": "failed", "outcome": None,
                      "wall_seconds": task.wall_seconds, "error": error})
        if snapshot is not None:
            report.dispatch = snapshot()

        # -- aggregate ---------------------------------------------------
        from repro.workloads.registry import workload_class_of

        counts: Counter = Counter()
        windows: Counter = Counter()
        triggers: dict[str, Counter] = {}
        by_class: dict[str, Counter] = {}
        by_strategy: dict[str, Counter] = {}
        strategy_outcomes: dict[str, Counter] = {}
        for cell in self.cells:
            outcome = outcomes.get(cell.index)
            if outcome is None:
                continue  # worker failure: accounted in report.failed
            counts[outcome.outcome.value] += 1
            windows.update(outcome.windows_entered)
            if cell.trigger is not None:
                bucket = triggers.setdefault(cell.trigger["window"], Counter())
                bucket["planned"] += 1
                bucket["fired"] += outcome.triggers_fired
                bucket["skipped"] += outcome.triggers_skipped
            report.total_rollback_refs += outcome.rollback_refs
            report.total_recoveries += outcome.n_recoveries
            report.total_recovery_cycles += outcome.recovery_cycles
            report.total_ckpt_bytes_replicated += outcome.ckpt_bytes_replicated
            report.total_ckpt_items_replicated += outcome.ckpt_items_replicated
            report.total_ckpt_items_reused += outcome.ckpt_items_reused
            bucket = by_class.setdefault(workload_class_of(cell.app), Counter())
            bucket["cells"] += 1
            bucket["ckpt_bytes_replicated"] += outcome.ckpt_bytes_replicated
            bucket["ckpt_items_replicated"] += outcome.ckpt_items_replicated
            bucket["ckpt_items_reused"] += outcome.ckpt_items_reused
            bucket["rollback_refs"] += outcome.rollback_refs
            bucket["n_recoveries"] += outcome.n_recoveries
            bucket["recovery_cycles"] += outcome.recovery_cycles
            bucket["n_checkpoints"] += outcome.n_checkpoints
            sbucket = by_strategy.setdefault(cell.recovery_strategy, Counter())
            sbucket["cells"] += 1
            sbucket["ckpt_bytes_replicated"] += outcome.ckpt_bytes_replicated
            sbucket["ckpt_items_replicated"] += outcome.ckpt_items_replicated
            sbucket["ckpt_items_reused"] += outcome.ckpt_items_reused
            sbucket["rollback_refs"] += outcome.rollback_refs
            sbucket["n_recoveries"] += outcome.n_recoveries
            sbucket["recovery_cycles"] += outcome.recovery_cycles
            sbucket["n_checkpoints"] += outcome.n_checkpoints
            sbucket["n_joins"] += outcome.n_joins
            sbucket["joins_aborted"] += outcome.joins_aborted
            sbucket["join_latency_cycles"] += outcome.join_latency_cycles
            sbucket["catchup_bytes"] += outcome.catchup_bytes
            sbucket["refs_during_reconfig"] += outcome.refs_during_reconfig
            sbucket["n_handoffs"] += outcome.n_handoffs
            strategy_outcomes.setdefault(cell.recovery_strategy, Counter())[
                outcome.outcome.value
            ] += 1
            report.total_failures_skipped += outcome.n_failures_skipped
            report.total_joins += outcome.n_joins
            report.total_joins_aborted += outcome.joins_aborted
            report.total_join_latency_cycles += outcome.join_latency_cycles
            report.total_catchup_bytes += outcome.catchup_bytes
            report.total_refs_during_reconfig += outcome.refs_during_reconfig
            report.total_handoffs += outcome.n_handoffs
            report.total_spurious_suspicions += outcome.spurious_suspicions
            report.total_transport_retries += outcome.transport_retries
            report.total_transport_retransmitted_flits += (
                outcome.transport_retransmitted_flits
            )
            report.total_transport_duplicates_suppressed += (
                outcome.transport_duplicates_suppressed
            )
            record = {
                "index": cell.index,
                "seed": cell.seed,
                "key": cell.key,
                "mode": cell.trigger["window"] if cell.trigger else "timed",
                "outcome": outcome.outcome.value,
                "detail": outcome.detail,
                "n_failures": outcome.n_failures,
                "n_recoveries": outcome.n_recoveries,
                "rollback_refs": outcome.rollback_refs,
                "total_cycles": outcome.total_cycles,
            }
            if outcome.diagnostic:
                record["diagnostic"] = outcome.diagnostic
            report.cells.append(record)
        report.outcome_counts = dict(counts)
        report.window_coverage = dict(windows)
        report.trigger_coverage = {
            window: dict(bucket) for window, bucket in triggers.items()
        }
        for cls, bucket in by_class.items():
            recoveries = bucket["n_recoveries"]
            report.class_metrics[cls] = {
                **{k: int(v) for k, v in bucket.items()},
                "mean_rollback_distance": (
                    bucket["rollback_refs"] / recoveries if recoveries else 0.0
                ),
                "mean_recovery_latency": (
                    bucket["recovery_cycles"] / recoveries if recoveries else 0.0
                ),
            }
        for name, bucket in by_strategy.items():
            recoveries = bucket["n_recoveries"]
            joins_done = bucket["n_joins"] - bucket["joins_aborted"]
            report.strategy_metrics[name] = {
                **{k: int(v) for k, v in bucket.items()},
                "mean_rollback_distance": (
                    bucket["rollback_refs"] / recoveries if recoveries else 0.0
                ),
                "mean_recovery_latency": (
                    bucket["recovery_cycles"] / recoveries if recoveries else 0.0
                ),
                "mean_join_latency": (
                    bucket["join_latency_cycles"] / joins_done
                    if joins_done > 0 else 0.0
                ),
                "outcomes": dict(strategy_outcomes.get(name, Counter())),
            }
        if journal is not None:
            journal.run_completed({
                "n_cells": report.n_cells,
                "from_cache": report.from_cache,
                "executed": report.executed,
                "failed": len(report.failed),
                "defects": report.defects,
            })
        return report
