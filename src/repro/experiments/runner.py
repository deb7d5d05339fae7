"""Shared experiment machinery.

:class:`ExperimentProfile` bundles the scaling knobs of a benchmark
session (DESIGN.md section 3): the workload scale, the checkpoint
frequency compression, and the minimum number of recovery points a run
must observe.  ``QUICK`` is sized for a laptop benchmark session;
``FULL`` runs larger workloads with less compression for tighter
numbers.  Select via the ``REPRO_PROFILE`` environment variable
(``quick``/``full``) or pass a profile explicitly.

:class:`PairRunner` runs (workload, parameters) pairs on the standard
and the fault-tolerant machine.  Results are memoized in-process *and*
persisted through the orchestrator's content-addressed store
(:mod:`repro.orch.store`), so every bench file — and every later
process — shares one cross-process cache keyed by the cell's content
hash.  Set ``REPRO_CACHE=off`` to disable the disk layer, or pass
``store=None``/``store=ResultStore(...)`` explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.machine import RunResult
from repro.orch.store import ResultStore, default_store
from repro.orch.task import TaskSpec
from repro.workloads.registry import WORKLOAD_FAMILIES


CLOCK_HZ = 20_000_000


@dataclass(frozen=True)
class ExperimentProfile:
    """Scaling knobs of a benchmark session.

    Recovery-point periods are *reference-indexed* (see
    ``FaultToleranceConfig.period_in_references``): at frequency ``f``
    the paper's machine executes ``clock / f x density`` references per
    processor between recovery points.  High frequencies are therefore
    reproduced faithfully; low ones would need near-full-scale runs, so
    the period is capped at ``period_cap_refs`` references per
    processor — cells at or below the cap saturate instead of extending
    the run into hours.  Capped cells are reproduced with a compressed
    period, which the harness reports honestly.
    """

    name: str
    #: Workload scale floor (fraction of the Table 3 instruction counts).
    base_scale: float
    #: Longest recovery-point period, in references per processor.
    period_cap_refs: int
    #: Each run is stretched so at least this many recovery points fit.
    min_checkpoints: int
    #: Upper bound on the per-run scale.
    max_scale: float

    def period_refs(self, app: str, frequency_hz: float) -> int:
        """Reference-indexed period for one cell, after the cap."""
        cls = WORKLOAD_FAMILIES[app]
        density = cls.read_density + cls.write_density
        paper = CLOCK_HZ / frequency_hz * density
        return int(min(paper, self.period_cap_refs))

    def compression_for(self, app: str, frequency_hz: float) -> float:
        """Frequency compression applied by the period cap (1 = none)."""
        cls = WORKLOAD_FAMILIES[app]
        density = cls.read_density + cls.write_density
        paper = CLOCK_HZ / frequency_hz * density
        return max(1.0, paper / self.period_cap_refs)

    def scale_for(self, app: str, n_procs: int, frequency_hz: float) -> float:
        """Scale so the run spans ``min_checkpoints`` periods."""
        refs_needed = (self.min_checkpoints + 0.5) * self.period_refs(
            app, frequency_hz
        )
        cls = WORKLOAD_FAMILIES[app]
        fullscale_refs = (
            cls.instructions_millions
            * 1e6
            * (cls.read_density + cls.write_density)
            / n_procs
        )
        needed = refs_needed / fullscale_refs
        return min(self.max_scale, max(self.base_scale, needed))


QUICK = ExperimentProfile(
    name="quick",
    base_scale=0.015,
    period_cap_refs=60_000,
    min_checkpoints=1,
    max_scale=0.3,
)

FULL = ExperimentProfile(
    name="full",
    base_scale=0.02,
    period_cap_refs=400_000,
    min_checkpoints=2,
    max_scale=0.6,
)


#: Registry of selectable profiles (``REPRO_PROFILE`` values).
PROFILES: dict[str, ExperimentProfile] = {
    QUICK.name: QUICK,
    FULL.name: FULL,
}


def current_profile() -> ExperimentProfile:
    """Profile selected by the ``REPRO_PROFILE`` env var (default quick).

    Unknown values never fall through to a default silently — they
    raise, naming every valid profile.
    """
    name = os.environ.get("REPRO_PROFILE", "quick").strip().lower()
    try:
        return PROFILES[name]
    except KeyError:
        valid = ", ".join(repr(p) for p in sorted(PROFILES))
        raise ValueError(
            f"unknown REPRO_PROFILE {name!r}; valid profiles: {valid}"
        ) from None


@dataclass
class OverheadDecomposition:
    """The Fig. 3 quantities for one (app, frequency) cell, as fractions
    of the standard architecture's execution time."""

    app: str
    frequency_hz: float
    t_standard: int
    t_ft: int
    create: float
    commit: float
    pollution: float
    n_checkpoints: int

    @property
    def total_overhead(self) -> float:
        if self.t_standard == 0:
            return 0.0
        return (self.t_ft - self.t_standard) / self.t_standard


#: Sentinel distinguishing "use the default store" from "no store".
_DEFAULT = object()


class PairRunner:
    """Runs and caches (standard, ECP) machine pairs.

    Two cache layers: an in-process memo (so repeated ``run_*`` calls
    return the *same* object) over the orchestrator's disk store (so
    separate bench processes share completed cells).
    """

    def __init__(
        self,
        profile: ExperimentProfile | None = None,
        seed: int = 2026,
        store: ResultStore | None | object = _DEFAULT,
        recovery_strategy: str = "ecp",
    ):
        self.profile = profile or current_profile()
        self.seed = seed
        self.store: ResultStore | None = (
            default_store() if store is _DEFAULT else store
        )
        #: Recovery backend (repro.recovery) every ECP cell runs under;
        #: the standard-protocol baseline cells are unaffected.
        self.recovery_strategy = recovery_strategy
        self._memo: dict[str, RunResult] = {}

    # -- cell specs -----------------------------------------------------

    def spec_standard(self, app: str, n_nodes: int, scale: float) -> TaskSpec:
        return TaskSpec(
            protocol="standard", app=app, n_nodes=n_nodes, scale=scale,
            seed=self.seed,
        )

    def spec_ecp(
        self, app: str, n_nodes: int, frequency_hz: float, scale: float
    ) -> TaskSpec:
        return TaskSpec(
            protocol="ecp", app=app, n_nodes=n_nodes, scale=scale,
            seed=self.seed, frequency_hz=frequency_hz,
            frequency_compression=self.profile.compression_for(app, frequency_hz),
            recovery_strategy=self.recovery_strategy,
        )

    # -- execution ------------------------------------------------------

    def run_spec(self, spec: TaskSpec) -> RunResult:
        """Memo -> disk store -> simulate (and persist)."""
        key = spec.key
        result = self._memo.get(key)
        if result is not None:
            return result
        if self.store is not None:
            result = self.store.load(key)
        if result is None:
            result = spec.execute()
            if self.store is not None:
                self.store.save(spec, result)
        self._memo[key] = result
        return result

    def seed_result(self, spec: TaskSpec, result: RunResult) -> None:
        """Adopt a result computed elsewhere (the sweep orchestrator)."""
        self._memo[spec.key] = result

    def run_standard(self, app: str, n_nodes: int, scale: float) -> RunResult:
        return self.run_spec(self.spec_standard(app, n_nodes, scale))

    def run_ecp(
        self, app: str, n_nodes: int, frequency_hz: float, scale: float
    ) -> RunResult:
        return self.run_spec(self.spec_ecp(app, n_nodes, frequency_hz, scale))

    def decompose(
        self, app: str, n_nodes: int, frequency_hz: float, scale: float | None = None
    ) -> OverheadDecomposition:
        """T_Ft = T_standard + T_create + T_commit + T_pollution
        (Section 4.2.3), each normalised by T_standard."""
        if scale is None:
            scale = self.profile.scale_for(app, n_nodes, frequency_hz)
        base = self.run_standard(app, n_nodes, scale)
        ft = self.run_ecp(app, n_nodes, frequency_hz, scale)
        t_std = base.total_cycles
        s = ft.stats
        return OverheadDecomposition(
            app=app,
            frequency_hz=frequency_hz,
            t_standard=t_std,
            t_ft=ft.total_cycles,
            create=s.create_cycles / t_std if t_std else 0.0,
            commit=s.commit_cycles / t_std if t_std else 0.0,
            pollution=(s.compute_cycles - t_std) / t_std if t_std else 0.0,
            n_checkpoints=s.n_checkpoints,
        )


class SweepHarness:
    """Shared orchestration surface of the lazy sweep harnesses.

    Subclasses define :meth:`specs` — the full cell grid.  Cells are
    still computed lazily on first access, but :meth:`prefetch` runs
    the whole grid through :class:`repro.orch.Orchestrator` first:
    in parallel, journaled (so an interrupted sweep resumes), and fed
    from / persisted to the runner's result store.
    """

    runner: PairRunner

    def specs(self) -> list:
        """Every simulation cell of the sweep, deduplicated by key."""
        raise NotImplementedError

    def prefetch(
        self,
        parallel: int = 1,
        resume: bool = False,
        read_cache: bool = True,
        progress=None,
        task_timeout: float | None = None,
        max_retries: int = 1,
        pool=None,
    ):
        """Complete every cell of the grid; returns the
        :class:`repro.orch.SweepReport` describing exactly what was
        resumed, served from cache, recomputed or failed.

        ``pool`` (e.g. a :class:`repro.distributed.Coordinator`)
        replaces the default local process pool."""
        from repro.orch.orchestrator import Orchestrator

        specs = self.specs()
        orchestrator = Orchestrator(
            store=self.runner.store,
            task_timeout=task_timeout,
            max_retries=max_retries,
        )
        results, report = orchestrator.run(
            specs,
            parallel=parallel,
            resume=resume,
            read_cache=read_cache,
            progress=progress,
            pool=pool,
        )
        by_key = {spec.key: spec for spec in specs}
        for key, result in results.items():
            self.runner.seed_result(by_key[key], result)
        return report
