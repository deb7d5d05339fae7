"""The sweep orchestrator: cache → journal → parallel execution.

:class:`Orchestrator.run` takes a list of :class:`TaskSpec` cells and
returns a complete ``{key: RunResult}`` map, sourcing every cell from
the cheapest safe place:

1. **resume** — cells whose completion was journaled by an earlier
   (possibly killed) run *and* whose record is still in the store;
2. **cache** — cells already in the content-addressed store;
3. **compute** — everything else, sharded over a pool (local
   processes or worker daemons) or run serially, with per-task timeout
   and bounded retry.

The crash-consistency ordering is: store record first (atomic rename),
``task_completed`` journal line second.  A SIGKILL between the two
leaves a store record without a journal line — harmless, the next run
takes it as a plain cache hit; the reverse (journaled but not stored)
cannot happen, so ``--resume`` never trusts a missing result.

Observability: every terminal cell invokes ``progress`` with a
:class:`ProgressEvent` carrying the per-cell wall time, the remaining
queue depth and a throughput-based ETA; the final
:class:`SweepReport` summarizes sources, failures and cache traffic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.orch.executor import run_tasks
from repro.orch.journal import Journal
from repro.orch.serialize import run_result_from_dict, run_result_to_dict
from repro.orch.store import ResultStore
from repro.orch.task import TaskSpec


def execute_spec_payload(payload: dict) -> dict:
    """Worker entry point: run one cell from its plain-dict spec.

    Module-level so it pickles by reference into pool workers; returns
    a plain dict so nothing simulation-specific crosses the boundary.
    """
    spec = TaskSpec.from_dict(payload)
    t0 = time.perf_counter()
    result = spec.execute()
    return {
        "key": spec.key,
        "result": run_result_to_dict(result),
        "wall_seconds": time.perf_counter() - t0,
    }


@dataclass
class ProgressEvent:
    """One terminal cell, for progress displays."""

    done: int
    total: int
    label: str
    key: str
    source: str  # "resumed" | "cached" | "computed" | "failed"
    wall_seconds: float
    queue_depth: int
    eta_seconds: float | None

    def format(self) -> str:
        eta = ""
        if self.eta_seconds is not None and self.queue_depth:
            eta = f", eta {self.eta_seconds:.0f}s"
        return (
            f"[{self.done}/{self.total}] {self.label} — {self.source} "
            f"({self.wall_seconds:.2f}s; {self.queue_depth} pending{eta})"
        )


@dataclass
class CellRecord:
    """Terminal state of one cell within a sweep run."""

    key: str
    label: str
    source: str
    wall_seconds: float = 0.0
    attempts: int = 1
    error: str | None = None


@dataclass
class SweepReport:
    """What one orchestrated run did, exactly."""

    total: int = 0
    resumed: int = 0
    cached: int = 0
    computed: int = 0
    failed: int = 0
    wall_seconds: float = 0.0
    parallel: int = 1
    serial_fallbacks: int = 0
    cells: list[CellRecord] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    #: "local" or "distributed" — which pool computed the cells.
    executor: str = "local"
    #: Fleet facts (reassignments, worker deaths, ...) from
    #: ``Coordinator.snapshot()`` when worker daemons ran the cells.
    dispatch: dict | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def hit_rate(self) -> float:
        """Fraction of cells served without recomputation."""
        if self.total == 0:
            return 0.0
        return (self.resumed + self.cached) / self.total

    def recomputed_keys(self) -> set[str]:
        return {c.key for c in self.cells if c.source == "computed"}

    def summary(self) -> dict:
        summary = {
            "total": self.total,
            "resumed": self.resumed,
            "cached": self.cached,
            "computed": self.computed,
            "failed": self.failed,
            "wall_seconds": round(self.wall_seconds, 3),
            "parallel": self.parallel,
            "serial_fallbacks": self.serial_fallbacks,
            "executor": self.executor,
        }
        if self.dispatch is not None:
            summary["dispatch"] = {
                k: self.dispatch[k]
                for k in ("connected", "reassignments", "worker_deaths")
                if k in self.dispatch
            }
        return summary

    def format(self) -> str:
        lines = [
            f"cells: {self.total} total — {self.resumed} resumed, "
            f"{self.cached} cached, {self.computed} computed, "
            f"{self.failed} failed",
            f"cache: {self.cached + self.resumed}/{self.total} served from "
            f"cache ({self.hit_rate():.0%} hit rate), "
            f"{self.cache_invalidations} invalidated",
            f"wall time: {self.wall_seconds:.1f}s "
            f"({self.executor} executor, parallel={self.parallel}"
            + (f", {self.serial_fallbacks} serial fallbacks" if self.serial_fallbacks else "")
            + ")",
        ]
        if self.dispatch is not None:
            lines.append(
                f"dispatch: {self.dispatch.get('connected', 0)} worker(s), "
                f"{self.dispatch.get('reassignments', 0)} reassignment(s), "
                f"{self.dispatch.get('worker_deaths', 0)} worker death(s)"
            )
        for cell in self.cells:
            if cell.error is not None:
                lines.append(f"FAILED {cell.label}: {cell.error}")
        return "\n".join(lines)


class Orchestrator:
    """Runs a set of simulation cells fault-tolerantly."""

    def __init__(
        self,
        store: ResultStore | None = None,
        journal: Journal | None = None,
        task_timeout: float | None = None,
        max_retries: int = 1,
        retry_backoff: float = 0.25,
    ):
        self.store = store
        if journal is None and store is not None:
            journal = Journal(store.journal_path)
        self.journal = journal
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff

    # -- the run --------------------------------------------------------

    def run(
        self,
        specs: list[TaskSpec],
        parallel: int = 1,
        resume: bool = False,
        read_cache: bool = True,
        progress=None,
        pool=None,
    ) -> tuple[dict[str, "object"], SweepReport]:
        """Complete every cell; returns ``({key: RunResult}, report)``.

        ``pool`` (e.g. a :class:`repro.distributed.Coordinator`) replaces
        the default ``ProcessPoolExecutor(parallel)``; either way
        :func:`~repro.orch.executor.run_tasks` applies the
        orchestrator's timeout/retry policy and shuts the pool down.
        """
        t_start = time.perf_counter()
        parallel = max(1, parallel)
        snapshot = getattr(pool, "snapshot", None)
        unique: dict[str, TaskSpec] = {}
        for spec in specs:
            unique.setdefault(spec.key, spec)

        report = SweepReport(
            total=len(unique), parallel=parallel,
            executor="local" if snapshot is None else "distributed",
        )
        results: dict[str, object] = {}
        done = 0
        compute_walls: list[float] = []

        if self.journal is not None:
            self.journal.run_started(
                n_cells=len(unique), parallel=parallel, resume=resume
            )
        journaled = (
            self.journal.completed_keys()
            if (resume and self.journal is not None)
            else set()
        )

        def emit(spec: TaskSpec, source: str, wall: float, pending: int) -> None:
            if progress is None:
                return
            eta = None
            if compute_walls and pending:
                per_cell = sum(compute_walls) / len(compute_walls)
                eta = per_cell * pending / max(1, parallel)
            progress(ProgressEvent(
                done=done, total=report.total, label=spec.label(),
                key=spec.short_key, source=source, wall_seconds=wall,
                queue_depth=pending, eta_seconds=eta,
            ))

        # -- phase 1: satisfy from journal + store ----------------------
        pending: list[TaskSpec] = []
        for key, spec in unique.items():
            source = None
            if self.store is not None and (resume or read_cache):
                trusted = read_cache or key in journaled
                if trusted:
                    result = self.store.load(key)
                    if result is not None:
                        source = "resumed" if key in journaled else "cached"
                        results[key] = result
            if source is None:
                pending.append(spec)
                continue
            done += 1
            if source == "resumed":
                report.resumed += 1
            else:
                report.cached += 1
            report.cells.append(CellRecord(key=key, label=spec.label(), source=source))
            emit(spec, source, 0.0, len(unique) - done)

        # -- phase 2: compute the rest ----------------------------------
        by_key = {spec.key: spec for spec in pending}
        payloads = [spec.to_dict() for spec in pending]

        def on_start(_index: int, payload: dict) -> None:
            spec = by_key[TaskSpec.from_dict(payload).key]
            if self.journal is not None:
                self.journal.task_started(spec.key, spec.label())

        for outcome in run_tasks(
            payloads, execute_spec_payload, parallel=parallel,
            task_timeout=self.task_timeout, max_retries=self.max_retries,
            retry_backoff=self.retry_backoff, on_start=on_start, pool=pool,
        ):
            spec = pending[outcome.index]
            done += 1
            queue_depth = report.total - done
            if outcome.mode == "serial" and (pool is not None or parallel > 1):
                report.serial_fallbacks += 1
            if outcome.ok:
                result = run_result_from_dict(outcome.value["result"])
                results[spec.key] = result
                # store record first, journal line second: a journaled
                # completion always has a durable record behind it
                if self.store is not None:
                    self.store.save(spec, result, wall_seconds=outcome.wall_seconds)
                if self.journal is not None:
                    self.journal.task_completed(
                        spec.key, spec.label(), outcome.wall_seconds, "computed"
                    )
                report.computed += 1
                compute_walls.append(outcome.wall_seconds)
                report.cells.append(CellRecord(
                    key=spec.key, label=spec.label(), source="computed",
                    wall_seconds=outcome.wall_seconds, attempts=outcome.attempts,
                ))
                emit(spec, "computed", outcome.wall_seconds, queue_depth)
            else:
                error = outcome.error or (
                    f"timed out after {self.task_timeout}s" if outcome.timed_out
                    else "unknown failure"
                )
                if self.journal is not None:
                    self.journal.task_failed(
                        spec.key, spec.label(), error, outcome.attempts
                    )
                report.failed += 1
                report.cells.append(CellRecord(
                    key=spec.key, label=spec.label(), source="failed",
                    wall_seconds=outcome.wall_seconds, attempts=outcome.attempts,
                    error=error,
                ))
                emit(spec, "failed", outcome.wall_seconds, queue_depth)

        report.wall_seconds = time.perf_counter() - t_start
        if snapshot is not None:
            report.dispatch = snapshot()
        if self.store is not None:
            report.cache_hits = self.store.stats.hits
            report.cache_misses = self.store.stats.misses
            report.cache_invalidations = self.store.stats.invalidations
        if self.journal is not None:
            self.journal.run_completed(report.summary())
        return results, report
