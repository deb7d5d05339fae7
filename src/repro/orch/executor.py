"""The one task scheduler: bounded retry, timeout and serial fallback.

A thin, generic layer under the orchestrator and the campaign runner:
run ``worker(payload)`` for every payload over a pool, yielding
outcomes in *completion* order.  The pool is a local
``ProcessPoolExecutor`` by default, or a
:class:`repro.distributed.Coordinator` over worker daemons; both are
driven by the same loop, so the failure policy below is the same for
both.  It mirrors what the paper's machine does for its own
computation — backward error recovery at the granularity of one task:

- a task that raises is retried (exponential backoff) up to
  ``max_retries`` extra attempts before being reported failed;
- a task that exceeds ``task_timeout`` seconds is abandoned (its
  future is cancelled and a late result discarded) and retried the
  same way;
- a dead pool (``BrokenExecutor``: a killed pool process, or every
  distributed worker lost) or an unavailable one degrades the rest of
  the run to in-process serial execution — slower, but the sweep still
  completes.

Workers must be module-level callables and payloads picklable; the
orchestrator ships plain spec dicts and receives plain result dicts so
nothing simulation-specific crosses the process boundary.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass
class TaskOutcome:
    """Terminal state of one payload."""

    index: int
    payload: Any
    value: Any = None
    error: str | None = None
    timed_out: bool = False
    attempts: int = 1
    wall_seconds: float = 0.0
    #: "parallel" (on a pool) or "serial" (in-process) — how the final
    #: attempt ran.
    mode: str = "parallel"

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out


@dataclass
class _Attempt:
    index: int
    payload: Any
    attempt: int
    submitted_at: float


def _describe(exc: BaseException) -> str:
    """``Type: message``, the text a failed outcome carries.  An error
    relayed from another process (``relayed = True``, e.g. a worker
    daemon's answer) already reads that way and is kept as it is."""
    if getattr(exc, "relayed", False):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def _backoff_sleep(backoff: float, attempt: int) -> None:
    if backoff > 0:
        time.sleep(backoff * (2 ** (attempt - 1)))


def _run_serial(
    pending: list[tuple[int, Any, int]],
    worker: Callable[[Any], Any],
    max_retries: int,
    retry_backoff: float,
    on_start: Callable[[int, Any], None] | None,
) -> Iterator[TaskOutcome]:
    """In-process execution (the degraded mode; also ``parallel=1`` with
    no pool).  Timeouts cannot preempt a running task here."""
    for index, payload, first_attempt in pending:
        attempt = first_attempt
        t0 = time.perf_counter()
        if on_start is not None:
            on_start(index, payload)
        while True:
            try:
                value = worker(payload)
            except Exception as exc:  # noqa: BLE001 — report, don't crash the sweep
                if attempt <= max_retries:
                    _backoff_sleep(retry_backoff, attempt)
                    attempt += 1
                    continue
                yield TaskOutcome(
                    index=index, payload=payload, error=_describe(exc),
                    attempts=attempt, wall_seconds=time.perf_counter() - t0,
                    mode="serial",
                )
                break
            yield TaskOutcome(
                index=index, payload=payload, value=value, attempts=attempt,
                wall_seconds=time.perf_counter() - t0, mode="serial",
            )
            break


def run_tasks(
    payloads: list[Any],
    worker: Callable[[Any], Any],
    parallel: int = 1,
    task_timeout: float | None = None,
    max_retries: int = 1,
    retry_backoff: float = 0.25,
    on_start: Callable[[int, Any], None] | None = None,
    poll_interval: float = 0.02,
    pool: Executor | None = None,
) -> Iterator[TaskOutcome]:
    """Yield a :class:`TaskOutcome` per payload, in completion order.

    ``pool`` is any ``concurrent.futures``-style executor; by default a
    ``ProcessPoolExecutor(parallel)`` is built (none at all for
    ``parallel <= 1``).  Either way ``run_tasks`` owns the pool and
    shuts it down on the way out.  In-flight cells are bounded by the
    pool's ``live_slots()`` where it has one (a
    :class:`repro.distributed.Coordinator`, whose width changes as
    workers join and die), else by ``parallel``.
    """
    serial = [(i, p, 1) for i, p in enumerate(payloads)]
    if pool is None:
        if parallel <= 1:
            yield from _run_serial(serial, worker, max_retries, retry_backoff, on_start)
            return
        try:
            pool = ProcessPoolExecutor(max_workers=parallel)
        except (OSError, ValueError, PermissionError):
            yield from _run_serial(serial, worker, max_retries, retry_backoff, on_start)
            return
    width = getattr(pool, "live_slots", lambda: parallel)

    queue: list[tuple[int, Any, int]] = serial
    inflight: dict[Future, _Attempt] = {}
    abandoned = False  # a timed-out worker may still be running in the pool
    interrupted = True  # cleared on normal loop exit; KeyboardInterrupt,
    # StallError or a closed generator must not leave orphan workers
    broken = False  # the pool died: what is left finishes serially

    def submit_next() -> None:
        index, payload, attempt = queue[0]
        if attempt == 1 and on_start is not None:
            on_start(index, payload)
        future = pool.submit(worker, payload)
        queue.pop(0)
        inflight[future] = _Attempt(index, payload, attempt, time.perf_counter())

    try:
        while (queue or inflight) and not broken:
            try:
                # read every pass, queue or not: a pool that died with
                # every cell already submitted says so only here
                slots = width()
                while queue and len(inflight) < slots:
                    submit_next()
            except BrokenExecutor:
                broken = True
                break
            if not inflight:  # no live slot: every worker still dialling
                time.sleep(poll_interval)
                continue
            done, _ = wait(
                list(inflight), timeout=poll_interval, return_when=FIRST_COMPLETED
            )
            for future in done:
                task = inflight.pop(future)
                wall = time.perf_counter() - task.submitted_at
                try:
                    value = future.result()
                except BrokenExecutor:
                    broken = True
                    queue.append((task.index, task.payload, task.attempt))
                    continue
                except Exception as exc:  # noqa: BLE001
                    if task.attempt <= max_retries:
                        _backoff_sleep(retry_backoff, task.attempt)
                        queue.append((task.index, task.payload, task.attempt + 1))
                    else:
                        yield TaskOutcome(
                            index=task.index, payload=task.payload,
                            error=_describe(exc),
                            attempts=task.attempt, wall_seconds=wall,
                        )
                    continue
                yield TaskOutcome(
                    index=task.index, payload=task.payload, value=value,
                    attempts=task.attempt, wall_seconds=wall,
                )
            if task_timeout is not None and not broken:
                now = time.perf_counter()
                for future, task in list(inflight.items()):
                    if now - task.submitted_at < task_timeout:
                        continue
                    # cannot preempt a running worker; abandon the future
                    # (a late result is discarded) and retry or fail
                    del inflight[future]
                    future.cancel()
                    abandoned = True
                    if task.attempt <= max_retries:
                        queue.append((task.index, task.payload, task.attempt + 1))
                    else:
                        yield TaskOutcome(
                            index=task.index, payload=task.payload,
                            timed_out=True, attempts=task.attempt,
                            wall_seconds=now - task.submitted_at,
                        )
        interrupted = False
    finally:
        # best effort: reap workers still grinding on abandoned tasks,
        # and never *wait* on them when unwinding from an interrupt —
        # an aborted sweep must not leave orphan worker processes
        # (the process table is cleared by shutdown, so snapshot first)
        kill = abandoned or interrupted
        workers = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=not kill, cancel_futures=True)
        if kill:
            for process in workers:
                try:
                    process.terminate()
                except OSError:  # pragma: no cover
                    pass

    if broken:
        # the pool is unusable: everything not yet terminal (in flight
        # or queued) finishes serially in-process
        leftovers = queue + [(t.index, t.payload, t.attempt) for t in inflight.values()]
        yield from _run_serial(sorted(leftovers), worker, max_retries, retry_backoff, None)
