"""Scheduler tests: parallel completion, timeout, retry, degradation.

The retry and timeout contract is checked on both pools ``run_tasks``
drives: the local process pool, and a ``Coordinator`` over scripted
fake workers that misbehave the way the local worker callables do.

Worker callables live at module level so they pickle into pool workers
(the tests package is importable).
"""

import multiprocessing
import os
import signal
import time

from repro.distributed.registry import WorkerState
from repro.fault.campaign import execute_campaign_payload
from repro.orch.executor import run_tasks
from tests.distributed.fakes import fake_coordinator


def _square(x):
    return x * x


def _sleep_forever(x):
    time.sleep(30)
    return x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _flaky(path):
    """Fails on the first attempt, succeeds once the marker exists."""
    if os.path.exists(path):
        return "recovered"
    with open(path, "w") as handle:
        handle.write("seen")
    raise RuntimeError("first attempt fails")


def _die_in_worker(x):
    """SIGKILL the pool worker (never the test process itself)."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


def _collect(payloads, **kwargs):
    return list(run_tasks(payloads, **kwargs))


def test_serial_execution():
    outcomes = _collect([1, 2, 3], worker=_square, parallel=1)
    assert [o.value for o in sorted(outcomes, key=lambda o: o.index)] == [1, 4, 9]
    assert all(o.ok and o.mode == "serial" for o in outcomes)


def test_parallel_execution_completes_all():
    outcomes = _collect(list(range(6)), worker=_square, parallel=2)
    assert sorted(o.value for o in outcomes) == [0, 1, 4, 9, 16, 25]
    assert all(o.ok for o in outcomes)
    assert all(o.mode == "parallel" for o in outcomes)


def _on_coordinator(fake_workers, mode, **kwargs):
    """One cell through ``run_tasks`` on a Coordinator whose only worker
    behaves as ``mode``; returns ``(outcomes, coordinator)``."""
    coordinator = fake_coordinator(fake_workers(mode), heartbeat_misses=4)
    outcomes = _collect([{"cell": 7}], worker=execute_campaign_payload,
                        pool=coordinator, **kwargs)
    return outcomes, coordinator


def _check_error_after_retries(outcomes):
    (outcome,) = outcomes
    assert not outcome.ok
    assert outcome.attempts == 2  # first try + one retry
    assert "boom 7" in outcome.error
    assert outcome.error == "RuntimeError: boom 7"  # same text on either pool


def test_error_is_reported_after_retries():
    _check_error_after_retries(_collect(
        [7], worker=_boom, parallel=2, max_retries=1, retry_backoff=0.0
    ))


def test_error_is_reported_after_retries_on_coordinator(fake_workers):
    outcomes, _ = _on_coordinator(
        fake_workers, "always-error", max_retries=1, retry_backoff=0.0
    )
    _check_error_after_retries(outcomes)


def _check_recovered(outcomes):
    (outcome,) = outcomes
    assert outcome.ok
    assert outcome.value == "recovered"
    assert outcome.attempts == 2


def test_retry_recovers_transient_failure(tmp_path):
    marker = str(tmp_path / "marker")
    _check_recovered(_collect(
        [marker], worker=_flaky, parallel=2, max_retries=2, retry_backoff=0.0
    ))


def test_retry_recovers_transient_failure_on_coordinator(fake_workers):
    outcomes, _ = _on_coordinator(
        fake_workers, "flaky", max_retries=2, retry_backoff=0.0
    )
    _check_recovered(outcomes)


def test_serial_retry_recovers_transient_failure(tmp_path):
    marker = str(tmp_path / "marker")
    outcomes = _collect([marker], worker=_flaky, parallel=1, max_retries=2,
                        retry_backoff=0.0)
    (outcome,) = outcomes
    assert outcome.ok and outcome.attempts == 2 and outcome.mode == "serial"


def _check_timed_out(outcomes, elapsed, max_retries):
    (outcome,) = outcomes
    assert outcome.timed_out and not outcome.ok
    assert outcome.value is None
    assert outcome.attempts == max_retries + 1
    assert elapsed < 20  # nowhere near the worker's 30s sleep


def test_timeout_abandons_the_task():
    t0 = time.monotonic()
    outcomes = _collect([1], worker=_sleep_forever, parallel=2,
                        task_timeout=0.3, max_retries=0)
    _check_timed_out(outcomes, time.monotonic() - t0, max_retries=0)


def test_timeout_abandons_the_task_on_coordinator(fake_workers):
    """A worker that keeps answering pings but never answers the cell
    is not dead: the cell times out, is retried, and times out again,
    while the worker stays up."""
    t0 = time.monotonic()
    outcomes, coordinator = _on_coordinator(
        fake_workers, "hang", task_timeout=0.3, max_retries=1
    )
    _check_timed_out(outcomes, time.monotonic() - t0, max_retries=1)
    (worker,) = fake_workers()
    assert worker.tasks_seen == 2  # the abandoned cell's slot was freed
    snapshot = coordinator.snapshot()
    assert snapshot["worker_deaths"] == 0
    assert snapshot["reassignments"] == 0
    assert snapshot["workers"][0]["state"] == WorkerState.UP.value


def test_dead_worker_degrades_to_serial():
    """A worker killed mid-task (fail-silent, like the paper's nodes)
    must not lose the sweep: remaining cells complete in-process."""
    outcomes = _collect([1, 2, 3], worker=_die_in_worker, parallel=2)
    by_index = {o.index: o for o in outcomes}
    assert len(by_index) == 3
    assert all(o.ok for o in outcomes)
    assert sorted(o.value for o in outcomes) == [10, 20, 30]
    assert {o.mode for o in outcomes} == {"serial"}


def test_pool_unavailable_degrades_to_serial(monkeypatch):
    import repro.orch.executor as executor_module

    def _no_pool(max_workers):
        raise OSError("no processes for you")

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", _no_pool)
    outcomes = _collect([2, 3], worker=_square, parallel=4)
    assert sorted(o.value for o in outcomes) == [4, 9]
    assert {o.mode for o in outcomes} == {"serial"}
