"""Resource hygiene: an abandoned run must not leak pool processes or
worker connections."""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.fault.campaign import execute_campaign_payload
from repro.orch.executor import run_tasks
from tests.distributed.fakes import fake_coordinator

_PID_DIR_ENV = "REPRO_TEST_PID_DIR"


def _quick_then_hang(payload: dict) -> dict:
    """Task 0 returns immediately; the rest record their pool process
    pid and grind until terminated."""
    if payload["i"] == 0:
        return {"i": 0}
    pid_dir = Path(os.environ[_PID_DIR_ENV])
    (pid_dir / str(os.getpid())).write_text("busy")
    time.sleep(120)
    return payload  # pragma: no cover — only reached if never killed


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True


def test_closing_the_generator_terminates_pool_workers(tmp_path, monkeypatch):
    """Unwinding mid-run (KeyboardInterrupt, StallError, an abandoned
    generator) must terminate the pool instead of waiting on — or
    orphaning — workers still grinding on simulation cells."""
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    payloads = [{"i": i} for i in range(4)]
    outcomes = run_tasks(payloads, _quick_then_hang, parallel=2)

    first = next(outcomes)
    assert first.ok and first.value == {"i": 0}
    # at least one hanging task is now running in a pool process
    deadline = time.time() + 20
    while not list(tmp_path.iterdir()) and time.time() < deadline:
        time.sleep(0.05)
    busy = [int(p.name) for p in tmp_path.iterdir()]
    assert busy, "no hanging task ever started"

    t0 = time.time()
    outcomes.close()  # GeneratorExit unwinds through run_tasks' finally
    assert time.time() - t0 < 30, "close() waited on hung workers"

    deadline = time.time() + 10
    while any(_alive(pid) for pid in busy) and time.time() < deadline:
        time.sleep(0.05)
    leaked = [pid for pid in busy if _alive(pid)]
    assert not leaked, f"pool processes leaked after close(): {leaked}"


def test_closing_the_generator_closes_worker_connections(fake_workers):
    """The same unwinding over a Coordinator pool must close every
    worker connection, so no daemon keeps grinding for a coordinator
    that has gone away."""
    workers = fake_workers("good", "hang")
    outcomes = run_tasks(
        [{"cell": i} for i in range(4)], execute_campaign_payload,
        pool=fake_coordinator(workers),
    )
    first = next(outcomes)
    assert first.ok

    outcomes.close()
    hung_up = [w.hung_up.wait(10) for w in workers]
    assert all(hung_up), "a worker connection outlived close()"
