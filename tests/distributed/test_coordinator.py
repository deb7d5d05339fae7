"""Coordinator fault handling against scripted in-process workers.

These tests drive a :class:`Coordinator` pool through ``run_tasks`` and
exercise its distributed failure semantics — heartbeat misses, EOF
deaths, reassignment, total worker loss — without spawning real
daemons: the :class:`~tests.distributed.fakes.FakeWorker` threads
speak the wire protocol and misbehave on cue.  Retry and timeout are
``run_tasks``' and are checked on both pools in
``tests/orch/test_executor.py``.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.distributed import protocol
from repro.distributed.coordinator import Coordinator, DispatchError
from repro.distributed.registry import WorkerState
from repro.fault.campaign import execute_campaign_payload
from repro.orch.executor import run_tasks
from tests.distributed.fakes import FakeWorker, fake_coordinator


def _run(coordinator: Coordinator, payloads: list[dict], **kwargs) -> list:
    return list(run_tasks(payloads, execute_campaign_payload,
                          pool=coordinator, **kwargs))


def _square(payload: dict) -> int:
    return payload["cell"] ** 2


PAYLOADS = [{"cell": i} for i in range(6)]


def test_dispatches_across_workers(fake_workers):
    workers = fake_workers("good", "good")
    coordinator = fake_coordinator(workers)
    outcomes = _run(coordinator, PAYLOADS)
    assert len(outcomes) == len(PAYLOADS)
    assert all(o.ok for o in outcomes)
    assert sorted(o.value["echo"]["cell"] for o in outcomes) == list(range(6))
    assert all(o.mode == "parallel" for o in outcomes)
    snapshot = coordinator.snapshot()
    assert snapshot["connected"] == 2
    assert sum(w["completed"] for w in snapshot["workers"]) == len(PAYLOADS)
    assert snapshot["worker_deaths"] == 0
    # both fakes actually carried load
    assert all(w.tasks_seen > 0 for w in workers)


def test_heartbeat_miss_kills_worker_and_reassigns(fake_workers):
    workers = fake_workers("good", "silent")
    coordinator = fake_coordinator(workers)
    outcomes = _run(coordinator, PAYLOADS)
    assert len(outcomes) == len(PAYLOADS)
    assert all(o.ok for o in outcomes)
    snapshot = coordinator.snapshot()
    assert snapshot["worker_deaths"] == 1
    assert snapshot["reassignments"] >= 1
    dead = [w for w in coordinator.registry if w.state is WorkerState.DEAD]
    assert len(dead) == 1
    assert "heartbeat" in dead[0].death_reason
    # reassignment must not have consumed the cells' retry budget
    assert all(o.attempts == 1 for o in outcomes)


def test_eof_death_reassigns_inflight_cell(fake_workers):
    workers = fake_workers("good", "die-on-task")
    coordinator = fake_coordinator(workers)
    outcomes = _run(coordinator, PAYLOADS)
    assert len(outcomes) == len(PAYLOADS)
    assert all(o.ok for o in outcomes)
    snapshot = coordinator.snapshot()
    assert snapshot["worker_deaths"] == 1
    assert snapshot["reassignments"] >= 1


def _free_addr() -> tuple[str, int]:
    """A freshly bound-then-closed port: nothing listens there (yet)."""
    probe = socket.socket()
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    addr = probe.getsockname()
    probe.close()
    return addr


def test_no_worker_reachable_raises_dispatch_error():
    coordinator = Coordinator(
        [_free_addr()], connect_timeout=2.0,
        connect_retries=2, connect_backoff=0.05,
    )
    with pytest.raises(DispatchError, match="no worker reachable"):
        _run(coordinator, PAYLOADS)
    dead = [w for w in coordinator.registry if w.state is WorkerState.DEAD]
    assert len(dead) == 1
    # the bounded redial ran out, and the reason says so
    assert "after 2 attempt(s)" in dead[0].death_reason


def test_connect_retry_tolerates_late_worker_start():
    """Start order must not matter: the daemon comes up *after* the
    coordinator begins dialling, and the bounded redial bridges the
    gap instead of declaring the worker dead."""
    addr = _free_addr()
    late: list[FakeWorker] = []

    def start_worker():
        worker = FakeWorker(mode="good", port=addr[1])
        worker.start()
        late.append(worker)

    timer = threading.Timer(0.6, start_worker)
    timer.start()
    try:
        coordinator = Coordinator(
            [addr], connect_timeout=2.0,
            connect_retries=8, connect_backoff=0.1,
            local_fallback=False,
        )
        outcomes = _run(coordinator, PAYLOADS)
    finally:
        timer.cancel()
        for worker in late:
            worker.close()
    assert late, "the late worker never started"
    assert len(outcomes) == len(PAYLOADS)
    assert all(o.ok for o in outcomes)
    snapshot = coordinator.snapshot()
    assert snapshot["connected"] == 1
    assert snapshot["worker_deaths"] == 0
    # no cell fell back to in-process execution
    assert all(o.mode == "parallel" for o in outcomes)


def test_straggler_joins_pool_mid_run(fake_workers):
    """One worker is up immediately, the other's daemon starts late:
    dispatch begins on the first wave and the straggler joins the
    pool once its redial lands, without stalling the run."""
    workers = fake_workers("slow")
    addr = _free_addr()
    late: list[FakeWorker] = []

    def start_worker():
        worker = FakeWorker(mode="good", port=addr[1])
        worker.start()
        late.append(worker)

    timer = threading.Timer(0.5, start_worker)
    timer.start()
    try:
        coordinator = Coordinator(
            [workers[0].addr, addr], connect_timeout=0.3,
            connect_retries=10, connect_backoff=0.1,
            local_fallback=False,
        )
        # enough cells that the run outlives the straggler's redial
        payloads = [{"cell": i} for i in range(40)]
        outcomes = _run(coordinator, payloads)
    finally:
        timer.cancel()
        for worker in late:
            worker.close()
    assert len(outcomes) == len(payloads)
    assert all(o.ok for o in outcomes)
    snapshot = coordinator.snapshot()
    assert snapshot["connected"] == 2
    assert snapshot["worker_deaths"] == 0
    # the straggler actually carried load once it joined
    assert late[0].tasks_seen > 0


def test_unknown_kind_is_refused_up_front():
    """An unregistered callable is refused before any worker is dialled."""
    coordinator = Coordinator([_free_addr()])
    with pytest.raises(DispatchError, match="not a registered"):
        coordinator.submit(_square, {"cell": 1})
    assert all(w.state is WorkerState.CONNECTING for w in coordinator.registry)
    coordinator.shutdown()


def test_cell_errors_retry_then_fail(fake_workers):
    workers = fake_workers("always-error")
    coordinator = fake_coordinator(workers, local_fallback=False)
    payloads = PAYLOADS[:2]
    outcomes = _run(coordinator, payloads, max_retries=1, retry_backoff=0.0)
    assert len(outcomes) == len(payloads)
    assert all(not o.ok for o in outcomes)
    # the worker's own text, exactly as the local pool would report it
    assert all(o.error == f"RuntimeError: boom {payloads[o.index]['cell']}"
               for o in outcomes)
    assert all(o.attempts == 2 for o in outcomes)  # 1 try + 1 retry
    assert workers[0].tasks_seen == 4
    assert coordinator.snapshot()["workers"][0]["failed"] == 4


def test_total_worker_loss_without_fallback_raises(fake_workers):
    workers = fake_workers("die-on-task")
    coordinator = fake_coordinator(workers, local_fallback=False)
    with pytest.raises(DispatchError, match="every worker died"):
        _run(coordinator, PAYLOADS)


def test_total_worker_loss_with_every_cell_submitted_raises(fake_workers):
    """Every cell is already in flight when the last worker dies: the
    queue is empty, and the run must still stop with DispatchError
    rather than wait on futures no worker will ever answer."""
    workers = fake_workers("die-on-task", slots=len(PAYLOADS))
    coordinator = fake_coordinator(workers, local_fallback=False)
    raised: list[BaseException] = []

    def run() -> None:
        try:
            _run(coordinator, PAYLOADS)
        except BaseException as exc:  # noqa: BLE001 — inspected below
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(10.0)
    assert not runner.is_alive(), "run_tasks hung after total worker loss"
    assert len(raised) == 1 and isinstance(raised[0], DispatchError)
    assert "every worker died" in str(raised[0])


def test_total_worker_loss_falls_back_to_serial(fake_workers, monkeypatch):
    """Every worker dead: the coordinator breaks like a dead local pool
    and run_tasks finishes every cell in-process."""
    monkeypatch.setitem(protocol.TASK_KINDS, "test-square",
                        f"{__name__}:_square")
    workers = fake_workers("die-on-task")
    coordinator = fake_coordinator(workers)
    outcomes = list(run_tasks(PAYLOADS, _square, pool=coordinator))
    assert sorted(o.value for o in outcomes) == [i * i for i in range(6)]
    assert {o.mode for o in outcomes} == {"serial"}
    assert all(o.attempts == 1 for o in outcomes)
    assert coordinator.snapshot()["worker_deaths"] == 1


def test_executor_refuses_unregistered_callables(fake_workers):
    workers = fake_workers("good")
    coordinator = fake_coordinator(workers)
    with pytest.raises(DispatchError, match="not a registered"):
        list(run_tasks(PAYLOADS, _square, pool=coordinator))


def test_executor_runs_and_records_stats(fake_workers):
    workers = fake_workers("good", slots=2)
    coordinator = fake_coordinator(workers)
    outcomes = _run(coordinator, PAYLOADS)
    assert all(o.ok for o in outcomes)
    snapshot = coordinator.snapshot()
    assert snapshot["workers"][0]["slots"] == 2
    assert snapshot["workers"][0]["completed"] == len(PAYLOADS)
    assert snapshot["workers"][0]["inflight"] == 0


def test_stress_every_cell_settles_exactly_once(fake_workers):
    """More worker slots than cores and a tiny switch interval: the
    submitting thread, the dispatch thread and six reader threads
    interleave as much as they can, and still every cell's future
    settles exactly once with its own answer."""
    import sys

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = fake_workers(*["good"] * 6, slots=2)
        coordinator = fake_coordinator(workers)
        payloads = [{"cell": i} for i in range(300)]
        outcomes = _run(coordinator, payloads)
    finally:
        sys.setswitchinterval(previous)
    assert sorted(o.index for o in outcomes) == list(range(len(payloads)))
    assert all(o.ok and o.value["echo"] == payloads[o.index] for o in outcomes)
    snapshot = coordinator.snapshot()
    assert sum(w["completed"] for w in snapshot["workers"]) == len(payloads)
    assert all(w["inflight"] == 0 for w in snapshot["workers"])
