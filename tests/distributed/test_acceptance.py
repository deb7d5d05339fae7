"""End-to-end acceptance: real daemons, real kills, identical results.

Spawns actual ``python -m repro worker`` subprocesses on kernel-assigned
localhost ports, drives a campaign through them, and SIGKILLs one
mid-flight.  The distributed run must finish with zero defects and its
content-addressed store must be bit-identical (modulo wall-clock) to a
serial run of the same campaign — the exactly-once-via-content-address
argument of docs/DISTRIBUTED.md, tested rather than asserted.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.distributed import DistributedExecutor, ping_workers, shutdown_workers
from repro.fault.campaign import CampaignConfig, CampaignRunner
from repro.orch.serialize import comparable_payload
from repro.orch.store import ResultStore

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Small but non-trivial: enough cells that a worker killed after the
#: first completions still leaves work to reassign.
CONFIG = CampaignConfig(seeds=8, master_seed=7, app="private",
                        n_nodes=4, refs_per_proc=600)

_ANNOUNCE = re.compile(r"listening on (\S+):(\d+) \(slots=\d+, pid=(\d+)\)")


def _spawn_worker(tmp_path: Path, *extra: str) -> tuple[subprocess.Popen, tuple[str, int]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "worker-cache")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--listen", "127.0.0.1:0", "--parallel", "1", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, bufsize=1,
        # its own session, so teardown can kill the worker's process
        # pool with it: pool children outlive a SIGKILLed or
        # --max-tasks-exited parent otherwise
        start_new_session=True,
    )
    line = proc.stdout.readline()
    match = _ANNOUNCE.search(line)
    assert match, f"worker announced nothing parseable: {line!r}"
    return proc, (match.group(1), int(match.group(2)))


def _session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``; empty where
    ``/proc`` does not exist."""
    proc_root = Path("/proc")
    members = []
    for entry in proc_root.iterdir() if proc_root.is_dir() else ():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # exited while we looked
            continue
        # after the parenthesised command: state ppid pgrp session ...
        state, _ppid, _pgrp, session = stat.rsplit(")", 1)[1].split()[:4]
        if int(session) == sid and state != "Z":
            members.append(int(entry.name))
    return members


def _store_payloads(root: Path) -> dict[str, dict]:
    """key -> stored payload with wall-clock noise stripped."""
    payloads = {}
    for path in (root / "objects").rglob("*.json"):
        record = json.loads(path.read_text())
        payloads[record["key"]] = comparable_payload(record["payload"])
    return payloads


def _run_serial(tmp_path: Path) -> dict[str, dict]:
    store_dir = tmp_path / "serial"
    report = CampaignRunner(CONFIG, store=ResultStore(store_dir)).run()
    assert report.ok
    return _store_payloads(store_dir)


@pytest.fixture
def workers(tmp_path):
    spawned: list[subprocess.Popen] = []

    def _spawn(*extra: str):
        proc, addr = _spawn_worker(tmp_path, *extra)
        spawned.append(proc)
        return proc, addr

    yield _spawn
    for proc in spawned:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # worker + pool children
        except ProcessLookupError:  # the whole session already exited
            pass
        proc.wait(timeout=10)
        proc.stdout.close()
        deadline = time.monotonic() + 10
        while (left := _session_members(proc.pid)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not left, f"worker session {proc.pid} survived teardown: {left}"


def test_two_workers_match_serial_bit_identically(tmp_path, workers):
    _w1, addr1 = workers()
    _w2, addr2 = workers()
    assert all(row["ok"] for row in ping_workers([addr1, addr2]))

    store_dir = tmp_path / "dist"
    executor = DistributedExecutor([addr1, addr2],
                                   heartbeat_interval=0.2, heartbeat_misses=5)
    report = CampaignRunner(CONFIG, store=ResultStore(store_dir)).run(
        executor=executor
    )
    assert report.ok
    assert report.executor == "distributed"
    assert report.dispatch["connected"] == 2
    assert report.dispatch["worker_deaths"] == 0

    assert _store_payloads(store_dir) == _run_serial(tmp_path)

    # both daemons survive for reuse, then drain cleanly on request
    assert all(row["ok"] for row in ping_workers([addr1, addr2]))
    assert all(row["ok"] for row in shutdown_workers([addr1, addr2]))


def test_sigkill_one_worker_mid_campaign(tmp_path, workers):
    """Kill -9 one of two daemons with cells in flight: the campaign
    still completes, the dead worker's cells are reassigned without
    consuming retry budget, and the merged store is bit-identical to a
    serial run."""
    _w1, addr1 = workers()
    w2, addr2 = workers()

    killed = {"done": False}

    def on_cell(event: dict) -> None:
        if not killed["done"]:
            killed["done"] = True
            os.kill(w2.pid, signal.SIGKILL)

    store_dir = tmp_path / "dist-kill"
    executor = DistributedExecutor([addr1, addr2],
                                   heartbeat_interval=0.2, heartbeat_misses=5)
    report = CampaignRunner(CONFIG, store=ResultStore(store_dir)).run(
        executor=executor, on_cell=on_cell
    )
    assert killed["done"]
    assert w2.wait(timeout=10) == -signal.SIGKILL
    assert report.ok, f"defect outcomes after worker kill: {report.to_dict()}"
    assert report.dispatch["worker_deaths"] == 1
    assert report.dispatch["reassignments"] >= 1

    assert _store_payloads(store_dir) == _run_serial(tmp_path)


def test_max_tasks_chaos_knob_forces_reassignment(tmp_path, workers):
    """--max-tasks N hard-exits on task N+1 *before answering it*, so a
    reassignment is guaranteed deterministically (the CI smoke path)."""
    _w1, addr1 = workers()
    w2, addr2 = workers("--max-tasks", "2")

    store_dir = tmp_path / "dist-chaos"
    executor = DistributedExecutor([addr1, addr2],
                                   heartbeat_interval=0.2, heartbeat_misses=5)
    report = CampaignRunner(CONFIG, store=ResultStore(store_dir)).run(
        executor=executor
    )
    assert w2.wait(timeout=30) == 2  # os._exit(2) on the fatal task
    assert report.ok
    assert report.dispatch["worker_deaths"] == 1
    assert report.dispatch["reassignments"] >= 1
    assert _store_payloads(store_dir) == _run_serial(tmp_path)
