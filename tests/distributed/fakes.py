"""Scripted in-process worker daemons for coordinator tests.

A :class:`FakeWorker` thread speaks the wire protocol and misbehaves on
cue, so the coordinator's failure handling (and ``run_tasks`` driving
it) can be exercised without spawning real daemons.  The payloads never
execute anywhere; the fakes answer from a script, which is all the
coordinator can observe anyway.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time

from repro.distributed import framing, protocol
from repro.distributed.coordinator import Coordinator
from repro.distributed.framing import ConnectionClosed, FrameError


class FakeWorker(threading.Thread):
    """A scripted worker daemon: one connection, one behaviour.

    Modes: ``good`` answers everything with ``{"echo": payload}``;
    ``slow`` does the same after a short think; ``silent`` handshakes
    then never replies (heartbeat-miss fodder); ``hang`` answers pings
    but never answers a task; ``die-on-task`` drops the connection upon
    its first task (EOF with the cell in flight); ``always-error``
    answers every task with ``ok: false`` (``RuntimeError: boom
    <cell>``, the text a real worker sends for a raising cell);
    ``flaky`` fails each payload's first task and answers
    ``"recovered"`` afterwards.

    ``hung_up`` is set once the coordinator closes the connection.
    """

    def __init__(self, mode: str = "good", slots: int = 1, port: int = 0):
        super().__init__(daemon=True)
        self.mode = mode
        self.slots = slots
        self.tasks_seen = 0
        self.hung_up = threading.Event()
        self._failed_once: set[str] = set()
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", port))
        self.listener.listen(1)
        self.addr = self.listener.getsockname()

    def close(self) -> None:
        try:
            self.listener.close()
        except OSError:
            pass

    def _answer(self, message: dict) -> dict:
        task_id, payload = message["task_id"], message["payload"]
        if self.mode == "always-error":
            return protocol.result_error(
                task_id, f"RuntimeError: boom {payload.get('cell')}", 0.01
            )
        if self.mode == "flaky":
            key = json.dumps(payload, sort_keys=True)
            if key not in self._failed_once:
                self._failed_once.add(key)
                return protocol.result_error(
                    task_id, "RuntimeError: first attempt fails", 0.01
                )
            return protocol.result_ok(task_id, "recovered", 0.01)
        return protocol.result_ok(task_id, {"echo": payload}, 0.01)

    def run(self) -> None:
        try:
            conn, _peer = self.listener.accept()
        except OSError:
            return
        try:
            protocol.check_hello(framing.recv_frame(conn))
            framing.send_frame(
                conn, protocol.welcome(slots=self.slots, pid=os.getpid())
            )
            while True:
                message = framing.recv_frame(conn)
                if self.mode == "silent":
                    continue
                mtype = message.get("type")
                if mtype == "ping":
                    framing.send_frame(conn, protocol.pong(message["t"]))
                elif mtype == "task":
                    self.tasks_seen += 1
                    if self.mode == "die-on-task":
                        conn.close()
                        return
                    if self.mode == "hang":
                        continue
                    if self.mode == "slow":
                        time.sleep(0.05)
                    framing.send_frame(conn, self._answer(message))
                elif mtype == "shutdown":
                    return
        except (ConnectionClosed, FrameError, OSError):
            self.hung_up.set()
        except protocol.ProtocolError:
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass


def fake_coordinator(workers: list[FakeWorker], **kwargs) -> Coordinator:
    """A coordinator over ``workers`` with test-speed heartbeats."""
    kwargs.setdefault("heartbeat_interval", 0.05)
    kwargs.setdefault("heartbeat_misses", 2)
    kwargs.setdefault("connect_timeout", 5.0)
    return Coordinator([w.addr for w in workers], **kwargs)
