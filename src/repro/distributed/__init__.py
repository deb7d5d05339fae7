"""Distributed campaign fabric: coordinator/worker dispatch over TCP.

The paper's machine keeps serving traffic while nodes die; this package
gives the *harness* the same property at cluster scale.  A campaign or
sweep is sharded across ``repro worker`` daemons by a coordinator that
survives worker loss (in-flight cells are reassigned), while the PR-2
content-addressed store + journal on the coordinator's side survives
coordinator loss (``--resume`` replays exactly).  ``repro serve`` turns
the whole thing into a long-running observable service.

- :mod:`repro.distributed.framing` — length-prefixed JSON frames;
- :mod:`repro.distributed.protocol` — message schema, version checks,
  and the task-kind allowlist (no code crosses the wire);
- :mod:`repro.distributed.worker` — the ``repro worker`` daemon;
- :mod:`repro.distributed.registry` — coordinator-side worker health;
- :mod:`repro.distributed.coordinator` — the :class:`Coordinator`
  pool: dialling, heartbeats and reassignment, driven by
  :func:`repro.orch.executor.run_tasks` like a local process pool;
- :mod:`repro.distributed.serve` — the ``repro serve`` HTTP API and
  live dashboard.
"""

from repro.distributed.coordinator import (
    Coordinator,
    DispatchError,
    DispatchStats,
    WorkerError,
    ping_workers,
    shutdown_workers,
)
from repro.distributed.framing import (
    ConnectionClosed,
    FrameError,
    FrameWriter,
    MAX_FRAME_BYTES,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    TASK_KINDS,
    kind_for,
    parse_addr,
    parse_workers,
    resolve_kind,
)
from repro.distributed.registry import WorkerHandle, WorkerRegistry, WorkerState
from repro.distributed.serve import DashboardServer, ServeState
from repro.distributed.worker import WorkerDaemon

__all__ = [
    "ConnectionClosed",
    "Coordinator",
    "DashboardServer",
    "DispatchError",
    "DispatchStats",
    "FrameError",
    "FrameWriter",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeState",
    "TASK_KINDS",
    "WorkerDaemon",
    "WorkerError",
    "WorkerHandle",
    "WorkerRegistry",
    "WorkerState",
    "encode_frame",
    "kind_for",
    "parse_addr",
    "parse_workers",
    "ping_workers",
    "recv_frame",
    "resolve_kind",
    "send_frame",
    "shutdown_workers",
]
