"""The dispatch coordinator: a pool of worker daemons.

:class:`Coordinator` is a ``concurrent.futures``-style executor —
``submit(fn, payload) -> Future`` and ``shutdown(wait, cancel_futures)``
— whose slots live in ``repro worker`` daemons.
:func:`repro.orch.executor.run_tasks` drives it exactly as it drives a
local ``ProcessPoolExecutor``, so retry, backoff, per-cell timeout,
serial fallback and outcome accounting exist only there, and the
store-before-journal crash discipline (and therefore ``--resume``)
holds for either pool.  The coordinator keeps what is distributed:

- **dialling**: every worker is dialled with bounded redial, then the
  handshake checks versions and the shared token;
- **liveness**: one reader thread per worker, and heartbeats;
- **worker death** (socket EOF/reset, or ``heartbeat_misses``
  consecutive missed pongs): every cell in flight on that worker moves
  to the survivors.  Its future just stays pending, so the move uses
  none of the cell's retry budget — the cell did nothing wrong;
- **total worker loss**: :meth:`Coordinator.live_slots` and
  :meth:`Coordinator.submit` raise ``BrokenExecutor``, which
  ``run_tasks`` (reading ``live_slots`` on every pass) answers by
  running every unanswered cell serially in-process, as for a dead
  local pool.  The abandoned futures stay pending until ``shutdown``
  cancels them.  With ``local_fallback=False`` the same two calls
  raise :class:`DispatchError` instead.

A cell a worker answers with ``ok: false`` fails its future with
:class:`WorkerError`.  A cancelled future (``run_tasks`` abandoning a
timed-out cell) frees its worker slot, and a late answer is discarded
by task id.

Exactly-once *effects* come for free from content addressing: a cell
moved after an answer was lost in flight recomputes the same
deterministic result under the same key, and the store's atomic
same-content write makes the duplicate harmless.

Once dialling is done, reader threads and the submitting thread only
post events to a queue; one dispatch thread owns the registry and all
sends, and settles the futures.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    InvalidStateError,
)
from concurrent.futures import wait as wait_futures
from dataclasses import asdict, dataclass

from repro.distributed import framing, protocol
from repro.distributed.framing import ConnectionClosed, FrameError
from repro.distributed.registry import WorkerHandle, WorkerRegistry, WorkerState


class DispatchError(RuntimeError):
    """The coordinator cannot run at all (e.g. no worker reachable)."""


class WorkerError(Exception):
    """A worker answered a cell with ``ok: false``; the message is the
    worker's own error text (``Type: message``), which ``run_tasks``
    reports unchanged."""

    relayed = True


def _shutdown_close(sock: socket.socket) -> None:
    """Half-close then close, waking any thread blocked in ``recv``.

    A bare ``close()`` while this process's reader thread is parked in
    ``recv`` on the same socket never reaches the kernel-side close (the
    blocked syscall pins the open file), so no FIN is sent and the peer
    waits forever.  ``shutdown`` sends the FIN immediately and unblocks
    the reader.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _settle(future: Future, value=None, error: BaseException | None = None) -> None:
    """Complete ``future`` unless ``run_tasks`` already cancelled it."""
    try:
        if error is None:
            future.set_result(value)
        else:
            future.set_exception(error)
    except InvalidStateError:
        pass


@dataclass
class DispatchStats:
    """Fleet facts of one coordinator, for reports and the dashboard."""

    n_workers: int = 0
    connected: int = 0
    reassignments: int = 0
    worker_deaths: int = 0


@dataclass
class _Cell:
    """One submitted cell, from ``submit`` until its future settles."""

    future: Future
    kind: str
    payload: dict


class Coordinator(Executor):
    """A pool whose slots are the configured worker daemons'."""

    def __init__(
        self,
        addrs: list[tuple[str, int]],
        heartbeat_interval: float = 1.0,
        heartbeat_misses: int = 3,
        connect_timeout: float = 5.0,
        connect_retries: int = 5,
        connect_backoff: float = 0.3,
        local_fallback: bool = True,
        token: str | None = None,
        log=None,
    ):
        if not addrs:
            raise DispatchError("a coordinator needs at least one worker address")
        if connect_retries < 1:
            raise DispatchError("connect_retries must be at least 1")
        self.registry = WorkerRegistry(addrs)
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.connect_timeout = connect_timeout
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.local_fallback = local_fallback
        self.token = token
        self.stats = DispatchStats(n_workers=len(addrs))
        self._log = log or (lambda _msg: None)
        self._events: queue.Queue = queue.Queue()
        self._sockets: dict[int, socket.socket] = {}  # id(worker) -> sock
        self._writers: dict[int, framing.FrameWriter] = {}
        self._lock = threading.Lock()  # snapshot()/live_slots() vs dispatch
        self._pending: list[_Cell] = []  # submitted, waiting for a slot
        self._assigned: dict[int, tuple[_Cell, WorkerHandle]] = {}  # task_id ->
        self._next_task_id = 0
        self._unfinished: set[Future] = set()
        self._started = False
        self._closed = False
        #: Raised by submit/live_slots once the pool cannot run cells.
        self._broken: Exception | None = None
        self._dispatcher: threading.Thread | None = None

    # -- the executor interface ------------------------------------------

    def submit(self, fn, payload: dict) -> Future:
        """Queue one cell of ``fn``'s registered task kind."""
        kind = protocol.kind_for(fn)
        if kind is None:
            raise DispatchError(
                f"{fn.__module__}.{fn.__qualname__} is not a "
                "registered distributed task kind"
            )
        if self._closed:
            raise RuntimeError("cannot submit to a shut-down coordinator")
        self._start()
        if self._broken is not None:
            raise self._broken
        future: Future = Future()
        self._unfinished.add(future)
        future.add_done_callback(self._unfinished.discard)
        self._events.put(("submit", None, _Cell(future, kind, payload)))
        return future

    def live_slots(self) -> int:
        """Cells the live workers run at once; changes as workers join
        and die.  Raises the pool's failure once every worker is dead,
        like :meth:`submit`."""
        self._start()
        with self._lock:
            if self._broken is not None:
                raise self._broken
            return sum(w.slots for w in self.registry.up())

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Stop dispatching and close every worker connection (the
        daemons stay up for reuse)."""
        if cancel_futures:
            for future in list(self._unfinished):
                future.cancel()
        if wait and self._broken is None:
            wait_futures(list(self._unfinished))
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.join(5.0)
        while not self._events.empty():  # a welcome nobody handled
            event = self._events.get_nowait()
            if event[0] == "welcome":
                _shutdown_close(event[3])
        for sock in list(self._sockets.values()):
            _shutdown_close(sock)
        self._sockets.clear()
        self._writers.clear()

    def snapshot(self) -> dict:
        """Thread-safe fleet view for reports and ``repro serve``."""
        with self._lock:
            stats = asdict(self.stats)
            stats["workers"] = self.registry.snapshot()
        return stats

    # -- connection management -------------------------------------------

    def _connect_budget(self) -> float:
        """Worst-case seconds one worker's whole dial loop can take
        (every attempt times out, every backoff is slept)."""
        backoff = sum(
            self.connect_backoff * (2 ** i)
            for i in range(self.connect_retries - 1)
        )
        return self.connect_retries * self.connect_timeout + backoff

    def _start(self) -> None:
        """Dial every worker and start dispatching (once, on first use)."""
        if self._started:
            return
        self._started = True
        for worker in self.registry:
            threading.Thread(
                target=self._connect_one, args=(worker,),
                name=f"connect-{worker.name}", daemon=True,
            ).start()
        # drain connection results before the first assignment so the very
        # first cells fill the slots of every worker that came up; once
        # the first wave is in, stop waiting — a straggler still inside
        # its retry loop joins the pool mid-run through the dispatch loop
        deadline = time.monotonic() + self._connect_budget()
        first_wave = time.monotonic() + self.connect_timeout
        while time.monotonic() < deadline:
            if not any(w.state is WorkerState.CONNECTING for w in self.registry):
                break
            if self.registry.up() and time.monotonic() >= first_wave:
                break
            self._drain()
        if not self.registry.up():
            reasons = ", ".join(
                f"{w.name}: {w.death_reason or 'still dialling'}"
                for w in self.registry
            )
            with self._lock:
                self._broken = DispatchError(f"no worker reachable ({reasons})")
            raise self._broken
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="coordinator-dispatch", daemon=True
        )
        self._dispatcher.start()

    def _connect_one(self, worker: WorkerHandle) -> None:
        """Dial one worker, retrying with exponential backoff.

        Coordinator and daemons may start in any order: a refused dial
        usually means the daemon is not listening *yet*, so within a
        bounded budget a failed attempt is deferral, not death.
        """
        backoff = self.connect_backoff
        for attempt in range(1, self.connect_retries + 1):
            try:
                sock = socket.create_connection(
                    worker.addr, timeout=self.connect_timeout
                )
                sock.settimeout(None)
                framing.send_frame(sock, protocol.hello(token=self.token))
                welcome = protocol.check_welcome(
                    framing.recv_frame(sock), token=self.token
                )
            except (OSError, ConnectionClosed, FrameError,
                    protocol.ProtocolError) as exc:
                if attempt < self.connect_retries:
                    self._log(
                        f"worker {worker.name} not ready "
                        f"(attempt {attempt}/{self.connect_retries}: {exc}); "
                        f"retrying in {backoff:.1f}s"
                    )
                    time.sleep(backoff)
                    backoff *= 2
                    continue
                self._events.put((
                    "dead", worker,
                    f"connect failed after {attempt} attempt(s): {exc}",
                ))
                return
            if self._closed:  # a straggler landing after shutdown
                _shutdown_close(sock)
            else:
                self._events.put(("welcome", worker, welcome, sock))
            return

    def _start_reader(self, worker: WorkerHandle, sock: socket.socket) -> None:
        def read_loop() -> None:
            while True:
                try:
                    message = framing.recv_frame(sock)
                except ConnectionClosed as exc:
                    self._events.put(("dead", worker, str(exc)))
                    return
                except (FrameError, OSError) as exc:
                    self._events.put(("dead", worker, f"stream error: {exc}"))
                    return
                self._events.put(("frame", worker, message))

        threading.Thread(
            target=read_loop, name=f"reader-{worker.name}", daemon=True
        ).start()

    def _drop_worker(self, worker: WorkerHandle, reason: str) -> None:
        """Mark ``worker`` dead and move its in-flight cells back to the
        pending list; their futures stay pending."""
        if worker.state is WorkerState.DEAD or self._closed:
            return
        with self._lock:
            stranded = worker.mark_dead(reason)
            self.stats.worker_deaths += 1
            self.stats.reassignments += len(stranded)
        self._log(f"worker {worker.name} lost ({reason}); "
                  f"reassigning {len(stranded)} in-flight cell(s)")
        sock = self._sockets.pop(id(worker), None)
        self._writers.pop(id(worker), None)
        if sock is not None:
            _shutdown_close(sock)
        for task_id in stranded:
            cell, _worker = self._assigned.pop(task_id)
            self._pending.append(cell)

    # -- the dispatch thread ---------------------------------------------

    def _dispatch_loop(self) -> None:
        last_heartbeat = time.monotonic()
        while not self._closed:
            self._drain()
            now = time.monotonic()
            if now - last_heartbeat >= self.heartbeat_interval:
                last_heartbeat = now
                self._heartbeat(now)
            self._assign()
            if self.registry.all_dead():
                self._break()

    def _heartbeat(self, now: float) -> None:
        for worker in self.registry.up():
            if now - worker.last_pong > (
                self.heartbeat_interval * self.heartbeat_misses
            ):
                self._drop_worker(
                    worker, f"missed {self.heartbeat_misses} heartbeats"
                )
                continue
            try:
                self._writers[id(worker)].send(protocol.ping(time.time()))
            except (OSError, FrameError) as exc:
                self._drop_worker(worker, f"ping failed: {exc}")

    def _assign(self) -> None:
        """Free the slots of cancelled cells, then fill free slots."""
        for task_id, (cell, worker) in list(self._assigned.items()):
            if cell.future.cancelled():
                del self._assigned[task_id]
                with self._lock:
                    worker.inflight.pop(task_id, None)
        self._pending = [c for c in self._pending if not c.future.cancelled()]
        for worker in self.registry.with_free_slot():
            while self._pending and worker.free_slots > 0:
                cell = self._pending.pop(0)
                task_id = self._next_task_id
                self._next_task_id += 1
                try:
                    self._writers[id(worker)].send(
                        protocol.task(task_id, cell.kind, cell.payload)
                    )
                except (OSError, FrameError) as exc:
                    self._pending.insert(0, cell)
                    self._drop_worker(worker, f"send failed: {exc}")
                    break
                with self._lock:
                    worker.inflight[task_id] = time.monotonic()
                self._assigned[task_id] = (cell, worker)

    def _break(self) -> None:
        """Every worker is dead: from now on ``live_slots`` and ``submit``
        raise, and the caller takes back every unanswered cell (called
        on every pass, so a cell submitted in the meantime is dropped
        too)."""
        if self._broken is None:
            message = (f"every worker died with {len(self._pending)} "
                       "cell(s) in flight")
            with self._lock:
                self._broken = (
                    BrokenExecutor(message) if self.local_fallback
                    else DispatchError(message)
                )
            if self.local_fallback:
                self._log("all workers dead; the remaining cells fall back "
                          "to in-process execution")
        self._pending.clear()

    def _drain(self) -> None:
        """Handle every queued event, waiting briefly for the first."""
        first = True
        while True:
            try:
                event = self._events.get(block=first, timeout=0.05)
            except queue.Empty:
                return
            first = False
            tag, worker = event[0], event[1]
            if tag == "submit":
                self._pending.append(event[2])
            elif tag == "welcome":
                _, _, welcome, sock = event
                with self._lock:
                    worker.state = WorkerState.UP
                    worker.slots = welcome["slots"]
                    worker.pid = welcome.get("pid")
                    worker.last_pong = time.monotonic()
                    self.stats.connected += 1
                self._sockets[id(worker)] = sock
                self._writers[id(worker)] = framing.FrameWriter(sock)
                self._start_reader(worker, sock)
                self._log(
                    f"worker {worker.name} up "
                    f"(slots={worker.slots}, pid={worker.pid})"
                )
            elif tag == "dead":
                if worker.state is WorkerState.CONNECTING:
                    with self._lock:
                        worker.state = WorkerState.DEAD
                        worker.death_reason = event[2]
                    self._log(f"worker {worker.name} unreachable: {event[2]}")
                else:
                    self._drop_worker(worker, event[2])
            elif tag == "frame":
                message = event[2]
                mtype = message.get("type")
                if mtype == "pong":
                    with self._lock:
                        worker.last_pong = time.monotonic()
                elif mtype == "result":
                    self._handle_result(worker, message)
                else:
                    self._log(
                        f"ignoring unknown frame {mtype!r} from {worker.name}"
                    )

    def _handle_result(self, worker: WorkerHandle, message: dict) -> None:
        task_id = message.get("task_id")
        entry = self._assigned.pop(task_id, None)
        if entry is None:
            return  # late answer to a moved or abandoned cell
        ok = bool(message.get("ok"))
        with self._lock:
            worker.inflight.pop(task_id, None)
            worker.busy_seconds += float(message.get("wall_seconds", 0.0))
            if ok:
                worker.completed += 1
            else:
                worker.failed += 1
        if ok:
            _settle(entry[0].future, message.get("value"))
        else:
            _settle(entry[0].future, error=WorkerError(
                str(message.get("error", "worker reported failure"))
            ))


# -- ops helpers --------------------------------------------------------


def ping_workers(addrs: list[tuple[str, int]],
                 timeout: float = 5.0,
                 token: str | None = None) -> list[dict]:
    """Handshake + one ping per address; returns a status row each."""
    rows = []
    for addr in addrs:
        name = f"{addr[0]}:{addr[1]}"
        t0 = time.perf_counter()
        try:
            with socket.create_connection(addr, timeout=timeout) as sock:
                framing.send_frame(sock, protocol.hello(token=token))
                welcome = protocol.check_welcome(
                    framing.recv_frame(sock), token=token
                )
                framing.send_frame(sock, protocol.ping(time.time()))
                reply = framing.recv_frame(sock)
                if reply.get("type") != "pong":
                    raise protocol.ProtocolError(
                        f"expected pong, got {reply.get('type')!r}"
                    )
            rows.append({
                "addr": name, "ok": True,
                "slots": welcome["slots"], "pid": welcome.get("pid"),
                "rtt_ms": round((time.perf_counter() - t0) * 1000, 2),
            })
        except (OSError, ConnectionClosed, FrameError,
                protocol.ProtocolError) as exc:
            rows.append({"addr": name, "ok": False, "error": str(exc)})
    return rows


def shutdown_workers(addrs: list[tuple[str, int]],
                     timeout: float = 5.0,
                     token: str | None = None) -> list[dict]:
    """Ask every reachable daemon to exit; returns a status row each."""
    rows = []
    for addr in addrs:
        name = f"{addr[0]}:{addr[1]}"
        try:
            with socket.create_connection(addr, timeout=timeout) as sock:
                framing.send_frame(sock, protocol.hello(token=token))
                protocol.check_welcome(framing.recv_frame(sock), token=token)
                framing.send_frame(sock, protocol.shutdown())
            rows.append({"addr": name, "ok": True})
        except (OSError, ConnectionClosed, FrameError,
                protocol.ProtocolError) as exc:
            rows.append({"addr": name, "ok": False, "error": str(exc)})
    return rows
