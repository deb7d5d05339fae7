"""``repro serve`` — campaigns as a continuously observable service.

A :class:`ServeState` is the single thread-safe snapshot the campaign
thread writes (one structured event per terminal cell) and the HTTP
threads read.  :class:`DashboardServer` is a stdlib
``ThreadingHTTPServer`` exposing:

====================  ================================================
``GET /``             HTML dashboard (auto-refreshing, no dependencies)
``GET /api/status``   full JSON snapshot: progress, ETA, outcome
                      taxonomy, per-worker throughput, recent events
``GET /api/workers``  the worker table alone
``GET /healthz``      liveness probe (200 while the server is up)
====================  ================================================

The dashboard deliberately renders from the same ``/api/status``
payload an operator would script against, so what you see is exactly
what the API serves.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: Outcome taxonomy order for the dashboard (mirrors fault.outcomes).
OUTCOME_ORDER = (
    "completed", "recovered", "degraded",
    "unrecoverable_expected", "stalled", "simulator_bug",
)


class ServeState:
    """Shared snapshot between the campaign thread and HTTP threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._status = "idle"
        self._config: dict = {}
        self._total = 0
        self._done = 0
        self._from_cache = 0
        self._executed = 0
        self._failed = 0
        self._outcomes: Counter = Counter()
        self._compute_walls: list[float] = []
        self._events: deque = deque(maxlen=50)
        self._started_at: float | None = None
        self._finished_at: float | None = None
        self._parallel = 1
        self._error: str | None = None
        self._result: dict | None = None
        #: zero-arg callable returning a worker-stats dict, or None;
        #: installed while a Coordinator pool runs the campaign.
        self._worker_probe = None
        self._last_workers: list[dict] = []

    # -- campaign-thread writers ----------------------------------------

    def campaign_started(self, config: dict, total: int, parallel: int) -> None:
        with self._lock:
            self._status = "running"
            self._config = dict(config)
            self._total = total
            self._parallel = max(1, parallel)
            self._done = self._from_cache = self._executed = self._failed = 0
            self._outcomes = Counter()
            self._compute_walls = []
            self._events.clear()
            self._started_at = time.time()
            self._finished_at = None
            self._error = None
            self._result = None

    def cell_done(self, event: dict) -> None:
        """One terminal cell: ``{index, label, source, outcome,
        wall_seconds}`` with source in cached|ran|failed."""
        with self._lock:
            self._done += 1
            source = event.get("source")
            if source == "cached":
                self._from_cache += 1
            elif source == "failed":
                self._failed += 1
            else:
                self._executed += 1
                self._compute_walls.append(float(event.get("wall_seconds", 0.0)))
            outcome = event.get("outcome")
            if outcome:
                self._outcomes[outcome] += 1
            self._events.appendleft({**event, "at": time.time()})

    def campaign_finished(self, result: dict) -> None:
        with self._lock:
            self._status = "done" if result.get("ok") else "defects"
            self._finished_at = time.time()
            self._result = result
            self._worker_probe = None

    def campaign_crashed(self, error: str) -> None:
        with self._lock:
            self._status = "failed"
            self._finished_at = time.time()
            self._error = error
            self._worker_probe = None

    def set_worker_probe(self, probe) -> None:
        with self._lock:
            self._worker_probe = probe

    # -- HTTP-thread reader ---------------------------------------------

    def _eta_seconds(self) -> float | None:
        remaining = self._total - self._done
        if not self._compute_walls or remaining <= 0:
            return None
        per_cell = sum(self._compute_walls) / len(self._compute_walls)
        return per_cell * remaining / self._parallel

    def snapshot(self) -> dict:
        with self._lock:
            probe = self._worker_probe
        workers: list[dict] = []
        dispatch: dict | None = None
        if probe is not None:
            try:
                dispatch = probe()
            except Exception:  # noqa: BLE001 — probe races run teardown
                dispatch = None
        with self._lock:
            if dispatch is not None:
                self._last_workers = dispatch.get("workers", [])
            workers = list(self._last_workers)
            elapsed = None
            if self._started_at is not None:
                end = self._finished_at or time.time()
                elapsed = round(end - self._started_at, 1)
            walls = self._compute_walls
            return {
                "status": self._status,
                "config": dict(self._config),
                "progress": {
                    "done": self._done,
                    "total": self._total,
                    "from_cache": self._from_cache,
                    "executed": self._executed,
                    "failed": self._failed,
                    "percent": round(100.0 * self._done / self._total, 1)
                    if self._total else 0.0,
                },
                "outcomes": {
                    name: self._outcomes.get(name, 0) for name in OUTCOME_ORDER
                },
                "eta_seconds": self._eta_seconds(),
                "elapsed_seconds": elapsed,
                "throughput_cells_per_s": (
                    round(len(walls) / sum(walls), 4)
                    if walls and sum(walls) > 0 else 0.0
                ),
                "parallel": self._parallel,
                "workers": workers,
                "dispatch": dispatch,
                "recent": list(self._events),
                "error": self._error,
                "result_summary": (
                    {
                        k: self._result[k]
                        for k in ("n_cells", "defects", "ok")
                        if self._result and k in self._result
                    }
                    if self._result else None
                ),
            }


_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro serve — campaign dashboard</title>
<style>
  :root { color-scheme: light dark; }
  body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
         max-width: 64rem; padding: 0 1rem; }
  h1 { font-size: 1.25rem; } h2 { font-size: 1rem; margin-top: 1.5rem; }
  table { border-collapse: collapse; width: 100%%; }
  th, td { text-align: left; padding: .25rem .75rem .25rem 0;
           border-bottom: 1px solid color-mix(in srgb, currentColor 15%%, transparent); }
  th { font-weight: 600; }
  .bar { height: .75rem; border-radius: .375rem; overflow: hidden;
         background: color-mix(in srgb, currentColor 12%%, transparent); }
  .bar > div { height: 100%%; background: #4a7dbd; transition: width .5s; }
  .tiles { display: flex; gap: 1.5rem; flex-wrap: wrap; margin: 1rem 0; }
  .tile b { display: block; font-size: 1.4rem; }
  .muted { opacity: .65; } .bad { color: #b3443c; font-weight: 600; }
  code { font-size: .85em; }
</style>
</head>
<body>
<h1>repro serve — campaign dashboard</h1>
<div class="tiles">
  <div class="tile"><b id="status">–</b><span class="muted">status</span></div>
  <div class="tile"><b id="done">–</b><span class="muted">cells done</span></div>
  <div class="tile"><b id="eta">–</b><span class="muted">eta</span></div>
  <div class="tile"><b id="thru">–</b><span class="muted">cells/s</span></div>
  <div class="tile"><b id="defects">–</b><span class="muted">defects</span></div>
</div>
<div class="bar"><div id="bar" style="width:0%%"></div></div>
<h2>Outcome taxonomy</h2>
<table id="outcomes"><tbody></tbody></table>
<h2>Workers</h2>
<table id="workers"><thead><tr><th>address</th><th>state</th><th>slots</th>
<th>in flight</th><th>completed</th><th>reassigned away</th><th>cells/s</th>
</tr></thead><tbody></tbody></table>
<h2>Recent cells</h2>
<table id="recent"><tbody></tbody></table>
<p class="muted">Polling <code>/api/status</code> every 2 s.</p>
<script>
async function tick() {
  let s;
  try { s = await (await fetch('/api/status')).json(); }
  catch (e) { document.getElementById('status').textContent = 'unreachable'; return; }
  const p = s.progress;
  document.getElementById('status').textContent = s.status;
  document.getElementById('done').textContent = p.done + '/' + p.total;
  document.getElementById('bar').style.width = p.percent + '%%';
  document.getElementById('eta').textContent =
    s.eta_seconds == null ? '–' : Math.round(s.eta_seconds) + ' s';
  document.getElementById('thru').textContent = s.throughput_cells_per_s;
  const defects = (s.outcomes.stalled || 0) + (s.outcomes.simulator_bug || 0);
  const el = document.getElementById('defects');
  el.textContent = defects; el.className = defects ? 'bad' : '';
  document.querySelector('#outcomes tbody').innerHTML =
    Object.entries(s.outcomes).map(([k, v]) =>
      `<tr><td>${k}</td><td>${v}</td></tr>`).join('');
  document.querySelector('#workers tbody').innerHTML =
    (s.workers.length ? s.workers : [])
      .map(w => `<tr><td>${w.addr}</td><td>${w.state}</td><td>${w.slots}</td>
        <td>${w.inflight}</td><td>${w.completed}</td>
        <td>${w.reassigned_away}</td><td>${w.throughput_per_s}</td></tr>`)
      .join('') || '<tr><td class="muted" colspan="7">local pool</td></tr>';
  document.querySelector('#recent tbody').innerHTML =
    s.recent.slice(0, 12).map(e =>
      `<tr><td>${e.label || e.index}</td><td>${e.source}</td>
       <td>${e.outcome || ''}</td></tr>`).join('');
}
tick(); setInterval(tick, 2000);
</script>
</body>
</html>
"""


class _Handler(BaseHTTPRequestHandler):
    state: ServeState  # injected by DashboardServer

    # quiet: per-request stderr logging is noise for a service
    def log_message(self, *_args) -> None:  # noqa: D102
        pass

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: dict, code: int = 200) -> None:
        self._send(code, json.dumps(payload, sort_keys=True).encode("utf-8"),
                   "application/json; charset=utf-8")

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        try:
            if path in ("/", "/index.html"):
                self._send(200, _PAGE.replace("%%", "%").encode("utf-8"),
                           "text/html; charset=utf-8")
            elif path == "/api/status":
                self._send_json(self.state.snapshot())
            elif path == "/api/workers":
                snap = self.state.snapshot()
                self._send_json({"workers": snap["workers"],
                                 "dispatch": snap["dispatch"]})
            elif path == "/healthz":
                self._send_json({"ok": True})
            else:
                self._send_json({"error": f"no such path {path}"}, code=404)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response


class DashboardServer:
    """The HTTP front end, running on its own daemon threads."""

    def __init__(self, state: ServeState, host: str = "127.0.0.1",
                 port: int = 8100):
        handler = type("BoundHandler", (_Handler,), {"state": state})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "DashboardServer":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.2},
            name="repro-serve-http", daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
