"""Host-time spans for the traced run.

The wrappers are installed on the simulator's *classes* before any
machine is built.  Instance-level wrappers installed later would miss
calls: ``ReliableTransport`` binds ``fabric.transfer`` at construction
and each processor binds ``protocol.read``/``write`` when its generator
starts.

Each span keeps ``calls``, ``self_s`` (its time minus the time of the
spans it encloses) and ``total_s`` (outermost activations only, so a
span re-entered through itself is not counted twice).  Generator
methods are timed per resume.  Only activity inside ``Machine.run``
is reported: construction-time calls are dropped by diffing against a
snapshot taken when the run starts.

Besides spans the tracer counts two exact quantities no result field
records: references consumed by the compiled hit drain, and fabric
transfers that took the contended per-hop walk instead of the
contention-free fast-forward (the walk is the only caller of
``ContentionPoint.wait_until_free``).  It also reads each run's engine
and fabric totals, which a sweep's worker processes cannot return.
"""

from __future__ import annotations

import json
import os
import time
from functools import wraps

#: Span name -> the ``(module, class, method)`` triples it times.
SPAN_TARGETS = {
    "workloads.gen": (
        ("repro.workloads.base", "ReferenceStream", "next_ref"),
        ("repro.kernel.blocks", "BlockRefAt", "__call__"),
        ("repro.kernel.blocks", "BlockRefAt", "block"),
    ),
    "kernel.drain": (("repro.kernel.compiled", "BatchDrain", "__call__"),),
    "coherence.op": (
        ("repro.coherence.standard", "StandardProtocol", "read"),
        ("repro.coherence.standard", "StandardProtocol", "write"),
    ),
    "coherence.inject": (("repro.coherence.injection", "InjectionEngine", "inject"),),
    "memory.probe": (
        ("repro.memory.cache", "SectoredCache", "read_probe"),
        ("repro.memory.cache", "SectoredCache", "write_probe"),
        ("repro.memory.cache", "SectoredCache", "fill"),
        ("repro.memory.attraction_memory", "AttractionMemory", "state"),
        ("repro.memory.attraction_memory", "AttractionMemory", "set_state"),
        ("repro.memory.attraction_memory", "AttractionMemory", "allocate_page"),
    ),
    "network.transport": (("repro.network.transport", "ReliableTransport", "transfer"),),
    "network.fabric": (("repro.network.fabric", "MeshFabric", "transfer"),),
    "checkpoint.create": (("repro.recovery.ecp", "EcpStrategy", "node_create_phase"),),
    "checkpoint.commit": (("repro.recovery.ecp", "EcpStrategy", "commit_node"),),
    "recovery.scan": (("repro.recovery.ecp", "EcpStrategy", "scan_node"),),
    "recovery.reconfigure": (("repro.recovery.ecp", "EcpStrategy", "reconfigure"),),
    "verify.check": (("repro.verify.observer", "InvariantObserver", "check_now"),),
    "sim.engine": (("repro.sim.engine", "Engine", "run"),),
}

#: Methods that are generators, timed per resume.
_GENERATOR_METHODS = {"node_create_phase", "reconfigure"}

#: Every reported span: the wrapped ones plus ``orch.overhead``, which
#: the sweep derives from its report rather than from a wrapper.
SPAN_NAMES = (*SPAN_TARGETS, "orch.overhead")

#: Exact counters the wrappers keep (see the module docstring).
COUNTER_NAMES = ("drained_refs", "walked_transfers", "events", "messages", "flit_hops")


def _import_class(module: str, name: str):
    import importlib

    return getattr(importlib.import_module(module), name)


class Tracer:
    """Span and counter accumulation for one process."""

    def __init__(self, dump_dir: str | None = None):
        #: span -> [calls, self_s, total_s, active activations]
        self._acc = {name: [0, 0.0, 0.0, 0] for name in SPAN_TARGETS}
        #: One ``[child_seconds]`` frame per open span activation.
        self._stack: list[list[float]] = []
        self._walk_hops = 0
        self._live = {"drained_refs": 0, "walked_transfers": 0}
        #: In-run totals, accumulated over every ``Machine.run``.
        self.spans = {name: [0, 0.0, 0.0] for name in SPAN_TARGETS}
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.run_wall_s = 0.0
        self.runs = 0
        #: When set, each process writes its in-run totals into this
        #: directory after every run, so pool workers can hand them to
        #: the sweep process.
        self.dump_dir = dump_dir
        self._restore: list[tuple[type, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _timed(self, name: str, fn):
        acc = self._acc[name]
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            acc[3] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                acc[3] -= 1
                acc[0] += 1
                acc[1] += elapsed - frame[0]
                if not acc[3]:
                    acc[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return span

    def _timed_generator(self, name: str, fn):
        timed = self._timed

        @wraps(fn)
        def span(*args, **kwargs):
            # each resume is one timed call of the generator's send
            send = timed(name, fn(*args, **kwargs).send)
            value = None
            while True:
                try:
                    item = send(value)
                except StopIteration as stop:
                    return stop.value
                value = yield item

        return span

    def _set(self, cls: type, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap the span targets and counters on their classes."""
        live = self._live
        tracer = self

        # counters first, so the span wrappers enclose their cost
        drain_cls = _import_class("repro.kernel.compiled", "BatchDrain")
        drain = drain_cls.__call__

        def counted_drain(self, *args):
            result = drain(self, *args)
            live["drained_refs"] += result[0]
            return result

        self._set(drain_cls, "__call__", counted_drain)

        point_cls = _import_class("repro.sim.resources", "ContentionPoint")
        wait = point_cls.wait_until_free

        def counted_wait(self, at):
            tracer._walk_hops += 1
            return wait(self, at)

        self._set(point_cls, "wait_until_free", counted_wait)

        fabric_cls = _import_class("repro.network.fabric", "MeshFabric")
        transfer = fabric_cls.transfer

        def counted_transfer(self, *args, **kwargs):
            hops = tracer._walk_hops
            result = transfer(self, *args, **kwargs)
            if tracer._walk_hops != hops:
                live["walked_transfers"] += 1
            return result

        self._set(fabric_cls, "transfer", counted_transfer)

        for name, targets in SPAN_TARGETS.items():
            for module, cls_name, method in targets:
                cls = _import_class(module, cls_name)
                fn = cls.__dict__[method]
                if method in _GENERATOR_METHODS:
                    self._set(cls, method, self._timed_generator(name, fn))
                else:
                    self._set(cls, method, self._timed(name, fn))

        machine_cls = _import_class("repro.machine", "Machine")
        run = machine_cls.run

        @wraps(run)
        def traced_run(machine, *args, **kwargs):
            before = {name: list(acc[:3]) for name, acc in self._acc.items()}
            live_before = dict(live)
            t0 = time.perf_counter()
            result = run(machine, *args, **kwargs)
            self.run_wall_s += time.perf_counter() - t0
            self.runs += 1
            for name, acc in self._acc.items():
                total = self.spans[name]
                for i in range(3):
                    total[i] += acc[i] - before[name][i]
            for name in ("drained_refs", "walked_transfers"):
                self.counters[name] += live[name] - live_before[name]
            self.counters["events"] += machine.engine.events_dispatched
            self.counters["messages"] += machine.fabric.messages_sent
            self.counters["flit_hops"] += machine.fabric.flits_carried
            if self.dump_dir is not None:
                self._dump()
            return result

        self._set(machine_cls, "run", traced_run)
        return self

    def uninstall(self) -> None:
        """Put every wrapped method back."""
        while self._restore:
            cls, attr, original = self._restore.pop()
            setattr(cls, attr, original)

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        """The in-run totals as plain data."""
        return {
            "spans": {
                name: {"calls": c, "self_s": s, "total_s": t}
                for name, (c, s, t) in self.spans.items()
            },
            "counters": dict(self.counters),
            "run_wall_s": self.run_wall_s,
            "runs": self.runs,
        }

    def _dump(self) -> None:
        path = os.path.join(self.dump_dir, f"spans-{os.getpid()}.json")
        with open(f"{path}.tmp", "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(f"{path}.tmp", path)


def load_dumps(dump_dir: str) -> list[dict]:
    """Every per-process snapshot written into ``dump_dir``."""
    snapshots = []
    for entry in sorted(os.listdir(dump_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(dump_dir, entry), encoding="utf-8") as handle:
                snapshots.append(json.load(handle))
    return snapshots


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of several processes (the sweep's workers)."""
    merged = Tracer().snapshot()
    for snap in snapshots:
        for name, span in snap["spans"].items():
            for key in ("calls", "self_s", "total_s"):
                merged["spans"][name][key] += span[key]
        for name, value in snap["counters"].items():
            merged["counters"][name] += value
        merged["run_wall_s"] += snap["run_wall_s"]
        merged["runs"] += snap["runs"]
    return merged
