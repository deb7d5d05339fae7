"""The compiled kernel backend.

Rides on the C extension :mod:`repro.kernel._hotloops` (built by
``python -m repro.kernel.build_ext``).  Two accelerations compose:

- **block generation** — streams are wrapped in a block cache whose
  blocks come from the extension's generators (SPLASH, Zipf KV and scan
  families, see :func:`block_generator`) or, for synthetic and trace
  workloads, from the scalar materialisation loop; the drain loop needs
  materialised blocks to walk;
- **hit draining** — the processor's single-stream batch loop hands
  runs of consecutive cache hits to ``_hotloops.drain_hits``, which
  probes, LRU-touches and advances local time entirely in C and stops
  (without consuming) at the first reference that is not a plain cache
  hit.  Statistics are applied in bulk afterwards: per-reference totals
  equal the interpreter's exactly, and no Python code runs between the
  drained references, so coordination flags, failures and protocol
  state observe the same interleavings the pure loop produces.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.kernel import BackendUnavailable, KernelBackend
from repro.kernel.blocks import (
    BlockGenerator,
    BlockRefAt,
    scalar_block_generator,
    wrap_stream,
)
from repro.memory.states import LineState
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine

try:  # the artefact only exists after `python -m repro.kernel.build_ext`
    from repro.kernel import _hotloops
except ImportError:  # pragma: no cover - exercised on unbuilt checkouts
    _hotloops = None


def block_generator(workload: Workload) -> BlockGenerator:
    """The C block generator for ``workload``'s family, bound to its
    constants; the scalar fallback for families without one (synthetic
    and trace workloads).  Needs the extension built."""
    from repro.workloads.datacenter import ScanAnalytics, ZipfKV
    from repro.workloads.splash import Water, _CalibratedWorkload

    wl = workload
    if isinstance(wl, _CalibratedWorkload):
        if isinstance(wl, Water):
            # water's shared path is hash arithmetic, computed in C
            shared = (wl._forces, wl._forces_bytes, wl._ITERATIONS,
                      wl._rpp, wl.n_procs)
        else:
            shared = wl._shared_addr
        return partial(
            _hotloops.splash_block, wl.seed, wl.item_bytes, wl._mean_think,
            wl._w_thresh, wl._sw_thresh, wl._sr_thresh, wl._private,
            wl._private_bytes, wl.WRITE_BLOCK_LEN, wl._write_window_cached,
            shared,
        )
    if isinstance(wl, ZipfKV):
        return partial(
            _hotloops.zipf_block, wl.seed, wl.item_bytes, wl._mean_think,
            wl._wf_thresh, wl._sf_thresh, wl._sessions, wl.clients_per_proc,
            wl.session_items_per_client, wl._store, wl._cdf, wl._perm,
        )
    if isinstance(wl, ScanAnalytics):
        return partial(
            _hotloops.scan_block, wl.seed, wl.item_bytes, wl._mean_think,
            wl._wf_thresh, wl._acc, wl.accumulator_items, wl.table_writes,
            wl._table, wl._table_items, wl.stride_items, wl.n_procs,
        )
    return scalar_block_generator(wl)


class BatchDrain:
    """Per-machine closure the processor batch loop calls to consume a
    run of cache hits; returns ``(consumed, t_local)``."""

    __slots__ = ("_hit_lat", "_invalid", "_dirty")

    def __init__(self, machine: "Machine"):
        self._hit_lat = machine.protocol._cache_hit_lat
        self._invalid = LineState.INVALID
        self._dirty = LineState.DIRTY

    def __call__(self, node, stream, t_local: int, deadline: int):
        block_ref = stream._ref_at
        if type(block_ref) is not BlockRefAt:  # migrated foreign stream guard
            return 0, t_local
        position = stream.position
        thinks, isws, addrs, base = block_ref.block(stream.proc_id, position)
        cache = node.cache
        consumed, t_local, reads, writes = _hotloops.drain_hits(
            thinks, isws, addrs, position - base, t_local, deadline,
            cache._index, cache._sets, cache._n_sets,
            cache._sector_bytes, cache._line_bytes,
            self._invalid, self._dirty, self._hit_lat,
        )
        if consumed:
            stream.position = position + consumed
            stats = node.stats
            stats.refs += consumed
            stats.reads += reads
            stats.writes += writes
            cache.read_hits += reads
            cache.write_hits += writes
        return consumed, t_local


class CompiledBackend(KernelBackend):
    """C block generation + C hit-drain loop."""

    name = "compiled"

    @classmethod
    def availability_error(cls) -> BackendUnavailable | None:
        if _hotloops is None:
            return BackendUnavailable(
                "compiled",
                "the _hotloops extension is not built",
                "build it with: python -m repro.kernel.build_ext",
            )
        return None

    def attach(self, machine: "Machine") -> None:
        gen = block_generator(machine.workload)
        for processor in machine.processors:
            for stream in processor.streams:
                wrap_stream(stream, gen)
        machine.kernel_drain = BatchDrain(machine)
