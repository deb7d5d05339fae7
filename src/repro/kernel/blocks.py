"""Block-cached reference generation.

The interpreter computes one :class:`~repro.workloads.base.Reference`
per call to ``ref_at``; the compiled backend instead materialises a
whole *block* of consecutive references at once (in C where the family
has a generator, see :func:`repro.kernel.compiled.block_generator`;
plain loops otherwise) and serves individual lookups from the cached
block.

Blocks are stored as three parallel lists (``think``, ``is_write``,
``addr``) rather than as Reference tuples: the compiled drain loop
reads the columns directly, and the scalar path only pays for a tuple
when a reference actually reaches the interpreter (misses and
protocol-path references — the minority).

Bit-identity is structural: streams are pure functions of
``(seed, proc, index)``, so producing reference ``i`` inside a block
yields exactly the value the scalar path would — block boundaries,
rewinds (checkpoint rollback resets ``stream.position``) and stream
migration after a permanent failure all just re-address the same pure
function.
"""

from __future__ import annotations

from typing import Callable

from repro.workloads.base import Reference, ReferenceStream, Workload

_tuple_new = tuple.__new__

#: References materialised per block.  Large enough to amortise the
#: per-call overhead, small enough that a rollback re-generating one block
#: is negligible (a block regenerates in tens of microseconds).
BLOCK_LEN = 4096

#: A block generator: ``gen(proc, base, count)`` producing the column
#: triple ``(think_list, is_write_list, addr_list)`` for references
#: ``base .. base+count-1`` of process ``proc``.
BlockGenerator = Callable[[int, int, int], tuple]


class BlockRefAt:
    """A drop-in replacement for ``stream._ref_at`` serving lookups
    from a one-block cache.

    The processor fast path re-reads ``stream._ref_at`` every batch and
    calls it as ``ref_at(proc, index)``; this object is that callable.
    It also exposes :meth:`block` so the compiled drain loop can walk
    the rest of the current block without per-reference Python calls.
    """

    __slots__ = ("_gen", "_n_refs", "_proc", "_base", "_end",
                 "_think", "_is_write", "_addr")

    def __init__(self, gen: BlockGenerator, n_refs: int):
        self._gen = gen
        self._n_refs = n_refs
        self._proc = -1
        self._base = 0
        self._end = 0
        self._think: list = []
        self._is_write: list = []
        self._addr: list = []

    def _load(self, proc: int, index: int) -> None:
        base = index - index % BLOCK_LEN
        count = min(BLOCK_LEN, self._n_refs - base)
        if count < 1:
            # out-of-range index (never produced by the stream walk, but
            # ref_at is a public pure function): fall back to a single-
            # element block so behaviour matches the scalar call
            count = 1
        self._think, self._is_write, self._addr = self._gen(proc, base, count)
        self._proc = proc
        self._base = base
        self._end = base + len(self._addr)

    def __call__(self, proc: int, index: int) -> Reference:
        if proc != self._proc or not self._base <= index < self._end:
            self._load(proc, index)
        i = index - self._base
        return _tuple_new(
            Reference, (self._think[i], self._is_write[i], self._addr[i])
        )

    def block(self, proc: int, index: int) -> tuple[list, list, list, int]:
        """The cached column triple covering ``index`` plus its base."""
        if proc != self._proc or not self._base <= index < self._end:
            self._load(proc, index)
        return self._think, self._is_write, self._addr, self._base


def scalar_block_generator(workload: Workload) -> BlockGenerator:
    """Fallback generator: the workload's own scalar ``ref_at`` in a
    loop.  Used for families without a C generator (synthetic and
    trace workloads) so the compiled drain still gets materialised
    blocks to walk."""
    ref_at = workload.ref_at

    def gen(proc: int, base: int, count: int) -> tuple:
        think: list = []
        is_write: list = []
        addr: list = []
        for i in range(count):
            t, w, a = ref_at(proc, base + i)
            think.append(t)
            is_write.append(w)
            addr.append(a)
        return think, is_write, addr

    return gen


def wrap_stream(stream: ReferenceStream, gen: BlockGenerator) -> None:
    """Interpose a block cache on one stream's ``_ref_at``."""
    if isinstance(stream._ref_at, BlockRefAt):
        return
    stream._ref_at = BlockRefAt(gen, stream.n_refs)
