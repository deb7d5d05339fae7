"""Bit-identity of block-based reference generation.

Every block generator — the compiled backend's C kernels and the
scalar materialisation fallback — must reproduce the workload's own
scalar ``ref_at`` draw for draw, and the ``BlockRefAt`` cache must be
transparent across block boundaries, stream rewinds, and stream
migration (process switches)."""

from functools import partial

import pytest

from repro.kernel.blocks import (
    BLOCK_LEN,
    BlockRefAt,
    scalar_block_generator,
    wrap_stream,
)
from repro.kernel.compiled import CompiledBackend
from repro.workloads.base import Reference, ReferenceStream
from repro.workloads.datacenter import ScanAnalytics, ZipfKV
from repro.workloads.splash import BarnesHut, Cholesky, Mp3d, Water

needs_extension = pytest.mark.skipif(
    not CompiledBackend.is_available(),
    reason="needs the _hotloops extension (python -m repro.kernel.build_ext)",
)


def _families():
    return [
        Water(9, seed=5),
        Water(16, scale=0.5, seed=2026),
        BarnesHut(9, seed=9),
        Cholesky(16, seed=3),
        Mp3d(9, seed=13),
        ZipfKV(9, seed=7),
        ScanAnalytics(9, seed=11),
        ScanAnalytics(9, seed=11, table_writes=True),
    ]


def _assert_block_matches(wl, gen, proc, base, count):
    think, is_write, addr = gen(proc, base, count)
    assert len(think) == len(is_write) == len(addr) == count
    for i in range(count):
        expected = wl.ref_at(proc, base + i)
        assert tuple(expected) == (think[i], is_write[i], addr[i]), (
            f"{type(wl).__name__} proc={proc} index={base + i}"
        )


@needs_extension
@pytest.mark.parametrize(
    "wl", _families(), ids=lambda w: f"{w.name}-{w.n_procs}"
)
def test_vector_generators_bit_identical(wl):
    """The compiled backend's C block generators equal ``ref_at``."""
    from repro.kernel.compiled import block_generator

    gen = block_generator(wl)
    assert isinstance(gen, partial), "every SPLASH/datacenter family has a kernel"
    for proc in (0, wl.n_procs - 1):
        # straddle block-cadence boundaries and odd lengths on purpose;
        # WRITE_BLOCK_LEN is the private-write block boundary
        for base, count in ((0, 257), (BLOCK_LEN - 3, 7), (2 * BLOCK_LEN, 64),
                            (Water.WRITE_BLOCK_LEN - 3, 7)):
            _assert_block_matches(wl, gen, proc, base, count)


def test_scalar_fallback_bit_identical():
    """The compiled backend's block materialisation for families
    without a C kernel."""
    from repro.workloads.synthetic import UniformShared

    wl = UniformShared(4, refs_per_proc=500, seed=17)
    gen = scalar_block_generator(wl)
    for proc in range(2):
        _assert_block_matches(wl, gen, proc, 0, 128)
        _assert_block_matches(wl, gen, proc, 300, 99)


def test_block_ref_at_transparent_across_blocks_and_procs():
    wl = Water(9, seed=21)
    gen = scalar_block_generator(wl)
    n = wl.refs_per_proc()
    cached = BlockRefAt(gen, n)
    probes = [0, 1, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, n - 1]
    # interleave processes and revisit earlier indices: reloads must be
    # invisible (a rewind after checkpoint rollback does exactly this)
    for proc in (0, 3, 0):
        for index in probes + list(reversed(probes)):
            assert cached(proc, index) == wl.ref_at(proc, index)
            assert isinstance(cached(proc, index), Reference)


def test_wrap_stream_is_idempotent():
    wl = Water(9, seed=2)
    stream = ReferenceStream(wl, proc_id=0, n_refs=wl.refs_per_proc())
    gen = scalar_block_generator(wl)
    wrap_stream(stream, gen)
    wrapped = stream._ref_at
    assert isinstance(wrapped, BlockRefAt)
    wrap_stream(stream, gen)
    assert stream._ref_at is wrapped


@needs_extension
def test_block_column_types_are_plain_python():
    """The drain loop and the scalar path both consume the columns, so
    they must hold plain ints/bools, exactly the types ``ref_at``
    returns (nothing else may leak into protocol arithmetic or
    serialized results)."""
    from repro.kernel.compiled import block_generator

    for wl in (Water(9, seed=7), Mp3d(9, seed=7), ZipfKV(9, seed=7),
               ScanAnalytics(9, seed=7)):
        think, is_write, addr = block_generator(wl)(0, 0, 256)
        assert all(type(t) is int for t in think)
        assert all(type(w) is bool for w in is_write)
        assert all(type(a) is int for a in addr)
