"""The four SPLASH applications of the paper's evaluation (Table 3).

Each class reproduces its application's Table 3 row — instruction
count, read/write densities, shared read/write densities — and its
qualitative sharing pattern, which is what drives every effect the
paper reports:

================  ==========================================================
application       pattern modelled
================  ==========================================================
:class:`BarnesHut`  mostly-read shared octree + per-iteration body
                    partitions: lots of replicated Master-Shared items, so
                    the create phase reuses existing replicas (Fig. 4)
:class:`Cholesky`   producer-consumer panels streaming through a large
                    working set: big commit scans, large recovery volume
:class:`Mp3d`       migratory cells with the highest shared-write rate of
                    the suite: worst-case T_create and pollution (Fig. 3)
:class:`Water`      small, mostly-private molecule set: the best case
================  ==========================================================

Full-scale stream lengths derive from the Table 3 instruction counts;
``scale`` shrinks both stream length and data footprint together
(DESIGN.md section 3).
"""

from __future__ import annotations

from repro.workloads.base import _MASK64, Reference, Workload, mix64

_tuple_new = tuple.__new__


class _CalibratedWorkload(Workload):
    """Shared machinery: draw op and shared/private class from the
    Table 3 densities, then delegate address choice to the subclass."""

    workload_class = "splash"

    # Table 3 densities, as fractions of instructions
    read_density: float
    write_density: float
    shared_read_density: float
    shared_write_density: float

    def __init__(self, n_procs: int, scale: float = 1.0, seed: int = 2026, **kw):
        # Optional stream-length override so calibrated workloads can
        # join fixed-budget harnesses (fault campaigns give every cell
        # the same refs_per_proc regardless of app).  Left unset, the
        # length derives from instructions_millions * density * scale
        # exactly as before.
        refs_override = kw.pop("refs_per_proc", None)
        super().__init__(n_procs, scale=scale, seed=seed, **kw)
        if refs_override is not None:
            if int(refs_override) < 1:
                raise ValueError("refs_per_proc must be >= 1")
            self._refs_per_proc_cache = int(refs_override)
        # Per-reference draws compare a 20-bit hash field against the
        # Table 3 probabilities.  ``m / 2**20 < p`` is exactly
        # ``m < p * 2**20`` (scaling a float by a power of two only
        # shifts its exponent; the integer side is exact either way), so
        # the thresholds are hoisted out of ref_at with bit-identical
        # outcomes and the per-call divisions disappear.
        self._w_thresh = self._p_write * float(1 << 20)
        self._sw_thresh = self._p_shared_write * float(1 << 20)
        self._sr_thresh = self._p_shared_read * float(1 << 20)
        mean_think = self._mean_think
        self._think_whole = int(mean_think)
        # same power-of-two argument for the 16-bit think dither
        self._think_thresh = (mean_think - self._think_whole) * 65536.0
        self._rpp = self.refs_per_proc()
        self._write_window_cached = self._scale_to_procs(self.WRITE_WINDOW_ITEMS, 3)
        # ref_at's two per-reference hashes, with their per-salt seed
        # mixes hoisted (identical to Workload._hash with these salts)
        self._h_ref_base = mix64(seed * 0x1F1F1F1F + 0xA11)
        self._h_think_base = mix64(seed * 0x1F1F1F1F + 0xD17E)
        # private-region _pick_addr constants need the layout, which the
        # subclass builds after this __init__ — filled on first ref_at
        self._priv_ready = False

    def _init_priv_consts(self) -> None:
        """Region-constant pieces of ``_pick_addr`` over the private
        region, hoisted so ``ref_at`` can inline the private-address
        computation (bit-identical to calling ``_pick_addr``)."""
        item_bytes = self.item_bytes
        n_items = self._private_bytes // item_bytes
        if n_items < 1:
            n_items = 1
        self._priv_n_items = n_items
        ww = self._write_window_cached
        self._pw_window = ww if ww < n_items else n_items
        self._pr_window = 48 if 48 < n_items else n_items
        seed_mix = self.seed * 0x1F1F1F1F
        self._h_pw = mix64(seed_mix + 0x9122)       # write ref hash base
        self._h_pr = mix64(seed_mix + 0x9121)       # read ref hash base
        self._h_pwb = mix64(seed_mix + (0x9122 ^ 0x5A5A))  # write block base
        self._h_prb = mix64(seed_mix + (0x9121 ^ 0x5A5A))  # read block base
        self._pw_blklen = self.WRITE_BLOCK_LEN
        self._pw_blocks: dict[int, tuple[int, int]] = {}  # proc -> (block, bh)
        self._pr_blocks: dict[int, tuple[int, int]] = {}
        self._priv_ready = True

    @property
    def _p_write(self) -> float:
        return self.write_density / (self.read_density + self.write_density)

    @property
    def _p_shared_read(self) -> float:
        return self.shared_read_density / self.read_density

    @property
    def _p_shared_write(self) -> float:
        return self.shared_write_density / self.write_density

    @property
    def _mean_think(self) -> float:
        density = self.read_density + self.write_density
        return max(0.0, 1.0 / density - 1.0)

    @property
    def reference_density(self) -> float:
        return self.read_density + self.write_density

    def refs_per_proc(self) -> int:
        cached = getattr(self, "_refs_per_proc_cache", None)
        if cached is None:
            total_refs = (
                self.instructions_millions
                * 1e6
                * (self.read_density + self.write_density)
            )
            cached = max(1, int(total_refs * self.scale / self.n_procs))
            self._refs_per_proc_cache = cached
        return cached

    def ref_at(self, proc: int, index: int) -> Reference:
        # two inlined SplitMix64 finalizers (== _hash(proc, index,
        # 0xA11) and _hash(proc, index, 0xD17E)): this is the innermost
        # per-reference work of every simulation
        pi = (proc << 40) ^ index
        x = self._h_ref_base ^ pi
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = x ^ (x >> 31)
        is_write = (h & 0xFFFFF) < self._w_thresh
        h_class = (h >> 20) & 0xFFFFF
        if is_write:
            shared = h_class < self._sw_thresh
        else:
            shared = h_class < self._sr_thresh
        if shared:
            addr = self._shared_addr(proc, index, is_write, h >> 40)
        else:
            # the private-region _pick_addr fully inlined (region
            # geometry is workload-constant, precomputed once); every
            # arithmetic step mirrors Workload._pick_addr exactly
            if not self._priv_ready:
                self._init_priv_consts()
            if is_write:
                block = index // self._pw_blklen
                window = self._pw_window
                memo = self._pw_blocks
                x = self._h_pw ^ pi
                blk_base = self._h_pwb
            else:
                block = index >> 12  # // 4096
                window = self._pr_window
                memo = self._pr_blocks
                x = self._h_pr ^ pi
                blk_base = self._h_prb
            x = (x + 0x9E3779B97F4A7C15) & _MASK64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            hp = x ^ (x >> 31)
            cached = memo.get(proc)
            if cached is not None and cached[0] == block:
                bh = cached[1]
            else:
                x = blk_base ^ (proc << 40) ^ block
                x = (x + 0x9E3779B97F4A7C15) & _MASK64
                x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
                bh = x ^ (x >> 31)
                memo[proc] = (block, bh)
            x = (bh + hp % window + 0x9E3779B97F4A7C15) & _MASK64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            item_bytes = self.item_bytes
            addr = (
                self._private[proc]
                + ((x ^ (x >> 31)) % self._priv_n_items) * item_bytes
                + ((hp >> 32) % item_bytes & ~0x3)
            )
        # inlined Workload._think against the hoisted dither threshold
        x = self._h_think_base ^ pi
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        ht = x ^ (x >> 31)
        think = self._think_whole + (1 if (ht & 0xFFFF) < self._think_thresh else 0)
        # bypass the namedtuple __new__ shim (== Reference(think, ...))
        return _tuple_new(Reference, (think, is_write, addr))

    # -- subclass hooks ----------------------------------------------------

    #: Writes concentrate on a small, slowly-sliding working set: real
    #: applications modify only ~4 KB per processor per 10 000
    #: references (Section 4.2.3, Mp3d at 400 points/s), i.e. tens of
    #: distinct items — far fewer than they read.  These two knobs set
    #: the size and slide rate of the private write set.
    WRITE_WINDOW_ITEMS = 8
    WRITE_BLOCK_LEN = 32768
    #: The Table 3 densities were calibrated on the paper's 16-node
    #: machine; fixed-size applications divide their data among
    #: processors, so per-processor regions and write sets shrink as
    #: the machine grows (the driver of Fig. 8's per-node decrease).
    REFERENCE_PROCS = 16

    def _scale_to_procs(self, value: int, minimum: int) -> int:
        scaled = value * self.REFERENCE_PROCS // max(1, self.n_procs)
        return max(minimum, scaled)

    def _shared_addr(self, proc: int, index: int, is_write: bool, h: int) -> int:
        raise NotImplementedError


class BarnesHut(_CalibratedWorkload):
    """Barnes-Hut N-body (1536 bodies, 11 iterations).

    Shared reads mostly target the octree, heavily skewed toward its
    top levels (every process walks the root on every force
    evaluation), so tree items end up Master-Shared with long sharing
    lists.  Shared writes update body records, partitioned per process
    and *rotated* every iteration so bodies written in iteration ``k``
    are read by other processes in iteration ``k+1``.
    """

    name = "barnes"
    instructions_millions = 190.0
    read_density = 0.184
    write_density = 0.107
    shared_read_density = 0.042
    shared_write_density = 0.001

    _ITERATIONS = 11
    _HOT_ITEMS = 16  # octree top levels
    WRITE_WINDOW_ITEMS = 5

    def __init__(self, n_procs: int, scale: float = 1.0, seed: int = 2026, **kw):
        super().__init__(n_procs, scale=scale, seed=seed, **kw)
        self._private_bytes = self._scaled_bytes(self._scale_to_procs(96 * 1024, 16 * 1024))
        self._private = self._alloc_private(self._private_bytes)
        # floors keep the region *structure* intact at small scales
        self._tree_bytes = self._scaled_bytes(192 * 1024, minimum=2 * self.page_bytes)
        self._tree = self._alloc_shared(self._tree_bytes)
        self._bodies_bytes = self._scaled_bytes(192 * 1024, minimum=2 * self.page_bytes)
        self._bodies = self._alloc_shared(self._bodies_bytes)

    def _iteration(self, proc: int, index: int) -> int:
        return index * self._ITERATIONS // self._rpp

    def _shared_addr(self, proc: int, index: int, is_write: bool, h: int) -> int:
        iteration = self._iteration(proc, index)
        if not is_write:
            kind = h % 100
            if kind < 30:
                # root levels of the octree: globally hot, read by all
                item = mix64(h) % min(
                    self._HOT_ITEMS, self._tree_bytes // self.item_bytes
                )
                return self._tree + item * self.item_bytes
            if kind < 92:
                return self._pick_addr(
                    self._tree,
                    self._tree_bytes,
                    proc,
                    index,
                    salt=0xB0D1 + iteration,
                    block_len=2048,
                    window_items=32,
                )
            # reading bodies updated by *other* processes last iteration
            reader_of = (proc + 1 + (h % max(1, self.n_procs - 1))) % self.n_procs
            return self._body_partition_addr(reader_of, iteration - 1, h)
        return self._body_partition_addr(proc, iteration, h, window=self._scale_to_procs(6, 2))

    def _body_partition_addr(
        self, owner: int, iteration: int, h: int, window: int | None = None
    ) -> int:
        n_items = self._bodies_bytes // self.item_bytes
        part_items = max(1, n_items // self.n_procs)
        slot = ((owner + iteration) % self.n_procs) * part_items
        spread = part_items if window is None else min(window, part_items)
        item = slot + mix64(h ^ iteration) % spread
        return self._bodies + (item % n_items) * self.item_bytes


class Cholesky(_CalibratedWorkload):
    """Sparse Cholesky factorisation (bcsstk14).

    The matrix streams through in panels: in phase ``k`` the owner
    process writes panel ``k`` while consumers read panels ``k-1`` and
    ``k-2`` — a producer-consumer pattern over the largest working set
    of the suite.
    """

    name = "cholesky"
    WRITE_WINDOW_ITEMS = 6
    instructions_millions = 53.1
    read_density = 0.233
    write_density = 0.062
    shared_read_density = 0.188
    shared_write_density = 0.033

    def __init__(self, n_procs: int, scale: float = 1.0, seed: int = 2026, **kw):
        super().__init__(n_procs, scale=scale, seed=seed, **kw)
        self._private_bytes = self._scaled_bytes(self._scale_to_procs(64 * 1024, 16 * 1024))
        self._private = self._alloc_private(self._private_bytes)
        # a large working set is Cholesky's defining trait: keep at
        # least 8 pages of matrix even at tiny scales
        self._matrix_bytes = self._scaled_bytes(
            1792 * 1024, minimum=8 * self.page_bytes
        )
        self._matrix = self._alloc_shared(self._matrix_bytes)
        # panels are item-grain (2 KB = 16 items), so even the floored
        # matrix provides dozens of panels for the pipeline
        self._panel_bytes = 2048
        self._n_panels = max(2, self._matrix_bytes // self._panel_bytes)
        # panels complete at the factorisation's pace: never faster than
        # one panel per ~4k references, at most two passes per run
        self._n_phases = max(2, min(self._n_panels * 2, self._rpp // 4096))

    def _phase(self, index: int) -> int:
        return index * self._n_phases // max(1, self._rpp)

    def _panel_addr(
        self, panel: int, proc: int, index: int, salt: int, window_items: int = 40
    ) -> int:
        panel %= self._n_panels
        base = self._matrix + panel * self._panel_bytes
        return self._pick_addr(
            base,
            self._panel_bytes,
            proc,
            index,
            salt=salt ^ panel,
            block_len=2048,
            window_items=window_items,
        )

    def _shared_addr(self, proc: int, index: int, is_write: bool, h: int) -> int:
        phase = self._phase(index)
        if is_write:
            # each panel has one owner (round-robin); a process updates
            # the most recent panel it owns, a few items at a time
            panel = phase - ((phase - proc) % self.n_procs)
            return self._panel_addr(panel, proc, index, 0xC407,
                                    window_items=self._scale_to_procs(6, 2))
        # consumers read recently *completed* panels
        back = self.n_procs + (h % (2 * self.n_procs))
        return self._panel_addr(phase - back, proc, index, 0xC511)


class Mp3d(_CalibratedWorkload):
    """Rarefied-fluid-flow Monte Carlo (50 K molecules, 8 steps).

    The suite's stress case: the highest shared-write rate and a
    working set ~9x that of Barnes.  Molecule records are partitioned
    but molecules drift between partitions each step, and collision
    handling read-modify-writes *space cells* chosen almost uniformly —
    classic migratory data that generates write misses on every handoff.
    """

    name = "mp3d"
    instructions_millions = 48.3
    read_density = 0.163
    write_density = 0.097
    shared_read_density = 0.131
    shared_write_density = 0.083

    _STEPS = 8

    def __init__(self, n_procs: int, scale: float = 1.0, seed: int = 2026, **kw):
        super().__init__(n_procs, scale=scale, seed=seed, **kw)
        self._private_bytes = self._scaled_bytes(self._scale_to_procs(32 * 1024, 8 * 1024))
        self._private = self._alloc_private(self._private_bytes)
        self._molecules_bytes = self._scaled_bytes(
            1536 * 1024, minimum=8 * self.page_bytes
        )
        self._molecules = self._alloc_shared(self._molecules_bytes)
        self._space_bytes = self._scaled_bytes(
            768 * 1024, minimum=8 * self.page_bytes
        )
        self._space = self._alloc_shared(self._space_bytes)

    def _step(self, index: int) -> int:
        return index * self._STEPS // max(1, self._rpp)

    def _shared_addr(self, proc: int, index: int, is_write: bool, h: int) -> int:
        step = self._step(index)
        if h % 100 < 20:
            # space cells: migratory read-modify-write with the spatial
            # locality of molecules moving through nearby cells, plus a
            # uniform tail for long-range collisions
            if h % 100 < 2:
                n_items = self._space_bytes // self.item_bytes
                item = mix64(h ^ 0x57ACE) % n_items
                return self._space + item * self.item_bytes
            return self._pick_addr(
                self._space,
                self._space_bytes,
                proc,
                index,
                salt=0x57A + step,
                block_len=2048,
                window_items=10,
            )
        # molecules of this process's drifting partition
        n_items = self._molecules_bytes // self.item_bytes
        part_items = max(1, n_items // self.n_procs)
        owner = (proc + step) % self.n_procs
        base_item = owner * part_items
        window = self._scale_to_procs(8, 3) if is_write else 32
        item = base_item + self._pick_item(
            proc, index, part_items, 0x33D + step, window
        )
        return self._molecules + (item % n_items) * self.item_bytes

    def _pick_item(
        self, proc: int, index: int, n_items: int, salt: int, window: int
    ) -> int:
        block = index // 1024
        h = self._hash(proc, index, salt)
        slot = h % min(window, n_items)
        return mix64(self._hash(proc, block, salt ^ 0x77) + slot) % n_items


class Water(_CalibratedWorkload):
    """Water molecular dynamics (120/144 molecules, 2 iterations).

    The best case for the ECP: a small working set dominated by private
    molecule data, with only occasional reads of a small shared force
    array and very rare accumulation writes.
    """

    name = "water"
    WRITE_WINDOW_ITEMS = 5
    instructions_millions = 78.6
    read_density = 0.237
    write_density = 0.069
    shared_read_density = 0.043
    shared_write_density = 0.005

    _ITERATIONS = 2

    def __init__(self, n_procs: int, scale: float = 1.0, seed: int = 2026, **kw):
        super().__init__(n_procs, scale=scale, seed=seed, **kw)
        self._private_bytes = self._scaled_bytes(self._scale_to_procs(128 * 1024, 16 * 1024))
        self._private = self._alloc_private(self._private_bytes)
        self._forces_bytes = self._scaled_bytes(64 * 1024)
        self._forces = self._alloc_shared(self._forces_bytes)

    def _shared_addr(self, proc: int, index: int, is_write: bool, h: int) -> int:
        iteration = index * self._ITERATIONS // max(1, self._rpp)
        n_items = self._forces_bytes // self.item_bytes
        slice_items = max(1, n_items // self.n_procs)
        if h % 100 < 80:
            # mostly this process's slice of the force array
            base = self._forces + (proc * slice_items % n_items) * self.item_bytes
            return self._pick_addr(
                base,
                slice_items * self.item_bytes,
                proc,
                index,
                salt=0xF0CE + iteration,
                block_len=4096,
                window_items=16,
            )
        return self._pick_addr(
            self._forces,
            self._forces_bytes,
            proc,
            index,
            salt=0xF1CE + iteration,
            block_len=4096,
            window_items=12,
        )


SPLASH_WORKLOADS: dict[str, type[_CalibratedWorkload]] = {
    "barnes": BarnesHut,
    "cholesky": Cholesky,
    "mp3d": Mp3d,
    "water": Water,
}


def make_workload(name: str, n_procs: int, scale: float = 1.0, seed: int = 2026, **kw):
    """Factory for the Table 3 applications."""
    try:
        cls = SPLASH_WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; pick one of {sorted(SPLASH_WORKLOADS)}"
        ) from None
    return cls(n_procs, scale=scale, seed=seed, **kw)
