/* Compiled hot loops for the `compiled` kernel backend.
 *
 * drain_hits() walks a materialised block of references and consumes
 * the longest prefix of consecutive cache *hits* (read hit: line CLEAN
 * or DIRTY; write hit: line DIRTY) in a single C call, performing
 * exactly the state updates the interpreter batch loop would — LRU
 * touch per hit, local-time advance by think + cache-hit latency,
 * batch-budget check before every reference.  It stops, without
 * consuming, at the first reference that is not a plain cache hit (the
 * interpreter then runs the full protocol path for it), so misses, AM
 * accesses, coordination and failures all keep their pure-Python
 * semantics.
 *
 * splash_block(), zipf_block() and scan_block() materialise those
 * blocks: the `(think, is_write, addr)` columns of references
 * base .. base+count-1 of one process, draw for draw equal to the
 * workload's own scalar ref_at (SplitMix64 on uint64 wrap-around
 * arithmetic equals the Python `& _MASK64` masking; every probability
 * draw compares the same hash field against the same double).
 *
 * Built by `python -m repro.kernel.build_ext` (no build-time
 * dependencies beyond a C compiler and the Python headers); the
 * backend degrades to pure Python when the extension is absent.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* ---- reference-stream generation (mirrors repro.workloads) ---------- */

/* workloads.base.mix64: the SplitMix64 finalizer */
static inline uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Workload._hash(proc, index, salt); the salt base is recomputed from
 * the seed rather than memoized — it is one extra finalizer */
static inline uint64_t
hash_at(uint64_t seed, uint64_t salt, uint64_t proc, uint64_t index)
{
    return mix64(mix64(seed * 0x1F1F1F1FULL + salt) ^ (proc << 40) ^ index);
}

/* Workload._pick_addr */
static uint64_t
pick_addr(uint64_t seed, uint64_t item_bytes, uint64_t base,
          uint64_t size_bytes, uint64_t proc, uint64_t index,
          uint64_t salt, uint64_t block_len, uint64_t window_items)
{
    uint64_t n_items = size_bytes / item_bytes;
    if (n_items < 1)
        n_items = 1;
    uint64_t h = hash_at(seed, salt, proc, index);
    uint64_t slot = h % (window_items < n_items ? window_items : n_items);
    uint64_t bh = hash_at(seed, salt ^ 0x5A5A, proc, index / block_len);
    uint64_t item = mix64(bh + slot) % n_items;
    return base + item * item_bytes + (((h >> 32) % item_bytes) & ~3ULL);
}

/* Workload._think: the integer part of the mean plus a hash-dithered
 * 0/1 whose long-run mean is the fraction */
static inline long long
think_at(uint64_t seed, uint64_t proc, uint64_t index, double mean)
{
    long long whole = (long long)mean;
    uint64_t h = hash_at(seed, 0xD17E, proc, index);
    return whole + ((double)(h & 0xFFFF) / 65536.0 < mean - (double)whole);
}

/* The three output columns of one block. */
typedef struct {
    PyObject *think, *isw, *addr;
} Columns;

static int
columns_new(Columns *c, Py_ssize_t count)
{
    c->think = PyList_New(count);
    c->isw = PyList_New(count);
    c->addr = PyList_New(count);
    return (c->think && c->isw && c->addr) ? 0 : -1;
}

/* Store reference i; steals `addr`.  -1 on error. */
static int
columns_set(Columns *c, Py_ssize_t i, long long think, int is_write,
            PyObject *addr)
{
    PyObject *t = PyLong_FromLongLong(think);
    if (t == NULL || addr == NULL) {
        Py_XDECREF(t);
        Py_XDECREF(addr);
        return -1;
    }
    PyList_SET_ITEM(c->think, i, t);
    PyList_SET_ITEM(c->isw, i, Py_NewRef(is_write ? Py_True : Py_False));
    PyList_SET_ITEM(c->addr, i, addr);
    return 0;
}

/* The (think, is_write, addr) tuple, or NULL with the columns freed. */
static PyObject *
columns_finish(Columns *c, int ok)
{
    PyObject *out = ok ? PyTuple_Pack(3, c->think, c->isw, c->addr) : NULL;
    Py_XDECREF(c->think);
    Py_XDECREF(c->isw);
    Py_XDECREF(c->addr);
    return out;
}

/* `list[i]` as a uint64 (IndexError when absent); check PyErr_Occurred() */
static uint64_t
list_u64(PyObject *list, Py_ssize_t i)
{
    PyObject *item = PyList_GetItem(list, i);
    return item ? PyLong_AsUnsignedLongLong(item) : 0;
}

/* -1 with ValueError unless proc, base and count are >= 0 and the
 * workload geometry (every divisor) is positive */
static int
check_args(Py_ssize_t proc, Py_ssize_t base, Py_ssize_t count, int geometry_ok)
{
    if (proc < 0 || base < 0 || count < 0 || !geometry_ok) {
        PyErr_SetString(PyExc_ValueError,
                        "negative block request or non-positive workload geometry");
        return -1;
    }
    return 0;
}

/* splash_block(seed, item_bytes, mean_think, w_thresh, sw_thresh,
 *              sr_thresh, privates, private_bytes, write_block_len,
 *              write_window, shared, proc, base, count)
 *   -> (think, is_write, addr)
 *
 * splash._CalibratedWorkload.ref_at.  `shared` supplies the shared
 * minority: a tuple (forces, forces_bytes, iterations, rpp, n_procs)
 * selects Water._shared_addr, computed here; any other object is the
 * workload's _shared_addr, called as shared(proc, index, is_write, h>>40).
 */
static PyObject *
splash_block(PyObject *self, PyObject *args)
{
    uint64_t seed, item_bytes, priv_bytes, wblk, wwin;
    double mean, w_th, sw_th, sr_th;
    PyObject *privs, *shared;
    Py_ssize_t proc, base, count;
    uint64_t forces = 0, forces_bytes = 0, iterations = 0, rpp = 0, n_procs = 0;

    if (!PyArg_ParseTuple(args, "KKddddO!KKKOnnn", &seed, &item_bytes,
                          &mean, &w_th, &sw_th, &sr_th, &PyList_Type, &privs,
                          &priv_bytes, &wblk, &wwin, &shared,
                          &proc, &base, &count))
        return NULL;
    int water = PyTuple_Check(shared);
    if (water && !PyArg_ParseTuple(shared, "KKKKK", &forces, &forces_bytes,
                                   &iterations, &rpp, &n_procs))
        return NULL;
    if (check_args(proc, base, count, item_bytes && wblk && wwin &&
                   (!water || (forces_bytes >= item_bytes && n_procs))) < 0)
        return NULL;
    uint64_t priv = list_u64(privs, proc);
    if (PyErr_Occurred())
        return NULL;

    Columns c;
    int ok = columns_new(&c, count) == 0;
    PyObject *proc_obj = ok ? PyLong_FromSsize_t(proc) : NULL;
    ok = proc_obj != NULL;
    for (Py_ssize_t i = 0; ok && i < count; i++) {
        uint64_t idx = (uint64_t)(base + i);
        uint64_t h = hash_at(seed, 0xA11, proc, idx);
        int is_write = (double)(h & 0xFFFFF) < w_th;
        double h_class = (double)((h >> 20) & 0xFFFFF);
        PyObject *addr;
        if (!(h_class < (is_write ? sw_th : sr_th))) {
            /* private: Workload._pick_addr over this process's region */
            addr = PyLong_FromUnsignedLongLong(is_write
                ? pick_addr(seed, item_bytes, priv, priv_bytes, proc, idx,
                            0x9122, wblk, wwin)
                : pick_addr(seed, item_bytes, priv, priv_bytes, proc, idx,
                            0x9121, 4096, 48));
        } else if (water) {
            /* Water._shared_addr */
            uint64_t h40 = h >> 40;
            uint64_t it = idx * iterations / (rpp > 1 ? rpp : 1);
            uint64_t n_items = forces_bytes / item_bytes;
            uint64_t slice = n_items / n_procs > 1 ? n_items / n_procs : 1;
            addr = PyLong_FromUnsignedLongLong(h40 % 100 < 80
                ? pick_addr(seed, item_bytes,
                            forces + (proc * slice % n_items) * item_bytes,
                            slice * item_bytes, proc, idx, 0xF0CE + it, 4096, 16)
                : pick_addr(seed, item_bytes, forces, forces_bytes, proc, idx,
                            0xF1CE + it, 4096, 12));
        } else {
            PyObject *argv[4] = {proc_obj, PyLong_FromUnsignedLongLong(idx),
                                 is_write ? Py_True : Py_False,
                                 PyLong_FromUnsignedLongLong(h >> 40)};
            addr = (argv[1] && argv[3])
                ? PyObject_Vectorcall(shared, argv, 4, NULL) : NULL;
            Py_XDECREF(argv[1]);
            Py_XDECREF(argv[3]);
        }
        ok = columns_set(&c, i, think_at(seed, proc, idx, mean),
                         is_write, addr) == 0;
    }
    Py_XDECREF(proc_obj);
    return columns_finish(&c, ok);
}

/* bisect.bisect_left over a list of floats; check PyErr_Occurred() */
static Py_ssize_t
bisect_left(PyObject *cdf, double u)
{
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(cdf);
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        if (PyFloat_AsDouble(PyList_GET_ITEM(cdf, mid)) < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* zipf_block(seed, item_bytes, mean_think, wf_thresh, sf_thresh,
 *            sessions, clients_per_proc, session_items, store, cdf, perm,
 *            proc, base, count)
 *   -> (think, is_write, addr)
 *
 * datacenter.ZipfKV.ref_at.
 */
static PyObject *
zipf_block(PyObject *self, PyObject *args)
{
    uint64_t seed, item_bytes, clients, sess_items, store;
    double mean, wf_th, sf_th;
    PyObject *sessions, *cdf, *perm;
    Py_ssize_t proc, base, count;

    if (!PyArg_ParseTuple(args, "KKdddO!KKKO!O!nnn", &seed, &item_bytes,
                          &mean, &wf_th, &sf_th, &PyList_Type, &sessions,
                          &clients, &sess_items, &store,
                          &PyList_Type, &cdf, &PyList_Type, &perm,
                          &proc, &base, &count))
        return NULL;
    if (check_args(proc, base, count, item_bytes && clients && sess_items) < 0)
        return NULL;
    uint64_t session_base = list_u64(sessions, proc);
    if (PyErr_Occurred())
        return NULL;

    Columns c;
    int ok = columns_new(&c, count) == 0;
    for (Py_ssize_t i = 0; ok && i < count; i++) {
        uint64_t idx = (uint64_t)(base + i);
        uint64_t h = hash_at(seed, 0x2B1, proc, idx);
        int is_write = (double)(h & 0xFFFFF) < wf_th;
        PyObject *addr = NULL;
        if ((double)((h >> 20) & 0xFFFFF) < sf_th) {
            uint64_t slot = (idx % clients) * sess_items + (h >> 40) % sess_items;
            addr = PyLong_FromUnsignedLongLong(session_base + slot * item_bytes);
        } else {
            double u = (double)((h >> 11) & ((1ULL << 53) - 1))
                       / 9007199254740992.0; /* 2**53 */
            Py_ssize_t rank = bisect_left(cdf, u);
            uint64_t item = PyErr_Occurred() ? 0 : list_u64(perm, rank);
            if (!PyErr_Occurred())
                addr = PyLong_FromUnsignedLongLong(store + item * item_bytes);
        }
        ok = columns_set(&c, i, think_at(seed, proc, idx, mean),
                         is_write, addr) == 0;
    }
    return columns_finish(&c, ok);
}

/* scan_block(seed, item_bytes, mean_think, wf_thresh, accumulators,
 *            accumulator_items, table_writes, table, table_items,
 *            stride_items, n_procs, proc, base, count)
 *   -> (think, is_write, addr)
 *
 * datacenter.ScanAnalytics.ref_at.
 */
static PyObject *
scan_block(PyObject *self, PyObject *args)
{
    uint64_t seed, item_bytes, acc_items, table, table_items, stride, n_procs;
    double mean, wf_th;
    PyObject *accs;
    int table_writes;
    Py_ssize_t proc, base, count;

    if (!PyArg_ParseTuple(args, "KKddO!KpKKKKnnn", &seed, &item_bytes,
                          &mean, &wf_th, &PyList_Type, &accs, &acc_items,
                          &table_writes, &table, &table_items, &stride,
                          &n_procs, &proc, &base, &count))
        return NULL;
    if (check_args(proc, base, count, acc_items && table_items) < 0)
        return NULL;
    uint64_t acc = list_u64(accs, proc);
    if (PyErr_Occurred())
        return NULL;
    uint64_t start = (uint64_t)proc * table_items / (n_procs > 1 ? n_procs : 1);

    Columns c;
    int ok = columns_new(&c, count) == 0;
    for (Py_ssize_t i = 0; ok && i < count; i++) {
        uint64_t idx = (uint64_t)(base + i);
        uint64_t h = hash_at(seed, 0x5CA7, proc, idx);
        int is_write = (double)(h & 0xFFFFF) < wf_th;
        uint64_t addr = (is_write && !table_writes)
            ? acc + (h >> 24) % acc_items * item_bytes
            : table + (start + idx * stride) % table_items * item_bytes;
        ok = columns_set(&c, i, think_at(seed, proc, idx, mean), is_write,
                         PyLong_FromUnsignedLongLong(addr)) == 0;
    }
    return columns_finish(&c, ok);
}

/* ---- the hit drain -------------------------------------------------- */

/* drain_hits(thinks, isws, addrs, start, t_local, deadline,
 *            index, sets, n_sets, sector_bytes, line_bytes,
 *            invalid, dirty, hit_lat)
 *   -> (consumed, t_local, read_hits, write_hits)
 *
 * thinks/isws/addrs: the block's parallel column lists (ints, bools, ints)
 * start:  offset of the next reference within the block
 * index:  SectoredCache._index  (dict: sector_id -> _Sector)
 * sets:   SectoredCache._sets   (list of per-set LRU lists)
 * invalid/dirty: the LineState.INVALID / LineState.DIRTY singletons
 */
static PyObject *
drain_hits(PyObject *self, PyObject *args)
{
    PyObject *thinks, *isws, *addrs, *index, *sets, *invalid, *dirty;
    Py_ssize_t start;
    long long t_local, deadline, n_sets, sector_bytes, line_bytes, hit_lat;

    if (!PyArg_ParseTuple(args, "O!O!O!nLLO!O!LLLOOL",
                          &PyList_Type, &thinks, &PyList_Type, &isws,
                          &PyList_Type, &addrs, &start, &t_local, &deadline,
                          &PyDict_Type, &index, &PyList_Type, &sets,
                          &n_sets, &sector_bytes, &line_bytes,
                          &invalid, &dirty, &hit_lat))
        return NULL;
    if (sector_bytes <= 0 || line_bytes <= 0 || n_sets <= 0) {
        PyErr_SetString(PyExc_ValueError, "cache geometry must be positive");
        return NULL;
    }

    Py_ssize_t n = PyList_GET_SIZE(addrs);
    if (PyList_GET_SIZE(thinks) != n || PyList_GET_SIZE(isws) != n) {
        PyErr_SetString(PyExc_ValueError, "block columns differ in length");
        return NULL;
    }
    Py_ssize_t pos = start;
    long long read_hits = 0, write_hits = 0;

    while (pos < n && t_local < deadline) {
        long long think = PyLong_AsLongLong(PyList_GET_ITEM(thinks, pos));
        if (think == -1 && PyErr_Occurred())
            return NULL;
        int is_write = PyObject_IsTrue(PyList_GET_ITEM(isws, pos));
        if (is_write < 0)
            return NULL;
        long long addr = PyLong_AsLongLong(PyList_GET_ITEM(addrs, pos));
        if (addr == -1 && PyErr_Occurred())
            return NULL;

        long long sector_id = addr / sector_bytes;
        PyObject *key = PyLong_FromLongLong(sector_id);
        if (key == NULL)
            return NULL;
        PyObject *sector = PyDict_GetItemWithError(index, key); /* borrowed */
        Py_DECREF(key);
        if (sector == NULL) {
            if (PyErr_Occurred())
                return NULL;
            break; /* sector absent: miss */
        }
        PyObject *lines = PyObject_GetAttrString(sector, "lines");
        if (lines == NULL || !PyList_Check(lines)) {
            Py_XDECREF(lines);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError, "_Sector.lines must be a list");
            return NULL;
        }
        Py_ssize_t li = (Py_ssize_t)((addr % sector_bytes) / line_bytes);
        if (li < 0 || li >= PyList_GET_SIZE(lines)) {
            Py_DECREF(lines);
            PyErr_SetString(PyExc_IndexError, "line index outside sector");
            return NULL;
        }
        PyObject *state = PyList_GET_ITEM(lines, li); /* borrowed */
        Py_DECREF(lines);

        int hit = is_write ? (state == dirty) : (state != invalid);
        if (!hit)
            break;

        /* LRU touch == SectoredCache._touch_sector */
        PyObject *ways = PyList_GET_ITEM(sets, (Py_ssize_t)(sector_id % n_sets));
        if (!PyList_Check(ways)) {
            PyErr_SetString(PyExc_TypeError, "cache set must be a list");
            return NULL;
        }
        Py_ssize_t wn = PyList_GET_SIZE(ways);
        if (wn == 0 || PyList_GET_ITEM(ways, wn - 1) != sector) {
            Py_ssize_t j;
            for (j = 0; j < wn; j++) {
                if (PyList_GET_ITEM(ways, j) == sector)
                    break;
            }
            if (j == wn) {
                PyErr_SetString(PyExc_RuntimeError,
                                "resident sector missing from its LRU set");
                return NULL;
            }
            Py_INCREF(sector);
            if (PyList_SetSlice(ways, j, j + 1, NULL) < 0 ||
                PyList_Append(ways, sector) < 0) {
                Py_DECREF(sector);
                return NULL;
            }
            Py_DECREF(sector);
        }

        if (is_write)
            write_hits++;
        else
            read_hits++;
        t_local += think + hit_lat; /* issue_at = t+think; done = issue+lat */
        pos++;
    }

    return Py_BuildValue("(nLLL)", pos - start, t_local, read_hits, write_hits);
}

static PyMethodDef hotloop_methods[] = {
    {"drain_hits", drain_hits, METH_VARARGS,
     "Consume a run of consecutive cache hits from a reference block."},
    {"splash_block", splash_block, METH_VARARGS,
     "Reference block of a calibrated SPLASH workload."},
    {"zipf_block", zipf_block, METH_VARARGS,
     "Reference block of a Zipf KV workload."},
    {"scan_block", scan_block, METH_VARARGS,
     "Reference block of a scan-analytics workload."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef hotloops_module = {
    PyModuleDef_HEAD_INIT,
    "_hotloops",
    "Compiled inner loops for the repro kernel (see repro.kernel.compiled).",
    -1,
    hotloop_methods,
};

PyMODINIT_FUNC
PyInit__hotloops(void)
{
    return PyModule_Create(&hotloops_module);
}
