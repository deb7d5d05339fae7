"""The benchmark's measuring process, started by ``run.py``.

Modes:

``setup``
    build the workload's machine in this fresh interpreter and exit:
    one sample of the cold set-up a ``repro run`` pays (interpreter
    start, imports, workload construction, ``Machine(...)`` with
    backend attach);
``reference``
    one untimed, unverified run under the python backend, reporting
    only the result digest the timed runs are checked against;
``plain`` / ``trace``
    repetitions under the compiled backend, each on a freshly built
    machine, until ``--until``; ``trace`` installs the span wrappers of
    ``tracer.py`` around every repetition.  The first repetition runs
    in a cold interpreter, and the process's memory peak is read after
    it, so ``peak_rss_mb`` does not depend on how many repetitions
    followed.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (the benchmark's own module, found via sys.path)

#: Repetitions a measuring process runs even past ``--until``, so every
#: run can check that its counters repeat.
MIN_REPS = 2

#: Fields of ``MachineStats`` that only the invariant observer writes;
#: verified runs drop them before digesting, so the digest compares the
#: simulation itself with the unverified reference run.
_OBSERVER_FIELDS = ("invariant_checks", "invariant_violations")


def result_digest(result, drop_observer_fields: bool = False) -> str:
    """sha256 over the canonical JSON of the comparable result dict."""
    import hashlib

    from repro.orch import comparable_result_dict

    data = comparable_result_dict(result)
    if drop_observer_fields:
        for name in _OBSERVER_FIELDS:
            data["stats"].pop(name)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def stats_counters(results) -> dict:
    """Exact work counters summed over ``results`` (one per machine run)."""
    counters = dict.fromkeys((
        "refs", "cycles", "am_accesses", "am_misses", "sharedck_reads",
        "injections", "injection_probe_hops", "retries", "timeouts",
        "establishments", "items_replicated", "items_reused", "ckpt_bytes",
        "recoveries", "rollback_refs", "items_recreated", "checks",
        "violations",
    ), 0)
    for result in results:
        s = result.stats
        counters["refs"] += s.refs
        counters["cycles"] += s.total_cycles
        counters["retries"] += s.transport_retries
        counters["timeouts"] += s.transport_timeouts
        counters["establishments"] += s.n_checkpoints
        counters["recoveries"] += s.n_recoveries
        counters["rollback_refs"] += s.rollback_refs
        counters["checks"] += s.invariant_checks
        counters["violations"] += s.invariant_violations
        for ns in s.node_stats:
            counters["am_accesses"] += ns.am_accesses
            counters["am_misses"] += ns.am_misses
            counters["sharedck_reads"] += ns.sharedck_reads
            counters["injections"] += sum(ns.injections.values())
            counters["injection_probe_hops"] += ns.injection_probe_hops
            counters["items_replicated"] += ns.ckpt_items_replicated
            counters["items_reused"] += ns.ckpt_items_reused
            counters["ckpt_bytes"] += ns.ckpt_bytes_replicated
            counters["items_recreated"] += ns.reconfig_items_recreated
    return counters


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ChildPeakSampler:
    """Polls the peak resident size (``VmHWM``) of this process's
    children, so the sweep can report its pool workers' memory too.
    The pool joins its workers before returning, which is why their
    peaks are read while they live."""

    def __init__(self, interval_s: float = 0.02):
        self.interval_s = interval_s
        self.peaks_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self) -> "ChildPeakSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _children(self) -> list[int]:
        pids = []
        try:
            tids = os.listdir("/proc/self/task")
        except OSError:
            return pids
        for tid in tids:
            try:
                with open(f"/proc/self/task/{tid}/children") as handle:
                    pids.extend(int(p) for p in handle.read().split())
            except OSError:
                continue
        return pids

    def _poll(self) -> None:
        while True:
            for pid in self._children():
                try:
                    with open(f"/proc/{pid}/status") as handle:
                        for line in handle:
                            if line.startswith("VmHWM:"):
                                kb = int(line.split()[1])
                                if kb > self.peaks_kb.get(pid, 0):
                                    self.peaks_kb[pid] = kb
                                break
                except OSError:
                    continue
            if self._stop.wait(self.interval_s):
                return

    def total_mb(self) -> float:
        return sum(self.peaks_kb.values()) / 1024.0


# -- single machine ----------------------------------------------------------


def machine_rep(name: str, seed: int, trace: bool) -> dict:
    """Build, run and check the workload's machine once."""
    spec = workloads.MACHINE_WORKLOADS[name]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()
    try:
        machine = spec.build(seed, backend="compiled")
        result = machine.run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = []
    if not all(stream.exhausted for stream in machine.all_streams()):
        problems.append("a reference stream was not exhausted")
    if result.stats.invariant_violations:
        problems.append(
            f"{result.stats.invariant_violations} invariant violations reported"
        )
    try:
        machine.check_invariants()
    except AssertionError as exc:
        problems.append(f"end-of-run invariant check failed: {exc}"[:2000])
    counters = stats_counters([result])
    counters["events"] = machine.engine.events_dispatched
    counters["messages"] = machine.fabric.messages_sent
    counters["flit_hops"] = machine.fabric.flits_carried
    counters["cells"] = 0
    rep = {
        "run_s": result.wall_seconds,
        "refs": result.stats.refs,
        "digest": result_digest(result, drop_observer_fields=spec.verify),
        "counters": counters,
        "problems": problems,
    }
    if tracer is not None:
        rep["trace"] = tracer.snapshot()
    return rep


# -- sweep -------------------------------------------------------------------


def _reference_cell(payload: dict) -> tuple[str, str]:
    """Pool task: the python-backend digest of one sweep cell."""
    from repro.orch import TaskSpec

    spec = TaskSpec.from_dict(payload)
    result = workloads.build_spec_machine(spec, backend="python").run()
    return spec.key, result_digest(result)


def sweep_reference(seed: int) -> dict:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    specs = workloads.sweep_specs(seed)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workloads.SWEEP_PARALLEL, mp_context=context) as pool:
        return dict(pool.map(_reference_cell, [s.to_dict() for s in specs]))


def sweep_rep(seed: int, trace: bool, tmp_dir: str) -> dict:
    """One orchestrated sweep into a fresh store."""
    from repro.orch import Orchestrator, ResultStore

    specs = workloads.sweep_specs(seed)
    tracer = dump_dir = None
    if trace:
        from tracer import Tracer

        dump_dir = os.path.join(tmp_dir, "spans")
        os.mkdir(dump_dir)
        # the pool forks its workers from this process, so they inherit
        # the class-level wrappers as well as the default backend
        tracer = Tracer(dump_dir=dump_dir).install()
    store = ResultStore(os.path.join(tmp_dir, "store"))
    try:
        with ChildPeakSampler() as sampler:
            t0 = time.perf_counter()
            results, report = Orchestrator(store=store).run(
                specs, parallel=workloads.SWEEP_PARALLEL
            )
            sweep_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = []
    if report.failed or report.computed != len(specs):
        problems.append(
            f"sweep computed {report.computed}/{len(specs)} cells, "
            f"{report.failed} failed: "
            + "; ".join(c.error for c in report.cells if c.error)
        )
    done = [s for s in specs if s.key in results]
    counters = stats_counters([results[s.key] for s in done])
    counters["cells"] = report.computed
    rep = {
        "run_s": sweep_s,
        "refs": counters["refs"],
        "digest": {s.key: result_digest(results[s.key]) for s in done},
        "counters": counters,
        "problems": problems,
        "children_rss_mb": sampler.total_mb(),
    }
    if trace:
        from tracer import load_dumps, merge

        snapshot = merge(load_dumps(dump_dir))
        cell_s = sum(c.wall_seconds for c in report.cells if c.source == "computed")
        pool_s = workloads.SWEEP_PARALLEL * sweep_s
        snapshot["orch"] = {
            "calls": report.computed, "self_s": pool_s - cell_s, "pool_s": pool_s,
        }
        rep["trace"] = snapshot
    return rep


# -- modes -------------------------------------------------------------------


def build_first_machine(name: str, seed: int):
    """The machine a cold ``repro run`` of the workload (for ``sweep``,
    of its first cell) builds before its first event."""
    if name == workloads.SWEEP:
        return workloads.build_spec_machine(
            workloads.sweep_specs(seed)[0], backend="compiled"
        )
    return workloads.MACHINE_WORKLOADS[name].build(seed, backend="compiled")


def repetitions(args) -> dict:
    if args.workload == workloads.SWEEP:
        from repro.kernel import set_default_backend

        set_default_backend("compiled")
    reps = []
    rss_mb = None
    while len(reps) < MIN_REPS or time.monotonic() < args.until:
        rep_tmp = os.path.join(args.tmp, f"rep{len(reps)}")
        os.mkdir(rep_tmp)
        if args.workload == workloads.SWEEP:
            rep = sweep_rep(args.seed, args.mode == "trace", rep_tmp)
        else:
            rep = machine_rep(args.workload, args.seed, args.mode == "trace")
        children_mb = rep.pop("children_rss_mb", 0.0)
        if rss_mb is None:
            rss_mb = peak_rss_mb() + children_mb
        reps.append(rep)
    return {"reps": reps, "rss_mb": rss_mb}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "reference", "plain", "trace"))
    parser.add_argument("--t-spawn", type=float, default=None,
                        help="time.monotonic() of the parent just before it "
                             "started this process (setup mode)")
    parser.add_argument("--until", type=float, default=0.0,
                        help="time.monotonic() after which no further "
                             "repetition starts (plain and trace modes)")
    parser.add_argument("--tmp", default=None,
                        help="scratch directory this process may write")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        build_first_machine(args.workload, args.seed)
        out = {"setup_s": time.monotonic() - args.t_spawn}
    elif args.mode == "reference":
        if args.workload == workloads.SWEEP:
            digest = sweep_reference(args.seed)
        else:
            spec = workloads.MACHINE_WORKLOADS[args.workload]
            result = spec.build(args.seed, backend="python", verify=False).run()
            digest = result_digest(result, drop_observer_fields=spec.verify)
        out = {"digest": digest}
    else:
        out = repetitions(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
