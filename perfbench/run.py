"""End-to-end benchmark of the COMA simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload water16 --seed 7 --seconds 20 --trace 0

The workloads are defined in ``workloads.py`` and documented, with
the layer each one stresses, in ``DESIGN.md``.  A run:

1. builds the compiled kernel extension (``python -m
   repro.kernel.build_ext``); if it cannot be built, the run fails,
   because no other backend is ever measured in its place;
2. obtains the reference digest: the python backend's result for this
   workload and seed (pinned for ``workloads.PINNED_SEED``, otherwise
   computed untimed and cached under ``.perfbench/`` keyed by a hash
   of the sources);
3. measures for ``--seconds``.  With ``--trace 0``: cold set-up probes,
   then repetitions in one measuring process.  With ``--trace 1``:
   untraced repetitions for the first half of the time, traced ones in
   a second process for the rest;
4. checks every repetition: it must exhaust its streams, report no
   invariant violation, match the reference digest and repeat every
   exact counter of the first repetition (traced ones: see
   ``trace_problems``);
5. prints a metadata line, then the result as one JSON object on the
   last line: the end-to-end metrics with ``--trace 0``, the per-layer
   metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracer import SPAN_NAMES, SPAN_TARGETS  # noqa: E402

#: Every child process must have ended this many seconds after the
#: benchmark started, well inside its 180 s limit.
DEADLINE_S = 165.0

#: Cold set-up samples per ``--trace 0`` run (``setup_s`` is their median).
SETUP_PROBES = 3

#: How far the span self times may sum from the traced ``Machine.run``
#: wall time, as a share of it.  The gap is run code outside every span:
#: process start-up and the end-of-run item census.
SELF_SUM_TOLERANCE = 0.05


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def source_hash() -> str:
    """Hash of the simulator and benchmark sources, keying cached
    reference digests so a changed program never reuses them."""
    digest = hashlib.sha256()
    for root in (ROOT / "src" / "repro", BENCH_DIR):
        for path in sorted(root.rglob("*")):
            if path.is_file() and path.suffix in (".py", ".c", ".json"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Runner:
    """Starts the build and the measuring processes."""

    def __init__(self, tmp_dir: Path, deadline: float):
        self.tmp_dir = tmp_dir
        #: ``time.monotonic()`` by which every child must have ended.
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        prior = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not prior else f"{src}{os.pathsep}{prior}"
        # anything the program writes through tempfile stays in the checkout
        self.env["TMPDIR"] = str(tmp_dir)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def build(self) -> str:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.kernel.build_ext"],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.remaining()),
        )
        if proc.returncode != 0:
            return "failed: " + (proc.stderr.strip() or proc.stdout.strip())[-500:]
        return "built"

    def child(self, workload: str, seed: int, mode: str, *extra: str) -> dict:
        """Run ``measure.py`` in ``mode``; its JSON result or ``{"error": ...}``."""
        timeout = self.remaining()
        if timeout <= 0:
            return {"error": "no time left before the benchmark deadline"}
        child_tmp = tempfile.mkdtemp(dir=self.tmp_dir)
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "measure.py"),
             "--workload", workload, "--seed", str(seed), "--mode", mode,
             "--tmp", child_tmp, "--t-spawn", repr(time.monotonic()), *extra],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            out, err = None, ""
        finally:
            # the child's own children (the sweep's pool) share its
            # process group; none of them may outlive it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
            shutil.rmtree(child_tmp, ignore_errors=True)
        if out is None:
            return {"error": f"{mode} process stalled: no result within {timeout:.0f} s"}
        if proc.returncode != 0:
            tail = "\n".join(err.strip().splitlines()[-8:])
            return {"error": f"{mode} process exited {proc.returncode}: {tail}"}
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {"error": f"{mode} process printed no result"}


def reference_digest(runner: Runner, workload: str, seed: int) -> tuple[object, str]:
    """The python backend's digest for (workload, seed) and where it
    came from: ``pinned``, ``cached`` or ``computed``."""
    if seed == workloads.PINNED_SEED:
        pinned = json.loads((BENCH_DIR / "reference_digests.json").read_text())
        return pinned["digests"][workload], "pinned"
    cache = WORK_DIR / "references" / f"{workload}-{seed}-{source_hash()}.json"
    if cache.exists():
        return json.loads(cache.read_text())["digest"], "cached"
    out = runner.child(workload, seed, "reference")
    if "error" in out:
        return None, f"failed: {out['error']}"
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps({"digest": out["digest"]}))
    return out["digest"], "computed"


def rep_problems(rep: dict, reference, baseline: dict) -> list[str]:
    """Why a repetition fails, or ``[]``."""
    problems = list(rep["problems"])
    if reference is None:
        problems.append("no reference digest to check the result against")
    elif rep["digest"] != reference:
        problems.append("result digest differs from the python-backend reference")
    for key, value in rep["counters"].items():
        if key in baseline and baseline[key] != value:
            problems.append(f"counter {key} did not repeat: {baseline[key]} then {value}")
    return problems


def trace_problems(workload: str, rep: dict, first_trace: dict) -> list[str]:
    """Span coverage, self-time closure and counter consistency of one
    traced repetition."""
    trace = rep["trace"]
    problems = []
    for name in workloads.REQUIRED_SPANS[workload]:
        if span_of(trace, name)["calls"] == 0:
            problems.append(f"span {name} never fired")
    self_sum = sum(span["self_s"] for span in trace["spans"].values())
    wall = trace["run_wall_s"]
    if wall <= 0 or abs(self_sum - wall) > SELF_SUM_TOLERANCE * wall:
        problems.append(
            f"span self times sum to {self_sum:.4f} s, traced runs took {wall:.4f} s"
        )
    interpreted = trace["spans"]["coherence.op"]["calls"]
    drained = trace["counters"]["drained_refs"]
    if interpreted + drained != rep["counters"]["refs"]:
        problems.append(
            f"{drained} drained + {interpreted} interpreted references "
            f"!= {rep['counters']['refs']} references"
        )
    for key, value in trace["counters"].items():
        if first_trace["counters"][key] != value:
            problems.append(f"traced counter {key} did not repeat")
    for name in SPAN_TARGETS:
        if first_trace["spans"][name]["calls"] != trace["spans"][name]["calls"]:
            problems.append(f"span {name} call count did not repeat")
    return problems


def span_of(trace: dict, name: str) -> dict:
    if name == "orch.overhead":
        orch = trace.get("orch")
        if orch is None:
            return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "share": 0.0}
        return {"calls": orch["calls"], "self_s": orch["self_s"],
                "total_s": orch["self_s"], "share": orch["self_s"] / orch["pool_s"]}
    span = dict(trace["spans"][name])
    wall = trace["run_wall_s"]
    span["share"] = span["self_s"] / wall if wall > 0 else 0.0
    return span


def ratio(num: float, den: float | None) -> float:
    return num / den if den else 0.0


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """The per-layer metrics from the passed untraced and traced runs."""
    c = dict(plain[0]["counters"] if plain else traced[0]["counters"])
    tc = traced[0]["trace"]["counters"]
    # the engine and fabric totals of a sweep's cells live in its pool
    # workers; only the tracer reads them there
    c.update({k: tc[k] for k in ("events", "messages", "flit_hops")})
    interpreted = traced[0]["trace"]["spans"]["coherence.op"]["calls"]
    refs = c["refs"]
    plain_s = statistics.median(r["run_s"] for r in plain) if plain else None
    metrics = {
        "sim.events": (c["events"], "count"),
        "sim.events_per_ref": (ratio(c["events"], refs), "ratio"),
        "sim.cycles": (c["cycles"], "count"),
        "sim.cycles_per_s": (ratio(c["cycles"], plain_s), "1/s"),
        "kernel.drained_refs": (tc["drained_refs"], "count"),
        "kernel.drained_share": (ratio(tc["drained_refs"], refs), "ratio"),
        "memory.cache_hit_rate": (1.0 - ratio(c["am_accesses"], refs), "ratio"),
        "memory.am_accesses": (c["am_accesses"], "count"),
        "memory.am_miss_rate": (ratio(c["am_misses"], c["am_accesses"]), "ratio"),
        "coherence.interpreted_refs": (interpreted, "count"),
        "coherence.sharedck_reads": (c["sharedck_reads"], "count"),
        "coherence.injections": (c["injections"], "count"),
        "coherence.injection_probe_hops": (c["injection_probe_hops"], "count"),
        "network.messages": (c["messages"], "count"),
        "network.flit_hops": (c["flit_hops"], "count"),
        "network.walked_share": (ratio(tc["walked_transfers"], c["messages"]), "ratio"),
        "network.retries": (c["retries"], "count"),
        "network.timeouts": (c["timeouts"], "count"),
        "checkpoint.establishments": (c["establishments"], "count"),
        "checkpoint.items_replicated": (c["items_replicated"], "count"),
        "checkpoint.reuse_share": (
            ratio(c["items_reused"], c["items_replicated"] + c["items_reused"]), "ratio"),
        "checkpoint.bytes": (c["ckpt_bytes"], "bytes"),
        "recovery.recoveries": (c["recoveries"], "count"),
        "recovery.rollback_refs": (c["rollback_refs"], "count"),
        "recovery.items_recreated": (c["items_recreated"], "count"),
        "verify.checks": (c["checks"], "count"),
        "verify.violations": (c["violations"], "count"),
        "orch.cells": (c["cells"], "count"),
    }
    for name in SPAN_NAMES:
        spans = [span_of(r["trace"], name) for r in traced]
        metrics[f"{name}.calls"] = (spans[0]["calls"], "count")
        for key, unit in (("self_s", "s"), ("total_s", "s"), ("share", "ratio")):
            metrics[f"{name}.{key}"] = (statistics.median(s[key] for s in spans), unit)
    traced_s = statistics.median(r["run_s"] for r in traced)
    metrics["trace.overhead"] = (ratio(traced_s, plain_s), "ratio")
    return metrics


class Tally:
    """Checks what the measuring processes return and counts the
    attempted and failed operations (set-up probes and repetitions)."""

    def __init__(self, workload: str, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.baseline: dict | None = None
        self.first_trace: dict | None = None

    def passed(self) -> None:
        self.attempted += 1

    def fail(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems)

    def check(self, mode: str, out: dict) -> list[dict]:
        """The passed repetitions of one measuring process."""
        if "error" in out:
            self.fail(f"{mode} process", [out["error"]])
            return []
        passed = []
        for i, rep in enumerate(out["reps"]):
            if self.baseline is None:
                self.baseline = rep["counters"]
            found = rep_problems(rep, self.reference, self.baseline)
            if mode == "trace":
                if self.first_trace is None:
                    self.first_trace = rep["trace"]
                found += trace_problems(self.workload, rep, self.first_trace)
            if found:
                self.fail(f"{mode} repetition {i + 1}", found)
            else:
                self.passed()
                passed.append(rep)
        return passed


def measure(runner: Runner, args, tally: Tally, meta: dict) -> dict:
    """Run the timed part of the benchmark; returns its metrics."""
    t0 = time.monotonic()
    if args.trace:
        plain = tally.check("plain", runner.child(
            args.workload, args.seed, "plain", "--until", repr(t0 + args.seconds / 2)))
        traced = tally.check("trace", runner.child(
            args.workload, args.seed, "trace", "--until", repr(t0 + args.seconds)))
        meta["repetitions"] = {"untraced": len(plain), "traced": len(traced)}
        return layer_metrics(plain, traced) if traced else {}

    setups = []
    for i in range(SETUP_PROBES):
        out = runner.child(args.workload, args.seed, "setup")
        if "error" in out:
            tally.fail(f"set-up probe {i + 1}", [out["error"]])
        else:
            tally.passed()
            setups.append(out["setup_s"])
    out = runner.child(args.workload, args.seed, "plain", "--until", repr(t0 + args.seconds))
    plain = tally.check("plain", out)
    meta["repetitions"] = {
        "setup_s": [round(s, 4) for s in setups],
        "run_s": [round(r["run_s"], 4) for r in plain],
    }
    metrics = {
        "passed_share": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    if plain and setups:
        metrics.update({
            "refs_per_s": (statistics.median(r["refs"] / r["run_s"] for r in plain), "refs/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (out["rss_mb"], "MB"),
        })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of traced runs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        log(f"no simulator sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    started = time.monotonic()
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(dir=WORK_DIR / "tmp"))
    try:
        runner = Runner(tmp_dir, started + DEADLINE_S)
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "backend": "compiled",
            "extension_build": runner.build(),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        }
        if meta["extension_build"] != "built":
            tally = Tally(args.workload, None)
            tally.fail("build", ["compiled backend unavailable"])
            metrics = {"passed_share": (0.0, "ratio")}
        else:
            reference, meta["reference"] = reference_digest(runner, args.workload, args.seed)
            tally = Tally(args.workload, reference)
            metrics = measure(runner, args, tally, meta)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    for problem in tally.problems:
        log(problem)
    meta["problems"] = tally.problems[:20]
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
