"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's artefacts:

============  =====================================================
``run``        one simulation (app, protocol, frequency) + decomposition
``tables``     Tables 1-3 (injection causes, read latencies, workloads)
``sweep``      the Figs. 3-7 frequency sweep (parallel, resumable)
``scale``      the Figs. 8-11 node-count sweep (parallel, resumable)
``recover``    a failure-injection demo with recovery statistics
``campaign``   randomized fault-injection campaign (parallel, resumable)
``verify``     model-check + fuzz the protocol invariants
``cache``      inspect, garbage-collect or clear the result cache
``bench``      simulation-kernel microbenchmarks (BENCH_kernel.json)
``worker``     task-executing daemon for distributed dispatch
``dispatch``   coordinator: shard a campaign across worker daemons
``serve``      live HTTP dashboard + API over a running campaign
============  =====================================================

Sweeps and campaigns accept ``--workers host:port,...`` to shard
cells over ``repro worker`` daemons instead of a local process pool
(see docs/DISTRIBUTED.md for the topology and failure semantics).

Exit codes (distinct per failure class, see ``repro --help``):

====  ==========================================================
0     success
2     usage error (bad arguments, unknown mutation/profile name)
3     invalid configuration or workload parameters
4     simulation failure (unrecoverable machine state or stall)
5     verification failure (invariant violation / counterexample)
6     result-cache failure (unusable cache directory)
7     sweep failure (one or more cells failed after retries)
8     campaign failure (defect outcomes or failed cells)
9     dispatch failure (no worker reachable / all workers lost)
====  ==========================================================
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.config import ArchConfig, PAPER_FREQUENCIES_HZ, PAPER_NODE_COUNTS
from repro.fault.failures import FailurePlan
from repro.machine import Machine
from repro.recovery import RECOVERY_STRATEGIES
from repro.stats.report import format_table
from repro.workloads.registry import WORKLOAD_FAMILIES, make_workload

# Distinct nonzero exit codes, one per failure class (documented in
# the module docstring and in ``repro --help``).
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_SIMULATION = 4
EXIT_VERIFY = 5
EXIT_CACHE = 6
EXIT_SWEEP = 7
EXIT_CAMPAIGN = 8
EXIT_DISPATCH = 9

_EXIT_CODE_HELP = """\
exit codes:
  0  success
  2  usage error (bad arguments, unknown names)
  3  invalid configuration or workload parameters
  4  simulation failure (unrecoverable machine state or stall)
  5  verification failure (invariant violation or counterexample)
  6  result-cache failure (unusable cache directory)
  7  sweep failure (one or more cells failed after retries)
  8  campaign failure (defect outcomes or failed cells)
  9  dispatch failure (no worker reachable or all workers lost)
"""


def _make_store(args: argparse.Namespace):
    """The result store selected by --cache-dir / REPRO_CACHE*."""
    from repro.orch.store import ResultStore, default_store

    if getattr(args, "cache_dir", None):
        return ResultStore(args.cache_dir)
    return default_store()


def _add_sweep_orchestration_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="shard pending cells over N worker processes (default 1)")
    parser.add_argument(
        "--workers", default=None, metavar="HOST:PORT,...",
        help="shard pending cells over these repro worker daemons "
             "instead of a local pool (see docs/DISTRIBUTED.md)")
    parser.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="SECONDS",
        help="coordinator ping cadence per worker (default 1.0)")
    parser.add_argument(
        "--heartbeat-misses", type=int, default=3, metavar="N",
        help="consecutive missed heartbeats before a worker is "
             "declared dead and its cells reassigned (default 3)")
    parser.add_argument(
        "--connect-retries", type=int, default=5, metavar="N",
        help="dial attempts per worker before declaring it unreachable, "
             "so coordinator and daemons may start in any order "
             "(default 5)")
    parser.add_argument(
        "--connect-backoff", type=float, default=0.3, metavar="SECONDS",
        help="sleep before the first redial, doubling each attempt "
             "(default 0.3)")
    parser.add_argument(
        "--no-local-fallback", action="store_true",
        help="fail (exit 9) instead of finishing cells in-process "
             "when every worker has died")
    parser.add_argument(
        "--resume", action="store_true",
        help="skip cells journaled as completed by an earlier "
             "(possibly interrupted) sweep")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell (fresh results are still persisted)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="abandon and retry a cell running longer than this "
             "(parallel mode only)")
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-cell progress lines")
    parser.add_argument(
        "--token", default=None, metavar="SECRET",
        help="shared handshake secret; workers started with the same "
             "--token accept this coordinator, all others are rejected")


def _make_executor(args: argparse.Namespace):
    """The DistributedExecutor selected by ``--workers``, or None for
    the default local process pool."""
    if not getattr(args, "workers", None):
        return None
    from repro.distributed import DistributedExecutor, parse_workers

    log = None if args.quiet else (lambda msg: print(f"  [dispatch] {msg}"))
    return DistributedExecutor(
        parse_workers(args.workers),
        task_timeout=args.task_timeout,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_misses=args.heartbeat_misses,
        connect_retries=args.connect_retries,
        connect_backoff=args.connect_backoff,
        local_fallback=not args.no_local_fallback,
        token=getattr(args, "token", None),
        log=log,
    )


def _run_sweep_harness(sweep, args: argparse.Namespace):
    """Prefetch a sweep's grid under the CLI's orchestration flags."""
    progress = None if args.quiet else (lambda event: print(event.format()))
    report = sweep.prefetch(
        parallel=args.parallel,
        resume=args.resume,
        read_cache=not args.no_cache,
        progress=progress,
        task_timeout=args.task_timeout,
        executor=_make_executor(args),
    )
    print()
    print(report.format())
    print()
    return report


#: CLI choices for --backend ("auto" negotiates compiled > python).
BACKEND_CHOICES = ("auto", "python", "compiled")


def _select_backend(args: argparse.Namespace) -> int | None:
    """Set the process-default kernel backend from ``--backend``.

    Returns ``EXIT_CONFIG`` (with the backend's install hint on stderr)
    when an explicitly requested backend is unavailable, ``None`` on
    success.  Results are backend-invariant by the golden-digest
    contract, so this only ever changes speed.
    """
    from repro.kernel import BackendUnavailable, set_default_backend

    try:
        set_default_backend(getattr(args, "backend", "auto"))
    except BackendUnavailable as exc:
        print(f"backend '{exc.backend}' unavailable: {exc.reason}",
              file=sys.stderr)
        print(f"hint: {exc.hint}", file=sys.stderr)
        return EXIT_CONFIG
    return None


def _build_run_workload(args: argparse.Namespace):
    """The workload `repro run` drives: a registered generator or a
    streaming gzip trace replay (`run trace --trace PATH`)."""
    if args.app == "trace":
        if not args.trace:
            raise ValueError("app 'trace' needs --trace PATH (a gzip stream trace)")
        from repro.workloads.tracefile import load_stream_trace

        return load_stream_trace(args.trace)
    kw = {}
    if args.app == "zipf":
        kw = {"skew": args.skew, "keyspace_items": args.keyspace,
              "write_fraction": args.write_mix}
    elif args.app == "scan":
        kw = {"stride_items": args.stride, "pressure_ratio": args.pressure}
    return make_workload(
        args.app, n_procs=args.nodes, scale=args.scale, seed=args.seed, **kw
    )


def _cmd_run(args: argparse.Namespace) -> int:
    rc = _select_backend(args)
    if rc is not None:
        return rc
    from repro.kernel import get_default_backend

    wl = _build_run_workload(args)
    n_nodes = wl.n_procs if args.app == "trace" else args.nodes
    cfg = ArchConfig(n_nodes=n_nodes, seed=args.seed)
    if args.protocol == "ecp":
        cfg = cfg.with_ft(checkpoint_frequency_hz=args.frequency)
    print(
        f"running {args.app} on a {n_nodes}-node COMA "
        f"({args.protocol}, scale={args.scale}, "
        f"backend={get_default_backend()})..."
    )
    machine = Machine(
        cfg, wl, protocol=args.protocol,
        recovery_strategy=args.recovery_strategy,
    )
    result = machine.run()
    s = result.stats
    rows = [
        ("total cycles", result.total_cycles),
        ("references", s.refs),
        ("AM miss rate", f"{s.mean_am_miss_rate():.2%}"),
        ("recovery points", s.n_checkpoints),
        ("T_create cycles", s.create_cycles),
        ("T_commit cycles", s.commit_cycles),
        ("recovery data", f"{s.ckpt_bytes_replicated() / 1024:.1f} KB"),
        ("wall time", f"{result.wall_seconds:.1f} s"),
    ]
    print(format_table(["metric", "value"], rows))
    if args.protocol == "ecp":
        machine.check_invariants()
        print("invariants: OK")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import print_table1
    from repro.experiments.table2 import print_table2
    from repro.experiments.table3 import print_table3

    print_table1()
    print()
    print_table2()
    print()
    print_table3()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import FrequencySweep, PairRunner
    from repro.stats.charts import grouped_bar_chart

    rc = _select_backend(args)
    if rc is not None:
        return rc
    apps = tuple(args.apps) if args.apps else None
    runner = PairRunner(store=_make_store(args),
                        recovery_strategy=args.recovery_strategy)
    sweep = FrequencySweep(
        apps=apps, frequencies=tuple(args.frequencies), n_nodes=args.nodes,
        runner=runner,
    )
    report = _run_sweep_harness(sweep, args)
    if not report.ok:
        print("sweep: FAILED (incomplete grid)", file=sys.stderr)
        return EXIT_SWEEP
    sweep.print_all()
    groups = []
    for app in sweep.apps:
        bars = []
        for freq in sweep.frequencies:
            cell = sweep.cell(app, freq)
            bars.append((f"{freq:g}/s", round(cell.overhead.total_overhead * 100, 1)))
        groups.append((app, bars))
    print()
    print(grouped_bar_chart(groups, title="Total overhead vs frequency (Fig. 3)",
                            unit="%"))
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.experiments import PairRunner, ScalingSweep
    from repro.stats.charts import grouped_bar_chart

    rc = _select_backend(args)
    if rc is not None:
        return rc
    apps = tuple(args.apps) if args.apps else None
    runner = PairRunner(store=_make_store(args),
                        recovery_strategy=args.recovery_strategy)
    sweep = ScalingSweep(
        apps=apps, node_counts=tuple(args.nodes), frequency_hz=args.frequency,
        runner=runner,
    )
    report = _run_sweep_harness(sweep, args)
    if not report.ok:
        print("scale: FAILED (incomplete grid)", file=sys.stderr)
        return EXIT_SWEEP
    sweep.print_all()
    groups = []
    for app in sweep.apps:
        bars = [
            (f"{n} nodes", round(sweep.cell(app, n).aggregate_throughput_mb_s, 1))
            for n in sweep.node_counts
        ]
        groups.append((app, bars))
    print()
    print(grouped_bar_chart(groups,
                            title="Aggregate recovery-data throughput (Fig. 9)",
                            unit=" MB/s"))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    cfg = ArchConfig(n_nodes=args.nodes, seed=args.seed).with_ft(
        checkpoint_period_override=20_000, detection_latency=500
    )
    wl = make_workload(args.app, n_procs=args.nodes, scale=args.scale, seed=args.seed)
    plan = [
        FailurePlan(
            time=args.fail_at,
            node=args.fail_node,
            permanent=args.permanent,
            repair_delay=0 if args.permanent else 5_000,
        )
    ]
    kind = "permanent" if args.permanent else "transient"
    print(f"injecting a {kind} failure of node {args.fail_node} at t={args.fail_at}...")
    machine = Machine(
        cfg, wl, protocol="ecp", failure_plan=plan,
        stall_cycle_budget=args.stall_budget,
    )
    result = machine.run()
    machine.check_invariants()
    s = result.stats
    rows = [
        ("failures", s.n_failures),
        ("recoveries", s.n_recoveries),
        ("recovery cycles", s.recovery_cycles),
        ("singleton copies re-replicated", s.total("reconfig_items_recreated")),
        ("references executed (incl. re-run)", s.refs),
        ("completed", all(st.exhausted for st in machine.all_streams())),
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def _campaign_config_from_args(args: argparse.Namespace):
    from repro.fault.campaign import CampaignConfig

    return CampaignConfig(
        seeds=args.seeds,
        master_seed=args.master_seed,
        app=args.app,
        n_nodes=args.nodes,
        refs_per_proc=args.refs,
        mtbf_cycles=args.mtbf,
        transient_fraction=args.transient_fraction,
        repair_delay=args.repair_delay,
        period=args.period,
        detection_latency=args.detection,
        target_phase=args.target_phase,
        stall_budget=args.stall_budget,
        loss_rate=args.loss_rate,
        dup_rate=args.dup_rate,
        reorder_rate=args.reorder_rate,
        outage_rate=args.outage_rate,
        recovery_strategy=args.recovery_strategy,
        membership=args.membership,
        grow_from=args.grow_from,
        grow_to=args.grow_to,
    )


def _cmd_campaign(args: argparse.Namespace, on_cell=None) -> int:
    import json as _json
    from pathlib import Path

    from repro.fault.campaign import CampaignRunner

    rc = _select_backend(args)
    if rc is not None:
        return rc
    cfg = _campaign_config_from_args(args)
    runner = CampaignRunner(cfg, store=_make_store(args))
    executor = _make_executor(args)
    print(
        f"campaign: {cfg.seeds} seeded cells of {cfg.app} on "
        f"{cfg.n_nodes} nodes (MTBF {cfg.mtbf_cycles} cycles, "
        f"target phase {cfg.target_phase}, master seed {cfg.master_seed}"
        + (f", rolling membership {cfg.grow_from}->{cfg.grow_to}"
           if cfg.membership == "rolling" else "")
        + (f", workers {args.workers}" if args.workers else "")
        + ")..."
    )
    progress = None if args.quiet else (lambda line: print(f"  {line}"))
    report = runner.run(
        parallel=args.parallel,
        resume=args.resume,
        read_cache=not args.no_cache,
        task_timeout=args.task_timeout,
        progress=progress,
        executor=executor,
        on_cell=on_cell,
    )
    if args.report:
        Path(args.report).write_text(
            _json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"report written to {args.report}")
    print()
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format())
    if not report.ok:
        print(
            f"campaign: FAILED ({report.defects} defect outcome(s), "
            f"{len(report.failed)} worker failure(s))",
            file=sys.stderr,
        )
        return EXIT_CAMPAIGN
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import (
        MUTATIONS,
        InvariantViolationError,
        ModelConfig,
        check,
        fuzz_batch,
        fuzz_run,
    )

    strategy = args.recovery_strategy
    failures = args.failures
    membership = args.membership
    mutate = None
    if args.mutate:
        if args.mutate not in MUTATIONS:
            print(f"unknown mutation {args.mutate!r}; pick one of "
                  f"{', '.join(sorted(MUTATIONS))}", file=sys.stderr)
            return EXIT_USAGE
        mutation = MUTATIONS[args.mutate]
        mutate = mutation.apply
        print(f"seeding bug {mutation.name!r}: {mutation.description}")
        if mutation.strategy != "ecp" and strategy == "ecp":
            # the seeded path lives in another strategy's code: check it
            strategy = mutation.strategy
            print(f"  (mutation targets the {strategy!r} recovery strategy)")
        if mutation.requires_failures and not failures:
            failures = True
            print("  (mutation only reachable on the failure path; "
                  "enabling --failures)")
        if mutation.requires_membership and not membership:
            membership = True
            print("  (mutation only reachable on the membership path; "
                  "enabling --membership)")

    failed = False

    mcfg = ModelConfig(
        protocol=args.protocol,
        acting_nodes=args.acting_nodes,
        n_items=args.items,
        max_depth=args.depth,
        checkpoints=args.protocol == "ecp",
        failures=failures and args.protocol == "ecp",
        duplicates=args.duplicates,
        lossy=args.lossy and args.protocol == "ecp",
        membership=membership and args.protocol == "ecp",
        strategy=strategy,
    )
    print(f"model checking {mcfg.acting_nodes} acting nodes x "
          f"{mcfg.n_items} item(s), protocol={mcfg.protocol}, "
          f"depth={'closure' if mcfg.max_depth is None else mcfg.max_depth}, "
          f"failures={'on' if mcfg.failures else 'off'}, "
          f"duplicates={'on' if mcfg.duplicates else 'off'}, "
          f"lossy={'on' if mcfg.lossy else 'off'}, "
          f"membership={'on' if mcfg.membership else 'off'}, "
          f"strategy={mcfg.strategy}...")
    result = check(mcfg, mutate=mutate, progress=lambda msg: print(f"  {msg}"))
    print(result.summary())
    if result.counterexample is not None:
        print(result.counterexample.format())
        failed = True

    if not failed and args.protocol == "ecp":
        print(f"\nschedule fuzzing: {args.fuzz_seeds} seeded episodes x "
              f"{args.fuzz_steps} events...")
        reports = fuzz_batch(range(args.fuzz_seeds), steps=args.fuzz_steps)
        for report in reports:
            if not report.ok:
                print(report.summary())
                print(report.counterexample.format())
                failed = True
                break
        else:
            total = sum(r.steps for r in reports)
            print(f"fuzz: OK — {total} events checked across "
                  f"{len(reports)} seeds")

    if not failed and args.full_run and args.protocol == "ecp":
        print("\nfull-run fuzz: engine-driven simulation with runtime "
              "observer + value oracle...")
        try:
            report = fuzz_run(seed=args.seed, refs_per_proc=args.refs)
            print(report.summary())
        except InvariantViolationError as exc:
            print(f"invariant violation during full run:\n{exc}")
            failed = True

    if failed:
        print("\nverify: FAILED", file=sys.stderr)
        return EXIT_VERIFY
    print("\nverify: OK")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.orch.store import DEFAULT_CACHE_DIR, ResultStore

    import json as _json
    import os as _os

    root = args.cache_dir or _os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    store = ResultStore(root)
    if args.cache_command == "stats":
        summary = store.summary()
        if args.json:
            print(_json.dumps(summary.to_dict(), indent=2, sort_keys=True))
        else:
            rows = [
                ("directory", summary.root),
                ("schema version", summary.schema),
                ("records", summary.records),
                ("size", f"{summary.total_bytes / 1024:.1f} KB"),
            ]
            for version, count in sorted(summary.repro_versions.items()):
                rows.append((f"records @ repro {version}", count))
            rows.append(("journal", "present" if store.journal_path.exists()
                         else "absent"))
            rows.append((
                "reclaimable (gc)",
                f"{summary.reclaimable_records} record(s), "
                f"{summary.reclaimable_bytes / 1024:.1f} KB",
            ))
            print(format_table(["cache", "value"], rows))
        return 0
    if args.cache_command == "gc":
        report = store.gc(keep_days=args.keep_days, dry_run=args.dry_run)
        if args.json:
            print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
            return 0
        verb = "would remove" if report.dry_run else "removed"
        print(
            f"cache gc ({store.root}, keep-days {report.keep_days:g}"
            f"{', dry run' if report.dry_run else ''}):"
        )
        print(
            f"  {verb} {report.removed_records} of {report.scanned} "
            f"record(s) ({report.removed_bytes / 1024:.1f} KB); kept "
            f"{report.kept_recent} recent, {report.kept_referenced} "
            f"journal-referenced"
        )
        if not report.dry_run:
            print(
                f"  compacted {report.journals_compacted} journal(s): "
                f"{report.journal_lines_dropped} stale/torn line(s), "
                f"{report.journal_bytes_reclaimed / 1024:.1f} KB reclaimed"
            )
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} cached result(s) and the journal from "
              f"{store.root}")
        return 0
    raise AssertionError(f"unknown cache command {args.cache_command!r}")


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed import WorkerDaemon
    from repro.distributed.protocol import parse_addr

    host, port = parse_addr(args.listen)
    daemon = WorkerDaemon(
        host=host,
        port=port,
        slots=args.parallel,
        max_tasks=args.max_tasks,
        token=args.token,
        log=(lambda _msg: None) if args.quiet else print,
    )
    daemon.start()
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        if not args.quiet:
            print("worker: interrupted, shutting down")
    finally:
        daemon.close()
    return 0


def _cmd_dispatch(args: argparse.Namespace) -> int:
    from repro.distributed import ping_workers, shutdown_workers
    from repro.distributed.protocol import parse_workers

    addrs = parse_workers(args.workers) if args.workers else []
    if not addrs:
        print("dispatch: --workers HOST:PORT,... is required",
              file=sys.stderr)
        return EXIT_USAGE

    if args.ping or args.shutdown:
        probe = shutdown_workers if args.shutdown else ping_workers
        rows = probe(addrs, token=args.token)
        ok = True
        for row in rows:
            if row["ok"]:
                detail = ("shutdown requested" if args.shutdown else
                          f"up, slots={row['slots']}, pid={row['pid']}, "
                          f"rtt {row['rtt_ms']} ms")
            else:
                detail = f"unreachable ({row['error']})"
                ok = False
            print(f"  {row['addr']}: {detail}")
        return 0 if ok else EXIT_DISPATCH

    # Distributed campaign: same cells, reports and exit codes as
    # `repro campaign --workers ...` — `dispatch` merely makes the
    # coordinator role explicit and refuses to run without daemons.
    return _cmd_campaign(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.distributed import DashboardServer, ServeState
    from repro.fault.campaign import CampaignRunner

    rc = _select_backend(args)
    if rc is not None:
        return rc
    cfg = _campaign_config_from_args(args)
    state = ServeState()
    server = DashboardServer(state, host=args.host, port=args.port)
    server.start()
    print(f"repro serve: dashboard at http://{server.host}:{server.port}/ "
          f"(api: /api/status, /api/workers, /healthz)")

    outcome: dict = {}

    def _campaign_thread() -> None:
        try:
            runner = CampaignRunner(cfg, store=_make_store(args))
            executor = _make_executor(args)
            if executor is not None:
                state.set_worker_probe(
                    lambda: (
                        executor.coordinator.snapshot()
                        if executor.coordinator is not None
                        else None
                    )
                )
            state.campaign_started(
                cfg.to_dict(), total=cfg.seeds, parallel=args.parallel
            )
            progress = (
                None if args.quiet else (lambda line: print(f"  {line}"))
            )
            report = runner.run(
                parallel=args.parallel,
                resume=args.resume,
                read_cache=not args.no_cache,
                task_timeout=args.task_timeout,
                progress=progress,
                executor=executor,
                on_cell=state.cell_done,
            )
            state.campaign_finished(report.to_dict())
            outcome["exit"] = 0 if report.ok else EXIT_CAMPAIGN
        except BaseException as exc:  # surfaced on the dashboard, not lost
            state.campaign_crashed(f"{type(exc).__name__}: {exc}")
            outcome["exit"] = EXIT_CAMPAIGN
            if not isinstance(exc, Exception):
                raise

    thread = threading.Thread(
        target=_campaign_thread, name="serve-campaign", daemon=True
    )
    thread.start()
    try:
        thread.join()
        if args.linger:
            print("campaign finished; serving dashboard until Ctrl-C")
            while True:
                thread.join(3600.0)
    except KeyboardInterrupt:
        print("\nserve: interrupted")
    finally:
        server.close()
    return outcome.get("exit", EXIT_CAMPAIGN)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.kernel import BackendUnavailable, available_backends, negotiate
    from repro.perf.bench import (
        check_regression,
        profile_reference,
        run_suite,
    )

    if args.profile:
        print(profile_reference(top=args.top, quick=args.quick))
        return EXIT_OK
    if not args.backend:
        backends = available_backends()
    else:
        from repro.kernel import get_backend

        backends = []
        for name in args.backend:
            try:
                backends.append(
                    negotiate().name if name == "auto" else get_backend(name).name
                )
            except BackendUnavailable as exc:
                print(f"backend '{exc.backend}' unavailable: {exc.reason}",
                      file=sys.stderr)
                print(f"hint: {exc.hint}", file=sys.stderr)
                return EXIT_CONFIG
        backends = tuple(dict.fromkeys(backends))  # dedup, keep order
    mode = "quick" if args.quick else "full"
    print(f"repro bench ({mode} suite, backends: {', '.join(backends)})...")
    report = run_suite(quick=args.quick, backends=tuple(backends),
                       progress=lambda m: print(f"  {m}"))
    if args.baseline:
        report.attach_baseline(args.baseline)
    report.write(args.out)
    print(report.format())
    print(f"wrote {args.out}")
    if args.check_against:
        failures = check_regression(
            report, args.check_against, tolerance=args.tolerance
        )
        if failures:
            for failure in failures:
                print(f"perf regression: {failure}", file=sys.stderr)
            return EXIT_VERIFY
        print(
            f"regression gate: OK (within {args.tolerance:.0%} of "
            f"{args.check_against})"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant COMA (Morin et al., ISCA 1996) simulator",
        epilog=_EXIT_CODE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one simulation run")
    run.add_argument("app", choices=sorted(WORKLOAD_FAMILIES) + ["trace"])
    run.add_argument("--protocol", choices=("standard", "ecp"), default="ecp")
    run.add_argument("--nodes", type=int, default=16)
    run.add_argument("--frequency", type=float, default=100.0,
                     help="recovery points per second (ECP only)")
    run.add_argument("--scale", type=float, default=0.01)
    run.add_argument("--seed", type=int, default=2026)
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="gzip stream trace to replay (app 'trace' only; "
                          "--nodes is taken from the trace header)")
    run.add_argument("--skew", type=float, default=0.99,
                     help="Zipf exponent of the key popularity (zipf only)")
    run.add_argument("--keyspace", type=int, default=8192, metavar="KEYS",
                     help="shared KV keyspace size in items (zipf only)")
    run.add_argument("--write-mix", type=float, default=0.05, metavar="FRAC",
                     help="fraction of KV operations that write (zipf only)")
    run.add_argument("--stride", type=int, default=1, metavar="ITEMS",
                     help="scan stride in items (scan only)")
    run.add_argument("--pressure", type=float, default=4.0, metavar="RATIO",
                     help="working-set to attraction-memory pressure ratio "
                          "(scan only)")
    run.add_argument("--recovery-strategy", choices=RECOVERY_STRATEGIES,
                     default="ecp",
                     help="recovery backend for ECP runs (default ecp)")
    run.add_argument("--backend", choices=BACKEND_CHOICES, default="auto",
                     help="kernel backend; results are bit-identical, "
                          "only speed changes ('auto' picks the fastest "
                          "available, default)")
    run.set_defaults(func=_cmd_run)

    tables = sub.add_parser("tables", help="reproduce Tables 1-3")
    tables.set_defaults(func=_cmd_tables)

    sweep = sub.add_parser(
        "sweep",
        help="Figs. 3-7 frequency sweep",
        description="Run the (app x recovery-point frequency) grid "
        "behind Figures 3-7.  Completed cells are persisted in the "
        "content-addressed result cache and journaled, so the sweep "
        "can run in parallel, survive being killed, and resume.",
    )
    sweep.add_argument("--apps", nargs="*", choices=sorted(WORKLOAD_FAMILIES))
    sweep.add_argument(
        "--frequencies", nargs="*", type=float, default=list(PAPER_FREQUENCIES_HZ)
    )
    sweep.add_argument("--nodes", type=int, default=16,
                       help="machine size for every cell (default 16)")
    sweep.add_argument("--recovery-strategy", choices=RECOVERY_STRATEGIES,
                       default="ecp",
                       help="recovery backend for the ECP cells (default ecp)")
    sweep.add_argument("--backend", choices=BACKEND_CHOICES, default="auto",
                       help="kernel backend for every cell (bit-identical "
                            "results; 'auto' = fastest available, default)")
    _add_sweep_orchestration_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    scale = sub.add_parser(
        "scale",
        help="Figs. 8-11 node-count sweep",
        description="Run the (app x node-count) grid behind Figures "
        "8-11, with the same cache/journal/parallel machinery as "
        "`repro sweep`.",
    )
    scale.add_argument("--apps", nargs="*", choices=sorted(WORKLOAD_FAMILIES))
    scale.add_argument("--nodes", nargs="*", type=int, default=list(PAPER_NODE_COUNTS))
    scale.add_argument("--frequency", type=float, default=100.0)
    scale.add_argument("--recovery-strategy", choices=RECOVERY_STRATEGIES,
                       default="ecp",
                       help="recovery backend for the ECP cells (default ecp)")
    scale.add_argument("--backend", choices=BACKEND_CHOICES, default="auto",
                       help="kernel backend for every cell (bit-identical "
                            "results; 'auto' = fastest available, default)")
    _add_sweep_orchestration_args(scale)
    scale.set_defaults(func=_cmd_scale)

    recover = sub.add_parser("recover", help="failure injection demo")
    recover.add_argument("app", choices=sorted(WORKLOAD_FAMILIES))
    recover.add_argument("--nodes", type=int, default=16)
    recover.add_argument("--scale", type=float, default=0.005)
    recover.add_argument("--fail-at", type=int, default=100_000)
    recover.add_argument("--fail-node", type=int, default=3)
    recover.add_argument("--permanent", action="store_true")
    recover.add_argument("--seed", type=int, default=2026)
    recover.add_argument(
        "--stall-budget", type=int, default=None, metavar="CYCLES",
        help="abort with a diagnostic dump if the machine makes no "
             "progress for this many cycles (default: watchdog off)")
    recover.set_defaults(func=_cmd_recover)

    from repro.machine import TRIGGER_WINDOWS as _WINDOWS

    def _add_campaign_args(target: argparse.ArgumentParser) -> None:
        """Campaign cell-grid flags, shared by campaign/dispatch/serve."""
        target.add_argument("--seeds", type=int, default=200,
                            help="number of independently seeded cells (default 200)")
        target.add_argument("--master-seed", type=int, default=2026,
                            help="seed deriving every cell (same seed = same campaign)")
        target.add_argument("--app",
                            choices=("private", "uniform", "migratory",
                                     "zipf", "scan", "water"),
                            default="private")
        target.add_argument("--nodes", type=int, default=8)
        target.add_argument("--refs", type=int, default=2_500,
                            help="references per processor (default 2500)")
        target.add_argument("--mtbf", type=int, default=40_000, metavar="CYCLES",
                            help="mean cycles between generated failures")
        target.add_argument("--transient-fraction", type=float, default=0.85,
                            help="probability a generated failure is transient")
        target.add_argument("--repair-delay", type=int, default=2_000,
                            metavar="CYCLES",
                            help="mean transient repair delay")
        target.add_argument("--period", type=int, default=6_000, metavar="CYCLES",
                            help="checkpoint period override")
        target.add_argument("--detection", type=int, default=200, metavar="CYCLES",
                            help="failure detection latency")
        target.add_argument("--target-phase", default="mixed",
                            choices=("mixed", "timed") + _WINDOWS,
                            help="aim every cell's trigger at one window, "
                                 "'timed' for MTBF-only cells, or 'mixed' "
                                 "to cycle through all modes (default)")
        target.add_argument("--loss-rate", type=float, default=0.0, metavar="P",
                            help="per-packet drop probability on the interconnect")
        target.add_argument("--dup-rate", type=float, default=0.0, metavar="P",
                            help="per-packet duplication probability")
        target.add_argument("--reorder-rate", type=float, default=0.0, metavar="P",
                            help="per-packet reorder (extra-delay) probability")
        target.add_argument("--outage-rate", type=float, default=0.0, metavar="P",
                            help="per-packet probability of starting a transient "
                                 "link outage on that (src, dst) path")
        target.add_argument("--stall-budget", type=int, default=100_000,
                            metavar="CYCLES",
                            help="per-run no-progress budget before the "
                                 "watchdog declares a stall")
        target.add_argument("--recovery-strategy", choices=RECOVERY_STRATEGIES,
                            default="ecp",
                            help="recovery backend every cell runs under "
                                 "(default ecp)")
        target.add_argument("--backend", choices=BACKEND_CHOICES,
                            default="auto",
                            help="kernel backend for locally executed cells "
                                 "(bit-identical results; 'auto' = fastest "
                                 "available, default; remote workers "
                                 "negotiate their own)")
        target.add_argument("--membership", choices=("static", "rolling"),
                            default="static",
                            help="'rolling' starts each cell with --grow-from "
                                 "members on an --nodes-capacity machine and "
                                 "admits the remaining slots mid-run while "
                                 "the fault plan executes (default static)")
        target.add_argument("--grow-from", type=int, default=0, metavar="N",
                            help="rolling only: members at t=0 "
                                 "(default: nodes - 2)")
        target.add_argument("--grow-to", type=int, default=0, metavar="N",
                            help="rolling only: members after all joins "
                                 "(default: nodes)")
        target.add_argument("--report", default=None, metavar="PATH",
                            help="also write the full JSON report here")
        target.add_argument("--json", action="store_true",
                            help="print the JSON report instead of tables")
        _add_sweep_orchestration_args(target)

    campaign = sub.add_parser(
        "campaign",
        help="randomized fault-injection campaign",
        description="Fan hundreds of seeded fault-injection cells "
        "through the parallel orchestrator: exponential (MTBF) failure "
        "arrivals, phase-targeted triggers, a stall watchdog, and a "
        "six-way outcome classification per run.  A healthy simulator "
        "reports zero simulator_bug and zero stalled cells for any "
        "master seed; anything else exits 8 with the offending seeds.",
    )
    _add_campaign_args(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    worker = sub.add_parser(
        "worker",
        help="task-executing daemon for distributed dispatch",
        description="Run a worker daemon executing sweep/campaign cells "
        "sent by a coordinator (`repro campaign --workers ...` or "
        "`repro dispatch`).  Announces its bound address on stdout; "
        "--listen HOST:0 binds a kernel-assigned port.",
    )
    worker.add_argument("--listen", default="127.0.0.1:7070",
                        metavar="HOST:PORT",
                        help="address to listen on (default 127.0.0.1:7070; "
                             "port 0 = kernel-assigned)")
    worker.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="task slots (local process-pool width, default 1)")
    worker.add_argument("--max-tasks", type=int, default=None, metavar="N",
                        help="hard-exit upon receiving task N+1, leaving it "
                             "unanswered (crash-injection knob for "
                             "reassignment tests)")
    worker.add_argument("--token", default=None, metavar="SECRET",
                        help="shared handshake secret; only coordinators "
                             "presenting the same --token are served")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-task log lines")
    worker.set_defaults(func=_cmd_worker)

    dispatch = sub.add_parser(
        "dispatch",
        help="coordinator: shard a campaign across worker daemons",
        description="Explicit coordinator role: shard a fault-injection "
        "campaign across `repro worker` daemons (--workers is required; "
        "exit 9 if no worker is reachable), or probe/stop daemons with "
        "--ping / --shutdown.  Results are bit-identical to a serial "
        "`repro campaign` with the same parameters.",
    )
    dispatch.add_argument("--ping", action="store_true",
                          help="probe each worker's health and exit")
    dispatch.add_argument("--shutdown", action="store_true",
                          help="ask each worker daemon to exit cleanly")
    _add_campaign_args(dispatch)
    dispatch.set_defaults(func=_cmd_dispatch)

    serve = sub.add_parser(
        "serve",
        help="live HTTP dashboard + API over a running campaign",
        description="Run a campaign (locally or over --workers) while "
        "serving a live HTML dashboard and JSON API: progress, per-worker "
        "throughput, outcome taxonomy and ETA at /, /api/status, "
        "/api/workers and /healthz.",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="dashboard bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8484,
                       help="dashboard port (default 8484; 0 = kernel-assigned)")
    serve.add_argument("--linger", action="store_true",
                       help="keep serving the final dashboard after the "
                            "campaign finishes (until Ctrl-C)")
    _add_campaign_args(serve)
    serve.set_defaults(func=_cmd_serve)

    verify = sub.add_parser(
        "verify",
        help="model-check + fuzz the protocol invariants",
        description="Exhaustive small-scope model checking, seeded "
        "schedule fuzzing and (optionally) a fully invariant-checked "
        "engine run; exits nonzero on any violation, printing the "
        "counterexample trace and the global state.",
    )
    verify.add_argument("--protocol", choices=("standard", "ecp"), default="ecp")
    verify.add_argument("--acting-nodes", type=int, default=2,
                        help="nodes issuing reads/writes in the model (2-3)")
    verify.add_argument("--items", type=int, default=1, help="items in the model (1-2)")
    verify.add_argument("--depth", type=int, default=None,
                        help="BFS depth bound (default: explore to closure)")
    verify.add_argument("--duplicates", action="store_true",
                        help="also enumerate duplicate message deliveries "
                             "(exactly-once effect of the transport layer)")
    verify.add_argument("--lossy", action="store_true",
                        help="also enumerate establishments under scripted "
                             "drop/dup schedules (transport fault masking)")
    verify.add_argument("--failures", action="store_true",
                        help="enumerate single permanent node failures")
    verify.add_argument("--membership", action="store_true",
                        help="enumerate elastic-membership events: a join "
                             "landing anywhere (including mid-establishment) "
                             "and leadership handoffs at the sync point")
    verify.add_argument("--fuzz-seeds", type=int, default=10)
    verify.add_argument("--fuzz-steps", type=int, default=150)
    verify.add_argument("--full-run", action="store_true",
                        help="also run one invariant-checked engine simulation")
    verify.add_argument("--refs", type=int, default=800,
                        help="references per processor for --full-run")
    verify.add_argument("--mutate", metavar="NAME", default=None,
                        help="seed a named protocol bug (expect a counterexample)")
    verify.add_argument("--recovery-strategy", choices=RECOVERY_STRATEGIES,
                        default="ecp",
                        help="recovery backend the model establishes and "
                             "recovers through (default ecp)")
    verify.add_argument("--seed", type=int, default=2026)
    verify.set_defaults(func=_cmd_verify)

    cache = sub.add_parser(
        "cache",
        help="inspect, garbage-collect or clear the on-disk result cache",
        description="The sweep harness persists every completed "
        "simulation cell under a content-addressed cache directory "
        "(default .repro-cache/, override with --cache-dir or "
        "$REPRO_CACHE_DIR).",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser("stats", help="record count, size, versions")
    cache_stats.add_argument("--cache-dir", default=None, metavar="DIR")
    cache_stats.add_argument("--json", action="store_true",
                             help="machine-readable output")
    cache_gc = cache_sub.add_parser(
        "gc",
        help="prune stale records and compact the journals",
        description="Remove records neither written nor referenced by "
        "any journal task_completed event within --keep-days, then "
        "compact every journal (drop torn lines and superseded "
        "duplicate completions).  --dry-run reports without deleting.",
    )
    cache_gc.add_argument("--cache-dir", default=None, metavar="DIR")
    from repro.orch.store import GC_KEEP_DAYS_DEFAULT

    cache_gc.add_argument("--keep-days", type=float,
                          default=GC_KEEP_DAYS_DEFAULT, metavar="DAYS",
                          help="retention window in days (default 30)")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be removed, delete nothing")
    cache_gc.add_argument("--json", action="store_true",
                          help="machine-readable output")
    cache_clear = cache_sub.add_parser(
        "clear", help="delete every record and the journal"
    )
    cache_clear.add_argument("--cache-dir", default=None, metavar="DIR")
    cache.set_defaults(func=_cmd_cache)

    bench = sub.add_parser(
        "bench",
        help="simulation-kernel microbenchmarks",
        description="Run the fixed kernel benchmark suite (engine "
        "events/sec, fabric flit-hops/sec, end-to-end cycles/sec at "
        "the paper's node counts) and write BENCH_kernel.json.  See "
        "docs/PERF.md for methodology and how to read the report.",
    )
    bench.add_argument("--quick", action="store_true",
                       help="shrunk workloads for CI smoke runs")
    bench.add_argument("--backend", action="append", default=None,
                       choices=BACKEND_CHOICES, metavar="NAME",
                       help="kernel backend for the end-to-end rows "
                            "(repeatable; default: every available backend)")
    bench.add_argument("--out", default="BENCH_kernel.json",
                       help="report path (default BENCH_kernel.json)")
    bench.add_argument("--baseline", default=None, metavar="JSON",
                       help="record speedups against this baseline report")
    bench.add_argument("--check-against", default=None, metavar="JSON",
                       help="fail (exit 5) if engine events/sec regresses "
                       "more than --tolerance vs this baseline report")
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="allowed fractional regression for "
                       "--check-against (default 0.30)")
    bench.add_argument("--profile", action="store_true",
                       help="cProfile the reference run instead and print "
                       "the top-N hotspot table")
    bench.add_argument("--top", type=int, default=25,
                       help="rows in the --profile hotspot table")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.checkpoint.recovery import UnrecoverableFailure
    from repro.distributed.coordinator import DispatchError
    from repro.fault.watchdog import StallError
    from repro.kernel import get_default_backend, set_default_backend
    from repro.orch.store import CacheError

    parser = build_parser()
    args = parser.parse_args(argv)
    # The --backend flag selects the process-default kernel backend for
    # this invocation only; restore it afterwards so in-process callers
    # (tests, embedding) observe no global side effect.
    prior_backend = get_default_backend()
    try:
        return args.func(args)
    except DispatchError as exc:
        print(f"dispatch error: {exc}", file=sys.stderr)
        return EXIT_DISPATCH
    except BrokenPipeError:
        # e.g. `repro sweep | head` — the reader went away mid-report;
        # detach stdout so interpreter shutdown doesn't re-raise
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except StallError as exc:
        print(f"simulation stalled: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except UnrecoverableFailure as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        set_default_backend(prior_backend)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
