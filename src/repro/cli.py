"""Command-line front end.

Installed as ``repro-bandjoin`` (see ``pyproject.toml``); also runnable as
``python -m repro``.  Sub-commands:

* ``demo``       — run one band-join with every partitioner and print the comparison.
* ``engine``     — run one band-join on every execution backend and compare wall-clock.
* ``table``      — reproduce one of the paper's tables (e.g. ``table 2b``).
* ``figure4``    — reproduce the overhead scatter of Figures 4 / 10.
* ``calibrate``  — calibrate the running-time model on this machine and print it.
* ``serve``      — run the band-join serving layer (JSON lines on stdio or TCP).
* ``stats``      — query a running TCP server's live stats / metrics / traces / health.
* ``explain``    — EXPLAIN (ANALYZE) a prepared query on a running TCP server.
* ``replay``     — replay a captured workload log and verify result fingerprints.
* ``list``       — list the available tables and workload families.

``-v`` / ``-vv`` (global) raise the log level to INFO / DEBUG
(``REPRO_LOG_LEVEL`` sets the default).
"""

from __future__ import annotations

import argparse
import sys

from repro.config import (
    DEFAULT_ENGINE_BACKEND,
    DEFAULT_LOCAL_ALGORITHM,
    ENGINE_BACKENDS,
    LOCAL_ALGORITHM_NAMES,
    STORAGE_BACKENDS,
)
from repro.experiments import workloads as wl
from repro.metrics.report import format_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bandjoin",
        description=(
            "Reproduction of 'Near-Optimal Distributed Band-Joins through Recursive "
            "Partitioning' (SIGMOD 2020)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise log verbosity (-v: INFO, -vv: DEBUG)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run one workload with every partitioner")
    demo.add_argument("--rows", type=int, default=20_000, help="tuples per input relation")
    demo.add_argument("--workers", type=int, default=8, help="number of partition workers")
    demo.add_argument("--dimensions", type=int, default=3, help="join dimensionality")
    demo.add_argument("--band-width", type=float, default=0.05, help="band width per dimension")
    demo.add_argument("--skew", type=float, default=1.5, help="Pareto skew parameter z")
    demo.add_argument("--verify", action="store_true", help="verify against a single-machine join")
    demo.add_argument(
        "--engine",
        choices=ENGINE_BACKENDS,
        default=DEFAULT_ENGINE_BACKEND,
        help="engine backend of the reduce phase (default: %(default)s)",
    )
    demo.add_argument(
        "--local-algorithm",
        choices=LOCAL_ALGORITHM_NAMES,
        default=DEFAULT_LOCAL_ALGORITHM,
        help="local-join kernel run on every worker (default: %(default)s)",
    )

    engine = subparsers.add_parser(
        "engine", help="compare the execution backends on one workload"
    )
    engine.add_argument("--rows", type=int, default=100_000, help="tuples per input relation")
    engine.add_argument("--workers", type=int, default=8, help="number of partition workers")
    engine.add_argument("--dimensions", type=int, default=2, help="join dimensionality")
    engine.add_argument("--band-width", type=float, default=0.01, help="band width per dimension")
    engine.add_argument("--skew", type=float, default=1.5, help="Pareto skew parameter z")
    engine.add_argument(
        "--backends",
        type=str,
        default="serial,threads,processes",
        help="comma-separated backend list to compare",
    )
    engine.add_argument(
        "--repeat", type=int, default=1, help="executions per backend (best time is reported)"
    )
    engine.add_argument(
        "--local-algorithm",
        choices=LOCAL_ALGORITHM_NAMES,
        default=DEFAULT_LOCAL_ALGORITHM,
        help="local-join kernel run inside every task (default: %(default)s)",
    )

    table = subparsers.add_parser("table", help="reproduce one paper table")
    table.add_argument("table_id", help="table identifier, e.g. 2a, 2b, 3, 4c, 5, 7, 9, 12, 15, 16")
    table.add_argument("--scale", type=float, default=1.0, help="input-size scale factor")
    table.add_argument("--verify", action="store_true", help="verify against a single-machine join")
    table.add_argument("--seed", type=int, default=0)

    figure = subparsers.add_parser("figure4", help="reproduce the Figure 4 / 10 overhead scatter")
    figure.add_argument("--scale", type=float, default=0.5, help="input-size scale factor")
    figure.add_argument("--csv", type=str, default=None, help="write the points to this CSV file")
    figure.add_argument("--seed", type=int, default=0)

    calibrate = subparsers.add_parser("calibrate", help="calibrate the running-time model")
    calibrate.add_argument("--queries", type=int, default=24, help="number of training queries")
    calibrate.add_argument("--base-input", type=int, default=4000, help="baseline training input size")

    serve = subparsers.add_parser(
        "serve",
        help="run the band-join service (JSON-lines protocol on stdio or TCP)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="listen on this TCP port instead of serving stdin/stdout",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1", help="TCP bind address")
    serve.add_argument(
        "--backend",
        choices=ENGINE_BACKENDS,
        default="threads",
        help="execution backend of the underlying engine (default: threads)",
    )
    serve.add_argument("--workers", type=int, default=None, help="partition workers per query")
    serve.add_argument(
        "--storage",
        choices=STORAGE_BACKENDS,
        default=None,
        help="relation storage backend: 'memory' keeps everything on the "
        "heap, 'mmap' spills large relations to memory-mapped segments "
        "and streams queries over them (default: memory)",
    )
    serve.add_argument(
        "--spill-dir",
        type=str,
        default=None,
        metavar="PATH",
        help="segment directory for --storage mmap (default: private tempdir)",
    )
    serve.add_argument(
        "--spill-threshold-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="minimum relation size before it is spilled to mmap segments",
    )
    serve.add_argument(
        "--scheduler-workers", type=int, default=None, help="scheduler thread count"
    )
    serve.add_argument(
        "--staleness-threshold",
        type=float,
        default=None,
        help="delta fraction that triggers background re-partitioning",
    )
    serve.add_argument(
        "--local-algorithm",
        choices=LOCAL_ALGORITHM_NAMES,
        default=None,
        help="local-join kernel of the underlying engine",
    )
    serve.add_argument(
        "--max-estimated-pairs",
        type=int,
        default=None,
        help="reject queries whose estimated output exceeds this many pairs",
    )
    serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable tracing spans and kernel profiling (metrics counters stay on)",
    )
    serve.add_argument(
        "--no-capture",
        action="store_true",
        help="disable workload capture (the in-memory traffic event ring)",
    )
    serve.add_argument(
        "--capture-log",
        type=str,
        default=None,
        metavar="PATH",
        help="spool captured traffic to this JSONL file (makes it replayable)",
    )
    serve.add_argument(
        "--capture-ring",
        type=int,
        default=None,
        metavar="N",
        help="capacity of the in-memory capture ring (REPRO_TRACE_RING-style)",
    )
    serve.add_argument(
        "--trace-ring",
        type=int,
        default=None,
        metavar="N",
        help="capacity of the finished-trace ring (default from REPRO_TRACE_RING)",
    )
    serve.add_argument(
        "--slo-p99",
        type=float,
        default=None,
        metavar="SECONDS",
        help="SLO: p99 total latency ceiling in seconds",
    )
    serve.add_argument(
        "--slo-error-rate",
        type=float,
        default=None,
        metavar="FRACTION",
        help="SLO: failed-request fraction ceiling (0..1)",
    )
    serve.add_argument(
        "--slo-cache-hit",
        type=float,
        default=None,
        metavar="FRACTION",
        help="SLO: result-cache hit-rate floor (0..1)",
    )
    serve.add_argument(
        "--slo-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="SLO: scheduler queue-depth ceiling",
    )
    serve.add_argument(
        "--slo-max-estimate-qerror",
        type=float,
        default=None,
        metavar="Q",
        help="SLO: ceiling on the mean output-estimate q-error of recent queries",
    )
    serve.add_argument(
        "--slo-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="background SLO evaluation cadence (0 evaluates only on demand)",
    )
    serve.add_argument(
        "--calibration-log",
        type=str,
        default=None,
        metavar="PATH",
        help="spool (estimate, actual, features) records of executed queries "
        "to this JSONL file for cost-model recalibration",
    )
    serve.add_argument(
        "--inject-fault",
        type=str,
        default=None,
        metavar="SPEC",
        help="deterministic chaos spec like 'worker_crash:0.1,task_slow:0.05,"
        "spill_torn:1' (kinds: worker_crash, task_slow, spill_torn; a "
        "missing rate means 1.0)",
    )
    serve.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="N",
        help="seed of the fault injector's firing decisions (replayable chaos)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default end-to-end deadline applied to every query",
    )
    serve.add_argument(
        "--degraded-mode",
        choices=("stale", "reject"),
        default=None,
        help="overload behavior: serve a marked version-stale cached result "
        "('stale', default) or always reject ('reject')",
    )

    stats = subparsers.add_parser(
        "stats", help="query a running TCP server's live stats surface"
    )
    stats.add_argument("--host", type=str, default="127.0.0.1", help="server address")
    stats.add_argument("--port", type=int, required=True, help="server TCP port")
    stats.add_argument(
        "--prometheus",
        action="store_true",
        help="print the Prometheus text exposition instead of the JSON stats",
    )
    stats.add_argument(
        "--trace",
        type=int,
        default=0,
        metavar="N",
        help="also pretty-print the N most recent query traces",
    )
    stats.add_argument(
        "--health",
        action="store_true",
        help="print the SLO health report instead of the JSON stats",
    )

    explain = subparsers.add_parser(
        "explain",
        help="EXPLAIN (ANALYZE) a prepared query on a running TCP server",
    )
    explain.add_argument("query", help="prepared-query name on the server")
    explain.add_argument("--host", type=str, default="127.0.0.1", help="server address")
    explain.add_argument("--port", type=int, required=True, help="server TCP port")
    explain.add_argument(
        "--epsilons",
        type=str,
        default=None,
        metavar="E1,E2,...",
        help="comma-separated band widths (default: the query's defaults)",
    )
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the query and graft measured actuals plus q-errors "
        "onto every estimate node",
    )
    explain_format = explain.add_mutually_exclusive_group()
    explain_format.add_argument(
        "--json",
        action="store_true",
        help="print the raw JSON report instead of the rendered plan tree",
    )
    explain_format.add_argument(
        "--text",
        action="store_true",
        help="print the rendered plan tree (the default)",
    )

    replay = subparsers.add_parser(
        "replay",
        help="replay a captured workload log (JSONL spool) and verify fingerprints",
    )
    replay.add_argument("log", help="JSONL capture written via --capture-log / capture_log")
    replay.add_argument(
        "--speed",
        type=float,
        default=None,
        metavar="X",
        help="pace requests at X times the captured arrival rate "
        "(default: as fast as possible)",
    )
    replay.add_argument(
        "--backend",
        choices=ENGINE_BACKENDS,
        default=None,
        help="execution backend of the replay service (default: config default)",
    )
    replay.add_argument(
        "--scheduler-workers", type=int, default=None, help="scheduler thread count"
    )
    replay.add_argument(
        "--snapshot",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the replayed log's Workload snapshot JSON here",
    )
    replay.add_argument(
        "--inject-fault",
        type=str,
        default=None,
        metavar="SPEC",
        help="replay under deterministic chaos, e.g. 'worker_crash:0.1'; "
        "fingerprint verification still applies, so the replay proves "
        "recovery never changes answers",
    )
    replay.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="N",
        help="seed of the fault injector's firing decisions",
    )

    subparsers.add_parser("list", help="list available tables and workloads")
    return parser


def _command_demo(args: argparse.Namespace) -> int:
    from repro.engine import ParallelJoinEngine
    from repro.experiments.runner import default_partitioners, run_workload
    from repro.experiments.workloads import pareto_workload

    workload = pareto_workload(
        args.band_width,
        dimensions=args.dimensions,
        skew=args.skew,
        rows_per_input=args.rows,
        workers=args.workers,
    )
    partitioners = default_partitioners(
        include_recpart_symmetric=True, include_grid_star=True, include_iejoin=True
    )
    experiment = run_workload(
        workload,
        partitioners=partitioners,
        verify="count" if args.verify else "none",
        engine=ParallelJoinEngine(backend=args.engine, algorithm=args.local_algorithm),
    )
    print(experiment.format())
    best = experiment.best_method()
    print(f"\nfastest method (optimization + estimated join time): {best.method}")
    return 0


def _command_engine(args: argparse.Namespace) -> int:
    from repro.engine import ParallelJoinEngine, PlanCache, available_backends
    from repro.experiments.workloads import pareto_workload

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    unknown = [b for b in backends if b not in available_backends()]
    if unknown:
        print(f"unknown backends {unknown}; available: {', '.join(available_backends())}")
        return 2
    workload = pareto_workload(
        args.band_width,
        dimensions=args.dimensions,
        skew=args.skew,
        rows_per_input=args.rows,
        workers=args.workers,
    )
    s, t, condition = workload.build()
    # One shared plan cache: RecPart runs once, every backend executes the
    # same partitioning, so the comparison isolates the execution substrate.
    cache = PlanCache()
    rows = []
    reference_output: int | None = None
    serial_seconds: float | None = None
    for backend in backends:
        engine = ParallelJoinEngine(
            backend=backend, algorithm=args.local_algorithm, plan_cache=cache
        )
        best = None
        paid_optimization = False
        for _ in range(max(1, args.repeat)):
            result = engine.join(s, t, condition, workers=args.workers)
            paid_optimization = paid_optimization or not result.plan_from_cache
            if best is None or result.execution_seconds < best.execution_seconds:
                best = result
        if reference_output is None:
            reference_output = best.total_output
        elif best.total_output != reference_output:
            print(
                f"backend {backend!r} produced {best.total_output} pairs, "
                f"expected {reference_output}"
            )
            return 1
        if serial_seconds is None:
            serial_seconds = best.execution_seconds
        rows.append(
            [
                backend,
                best.total_output,
                best.optimization_seconds if paid_optimization else 0.0,
                best.execution_seconds,
                serial_seconds / best.execution_seconds if best.execution_seconds else 1.0,
                best.speedup,
                "no" if paid_optimization else "yes",
            ]
        )
    print(
        format_table(
            ["backend", "output", "opt [s]", "exec [s]", f"vs {backends[0]}", "overlap", "plan cached"],
            rows,
            title=(
                f"{workload.name}: engine backend comparison "
                f"(|S|=|T|={args.rows:,}, w={args.workers})"
            ),
        )
    )
    print(f"\nall backends produced identical output counts ({reference_output:,} pairs)")
    return 0


def _command_table(args: argparse.Namespace) -> int:
    from repro.experiments.tables import ALL_TABLES

    key = args.table_id.lower().removeprefix("table").strip()
    if key not in ALL_TABLES:
        print(f"unknown table {args.table_id!r}; available: {', '.join(sorted(ALL_TABLES))}")
        return 2
    reproduction = ALL_TABLES[key](
        scale=args.scale, verify="count" if args.verify else "none", seed=args.seed
    )
    print(reproduction.format())
    return 0


def _command_figure4(args: argparse.Namespace) -> int:
    from repro.experiments.figures import figure4

    data = figure4(scale=args.scale, seed=args.seed)
    print(data.render_ascii())
    print()
    print(
        format_table(
            ["method", "points", "within 10% of both bounds", "median dup", "median load", "worst"],
            data.summary_rows(),
            title="Figure 4 / Figure 10 summary",
        )
    )
    if args.csv:
        path = data.to_csv(args.csv)
        print(f"\npoints written to {path}")
    return 0


def _command_calibrate(args: argparse.Namespace) -> int:
    from repro.cost.calibration import calibrate_running_time_model

    result = calibrate_running_time_model(n_queries=args.queries, base_input=args.base_input)
    coefficients = result.model.coefficients
    print("calibrated running-time model:")
    print(f"  beta0 (fixed)            = {coefficients.beta0:.6g}")
    print(f"  beta1 (per shuffled tuple) = {coefficients.beta1:.6g}")
    print(f"  beta2 (per local input)  = {coefficients.beta2:.6g}")
    print(f"  beta3 (per output tuple) = {coefficients.beta3:.6g}")
    print(f"  beta2 / beta3            = {coefficients.local_cost_ratio:.3g}")
    print(f"  training observations    = {result.n_observations}")
    print(f"  mean relative error      = {result.mean_relative_error():.3f}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.config import ServiceConfig
    from repro.service import BandJoinService, LineProtocolServer, serve_lines

    overrides = {"backend": args.backend}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.scheduler_workers is not None:
        overrides["scheduler_workers"] = args.scheduler_workers
    if args.staleness_threshold is not None:
        overrides["staleness_threshold"] = args.staleness_threshold
    if args.local_algorithm is not None:
        overrides["local_algorithm"] = args.local_algorithm
    if args.max_estimated_pairs is not None:
        overrides["max_estimated_pairs"] = args.max_estimated_pairs
    if args.storage is not None:
        overrides["storage"] = args.storage
    if args.spill_dir is not None:
        overrides["spill_dir"] = args.spill_dir
    if args.spill_threshold_bytes is not None:
        overrides["spill_threshold_bytes"] = args.spill_threshold_bytes
    if args.no_telemetry:
        overrides["telemetry"] = False
    if args.no_capture:
        overrides["capture"] = False
    if args.capture_log is not None:
        overrides["capture_log"] = args.capture_log
    if args.capture_ring is not None:
        overrides["capture_ring_size"] = args.capture_ring
    if args.trace_ring is not None:
        overrides["trace_ring_size"] = args.trace_ring
    if args.slo_p99 is not None:
        overrides["slo_p99_seconds"] = args.slo_p99
    if args.slo_error_rate is not None:
        overrides["slo_error_rate"] = args.slo_error_rate
    if args.slo_cache_hit is not None:
        overrides["slo_cache_hit_floor"] = args.slo_cache_hit
    if args.slo_queue_depth is not None:
        overrides["slo_queue_depth"] = args.slo_queue_depth
    if args.slo_max_estimate_qerror is not None:
        overrides["slo_max_estimate_qerror"] = args.slo_max_estimate_qerror
    if args.slo_interval is not None:
        overrides["slo_interval"] = args.slo_interval
    if args.calibration_log is not None:
        overrides["calibration_log"] = args.calibration_log
    if args.inject_fault is not None:
        overrides["inject_faults"] = args.inject_fault
    if args.fault_seed is not None:
        overrides["fault_seed"] = args.fault_seed
    if args.deadline is not None:
        overrides["default_deadline_seconds"] = args.deadline
    if args.degraded_mode is not None:
        overrides["degraded_mode"] = args.degraded_mode
    service = BandJoinService(config=ServiceConfig(**overrides))
    with service:
        if args.port is None:
            print(
                '{"ok": true, "op": "ready", "transport": "stdio"}',
                flush=True,
            )
            serve_lines(service, sys.stdin, sys.stdout)
            return 0
        server = LineProtocolServer((args.host, args.port), service)
        port = server.server_address[1]
        print(f'{{"ok": true, "op": "ready", "transport": "tcp", "port": {port}}}', flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            pass
        finally:
            server.shutdown()
            server.server_close()
    return 0


def _request_line(sock_file_r, sock_file_w, payload: dict) -> dict:
    """One JSON-line round trip over a connected socket file pair."""
    import json

    sock_file_w.write((json.dumps(payload) + "\n").encode())
    sock_file_w.flush()
    raw = sock_file_r.readline()
    if not raw:
        raise ConnectionError("server closed the connection")
    return json.loads(raw.decode("utf-8", "replace"))


def _command_stats(args: argparse.Namespace) -> int:
    import json
    import socket

    from repro.obs import format_trace_tree

    with socket.create_connection((args.host, args.port), timeout=30) as sock:
        reader = sock.makefile("rb")
        writer = sock.makefile("wb")
        if args.prometheus:
            response = _request_line(reader, writer, {"op": "metrics"})
            if not response.get("ok"):
                print(f"error: {response.get('error')}")
                return 1
            print(response["metrics"], end="")
        elif args.health:
            response = _request_line(reader, writer, {"op": "health"})
            if not response.get("ok"):
                print(f"error: {response.get('error')}")
                return 1
            health = response["health"]
            print(json.dumps(health, indent=2, sort_keys=True))
            return 0 if health.get("healthy") else 1
        else:
            response = _request_line(reader, writer, {"op": "stats"})
            if not response.get("ok"):
                print(f"error: {response.get('error')}")
                return 1
            print(json.dumps(response["stats"], indent=2, sort_keys=True))
        if args.trace > 0:
            response = _request_line(reader, writer, {"op": "trace", "n": args.trace})
            if not response.get("ok"):
                print(f"error: {response.get('error')}")
                return 1
            traces = response.get("traces", [])
            if not traces:
                print("\nno finished traces yet")
            for trace in traces:
                print()
                print(format_trace_tree(trace))
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    import json
    import socket

    from repro.obs.explain import format_plan_tree

    payload = {"op": "explain", "query": args.query, "analyze": args.analyze}
    if args.epsilons is not None:
        try:
            payload["epsilons"] = [
                float(e) for e in args.epsilons.split(",") if e.strip()
            ]
        except ValueError:
            print(f"invalid --epsilons {args.epsilons!r}; expected comma-separated numbers")
            return 2
    with socket.create_connection((args.host, args.port), timeout=300) as sock:
        reader = sock.makefile("rb")
        writer = sock.makefile("wb")
        response = _request_line(reader, writer, payload)
    if not response.get("ok"):
        print(f"error: {response.get('error')}")
        return 1
    report = response["explain"]
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_plan_tree(report))
    return 0


def _command_replay(args: argparse.Namespace) -> int:
    from repro.config import ServiceConfig
    from repro.obs.workload import Workload, replay_log

    overrides = {"capture": False, "compaction": "sync", "degraded_mode": "reject"}
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.scheduler_workers is not None:
        overrides["scheduler_workers"] = args.scheduler_workers
    if args.inject_fault is not None:
        overrides["inject_faults"] = args.inject_fault
    if args.fault_seed is not None:
        overrides["fault_seed"] = args.fault_seed
    report = replay_log(args.log, config=ServiceConfig(**overrides), speed=args.speed)
    print(report.describe())
    if args.snapshot:
        workload = Workload.from_log_file(args.log)
        workload.save(args.snapshot)
        print(f"workload snapshot written to {args.snapshot}")
    return 0 if report.ok else 1


def _command_list(_: argparse.Namespace) -> int:
    from repro.experiments.tables import ALL_TABLES

    print("available tables:")
    for key in sorted(ALL_TABLES):
        print(f"  {key:4s} -> {ALL_TABLES[key].__doc__.splitlines()[0]}")
    print("\nworkload families (see repro.experiments.workloads):")
    for factory in (
        wl.table2a_workloads,
        wl.table2b_workloads,
        wl.table2c_workloads,
        wl.table3_workloads,
        wl.table16_workloads,
    ):
        for workload in factory():
            print(f"  {workload.name:32s} {workload.description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-bandjoin`` command."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    from repro.obs import setup_logging

    setup_logging(verbosity=args.verbose)
    handlers = {
        "demo": _command_demo,
        "engine": _command_engine,
        "table": _command_table,
        "figure4": _command_figure4,
        "calibrate": _command_calibrate,
        "serve": _command_serve,
        "stats": _command_stats,
        "explain": _command_explain,
        "replay": _command_replay,
        "list": _command_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
