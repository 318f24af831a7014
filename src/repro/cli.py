"""Command-line interface: ``rcgp`` (or ``python -m repro.cli``).

Subcommands::

    rcgp synth  design.{v,blif,aag,pla,real}  [-o out.json] [options]
    rcgp bench  <testcase> [options]          # one registry benchmark
    rcgp batch  <target> [...] --store DIR    # scheduled, resumable jobs
    rcgp serve  --store DIR --port N          # the scheduler over HTTP
    rcgp worker --connect HOST:PORT           # remote evaluation worker
    rcgp exact  <testcase> [options]          # exact baseline
    rcgp table  {1,2} [testcase ...]          # paper table harness
    rcgp list                                 # registry contents
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .api import Session, synthesize
from .bench.registry import BENCHMARKS, get_benchmark
from .core.config import RcgpConfig
from .core.fitness import EXHAUSTIVE_FORMAL_LIMIT
from .errors import ExactSynthesisTimeout, ReproError
from .exact.synthesizer import exact_synthesize
from .harness.report import compare_with_paper, format_rows
from .harness.runner import HarnessConfig, run_table
from .io.rqfp_json import write_rqfp_json


def _add_engine_options(parser: argparse.ArgumentParser, *,
                        telemetry_help: str = "write per-generation JSONL "
                        "telemetry events to this file",
                        pool_only: bool = False) -> None:
    """The option group every evolution-running subcommand shares.

    ``pool_only`` keeps just the worker-pool knobs — for subcommands
    (``serve``) where the per-job search config arrives from elsewhere
    and only the shared evaluation machinery is configured locally.
    """
    group = parser.add_argument_group("engine options")
    group.add_argument("--workers", type=int, default=0,
                       help="most worker processes of the one session "
                            "every job shares (0/1 inline; N>1 replays "
                            "spans on up to N workers started as needed, "
                            "bit-identical results for a fixed seed)")
    if not pool_only:
        group.add_argument("--telemetry", metavar="PATH", default=None,
                           help=telemetry_help)
    group.add_argument("--batch-timeout", type=float, default=None,
                       help="seconds before a replay span on a pool "
                            "worker is declared hung and re-sent to a "
                            "fresh worker (default: wait forever)")
    group.add_argument("--batch-retries", type=int, default=2,
                       help="re-sends of a lost/hung span before the "
                            "slice finishes inline (default 2)")


def _add_search_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--generations", type=int, default=10_000,
                        help="CGP generation budget N (default 10000)")
    parser.add_argument("--offspring", type=int, default=4,
                        help="lambda of the (1+lambda) ES (default 4)")
    parser.add_argument("--mutation-rate", type=float, default=0.08,
                        help="mutation rate mu in [0,1] (default 0.08; "
                             "the paper uses 1.0 with a 5e7 budget)")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument("--max-genes", type=int, default=None,
                        help="cap on mutated genes per offspring")
    parser.add_argument("--shrink", choices=("always", "on_improvement",
                                             "never"), default="always")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="wall-clock cap in seconds")
    parser.add_argument("--verify", action="store_true",
                        help="end-of-job result gate: decide spec "
                             "equivalence of the final netlist on the "
                             "object path (exhaustive simulation up to "
                             f"{EXHAUSTIVE_FORMAL_LIMIT} inputs, SAT "
                             "above) and check RQFP legality (fan-out + "
                             "path balancing); violations abort with a "
                             "typed error")


def _add_rcgp_options(parser: argparse.ArgumentParser) -> None:
    _add_search_options(parser)
    _add_engine_options(parser)


def _config_from(args: argparse.Namespace) -> RcgpConfig:
    return RcgpConfig(
        generations=args.generations,
        offspring=args.offspring,
        mutation_rate=args.mutation_rate,
        max_mutated_genes=args.max_genes,
        seed=args.seed,
        shrink=args.shrink,
        time_budget=args.time_budget,
        telemetry_path=args.telemetry,
        verify_result=args.verify,
        batch_timeout=args.batch_timeout,
        batch_retries=args.batch_retries,
    )


def _print_result(result, verbose: bool) -> None:
    print(f"initialization: {result.initial.cost}")
    print(f"rcgp          : {result.cost}")
    print(f"verified      : {result.verify()}")
    if result.evolution.verified:
        print("result gate   : passed (object-path re-simulation, RQFP "
              "legality, equivalence)")
    if result.evolution.interrupted:
        print("interrupted   : run stopped early (SIGINT); result is the "
              "best so far")
    if result.evolution.worker_restarts or result.evolution.degraded_to_inline:
        print(f"worker faults : {result.evolution.worker_restarts} pool "
              f"restarts, {result.evolution.batches_retried} batches "
              f"retried"
              + (", degraded to inline evaluation"
                 if result.evolution.degraded_to_inline else ""))
    if verbose:
        print(f"generations   : {result.evolution.generations}")
        print(f"evaluations   : {result.evolution.evaluations}")
        incremental = result.evolution.eval_incremental
        if incremental:
            ports = result.evolution.ports_resimulated / incremental
            print(f"incremental   : {incremental} of "
                  f"{incremental + result.evolution.eval_full} simulated "
                  f"(avg {ports:.1f} ports recomputed to a verdict)")
        print(f"netlist       : {result.netlist.describe()}")


def _synthesize(args: argparse.Namespace, spec, name: str = ""):
    """One job on a session that owns ``--workers`` processes."""
    with Session(workers=args.workers) as session:
        return synthesize(spec, _config_from(args), name=name,
                          session=session)


def _cmd_synth(args: argparse.Namespace) -> int:
    result = _synthesize(args, args.design)
    _print_result(result, args.verbose)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(write_rqfp_json(result.netlist, result.plan))
        print(f"wrote {args.output}")
    return 0


def _resolve_spec(testcase: str):
    """Spec for a registry or extra benchmark name."""
    from .bench.extras import EXTRA_BENCHMARKS, extra_spec
    if testcase in EXTRA_BENCHMARKS:
        return extra_spec(testcase), testcase
    benchmark = get_benchmark(testcase)
    return benchmark.spec(), benchmark.name


def _cmd_bench(args: argparse.Namespace) -> int:
    spec, name = _resolve_spec(args.testcase)
    result = _synthesize(args, spec, name)
    _print_result(result, args.verbose)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(write_rqfp_json(result.netlist, result.plan))
        print(f"wrote {args.output}")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    benchmark = get_benchmark(args.testcase)
    try:
        result = exact_synthesize(
            benchmark.spec(), name=benchmark.name,
            conflict_budget=args.conflicts,
            time_budget=args.time_budget,
            max_gates=args.max_gates,
        )
    except ExactSynthesisTimeout as exc:
        print(f"timeout: {exc} (conflicts={exc.conflicts}, "
              f"elapsed={exc.elapsed:.1f}s)")
        return 2
    print(f"gates={result.num_gates} garbage={result.num_garbage} "
          f"runtime={result.runtime:.1f}s conflicts={result.conflicts} "
          f"optimal(gates={result.gates_proved_optimal}, "
          f"garbage={result.garbage_proved_optimal})")
    print(result.netlist.describe())
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Scheduled, resumable synthesis of many targets over one store.

    Each target is a design file path or a registry/extra benchmark
    name.  Jobs are keyed by content hash in the store: re-running the
    same command serves finished jobs without re-evaluation and resumes
    interrupted ones from their last checkpoint.  Exit status: 0 all
    done, 1 a job failed, 3 ``--max-ticks`` exhausted with work left.
    """
    config = _config_from(args)
    with Session(args.store, workers=args.workers,
                 quantum=args.quantum,
                 lease_ttl=args.lease_ttl) as session:
        jobs = []
        for target in args.targets:
            if os.path.exists(target):
                job = session.submit(target, config)
            else:
                spec, name = _resolve_spec(target)
                job = session.submit(spec, config, name=name)
            jobs.append(job)
        served = {job.id for job in jobs if job.from_store}
        session.run(max_ticks=args.max_ticks)
        failed = unfinished = 0
        for job in jobs:
            state = job.state
            label = job.name or job.id
            if state == "done":
                result = job.result()
                marker = "  [from store]" if job.id in served else ""
                print(f"{label:<16} done    {result.cost}{marker}")
            elif state == "failed":
                failed += 1
                print(f"{label:<16} failed  {job.record.get('error')}")
            else:
                unfinished += 1
                print(f"{label:<16} {state:<7} "
                      f"generation {job.generations_done}")
    if failed:
        return 1
    return 3 if unfinished else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the synthesis scheduler as an HTTP service.

    Submissions arrive as truth-table specs + full configs over
    ``POST /v1/jobs`` (see ``docs/service.md``); the server shares its
    worker processes and one job store across all of them, and SIGTERM
    drains gracefully — the slice in flight finishes and checkpoints,
    so a restarted ``rcgp serve`` over the same ``--store`` resumes
    every unfinished job bit-identically.
    """
    from .service import serve
    operational = {"batch_retries": args.batch_retries}
    if args.batch_timeout is not None:
        operational["batch_timeout"] = args.batch_timeout
    token = args.cluster_token or os.environ.get("RCGP_CLUSTER_TOKEN", "")
    return serve(args.store, host=args.host, port=args.port,
                 workers=args.workers, quantum=args.quantum,
                 max_queue=args.max_queue,
                 request_timeout=args.request_timeout,
                 operational=operational, resume=not args.no_resume,
                 lease_ttl=args.lease_ttl,
                 cluster_port=args.cluster_port,
                 cluster_host=args.cluster_host,
                 cluster_token=token)


def _cmd_worker(args: argparse.Namespace) -> int:
    """Serve evaluation frames to a coordinator over TCP.

    Dials ``--connect host:port`` (the coordinator's ``--cluster-port``
    listener), authenticates with the shared ``--token`` and then
    answers the same batch/span frames a local pipe worker answers.
    Reconnects with exponential backoff when the coordinator goes away;
    exits non-zero only on auth/version rejection or a bad endpoint.
    """
    from .cluster import run_worker
    token = args.token or os.environ.get("RCGP_CLUSTER_TOKEN", "")
    return run_worker(args.connect, token, name=args.name,
                      slots=args.slots,
                      reconnect_delay=args.reconnect_delay,
                      once=args.once)


def _cmd_table(args: argparse.Namespace) -> int:
    config = HarnessConfig.from_env()
    if args.generations is not None:
        config.generations = args.generations
    if args.no_exact:
        config.run_exact = False
    if args.workers:
        config.workers = args.workers
    if args.telemetry is not None:
        config.telemetry_dir = args.telemetry
    if args.store is not None:
        config.store_dir = args.store
    config.batch_timeout = args.batch_timeout
    config.batch_retries = args.batch_retries
    rows = run_table(args.table, config, args.testcases or None)
    title = ("Table 1 — small RevLib circuits" if args.table == 1 else
             "Table 2 — large RevLib + reciprocal circuits")
    print(format_rows(rows, title=title))
    print()
    print(compare_with_paper(rows))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Decide whether a synthesized RQFP JSON netlist realizes a design
    file, by the rule fitness and the result gate use."""
    from .core.verify import realizes
    from .flow import load_spec
    from .io.rqfp_json import read_rqfp_json

    netlist = read_rqfp_json(args.netlist)
    tables, name = load_spec(args.design)
    if netlist.num_inputs != tables[0].num_vars or \
            netlist.num_outputs != len(tables):
        print(f"interface mismatch: netlist {netlist.num_inputs}->"
              f"{netlist.num_outputs}, design {tables[0].num_vars}->"
              f"{len(tables)}")
        return 1
    result = realizes(netlist, tables, conflict_budget=args.conflicts)
    method = ("exhaustive simulation" if result.method == "simulation"
              else f"SAT miter, {result.conflicts} conflicts")
    if result.equivalent is True:
        print(f"EQUIVALENT: {args.netlist} realizes {name} ({method})")
        return 0
    if result.equivalent is False:
        print(f"NOT EQUIVALENT: counterexample input pattern "
              f"{result.counterexample:#x} ({method})")
        return 1
    print(f"UNDECIDED: conflict budget exhausted ({method})")
    return 2


def _cmd_stats(args: argparse.Namespace) -> int:
    """Cost metrics + AQFP cell breakdown of an RQFP JSON netlist."""
    from .io.rqfp_json import read_rqfp_json
    from .rqfp.aqfp import expand_to_aqfp
    from .rqfp.buffer_opt import optimal_levels
    from .rqfp.metrics import circuit_cost
    from .rqfp.validate import check_circuit

    netlist = read_rqfp_json(args.netlist)
    plan = optimal_levels(netlist)
    cost = circuit_cost(netlist, plan)
    print(f"netlist : {netlist!r}")
    print(f"cost    : {cost}")
    aqfp = expand_to_aqfp(netlist, plan)
    print(f"AQFP    : {aqfp.count('maj3')} majorities, "
          f"{aqfp.count('splitter')} splitters, "
          f"{aqfp.count('buffer')} buffers "
          f"= {aqfp.total_jjs()} JJs")
    problems = check_circuit(netlist, plan)
    print("design rules: " + ("clean" if not problems else "; ".join(problems)))
    return 0 if not problems else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Multi-seed statistics for one benchmark."""
    from .harness.stats import seed_sweep

    spec, name = _resolve_spec(args.testcase)
    seeds = list(range(args.seeds))

    def factory(seed: int) -> RcgpConfig:
        return RcgpConfig(generations=args.generations,
                          mutation_rate=args.mutation_rate,
                          max_mutated_genes=args.max_genes,
                          seed=seed, shrink=args.shrink)

    # One session, so every seed shares up to --workers processes.
    with Session(workers=args.workers) as session:
        sweep = seed_sweep(spec, seeds, factory, name=name,
                           session=session)
    print(sweep.report())
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    from .bench.extras import EXTRA_BENCHMARKS
    print(f"{'name':<14} {'table':<5} {'n_pi':<4} {'n_po':<4}")
    for name, benchmark in BENCHMARKS.items():
        print(f"{name:<14} {benchmark.table:<5} "
              f"{benchmark.num_inputs:<4} {benchmark.num_outputs:<4}")
    for name, fn in EXTRA_BENCHMARKS.items():
        spec = fn()
        print(f"{name:<14} {'extra':<5} {spec[0].num_vars:<4} {len(spec):<4}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcgp",
        description="RCGP: CGP-based synthesis of RQFP logic circuits "
                    "(DAC'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a design file")
    p_synth.add_argument("design")
    p_synth.add_argument("-o", "--output", help="write RQFP JSON netlist")
    p_synth.add_argument("-v", "--verbose", action="store_true")
    _add_rcgp_options(p_synth)
    p_synth.set_defaults(func=_cmd_synth)

    p_bench = sub.add_parser("bench", help="synthesize a registry benchmark")
    p_bench.add_argument("testcase")
    p_bench.add_argument("-o", "--output", help="write RQFP JSON netlist")
    p_bench.add_argument("-v", "--verbose", action="store_true")
    _add_rcgp_options(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_batch = sub.add_parser(
        "batch", help="scheduled, resumable synthesis of many targets")
    p_batch.add_argument("targets", nargs="+",
                         help="design files and/or benchmark names")
    p_batch.add_argument("--store", metavar="DIR", default=None,
                         help="job store directory; enables resume after "
                              "a kill and serves finished jobs without "
                              "re-running (default: in-memory)")
    p_batch.add_argument("--quantum", type=int, default=1000,
                         help="generations per job per scheduler tick "
                              "(fair-share + checkpoint granularity, "
                              "default 1000)")
    p_batch.add_argument("--max-ticks", type=int, default=None,
                         help="stop after this many scheduler ticks "
                              "(exit 3 if work remains; for testing "
                              "and incremental draining)")
    p_batch.add_argument("--lease-ttl", type=float, default=None,
                         metavar="SECONDS",
                         help="seconds without a lease heartbeat before "
                              "another process over the same --store may "
                              "take a job over (default 60; size well "
                              "above one slice's wall-clock)")
    _add_rcgp_options(p_batch)
    p_batch.set_defaults(func=_cmd_batch, seed=2024)
    p_batch.epilog = ("--seed defaults to 2024 here (not random): the "
                      "job identity hash includes the seed, so a stable "
                      "default is what makes re-invocations resume "
                      "instead of starting over.")

    p_serve = sub.add_parser(
        "serve", help="run the synthesis scheduler as an HTTP service")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1; use "
                              "0.0.0.0 behind a trusted network only — "
                              "the service has no authentication)")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="TCP port (default 8787; 0 picks a free "
                              "one and prints it)")
    p_serve.add_argument("--store", metavar="DIR", default=None,
                         help="job store directory; REQUIRED for the "
                              "restart-resume guarantee (default: "
                              "in-memory, results die with the process)")
    p_serve.add_argument("--quantum", type=int, default=500,
                         help="generations per job per scheduler slice "
                              "(checkpoint granularity + drain latency, "
                              "default 500)")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="bound on accepted-but-unscheduled "
                              "submissions; a full queue answers HTTP "
                              "429 (default 64)")
    p_serve.add_argument("--request-timeout", type=float, default=30.0,
                         help="per-request socket read timeout in "
                              "seconds (default 30)")
    p_serve.add_argument("--no-resume", action="store_true",
                         help="do not re-submit the store's unfinished "
                              "jobs on startup")
    p_serve.add_argument("--lease-ttl", type=float, default=None,
                         metavar="SECONDS",
                         help="seconds without a lease heartbeat before "
                              "another server over the same --store may "
                              "take a job over (default 60; lets N "
                              "servers split one store's queue)")
    cluster = p_serve.add_argument_group("cluster options")
    cluster.add_argument("--cluster-port", type=int, default=None,
                         help="also listen for rcgp worker processes on "
                              "this TCP port (0 picks a free one); "
                              "requires --cluster-token")
    cluster.add_argument("--cluster-host", default=None,
                         help="bind address for the worker listener "
                              "(default: same as --host)")
    cluster.add_argument("--cluster-token", default="",
                         help="shared secret workers must present "
                              "(default: $RCGP_CLUSTER_TOKEN)")
    _add_engine_options(p_serve, pool_only=True)
    p_serve.set_defaults(func=_cmd_serve)

    p_worker = sub.add_parser(
        "worker", help="serve evaluation frames to a coordinator over TCP")
    p_worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="the coordinator's --cluster-port endpoint")
    p_worker.add_argument("--token", default="",
                          help="shared secret (default: "
                               "$RCGP_CLUSTER_TOKEN)")
    p_worker.add_argument("--name", default="",
                          help="worker name reported to the coordinator "
                               "(default: hostname-pid)")
    p_worker.add_argument("--slots", type=int, default=0,
                          help="advertised cpu slots (default: "
                               "os.cpu_count())")
    p_worker.add_argument("--reconnect-delay", type=float, default=1.0,
                          metavar="SECONDS",
                          help="initial reconnect backoff after losing "
                               "the coordinator (doubles up to 30s)")
    p_worker.add_argument("--once", action="store_true",
                          help="exit after the first connection ends "
                               "instead of reconnecting (for tests)")
    p_worker.set_defaults(func=_cmd_worker)

    p_exact = sub.add_parser("exact", help="exact baseline on a benchmark")
    p_exact.add_argument("testcase")
    p_exact.add_argument("--conflicts", type=int, default=200_000)
    p_exact.add_argument("--time-budget", type=float, default=None)
    p_exact.add_argument("--max-gates", type=int, default=8)
    p_exact.set_defaults(func=_cmd_exact)

    p_table = sub.add_parser("table", help="run a paper table harness")
    p_table.add_argument("table", type=int, choices=(1, 2))
    p_table.add_argument("testcases", nargs="*")
    p_table.add_argument("--generations", type=int, default=None)
    p_table.add_argument("--no-exact", action="store_true")
    p_table.add_argument("--store", metavar="DIR", default=None,
                         help="job store directory: interrupted table "
                              "runs resume at the first unfinished row")
    _add_engine_options(p_table, telemetry_help="directory for per-"
                        "benchmark JSONL telemetry files")
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser(
        "verify", help="check that a synthesized netlist realizes a "
                       "design (exhaustive simulation up to "
                       f"{EXHAUSTIVE_FORMAL_LIMIT} inputs, SAT above)")
    p_verify.add_argument("netlist", help="RQFP JSON netlist")
    p_verify.add_argument("design", help="reference design file")
    p_verify.add_argument("--conflicts", type=int, default=200_000,
                          help="SAT conflict budget, spent only above "
                               f"{EXHAUSTIVE_FORMAL_LIMIT} inputs "
                               "(default 200000)")
    p_verify.set_defaults(func=_cmd_verify)

    p_stats = sub.add_parser(
        "stats", help="cost metrics and AQFP breakdown of a netlist")
    p_stats.add_argument("netlist", help="RQFP JSON netlist")
    p_stats.set_defaults(func=_cmd_stats)

    p_sweep = sub.add_parser("sweep", help="multi-seed statistics")
    p_sweep.add_argument("testcase")
    p_sweep.add_argument("--seeds", type=int, default=5)
    _add_rcgp_options(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_list = sub.add_parser("list", help="list registry benchmarks")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # Bad option values (RcgpConfig validation) and missing or
        # unwritable paths: one argparse-style line and argparse's
        # usage-error status, never a traceback.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
