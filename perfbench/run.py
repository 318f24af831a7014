"""End-to-end benchmark of the RCGP synthesizer, with per-layer traces.

One workload (the last stdout line is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``)::

    python3 perfbench/run.py --workload synth-paper --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(measured untraced, with time rescaled to a reference core speed by
``speed.py``); ``--trace 1`` reports its per-layer metrics from a
separate run with spans around every layer's entry points.

Every workload, three untraced and three traced runs in turn, printed
as tables (``synth-sampled-wide`` included, although ``BENCHMARK.json``
leaves it out while its jobs fail)::

    python3 perfbench/run.py --all --seed 1 --seconds 20

``--provenance FILE`` additionally writes the host facts, per-layer
shares and tracing overhead of that ``--all`` run as JSON.  The checker
self-test runs with ``python3 -m pytest perfbench/test_checker.py``.

Everything the benchmark writes goes under ``.perfbench_run/`` in the
checkout.  The determinism record there is kept per version of the code
(a hash of ``src/repro`` and ``perfbench``): a later run of the same code
with the same seed fails if any job's cost rows or exact counters differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import metrics
import serving
import tracing
from speed import SpeedProbe
from workloads import WORKLOADS, make_plan, spec_of, write_design

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench_run")
INPROC = os.path.join(HERE, "inproc.py")
#: Set-up is repeated this many times per untraced run; the median counts.
SETUP_REPEATS = 3
#: Kill an in-process child that runs longer than this (seconds).
CHILD_TIMEOUT_S = 170.0


def child_env(tmp: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["TMPDIR"] = tmp
    return env


def run_inproc(plan, run_dir: str, env: dict, trace: bool) -> dict:
    """Set up ``SETUP_REPEATS`` fresh processes (one when traced); the
    last one goes on to run the timed jobs."""
    inputs_dir = os.path.join(run_dir, "inputs")
    os.makedirs(inputs_dir, exist_ok=True)
    inputs = {job.name: write_design(job.circuit, job.fmt, inputs_dir)
              for job in [plan.warmup] + plan.jobs if job.fmt}
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w") as handle:
        json.dump({"workload": plan.workload.name,
                   "warmup": vars(plan.warmup),
                   "jobs": [vars(job) for job in plan.jobs],
                   "inputs": inputs}, handle)
    repeats = 1 if trace else SETUP_REPEATS
    setups, setup_speeds, warmups, out = [], [], [], {}
    spans_path = os.path.join(run_dir, "spans.json")
    for k in range(repeats):
        last = k == repeats - 1
        out_path = os.path.join(run_dir, f"out{k}.json")
        cmd = [sys.executable, INPROC, plan_path, out_path]
        if not last:
            cmd.append("--setup-only")
        elif trace:
            cmd += ["--trace-out", spans_path]
        with open(os.path.join(run_dir, f"child{k}.err"), "w") as err:
            # Set-up is timed in wall seconds less hypervisor steal.
            launched = time.perf_counter() - metrics.steal_s()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=env, text=True)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline().strip() == "READY"
                setups.append(time.perf_counter() - metrics.steal_s()
                              - launched)
                proc.stdout.read()
                code = proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if not ready or code != 0:
            with open(err.name) as handle:
                tail = handle.read()[-2000:]
            raise RuntimeError(f"benchmark process exited {code}:\n{tail}")
        with open(out_path) as handle:
            out = json.load(handle)
        warmups.append(out["warmup"])
        setup_speeds.append(out["setup_speed"])
    return {"rows": out["rows"], "timed_s": out["timed_s"],
            "cpu_s": out["cpu_s"], "steal_s": out["steal_s"],
            "speed": out["speed"], "setups": setups,
            "setup_speeds": setup_speeds, "warmups": warmups,
            "rss_kb": out["vmhwm_kb"],
            "spans": spans_path if trace else None, "client": None}


def run_serve(plan, run_dir: str, env: dict, trace: bool) -> dict:
    """Launch the server ``SETUP_REPEATS`` times (once when traced), each
    over a fresh store and warmed by one job; the last one takes the
    timed load.  The core-speed probe runs in this process, the
    clients' own, which the scheduler moves between the cores the server
    and its workers keep busy."""
    from repro.service import ServiceClient

    specs = {job.circuit: spec_of(job.circuit)
             for job in [plan.warmup] + plan.jobs}
    repeats = 1 if trace else SETUP_REPEATS
    setups, setup_speeds, warmups = [], [], []
    spans_path = os.path.join(run_dir, "spans.json")
    probe = SpeedProbe().start()
    try:
        for k in range(repeats):
            last = k == repeats - 1
            launched = time.perf_counter()
            server = serving.Server(
                os.path.join(run_dir, f"store{k}"),
                os.path.join(run_dir, f"server{k}"), env,
                trace_out=spans_path if trace and last else None)
            try:
                client = ServiceClient(server.url(), timeout=30.0)
                warmups.append(serving.run_job(
                    client, plan.warmup, plan.workload,
                    specs[plan.warmup.circuit], serving.ClientStats(),
                    time.perf_counter() + serving.JOB_TIMEOUT_S,
                    serving.SETUP_POLL_S))
                setups.append(time.perf_counter() - metrics.steal_s()
                              - server.launched)
                setup_speeds.append(probe.speed(launched))
                if last:
                    stats = serving.ClientStats()
                    # CPU of the server, its pool workers and the clients.
                    cpu_s = -(server.cpu_s() + time.process_time())
                    steal_s = -metrics.steal_s()
                    start = time.perf_counter()
                    rows, timed_s = serving.run_clients(
                        server.url(), plan, specs, stats,
                        time.perf_counter() + CHILD_TIMEOUT_S - 30)
                    speed = probe.speed(start)
                    steal_s += metrics.steal_s()
                    cpu_s += server.cpu_s() + time.process_time()
                    rss_kb = server.peak_rss_kb()
            finally:
                code = server.stop()
            if code != 0:
                raise RuntimeError(f"rcgp serve exited {code} after SIGTERM")
    finally:
        probe.stop()
    return {"rows": rows, "timed_s": timed_s, "cpu_s": cpu_s,
            "steal_s": steal_s, "speed": speed, "setups": setups,
            "setup_speeds": setup_speeds, "warmups": warmups,
            "rss_kb": rss_kb, "spans": spans_path if trace else None,
            "client": stats.summary()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns its metrics and verdict."""
    workload = WORKLOADS[name]
    plan = make_plan(workload, seed, seconds)
    run_dir = os.path.join(STATE, f"run-{os.getpid()}-{name}")
    shutil.rmtree(run_dir, ignore_errors=True)
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp)
    env = child_env(tmp)
    try:
        runner = run_serve if workload.kind == "serve" else run_inproc
        raw = runner(plan, run_dir, env, trace)
        rows = raw["rows"]
        mismatches = metrics.check_determinism(
            os.path.join(STATE, "determinism",
                         f"{name}-{metrics.code_hash(ROOT)[:16]}.json"),
            raw["warmups"] + rows)
        failed_warmups = [w["error"] for w in raw["warmups"] if not w["ok"]]
        e2e = metrics.end_to_end(rows, raw)
        layers = table = None
        if trace:
            with open(raw["spans"]) as handle:
                recorded = json.load(handle)
            table, queue_wait = tracing.summarize(
                recorded["spans"], recorded["job_names"],
                {job.name for job in plan.jobs})
            layers = metrics.per_layer(table, rows, queue_wait,
                                       raw["client"], e2e["jobs_per_s_ref"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"workload": name, "seed": seed, "trace": trace, "rows": rows,
            "e2e": e2e, "layers": layers, "table": table,
            "mismatches": mismatches, "failed_warmups": failed_warmups}


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(run: dict, definition: dict) -> dict:
    """Print one run in human form; return its JSON verdict."""
    rows = run["rows"]
    failed = [row for row in rows if not row["ok"]]
    print(f"workload {run['workload']}  seed {run['seed']}  "
          f"trace {int(run['trace'])}  jobs {len(rows)}  "
          f"failed {len(failed)}")
    for row in failed[:5]:
        print(f"  failed {row['job']}: {row['error']}")
    for message in run["mismatches"][:5]:
        print(f"  DETERMINISM MISMATCH {message}")
    for error in run["failed_warmups"]:
        print(f"  warm-up failed: {error}")
    e2e = run["e2e"]
    for name, unit in metrics.E2E_UNITS.items():
        print(f"  {name} {_fmt(e2e[name])} {unit}")
    if run["trace"]:
        print_layers(run)
        chosen, values = definition["per_layer"], run["layers"]
    else:
        chosen, values = definition["end_to_end"], e2e
    metrics_out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in chosen}
    if run["trace"]:
        for name, metric in metrics_out.items():
            print(f"  {name} {_fmt(metric['value'])} {metric['unit']}")
    correct = not failed and not run["mismatches"] \
        and not run["failed_warmups"]
    return {"correct": correct, "attempted": len(rows),
            "failed": len(failed), "metrics": metrics_out}


def layer_shares(table: dict) -> dict:
    """Self seconds per span name as a share of all traced self seconds
    (the in-process ``job`` span's self time is benchmark overhead plus
    program code outside any wrapped entry point)."""
    total = sum(row["self_s"] for row in table.values())
    return {name: row["self_s"] / total for name, row in
            sorted(table.items(), key=lambda item: -item[1]["self_s"])
            if total}


def print_layers(run: dict) -> None:
    table = run["table"]
    shares = layer_shares(table)
    print(f"  {'span':34s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s} "
          f"{'share':>6s}")
    for name, share in shares.items():
        row = table[name]
        print(f"  {name:34s} {row['calls']:9d} {row['s']:9.3f} "
              f"{row['self_s']:9.3f} {share:6.1%}")


def host_facts() -> dict:
    return {"cpu_count": os.cpu_count(),
            "sched_affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform()}


#: A seed no tuning run of this benchmark used: it confirms later claims
#: on data they were not tuned on.
HELD_OUT_SEED = 7177
#: Where the synth-sampled-wide jobs fail at the commit that defined the
#: benchmark; ``--all`` reports the error each job actually raised.
SAMPLED_DEFECT = (
    "JobSpec.job_id (src/repro/jobs/spec.py:94) JSON-encodes truth-table "
    "bits as integers; at 14+ inputs the integer has more than Python's "
    "4,300 digits, so every job raises a raw ValueError before any work "
    "(rcgp synth on a 14-input .pla fails the same way)")


#: Untraced/traced run pairs per workload in ``--all``: one pair's
#: overhead figure is within the host's run-to-run drift.
OVERHEAD_PAIRS = 3
#: The throughputs whose traced/untraced ratio is the tracing overhead:
#: the ones rescaled to the reference core speed, since the host's speed
#: moves the raw ones by more than the overhead.
THROUGHPUTS = ("jobs_per_s_ref", "jobs_per_cpu_s_ref")


def _median_of(runs, key: str):
    values = [run["e2e"][key] for run in runs]
    return statistics.median(values) if all(values) else None


def run_all(args, definition: dict) -> int:
    """Every workload, alternating untraced and traced runs of the same
    seed: the per-layer counts equal in every traced run repeat exactly,
    and the tracing overhead compares the medians of each side."""
    counts = {m["name"] for m in definition["per_layer"] if m["unit"] != "s"
              and not m["name"].endswith("_per_s")}
    summary = {"host": host_facts(), "seed": args.seed,
               "seconds": args.seconds, "held_out_seed": HELD_OUT_SEED,
               "workloads": {}}
    ok = True
    for name, workload in WORKLOADS.items():
        untraced, traced = [], []
        for pair in range(OVERHEAD_PAIRS):
            untraced.append(run_workload(name, args.seed, args.seconds,
                                         False))
            traced.append(run_workload(name, args.seed, args.seconds, True))
            if pair == 0:
                result = report(untraced[0], definition)
                report(traced[0], definition)
        ok &= not any(run["mismatches"] for run in untraced + traced)
        overhead = {}
        for key in THROUGHPUTS:
            plain, with_spans = _median_of(untraced, key), \
                _median_of(traced, key)
            if plain and with_spans:
                overhead[key] = 1 - with_spans / plain
                print(f"  tracing overhead {overhead[key]:.1%} of untraced "
                      f"{key} (medians of {OVERHEAD_PAIRS} runs each)")
        print()
        entry = {
            "why": workload.why,
            "end_to_end": untraced[0]["e2e"],
            "attempted": result["attempted"], "failed": result["failed"],
            "errors": sorted({row["error"] for row in untraced[0]["rows"]
                              if not row["ok"]}),
            "tracing_overhead": overhead,
            "throughputs": {key: {"untraced": [r["e2e"][key]
                                               for r in untraced],
                                  "traced": [r["e2e"][key] for r in traced]}
                            for key in THROUGHPUTS},
            "exact_counts": sorted(
                k for k in counts
                if len({run["layers"][k] for run in traced}) == 1),
            "layer_shares": {k: round(v, 4) for k, v in
                             layer_shares(traced[0]["table"]).items()},
            "per_layer": traced[0]["layers"]}
        if name == "synth-sampled-wide":
            entry["defect"] = SAMPLED_DEFECT
        summary["workloads"][name] = entry
    if args.provenance:
        with open(args.provenance, "w") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    print(json.dumps({"correct": ok, "workloads": list(summary["workloads"])}))
    return 0 if ok else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--provenance", metavar="FILE")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")) or \
            not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        definition = json.load(handle)
    if args.all:
        return run_all(args, definition)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    result = report(run, definition)
    print(json.dumps(result))
    return 3 if run["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
