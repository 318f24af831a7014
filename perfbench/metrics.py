"""Job rows, the determinism guard, and the metrics computed from them.

A *row* is one job's outcome: elapsed seconds (call or POST to a checked
result in hand), the checker's verdict, the cost rows of the final and
initialization circuits, and the run's exact counters.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from typing import Dict, List, Optional, Sequence

from checker import check_result

#: Units of every end-to-end figure a run prints; BENCHMARK.json gates
#: the ones that stay steady on a shared host.
E2E_UNITS = {"jobs_per_s_ref": "jobs/s", "jobs_per_cpu_s_ref": "jobs/cpu-s",
             "setup_s": "s", "peak_rss_mb": "MB", "jj_ratio_gmean": "ratio",
             "jobs_per_s": "jobs/s", "jobs_per_cpu_s": "jobs/cpu-s",
             "job_s_p50": "s", "setup_wall_s": "s", "error_rate": "fraction",
             "core_speed": "ratio"}
#: EvolutionResult counters copied into every row.
COUNTERS = ("generations", "evaluations", "eval_full", "eval_incremental",
            "ports_resimulated", "sat_calls", "cache_hits", "bytes_shipped",
            "chunks_dispatched", "pipeline_stalls", "worker_restarts",
            "batches_retried")
#: Counters that must repeat exactly for the same job: the transport
#: counters depend on how the pool chunked batches at run time.
EXACT_COUNTERS = ("generations", "evaluations", "eval_full",
                  "eval_incremental", "ports_resimulated", "sat_calls",
                  "cache_hits")


def _cost(cost) -> List[int]:
    return [cost.n_r, cost.n_b, cost.n_d, cost.n_g, cost.jjs]


def result_row(job, result, spec, start: float, generations: int) -> dict:
    """Check ``result`` against ``spec`` and record the job's outcome;
    the job's time runs from ``start`` to the end of the check."""
    issues = check_result(result, [(t.num_vars, t.bits) for t in spec])
    elapsed = time.perf_counter() - start
    return {"job": job.name, "key": job.key(generations),
            "elapsed": elapsed, "ok": not issues,
            "error": "; ".join(issues[:3]) or None,
            "final": _cost(result.cost), "initial": _cost(result.initial.cost),
            "counts": {name: int(getattr(result.evolution, name))
                       for name in COUNTERS}}


def failed_row(job, elapsed: float, error: str) -> dict:
    return {"job": job.name, "key": None, "elapsed": elapsed, "ok": False,
            "error": error, "final": None, "initial": None, "counts": {}}


def vmhwm_kb(pid: int) -> int:
    """Peak resident set size of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def steal_s() -> float:
    """Hypervisor steal so far, in seconds per CPU (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        steal_ticks = int(handle.readline().split()[8])
    return steal_ticks / os.sysconf("SC_CLK_TCK") / (os.cpu_count() or 1)


def code_hash(root: str) -> str:
    """SHA-256 over the program's and the benchmark's Python sources, so
    the determinism record only compares runs of the same code."""
    digest = hashlib.sha256()
    for top in ("src/repro", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def determinism_row(row: dict) -> list:
    return [row["final"], row["initial"],
            [row["counts"][name] for name in EXACT_COUNTERS]]


def check_determinism(record_path: str, rows: Sequence[dict]) -> List[str]:
    """Compare each passing job with the record of earlier runs of the
    same job (same circuit, seed, budget and format), then add it.
    ``record_path`` names the code (:func:`code_hash`): a change to the
    program starts a record of its own.

    Returns one message per mismatch."""
    record: Dict[str, list] = {}
    if os.path.exists(record_path):
        with open(record_path) as handle:
            record = json.load(handle)
    mismatches = []
    for row in rows:
        if not row["ok"]:
            continue
        seen = record.setdefault(row["key"], determinism_row(row))
        if seen != determinism_row(row):
            mismatches.append(f"{row['job']}: {determinism_row(row)} != "
                              f"recorded {seen}")
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    tmp = record_path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(record, handle)
    os.replace(tmp, record_path)
    return mismatches


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered))
                                             - 1))]


def end_to_end(rows: Sequence[dict], raw: dict) -> dict:
    """Every end-to-end figure of one run.

    ``raw`` holds the timed phase's wall seconds (``timed_s``), the CPU
    seconds (user + system) the program's processes and the benchmark's
    own client used in it (``cpu_s``), the hypervisor steal per CPU over
    it (``steal_s``), the core speed over it (``speed``, see
    ``speed.py``), the wall seconds less steal of each set-up
    (``setups``) with the core speed over each (``setup_speeds``), and
    the peak RSS (``rss_kb``).

    The ``_ref`` throughputs and ``setup_s`` count time at the reference
    core speed, so they hold still while the shared host's cores speed
    up and slow down; ``jobs_per_s_ref`` is wall-clock (less steal) and
    sees waiting (I/O, locks, polls) and parallelism, which CPU time
    cannot."""
    passed = [row for row in rows if row["ok"]]
    times = [row["elapsed"] if row["ok"] else math.inf for row in rows]
    ratios = [row["final"][4] / row["initial"][4] for row in passed]
    p50 = statistics.median(times) if times else math.inf
    speed = raw["speed"]

    def rate(seconds):
        return len(passed) / seconds if seconds > 0 else 0.0

    return {
        "jobs_per_s_ref": rate((raw["timed_s"] - raw["steal_s"]) * speed),
        "jobs_per_cpu_s_ref": rate(raw["cpu_s"] * speed),
        "setup_s": statistics.median(
            s * v for s, v in zip(raw["setups"], raw["setup_speeds"])),
        "peak_rss_mb": raw["rss_kb"] / 1024.0,
        "jj_ratio_gmean": math.exp(statistics.fmean(map(math.log, ratios)))
        if ratios else None,
        "jobs_per_s": rate(raw["timed_s"]),
        "jobs_per_cpu_s": rate(raw["cpu_s"]),
        "job_s_p50": p50 if math.isfinite(p50) else None,
        "setup_wall_s": statistics.median(raw["setups"]),
        "error_rate": (len(rows) - len(passed)) / len(rows) if rows else 0.0,
        "core_speed": speed,
    }


def per_layer(table: Dict[str, dict], rows: Sequence[dict],
              queue_wait: Dict[str, float], client: Optional[dict],
              traced_jobs_per_s_ref: float) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced run.

    ``table`` is :func:`tracing.summarize` output over the timed jobs;
    times are seconds summed over those jobs, ``.s`` being span self
    time; counts of work come from the program's own result counters."""
    def row(name):
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                "value": 0})

    def total(counter):
        return sum(r["counts"].get(counter, 0) for r in rows if r["ok"])

    def mean_value(name):
        return row(name)["value"] / row(name)["calls"] \
            if row(name)["calls"] else 0.0

    out: Dict[str, float] = {}
    for name in ("io.load_spec", "rqfp.optimal_levels",
                 "rqfp.bypass_wire_gates", "core.mutation",
                 "core.fitness.eval_incremental", "core.fitness.eval_full",
                 "sat.check", "core.kernel.shrink"):
        out[name + ".s"] = row(name)["self_s"]
        out[name + ".calls"] = row(name)["calls"]
    for name in ("networks.tables_to_aig", "networks.aig_to_mig",
                 "opt.resyn2", "opt.aqfp_resynthesis", "rqfp.mig_to_rqfp",
                 "rqfp.insert_splitters", "core.verify"):
        out[name + ".s"] = row(name)["self_s"]
    out["opt.aig_ands"] = mean_value("opt.resyn2")
    out["rqfp.initial_gates"] = mean_value("rqfp.insert_splitters")
    out["core.mutation.touched_gates"] = mean_value("core.mutation")
    incremental = total("eval_incremental")
    out["core.fitness.ports_per_eval"] = \
        total("ports_resimulated") / incremental if incremental else 0.0

    run = row("core.engine.run")
    evals = total("evaluations")
    out["core.engine.run.s"] = run["s"]
    out["core.engine.run.self_s"] = run["self_s"]
    out["core.engine.evals"] = evals
    out["core.engine.evals_per_s"] = evals / run["s"] if run["s"] else 0.0
    out["core.engine.cache_hit_ratio"] = \
        total("cache_hits") / evals if evals else 0.0
    out["core.engine.telemetry.s"] = row("core.engine.telemetry")["self_s"]
    out["core.engine.telemetry.events"] = row("core.engine.telemetry")["calls"]

    step = row("jobs.scheduler.step")
    out["jobs.scheduler.step.s"] = step["s"]
    out["jobs.scheduler.step.self_s"] = step["self_s"]
    out["jobs.scheduler.slices"] = step["value"]   # steps that ran a job
    for kind, count in (("write", "writes"), ("read", "reads"),
                        ("lease", "leases")):
        out[f"jobs.store.{kind}.s"] = row("jobs.store." + kind)["self_s"]
        out[f"jobs.store.{count}"] = row("jobs.store." + kind)["calls"]

    out["jobs.pool.wait.s"] = row("jobs.pool.wait")["self_s"]
    out["jobs.pool.calls"] = row("jobs.pool.wait")["calls"]
    for counter in ("bytes_shipped", "chunks_dispatched", "pipeline_stalls",
                    "worker_restarts", "batches_retried"):
        out["jobs.pool." + counter] = total(counter)

    client = client or {}
    for op in ("submit", "result", "status"):
        latencies = client.get(op, [])
        out[f"service.{op}.s_p50"] = \
            statistics.median(latencies) if latencies else 0.0
    status = client.get("status", [])
    out["service.status.s_p99"] = percentile(status, 0.99) if status else 0.0
    out["service.requests"] = client.get("requests", 0)
    out["service.http_errors"] = client.get("http_errors", 0)
    waits = list(queue_wait.values())
    out["service.queue_wait.s_p50"] = statistics.median(waits) \
        if waits else 0.0
    out["traced.jobs_per_s_ref"] = traced_jobs_per_s_ref
    return out
