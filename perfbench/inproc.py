"""One in-process benchmark process: import, warm up, then run the jobs.

Started by ``run.py``, never by hand::

    python3 perfbench/inproc.py PLAN.json OUT.json [--setup-only]
                                [--trace-out SPANS.json]

It prints ``READY`` on stdout once the import and the untimed warm-up job
are done; ``run.py`` times set-up from launch to that line.  Each timed
job is one ``repro.api.synthesize`` call followed by the independent
output check, in a closed loop.  Results, the process's peak RSS and,
when traced, the spans go to files.  The core-speed probe (``speed.py``)
runs from the first line to the end, and the core's speed over set-up
and over the timed jobs goes to the results too.
"""

from __future__ import annotations

import json
import os
import sys
import time

from speed import SpeedProbe

STARTED = time.perf_counter()
# Started before the program is imported: import is part of set-up.
PROBE = SpeedProbe().start()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.api import synthesize  # noqa: E402

import metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Job, rcgp_config, spec_of  # noqa: E402


def run_job(job: Job, plan: dict, specs: dict) -> dict:
    workload = WORKLOADS[plan["workload"]]
    spec = specs.get(job.circuit)
    if spec is None:
        spec = specs[job.circuit] = spec_of(job.circuit)
    source = plan["inputs"][job.name] if job.fmt else spec
    config = rcgp_config(workload, job.seed)
    start = time.perf_counter()
    try:
        result = synthesize(source, config, name=job.name)
        return metrics.result_row(job, result, spec, start,
                                  workload.generations)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        return metrics.failed_row(job, time.perf_counter() - start,
                                  f"{type(exc).__name__}: {exc}"[:300])


def main(argv) -> int:
    plan_path, out_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace-out") + 1] \
        if "--trace-out" in argv else None
    with open(plan_path) as handle:
        plan = json.load(handle)
    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        tracer.install()
    specs: dict = {}
    warmup = run_job(Job(**plan["warmup"]), plan, specs)
    print("READY", flush=True)
    out = {"warmup": warmup, "rows": [], "timed_s": 0.0, "cpu_s": 0.0,
           "steal_s": 0.0, "speed": None, "setup_speed": PROBE.speed(STARTED)}
    if not setup_only:
        jobs = [Job(**job) for job in plan["jobs"]]
        for job in jobs:   # specs are inputs: build them before timing
            specs.setdefault(job.circuit, spec_of(job.circuit))
        steal_start = metrics.steal_s()
        start, cpu_start = time.perf_counter(), time.process_time()
        for job in jobs:
            if tracer is None:
                out["rows"].append(run_job(job, plan, specs))
            else:
                with tracer.job_span(job.name):
                    out["rows"].append(run_job(job, plan, specs))
        end = time.perf_counter()
        out["timed_s"] = end - start
        out["cpu_s"] = time.process_time() - cpu_start
        out["steal_s"] = metrics.steal_s() - steal_start
        out["speed"] = PROBE.speed(start, end)
    PROBE.stop()
    out["vmhwm_kb"] = metrics.vmhwm_kb(os.getpid())
    if tracer is not None:
        tracer.dump(spans_path)
    with open(out_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
