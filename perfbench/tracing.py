"""Spans around the program's layer entry points, recorded from outside.

The benchmark installs these wrappers only in a traced run; the program
itself carries no instrumentation.  Module attributes are wrapped where
their callers look them up at call time, and class methods on the class,
so every instance is covered.  A span records its name, start, end,
parent span and job; spans stay in memory and are written out once, at
the end of the run.

Layer names are this repository's module names (``io``, ``networks``,
``opt``, ``rqfp``, ``core.*``, ``sat``, ``jobs.*``, ``service``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional

# Span record: [id, name, start, end, parent id (0 = root), job, value].
# ``value`` carries one count measured at the boundary (e.g. the gates a
# mutation touched), or None.
ID, NAME, START, END, PARENT, JOB, VALUE = range(7)


def _delta_gates(args, result):
    return len(result[1].gates)


def _num_ands(args, result):
    return result.num_ands()


def _num_gates(args, result):
    return result.num_gates


def _job_name(args, result):
    return {"job": result.name}


def _step_job(args, result):
    return None if result is None else {"job": result.name, "value": 1}


def _submit_job(args, result):
    body = args[1]
    return {"job": str(body.get("name", "")), "job_id": result[1]["job_id"]}


def _job_id_arg(args, result):
    return {"job_id": args[1]}


# (module, attribute, span name, count or job extractor).  Flow stages are
# wrapped where ``repro.core.synthesis`` and ``repro.jobs.scheduler`` look
# them up; ``repro.api`` imports ``load_spec`` from ``repro.flow`` per call.
MODULE_FUNCTIONS = [
    ("repro.flow", "load_spec", "io.load_spec", None),
    ("repro.core.synthesis", "tables_to_aig", "networks.tables_to_aig", None),
    ("repro.core.synthesis", "resyn2", "opt.resyn2", _num_ands),
    ("repro.core.synthesis", "aig_to_mig", "networks.aig_to_mig", None),
    ("repro.core.synthesis", "aqfp_resynthesis", "opt.aqfp_resynthesis",
     None),
    ("repro.core.synthesis", "mig_to_rqfp", "rqfp.mig_to_rqfp", None),
    ("repro.core.synthesis", "insert_splitters", "rqfp.insert_splitters",
     _num_gates),
    ("repro.core.synthesis", "optimal_levels", "rqfp.optimal_levels", None),
    ("repro.jobs.scheduler", "optimal_levels", "rqfp.optimal_levels", None),
    ("repro.core.engine", "mutate_with_delta", "core.mutation",
     _delta_gates),
    ("repro.core.engine", "bypass_wire_gates", "rqfp.bypass_wire_gates",
     None),
    ("repro.core.engine", "encode_genome", "core.engine.encode_genome",
     None),
    ("repro.core.fitness", "check_against_tables", "sat.check", None),
    ("repro.core.verify", "check_against_tables", "sat.check", None),
    ("repro.core.verify", "verify_evolution_result", "core.verify", None),
]

# (module, class, method, span name, count or job extractor).
CLASS_METHODS = [
    ("repro.core.fitness", "Evaluator", "evaluate",
     "core.fitness.eval_full", None),
    ("repro.core.fitness", "Evaluator", "evaluate_incremental",
     "core.fitness.eval_incremental", None),
    ("repro.core.fitness", "Evaluator", "prepare_parent",
     "core.fitness.prepare_parent", None),
    ("repro.core.fitness", "Evaluator", "finalize",
     "core.fitness.finalize", None),
    ("repro.core.kernel", "NetlistKernel", "shrink", "core.kernel.shrink",
     None),
    ("repro.core.engine", "EvolutionRun", "run", "core.engine.run", None),
    ("repro.core.engine", "TelemetryWriter", "emit",
     "core.engine.telemetry", None),
    ("repro.jobs.scheduler", "Scheduler", "step", "jobs.scheduler.step",
     _step_job),
    ("repro.jobs.scheduler", "Scheduler", "submit",
     "jobs.scheduler.submit", _job_name),
] + [
    ("repro.jobs.store", "JobStore", method, "jobs.store." + kind, None)
    for kind, methods in (
        ("write", ("save_record", "save_checkpoint", "save_baseline",
                   "save_result", "rotate_telemetry")),
        ("read", ("load_record", "load_checkpoint", "load_baseline",
                  "load_result", "read_telemetry")),
        ("lease", ("acquire_lease", "refresh_lease", "release_lease")))
    for method in methods
] + [
    ("repro.jobs.pool", "JobBackend", method, "jobs.pool.wait", None)
    for method in ("evaluate", "evaluate_deltas", "dispatch_span",
                   "collect_span")
]

# Request handling inside the server process: parents for the store reads
# that status polls cause, and the submit time that queue wait starts at.
SERVER_METHODS = [
    ("repro.service.server", "ServiceServer", "submit", "service.submit",
     _submit_job),
    ("repro.service.server", "ServiceServer", "job_view", "service.status",
     _job_id_arg),
    ("repro.service.server", "ServiceServer", "result_payload",
     "service.result", _job_id_arg),
]


class Tracer:
    """Records spans per thread; wrappers are installed and removed here."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.job_names: Dict[str, str] = {}   # program job id -> job name
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             extract: Optional[Callable] = None) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            record = [next(tracer._ids), name, 0.0, 0.0,
                      stack[-1] if stack else 0, None, None]
            stack.append(record[ID])
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
                tracer.spans.append(record)
            if extract is not None:
                tracer._annotate(record, extract(args, result))
            return result

        return traced

    def _annotate(self, record: list, found) -> None:
        if isinstance(found, dict):
            if found.get("job_id") and found.get("job"):
                self.job_names[found["job_id"]] = found["job"]
            record[JOB] = found.get("job") or found.get("job_id")
            record[VALUE] = found.get("value")
        else:
            record[VALUE] = found

    @contextlib.contextmanager
    def job_span(self, job: str):
        """Root span the benchmark opens around one in-process job."""
        stack = self._stack()
        record = [next(self._ids), "job", 0.0, 0.0,
                  stack[-1] if stack else 0, job, None]
        stack.append(record[ID])
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def install(self, server: bool = False) -> None:
        for module, attr, name, extract in MODULE_FUNCTIONS:
            self._patch(importlib.import_module(module), attr, name,
                        extract)
        methods = CLASS_METHODS + (SERVER_METHODS if server else [])
        for module, cls, attr, name, extract in methods:
            owner = getattr(importlib.import_module(module), cls)
            self._patch(owner, attr, name, extract)

    def _patch(self, owner, attr: str, name: str, extract) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, extract))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "job_names": self.job_names},
                      handle)


def summarize(spans: List[list], job_names: Dict[str, str], jobs: set):
    """Per span name: calls, total and self seconds and summed values,
    over the spans whose job (own or inherited from an ancestor) is one
    of ``jobs``; and per job, the time from the end of its
    ``service.submit`` to the start of its first ``jobs.scheduler.step``
    (its queue wait in the server)."""
    by_id = {s[ID]: s for s in spans}
    child_time: Dict[int, float] = {}
    for s in spans:
        if s[PARENT]:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + \
                s[END] - s[START]

    resolved: Dict[int, Optional[str]] = {}

    def job_of(span) -> Optional[str]:
        chain = []
        job = None
        while span is not None:
            if span[ID] in resolved:
                job = resolved[span[ID]]
                break
            chain.append(span[ID])
            if span[JOB] is not None:
                job = job_names.get(span[JOB], span[JOB])
                break
            span = by_id.get(span[PARENT])
        for sid in chain:
            resolved[sid] = job
        return job

    table: Dict[str, Dict[str, float]] = {}
    first_step: Dict[str, float] = {}
    submitted: Dict[str, float] = {}
    for s in spans:
        job = job_of(s)
        if job not in jobs:
            continue
        row = table.setdefault(s[NAME], {"calls": 0, "s": 0.0,
                                         "self_s": 0.0, "value": 0})
        duration = s[END] - s[START]
        row["calls"] += 1
        row["s"] += duration
        row["self_s"] += duration - child_time.get(s[ID], 0.0)
        if isinstance(s[VALUE], (int, float)):
            row["value"] += s[VALUE]
        if s[NAME] == "jobs.scheduler.step":
            first_step[job] = min(first_step.get(job, s[START]), s[START])
        elif s[NAME] == "service.submit":
            submitted[job] = min(submitted.get(job, s[END]), s[END])
    queue_wait = {job: first_step[job] - submitted[job]
                  for job in first_step if job in submitted}
    return table, queue_wait
